"""Seeded workload generators for the end-to-end benchmark.

Each workload is a production program (DSL text, parsed inside the
timed set-up) plus an initial working memory generated from the seed.
The engine sees only the generated rules and elements; the seed never
reaches it.

* ``manners`` -- Miss Manners from :mod:`repro.workloads`: joins
  dominate and one rule does nearly all the match work.
* ``orders`` -- a reserve/pick/pack/ship/restock pipeline (the rules of
  ``examples/order_fulfillment.py``) over Zipf-skewed SKUs: wide,
  independent, write-heavy firings.
* ``walk`` -- tokens hopping over a Zipf-skewed graph through a 4-CE
  join, one rule per token group: read-heavy and match-balanced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.lang import parse_program
from repro.lang.production import Production
from repro.wm.memory import WorkingMemory
from repro.wm.snapshot import WMSnapshot
from repro.workloads import build_manners_memory, build_manners_rules

#: Parameters of each workload; ``BENCHMARK.json`` and the README
#: quote these.
PARAMS: dict[str, dict] = {
    "manners": {
        "guests": 32,
        "strategy": "priority",
        "processors": None,
    },
    "orders": {
        "orders": 48,
        "skus": 24,
        "zipf_s": 1.0,
        "strategy": "lex",
        "processors": 8,
    },
    "walk": {
        "rules": 8,
        "tokens_per_rule": 3,
        "hops": 6,
        "nodes": 300,
        "out_degree": 4,
        "zipf_s": 1.0,
        "strategy": "lex",
        "processors": 8,
    },
}

ORDERS_RULES = """
(p reserve
   (order ^id <o> ^sku <s> ^state "new")
   (stock ^sku <s> ^qty <q> ^qty >= 1)
   -->
   (modify 1 ^state "reserved")
   (modify 2 ^qty (<q> - 1)))

(p pick
   (order ^id <o> ^state "reserved")
   -(pick-ticket ^order <o>)
   -->
   (make pick-ticket ^order <o>)
   (modify 1 ^state "picked"))

(p pack
   (order ^id <o> ^state "picked")
   (pick-ticket ^order <o>)
   -->
   (remove 2)
   (modify 1 ^state "packed"))

(p ship
   (order ^id <o> ^state "packed")
   -->
   (modify 1 ^state "shipped")
   (make manifest ^order <o>))

(p restock
   (stock ^sku <s> ^qty 0)
   -(po ^sku <s>)
   -->
   (make po ^sku <s>))
"""

_WALK_RULE = """
(p hop-{rule}
   (token ^group {rule} ^id <t> ^at <a> ^hops <h> ^hops < {hops})
   (edge ^src <a> ^dst <b>)
   (node ^id <b> ^color <c>)
   (allow ^group {rule} ^color <c>)
   -->
   (modify 1 ^at <b> ^hops (<h> + 1)))
"""


@dataclass(frozen=True)
class Workload:
    """One generated instance: rule parser, initial state, run knobs.

    ``parse_rules`` parses the program from its source text on every
    call, so the benchmark can time parsing as part of set-up.
    """

    name: str
    parse_rules: Callable[[], list[Production]]
    initial: WMSnapshot
    strategy: str
    processors: int | None
    params: dict


def _zipf_quotas(total: int, n: int, s: float) -> list[int]:
    """``total`` split over ranks ``0..n-1`` in proportion to
    1/(rank+1)^s, rounded by largest remainder.

    The split is a function of the parameters alone; the seed only
    decides which item gets which rank.  Seeds then differ in layout,
    not in how skewed the load is, which keeps run time steady across
    seeds.
    """
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    exact = [total * w / sum(weights) for w in weights]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda r: quotas[r] - exact[r])
    for rank in by_remainder[: total - sum(quotas)]:
        quotas[rank] += 1
    return quotas


def _manners(seed: int) -> Workload:
    p = PARAMS["manners"]
    memory = build_manners_memory(p["guests"], seed=seed)
    return Workload(
        "manners", build_manners_rules, WMSnapshot.capture(memory),
        p["strategy"], p["processors"], dict(p),
    )


def _orders(seed: int) -> Workload:
    """Orders over SKUs with Zipf demand; every SKU holds enough stock.

    Each SKU starts with its demand plus 0-2 spare units (by rank), so
    every order ships and the SKUs with no spare trigger ``restock``.
    """
    p = PARAMS["orders"]
    rng = random.Random(seed)
    skus = [f"sku{index}" for index in range(p["skus"])]
    rng.shuffle(skus)
    quotas = _zipf_quotas(p["orders"], p["skus"], p["zipf_s"])
    demand = dict(zip(skus, quotas))
    arrivals = [sku for sku in skus for _ in range(demand[sku])]
    rng.shuffle(arrivals)
    memory = WorkingMemory()
    for rank, sku in enumerate(skus):
        memory.make("stock", sku=sku, qty=demand[sku] + rank % 3)
    for order_id, sku in enumerate(arrivals, start=1):
        memory.make("order", id=order_id, sku=sku, state="new")
    return Workload(
        "orders", lambda: parse_program(ORDERS_RULES),
        WMSnapshot.capture(memory), p["strategy"], p["processors"], dict(p),
    )


def _walk(seed: int) -> Workload:
    """A graph whose edge targets are drawn Zipf-skewed over nodes.

    Colours are dealt in equal shares, and every node gets one
    successor of each colour, drawn by Zipf weight over that colour's
    nodes (a few hot nodes are the target of many edges).  Every group
    may enter all colours but one, so each token has exactly
    ``out_degree - 1`` moves at every step: seeds change the layout,
    not the amount of work.
    """
    p = PARAMS["walk"]
    rng = random.Random(seed)
    nodes = p["nodes"]
    colors = [index % p["out_degree"] for index in range(nodes)]
    rng.shuffle(colors)
    memory = WorkingMemory()
    for node in range(nodes):
        memory.make("node", id=node, color=f"c{colors[node]}")
    # Zipf ranks are shuffled over node ids, so hot nodes are spread
    # over the graph.
    ranked = list(range(nodes))
    rng.shuffle(ranked)
    weight = {
        node: 1.0 / (rank + 1) ** p["zipf_s"]
        for rank, node in enumerate(ranked)
    }
    classes = []
    for color in range(p["out_degree"]):
        members = [node for node in ranked if colors[node] == color]
        classes.append((members, [weight[node] for node in members]))
    for src in range(nodes):
        for members, weights in classes:
            dst = src
            while dst == src:
                dst = rng.choices(members, weights)[0]
            memory.make("edge", src=src, dst=dst)
    rules_text = ""
    for group in range(p["rules"]):
        barred = group % p["out_degree"]
        for color in range(p["out_degree"]):
            if color != barred:
                memory.make("allow", group=group, color=f"c{color}")
        for index in range(p["tokens_per_rule"]):
            memory.make(
                "token", group=group, id=f"t{group}.{index}",
                at=rng.randrange(nodes), hops=0,
            )
        rules_text += _WALK_RULE.format(rule=group, hops=p["hops"])
    return Workload(
        "walk", lambda: parse_program(rules_text),
        WMSnapshot.capture(memory), p["strategy"], p["processors"], dict(p),
    )


GENERATORS = {"manners": _manners, "orders": _orders, "walk": _walk}


def generate(name: str, seed: int) -> Workload:
    """The instance of workload ``name`` for ``seed``."""
    return GENERATORS[name](seed)
