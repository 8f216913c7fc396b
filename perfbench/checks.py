"""Output checks that live outside the engine.

Every function here raises :class:`CheckFailed` with a diagnostic when
an output is wrong.  They read the final working memory, the commit
sequence, the lock history and the durable directory; none of them
reuses the engine's own bookkeeping to decide correctness.
"""

from __future__ import annotations

from collections import defaultdict

from repro.engine.replay import replay_commit_sequence
from repro.txn.schedule import COMMIT, READ, WRITE, History
from repro.wm.snapshot import WMSnapshot
from repro.workloads import validate_seating


class CheckFailed(Exception):
    """An output check found a wrong result."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- per-workload validators ------------------------------------------------------


def validate_manners(initial: WMSnapshot, memory, params: dict) -> None:
    """Everyone seated once, contiguous seats, neighbours compatible."""
    try:
        validate_seating(memory)
    except AssertionError as error:
        raise CheckFailed(f"manners: {error}") from None


def validate_orders(initial: WMSnapshot, memory, params: dict) -> None:
    """Every order shipped exactly once with one manifest; stock is
    conserved; a purchase order exactly for each drained SKU."""
    ordered: dict[str, int] = defaultdict(int)
    initial_qty: dict[str, int] = {}
    for wme in initial.elements:
        if wme.relation == "order":
            ordered[wme["sku"]] += 1
        elif wme.relation == "stock":
            initial_qty[wme["sku"]] = wme["qty"]
    order_ids = sorted(
        w["id"] for w in initial.elements if w.relation == "order"
    )
    final_orders = memory.elements("order")
    require(
        sorted(w["id"] for w in final_orders) == order_ids,
        "orders: the set of orders changed",
    )
    for wme in final_orders:
        require(
            wme["state"] == "shipped",
            f"orders: order {wme['id']} ended {wme['state']!r}",
        )
    manifests = sorted(w["order"] for w in memory.elements("manifest"))
    require(
        manifests == order_ids,
        "orders: manifests are not exactly one per order",
    )
    require(
        memory.count("pick-ticket") == 0, "orders: pick-tickets left over"
    )
    final_qty = {w["sku"]: w["qty"] for w in memory.elements("stock")}
    require(
        len(final_qty) == memory.count("stock")
        and set(final_qty) == set(initial_qty),
        "orders: the set of stock rows changed",
    )
    for sku, qty in initial_qty.items():
        require(
            qty - final_qty[sku] == ordered[sku] and final_qty[sku] >= 0,
            f"orders: {sku} went {qty} -> {final_qty[sku]} "
            f"for {ordered[sku]} orders",
        )
    pos = sorted(w["sku"] for w in memory.elements("po"))
    drained = sorted(sku for sku, qty in final_qty.items() if qty == 0)
    require(
        pos == drained, "orders: purchase orders do not match drained SKUs"
    )


def validate_walk(initial: WMSnapshot, memory, params: dict) -> None:
    """Tokens kept their identity, hopped at most ``hops`` times, and
    none can still hop (the run reached quiescence)."""
    limit = params["hops"]
    start = {
        w["id"]: w for w in initial.elements if w.relation == "token"
    }
    tokens = memory.elements("token")
    require(
        sorted(w["id"] for w in tokens) == sorted(start),
        "walk: the set of tokens changed",
    )
    successors: dict[int, list[int]] = defaultdict(list)
    for wme in memory.elements("edge"):
        successors[wme["src"]].append(wme["dst"])
    color = {w["id"]: w["color"] for w in memory.elements("node")}
    allowed: dict[int, set[str]] = defaultdict(set)
    for wme in memory.elements("allow"):
        allowed[wme["group"]].add(wme["color"])
    for token in tokens:
        require(
            token["group"] == start[token["id"]]["group"],
            f"walk: token {token['id']} changed group",
        )
        require(
            0 <= token["hops"] <= limit,
            f"walk: token {token['id']} hopped {token['hops']} times",
        )
        if token["hops"] == 0:
            require(
                token["at"] == start[token["id"]]["at"],
                f"walk: token {token['id']} moved without hopping",
            )
        if token["hops"] < limit:
            for dst in successors[token["at"]]:
                require(
                    color[dst] not in allowed[token["group"]],
                    f"walk: token {token['id']} can still hop "
                    f"{token['at']} -> {dst}",
                )


VALIDATORS = {
    "manners": validate_manners,
    "orders": validate_orders,
    "walk": validate_walk,
}


# -- commit sequence and lock history ---------------------------------------------


def check_replay(
    initial: WMSnapshot, rules, firings, replayed: set
) -> None:
    """The commit sequence replays single-threaded (Definition 3.2).

    ``replayed`` holds the sequences already shown consistent from the
    same ``initial`` and ``rules``; the verdict is a function of the
    sequence, so a repeat is not replayed again.
    """
    key = tuple((f.rule_name, f.value_identities) for f in firings)
    if key in replayed:
        return
    outcome = replay_commit_sequence(
        initial, rules, firings, matcher="rete"
    )
    require(outcome.consistent, f"replay: {outcome.detail}")
    replayed.add(key)


def conflict_graph(history: History) -> dict[str, set[str]]:
    """Precedence edges of the committed projection, per object.

    For each object only the edges to the next conflicting operation
    are added: last writer -> reader, and last writer plus the readers
    since -> writer.  Every other conflict edge of the full graph is
    implied by a path through these, so the two graphs have the same
    reachability, and hence the same cycles, at O(ops) cost.
    """
    ops = history.operations()
    committed = {op.txn_id for op in ops if op.kind == COMMIT}
    graph: dict[str, set[str]] = {txn: set() for txn in committed}
    last_writer: dict[object, str] = {}
    readers: dict[object, set[str]] = defaultdict(set)
    for op in ops:
        if op.txn_id not in committed or op.kind not in (READ, WRITE):
            continue
        writer = last_writer.get(op.obj)
        if writer is not None and writer != op.txn_id:
            graph[writer].add(op.txn_id)
        if op.kind == READ:
            readers[op.obj].add(op.txn_id)
        else:
            for reader in readers.pop(op.obj, ()):
                if reader != op.txn_id:
                    graph[reader].add(op.txn_id)
            last_writer[op.obj] = op.txn_id
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as ``[a, b, ..., a]``, or ``None``.

    An iterative depth-first search, so deep histories cannot exhaust
    the interpreter's recursion limit.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        path = [root]
        color[root] = GREY
        stack = [iter(sorted(graph[root]))]
        while stack:
            successor = next(stack[-1], None)
            if successor is None:
                stack.pop()
                color[path.pop()] = BLACK
            elif color.get(successor, WHITE) == GREY:
                return path[path.index(successor):] + [successor]
            elif color.get(successor, WHITE) == WHITE:
                color[successor] = GREY
                path.append(successor)
                stack.append(iter(sorted(graph.get(successor, ()))))
    return None


def check_serializable(history: History) -> None:
    """The committed lock history is conflict-serializable."""
    cycle = find_cycle(conflict_graph(history))
    require(cycle is None, f"history has a precedence cycle {cycle}")


def check_recovered(directory, memory) -> None:
    """Recovering ``directory`` yields exactly ``memory``."""
    from repro.wm.storage import DurableStore

    recovered, store = DurableStore.open(directory)
    try:
        want = sorted((w.timetag, w.identity()) for w in memory)
        got = sorted((w.timetag, w.identity()) for w in recovered)
        require(got == want, "durable: recovered state differs from WM")
    finally:
        store.close()
