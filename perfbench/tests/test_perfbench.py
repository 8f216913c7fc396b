"""Tests of the benchmark itself: generators, oracles and the tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, run, tracing  # noqa: E402
from perfbench.workloads import GENERATORS, generate  # noqa: E402
from repro.engine.interpreter import Interpreter  # noqa: E402
from repro.txn import History, is_conflict_serializable  # noqa: E402


def _values(workload):
    return sorted(w.identity() for w in workload.initial.elements)


def _rule_text(workload):
    return [str(rule) for rule in workload.parse_rules()]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_a_function_of_the_seed(name):
    first, again, other = generate(name, 7), generate(name, 7), generate(name, 8)
    assert _values(first) == _values(again)
    assert _rule_text(first) == _rule_text(again)
    assert _values(first) != _values(other)


def _serial_final(name, seed=3):
    workload = generate(name, seed)
    memory = workload.initial.materialize()
    with Interpreter(
        workload.parse_rules(), memory, strategy=workload.strategy
    ) as engine:
        engine.run()
    return workload, memory


def test_manners_validator_rejects_a_swapped_seat():
    workload, memory = _serial_final("manners")
    checks.validate_manners(workload.initial, memory, workload.params)
    seats = sorted(memory.elements("seating"), key=lambda w: w["seat"])
    first, second = seats[1], seats[2]
    memory.modify(first, {"name": second["name"]})
    memory.modify(second, {"name": first["name"]})
    with pytest.raises(checks.CheckFailed):
        checks.validate_manners(workload.initial, memory, workload.params)


def test_orders_validator_rejects_a_double_shipped_order():
    workload, memory = _serial_final("orders")
    checks.validate_orders(workload.initial, memory, workload.params)
    memory.make("manifest", order=1)
    with pytest.raises(checks.CheckFailed, match="manifests"):
        checks.validate_orders(workload.initial, memory, workload.params)


def test_orders_validator_rejects_lost_stock():
    workload, memory = _serial_final("orders")
    stock = memory.elements("stock")[0]
    memory.modify(stock, {"qty": stock["qty"] + 1})
    with pytest.raises(checks.CheckFailed):
        checks.validate_orders(workload.initial, memory, workload.params)


def test_walk_validator_rejects_a_token_that_can_still_hop():
    workload, memory = _serial_final("walk")
    checks.validate_walk(workload.initial, memory, workload.params)
    color = {w["id"]: w["color"] for w in memory.elements("node")}
    allowed = {(w["group"], w["color"]) for w in memory.elements("allow")}
    token = memory.elements("token")[0]
    src = next(
        e["src"] for e in memory.elements("edge")
        if (token["group"], color[e["dst"]]) in allowed
    )
    memory.modify(token, {"at": src, "hops": workload.params["hops"] - 1})
    with pytest.raises(checks.CheckFailed, match="can still hop"):
        checks.validate_walk(workload.initial, memory, workload.params)


def _history(steps):
    """A history from ``(txn, kind[, object])`` steps."""
    history = History()
    for txn, kind, *obj in steps:
        getattr(history, kind)(txn, *obj)
    return history


def test_serializability_finds_a_planted_cycle():
    history = _history([
        ("T1", "read", "x"), ("T2", "write", "x"),
        ("T2", "read", "y"), ("T1", "write", "y"),
        ("T1", "commit"), ("T2", "commit"),
    ])
    cycle = checks.find_cycle(checks.conflict_graph(history))
    assert cycle is not None and cycle[0] == cycle[-1]
    assert set(cycle) == {"T1", "T2"}
    with pytest.raises(checks.CheckFailed):
        checks.check_serializable(history)


def test_aborted_transactions_do_not_count():
    history = _history([
        ("T1", "read", "x"), ("T2", "write", "x"),
        ("T2", "read", "y"), ("T1", "write", "y"),
        ("T1", "commit"), ("T2", "abort"),
    ])
    checks.check_serializable(history)


@pytest.mark.parametrize("seed", range(200))
def test_serializability_agrees_with_the_library(seed):
    rng = random.Random(seed)
    txns = [f"T{i}" for i in range(rng.randint(2, 5))]
    steps = [
        (rng.choice(txns), rng.choice(("read", "write")), rng.choice("xyz"))
        for _ in range(rng.randint(1, 12))
    ]
    for txn in txns:
        steps.append((txn, rng.choice(("commit", "commit", "abort"))))
    history = _history(steps)
    ours = checks.find_cycle(checks.conflict_graph(history)) is None
    assert ours == is_conflict_serializable(history)


def test_serializability_handles_deep_histories():
    # A 5000-transaction precedence chain: deeper than the default
    # recursion limit.
    steps = []
    for index in range(5000):
        steps += [
            (f"T{index:05d}", "read", index),
            (f"T{index:05d}", "write", index + 1),
            (f"T{index:05d}", "commit"),
        ]
    checks.check_serializable(_history(steps))


def test_self_times_sum_to_the_root_span():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    outer = tracer.wrap("rhs.execute", lambda: leaf_a() + leaf_b())
    leaf_a = tracer.wrap("wm.mutate", leaf)
    leaf_b = tracer.wrap("match.delta", leaf)
    with tracer.span("run"):
        outer()
        leaf_a()
    spans = tracer.finished()
    selves = tracing.self_times(spans)
    _, start, end, _ = spans[0]
    assert sum(selves) == end - start
    assert all(value > 0 for value in selves)


def test_traced_run_self_times_sum_to_wall():
    tracer = tracing.Tracer()
    sample = run.run_config("rc", generate("orders", 1), tracer)
    spans = tracer.finished()
    selves = tracing.self_times(spans)
    root = next(i for i, s in enumerate(spans) if s[0] == "run")
    inside = tracing.subtree(spans, root)
    _, start, end, _ = spans[root]
    assert sum(selves[i] for i in inside) == pytest.approx(end - start)
    assert sample["counts"]["rhs.execute"] == sample["firings"]


def test_one_traced_round_reports_every_layer_metric(capsys):
    assert run.main([
        "--workload", "orders", "--seed", "2", "--seconds", "0",
        "--trace", "1",
    ]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert 0 < result["metrics"]["coverage"]["value"] <= 1


def test_ratios_pair_runs_made_next_to_each_other():
    times = [float(i + 1) for i in range(len(run.ROUND))]
    serial = [i for i, config in enumerate(run.ROUND) if config == "serial"]
    for numerator, denominator in run.RATIOS.values():
        position = run.ROUND.index(denominator)
        if numerator == "serial":
            # The nearest serial runs on either side of the configuration.
            before = max(i for i in serial if i < position)
            after = min(i for i in serial if i > position)
            assert after - before <= 4
            assert run._paired_time(times, numerator, denominator) == (
                times[before] + times[after]
            ) / 2
        else:
            assert abs(run.ROUND.index(numerator) - position) == 1
    times[0] = None
    assert run._paired_time(times, "serial", "rc") is None


def test_end_to_end_metrics_match_the_benchmark_definition(capsys):
    assert run.main([
        "--workload", "orders", "--seed", "2", "--seconds", "0",
        "--trace", "0",
    ]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in definition["end_to_end"]}
    assert set(result["metrics"]) == names == set(run.END_TO_END)
    assert all(value["value"] > 0 for value in result["metrics"].values())
