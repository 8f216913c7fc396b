"""End-to-end benchmark of the production-system engines.

One measurement runs one generated production program to quiescence
(or ``halt``) from one process, under each of six engine
configurations, and checks every output with the oracles in
:mod:`perfbench.checks`.  Rounds of the six configurations repeat until
``--seconds`` is spent; :func:`measure` says how repeats become one
value.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same configurations with span wrappers around each layer's entry
points (:mod:`perfbench.tracing`) and prints the per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload orders --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
if not (ROOT / "src" / "repro").is_dir():
    # Measure the checkout's own source, never an installed copy.
    sys.exit(f"perfbench: no src/repro under {ROOT}")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, tracing  # noqa: E402
from perfbench.workloads import GENERATORS, Workload, generate  # noqa: E402

#: Every engine configuration a run measures.
CONFIGS = ("rc_durable", "rc_sampled", "rc", "serial", "process", "2pl")
#: One untraced round, in order.  ``rc`` sits between the two
#: configurations measured against it, and serial runs bracket the
#: others, so each ratio below divides runs made moments apart.
ROUND = (
    "serial", "rc_durable", "rc", "rc_sampled", "serial", "2pl", "serial",
    "process", "serial",
)
#: Paired end-to-end ratios: name -> (numerator, denominator config).
RATIOS = {
    "speedup.rc": ("serial", "rc"),
    "speedup.2pl": ("serial", "2pl"),
    "speedup.process": ("serial", "process"),
    "overhead.durable": ("rc_durable", "rc"),
    "overhead.sampled": ("rc_sampled", "rc"),
}
#: Worker processes of the ``process`` configuration: one per core.
NPROC = len(os.sched_getaffinity(0))
PROCESS_MATCHER = f"partitioned:rete:{NPROC}:process"
#: ``rc_durable``'s fsync discipline.  ``batch`` writes and flushes
#: every WAL record but fsyncs only at segment seals, checkpoints and
#: close, none of which fall inside a timed run here; ``always`` adds an
#: fsync per record, which times the host's shared disk rather than the
#: store (its per-round ratio to ``rc`` ranged 1.3-2.9 on one seed).
DURABILITY = "batch"
MIN_ROUNDS = 3
#: Stop starting rounds past this many seconds, whatever ``--seconds``
#: says, so a run ends well inside its 180 s limit.
HARD_LIMIT_S = 120.0

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_ref.serial": ("ratio", "lower"),
    "speedup.rc": ("ratio", "higher"),
    "speedup.2pl": ("ratio", "higher"),
    "speedup.process": ("ratio", "higher"),
    "overhead.durable": ("ratio", "lower"),
    "overhead.sampled": ("ratio", "lower"),
    "firings_per_wave.rc": ("ratio", "higher"),
    "firings_per_wave.2pl": ("ratio", "higher"),
    "wasted_share.rc": ("ratio", "lower"),
    "wasted_share.2pl": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "passed_share": ("ratio", "higher"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "lang.parse_s": ("s", "lower"),
    "match.attach_s": ("s", "lower"),
    "match.s": ("s", "lower"),
    "match.s.serial": ("s", "lower"),
    "match.deltas": ("count", "lower"),
    "match.cs_churn": ("count", "lower"),
    "match.flush_s.process": ("s", "lower"),
    "match.flushes.process": ("count", "lower"),
    "select.s": ("s", "lower"),
    "select.s.serial": ("s", "lower"),
    "select.candidates": ("count", "lower"),
    "locks.acquire_s": ("s", "lower"),
    "locks.requests": ("count", "lower"),
    "locks.denied": ("count", "lower"),
    "locks.denied.2pl": ("count", "lower"),
    "locks.commit_s": ("s", "lower"),
    "locks.victims": ("count", "lower"),
    "locks.abort_s": ("s", "lower"),
    "rhs.s": ("s", "lower"),
    "rhs.attempts": ("count", "lower"),
    "rhs.commits": ("count", "higher"),
    "rhs.useful_ratio": ("ratio", "higher"),
    "wave.candidates_mean": ("count", "lower"),
    "wave.commits_mean": ("count", "higher"),
    "wm.s": ("s", "lower"),
    "wm.deltas": ("count", "lower"),
    "storage.append_s.durable": ("s", "lower"),
    "storage.records.durable": ("count", "lower"),
    "storage.wal_bytes.durable": ("B", "lower"),
    "storage.bytes_per_delta.durable": ("B", "lower"),
    "txn.history_ops": ("count", "lower"),
    "obs.sampled_ratio": ("ratio", "lower"),
    "obs.sampled_base_s": ("s", "lower"),
    "other_s": ("s", "lower"),
    "coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


# -- building and running one configuration --------------------------------------


def _instrument_memory(memory, tracer: tracing.Tracer) -> None:
    """Trace WM mutations and every listener the store publishes to."""
    from repro.match.base import BaseMatcher
    from repro.wm.storage import DurableStore
    from repro.wm.undo import UndoLog

    wrapped: dict = {}
    subscribe, unsubscribe = memory.subscribe, memory.unsubscribe

    def traced_subscribe(listener) -> None:
        owner = getattr(listener, "__self__", None)
        if isinstance(owner, BaseMatcher):
            name = "match.delta"
        elif isinstance(owner, UndoLog):
            name = "wm.undo"
        elif isinstance(owner, DurableStore):
            name = "storage.append"
        else:
            raise TypeError(f"unexpected WM listener {listener!r}")
        wrapped[listener] = tracer.wrap(name, tracer.count(name, listener))
        subscribe(wrapped[listener])

    def traced_unsubscribe(listener) -> None:
        unsubscribe(wrapped.pop(listener))

    memory.subscribe = traced_subscribe
    memory.unsubscribe = traced_unsubscribe
    for method in ("add", "remove"):
        counted = tracer.count("wm.delta", getattr(memory, method))
        setattr(memory, method, tracer.wrap("wm.mutate", counted))
    memory.modify = tracer.wrap("wm.mutate", memory.modify)


def _traced_matcher(spec: str, memory, tracer: tracing.Tracer):
    """A matcher whose conflict set and barrier are traced."""
    from contextlib import contextmanager

    from repro.engine.interpreter import build_matcher

    matcher = build_matcher(spec, memory)
    conflict_set = matcher.conflict_set
    conflict_set.eligible = tracer.wrap(
        "select.eligible", conflict_set.eligible
    )
    for method in ("add", "remove"):
        setattr(conflict_set, method, tracer.count(
            "match.cs_churn", getattr(conflict_set, method),
            lambda args, changed: int(changed),
        ))
    matcher.add_productions = tracer.wrap(
        "match.compile", matcher.add_productions
    )
    matcher.attach = tracer.wrap("match.attach", matcher.attach)
    batch = matcher.batch

    @contextmanager
    def traced_batch():
        # The span covers the RHS and, on exit, the barrier flush; the
        # flush is its self time once the RHS child is subtracted.
        tracer.counts["match.batch"] += 1
        with tracer.span("match.batch"), batch() as inner:
            yield inner

    matcher.batch = traced_batch
    return matcher


def _instrument_engine(engine, tracer: tracing.Tracer) -> None:
    """Trace select, locks and RHS on a constructed engine."""
    strategy = engine.strategy
    strategy.select = tracer.wrap("select.strategy", tracer.count(
        "select.candidates", strategy.select,
        lambda args, result: len(args[0]),
    ))
    engine.executor.execute = tracer.wrap(
        "rhs.execute", tracer.count("rhs.execute", engine.executor.execute)
    )
    scheme = getattr(engine, "scheme", None)
    if scheme is None:
        return
    engine._ordered_candidates = tracer.wrap(
        "select.order", engine._ordered_candidates
    )
    # The acquire phase computes each candidate's lock footprint and
    # transaction around its try_lock calls: lock-layer work, as in
    # repro.analysis.critpath's "acquire" bucket.
    engine._acquire_phase = tracer.wrap(
        "locks.acquire_phase", engine._acquire_phase
    )
    for method in ("try_lock_condition", "try_lock_action"):
        fn = tracer.count("locks.requests", getattr(scheme, method))
        fn = tracer.count(
            "locks.denied", fn, lambda args, granted: int(not granted)
        )
        setattr(scheme, method, tracer.wrap("locks.acquire", fn))
    scheme.commit = tracer.wrap("locks.commit", tracer.count(
        "locks.victims", scheme.commit,
        lambda args, outcome: len(outcome.victims),
    ))
    scheme.abort = tracer.wrap("locks.abort", scheme.abort)


def _build(config: str, workload: Workload, memory, tracer, directory):
    """Parse and construct the engine (and store) for ``config``."""
    from repro.engine.interpreter import Interpreter
    from repro.engine.parallel import ParallelEngine
    from repro.obs import NULL_OBSERVER, Observer
    from repro.wm.storage import DurableStore

    parse = workload.parse_rules
    if tracer is not None:
        parse = tracer.wrap("lang.parse", parse)
    rules = parse()
    spec = PROCESS_MATCHER if config == "process" else "rete"
    matcher = spec if tracer is None else _traced_matcher(spec, memory, tracer)
    if config in ("serial", "process"):
        engine = Interpreter(
            rules, memory, matcher=matcher, strategy=workload.strategy
        )
    else:
        engine = ParallelEngine(
            rules, memory,
            scheme="2pl" if config == "2pl" else "rc",
            matcher=matcher,
            strategy=workload.strategy,
            processors=workload.processors,
            observer=(
                Observer(level="sampled") if config == "rc_sampled"
                else NULL_OBSERVER
            ),
        )
    if tracer is not None:
        _instrument_engine(engine, tracer)
    store = None
    if config == "rc_durable":
        store = DurableStore(memory, directory, durability=DURABILITY)
        if tracer is not None:
            store.checkpoint = tracer.wrap(
                "storage.checkpoint", store.checkpoint
            )
        # Without a checkpoint the directory does not recover: the WAL
        # holds no record of the elements present at attach time.
        store.checkpoint()
    return rules, engine, store


def run_config(
    config: str, workload: Workload, tracer: tracing.Tracer | None = None,
    replayed: set | None = None,
) -> dict:
    """Build, run and check one configuration; returns its sample.

    ``replayed`` carries commit sequences of ``workload`` already shown
    to replay (see :func:`checks.check_replay`) across calls.
    Raises :class:`checks.CheckFailed` when an output is wrong.
    """
    memory = workload.initial.materialize()
    if tracer is not None:
        _instrument_memory(memory, tracer)
    directory = WORK / f"durable-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    gc.collect()
    try:
        start = time.perf_counter()
        if tracer is None:
            rules, engine, store = _build(
                config, workload, memory, None, directory
            )
        else:
            with tracer.span("setup"):
                rules, engine, store = _build(
                    config, workload, memory, tracer, directory
                )
        built = time.perf_counter()
        try:
            counts_at_run = Counter(tracer.counts) if tracer else None
            if tracer is None:
                result = engine.run(1_000_000)
            else:
                with tracer.span("run"):
                    result = engine.run(1_000_000)
            finished = time.perf_counter()
            wal_bytes = store.wal_bytes() if store is not None else 0
        finally:
            engine.close()
            if store is not None:
                store.close()
        sample = {
            "setup_s": built - start,
            "run_s": finished - built,
            "firings": len(result.firings),
        }
        if tracer is not None:
            sample["counts"] = tracer.counts - counts_at_run
            sample["wal_bytes"] = wal_bytes
        waves = getattr(engine, "waves", None)
        if waves is not None:
            launched = sum(
                len(w.committed) + len(w.aborted) + len(w.deferred)
                for w in waves
            )
            committed = sum(len(w.committed) for w in waves)
            sample.update(
                waves=len(waves), launched=launched, committed=committed,
                history_ops=len(engine.history),
            )
        _check(
            config, workload, rules, result, engine, memory, directory,
            set() if replayed is None else replayed,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return sample


def _check(
    config, workload, rules, result, engine, memory, directory, replayed
):
    checks.require(
        result.stop_reason in ("quiescent", "halt"),
        f"{config}: stopped on {result.stop_reason!r}",
    )
    checks.VALIDATORS[workload.name](workload.initial, memory, workload.params)
    if config in ("serial", "process"):
        return
    checks.check_replay(workload.initial, rules, result.firings, replayed)
    checks.check_serializable(engine.history)
    if config == "rc_durable":
        checks.check_recovered(directory, memory)


# -- measurement loops ------------------------------------------------------------


class Tally:
    """Attempted and failed configuration runs of one workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.replayed: set = set()

    def run(self, config, workload, tracer=None) -> dict | None:
        self.attempted += 1
        try:
            return run_config(config, workload, tracer, self.replayed)
        except checks.CheckFailed as error:
            print(f"# check failed [{config}]: {error}", file=sys.stderr)
        except Exception:
            print(f"# error [{config}]:", file=sys.stderr)
            traceback.print_exc()
        self.failed += 1
        return None


def _rounds(seconds: float, one_round, min_rounds: int) -> int:
    """Call ``one_round()`` until the next call would overrun
    ``seconds`` (and at least ``min_rounds`` times)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / rounds
        if next_end > HARD_LIMIT_S or (
            rounds >= min_rounds and next_end > seconds
        ):
            return rounds


def warm_up(workload: Workload, tally: Tally) -> None:
    """One checked, untimed run of every configuration, then freeze the
    heap: the per-run ``gc.collect()`` then scans only what runs made,
    not the modules, workload and caches that every run shares."""
    for config in CONFIGS:
        tally.run(config, workload)
    gc.collect()
    gc.freeze()


def time_reference() -> float:
    """Seconds for a fixed pure-Python task that calls no code of the
    repository: dict updates on tuple keys and a keyed sort, the
    interpreter work the engines spend their time in.  It gauges the
    host's speed at the moment it runs, for ``run_ref.serial``; change
    it and that metric no longer compares across commits."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(50_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items(), key=lambda item: item[1])
    return time.perf_counter() - start


def time_setup(workload: Workload) -> float:
    """Seconds to parse and construct the ``rc`` engine (no run)."""
    memory = workload.initial.materialize()
    gc.collect()
    start = time.perf_counter()
    _, engine, _ = _build("rc", workload, memory, None, None)
    elapsed = time.perf_counter() - start
    engine.close()
    return elapsed


def _paired_time(
    times: list[float | None], config: str, near: str
) -> float | None:
    """``config``'s time in one round: its own run, or for ``serial``
    the mean of the serial runs on either side of ``near``'s."""
    if config != "serial":
        return times[ROUND.index(config)]
    position = ROUND.index(near)
    before = max(i for i in range(position) if ROUND[i] == "serial")
    after = min(
        i for i in range(position, len(ROUND)) if ROUND[i] == "serial"
    )
    if times[before] is None or times[after] is None:
        return None
    return (times[before] + times[after]) / 2


def measure(
    workload: Workload, seconds: float, tally: Tally
) -> tuple[dict, dict]:
    """Untraced rounds of every configuration (see :data:`ROUND`).

    The host this was built on is shared, and its speed swings by up to
    2x, so ``setup_s`` is the best of the run's repeats, one timed
    before every serial run.  Each serial run is divided by the mean of
    :func:`time_reference` timed just before and just after it
    (``run_ref.serial``),
    and the other configurations by serial or ``rc`` runs made moments
    apart in the same round; the host's swings mostly cancel out of
    these ratios, and each is the median over the run.  Wave ratios
    repeat exactly.  Returns (metric values, raw samples).
    """
    raw: dict[str, list[float]] = {
        name: []
        for name in ["setup_s", "reference_s"]
        + [f"run_s.{c}" for c in CONFIGS]
    }
    paired: dict[str, list[float]] = {
        name: [] for name in ["run_ref.serial", *RATIOS]
    }
    waves: dict[str, dict] = {}

    def one_round() -> None:
        times: list[float | None] = []
        for config in ROUND:
            if config == "serial":
                raw["setup_s"].append(time_setup(workload))
                before = time_reference()
            sample = tally.run(config, workload)
            times.append(None if sample is None else sample["run_s"])
            if config == "serial":
                # The reference brackets the serial run, so a slow spell
                # during it most likely slows one of the two as well.
                after = time_reference()
                raw["reference_s"] += [before, after]
                if sample is not None:
                    paired["run_ref.serial"].append(
                        sample["run_s"] / ((before + after) / 2)
                    )
            if sample is None:
                continue
            raw[f"run_s.{config}"].append(sample["run_s"])
            if config in ("rc", "2pl"):
                waves[config] = sample
        for name, (numerator, denominator) in RATIOS.items():
            top = _paired_time(times, numerator, denominator)
            bottom = _paired_time(times, denominator, denominator)
            if top is not None and bottom is not None:
                paired[name].append(top / bottom)

    _rounds(seconds, one_round, MIN_ROUNDS)
    values = {name: min(samples) for name, samples in raw.items() if samples}
    values.update(
        (name, statistics.median(ratios))
        for name, ratios in paired.items() if ratios
    )
    for config, sample in waves.items():
        values[f"firings_per_wave.{config}"] = (
            sample["committed"] / sample["waves"]
        )
        values[f"wasted_share.{config}"] = (
            1 - sample["committed"] / sample["launched"]
        )
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    values["passed_share"] = 1 - tally.failed / tally.attempted
    return values, raw


#: The traced round: untraced ``rc`` and ``rc_sampled`` give the bases
#: of ``trace.overhead`` and ``obs.sampled_ratio``.
TRACED_ROUND = (
    ("rc", False), ("rc_sampled", False), ("rc", True), ("serial", True),
    ("2pl", True), ("rc_durable", True), ("process", True),
)


class Traced(NamedTuple):
    """One traced configuration run, split by layer."""

    sample: dict
    tracer: tracing.Tracer
    setup: dict[str, float]  # set-up self time by layer
    run: dict[str, float]  # run() self time by layer
    by_name: dict[str, float]  # run() self time by span name
    wall: float  # run() wall time


def _split(sample: dict, tracer: tracing.Tracer) -> Traced:
    """The layer split of one traced run."""
    spans = tracer.finished()
    selves = tracing.self_times(spans)
    roots = {
        spans[i][0]: i for i in range(len(spans)) if spans[i][3] == -1
    }
    setup = tracing.layer_seconds(
        spans, selves, tracing.subtree(spans, roots["setup"])
    )
    run_indices = tracing.subtree(spans, roots["run"])
    run = tracing.layer_seconds(spans, selves, run_indices)
    by_name: dict[str, float] = {}
    for index in run_indices:
        name = spans[index][0]
        by_name[name] = by_name.get(name, 0.0) + selves[index]
    _, start, end, _ = spans[roots["run"]]
    return Traced(sample, tracer, setup, run, by_name, end - start)


def measure_traced(
    workload: Workload, seconds: float, tally: Tally, spans_path: Path
) -> tuple[dict, dict]:
    """Traced rounds -> (median per metric over rounds, raw values)."""
    raw: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    bases: dict[str, list[float]] = {"rc": [], "rc_sampled": []}

    def one_round() -> None:
        traced: dict[str, Traced] = {}
        for config, trace in TRACED_ROUND:
            tracer = tracing.Tracer() if trace else None
            sample = tally.run(config, workload, tracer)
            if sample is None:
                return
            if trace:
                traced[config] = _split(sample, tracer)
            else:
                bases[config].append(sample["run_s"])
        sample, tracer, setup, run, _, wall = traced["rc"]
        counts = sample["counts"]
        other = run.get("other", 0.0)
        values = {
            "lang.parse_s": setup.get("lang", 0.0),
            "match.attach_s": setup.get("match.attach", 0.0)
            + setup.get("match", 0.0),
            "match.s": run.get("match", 0.0),
            "match.deltas": counts["match.delta"],
            "match.cs_churn": counts["match.cs_churn"],
            "select.s": run.get("select", 0.0),
            "select.candidates": counts["select.candidates"],
            "locks.acquire_s": run.get("locks.acquire", 0.0),
            "locks.requests": counts["locks.requests"],
            "locks.denied": counts["locks.denied"],
            "locks.commit_s": run.get("locks.commit", 0.0),
            "locks.victims": counts["locks.victims"],
            "locks.abort_s": run.get("locks.abort", 0.0),
            "rhs.s": run.get("rhs", 0.0),
            "rhs.attempts": counts["rhs.execute"],
            "rhs.commits": sample["firings"],
            "rhs.useful_ratio": sample["firings"] / counts["rhs.execute"],
            "wave.candidates_mean": sample["launched"] / sample["waves"],
            "wave.commits_mean": sample["committed"] / sample["waves"],
            "wm.s": run.get("wm", 0.0),
            "wm.deltas": counts["wm.delta"],
            "txn.history_ops": sample["history_ops"],
            "other_s": other,
            "coverage": 1 - other / wall,
            "trace.overhead": wall / bases["rc"][-1],
            "obs.sampled_ratio": bases["rc_sampled"][-1] / bases["rc"][-1],
            "obs.sampled_base_s": bases["rc"][-1],
        }
        serial = traced["serial"].run
        values["match.s.serial"] = serial.get("match", 0.0)
        values["select.s.serial"] = serial.get("select", 0.0)
        values["locks.denied.2pl"] = (
            traced["2pl"].sample["counts"]["locks.denied"]
        )
        process = traced["process"]
        values["match.flush_s.process"] = process.by_name.get(
            "match.batch", 0.0
        )
        values["match.flushes.process"] = (
            process.sample["counts"]["match.batch"]
        )
        durable = traced["rc_durable"]
        records = durable.sample["counts"]["storage.append"]
        values["storage.append_s.durable"] = durable.run.get("storage", 0.0)
        values["storage.records.durable"] = records
        values["storage.wal_bytes.durable"] = durable.sample["wal_bytes"]
        values["storage.bytes_per_delta.durable"] = (
            durable.sample["wal_bytes"] / records
        )
        for name, value in values.items():
            raw[name].append(value)
        tracer.dump(spans_path)

    _rounds(seconds, one_round, 2)
    values = {
        name: statistics.median(samples)
        for name, samples in raw.items() if samples
    }
    return values, raw


# -- reporting --------------------------------------------------------------------


def commit_sha() -> str:
    """HEAD's commit id read from ``.git``, or ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    start = time.perf_counter()
    workload = generate(args.workload, args.seed)
    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    warm_up(workload, tally)
    seconds = max(args.seconds - (time.perf_counter() - start), 0.0)
    if args.trace:
        values, raw = measure_traced(
            workload, seconds, tally, WORK / f"spans-{tag}.jsonl"
        )
        spec = PER_LAYER
    else:
        values, raw = measure(workload, seconds, tally)
        spec = END_TO_END
    metrics = {}
    for config in CONFIGS:
        name = f"run_s.{config}"
        if name not in spec and values.get(name):
            print(f"# {name} = {values[name]:.6g} s (best of run; not gated)")
    for name, (unit, better) in spec.items():
        if name not in values:
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"# {name} = {values[name]:.6g} {unit} ({better} is better)")
    stamp = {
        "workload": args.workload,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cores": os.cpu_count(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "commit": commit_sha(),
        "raw": raw,
    }
    print("# stamp " + json.dumps(stamp))
    with open(WORK / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({**stamp, "metrics": metrics}, handle, indent=1)
    correct = tally.failed == 0 and len(metrics) == len(spec)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
