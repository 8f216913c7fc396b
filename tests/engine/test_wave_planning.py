"""Rc wave planning: certain rule-(ii) victims are deferred, not launched.

Under Rc, ``Wa`` never blocks in the act phase, so every candidate
admitted to a wave commits, and its commit aborts each later ``Rc``
holder whose reads its writes meet (rule (ii)).  The engine defers
those candidates before they get a transaction or a lock.  The
property test checks that the admitted set is exactly what commits
under a small model of the unplanned protocol, driven through
:class:`~repro.locks.rc_scheme.RcScheme` itself.
"""

from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine import ParallelEngine, replay_commit_sequence
from repro.engine.parallel import WaveResult
from repro.locks.rc_scheme import RcScheme
from repro.txn.transaction import Transaction
from repro.workloads import build_manners_memory, build_manners_rules
from repro.wm import WMSnapshot


class Candidate:
    """Just what wave planning reads of an instantiation."""

    def __init__(self, name, reads, writes):
        self.production = SimpleNamespace(name=name)
        self._reads = frozenset(reads)
        self._writes = frozenset(writes)

    def read_objects(self):
        return self._reads

    def write_objects(self):
        return self._writes


def commits_without_planning(candidates):
    """The unplanned protocol: ``Rc`` on every candidate's reads, then
    in order ``Wa`` and commit, skipping rule (ii)'s victims."""
    scheme = RcScheme()
    txns = []
    for candidate in candidates:
        txn = Transaction(rule_name=candidate.production.name)
        for obj in sorted(candidate.read_objects(), key=repr):
            assert scheme.try_lock_condition(txn, obj)
        txns.append(txn)
    committed = []
    for candidate, txn in zip(candidates, txns):
        if txn.is_aborted:
            scheme.abort(txn, "rule (ii) victim")
            continue
        writes = sorted(candidate.write_objects(), key=repr)
        assert scheme.try_lock_action(txn, writes=writes)
        scheme.commit(txn)
        committed.append(candidate.production.name)
    return committed


_OBJECTS = st.sampled_from(
    [("a", 1), ("a", 2), ("b", 1), ("SYSTEM-CATALOG", "a")]
)
_FOOTPRINTS = st.lists(
    st.tuples(
        st.frozensets(_OBJECTS, max_size=3),
        st.frozensets(_OBJECTS, max_size=2),
    ),
    max_size=10,
)


@given(footprints=_FOOTPRINTS)
@settings(max_examples=200, deadline=None)
def test_admitted_set_equals_unplanned_commits(footprints):
    candidates = [
        Candidate(f"p{i}", reads, writes)
        for i, (reads, writes) in enumerate(footprints)
    ]
    engine = ParallelEngine([], scheme="rc")
    wave = WaveResult(wave=1)
    slots = engine._acquire_phase(wave, candidates, None, None)
    admitted = [instantiation.production.name for instantiation, _ in slots]
    expected = commits_without_planning(candidates)
    assert admitted == expected
    assert wave.deferred == [
        c.production.name for c in candidates
        if c.production.name not in expected
    ]
    # Deferred candidates never reached the lock manager.
    assert {op.txn_id for op in engine.history} <= {
        txn.txn_id for _, txn in slots
    }


def test_two_phase_locking_does_not_plan():
    # Under 2PL both take their R locks; the writer's W then blocks in
    # the act phase, as the protocol prescribes.
    reader = Candidate("reader", [("a", 1)], [])
    writer = Candidate("writer", [("a", 1)], [("a", 1)])
    engine = ParallelEngine([], scheme="2pl")
    wave = WaveResult(wave=1)
    slots = engine._acquire_phase(wave, [writer, reader], None, None)
    assert [c.production.name for c, _ in slots] == ["writer", "reader"]
    assert wave.deferred == []


def test_fault_free_manners_never_aborts_and_replays():
    memory = build_manners_memory(16, seed=1)
    snapshot = WMSnapshot.capture(memory)
    rules = build_manners_rules()
    engine = ParallelEngine(rules, memory, scheme="rc", strategy="priority")
    result = engine.run()
    assert result.stop_reason == "halt"
    assert engine.abort_count == 0
    assert all(not wave.aborted for wave in engine.waves)
    assert sum(len(wave.deferred) for wave in engine.waves) > 0
    replay = replay_commit_sequence(snapshot, rules, result.firings)
    assert replay.consistent, replay.detail
