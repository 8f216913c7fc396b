"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.lang import RuleBuilder
from repro.lang.builder import gt, var
from repro.locks.rc_scheme import RcScheme
from repro.locks.two_phase import CommitOutcome
from repro.txn.schedule import History
from repro.txn.transaction import Transaction
from repro.wm import WorkingMemory


@pytest.fixture
def wm() -> WorkingMemory:
    """An empty, unsynchronized working memory."""
    return WorkingMemory()


@pytest.fixture
def order_rules():
    """A small order-processing program used across engine tests.

    ``ship`` ships open orders above a total unless held; ``audit``
    consumes shipments of shipped orders.
    """
    ship = (
        RuleBuilder("ship")
        .when("order", id=var("o"), status="open", total=gt(50))
        .when_not("hold", order=var("o"))
        .modify(1, status="shipped")
        .make("shipment", order=var("o"))
        .build()
    )
    audit = (
        RuleBuilder("audit")
        .when("shipment", order=var("o"))
        .when("order", id=var("o"), status="shipped")
        .make("audit", order=var("o"))
        .remove(1)
        .build()
    )
    return [ship, audit]


@pytest.fixture
def order_wm() -> WorkingMemory:
    """Working memory with five orders (one held, one small)."""
    memory = WorkingMemory()
    for i in range(1, 6):
        memory.make("order", id=i, status="open", total=40 + i * 10)
    memory.make("hold", order=3)
    return memory


def drive_rule_ii_abort(observer) -> CommitOutcome:
    """One hand-driven Rc wave in which rule (ii) aborts a reader.

    ``toggle`` and ``observe`` both take ``Rc`` on flag 1; ``toggle``
    takes ``Wa`` and commits first, so rule (ii) aborts ``observe``.
    :class:`~repro.engine.ParallelEngine` plans Rc waves and never
    launches such a certain victim, so the observability tests drive
    :class:`RcScheme` directly.  Spans and observer hooks follow the
    engine's wave: run > cycle > phase.acquire > acquire, then
    phase.act > firing, each transaction bound to its acquire span
    and then to its firing span.  Returns the writer's commit outcome.
    """
    spans = observer.spans
    scheme = RcScheme(history=History(), observer=observer)
    flag = ("flag", 1)
    started = observer.clock()
    run = spans.start("run", scheme="RcScheme", processors=None)
    cycle = spans.start("cycle", parent=run, wave=1)
    observer.wave_started(1, 2)
    acquire_phase = spans.start("phase.acquire", parent=cycle)
    writer = Transaction(rule_name="toggle")
    victim = Transaction(rule_name="observe")
    for txn in (writer, victim):
        acquire = spans.start(
            "acquire", parent=acquire_phase, rule=txn.rule_name,
            txn=txn.txn_id,
        )
        spans.bind(txn.txn_id, acquire)
        assert scheme.try_lock_condition(txn, flag)
        acquire.finish(granted=True)
    acquire_phase.finish(candidates=2, granted=2)
    act_phase = spans.start("phase.act", parent=cycle)
    firing = spans.start(
        "firing", parent=act_phase, rule="toggle", txn=writer.txn_id
    )
    spans.bind(writer.txn_id, firing)
    assert scheme.try_lock_action(writer, writes=[flag])
    outcome = scheme.commit(writer)
    observer.firing_committed("toggle", 1)
    firing.finish()
    spans.unbind(writer.txn_id)
    firing = spans.start(
        "firing", parent=act_phase, rule="observe", txn=victim.txn_id
    )
    spans.bind(victim.txn_id, firing)
    scheme.abort(victim, "rule (ii) victim")
    firing.finish()
    spans.unbind(victim.txn_id)
    act_phase.finish(slots=2)
    observer.wave_finished(
        1, committed=1, aborted=len(outcome.victims), deferred=0,
        duration=observer.clock() - started,
    )
    cycle.finish(committed=1, aborted=len(outcome.victims), deferred=0)
    run.finish(cycles=1, stop_reason="quiescent")
    observer.run_finished(1, observer.clock() - started)
    return outcome


@pytest.fixture
def rule_ii_drive():
    """:func:`drive_rule_ii_abort`, for tests outside this module."""
    return drive_rule_ii_abort
