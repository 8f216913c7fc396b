"""Conflict-resolution strategies (the *select* phase).

Section 3: strategies like OPS5's LEX and MEA "are heuristics that
strongly favor some sequences over others.  However ... they do not
rule out any execution sequence entirely."  Accordingly every strategy
here picks from the eligible instantiations but never adds or removes
any — the semantic-consistency machinery of :mod:`repro.core` is
strategy-agnostic, exactly as Section 3 requires.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence, runtime_checkable

from repro.match.instantiation import Instantiation


@runtime_checkable
class Strategy(Protocol):
    """Picks the dominant instantiation from a non-empty candidate list.

    ``order`` ranks a whole list at once: it equals calling ``select``
    and removing the pick until the list is empty, ties included, but
    sorts once instead of scanning once per pick.
    """

    name: str

    def select(
        self, candidates: Sequence[Instantiation]
    ) -> Instantiation: ...

    def order(
        self, candidates: Sequence[Instantiation]
    ) -> list[Instantiation]: ...


class LexStrategy:
    """OPS5 LEX: prefer recency (descending timetag vectors), then
    specificity (number of LHS tests), then stable name order."""

    name = "lex"

    def select(self, candidates: Sequence[Instantiation]) -> Instantiation:
        return max(candidates, key=_lex_key)

    def order(
        self, candidates: Sequence[Instantiation]
    ) -> list[Instantiation]:
        # A stable descending sort keeps max()'s first-of-equals pick.
        return sorted(candidates, key=_lex_key, reverse=True)


class MeaStrategy:
    """OPS5 MEA: recency of the first condition element dominates,
    remaining ties resolved as in LEX."""

    name = "mea"

    def select(self, candidates: Sequence[Instantiation]) -> Instantiation:
        return max(candidates, key=_mea_key)

    def order(
        self, candidates: Sequence[Instantiation]
    ) -> list[Instantiation]:
        return sorted(candidates, key=_mea_key, reverse=True)


class PriorityStrategy:
    """Highest production priority wins; ties resolved by LEX."""

    name = "priority"

    def select(self, candidates: Sequence[Instantiation]) -> Instantiation:
        return max(candidates, key=_priority_key)

    def order(
        self, candidates: Sequence[Instantiation]
    ) -> list[Instantiation]:
        return sorted(candidates, key=_priority_key, reverse=True)


class FifoStrategy:
    """Oldest instantiation first (ascending recency): a fair queue."""

    name = "fifo"

    def select(self, candidates: Sequence[Instantiation]) -> Instantiation:
        return min(candidates, key=_recency_key)

    def order(
        self, candidates: Sequence[Instantiation]
    ) -> list[Instantiation]:
        return sorted(candidates, key=_recency_key)


class RandomStrategy:
    """Uniformly random choice; seedable for reproducible runs.

    Useful for sampling the execution graph: repeated runs explore
    different valid sequences of ``ES_single``.
    """

    name = "random"

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)

    def select(self, candidates: Sequence[Instantiation]) -> Instantiation:
        ordered = sorted(candidates, key=_stable_key)
        return ordered[self._rng.randrange(len(ordered))]

    def order(
        self, candidates: Sequence[Instantiation]
    ) -> list[Instantiation]:
        # One draw per pick, as select would make: removing a pick
        # leaves the rest sorted, so sort once and pop.
        pool = sorted(candidates, key=_stable_key)
        randrange = self._rng.randrange
        return [pool.pop(randrange(len(pool))) for _ in range(len(pool))]


def _specificity(instantiation: Instantiation) -> int:
    return sum(len(ce.tests) for ce in instantiation.production.lhs)


def _lex_key(instantiation: Instantiation) -> tuple:
    return (
        instantiation.recency_key(),
        _specificity(instantiation),
        # Invert name ordering into a max-compatible tiebreak: stable
        # but arbitrary; only reached for fully tied instantiations.
        tuple(-ord(c) for c in instantiation.production.name),
    )


def _recency_key(instantiation: Instantiation) -> tuple[int, ...]:
    return instantiation.recency_key()


def _mea_key(instantiation: Instantiation) -> tuple:
    return (instantiation.mea_key(), _lex_key(instantiation))


def _priority_key(instantiation: Instantiation) -> tuple:
    return (instantiation.production.priority, _lex_key(instantiation))


def _stable_key(instantiation: Instantiation) -> tuple:
    return (instantiation.production.name, instantiation.timetags())


_REGISTRY = {
    "lex": LexStrategy,
    "mea": MeaStrategy,
    "priority": PriorityStrategy,
    "fifo": FifoStrategy,
    "random": RandomStrategy,
}


def make_strategy(name: str, seed: int | None = None) -> Strategy:
    """Instantiate a strategy by name.

    >>> make_strategy("lex").name
    'lex'
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
    if cls is RandomStrategy:
        return RandomStrategy(seed)
    return cls()
