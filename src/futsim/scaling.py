"""Frequency ladders and the pluggable scaling strategies applied at create/claim."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class FrequencyLevel:
    """One rung of a ladder: 1-based index plus the resolved frequency value."""

    index: int
    value: float


@dataclass(frozen=True)
class FrequencyLadder:
    """The finite, strictly increasing set of frequencies a core supports.

    Its ``FrequencyLevel``s are built once, here: ``level`` returns the
    shared instance, so stepping between levels builds nothing.
    """

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("ladder needs at least one level")
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        for v in self.levels:
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"ladder levels must be positive and finite, got {v}")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if not lo < hi:
                raise ValueError(f"ladder must be strictly increasing, got {lo} before {hi}")
        # Not a field: equality, hash and repr stay those of ``levels``.
        object.__setattr__(self, "_rungs", tuple(FrequencyLevel(i, v) for i, v in enumerate(self.levels, 1)))

    def __len__(self) -> int:
        return len(self.levels)

    def level(self, index: int) -> FrequencyLevel:
        """Return the level at a 1-based index."""
        if not 1 <= index <= len(self.levels):
            raise ValueError(f"level index {index} outside ladder of size {len(self.levels)}")
        return self._rungs[index - 1]

    def contains(self, level: FrequencyLevel) -> bool:
        return 1 <= level.index <= len(self.levels) and self.levels[level.index - 1] == level.value


class ScaleOp(enum.Enum):
    """The three adjustment points: child at create, parent at create, parent at claim."""

    UP_CREATE = "up_create"
    UP_CLAIM = "up_claim"
    DOWN = "down"


class ScalingStrategy:
    """Three total ladder operators, each a signed ladder step: +1 up, -1 down, 0 held.

    ``scale`` reports whether the operator clamped (wanted to move past an end);
    runs track that to scope the return-to-original property. Policies needing
    richer behaviour can subclass and override ``scale``.
    """

    def __init__(self, name: str, ladder: FrequencyLadder, up_create: int, up_claim: int, down: int):
        self.name = name
        self.ladder = ladder
        # Keyed by the operator's name: hashing the member itself runs
        # ``Enum.__hash__``, Python code that hashes the same name.
        self._steps = {ScaleOp.UP_CREATE.name: up_create, ScaleOp.UP_CLAIM.name: up_claim, ScaleOp.DOWN.name: down}

    def scale(self, op: ScaleOp, level: FrequencyLevel) -> tuple[FrequencyLevel, bool]:
        """Apply one operator; returns (new level, clamped?). The new level is the ladder's own, never built."""
        step = self._steps[op._name_]
        if step == 0:
            return level, False
        index = level.index + step
        rungs = self.ladder._rungs
        if not 1 <= index <= len(rungs):
            return level, True
        return rungs[index - 1], False


def strategy_both(ladder: FrequencyLadder) -> ScalingStrategy:
    """Speed the child up and slow the parent down (successor/predecessor tables)."""
    return ScalingStrategy("both", ladder, +1, +1, -1)


def strategy_parent_only(ladder: FrequencyLadder) -> ScalingStrategy:
    """Adjust the parent thread only; the child inherits the parent's level."""
    return ScalingStrategy("parent-only", ladder, 0, +1, -1)


def strategy_child_only(ladder: FrequencyLadder) -> ScalingStrategy:
    """Speed the child up, leave the parent untouched."""
    return ScalingStrategy("child-only", ladder, +1, 0, 0)


def strategy_none(ladder: FrequencyLadder) -> ScalingStrategy:
    """Baseline: every thread stays at the initial frequency."""
    return ScalingStrategy("none", ladder, 0, 0, 0)


STRATEGY_FACTORIES: dict[str, Callable[[FrequencyLadder], ScalingStrategy]] = {
    "both": strategy_both,
    "parent-only": strategy_parent_only,
    "child-only": strategy_child_only,
    "none": strategy_none,
}


def register_strategy(name: str, factory: Callable[[FrequencyLadder], ScalingStrategy]) -> None:
    """Register a strategy factory under a CLI-visible name."""
    STRATEGY_FACTORIES[name] = factory


def make_strategy(name: str, ladder: FrequencyLadder) -> ScalingStrategy:
    try:
        factory = STRATEGY_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGY_FACTORIES))
        raise ValueError(f"unknown strategy {name!r} (registered: {known})") from None
    return factory(ladder)


DEFAULT_LADDER = FrequencyLadder((1.0, 1.5, 2.0, 2.5))
DEFAULT_INIT_INDEX = 2
