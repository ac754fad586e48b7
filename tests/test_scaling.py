from __future__ import annotations

import pytest

from futsim.energy import SEG_COMPUTE, simulate
from futsim.engine import run
from futsim.parser import parse
from futsim.scaling import (
    FrequencyLadder,
    FrequencyLevel,
    ScaleOp,
    ScalingStrategy,
    make_strategy,
    register_strategy,
    strategy_both,
    strategy_child_only,
    strategy_none,
    strategy_parent_only,
)

LADDER4 = FrequencyLadder((1.0, 2.0, 3.0, 4.0))


def test_ladder_validation():
    with pytest.raises(ValueError):
        FrequencyLadder(())
    with pytest.raises(ValueError):
        FrequencyLadder((1.0, 1.0))
    with pytest.raises(ValueError):
        FrequencyLadder((2.0, 1.0))
    with pytest.raises(ValueError):
        FrequencyLadder((0.0, 1.0))


def test_ladder_level_lookup():
    assert LADDER4.level(1) == FrequencyLevel(1, 1.0)
    assert LADDER4.level(4) == FrequencyLevel(4, 4.0)
    for k, value in enumerate(LADDER4.levels, 1):
        assert LADDER4.level(k) is LADDER4.level(k)  # built once, shared
        assert LADDER4.level(k) == FrequencyLevel(k, value)
    with pytest.raises(ValueError):
        LADDER4.level(0)
    with pytest.raises(ValueError):
        LADDER4.level(5)


def test_strategy_both_table():
    s = strategy_both(LADDER4)
    assert s.scale(ScaleOp.UP_CREATE, LADDER4.level(2))[0] == LADDER4.level(3)
    assert s.scale(ScaleOp.UP_CLAIM, LADDER4.level(2))[0] == LADDER4.level(3)
    assert s.scale(ScaleOp.UP_CREATE, LADDER4.level(4))[0] == LADDER4.level(4)
    assert s.scale(ScaleOp.UP_CLAIM, LADDER4.level(4))[0] == LADDER4.level(4)
    assert s.scale(ScaleOp.DOWN, LADDER4.level(2))[0] == LADDER4.level(1)
    assert s.scale(ScaleOp.DOWN, LADDER4.level(1))[0] == LADDER4.level(1)


def test_strategy_parent_only_table():
    s = strategy_parent_only(LADDER4)
    assert s.scale(ScaleOp.UP_CREATE, LADDER4.level(2))[0] == LADDER4.level(2)
    assert s.scale(ScaleOp.UP_CLAIM, LADDER4.level(3))[0] == LADDER4.level(4)
    assert s.scale(ScaleOp.DOWN, LADDER4.level(2))[0] == LADDER4.level(1)


def test_strategy_none_is_identity():
    s = strategy_none(LADDER4)
    for k in range(1, 5):
        level = LADDER4.level(k)
        assert s.scale(ScaleOp.UP_CREATE, level)[0] == level
        assert s.scale(ScaleOp.UP_CLAIM, level)[0] == level
        assert s.scale(ScaleOp.DOWN, level)[0] == level


def test_strategy_child_only_table():
    s = strategy_child_only(LADDER4)
    assert s.scale(ScaleOp.UP_CREATE, LADDER4.level(2))[0] == LADDER4.level(3)
    assert s.scale(ScaleOp.UP_CREATE, LADDER4.level(4))[0] == LADDER4.level(4)
    assert s.scale(ScaleOp.UP_CLAIM, LADDER4.level(2))[0] == LADDER4.level(2)
    assert s.scale(ScaleOp.DOWN, LADDER4.level(2))[0] == LADDER4.level(2)


def test_scale_reports_clamping():
    s = strategy_both(LADDER4)
    _, clamped = s.scale(ScaleOp.UP_CREATE, LADDER4.level(4))
    assert clamped
    _, clamped = s.scale(ScaleOp.DOWN, LADDER4.level(1))
    assert clamped
    _, clamped = s.scale(ScaleOp.UP_CREATE, LADDER4.level(3))
    assert not clamped
    none = strategy_none(LADDER4)
    _, clamped = none.scale(ScaleOp.UP_CREATE, LADDER4.level(4))
    assert not clamped  # holding by design is not a clamp


def test_up_down_compose_to_identity_off_the_ends():
    s = strategy_both(LADDER4)
    for k in range(2, 5):
        level = LADDER4.level(k)
        assert s.scale(ScaleOp.UP_CREATE, s.scale(ScaleOp.DOWN, level)[0])[0] == level
        assert s.scale(ScaleOp.UP_CLAIM, s.scale(ScaleOp.DOWN, level)[0])[0] == level


@pytest.mark.parametrize("size", [1, 2, 4, 8])
@pytest.mark.parametrize("name", ["both", "parent-only", "child-only", "none"])
def test_outputs_stay_in_ladder(size, name):
    ladder = FrequencyLadder(tuple(float(i) for i in range(1, size + 1)))
    s = make_strategy(name, ladder)
    for k in range(1, size + 1):
        level = ladder.level(k)
        for op in ScaleOp:
            out, _ = s.scale(op, level)
            assert 1 <= out.index <= size
            assert ladder.contains(out)


@pytest.mark.parametrize("size", [1, 2, 4, 8])
@pytest.mark.parametrize("name", ["both", "parent-only"])
def test_relative_pace_at_create(size, name):
    ladder = FrequencyLadder(tuple(float(i) for i in range(1, size + 1)))
    s = make_strategy(name, ladder)
    for k in range(1, size + 1):
        level = ladder.level(k)
        child, child_clamped = s.scale(ScaleOp.UP_CREATE, level)
        parent, parent_clamped = s.scale(ScaleOp.DOWN, level)
        assert child.index >= parent.index
        moved = child.index != level.index or parent.index != level.index
        if moved:
            assert child.index > parent.index


def test_single_level_ladder_degenerates_to_identity():
    ladder = FrequencyLadder((2.0,))
    for name in ("both", "parent-only", "child-only", "none"):
        s = make_strategy(name, ladder)
        level = ladder.level(1)
        for op in ScaleOp:
            out, _ = s.scale(op, level)
            assert out == level


def test_registry_rejects_unknown_and_accepts_new():
    with pytest.raises(ValueError):
        make_strategy("adaptive", LADDER4)
    register_strategy("all-up", lambda ladder: strategy_both(ladder))
    try:
        assert make_strategy("all-up", LADDER4).name == "both"
    finally:
        from futsim.scaling import STRATEGY_FACTORIES

        del STRATEGY_FACTORIES["all-up"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_ladder_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        FrequencyLadder((1.0, bad))
    with pytest.raises(ValueError):
        FrequencyLadder((bad,))


class _AlwaysTop(ScalingStrategy):
    """Every operator jumps to the ladder's top level; counts its calls."""

    def __init__(self, ladder: FrequencyLadder):
        super().__init__("always-top", ladder, 0, 0, 0)
        self.calls = 0

    def scale(self, op: ScaleOp, level: FrequencyLevel) -> tuple[FrequencyLevel, bool]:
        self.calls += 1
        return self.ladder.level(len(self.ladder)), False


def test_an_overridden_scale_drives_run_and_simulate():
    expr = parse("(future (1 + 2)) + (future 3) + 4")
    top = LADDER4.level(4)
    strategy = _AlwaysTop(LADDER4)
    result = run(expr, LADDER4, 1, strategy)
    assert strategy.calls == 2 * 2 + 2  # two creates (child and parent), two claims
    assert result.final_level == top
    assert all(level == top for event in result.events for level in event.scaled)
    strategy.calls = 0
    report = simulate(expr, LADDER4, 1, strategy)
    assert strategy.calls == 6
    levels = [seg.level for tl in report.timelines.values() for seg in tl.segments if seg.kind == SEG_COMPUTE]
    assert levels.count(LADDER4.level(1)) == 1  # only the first create runs below the top
    assert set(levels) == {LADDER4.level(1), top}
    assert report.final_value == result.final_value == 10


def test_runs_report_clamps_at_both_ends_of_the_ladder():
    expr = parse("(future 1) + 2")  # one create, one claim
    both = strategy_both(LADDER4)
    # At the top the child cannot go up; at the bottom the parent cannot go down.
    for init in (4, 1):
        assert run(expr, LADDER4, init, both).clamp_count == 1
        assert simulate(expr, LADDER4, init, both).clamp_count == 1
    assert run(expr, LADDER4, 2, both).clamp_count == 0
