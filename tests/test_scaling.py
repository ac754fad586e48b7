from __future__ import annotations

import pytest

from futsim.scaling import (
    FrequencyLadder,
    FrequencyLevel,
    ScaleOp,
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
