from __future__ import annotations

from unittest import mock

import pytest

import futsim.calculus as calculus
import futsim.engine as engine
from futsim.calculus import (
    Add,
    Closure,
    Configuration,
    FutureCreate,
    FutureRef,
    IntLit,
    NoRedex,
    decompose,
    eval_sequential,
    initial_configuration,
    node_count,
    plug,
)
from futsim.engine import (
    AddEvent,
    ClaimEvent,
    CreateEvent,
    DivergenceError,
    EngineError,
    ExplorationLimitError,
    NotEnabledError,
    NewestFirst,
    RoundRobin,
    SeededRandom,
    _explore,
    enabled_threads,
    explore_with_stats,
    run,
    step,
)
from futsim.energy import simulate
from futsim.parser import parse, unparse
from futsim.scaling import FrequencyLadder, make_strategy, strategy_both, strategy_parent_only
from oracles import canonical_key, gen_random_program, is_terminal, validate_configuration

LADDER = FrequencyLadder((1.0, 2.0, 3.0, 4.0))
BOTH = strategy_both(LADDER)

GOLDEN_PROGRAM = parse("2 + future (future (3+4))")


def _cl(level_index, expr, fid):
    return Closure(LADDER.level(level_index), decompose(expr), fid)


def _mid_run_three_threads():
    # After both creates: grandchild adds, middle waits on it, root waits on middle.
    return Configuration(
        closures=(
            _cl(4, Add(IntLit(3), IntLit(4)), 2),
            _cl(2, FutureRef(2), 1),
            _cl(1, Add(IntLit(2), FutureRef(1)), 0),
        ),
        next_fresh=3,
        root=0,
    )


def test_enabled_only_grandchild_before_it_realizes():
    assert enabled_threads(_mid_run_three_threads()) == {2}


def test_enabled_middle_after_grandchild_realizes():
    config = Configuration(
        closures=(
            _cl(4, IntLit(7), 2),
            _cl(2, FutureRef(2), 1),
            _cl(1, Add(IntLit(2), FutureRef(1)), 0),
        ),
        next_fresh=3,
        root=0,
    )
    # The middle thread holds a future value: it may claim forward, but the
    # root stays blocked until the middle realizes an integer.
    assert enabled_threads(config) == {1}


def test_enabled_empty_on_terminal():
    config = initial_configuration(IntLit(9), LADDER.level(2))
    assert enabled_threads(config) == frozenset()
    assert is_terminal(config)


def test_step_create_scales_both_sides():
    config = initial_configuration(GOLDEN_PROGRAM, LADDER.level(2))
    new_config, event = step(config, 0, BOTH)
    assert isinstance(event, CreateEvent)
    assert event.child == 1
    assert event.child_level == LADDER.level(3)
    assert event.parent_level == LADDER.level(1)
    child, parent = new_config.closures
    assert child == _cl(3, FutureCreate(Add(IntLit(3), IntLit(4))), 1)
    assert parent == _cl(1, Add(IntLit(2), FutureRef(1)), 0)
    assert new_config.next_fresh == 2


def test_step_claim_merges_producer():
    config = Configuration(
        closures=(_cl(4, IntLit(7), 2), _cl(2, FutureRef(2), 1)),
        next_fresh=3,
        root=1,
    )
    new_config, event = step(config, 1, BOTH)
    assert isinstance(event, ClaimEvent)
    assert event.claimed == 2
    assert event.value == IntLit(7)
    assert event.claimant_level == LADDER.level(3)
    assert new_config.closures == (_cl(3, IntLit(7), 1),)


def test_step_add_keeps_frequency():
    config = initial_configuration(Add(IntLit(3), IntLit(4)), LADDER.level(2))
    new_config, event = step(config, 0, BOTH)
    assert isinstance(event, AddEvent)
    assert (event.left, event.right, event.total) == (3, 4, 7)
    assert new_config.closures == (_cl(2, IntLit(7), 0),)


def test_step_rejects_blocked_thread():
    with pytest.raises(NotEnabledError):
        step(_mid_run_three_threads(), 0, BOTH)


def test_fire_rejects_a_claim_without_the_claimed_value():
    site = decompose(FutureRef(2))
    with pytest.raises(NotEnabledError):
        engine._advance(Closure(LADDER.level(2), site, 1), BOTH, 3)
    thr = Closure(LADDER.level(2), site, 1)
    hole, event, _ = engine._advance(thr, BOTH, 3, IntLit(7))
    assert (plug(*hole), thr.freq, event.value) == (IntLit(7), LADDER.level(3), IntLit(7))


def test_fire_rejects_a_value():
    with pytest.raises(NotEnabledError):
        engine._advance(Closure(LADDER.level(2), decompose(IntLit(7)), 0), BOTH, 1)


def test_run_reproduces_golden_trace():
    result = run(GOLDEN_PROGRAM, LADDER, 2, BOTH, NewestFirst())
    assert result.final_value == 9
    assert [e.rule for e in result.events] == ["Create", "Create", "Add", "Claim", "Claim", "Add"]
    assert result.final_level == LADDER.level(2)
    assert result.clamp_count == 0


def test_run_without_futures():
    result = run(parse("3 + 4"), LADDER, 2, BOTH)
    assert result.final_value == 7
    assert all(e.rule == "Add" for e in result.events)


def test_run_parent_only_example():
    result = run(parse("1 + future (2+3)"), LADDER, 2, strategy_parent_only(LADDER), NewestFirst())
    assert result.final_value == 6
    assert [e.rule for e in result.events] == ["Create", "Add", "Claim", "Add"]
    create = result.events[0]
    assert create.child_level == LADDER.level(2)  # up_create is the identity
    assert create.parent_level == LADDER.level(1)
    assert result.final_level == LADDER.level(2)  # back up after the claim


def test_run_rejects_future_refs():
    with pytest.raises(ValueError):
        run(FutureRef(1), LADDER, 2, BOTH)


@pytest.mark.parametrize("entry", [run, simulate, explore_with_stats], ids=lambda f: f.__name__)
def test_every_entry_point_checks_the_program_boundary(entry):
    with pytest.raises(ValueError, match="future references"):
        entry(Add(IntLit(1), FutureRef(1)), LADDER, 2, BOTH)
    # A strategy over another ladder would step to levels this ladder lacks.
    with pytest.raises(ValueError, match="different ladder"):
        entry(GOLDEN_PROGRAM, LADDER, 2, strategy_both(FrequencyLadder((1.0, 5.0))))


def test_run_step_limit_guard():
    with pytest.raises(DivergenceError):
        run(GOLDEN_PROGRAM, LADDER, 2, BOTH, step_limit=2)


def test_explore_golden_program_single_outcome():
    assert explore_with_stats(GOLDEN_PROGRAM, LADDER, 2, BOTH)[0] == {(9, LADDER.level(2))}


def test_explore_nested_future_program():
    expr = parse("future 1 + future 2")
    outcomes, _ = explore_with_stats(expr, LADDER, 2, BOTH)
    assert len(outcomes) == 1
    assert next(iter(outcomes))[0] == 3


def test_explore_literal_is_one_state():
    outcomes, states = explore_with_stats(IntLit(5), LADDER, 2, BOTH)
    assert outcomes == {(5, LADDER.level(2))}
    assert states == 1


def test_explore_state_limit():
    with pytest.raises(ExplorationLimitError):
        explore_with_stats(GOLDEN_PROGRAM, LADDER, 2, BOTH, state_limit=2)


def test_explore_state_limit_counts_the_initial_state():
    with pytest.raises(ExplorationLimitError):
        explore_with_stats(IntLit(5), LADDER, 2, BOTH, state_limit=0)
    assert explore_with_stats(IntLit(5), LADDER, 2, BOTH, state_limit=1) == ({(5, LADDER.level(2))}, 1)


def test_explore_is_insensitive_to_closure_order():
    config = _mid_run_three_threads()
    permuted = Configuration(
        closures=(config.closures[2], config.closures[0], config.closures[1]),
        next_fresh=config.next_fresh,
        root=config.root,
    )
    assert canonical_key(config) == canonical_key(permuted)
    assert _explore(config, BOTH, 10_000) == _explore(permuted, BOTH, 10_000)


def test_canonical_key_renames_fresh_ids():
    config = Configuration(
        closures=(_cl(3, IntLit(5), 7), _cl(1, Add(IntLit(2), FutureRef(7)), 0)),
        next_fresh=8,
        root=0,
    )
    renamed = Configuration(
        closures=(_cl(3, IntLit(5), 4), _cl(1, Add(IntLit(2), FutureRef(4)), 0)),
        next_fresh=5,
        root=0,
    )
    assert canonical_key(config) == canonical_key(renamed)


def test_canonical_key_of_a_10000_thread_chain_is_flat():
    # fv0 waits on fv1, which waits on fv2, ... : deeper than Python's recursion limit.
    n = 10_000
    closures = tuple(_cl(1 + fid % 4, FutureRef(fid + 1) if fid < n - 1 else IntLit(7), fid) for fid in range(n))
    key = canonical_key(Configuration(closures, n, 0))
    assert len(key) == 2 * n
    assert not any(isinstance(part, tuple) for part in key)
    assert key == canonical_key(Configuration(closures[::-1], n, 0))
    assert key[::2] == tuple(1 + fid % 4 for fid in range(n))


def test_canonical_key_rejects_a_closure_unreachable_from_the_root():
    config = Configuration(closures=(_cl(2, IntLit(1), 5), _cl(1, IntLit(2), 0)), next_fresh=6, root=0)
    with pytest.raises(EngineError, match="unreachable from the root"):
        canonical_key(config)


def test_explore_rejects_a_closure_unreachable_from_the_root():
    config = Configuration(closures=(_cl(2, IntLit(1), 5), _cl(1, IntLit(2), 0)), next_fresh=6, root=0)
    with pytest.raises(EngineError, match="unreachable from the root"):
        _explore(config, BOTH, 10_000)


def test_canonical_key_tells_apart_expressions_that_print_alike_without_parentheses():
    exprs = [
        IntLit(3), IntLit(-3), IntLit(33),
        Add(IntLit(12), IntLit(3)), Add(IntLit(1), IntLit(23)),
        Add(Add(IntLit(1), IntLit(2)), IntLit(3)), Add(IntLit(1), Add(IntLit(2), IntLit(3))),
        FutureCreate(IntLit(3)), FutureCreate(Add(IntLit(1), IntLit(2))), Add(FutureCreate(IntLit(1)), IntLit(2)),
    ]
    keys = {canonical_key(initial_configuration(expr, LADDER.level(1))) for expr in exprs}
    assert len(keys) == len(exprs)


def test_gen_random_program_deterministic_and_pinned():
    expr = gen_random_program(1, 3, 2)
    assert expr == gen_random_program(1, 3, 2)
    assert expr == Add(FutureCreate(IntLit(-7)), Add(IntLit(-6), IntLit(6)))


@pytest.mark.parametrize("seed", range(20))
def test_gen_random_program_round_trips(seed):
    expr = gen_random_program(seed, 5, 2)
    assert parse(unparse(expr)) == expr


def test_gen_random_program_bounds():
    with pytest.raises(ValueError):
        gen_random_program(0, 0, 1)
    with pytest.raises(ValueError):
        gen_random_program(0, 3, 0)


POLICIES = [NewestFirst(), RoundRobin(), SeededRandom(42)]
STRATEGIES = ["both", "parent-only", "none"]


@pytest.mark.parametrize("seed", range(40))
def test_determinacy_sample(seed):
    expr = gen_random_program(seed, 6, 3)
    expected = eval_sequential(expr)
    for name in STRATEGIES:
        strategy = make_strategy(name, LADDER)
        for policy in POLICIES:
            assert run(expr, LADDER, 2, strategy, policy).final_value == expected


def run_validated(expr, ladder, init_index, strategy, policy):
    """run() with structural validation after every step; returns the result."""
    config = initial_configuration(expr, ladder.level(init_index))
    validate_configuration(config, ladder)
    pick = policy.session()
    steps = 0
    clamps = 0
    while True:
        enabled = enabled_threads(config)
        if not enabled:
            assert is_terminal(config)
            break
        config, event = step(config, pick(enabled), strategy)
        validate_configuration(config, ladder)
        steps += 1
        clamps += getattr(event, "clamps", 0)
    root = config.closures[0]
    return root.expr.value, steps, root.freq, clamps


@pytest.mark.parametrize("seed", range(20))
def test_invariants_preserved_each_step(seed):
    expr = gen_random_program(seed, 6, 3)
    value, steps, _, _ = run_validated(expr, LADDER, 2, BOTH, RoundRobin())
    assert value == eval_sequential(expr)
    assert steps <= 3 * node_count(expr)


def test_seeded_random_policy_reproducible():
    expr = gen_random_program(3, 6, 3)
    first = run(expr, LADDER, 2, BOTH, SeededRandom(7))
    second = run(expr, LADDER, 2, BOTH, SeededRandom(7))
    assert first.events == second.events


def test_round_robin_cycles():
    expr = parse("(future (1+1+1)) + (future (2+2+2))")
    result = run(expr, LADDER, 2, BOTH, RoundRobin())
    assert result.final_value == eval_sequential(expr)


def test_return_to_original_when_clamp_free():
    wide = FrequencyLadder(tuple(float(i) for i in range(1, 17)))
    strategy = strategy_both(wide)
    checked = 0
    for seed in range(30):
        expr = gen_random_program(seed, 6, 3)
        result = run(expr, wide, 8, strategy)
        if result.clamp_count == 0:
            assert result.final_level == wide.level(8)
            checked += 1
    assert checked > 0


def test_event_levels_stay_in_ladder():
    for seed in range(10):
        expr = gen_random_program(seed, 6, 3)
        result = run(expr, LADDER, 2, BOTH)
        for event in result.events:
            assert LADDER.contains(event.level)
            if isinstance(event, CreateEvent):
                assert LADDER.contains(event.parent_level)
                assert LADDER.contains(event.child_level)
            if isinstance(event, ClaimEvent):
                assert LADDER.contains(event.claimant_level)


# ---------------------------------------------------------------------------
# run's unchecked firing against the public API
# ---------------------------------------------------------------------------

ALL_STRATEGIES = ["both", "parent-only", "child-only", "none"]


def reference_events(expr, ladder, init_index, strategy, policy):
    """Events of a run driven only by the public enabled_threads and step."""
    config = initial_configuration(expr, ladder.level(init_index))
    pick = policy.session()
    events = []
    while enabled := enabled_threads(config):
        config, event = step(config, pick(enabled), strategy)
        events.append(event)
    assert is_terminal(config)
    return events


@pytest.mark.parametrize("seed", range(25))
def test_run_matches_reference_loop(seed):
    expr = gen_random_program(seed, 6, 3)
    for name in ALL_STRATEGIES:
        strategy = make_strategy(name, LADDER)
        for policy in (NewestFirst(), RoundRobin(), SeededRandom(seed)):
            expected = reference_events(expr, LADDER, 2, strategy, policy)
            result = run(expr, LADDER, 2, strategy, policy)
            assert list(result.events) == expected
            assert result.step_count == len(expected)


def test_run_step_limit_zero():
    with pytest.raises(DivergenceError):
        run(GOLDEN_PROGRAM, LADDER, 2, BOTH, step_limit=0)
    assert run(IntLit(4), LADDER, 2, BOTH, step_limit=0).final_value == 4


def test_run_tests_readiness_only_where_a_step_can_change_it(monkeypatch):
    # A 2,000-deep tower keeps up to 2,001 threads live; a step re-tests only
    # the fired thread and a Create's child, and enables a claimant parked on
    # a thread that just realized untested: one test per step, one per child
    # and the root's.
    calls = []
    original = engine._ready

    def counting(site, threads):
        calls.append(site)
        return original(site, threads)

    monkeypatch.setattr(engine, "_ready", counting)
    result = run(parse("future " * 2000 + "1"), LADDER, 2, BOTH)
    assert result.final_value == 1
    assert result.step_count == 4000
    assert len(calls) == result.step_count + 2000 + 1


def test_explore_fires_each_move_once_however_many_states_reach_it(monkeypatch):
    # par 5 has 14 distinct moves of the root (5 Creates, 5 Claims, 4 Adds)
    # and 3 Adds in each child; explore reaches them ~7,000 times in all.
    fired = []
    original = engine._advance

    def recording(thr, strategy, fresh, claimed=None):
        fired.append(thr)
        return original(thr, strategy, fresh, claimed)

    monkeypatch.setattr(engine, "_advance", recording)
    expr = parse(" + ".join(f"(future ({i}+{i}+{i}+{i}))" for i in range(5)))
    assert explore_with_stats(expr, LADDER, 2, BOTH)[1] == 1791
    assert len(fired) == 14 + 5 * 3


def test_public_step_plugs_nothing_and_decomposes_only_a_create_body(monkeypatch):
    # A driver of the public API pays per thread, not per expression node: the
    # closures hold their sites, so only a Create's body is decomposed.
    calls = {"engine.plug": 0, "calculus.plug": 0, "engine.decompose": 0}

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(engine, "plug", counting("engine.plug", plug))
    monkeypatch.setattr(calculus, "plug", counting("calculus.plug", plug))
    monkeypatch.setattr(engine, "decompose", counting("engine.decompose", decompose))
    expr = parse(" + ".join(f"(future ({i}+{i}+{i}+{i}))" for i in range(40)))
    config = initial_configuration(expr, LADDER.level(2))
    pick = NewestFirst().session()
    creates = 0
    while enabled := enabled_threads(config):
        config, event = step(config, pick(enabled), BOTH)
        creates += isinstance(event, CreateEvent)
    assert creates == 40
    assert calls == {"engine.plug": 0, "calculus.plug": 0, "engine.decompose": creates}
    assert config.closures[0].site == NoRedex(IntLit(eval_sequential(expr)))


def test_run_rejects_a_pick_outside_the_enabled_set():
    class Stubborn:
        name = "stubborn"

        def session(self):
            return lambda enabled: 0

    with pytest.raises(NotEnabledError):
        run(GOLDEN_PROGRAM, LADDER, 2, BOTH, Stubborn())


# State counts computed with the search that re-decomposed every closure on
# every step; stepping thread records must reach exactly the same states.
@pytest.mark.parametrize(
    "text, states",
    [
        ("2 + future (future (3+4))", 7),
        ("(future (1+1+1+1)) + (future (2+2+2+2)) + (future (3+3+3+3))", 111),
        ("(future (future (6+9+-9))) + ((future (-3+6)) + (future (future 6))"
         " + ((future (-2+-5)) + (future (-9+-7))))", 276),
        ("(future -7) + (future 2) + (future 7) + (-7 + (-2 + 8 + (9 + -2)))", 14),
        ("(future (future 9) + (-4 + 7) + ((future -4) + 5))"
         " + (8 + (future (future -8)) + (future (-4 + -9 + (future -7))))", 200),
        ("future 7", 3),
        (" + ".join(f"(future ({i}+{i}+{i}+{i}))" for i in range(5)), 1791),
        (" + ".join(f"(future ({i}+{i}+{i}+{i}))" for i in range(7)), 28671),
        ("future " * 64 + "1", 129),
        # Each readiness case of a fired thread: a parent parked on a child
        # that realizes, a Create whose child is a literal, a claim on a
        # producer that is still running, and all three in one program.
        pytest.param("future (1 + " * 200 + "1" + ")" * 200, 601, id="nest-200"),
        ("(future 5) + (1 + 2)", 5),
        ("future (1 + 2 + 3)", 5),
        ("(future (1 + 2 + 3 + 4)) + future 5 + (6 + 7)", 22),
        pytest.param("future " * 512 + "1", 1025, id="tower-512"),
        pytest.param(" + ".join(["1"] * 1500), 1500, id="chain-1500"),
    ],
)
def test_explore_state_counts_pinned(text, states):
    expr = parse(text)
    for name in ("both", "none"):
        outcomes, count = explore_with_stats(expr, LADDER, 2, make_strategy(name, LADDER))
        assert count == states
        assert {value for value, _ in outcomes} == {eval_sequential(expr)}


# Explore drops the interned entries no frontier state holds once more than
# ``_INTERN_SLACK`` pile up, which of the cases above only tower-512 reaches,
# once; at 0 it sweeps after every level. The root's entry is a state key and
# is never interned, so the sweep must skip it.
@pytest.mark.parametrize(
    "text, states",
    [
        pytest.param("future " * 64 + "1", 129, id="tower-64"),
        pytest.param("future (1 + " * 50 + "1" + ")" * 50, 151, id="nest-50"),
        pytest.param(" + ".join(["1"] * 200), 200, id="chain-200"),
        pytest.param(" + ".join(f"(future ({i}+{i}+{i}+{i}))" for i in range(4)), 447, id="par-4"),
        # A sweep that numbered new entries from a stale base would give a new
        # entry the node a held entry keeps, and two states here would meet.
        pytest.param("future ((future ((((1) + (2)) + (future (1))) + (future (1))))"
                     " + (future (future ((2) + (1)))))", 49, id="stale-base"),
    ],
)
def test_explore_state_counts_hold_when_every_level_sweeps(text, states):
    expr = parse(text)
    found = explore_with_stats(expr, LADDER, 2, BOTH)
    assert found[1] == states
    with mock.patch.object(engine, "_INTERN_SLACK", 0):
        assert explore_with_stats(expr, LADDER, 2, BOTH) == found


# The thread of each event under each scheduler, recorded before contexts
# were linked cells. Only "nest" has three threads enabled at once under
# NewestFirst: each of its futures spawns the next before its own add.
SCHEDULES = {
    "par-7": (
        " + ".join(f"(future ({i}+{i}+{i}+{i}))" for i in range(7)),
        {
            "newest-first": "0 1 1 1 0 2 2 2 0 3 3 3 0 4 4 4 0 5 5 5 0 6 6 6 0 7 7 7 0 0 0 0 0 0 0 0 0 0 0 0 0",
            "round-robin": "0 1 0 1 2 0 1 2 3 0 2 3 4 0 3 4 5 0 4 5 6 0 5 6 7 0 6 7 0 7 0 0 0 0 0 0 0 0 0 0 0",
            "random": "0 1 0 1 2 1 2 2 0 3 0 4 0 4 3 0 6 4 3 5 0 0 6 7 0 6 5 5 0 7 7 0 0 0 0 0 0 0 0 0 0",
        },
    ),
    "wide-20": (
        " + ".join(f"(future ({i}+1))" for i in range(20)),
        {
            "newest-first": " ".join(f"0 {i}" for i in range(1, 21)) + " 0" * 39,
            "round-robin": " ".join(f"0 {i}" for i in range(1, 21)) + " 0" * 39,
            "random": "0 1 0 2 0 3 0 4 0 0 6 0 5 0 0 8 9 0 7 0 11 0 12 10 0 0 13 14 0 0 16 15 0 17 0 0 0 20 19 0 18"
                      + " 0" * 38,
        },
    ),
    "nest": (
        "future (future (future (1 + 2) + (3 + 4)) + (5 + 6)) + (7 + 8)",
        {
            "newest-first": "0 1 2 3 3 3 2 2 2 1 1 1 0",
            "round-robin": "0 1 2 3 1 2 3 3 2 2 1 1 0",
            "random": "0 1 1 2 3 3 3 2 2 2 1 1 0",
        },
    ),
}


@pytest.mark.parametrize("policy", [NewestFirst(), RoundRobin(), SeededRandom(0)], ids=lambda p: p.name)
@pytest.mark.parametrize("program", SCHEDULES)
def test_run_schedule_pinned(program, policy):
    text, threads = SCHEDULES[program]
    result = run(parse(text), LADDER, 2, BOTH, policy)
    assert " ".join(str(event.thread) for event in result.events) == threads[policy.name]
    assert result.final_value == eval_sequential(parse(text))


def test_run_default_step_limit_is_thirty_steps_per_node(monkeypatch):
    monkeypatch.setattr(engine, "node_count", lambda expr: 1)
    assert run(parse(" + ".join(["1"] * 31)), LADDER, 2, BOTH).step_count == 30
    with pytest.raises(DivergenceError, match="^exceeded 30 steps$"):
        run(parse(" + ".join(["1"] * 32)), LADDER, 2, BOTH)
