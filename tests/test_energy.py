from __future__ import annotations

import pytest

from futsim.calculus import Add, FutureCreate, FutureRef, IntLit, eval_sequential, initial_configuration
from futsim.energy import (
    CASE_I,
    CASE_II,
    SEG_COMPUTE,
    SEG_TRANSITION,
    SEG_WAIT,
    WAIT_BLOCK,
    WAIT_SPIN,
    CostModel,
    Segment,
    ThreadTimeline,
    _compile,
    _price,
    reprice,
    simulate,
    step_duration,
    step_energy,
)
from futsim.engine import RULE_ADD, RULE_CLAIM, RULE_CREATE, run, step
from futsim.parser import parse
from futsim.scaling import FrequencyLadder, make_strategy, strategy_both, strategy_child_only, strategy_none
from oracles import gen_random_program, is_terminal

LADDER = FrequencyLadder((1.0, 2.0, 3.0, 4.0))
REL = 1e-9


def lvl(k):
    return LADDER.level(k)


def chain(count: int, value: int = 1) -> Add:
    """Left-associated chain with `count` additions over literals."""
    expr = Add(IntLit(value), IntLit(value))
    for _ in range(count - 1):
        expr = Add(expr, IntLit(value))
    return expr


def spawn_first(child_adds: int, parent_adds: int) -> Add:
    """Create fires first, the parent then works through its own additions.

    Shape: (future C_m) + P_k, so the k parent additions sit between the
    create and the claim.
    """
    return Add(FutureCreate(chain(child_adds)), chain(parent_adds))


def test_step_duration_examples():
    model = CostModel()
    assert step_duration("Add", lvl(2), model) == 0.5
    assert step_duration("Add", lvl(1), model) == 1.0
    assert step_duration("Create", lvl(4), CostModel(create_cycles=2)) == 0.5


def test_step_energy_examples():
    model = CostModel()
    assert step_energy("Add", lvl(2), model) == pytest.approx(4.0)
    assert step_energy("Add", lvl(1), model) == pytest.approx(1.0)
    flat = CostModel(alpha=1)
    assert step_energy("Add", lvl(2), flat) == pytest.approx(1.0)
    assert step_energy("Add", lvl(1), flat) == pytest.approx(1.0)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(kappa=0)
    with pytest.raises(ValueError):
        CostModel(add_cycles=0)
    with pytest.raises(ValueError):
        CostModel(alpha=0.5)
    with pytest.raises(ValueError):
        CostModel(tau=-1)
    with pytest.raises(ValueError):
        CostModel(wait_policy="nap")


def test_simulate_both_matches_straight_line_calculation():
    # Independent derivation for `1 + future (2+3)` at init f=2 on [1,2,3,4],
    # unit cycles, kappa=1, alpha=3, spin at current frequency:
    create_dur = 1 / 2.0
    create_energy = 2.0**3 * create_dur
    child_realize = create_dur + 1 / 3.0
    child_energy = 3.0**3 * (1 / 3.0)
    parent_arrive = create_dur  # parent claims right after the create
    wait = child_realize - parent_arrive
    spin_energy = 1.0**3 * wait
    claim_dur = 1 / 1.0
    claim_energy = 1.0**3 * claim_dur
    final_add_dur = 1 / 2.0
    final_add_energy = 2.0**3 * final_add_dur
    expected_t = child_realize + claim_dur + final_add_dur
    expected_e = create_energy + child_energy + spin_energy + claim_energy + final_add_energy

    report = simulate(parse("1 + future (2+3)"), LADDER, 2, strategy_both(LADDER))
    assert report.final_value == 6
    assert report.makespan == pytest.approx(expected_t, rel=REL)
    assert report.total_energy == pytest.approx(expected_e, rel=REL)
    assert report.edp == pytest.approx(expected_e * expected_t, rel=REL)
    assert expected_t == pytest.approx(7 / 3, rel=REL)
    assert expected_e == pytest.approx(55 / 3, rel=REL)

    (record,) = report.claim_records
    assert record.case_tag == CASE_I
    assert record.wait == pytest.approx(1 / 3, rel=REL)
    assert record.t_arrive == pytest.approx(0.5, rel=REL)


def test_simulate_none_matches_straight_line_calculation():
    # Same program with every thread pinned at f=2.
    create_dur = 0.5
    child_realize = create_dur + 0.5
    wait = child_realize - create_dur
    spin_energy = 2.0**3 * wait
    expected_t = child_realize + 0.5 + 0.5
    expected_e = 4.0 + 4.0 + spin_energy + 4.0 + 4.0

    report = simulate(parse("1 + future (2+3)"), LADDER, 2, strategy_none(LADDER))
    assert report.makespan == pytest.approx(2.0, rel=REL)
    assert report.total_energy == pytest.approx(20.0, rel=REL)
    assert report.edp == pytest.approx(40.0, rel=REL)
    assert expected_t == pytest.approx(2.0, rel=REL)
    assert expected_e == pytest.approx(20.0, rel=REL)
    (record,) = report.claim_records
    assert record.wait == pytest.approx(0.5, rel=REL)
    assert record.case_tag == CASE_I


def test_spin_reduction_under_both():
    both = simulate(parse("1 + future (2+3)"), LADDER, 2, strategy_both(LADDER))
    none = simulate(parse("1 + future (2+3)"), LADDER, 2, strategy_none(LADDER))
    assert both.claim_records[0].wait < none.claim_records[0].wait


def test_case_ii_when_parent_is_slowed_past_realization():
    # Child: one addition at the inherited f=2 (parent-only leaves it alone),
    # done at spawn+0.5; parent: four additions at f=1 take 4.0. No wait.
    expr = Add(FutureCreate(Add(IntLit(6), IntLit(7))), chain(4))
    report = simulate(expr, LADDER, 2, make_strategy("parent-only", LADDER))
    assert report.final_value == eval_sequential(expr)
    (record,) = report.claim_records
    assert record.wait == 0.0
    assert record.case_tag == CASE_II
    for timeline in report.timelines.values():
        assert all(seg.kind != SEG_WAIT for seg in timeline.segments)


def test_case_tags_partition_on_wait():
    for seed in range(25):
        expr = gen_random_program(seed, 6, 3)
        report = simulate(expr, LADDER, 2, strategy_both(LADDER))
        for record in report.claim_records:
            assert record.wait >= 0.0
            if record.wait > 0:
                assert record.case_tag == CASE_I
            else:
                assert record.case_tag == CASE_II


def test_value_agreement_run_simulate_oracle():
    for seed in range(30):
        expr = gen_random_program(seed, 6, 3)
        expected = eval_sequential(expr)
        for name in ("both", "parent-only", "child-only", "none"):
            strategy = make_strategy(name, LADDER)
            assert simulate(expr, LADDER, 2, strategy).final_value == expected
            assert run(expr, LADDER, 2, strategy).final_value == expected


def test_energy_accounting_re_summation():
    for seed in range(15):
        expr = gen_random_program(seed, 6, 3)
        report = simulate(expr, LADDER, 2, strategy_both(LADDER))
        resummed = sum(seg.energy for tl in report.timelines.values() for seg in tl.segments)
        assert report.total_energy == pytest.approx(resummed, rel=1e-12)
        for fid, timeline in report.timelines.items():
            assert report.per_thread_energy[fid] == pytest.approx(timeline.energy(), rel=1e-12)


def test_timeline_energy_adds_left_to_right_on_every_python():
    # Python 3.12's builtin sum compensates rounding and gives 1.0 here.
    segments = tuple(Segment(i, i + 1, SEG_COMPUTE, lvl(1), 0.1) for i in range(10))
    assert ThreadTimeline(segments).energy() == 0.9999999999999999


def test_timelines_contiguous_and_nonnegative():
    for seed in range(15):
        expr = gen_random_program(seed, 5, 2)
        report = simulate(expr, LADDER, 2, strategy_both(LADDER))
        for timeline in report.timelines.values():
            for seg in timeline.segments:
                assert seg.duration >= 0
                assert seg.energy >= 0
            for a, b in zip(timeline.segments, timeline.segments[1:]):
                assert a.end == pytest.approx(b.start, rel=1e-12)


def test_spin_time_monotonic_over_grid():
    for k in range(1, 6):
        for m in range(k + 2, k + 9):
            expr = spawn_first(m, k)
            wait_both = simulate(expr, LADDER, 2, strategy_both(LADDER)).claim_records[-1].wait
            wait_none = simulate(expr, LADDER, 2, strategy_none(LADDER)).claim_records[-1].wait
            if wait_both > 0 and wait_none > 0:
                assert wait_both < wait_none


def test_child_only_never_slower_than_none():
    child_only = strategy_child_only(LADDER)
    none = strategy_none(LADDER)
    for k in range(1, 6):
        for m in range(1, 9):
            expr = spawn_first(m, k)
            fast = simulate(expr, LADDER, 2, child_only).makespan
            base = simulate(expr, LADDER, 2, none).makespan
            assert fast <= base + 1e-12


def test_alpha_one_makes_compute_energy_strategy_independent():
    model = CostModel(alpha=1)
    expr = spawn_first(1, 3)  # wait-free under every strategy here
    energies = []
    for name in ("both", "parent-only", "child-only", "none"):
        report = simulate(expr, LADDER, 2, make_strategy(name, LADDER), model)
        assert all(seg.kind != SEG_WAIT for tl in report.timelines.values() for seg in tl.segments)
        energies.append(report.total_energy)
    for e in energies[1:]:
        assert e == pytest.approx(energies[0], rel=1e-12)


def test_tau_adds_one_delay_per_transition():
    expr = spawn_first(1, 1)  # wait-free; all three transitions on the root path
    base = simulate(expr, LADDER, 2, strategy_both(LADDER), CostModel(tau=0.0))
    delayed = simulate(expr, LADDER, 2, strategy_both(LADDER), CostModel(tau=0.25))
    assert base.transition_count == 3
    assert delayed.transition_count == 3
    assert delayed.makespan - base.makespan == delayed.transition_count * 0.25
    assert delayed.total_energy == base.total_energy  # switches are time-only by default


def test_tau_energy_option_charges_new_level():
    expr = spawn_first(1, 1)
    model = CostModel(tau=0.25, transition_energy=True)
    report = simulate(expr, LADDER, 2, strategy_both(LADDER), model)
    transitions = [seg for tl in report.timelines.values() for seg in tl.segments if seg.kind == SEG_TRANSITION]
    assert len(transitions) == 3
    for seg in transitions:
        assert seg.energy == pytest.approx(seg.level.value**3 * 0.25, rel=1e-12)


def test_block_wait_charges_flat_penalty():
    model = CostModel(wait_policy=WAIT_BLOCK, block_time=0.25, block_energy=2.0)
    report = simulate(parse("1 + future (2+3)"), LADDER, 2, strategy_both(LADDER), model)
    (record,) = report.claim_records
    assert record.wait == pytest.approx(1 / 3, rel=REL)  # penalty time is extra, not wait
    waits = [seg for seg in report.timelines[0].segments if seg.kind == SEG_WAIT]
    assert len(waits) == 1
    assert waits[0].energy == 2.0
    assert waits[0].duration == pytest.approx(1 / 3 + 0.25, rel=REL)
    # Spin run at the same point has no context-switch delay.
    spin = simulate(parse("1 + future (2+3)"), LADDER, 2, strategy_both(LADDER))
    assert report.makespan == pytest.approx(spin.makespan + 0.25, rel=REL)


def test_fixed_idle_spin_power():
    model = CostModel(idle_power=0.5)
    report = simulate(parse("1 + future (2+3)"), LADDER, 2, strategy_both(LADDER), model)
    (wait_seg,) = [seg for seg in report.timelines[0].segments if seg.kind == SEG_WAIT]
    assert wait_seg.energy == pytest.approx(0.5 * (1 / 3), rel=REL)


def test_compute_metrics_identities():
    report = simulate(parse("1 + future (2+3)"), LADDER, 2, strategy_none(LADDER))
    energy, makespan, edp, ed2p = report.total_energy, report.makespan, report.edp, report.ed2p
    assert (energy, makespan) == (report.total_energy, report.makespan)
    assert edp == pytest.approx(40.0, rel=REL)
    assert ed2p == pytest.approx(80.0, rel=REL)
    assert energy > 0


def test_literal_program_consumes_nothing():
    report = simulate(IntLit(5), LADDER, 2, strategy_both(LADDER))
    assert report.final_value == 5
    assert report.makespan == 0.0
    assert report.total_energy == 0.0
    assert report.claim_records == ()


def test_claim_forwarding_chain():
    # future (future (3+4)) at the top: the middle thread realizes a future
    # value and must claim it forward before the root can claim the middle.
    report = simulate(parse("2 + future (future (3+4))"), LADDER, 2, strategy_both(LADDER))
    assert report.final_value == 9
    assert len(report.claim_records) == 2
    targets = [r.target for r in report.claim_records]
    assert targets == [2, 1]  # grandchild claimed by middle, middle by root


@pytest.mark.parametrize(
    "name",
    ["create_cycles", "add_cycles", "claim_cycles", "kappa", "alpha", "tau", "idle_power", "block_time",
     "block_energy"],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_cost_model_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        CostModel(**{name: bad})


REPLAY_STRATEGIES = ("none", "parent-only", "child-only", "both")


@pytest.mark.parametrize("wait", [WAIT_SPIN, WAIT_BLOCK])
@pytest.mark.parametrize("name", REPLAY_STRATEGIES)
def test_simulated_schedule_replays_through_engine_step(name, wait):
    """The simulator's compute segments, in time order, are a legal run of the small-step rules."""
    strategy = make_strategy(name, LADDER)
    model = CostModel(wait_policy=wait, tau=0.05)
    for seed in range(40):
        expr = gen_random_program(seed, 7, 3)
        report = simulate(expr, LADDER, 2, strategy, model)
        computes = sorted(
            (seg.start, fid, offset, seg)
            for fid, timeline in report.timelines.items()
            for offset, seg in enumerate(timeline.segments)
            if seg.kind == SEG_COMPUTE
        )
        config = initial_configuration(expr, LADDER.level(2))
        for _, fid, _, seg in computes:
            config, event = step(config, fid, strategy)
            assert (event.rule, event.level) == (seg.rule, seg.level), (seed, fid)
        assert is_terminal(config)
        assert config.closures[0].expr == IntLit(report.final_value)


def test_reprice_rejects_a_strategy_over_another_ladder():
    with pytest.raises(ValueError, match="different ladder"):
        reprice(parse("1 + future (2 + 3)"), LADDER, 2, strategy_both(FrequencyLadder((1.0, 5.0))))


@pytest.mark.parametrize("depth", [4096, 2000])
def test_compile_reads_a_deep_nest_of_futures_without_recursion(depth):
    """``future``^4096 ``1`` and a 2,000-deep ``(1 + future (1 + future ... 1))``: each thread creates the next, claims
    it, and, in the nest, adds the claimed value to its 1 after the claim."""
    text = "future " * depth + "1" if depth == 4096 else "(1 + future " * depth + "1" + ")" * depth
    adds = [(RULE_ADD, None)] if depth == 2000 else []
    expected = {fid: [(RULE_CREATE, fid + 1), (RULE_CLAIM, fid + 1), *adds] for fid in range(depth)}
    assert _compile(parse(text)) == (1 + len(adds) * depth, {**expected, depth: []})


def test_compile_reads_a_6400_term_chain_without_recursion():
    assert _compile(parse(" + ".join(["1"] * 6400))) == (6400, {0: [(RULE_ADD, None)] * 6399})


def test_compile_puts_a_threads_creates_and_future_free_adds_before_its_claims_and_the_adds_above_them():
    expr = parse("(1 + 2) + ((future (3 + future 4)) + (5 + 6)) + future 7")
    assert _compile(expr) == (28, {
        0: [(RULE_ADD, None), (RULE_CREATE, 1), (RULE_ADD, None), (RULE_CREATE, 3),
            (RULE_CLAIM, 1), (RULE_ADD, None), (RULE_ADD, None), (RULE_CLAIM, 3), (RULE_ADD, None)],
        1: [(RULE_CREATE, 2), (RULE_CLAIM, 2), (RULE_ADD, None)],
        2: [],
        3: [],
    })


def test_compare_pricing_checks_the_program_and_the_strategys_ladder():
    """``compare``'s path, ``_price`` over ``_compile``, rejects what ``simulate`` rejects."""
    with pytest.raises(ValueError, match="future references"):
        _compile(Add(IntLit(1), FutureRef(1)))
    value, tapes = _compile(parse("1 + future (2 + 3)"))
    with pytest.raises(ValueError, match="different ladder"):
        _price(value, tapes, LADDER, 2, strategy_both(FrequencyLadder((1.0, 5.0))))
