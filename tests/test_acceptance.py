"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import time

import pytest

from futsim.calculus import (
    Add,
    FutureCreate,
    IntLit,
    eval_sequential,
    initial_configuration,
    node_count,
)
from futsim.energy import CASE_I, CASE_II, SEG_WAIT, CostModel, simulate
from futsim.engine import (
    NewestFirst,
    RoundRobin,
    SeededRandom,
    enabled_threads,
    explore_with_stats,
    run,
    step,
)
from futsim.parser import parse
from futsim.scaling import FrequencyLadder, ScaleOp, make_strategy, strategy_both, strategy_none, strategy_parent_only
from oracles import gen_random_program, is_terminal, validate_configuration

LADDER4 = FrequencyLadder((1.0, 2.0, 3.0, 4.0))
GOLDEN_PROGRAM = parse("2 + future (future (3+4))")

STRATEGY_NAMES = ("both", "parent-only", "none")
POLICIES = (NewestFirst(), RoundRobin(), SeededRandom(2024))


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def chain(count: int) -> Add:
    expr = Add(IntLit(1), IntLit(1))
    for _ in range(count - 1):
        expr = Add(expr, IntLit(1))
    return expr


def spawn_first(child_adds: int, parent_adds: int) -> Add:
    """(future C_m) + P_k: the k parent additions run between create and claim."""
    return Add(FutureCreate(chain(child_adds)), chain(parent_adds))


def test_criterion_1_golden_trace():
    start = time.perf_counter()
    result = run(GOLDEN_PROGRAM, LADDER4, 2, strategy_both(LADDER4), NewestFirst())
    elapsed = time.perf_counter() - start

    problems = []
    rules = [e.rule for e in result.events]
    if rules != ["Create", "Create", "Add", "Claim", "Claim", "Add"]:
        problems.append(f"rule sequence {rules}")
    create_root, create_mid, add_leaf, claim_mid, claim_root, add_root = result.events
    checks = [
        (create_root.child_level.index, 3, "first child level"),
        (create_root.parent_level.index, 1, "root level after create"),
        (create_mid.child_level.index, 4, "grandchild level"),
        (create_mid.parent_level.index, 2, "middle level after its create"),
        (claim_mid.thread, create_root.child, "middle thread claims"),
        (claim_mid.claimant_level.index, 3, "middle level after claiming"),
        (claim_root.thread, 0, "root claims"),
        (claim_root.claimant_level.index, 2, "root level after claiming"),
        (add_leaf.total, 7, "grandchild sum"),
        (add_root.total, 9, "root sum"),
        (result.final_value, 9, "final value"),
        (result.final_level.index, 2, "final root level equals the initial level"),
    ]
    for got, want, label in checks:
        if got != want:
            problems.append(f"{label}: {got} != {want}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.3f}s")

    ok = not problems
    report(1, ok, "golden 6-step reduction with exact levels" if ok else "; ".join(problems))
    assert ok, problems


@pytest.fixture(scope="module")
def determinacy_suite():
    """200 random programs x 3 strategies x 3 policies, validating every step."""
    start = time.perf_counter()
    programs = [gen_random_program(seed, 6, 3) for seed in range(200)]
    mismatches = []
    invariant_errors = []
    for expr in programs:
        expected = eval_sequential(expr)
        bound = 3 * node_count(expr)
        for name in STRATEGY_NAMES:
            strategy = make_strategy(name, LADDER4)
            for policy in POLICIES:
                config = initial_configuration(expr, LADDER4.level(2))
                pick = policy.session()
                steps = 0
                while True:
                    enabled = enabled_threads(config)
                    if not enabled:
                        break
                    config, _ = step(config, pick(enabled), strategy)
                    steps += 1
                    try:
                        validate_configuration(config, LADDER4)
                    except Exception as exc:  # noqa: BLE001 - collected for the report
                        invariant_errors.append(str(exc))
                        break
                if not is_terminal(config):
                    invariant_errors.append("non-terminal final configuration")
                    continue
                final = config.closures[0].expr.value
                if final != expected:
                    mismatches.append((name, policy.name, final, expected))
                if steps > bound:
                    invariant_errors.append(f"step count {steps} > {bound}")
    return {
        "mismatches": mismatches,
        "invariant_errors": invariant_errors,
        "elapsed": time.perf_counter() - start,
        "runs": len(programs) * len(STRATEGY_NAMES) * len(POLICIES),
    }


def test_criterion_2_determinacy(determinacy_suite):
    problems = []
    if determinacy_suite["mismatches"]:
        problems.append(f"{len(determinacy_suite['mismatches'])} value mismatches")

    explored = 0
    seed = 0
    while explored < 50:
        expr = gen_random_program(seed, 4, 2)
        seed += 1
        if node_count(expr) > 12:
            continue
        outcomes, _ = explore_with_stats(expr, LADDER4, 2, strategy_both(LADDER4))
        if len(outcomes) != 1:
            problems.append(f"seed {seed - 1}: {len(outcomes)} outcomes")
        elif next(iter(outcomes))[0] != eval_sequential(expr):
            problems.append(f"seed {seed - 1}: outcome disagrees with the oracle")
        explored += 1

    elapsed = determinacy_suite["elapsed"]
    if elapsed >= 60.0:
        problems.append(f"suite took {elapsed:.1f}s")

    ok = not problems
    detail = (
        f"{determinacy_suite['runs']} runs and 50 exhaustive explorations agree with "
        f"sequential evaluation ({elapsed:.1f}s)"
    )
    report(2, ok, detail if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_3_operator_tables():
    problems = []
    for size in (1, 2, 4, 8):
        ladder = FrequencyLadder(tuple(float(i) for i in range(1, size + 1)))
        both = strategy_both(ladder)
        parent = strategy_parent_only(ladder)
        for k in range(1, size + 1):
            level = ladder.level(k)
            successor = ladder.level(k + 1) if k < size else ladder.level(size)
            predecessor = ladder.level(k - 1) if k > 1 else ladder.level(1)
            table = [
                (both.scale(ScaleOp.UP_CREATE, level)[0], successor, f"both up_create n={size} k={k}"),
                (both.scale(ScaleOp.UP_CLAIM, level)[0], successor, f"both up_claim n={size} k={k}"),
                (both.scale(ScaleOp.DOWN, level)[0], predecessor, f"both down n={size} k={k}"),
                (parent.scale(ScaleOp.UP_CREATE, level)[0], level, f"parent-only up_create n={size} k={k}"),
                (parent.scale(ScaleOp.UP_CLAIM, level)[0], successor, f"parent-only up_claim n={size} k={k}"),
                (parent.scale(ScaleOp.DOWN, level)[0], predecessor, f"parent-only down n={size} k={k}"),
            ]
            for got, want, label in table:
                if got != want:
                    problems.append(f"{label}: {got} != {want}")
    ok = not problems
    report(3, ok, "operator tables exact for n in {1,2,4,8} including clamps" if ok else "; ".join(problems))
    assert ok, problems


@pytest.fixture(scope="module")
def wait_grid():
    """Simulations of (future C_m) + P_k for k in 1..5, m in k+2..k+8."""
    start = time.perf_counter()
    grid = {}
    for k in range(1, 6):
        for m in range(k + 2, k + 9):
            expr = spawn_first(m, k)
            grid[(k, m)] = {
                "both": simulate(expr, LADDER4, 2, strategy_both(LADDER4)),
                "none": simulate(expr, LADDER4, 2, strategy_none(LADDER4)),
            }
    return grid, time.perf_counter() - start


def test_criterion_4_case_i_spin_reduction(wait_grid):
    grid, elapsed = wait_grid
    problems = []
    compared = 0
    for (k, m), reports in grid.items():
        wait_both = reports["both"].claim_records[-1].wait
        wait_none = reports["none"].claim_records[-1].wait
        if wait_both > 0 and wait_none > 0:
            compared += 1
            if not wait_both < wait_none:
                problems.append(f"k={k} m={m}: {wait_both} !< {wait_none}")
    if compared == 0:
        problems.append("no grid point was Case I under both settings")
    if elapsed >= 5.0:
        problems.append(f"grid took {elapsed:.1f}s")
    ok = not problems
    detail = f"wait shrinks at all {compared} dual-Case-I grid points ({elapsed:.2f}s)"
    report(4, ok, detail if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_5_case_ii_no_wait(wait_grid):
    grid, _ = wait_grid
    problems = []
    case_ii_points = 0
    for (k, m), reports in grid.items():
        for name, rep in reports.items():
            record = rep.claim_records[-1]
            if record.t_realize <= record.t_arrive:
                case_ii_points += 1
                if record.wait != 0.0:
                    problems.append(f"k={k} m={m} {name}: wait {record.wait}")
                if record.case_tag != CASE_II:
                    problems.append(f"k={k} m={m} {name}: tag {record.case_tag}")
                if any(seg.kind == SEG_WAIT for tl in rep.timelines.values() for seg in tl.segments):
                    problems.append(f"k={k} m={m} {name}: wait segment present")
            elif record.case_tag != CASE_I:
                problems.append(f"k={k} m={m} {name}: late realization not Case I")
    if case_ii_points == 0:
        problems.append("no grid point realized before arrival")
    ok = not problems
    report(5, ok, f"{case_ii_points} early-realization points have zero wait and no Wait segment" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_6_closed_form_oracle():
    expr = parse("1 + future (2+3)")
    rel = 1e-9
    problems = []

    none = simulate(expr, LADDER4, 2, strategy_none(LADDER4))
    for got, want, label in [
        (none.makespan, 2.0, "none makespan"),
        (none.total_energy, 20.0, "none energy"),
        (none.edp, 40.0, "none EDP"),
    ]:
        if abs(got - want) > rel * abs(want):
            problems.append(f"{label}: {got} != {want}")

    both = simulate(expr, LADDER4, 2, strategy_both(LADDER4))
    for got, want, label in [
        (both.makespan, 7 / 3, "both makespan"),
        (both.total_energy, 55 / 3, "both energy"),
        (both.edp, 385 / 9, "both EDP"),
    ]:
        if abs(got - want) > rel * abs(want):
            problems.append(f"{label}: {got} != {want}")

    ok = not problems
    report(6, ok, "hand-derived E/T/EDP reproduced to 1e-9" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_7_model_identities():
    problems = []

    flat = CostModel(alpha=1)
    wait_free = spawn_first(1, 3)
    energies = {}
    for name in ("both", "parent-only", "child-only", "none"):
        rep = simulate(wait_free, LADDER4, 2, make_strategy(name, LADDER4), flat)
        if any(seg.kind == SEG_WAIT for tl in rep.timelines.values() for seg in tl.segments):
            problems.append(f"{name}: program not wait-free")
        energies[name] = rep.total_energy
    base = energies["none"]
    for name, energy in energies.items():
        if abs(energy - base) > 1e-12 * abs(base):
            problems.append(f"alpha=1 energy differs for {name}: {energy} vs {base}")

    tau = 0.25
    expr = spawn_first(1, 1)
    plain = simulate(expr, LADDER4, 2, strategy_both(LADDER4), CostModel(tau=0.0))
    delayed = simulate(expr, LADDER4, 2, strategy_both(LADDER4), CostModel(tau=tau))
    if any(r.wait > 0 for r in plain.claim_records + delayed.claim_records):
        problems.append("tau-linearity program is not wait-free")
    if delayed.makespan - plain.makespan != delayed.transition_count * tau:
        problems.append(
            f"makespan delta {delayed.makespan - plain.makespan} != {delayed.transition_count} * {tau}"
        )

    ok = not problems
    report(7, ok, "alpha=1 neutrality and exact tau-linearity hold" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_8_return_to_original():
    wide = FrequencyLadder(tuple(float(i) for i in range(1, 17)))
    strategy = strategy_both(wide)
    problems = []
    clamped = 0
    checked = 0
    for seed in range(100):
        expr = gen_random_program(seed, 6, 3)
        result = run(expr, wide, 8, strategy, NewestFirst())
        if result.clamp_count > 0:
            clamped += 1
            continue
        checked += 1
        if result.final_level != wide.level(8):
            problems.append(f"seed {seed}: ends at fq_{result.final_level.index}")
    if checked == 0:
        problems.append("every run clamped; nothing to check")
    ok = not problems
    report(8, ok, f"{checked} clamp-free runs return to fq_8 ({clamped} clamped runs excluded)" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_9_structural_invariants(determinacy_suite):
    errors = determinacy_suite["invariant_errors"]
    ok = not errors
    detail = (
        f"producer uniqueness, reachability, acyclicity, ladder membership and the "
        f"3N step bound held across {determinacy_suite['runs']} validated runs"
    )
    report(9, ok, detail if ok else "; ".join(errors[:5]))
    assert ok, errors[:5]
