from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from futsim.calculus import (
    Add,
    ArithRedex,
    ClaimSite,
    Closure,
    Configuration,
    CreateRedex,
    FutureCreate,
    FutureRef,
    HoleLeft,
    HoleRight,
    IntLit,
    NoRedex,
    contains_future_ref,
    decompose,
    eval_sequential,
    initial_configuration,
    node_count,
    plug,
    wrap_int,
)
from futsim.energy import simulate
from futsim.engine import NewestFirst, enabled_threads, run, step
from futsim.scaling import FrequencyLadder, strategy_both
from oracles import ConfigurationError, future_ref_ids, gen_random_program, refill, validate_configuration

LADDER = FrequencyLadder((1.0, 2.0, 3.0, 4.0))


def test_decompose_leftmost_arith():
    expr = Add(Add(IntLit(3), IntLit(4)), IntLit(5))
    site = decompose(expr)
    assert site == ArithRedex((HoleLeft(IntLit(5)),), 3, 4)


def test_decompose_create_under_value():
    expr = Add(IntLit(2), FutureCreate(FutureCreate(Add(IntLit(3), IntLit(4)))))
    site = decompose(expr)
    assert site == CreateRedex((HoleRight(IntLit(2)),), FutureCreate(Add(IntLit(3), IntLit(4))))


def test_decompose_claims_left_future_first():
    expr = Add(FutureRef(1), FutureRef(2))
    site = decompose(expr)
    assert site == ClaimSite((HoleLeft(FutureRef(2)),), 1)


def test_decompose_bare_future_ref_is_claim():
    assert decompose(FutureRef(1)) == ClaimSite((), 1)


def test_decompose_int_is_value():
    assert decompose(IntLit(7)) == NoRedex(IntLit(7))


def test_decompose_skips_claim_pending_left_operand():
    # The right-hand addition must stay reducible even though the claim-pending
    # pair on the left is not a value; otherwise the thread would be stuck.
    expr = Add(Add(FutureRef(1), FutureRef(2)), Add(IntLit(3), IntLit(4)))
    site = decompose(expr)
    assert site == ArithRedex((HoleRight(Add(FutureRef(1), FutureRef(2))),), 3, 4)


def test_decompose_claim_reaches_leftmost_ref_in_any_shape():
    expr = Add(Add(FutureRef(1), FutureRef(2)), Add(FutureRef(3), FutureRef(4)))
    site = decompose(expr)
    assert isinstance(site, ClaimSite)
    assert site.target == 1


def test_decompose_prefers_redex_over_claim():
    expr = Add(FutureRef(1), Add(IntLit(1), IntLit(2)))
    site = decompose(expr)
    assert site == ArithRedex((HoleRight(FutureRef(1)),), 1, 2)


def test_plug_examples():
    assert plug((HoleLeft(IntLit(5)),), IntLit(7)) == Add(IntLit(7), IntLit(5))
    assert plug((HoleRight(IntLit(2)),), FutureRef(1)) == Add(IntLit(2), FutureRef(1))
    assert plug((), IntLit(9)) == IntLit(9)


@pytest.mark.parametrize("seed", range(60))
def test_decompose_plug_round_trip(seed):
    expr = gen_random_program(seed, 6, 3)
    site = decompose(expr)
    if isinstance(site, ArithRedex):
        assert plug(site.context, Add(IntLit(site.left), IntLit(site.right))) == expr
    elif isinstance(site, CreateRedex):
        assert plug(site.context, FutureCreate(site.body)) == expr
    elif isinstance(site, ClaimSite):
        assert plug(site.context, FutureRef(site.target)) == expr
    else:
        assert site.value == expr and isinstance(expr, IntLit)


@pytest.mark.parametrize("seed", range(30))
def test_decompose_deterministic(seed):
    expr = gen_random_program(seed, 5, 2)
    assert decompose(expr) == decompose(expr)


def _contains_redex(expr) -> bool:
    if isinstance(expr, FutureCreate):
        return True
    if isinstance(expr, Add):
        if isinstance(expr.left, IntLit) and isinstance(expr.right, IntLit):
            return True
        return _contains_redex(expr.left) or _contains_redex(expr.right)
    return False


def test_claim_only_when_no_redex_remains():
    # Claim sites fire only on fully reduced expressions; checked on every
    # intermediate expression of a real run.
    expr = gen_random_program(11, 6, 3)
    config = initial_configuration(expr, LADDER.level(2))
    strategy = strategy_both(LADDER)
    pick = NewestFirst().session()
    while True:
        enabled = enabled_threads(config)
        if not enabled:
            break
        for closure in config.closures:
            site = decompose(closure.expr)
            if isinstance(site, ClaimSite):
                assert not _contains_redex(closure.expr)
        config, _ = step(config, pick(enabled), strategy)


def test_eval_sequential_examples():
    assert eval_sequential(Add(IntLit(3), IntLit(4))) == 7
    assert eval_sequential(Add(IntLit(2), FutureCreate(FutureCreate(Add(IntLit(3), IntLit(4)))))) == 9
    assert eval_sequential(FutureCreate(Add(IntLit(1), IntLit(2)))) == 3


def test_eval_sequential_rejects_refs():
    with pytest.raises(ValueError):
        eval_sequential(FutureRef(1))


def test_int_overflow_wraps():
    top = (1 << 63) - 1
    assert wrap_int(top + 1) == -(1 << 63)
    assert eval_sequential(Add(IntLit(top), IntLit(1))) == -(1 << 63)


def test_node_count():
    assert node_count(IntLit(1)) == 1
    assert node_count(Add(IntLit(1), FutureCreate(IntLit(2)))) == 4


def _closure(level_index, expr, fid):
    return Closure(LADDER.level(level_index), decompose(expr), fid)


def test_validator_accepts_well_formed():
    config = Configuration(
        closures=(
            _closure(3, Add(IntLit(3), IntLit(4)), 1),
            _closure(1, Add(IntLit(2), FutureRef(1)), 0),
        ),
        next_fresh=2,
        root=0,
    )
    validate_configuration(config, LADDER)


def test_validator_rejects_duplicate_producer():
    config = Configuration(
        closures=(_closure(1, IntLit(1), 0), _closure(1, IntLit(2), 0)),
        next_fresh=1,
        root=0,
    )
    with pytest.raises(ConfigurationError):
        validate_configuration(config)


def test_validator_rejects_dangling_reference():
    config = Configuration(closures=(_closure(1, FutureRef(9), 0),), next_fresh=1, root=0)
    with pytest.raises(ConfigurationError):
        validate_configuration(config)


def test_validator_rejects_cycle():
    config = Configuration(
        closures=(
            _closure(1, FutureRef(2), 1),
            _closure(1, FutureRef(1), 2),
            _closure(1, FutureRef(1), 0),
        ),
        next_fresh=3,
        root=0,
    )
    with pytest.raises(ConfigurationError):
        validate_configuration(config)


def test_validator_rejects_off_ladder_frequency():
    from futsim.scaling import FrequencyLevel

    config = Configuration(closures=(Closure(FrequencyLevel(9, 99.0), decompose(IntLit(1)), 0),), next_fresh=1, root=0)
    with pytest.raises(ConfigurationError):
        validate_configuration(config, LADDER)


def _fill_and_check(site, filler):
    expr, next_site = refill(site, filler)
    assert expr == plug(site.context, filler)
    assert next_site == decompose(expr)
    return expr, next_site


def test_refill_after_add_searches_the_right_sibling():
    expr = Add(Add(IntLit(1), IntLit(2)), FutureCreate(IntLit(3)))
    site = decompose(expr)
    _, next_site = _fill_and_check(site, IntLit(3))
    assert next_site == CreateRedex((HoleRight(IntLit(3)),), IntLit(3))


def test_refill_after_create_finds_add_right_of_pending_claims():
    # (fv1 + fv2) + (3 + 4): the addition on the right runs before either claim.
    expr = Add(Add(FutureRef(1), FutureCreate(IntLit(2))), Add(IntLit(3), IntLit(4)))
    site = decompose(expr)
    assert isinstance(site, CreateRedex)
    _, next_site = _fill_and_check(site, FutureRef(2))
    assert next_site == ArithRedex((HoleRight(Add(FutureRef(1), FutureRef(2))),), 3, 4)
    _, next_site = _fill_and_check(next_site, IntLit(7))
    assert next_site == ClaimSite((HoleLeft(IntLit(7)), HoleLeft(FutureRef(2))), 1)


def test_refill_after_claim_checks_only_the_parent_then_the_right_sibling():
    expr = Add(Add(FutureRef(1), FutureRef(2)), Add(FutureRef(3), IntLit(4)))
    site = decompose(expr)
    assert site == ClaimSite((HoleLeft(Add(FutureRef(3), IntLit(4))), HoleLeft(FutureRef(2))), 1)
    _, site = _fill_and_check(site, IntLit(10))
    assert site == ClaimSite((HoleLeft(Add(FutureRef(3), IntLit(4))), HoleRight(IntLit(10))), 2)
    _, site = _fill_and_check(site, IntLit(20))
    assert site == ArithRedex((HoleLeft(Add(FutureRef(3), IntLit(4))),), 10, 20)
    _, site = _fill_and_check(site, IntLit(30))
    assert site == ClaimSite((HoleRight(IntLit(30)), HoleLeft(IntLit(4))), 3)
    _, site = _fill_and_check(site, IntLit(40))
    assert site == ArithRedex((HoleRight(IntLit(30)),), 40, 4)
    _, site = _fill_and_check(site, IntLit(44))
    assert site == ArithRedex((), 30, 44)
    expr, site = _fill_and_check(site, IntLit(74))
    assert expr == IntLit(74) and site == NoRedex(IntLit(74))


def test_refill_claim_phase_marker_is_not_part_of_the_site():
    site = decompose(Add(FutureRef(1), IntLit(2)))
    _, after_claim = refill(site, IntLit(5))
    assert after_claim._claim_phase
    assert not decompose(Add(IntLit(5), IntLit(2)))._claim_phase
    assert after_claim == decompose(Add(IntLit(5), IntLit(2)))
    assert hash(after_claim) == hash(decompose(Add(IntLit(5), IntLit(2))))
    assert "claim" not in repr(after_claim)


def test_refill_of_a_bare_claim_and_a_forwarded_reference():
    expr, site = _fill_and_check(ClaimSite((), 1), IntLit(9))
    assert expr == IntLit(9) and site == NoRedex(IntLit(9))
    _, site = _fill_and_check(ClaimSite((HoleLeft(IntLit(1)),), 1), FutureRef(2))
    assert site == ClaimSite((HoleLeft(IntLit(1)),), 2)


def test_refill_rejects_a_compound_filler():
    with pytest.raises(TypeError):
        refill(decompose(Add(IntLit(1), IntLit(2))), Add(IntLit(1), IntLit(2)))


def test_refill_names_the_type_of_a_deep_filler():
    filler = IntLit(0)
    for _ in range(100_000):
        filler = Add(filler, IntLit(1))
    with pytest.raises(TypeError, match="not Add$"):
        refill(decompose(Add(IntLit(1), IntLit(2))), filler)


def test_refill_walks_up_without_recursion():
    # fv0 + (fv1 + (... + (fv{depth-1} + future 7))): after the create the walk
    # climbs every level to the root, far past the interpreter's recursion limit.
    depth = 20 * 1000
    context = tuple(HoleRight(FutureRef(k)) for k in range(depth))
    expr, site = refill(CreateRedex(context, IntLit(7)), FutureRef(depth))
    assert isinstance(site, ClaimSite) and site.target == 0 and len(site.context) == 1
    for k in range(depth):
        assert isinstance(expr, Add) and expr.left == FutureRef(k)
        expr = expr.right
    assert expr == FutureRef(depth)


@pytest.mark.parametrize("shape", ["left-chain", "right-nest", "future-tower"])
def test_walkers_take_deep_terms_without_recursion(shape):
    # Built directly, so only the walkers are tested. The trees are never compared,
    # hashed or printed: those still recurse.
    n = 100_000
    if shape == "left-chain":  # ((fv0 + fv1) + fv2) + ... + fvn
        expr = FutureRef(0)
        for k in range(1, n + 1):
            expr = Add(expr, FutureRef(k))
        expected = (2 * n + 1, True, list(range(n + 1)))
    elif shape == "right-nest":  # 0 + (1 + (... + (n-1 + fvn)))
        expr = FutureRef(n)
        for k in reversed(range(n)):
            expr = Add(IntLit(k), expr)
        expected = (2 * n + 1, True, [n])
    else:  # future future ... future 1
        expr = IntLit(1)
        for _ in range(n):
            expr = FutureCreate(expr)
        expected = (n + 1, False, [])
    found = (node_count(expr), contains_future_ref(expr), future_ref_ids(expr))
    assert found == expected


def _deep(shape, n):
    """A tree n levels deep, built directly, so only the calculus is tested."""
    if shape == "left-chain":  # ((0 + 1) + 2) + ... + n
        expr = IntLit(0)
        for k in range(1, n + 1):
            expr = Add(expr, IntLit(k))
    elif shape == "right-nest":  # 0 + (1 + (... + (n-1 + n)))
        expr = IntLit(n)
        for k in reversed(range(n)):
            expr = Add(IntLit(k), expr)
    elif shape == "ref-nest":  # fv0 + (fv1 + (... + fvn))
        expr = FutureRef(n)
        for k in reversed(range(n)):
            expr = Add(FutureRef(k), expr)
    else:  # future future ... future 1
        expr = IntLit(1)
        for _ in range(n):
            expr = FutureCreate(expr)
    return expr


# The deep trees below are used only through the calls under test, never
# compared, hashed or printed, which still recurse.
DEPTH = 100_000


@pytest.mark.parametrize("shape", ["left-chain", "right-nest", "future-tower", "ref-nest"])
def test_decompose_takes_deep_terms_without_recursion(shape):
    site = decompose(_deep(shape, DEPTH))
    if shape == "left-chain":
        assert isinstance(site, ArithRedex) and (site.left, site.right) == (0, 1)
        assert len(site.context) == DEPTH - 1 and not site._claim_phase
    elif shape == "right-nest":
        assert isinstance(site, ArithRedex) and (site.left, site.right) == (DEPTH - 1, DEPTH)
        assert len(site.context) == DEPTH - 1 and not site._claim_phase
    elif shape == "ref-nest":  # no redex anywhere, so the search reaches the claim phase
        assert isinstance(site, ClaimSite) and site.target == 0 and len(site.context) == 1
    else:
        assert isinstance(site, CreateRedex) and site.context == () and isinstance(site.body, FutureCreate)


@pytest.mark.parametrize("shape", ["right-nest", "ref-nest"])
def test_refill_searches_a_deep_right_sibling_without_recursion(shape):
    expr, site = refill(ArithRedex((HoleLeft(_deep(shape, DEPTH)),), 1, 2), IntLit(3))
    assert isinstance(expr, Add) and expr.left == IntLit(3)
    if shape == "right-nest":
        assert isinstance(site, ArithRedex) and (site.left, site.right) == (DEPTH - 1, DEPTH)
        assert len(site.context) == DEPTH
    else:  # 3 + (fv0 + ...): no redex left, so the first claim is fv0's
        assert isinstance(site, ClaimSite) and site.target == 0 and len(site.context) == 2


@pytest.mark.parametrize("shape", ["left-chain", "right-nest", "future-tower"])
def test_eval_sequential_takes_deep_terms_without_recursion(shape):
    expected = 1 if shape == "future-tower" else DEPTH * (DEPTH + 1) // 2
    assert eval_sequential(_deep(shape, DEPTH)) == expected


@pytest.mark.parametrize("mode", ["run", "simulate"])
@pytest.mark.parametrize("shape", ["left-chain", "right-nest"])
def test_runs_take_programs_deeper_than_the_recursion_limit(shape, mode):
    n = 1_500
    evaluate = run if mode == "run" else simulate
    result = evaluate(_deep(shape, n), LADDER, 2, strategy_both(LADDER))
    assert result.final_value == n * (n + 1) // 2


VALUES = {
    "IntLit(value=3)": IntLit(3),
    "Add(left=IntLit(value=1), right=FutureRef(fid=2))": Add(IntLit(1), FutureRef(2)),
    "FutureCreate(body=IntLit(value=4))": FutureCreate(IntLit(4)),
    "FutureRef(fid=5)": FutureRef(5),
    "HoleLeft(right=IntLit(value=6))": HoleLeft(IntLit(6)),
    "HoleRight(left=FutureCreate(body=IntLit(value=7)))": HoleRight(FutureCreate(IntLit(7))),
}


@pytest.mark.parametrize("text", VALUES)
def test_value_classes_are_slotted_frozen_dataclasses_that_print_hash_and_copy_as_before(text):
    value = VALUES[text]
    assert not hasattr(value, "__dict__") and repr(value) == text
    fields = tuple(getattr(value, field.name) for field in dataclasses.fields(value))
    assert hash(value) == hash(fields)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, dataclasses.fields(value)[0].name, IntLit(0))
    for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert type(restored) is type(value) and restored == value and hash(restored) == hash(value)
    duplicate = copy.deepcopy(value)
    assert duplicate == value and repr(duplicate) == text
