"""A run's level table and the laws it must keep: how often each pricer and
scheduler asks ``strategy.scale`` (once per rule and level under a built-in
strategy, on every Create and Claim under an override), that a switch at
tau 0 adds no segment and no energy, and that doubling the energy knobs
doubles every energy bit for bit, through ``reprice``, ``simulate`` and
compare's ``_price``. The last two are relations of the cost model that need
no second implementation."""

from __future__ import annotations

import dataclasses
import functools
import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from futsim.energy import (  # noqa: E402
    SEG_TRANSITION,
    WAIT_BLOCK,
    WAIT_SPIN,
    CostModel,
    CostReport,
    _compile,
    _price,
    _schedule,
    reprice,
    simulate,
)
from futsim.engine import NewestFirst, RoundRobin, SeededRandom, run  # noqa: E402
from futsim.parser import unparse  # noqa: E402
from futsim.scaling import FrequencyLadder, ScalingStrategy, make_strategy  # noqa: E402
from oracles import gen_random_program  # noqa: E402
from test_properties import SMALL_SCOPE, STRATEGIES, _wide_draw  # noqa: E402
from test_contexts import wide  # noqa: E402  (n futures, each the root's: n Creates and n Claims)

LADDER = FrequencyLadder((1.0, 2.0, 3.0, 4.0))
POLICIES = (NewestFirst, RoundRobin, functools.partial(SeededRandom, 7))


class _Deferring(ScalingStrategy):
    """A built-in strategy's steps behind an overridden ``scale``, which logs (operator, level index) per call."""

    def __init__(self, name, ladder):
        super().__init__(name, ladder, *make_strategy(name, ladder)._steps.values())
        self.log = []

    def scale(self, op, level):
        self.log.append((op.name, level.index))
        return super().scale(op, level)


def _paths(expr):
    """Each path that asks ``scale``, as a function of the strategy to ask: ``reprice``, ``simulate``, compare's
    ``_price`` on the compiled tapes and ``_schedule`` under each policy."""
    value, tapes = _compile(expr)
    model = CostModel(tau=0.05)
    paths = {"reprice": lambda strategy: reprice(expr, LADDER, 2, strategy, model),
             "simulate": lambda strategy: simulate(expr, LADDER, 2, strategy, model),
             "_price": lambda strategy: _price(value, tapes, LADDER, 2, strategy, model)}
    for policy in POLICIES:
        paths[f"_schedule {policy().name}"] = lambda strategy, policy=policy: _schedule(value, tapes, LADDER, 2,
                                                                                        strategy, policy())
    return paths


def _outcome(result):
    """A report's fields but the timelines, or ``_schedule``'s tuple as it is."""
    if isinstance(result, CostReport):
        return [getattr(result, field.name) for field in dataclasses.fields(CostReport)]
    return result


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_built_in_scale_is_asked_once_per_rule_and_level_and_an_override_on_every_create_and_claim(name,
                                                                                                     monkeypatch):
    """A work count: with ``ScalingStrategy.scale`` wrapped by a logger, every path asks it at most 3 x the ladder's
    length times per run, never the same question twice, and the same questions on wide 200 as on wide 100. A
    subclass that overrides ``scale`` gets the same result from 2 x creates + claims calls, the same questions."""
    asked = []
    built_in = ScalingStrategy.scale

    def logged(self, op, level):
        asked.append((op.name, level.index))
        return built_in(self, op, level)

    monkeypatch.setattr(ScalingStrategy, "scale", logged)
    questions = {}
    for n in (100, 200):
        for path, price in _paths(wide(n)).items():
            override = _Deferring(name, LADDER)
            expected = _outcome(price(override))
            assert len(override.log) == 2 * n + n, (n, path)  # each future is created once and claimed once
            asked.clear()
            assert _outcome(price(make_strategy(name, LADDER))) == expected, (n, path)
            assert len(asked) == len(set(asked)) <= 3 * len(LADDER), (n, path, asked)
            assert set(asked) == set(override.log), (n, path)
            questions.setdefault(path, []).append(sorted(asked))
    for path, (smaller, larger) in questions.items():
        assert smaller == larger, path


def _set_on_instance(name):
    """A built-in strategy whose ``scale`` is replaced on the instance, as a registered factory may replace it, by a
    function that logs (operator, level index) per call and defers to the built-in one."""
    strategy = make_strategy(name, LADDER)
    strategy.log, built_in = [], strategy.scale

    def scale(op, level):
        strategy.log.append((op.name, level.index))
        return built_in(op, level)

    strategy.scale = scale
    return strategy


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_scale_set_on_the_instance_is_called_on_every_create_and_claim(name):
    """A ``scale`` set on the instance may keep state like a subclass's override: every path, ``run`` included, calls
    it 2 x creates + claims times, with the questions a subclass's override is asked, in the same order, and gives the
    same result."""
    n = 40
    expr = wide(n)
    paths = _paths(expr)
    paths["run"] = lambda strategy: dataclasses.replace(run(expr, LADDER, 2, strategy), events=())
    for path, price in paths.items():
        override, on_instance = _Deferring(name, LADDER), _set_on_instance(name)
        assert _outcome(price(on_instance)) == _outcome(price(override)), path
        assert len(on_instance.log) == 2 * n + n, path  # each future is created once and claimed once
        assert on_instance.log == override.log, path


def _switch_free(report):
    """What a switch at tau 0 may not change: the makespan and every energy."""
    return repr((report.makespan, report.total_energy, report.per_thread_energy, report.edp, report.ed2p))


def test_a_switch_at_tau_0_adds_no_segment_and_no_energy():
    """Under ``both`` at tau 0 with ``transition_energy``, a run counts the switches the same run counts at tau
    0.05, its timelines hold no transition segment, and its makespan and energies are, bit for bit, those of the
    run without ``transition_energy``; on every small program and two wide draws, spin and block in turn."""
    strategy = make_strategy("both", LADDER)
    switches = 0
    for expr, wait in zip(SMALL_SCOPE + [_wide_draw(0), _wide_draw(1)], itertools.cycle((WAIT_SPIN, WAIT_BLOCK))):
        free = simulate(expr, LADDER, 2, strategy, CostModel(wait_policy=wait, transition_energy=True))
        timed = reprice(expr, LADDER, 2, strategy, CostModel(wait_policy=wait, tau=0.05, transition_energy=True))
        assert free.transition_count == timed.transition_count, unparse(expr)
        assert not any(seg.kind == SEG_TRANSITION for line in free.timelines.values() for seg in line.segments)
        plain = CostModel(wait_policy=wait)
        assert _switch_free(free) == _switch_free(simulate(expr, LADDER, 2, strategy, plain)), unparse(expr)
        assert _switch_free(reprice(expr, LADDER, 2, strategy, CostModel(wait_policy=wait, transition_energy=True))) \
            == _switch_free(reprice(expr, LADDER, 2, strategy, plain)), unparse(expr)
        switches += free.transition_count
    assert switches > 1000


def _doubled(model):
    """``model`` with its energy knobs doubled: ``kappa``, ``block_energy`` and, when set, ``idle_power``."""
    idle = None if model.idle_power is None else 2 * model.idle_power
    return dataclasses.replace(model, kappa=2 * model.kappa, block_energy=2 * model.block_energy, idle_power=idle)


def _assert_energy_doubled(base, doubled, *context):
    """Every energy of ``doubled`` is twice ``base``'s, bit for bit; its times, claims, clamps and switches are
    ``base``'s. ``repr`` tells 0 from 0.0, and 2 * 0 is 0."""
    twice = (2 * base.total_energy, {fid: 2 * e for fid, e in base.per_thread_energy.items()}, 2 * base.edp,
             2 * base.ed2p)
    assert repr((doubled.total_energy, dict(doubled.per_thread_energy), doubled.edp, doubled.ed2p)) == repr(twice), \
        context
    same = ("final_value", "makespan", "claim_records", "clamp_count", "transition_count")
    assert repr([getattr(doubled, name) for name in same]) == repr([getattr(base, name) for name in same]), context
    if hasattr(base, "timelines"):
        for fid, line in base.timelines.items():
            got = [(seg.start, seg.end, seg.kind, seg.level, seg.rule, seg.target, seg.energy)
                   for seg in doubled.timelines[fid].segments]
            assert repr(got) == repr([(seg.start, seg.end, seg.kind, seg.level, seg.rule, seg.target, 2 * seg.energy)
                                      for seg in line.segments]), (fid, *context)


def _assert_energy_scales(expr, name, model):
    """Through ``reprice``, ``simulate`` and compare's ``_price`` on tapes compiled once for both models."""
    compiled = _compile(expr)
    for price in (functools.partial(reprice, expr), functools.partial(simulate, expr),
                  functools.partial(_price, *compiled)):
        base, doubled = (price(LADDER, 2, make_strategy(name, LADDER), m) for m in (model, _doubled(model)))
        _assert_energy_doubled(base, doubled, unparse(expr), name, model, price.func.__name__)


# 4 strategies x spin/block x tau 0/0.05 x transition energy
ENERGY_GRID = list(itertools.product(STRATEGIES, (WAIT_SPIN, WAIT_BLOCK), (0.0, 0.05), (False, True)))


def test_doubling_the_energy_knobs_doubles_every_energy_on_every_small_program():
    """Each small program under one grid point, the points taken in turn, with idle power unset and set in turn."""
    points = itertools.cycle(itertools.product(ENERGY_GRID, (None, 0.7)))
    for expr, ((name, wait, tau, switch_energy), idle) in zip(SMALL_SCOPE, points):
        model = CostModel(kappa=1.7, wait_policy=wait, tau=tau, transition_energy=switch_energy, idle_power=idle,
                          block_energy=1.5)
        _assert_energy_scales(expr, name, model)


# Doubling is exact unless a value overflows or goes subnormal, so the drawn knobs stay in [0.01, 100] (or are 0):
# on a 4-level ladder from 1.0 to 4.0 with alpha 3, every energy then lies far from both ends of the float range.
knob = st.floats(min_value=0.01, max_value=100.0)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(ENERGY_GRID), knob, st.just(0.0) | knob,
       st.none() | st.just(0.0) | knob)
def test_doubling_the_energy_knobs_doubles_every_energy_on_random_draws(seed, point, kappa, block_energy, idle):
    name, wait, tau, switch_energy = point
    model = CostModel(kappa=kappa, wait_policy=wait, tau=tau, transition_energy=switch_energy, idle_power=idle,
                      block_energy=block_energy)
    _assert_energy_scales(gen_random_program(seed, 6, 3), name, model)
