"""Virtual-time execution of a reduction run with a parametric energy model.

``simulate`` is one loop over a heap of (time, thread) events. Threads are
``Closure`` records, stepped in place through the rule kernel
(``engine._advance``), so no expression is built: a thread is realized once
its site is ``NoRedex``, which holds its value. Each thread owns a core: a
step takes cycles/frequency and its energy follows the dynamic-power law
P = kappa * f**alpha. A claim on an unfinished producer parks the claimant's
event until the producer realizes, then waits by spinning (at the waiting
thread's level, or at ``idle_power`` if set) or blocking (flat penalty);
realized producers terminate and accrue nothing afterward. Event order is
fully determined by virtual time, ties broken by thread id.

A strategy changes only how fast threads run, never which rules they fire,
so ``_price`` prices each thread's rule tape on the same heap without the
kernel. ``compare`` fires each rule once with no clock to record the tapes
(``_record``); ``reprice`` reads them from a simulated run. Both loops price
claims, steps and level switches through the same helpers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .calculus import ClaimSite, Closure, Context, Expression, FutureId, NoRedex, decompose, plug
from .engine import RULE_ADD, RULE_CLAIM, RULE_CREATE, CreateEvent, EngineError, _advance, ladder_start, start_level
from .scaling import FrequencyLadder, FrequencyLevel, ScaleOp, ScalingStrategy

WAIT_SPIN = "spin"
WAIT_BLOCK = "block"
CASE_I = "CaseI"
CASE_II = "CaseII"


@dataclass
class CostModel:
    """Knobs of the timing/power model; defaults give the unit-cost cubic model."""

    create_cycles: float = 1.0
    add_cycles: float = 1.0
    claim_cycles: float = 1.0
    kappa: float = 1.0
    alpha: float = 3.0
    tau: float = 0.0  # per level-changing frequency switch; switches are free by default
    wait_policy: str = WAIT_SPIN
    idle_power: float | None = None  # spin power while waiting; None spins at the waiting thread's level
    block_time: float = 0.1
    block_energy: float = 1.0
    transition_energy: bool = False  # charge switches at kappa * f_new**alpha * tau

    def __post_init__(self) -> None:
        idle = () if self.idle_power is None else ("idle_power",)  # an unset idle power needs no check
        for name in ("create_cycles", "add_cycles", "claim_cycles", "kappa", "alpha", "tau", *idle, "block_time",
                     "block_energy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("create_cycles", "add_cycles", "claim_cycles"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        for name in ("tau", *idle, "block_time", "block_energy"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.wait_policy not in (WAIT_SPIN, WAIT_BLOCK):
            raise ValueError(f"unknown wait policy {self.wait_policy!r}")

    def cycles_for(self, rule: str) -> float:
        return getattr(self, _CYCLES[rule])


_CYCLES = {RULE_CREATE: "create_cycles", RULE_ADD: "add_cycles", RULE_CLAIM: "claim_cycles"}  # rule -> its field


def step_duration(rule: str, level: FrequencyLevel, model: CostModel) -> float:
    return model.cycles_for(rule) / level.value


def dynamic_power(level: FrequencyLevel, model: CostModel) -> float:
    """P = kappa * f**alpha: the power of a core running at ``level``.

    Float ``**`` raises on overflow where ``*`` gives inf; both give inf here.
    """
    try:
        return model.kappa * level.value**model.alpha
    except OverflowError:
        return math.inf


def step_energy(rule: str, level: FrequencyLevel, model: CostModel) -> float:
    return dynamic_power(level, model) * step_duration(rule, level, model)


def spin_power(level: FrequencyLevel, model: CostModel) -> float:
    return dynamic_power(level, model) if model.idle_power is None else model.idle_power


def _left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, so totals are the same on every Python.

    Since 3.12 the builtin ``sum`` compensates float rounding, which would
    change the last digit of some totals with the Python version.
    """
    total = 0
    for value in values:
        total += value
    return total


SEG_COMPUTE = "compute"
SEG_WAIT = "wait"
SEG_TRANSITION = "transition"


# Segments and claim records are named tuples: a run builds one or more per
# step, and a tuple builds in a fraction of a frozen dataclass's time.
class Segment(NamedTuple):
    start: float
    end: float
    kind: str  # compute | wait | transition
    level: FrequencyLevel
    energy: float
    rule: str | None = None  # compute only
    target: FutureId | None = None  # wait only
    # Compute only: the fired site's context and the atom the rule put in its
    # hole, so the step's tree is built only when someone asks for ``expr``.
    # The context is the site's innermost cell, whose outer cells the holes
    # before it share, so a report holds O(1) of context per step.
    hole: tuple[Context, Expression] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def expr(self) -> Expression | None:
        """The thread's expression after a compute step: ``plug(*hole)``."""
        return plug(*self.hole) if self.hole is not None else None


@dataclass(frozen=True)
class ThreadTimeline:
    segments: tuple[Segment, ...]

    def energy(self) -> float:
        return _left_sum(s.energy for s in self.segments)


class ClaimRecord(NamedTuple):
    claimant: FutureId
    target: FutureId
    t_arrive: float
    t_realize: float
    wait: float
    case_tag: str


@dataclass
class SimulationReport:
    final_value: int
    makespan: float
    total_energy: float
    per_thread_energy: dict[FutureId, float]
    edp: float
    ed2p: float
    claim_records: tuple[ClaimRecord, ...]
    clamp_count: int
    transition_count: int
    timelines: dict[FutureId, ThreadTimeline]


class CostReport(NamedTuple):
    """What ``reprice`` returns: the fields of ``SimulationReport``, in its order, but the timelines."""

    final_value: int
    makespan: float
    total_energy: float
    per_thread_energy: dict[FutureId, float]
    edp: float
    ed2p: float
    claim_records: tuple[ClaimRecord, ...]
    clamp_count: int
    transition_count: int


# The pricing rules, one copy each: the loops of ``simulate`` and ``_price``
# call them at a claim, at a (rule, frequency) priced for the first time in a
# run, and after a Create or a Claim.

def _claim(claimant: FutureId, producer: FutureId, now: float, level: FrequencyLevel, t_realize: dict[FutureId, float],
           parked: dict[FutureId, tuple[float, FutureId]], records: list[ClaimRecord],
           model: CostModel) -> tuple[float, float | None] | None:
    """Park a claim whose producer has not realized, or record and price it.

    A parked claimant returns None; its event waits in ``parked`` until the
    producer's realize pushes it back. Otherwise the claim's record is
    appended, and this returns when its rule starts and its wait's energy,
    None for a claim that did not wait (Case II). A Case I claim spins from
    its arrival to the realize, at ``level`` or at ``idle_power``, or blocks
    for one flat context-switch penalty.
    """
    ready = t_realize.get(producer)
    if ready is None:
        if producer in parked:
            raise EngineError(f"fv{producer} claimed twice")
        parked[producer] = (now, claimant)
        return None
    wait = max(0.0, ready - now)
    records.append(ClaimRecord(claimant, producer, now, ready, wait, CASE_I if wait > 0 else CASE_II))
    if not wait > 0:
        return now, None
    if model.wait_policy == WAIT_SPIN:
        return ready, spin_power(level, model) * wait
    return ready + model.block_time, model.block_energy


def _priced(by_frequency: dict[float, tuple[float, float]], rule: str, level: FrequencyLevel,
            model: CostModel) -> tuple[float, float]:
    """Price a step of ``rule`` at ``level``, the first at its frequency in a run: (duration, energy), kept for the rest.

    A step's price depends on its level only through the frequency, so a run
    keeps one table per rule, frequency -> price.
    """
    duration = step_duration(rule, level, model)
    price = by_frequency[level.value] = (duration, dynamic_power(level, model) * duration)
    return price


def _switches(level: FrequencyLevel, scaled: tuple[FrequencyLevel, ...],
              model: CostModel) -> tuple[int, list[tuple[FrequencyLevel, float]]]:
    """The level switches of a rule that ran at ``level`` and whose operators set ``scaled``, in order.

    Each new level other than ``level`` is one switch. When tau > 0 each
    switch also takes tau on the firing thread's timeline, and costs
    kappa * f_new**alpha * tau with ``transition_energy``, else nothing.
    Returns the switch count and the (new level, energy) of each tau segment.
    """
    count, taus = 0, []
    for new_level in scaled:
        if new_level.index != level.index:
            count += 1
            if model.tau > 0:
                taus.append((new_level, dynamic_power(new_level, model) * model.tau if model.transition_energy else 0.0))
    return count, taus


def _report(report_type: type, final_value: int, per_thread: dict[FutureId, float], t_realize: dict[FutureId, float],
            parked: dict, claim_records: list[ClaimRecord], clamp_count: int, transition_count: int, *more):
    """A finished run's report, with ``more`` its fields after ``transition_count`` (a simulation's timelines).

    The makespan is the root's realize, and the energy adds up left to right.
    """
    if 0 not in t_realize:
        raise EngineError("simulation stalled before the root realized a value")
    if parked:
        raise EngineError("simulation ended with parked claimants")
    makespan = t_realize[0]
    total = _left_sum(per_thread.values())
    return report_type(final_value, makespan, total, per_thread, total * makespan, total * makespan * makespan,
                       tuple(claim_records), clamp_count, transition_count, *more)


def simulate(
    expr: Expression,
    ladder: FrequencyLadder,
    init_index: int,
    strategy: ScalingStrategy,
    model: CostModel | None = None,
) -> SimulationReport:
    """Run a program on virtual time, one core per thread, under the cost model.

    An event fires the thread's rule through the kernel, prices it, and
    schedules what it leaves runnable. The compute segment runs at the level
    the rule fired at, priced by ``step_duration`` and ``dynamic_power`` once
    per (rule, frequency) in a run and looked up after; each level the rule's
    operators changed then costs tau on this thread's timeline. Every claim is priced where it fires: its
    record, then its wait segment if the producer realized after it arrived.
    """
    model = model or CostModel()
    root = Closure(start_level(expr, ladder, init_index, strategy), decompose(expr), 0)
    threads = {0: root}  # every thread ever created: the next fresh id is its size
    segments: dict[FutureId, list[Segment]] = {0: []}
    t_realize: dict[FutureId, float] = {}  # realized threads only
    heap: list[tuple[float, FutureId]] = [(0.0, 0)]  # (time, thread): the root starts at 0
    parked: dict[FutureId, tuple[float, FutureId]] = {}  # producer -> its claimant's event
    claim_records: list[ClaimRecord] = []
    # rule -> frequency -> (duration, energy): two lookups, and no key tuple to build
    prices: dict[str, dict[float, tuple[float, float]]] = {rule: {} for rule in _CYCLES}
    clamp_count = transition_count = 0

    while heap:
        now, fid = heapq.heappop(heap)
        thr = threads[fid]
        site = thr.site
        if isinstance(site, NoRedex):
            t_realize[fid] = now
            if fid in parked:  # the claimant arrived no later than this event, the least, so it pops next
                heapq.heappush(heap, parked.pop(fid))
            continue

        start, claimed, own = now, None, segments[fid]
        if isinstance(site, ClaimSite):
            producer = site.target
            claim = _claim(fid, producer, now, thr.freq, t_realize, parked, claim_records, model)
            if claim is None:
                continue
            start, energy = claim
            if energy is not None:
                own.append(Segment(now, start, SEG_WAIT, thr.freq, energy, target=producer))
            claimed = threads[producer].site.value

        hole, event = _advance(thr, threads, strategy, len(threads), claimed)
        rule, level = event.rule, event.level
        by_frequency = prices[rule]
        duration, energy = by_frequency.get(level.value) or _priced(by_frequency, rule, level, model)
        end = start + duration
        own.append(Segment(start, end, SEG_COMPUTE, level, energy, rule, None, hole))  # no target: compute
        if rule != RULE_ADD:
            clamp_count += event.clamps
            switches, taus = _switches(level, event.scaled, model)
            transition_count += switches
            for new_level, energy in taus:
                own.append(Segment(end, end + model.tau, SEG_TRANSITION, new_level, energy))
                end += model.tau
        if isinstance(event, CreateEvent):
            segments[event.child] = []
            heapq.heappush(heap, (end, event.child))
        heapq.heappush(heap, (end, fid))

    timelines = {fid: ThreadTimeline(tuple(segments[fid])) for fid in sorted(threads)}
    per_thread = {fid: tl.energy() for fid, tl in timelines.items()}
    return _report(SimulationReport, root.site.value.value, per_thread, t_realize, parked, claim_records, clamp_count,
                   transition_count, timelines)


def _tapes(report: SimulationReport) -> dict[FutureId, list[tuple[str, FutureId | None]]]:
    """Each thread's rule tape: the rules of its compute segments, in order.

    A Create names its child, ``hole[1].fid``; a Claim its producer, the
    target of the claimant's next claim record; an Add names no thread.
    """
    producers: dict[FutureId, list[FutureId]] = {}
    for record in report.claim_records:
        producers.setdefault(record.claimant, []).append(record.target)
    tapes = {}
    for fid, timeline in report.timelines.items():
        claimed = iter(producers.get(fid, ()))
        tapes[fid] = tape = []
        for seg in timeline.segments:
            rule = seg.rule
            if rule == RULE_ADD:
                tape.append((rule, None))
            elif rule == RULE_CREATE:
                tape.append((rule, seg.hole[1].fid))
            elif rule == RULE_CLAIM:
                tape.append((rule, next(claimed)))
    return tapes


class _Unscaled(ScalingStrategy):
    """Operators that hold every level: a tape holds none, so recording one calls no strategy's ``scale``."""

    def scale(self, op: ScaleOp, level: FrequencyLevel) -> tuple[FrequencyLevel, bool]:
        return level, False


def _record(expr: Expression, ladder: FrequencyLadder, init_index: int) -> tuple[int, dict[FutureId, list]]:
    """Fire each rule of a program once, with no clock: its value and each thread's tape, as ``_tapes`` gives.

    The top of an explicit stack of threads fires until it realizes, and a
    Create pushes its child, so a child ends before its parent resumes: a
    thread claims only futures it created, so each producer has realized.
    """
    unscaled = _Unscaled("unscaled", ladder, 0, 0, 0)
    root = Closure(start_level(expr, ladder, init_index, unscaled), decompose(expr), 0)
    threads, tapes, stack = {0: root}, {0: []}, [root]
    while stack:
        thr = stack[-1]
        site = thr.site
        if isinstance(site, NoRedex):
            stack.pop()
            continue
        other = claimed = None
        if isinstance(site, ClaimSite):
            other = site.target
            claimed = threads[other].site.value
        _, event = _advance(thr, threads, unscaled, len(threads), claimed)
        if isinstance(event, CreateEvent):
            other = event.child
            tapes[other] = []
            stack.append(threads[other])
        tapes[thr.realizes].append((event.rule, other))
    return root.site.value.value, tapes


def reprice(
    report: SimulationReport,
    ladder: FrequencyLadder,
    init_index: int,
    strategy: ScalingStrategy,
    model: CostModel | None = None,
) -> CostReport:
    """Price a simulated run again under another strategy and cost model, without the rule kernel.

    ``report`` may come from ``simulate`` under any strategy, ladder and model. The result equals a
    fresh ``simulate``'s under these arguments, bit for bit, in every field but the timelines.
    """
    return _price(report.final_value, _tapes(report), ladder, init_index, strategy, model)


def _price(final_value: int, tapes: dict[FutureId, list], ladder: FrequencyLadder, init_index: int,
           strategy: ScalingStrategy, model: CostModel | None = None) -> CostReport:
    """Price each thread's rule tape on ``simulate``'s (time, thread) heap: its report, bit for bit, but the timelines.

    A Create names its child with the next fresh id, so threads get the ids
    a fresh ``simulate`` gives them, and levels come from ``strategy.scale``
    in the kernel's order. An Add changes no level, so a heap visit also
    runs the Adds after its rule at one looked-up price: only Creates,
    Claims and realizes pop the heap, at ``simulate``'s keys. No segment,
    event or expression is built.
    """
    model = model or CostModel()
    levels = [ladder_start(ladder, init_index, strategy)]  # thread -> its level
    scale = strategy.scale
    tape_of = [tapes[0]]  # thread -> the tape it replays
    at = [0]  # thread -> its next rule on the tape
    spent = [0]  # thread -> its segments' energy, added in segment order from 0 as ``ThreadTimeline.energy`` does
    ids = {0: 0}  # the tapes' thread id -> this run's
    t_realize: dict[FutureId, float] = {}
    heap: list[tuple[float, FutureId]] = [(0.0, 0)]
    parked: dict[FutureId, tuple[float, FutureId]] = {}
    claim_records: list[ClaimRecord] = []
    prices: dict[str, dict[float, tuple[float, float]]] = {rule: {} for rule in _CYCLES}
    clamp_count = transition_count = 0

    while heap:
        now, fid = heapq.heappop(heap)
        tape, i = tape_of[fid], at[fid]
        if i == len(tape):
            t_realize[fid] = now
            if fid in parked:
                heapq.heappush(heap, parked.pop(fid))
            continue

        rule, other = tape[i]
        level, end = levels[fid], now
        if rule != RULE_ADD:  # a Create or a Claim; a thread may start with Adds
            if rule == RULE_CLAIM:
                claim = _claim(fid, ids[other], now, level, t_realize, parked, claim_records, model)
                if claim is None:
                    continue
                end, energy = claim
                if energy is not None:
                    spent[fid] += energy
            i += 1
            by_frequency = prices[rule]
            duration, energy = by_frequency.get(level.value) or _priced(by_frequency, rule, level, model)
            end += duration
            spent[fid] += energy
            if rule == RULE_CREATE:
                child_level, clamp_up = scale(ScaleOp.UP_CREATE, level)
                new_level, clamp_down = scale(ScaleOp.DOWN, level)
                clamp_count += int(clamp_up) + int(clamp_down)
                scaled = (child_level, new_level)
            else:
                new_level, clamped = scale(ScaleOp.UP_CLAIM, level)
                clamp_count += int(clamped)
                scaled = (new_level,)
            switches, taus = _switches(level, scaled, model)
            transition_count += switches
            for _, energy in taus:
                spent[fid] += energy
                end += model.tau
            levels[fid] = level = new_level
            if rule == RULE_CREATE:
                ids[other] = child = len(tape_of)
                tape_of.append(tapes[other])
                at.append(0)
                levels.append(child_level)
                spent.append(0)
                heapq.heappush(heap, (end, child))
        by_frequency = prices[RULE_ADD]
        duration, energy = by_frequency.get(level.value) or _priced(by_frequency, RULE_ADD, level, model)
        while i < len(tape) and tape[i][0] == RULE_ADD:
            end += duration
            spent[fid] += energy
            i += 1
        at[fid] = i
        heapq.heappush(heap, (end, fid))

    return _report(CostReport, final_value, dict(enumerate(spent)), t_realize, parked, claim_records,
                   clamp_count, transition_count)
