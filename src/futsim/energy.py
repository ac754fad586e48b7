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
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .calculus import ClaimSite, Closure, Context, Expression, FutureId, NoRedex, decompose, plug
from .engine import RULE_ADD, RULE_CLAIM, RULE_CREATE, CreateEvent, EngineError, _advance, start_level
from .scaling import FrequencyLadder, FrequencyLevel, ScalingStrategy

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
    prices: dict[tuple[str, float], tuple[float, float]] = {}  # (rule, frequency) -> (duration, energy)
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
            if producer not in t_realize:
                if producer in parked:
                    raise EngineError(f"fv{producer} claimed twice")
                parked[producer] = (now, fid)
                continue
            ready = t_realize[producer]
            wait = max(0.0, ready - now)
            claim_records.append(ClaimRecord(fid, producer, now, ready, wait, CASE_I if wait > 0 else CASE_II))
            if wait > 0:
                if model.wait_policy == WAIT_SPIN:
                    start, energy = ready, spin_power(thr.freq, model) * wait
                else:  # one flat context-switch penalty per block/unblock pair
                    start, energy = ready + model.block_time, model.block_energy
                own.append(Segment(now, start, SEG_WAIT, thr.freq, energy, target=producer))
            claimed = threads[producer].site.value

        hole, event = _advance(thr, threads, strategy, len(threads), claimed)
        rule, level = event.rule, event.level
        key = (rule, level.value)  # a step's price depends on its level only through the frequency
        price = prices.get(key)
        if price is None:
            duration = step_duration(rule, level, model)
            price = prices[key] = (duration, dynamic_power(level, model) * duration)
        duration, energy = price
        end = start + duration
        own.append(Segment(start, end, SEG_COMPUTE, level, energy, rule, None, hole))  # no target: compute
        clamp_count += event.clamps
        for new_level in event.scaled:
            if new_level.index != level.index:
                transition_count += 1
                if model.tau > 0:
                    energy = dynamic_power(new_level, model) * model.tau if model.transition_energy else 0.0
                    own.append(Segment(end, end + model.tau, SEG_TRANSITION, new_level, energy))
                    end += model.tau
        if isinstance(event, CreateEvent):
            segments[event.child] = []
            heapq.heappush(heap, (end, event.child))
        heapq.heappush(heap, (end, fid))

    if 0 not in t_realize:
        raise EngineError("simulation stalled before the root realized a value")
    if parked:
        raise EngineError("simulation ended with parked claimants")
    makespan = t_realize[0]

    timelines = {fid: ThreadTimeline(tuple(segments[fid])) for fid in sorted(threads)}
    per_thread = {fid: tl.energy() for fid, tl in timelines.items()}
    total = _left_sum(per_thread.values())
    return SimulationReport(
        final_value=root.site.value.value,
        makespan=makespan,
        total_energy=total,
        per_thread_energy=per_thread,
        edp=total * makespan,
        ed2p=total * makespan * makespan,
        claim_records=tuple(claim_records),
        clamp_count=clamp_count,
        transition_count=transition_count,
        timelines=timelines,
    )
