"""Virtual-time execution of a reduction run with a parametric energy model.

Threads are ``Closure`` records, stepped in place through the rule kernel
(``engine._advance``), so no expression is built: a thread is realized once
its site is ``NoRedex``, which holds its value. This module keeps the threads'
segments and realize times, and prices each rule on virtual time. Each thread
owns a core: a step takes cycles/frequency and its energy follows the
dynamic-power law P = kappa * f**alpha. Claims on unfinished producers wait by
spinning (at the waiting thread's level, or at ``idle_power`` if set) or
blocking (flat penalty); realized producers terminate and accrue nothing
afterward. Event order is fully determined by virtual time, ties broken by
thread id.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

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
        return {RULE_CREATE: self.create_cycles, RULE_ADD: self.add_cycles, RULE_CLAIM: self.claim_cycles}[rule]


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


@dataclass(frozen=True)
class Segment:
    start: float
    end: float
    kind: str  # compute | wait | transition
    level: FrequencyLevel
    energy: float
    rule: str | None = None  # compute only
    target: FutureId | None = None  # wait only
    # Compute only: the fired site's context and the atom the rule put in its
    # hole, so the step's tree is built only when someone asks for ``expr``.
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


@dataclass(frozen=True)
class ClaimRecord:
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


class _Simulation:
    def __init__(self, strategy: ScalingStrategy, model: CostModel):
        self.strategy = strategy
        self.model = model
        self.threads: dict[FutureId, Closure] = {}  # every thread ever created: the next fresh id is its size
        self.segments: dict[FutureId, list[Segment]] = defaultdict(list)
        self.t_realize: dict[FutureId, float] = {}  # realized threads only
        self.heap: list[tuple[float, FutureId]] = [(0.0, 0)]  # (time, thread): the root starts at 0
        self.parked: dict[FutureId, tuple[FutureId, float]] = {}  # producer -> (claimant, t_arrive)
        self.claim_records: list[ClaimRecord] = []
        self.clamp_count = 0
        self.transition_count = 0

    def fire_rule(self, thr: Closure, start: float, claimed: Expression | None = None) -> None:
        """Fire the thread's rule through the kernel at ``start``, price it, and schedule what it leaves runnable.

        The compute segment runs at the level the rule fired at; each level
        the rule's operators changed then costs tau on this thread's timeline.
        """
        hole, event = _advance(thr, self.threads, self.strategy, len(self.threads), claimed)
        model, rule, level = self.model, event.rule, event.level
        end = start + step_duration(rule, level, model)
        energy = step_energy(rule, level, model)
        segments = self.segments[thr.realizes]
        segments.append(Segment(start, end, SEG_COMPUTE, level, energy, rule=rule, hole=hole))
        self.clamp_count += event.clamps
        for new_level in event.scaled:
            if new_level.index != level.index:
                self.transition_count += 1
                if model.tau > 0:
                    energy = dynamic_power(new_level, model) * model.tau if model.transition_energy else 0.0
                    segments.append(Segment(end, end + model.tau, SEG_TRANSITION, new_level, energy))
                    end += model.tau
        if isinstance(event, CreateEvent):
            heapq.heappush(self.heap, (end, event.child))
        heapq.heappush(self.heap, (end, thr.realizes))

    def fire_claim(self, claimant: Closure, t_arrive: float) -> None:
        """Fire the claimant's claim on its realized producer, after a wait if it arrived first."""
        producer = claimant.site.target
        t_realize = self.t_realize[producer]
        wait = max(0.0, t_realize - t_arrive)
        case_tag = CASE_I if wait > 0 else CASE_II
        self.claim_records.append(ClaimRecord(claimant.realizes, producer, t_arrive, t_realize, wait, case_tag))
        start = t_arrive
        if wait > 0:
            if self.model.wait_policy == WAIT_SPIN:
                start, energy = t_realize, spin_power(claimant.freq, self.model) * wait
            else:  # one flat context-switch penalty per block/unblock pair
                start, energy = t_realize + self.model.block_time, self.model.block_energy
            self.segments[claimant.realizes].append(Segment(t_arrive, start, SEG_WAIT, claimant.freq, energy, target=producer))
        self.fire_rule(claimant, start, self.threads[producer].site.value)

    def run(self, expr: Expression, init_level: FrequencyLevel) -> SimulationReport:
        root = self.threads[0] = Closure(init_level, decompose(expr), 0)

        while self.heap:
            now, fid = heapq.heappop(self.heap)
            thr = self.threads[fid]
            site = thr.site

            if isinstance(site, NoRedex):
                self.t_realize[fid] = now
                if fid in self.parked:
                    claimant_id, t_arrive = self.parked.pop(fid)
                    self.fire_claim(self.threads[claimant_id], t_arrive)
                continue

            if isinstance(site, ClaimSite):
                if site.target in self.t_realize:
                    self.fire_claim(thr, now)
                else:
                    if site.target in self.parked:
                        raise EngineError(f"fv{site.target} claimed twice")
                    self.parked[site.target] = (fid, now)
                continue

            self.fire_rule(thr, now)

        if 0 not in self.t_realize:
            raise EngineError("simulation stalled before the root realized a value")
        if self.parked:
            raise EngineError("simulation ended with parked claimants")
        makespan = self.t_realize[0]

        timelines = {fid: ThreadTimeline(tuple(self.segments[fid])) for fid in sorted(self.threads)}
        per_thread = {fid: tl.energy() for fid, tl in timelines.items()}
        total = _left_sum(per_thread.values())
        return SimulationReport(
            final_value=root.site.value.value,
            makespan=makespan,
            total_energy=total,
            per_thread_energy=per_thread,
            edp=total * makespan,
            ed2p=total * makespan * makespan,
            claim_records=tuple(self.claim_records),
            clamp_count=self.clamp_count,
            transition_count=self.transition_count,
            timelines=timelines,
        )


def simulate(
    expr: Expression,
    ladder: FrequencyLadder,
    init_index: int,
    strategy: ScalingStrategy,
    model: CostModel | None = None,
) -> SimulationReport:
    """Run a program on virtual time, one core per thread, under the cost model."""
    sim = _Simulation(strategy, model or CostModel())
    return sim.run(expr, start_level(expr, ladder, init_index, strategy))
