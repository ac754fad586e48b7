"""Virtual-time pricing of a reduction run with a parametric energy model.

A strategy changes only how fast threads run, never which rules they fire,
so a thread's rule tape is fixed by its body's text: ``_compile`` reads
every tape off the program with no kernel. One heap loop, ``_price``,
prices every run over (time, thread) events. Each thread owns a core: a
step takes cycles/frequency and its energy follows the dynamic-power law
P = kappa * f**alpha. A claim on an unfinished producer parks the
claimant's event until the producer realizes, then waits by spinning (at
the waiting thread's level, or at ``idle_power`` if set) or blocking (flat
penalty); realized producers terminate and accrue nothing afterward. Event
order is fully determined by virtual time, ties broken by thread id.

``compare`` prices one program several times, so the loop's cost per
event is what a caller waits for. It reads its cost model once per run,
hands each visit's thread back to the heap and takes the next event in
one ``heappushpop``, and builds its records without a named tuple's
Python ``__new__``; ``scale`` is called exactly as often, and in the same
order, as the rules say.

``compare`` and ``reprice`` price compiled tapes and fire no kernel, and
``_schedule`` replays them under a semantics-mode scheduler, as an untraced
``futsim run --mode semantics`` does. ``simulate`` runs the same heap loop
and fires the kernel's expression half (``engine._fill``) alongside each
step, only to fill the holes of its timelines. ``engine``'s ``run``,
``step`` and ``explore`` fire the whole kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush, heappushpop
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .calculus import Add, Context, Expression, FutureCreate, FutureId, IntLit, RedexSite, decompose, plug, wrap_int
from .engine import (
    RULE_ADD,
    RULE_CLAIM,
    RULE_CREATE,
    DivergenceError,
    EngineError,
    NewestFirst,
    NotEnabledError,
    SchedulerPolicy,
    _fill,
    _levels,
    ladder_start,
)
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


@dataclass(frozen=True)
class CostReport:
    """What ``reprice`` and ``compare`` give, priced from compiled tapes: the fields every report has.

    Its mappings are read-only views (``types.MappingProxyType``) of dicts
    that only ``_price`` held, so a caller cannot change a report through
    them.
    """

    final_value: int
    makespan: float
    total_energy: float
    per_thread_energy: Mapping[FutureId, float]
    edp: float
    ed2p: float
    claim_records: tuple[ClaimRecord, ...]
    clamp_count: int
    transition_count: int


@dataclass(frozen=True)
class SimulationReport(CostReport):
    """What ``simulate`` gives: a ``CostReport`` plus each thread's timeline."""

    timelines: Mapping[FutureId, ThreadTimeline]


def _priced(by_frequency: dict[float, tuple[float, float]], rule: str, level: FrequencyLevel,
            model: CostModel) -> tuple[float, float]:
    """Price a step of ``rule`` at ``level``, the first at its frequency in a run: (duration, energy), kept for the rest.

    A step's price depends on its level only through the frequency, so a run
    keeps one table per rule, frequency -> price.
    """
    duration = step_duration(rule, level, model)
    price = by_frequency[level.value] = (duration, dynamic_power(level, model) * duration)
    return price


def simulate(
    expr: Expression,
    ladder: FrequencyLadder,
    init_index: int,
    strategy: ScalingStrategy,
    model: CostModel | None = None,
) -> SimulationReport:
    """Run a program on virtual time, one core per thread, under the cost model.

    Its rule tapes are compiled from its text (``_compile``) and priced by
    ``_price``'s heap loop, while the kernel's expression half fires each
    step alongside to fill its compute segment's hole. A compute segment
    runs at the level its rule fired at; each level the rule's operators
    changed then costs tau on this thread's timeline. Every claim is priced
    where it fires: its record, then its wait segment if the producer
    realized after it arrived.
    """
    final_value, tapes = _compile(expr)
    return _price(final_value, tapes, ladder, init_index, strategy, model, decompose(expr))


_ADD_STEP = (RULE_ADD, None)
# Builds a named tuple from a tuple of all its fields: its class's own
# ``__new__`` binds its arguments in Python first, at twice the cost.
_new_tuple = tuple.__new__


def _compile(expr: Expression) -> tuple[int, dict[FutureId, list[tuple[str, FutureId | None]]]]:
    """Each thread's rule tape, read off the program text with no kernel, and the program's wrapped literal sum.

    Redex search branches on node classes only, so a thread's tape is fixed
    by its body: first its Creates and the Adds whose subtree holds no
    future, then its Claims and the Adds above them, each part in post-order
    from the left. A Create names its child, a Claim its producer, and an
    Add no thread. One post-order walk over an explicit stack fills both
    parts: an Add's subtree holds a future exactly when the second part grew
    while it was walked. A Create's body is walked next, as the child's, so
    ids come depth first; ``_price`` renames them into heap order.
    """
    early: list[list] = [[]]  # thread -> its Creates and the Adds before its first Claim
    late: list[list] = [[]]  # thread -> its Claims and the Adds among them
    total = 0
    stack: list = [(expr, 0)]  # (node, thread) to walk, or (length of ``late``, thread) to close an Add
    while stack:
        node, fid = stack.pop()
        kind = node.__class__
        if kind is int:
            (early[fid] if len(late[fid]) == node else late[fid]).append(_ADD_STEP)
        elif kind is Add:
            stack += ((len(late[fid]), fid), (node.right, fid), (node.left, fid))
        elif kind is IntLit:
            total += node.value
        elif kind is FutureCreate:
            child = len(early)
            early[fid].append((RULE_CREATE, child))
            late[fid].append((RULE_CLAIM, child))
            early.append([])
            late.append([])
            stack.append((node.body, child))
        else:
            raise ValueError("programs must not contain future references")
    return wrap_int(total), {fid: first + rest for fid, (first, rest) in enumerate(zip(early, late))}


def _tape_nodes(tapes: dict[FutureId, list]) -> int:
    """The program's node count, read off its tapes: ``calculus.node_count`` with no walk.

    A tape holds an Add per Add node and a Create and a Claim per future,
    and a program has one literal more than it has Adds.
    """
    creates = len(tapes) - 1
    adds = sum(map(len, tapes.values())) - 2 * creates
    return 2 * adds + 1 + creates


def _schedule(final_value: int, tapes: dict[FutureId, list], ladder: FrequencyLadder, init_index: int,
              strategy: ScalingStrategy, policy: SchedulerPolicy | None = None,
              step_limit: int | None = None) -> tuple[int, list[str], FrequencyLevel, int]:
    """Replay compiled tapes as ``engine.run`` fires them: (final value, rules, the root's final level, clamps).

    Each step checks the limit, asks the policy's session to pick from the
    enabled threads, and advances the picked thread one tape entry; a
    Create or a Claim sets levels by ``_levels``, as ``_advance`` does, so
    ``scale`` is called as ``run`` calls it. A Create's child gets the next
    fresh id, as in ``run``. A thread whose next entry claims a producer
    that has not realized parks on it; a thread at the end of its tape has
    realized and releases the claimant parked on it, and a child whose tape
    is empty realizes at birth. No tape starts with a Claim, since a
    thread's Claims follow its Creates. The default limit is ``run``'s, 30
    steps per program node.
    """
    if step_limit is None:
        step_limit = 30 * _tape_nodes(tapes)
    pick = (policy or NewestFirst()).session()
    levels = [ladder_start(ladder, init_index, strategy)]  # thread -> its level
    tape_of = [tapes[0]]  # thread -> its tape
    at = [0]  # thread -> its next entry; a thread has realized once it has run its whole tape
    ids = {0: 0}  # the tapes' thread id -> this run's
    enabled = {0} if tapes[0] else set()
    view = None  # ``enabled`` as the frozenset the picker takes, built again only after ``enabled`` changes
    parked: dict[FutureId, FutureId] = {}  # producer -> the claimant waiting on it
    rules: list[str] = []
    clamps = 0
    while enabled:
        if len(rules) >= step_limit:
            raise DivergenceError(f"exceeded {step_limit} steps")
        if view is None:
            view = frozenset(enabled)
        thread = pick(view)
        if thread not in enabled:
            raise NotEnabledError(f"fv{thread} has no enabled reduction")
        tape, i = tape_of[thread], at[thread]
        rule, other = tape[i]
        rules.append(rule)
        if rule != RULE_ADD:
            scaled, n = _levels(rule, levels[thread], strategy)
            clamps += n
            levels[thread] = scaled[-1]
            if rule == RULE_CREATE:
                ids[other] = child = len(tape_of)
                tape_of.append(tapes[other])
                at.append(0)
                levels.append(scaled[0])
                if tapes[other]:
                    enabled.add(child)
                    view = None
        at[thread] = i = i + 1
        if i == len(tape):  # realized
            enabled.discard(thread)
            if thread in parked:
                enabled.add(parked.pop(thread))
            view = None
        elif tape[i][0] == RULE_CLAIM:
            producer = ids[tape[i][1]]
            if at[producer] < len(tape_of[producer]):
                enabled.discard(thread)
                parked[producer] = thread
                view = None
    if at[0] < len(tape_of[0]):
        raise EngineError("no enabled thread in a non-terminal configuration")
    return final_value, rules, levels[0], clamps


def reprice(
    expr: Expression,
    ladder: FrequencyLadder,
    init_index: int,
    strategy: ScalingStrategy,
    model: CostModel | None = None,
) -> CostReport:
    """Price a program from its compiled tapes (``_compile``), without the rule kernel.

    It takes ``simulate``'s arguments, and its result equals ``simulate``'s, bit for bit, in every field but the
    timelines.
    """
    return _price(*_compile(expr), ladder, init_index, strategy, model)


def _price(final_value: int, tapes: dict[FutureId, list], ladder: FrequencyLadder, init_index: int,
           strategy: ScalingStrategy, model: CostModel | None = None,
           root: RedexSite | None = None) -> CostReport:
    """Price each thread's rule tape on a (time, thread) heap: ``simulate``'s report, bit for bit.

    A Create names its child with the heap's next id, the id ``simulate``
    gives it, and levels come from ``_levels`` in the kernel's order. An Add
    changes no level, so a heap visit also runs the Adds after its rule at
    one looked-up price: only Creates, Claims and realizes pop the heap.
    The event being run is held outside the heap, the root's start first,
    and the visit ends with one ``heappushpop`` that gives back the thread's
    next event unless an earlier one waits. A realize hands its parked
    claimant to the same call, which returns it at once, since it arrived
    no later than the realize and so before every event on the heap. A
    claim waits (Case I) exactly when ``ready > now``, and then
    ``ready - now`` is positive, since floats underflow gradually.
    Without ``root`` the result is a ``CostReport``, and no segment or
    expression is built. With ``root``, the program's redex site, the
    kernel's expression half (``_fill``) fires each step alongside to fill
    its compute segment's hole, and the result is a ``SimulationReport``
    whose value is the root's realized site's.
    """
    model = model or CostModel()
    spin, tau, switch_energy = model.wait_policy == WAIT_SPIN, model.tau, model.transition_energy  # read once
    levels = [ladder_start(ladder, init_index, strategy)]  # thread -> its level
    tape_of = [tapes[0]]  # thread -> the tape it replays
    at = [0]  # thread -> its next rule on the tape
    spent = [0]  # thread -> its segments' energy, added in segment order from 0 as ``ThreadTimeline.energy`` does
    ids = {0: 0}  # the tapes' thread id -> this run's
    timed = root is not None
    sites: list[RedexSite] = [root]  # thread -> its redex site, when timed
    segments: list[list[Segment]] = [[]]  # thread -> its segments, when timed
    t_realize: dict[FutureId, float] = {}  # realized threads only
    heap: list[tuple[float, FutureId]] = []  # (time, thread): every pending event but the one being run
    parked: dict[FutureId, tuple[float, FutureId]] = {}  # producer -> its claimant's event
    claim_records: list[ClaimRecord] = []
    # rule -> frequency -> (duration, energy): two lookups, and no key tuple to build
    prices: dict[str, dict[float, tuple[float, float]]] = {rule: {} for rule in _CYCLES}
    add_prices = prices[RULE_ADD]
    clamp_count = transition_count = 0

    now, fid = 0.0, 0  # the root's start, the first event
    while True:
        tape, i = tape_of[fid], at[fid]
        steps = len(tape)
        if i == steps:
            t_realize[fid] = now
            if fid in parked:  # the claimant arrived no later than this event, the least, so it comes straight back
                now, fid = heappushpop(heap, parked.pop(fid))
            elif heap:
                now, fid = heappop(heap)
            else:
                break
            continue

        rule, other = tape[i]
        level, end, own = levels[fid], now, spent[fid]
        if rule != RULE_ADD:  # a Create or a Claim; a thread may start with Adds
            child = None
            if rule == RULE_CLAIM:
                producer = ids[other]
                ready = t_realize.get(producer)
                if ready is None:  # park the claim until its producer's realize pushes it back
                    if producer in parked:
                        raise EngineError(f"fv{producer} claimed twice")
                    parked[producer] = (now, fid)
                    if not heap:
                        break
                    now, fid = heappop(heap)
                    continue
                if ready > now:  # Case I: spin to the realize, at ``level`` or ``idle_power``, or block once
                    wait = ready - now
                    claim_records.append(_new_tuple(ClaimRecord, (fid, producer, now, ready, wait, CASE_I)))
                    if spin:
                        end, energy = ready, spin_power(level, model) * wait
                    else:
                        end, energy = ready + model.block_time, model.block_energy
                    own += energy
                    if timed:
                        segments[fid].append(_new_tuple(Segment, (now, end, SEG_WAIT, level, energy, None, producer,
                                                                   None)))
                else:
                    claim_records.append(_new_tuple(ClaimRecord, (fid, producer, now, ready, 0.0, CASE_II)))
            else:
                ids[other] = child = len(tape_of)
            i += 1
            by_frequency = prices[rule]
            duration, energy = by_frequency.get(level.value) or _priced(by_frequency, rule, level, model)
            own += energy
            start, end = end, end + duration  # a segment's start is its predecessor's end, one float for both
            if timed:
                site = sites[fid]
                claimed = sites[producer].value if rule == RULE_CLAIM else None
                hole, sites[fid] = _fill(site, fid, child, claimed)
                segments[fid].append(_new_tuple(Segment, (start, end, SEG_COMPUTE, level, energy, rule, None, hole)))
            scaled, clamps = _levels(rule, level, strategy)
            clamp_count += clamps
            for new_level in scaled:  # each new level is a switch, which takes tau when tau > 0
                if new_level.index != level.index:
                    transition_count += 1
                    if tau > 0:  # and costs kappa * f_new**alpha * tau with ``transition_energy``
                        energy = dynamic_power(new_level, model) * tau if switch_energy else 0.0
                        own += energy
                        start, end = end, end + tau
                        if timed:
                            segments[fid].append(_new_tuple(Segment, (start, end, SEG_TRANSITION, new_level, energy,
                                                                       None, None, None)))
            levels[fid] = level = scaled[-1]
            if child is not None:
                tape_of.append(tapes[other])
                at.append(0)
                levels.append(scaled[0])
                spent.append(0)
                if timed:
                    sites.append(decompose(site.body))
                    segments.append([])
                heappush(heap, (end, child))
        duration, energy = add_prices.get(level.value) or _priced(add_prices, RULE_ADD, level, model)
        while i < steps and tape[i][0] == RULE_ADD:
            start, end = end, end + duration
            if timed:
                hole, sites[fid] = _fill(sites[fid], fid, None)
                segments[fid].append(_new_tuple(Segment, (start, end, SEG_COMPUTE, level, energy, RULE_ADD, None,
                                                           hole)))
            own += energy
            i += 1
        at[fid], spent[fid] = i, own
        now, fid = heappushpop(heap, (end, fid))  # the next event: this thread's, unless one is earlier

    if 0 not in t_realize:
        raise EngineError("simulation stalled before the root realized a value")
    if parked:
        raise EngineError("simulation ended with parked claimants")
    makespan, total = t_realize[0], _left_sum(spent)  # the makespan is the root's realize
    costs = (makespan, total, MappingProxyType(dict(enumerate(spent))), total * makespan, total * makespan * makespan,
             tuple(claim_records), clamp_count, transition_count)
    if not timed:
        return CostReport(final_value, *costs)
    timelines = MappingProxyType({fid: ThreadTimeline(tuple(own)) for fid, own in enumerate(segments)})
    return SimulationReport(sites[0].value.value, *costs, timelines)
