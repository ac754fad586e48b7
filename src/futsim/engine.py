"""The rule kernel (Create, Add, Claim), configurations, schedulers, and interleaving exploration."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Union

from .calculus import (
    Add,
    ArithRedex,
    ClaimSite,
    Closure,
    Configuration,
    Context,
    CreateRedex,
    Expression,
    FutureCreate,
    FutureId,
    FutureRef,
    IntLit,
    NoRedex,
    RedexSite,
    _refocus,
    contains_future_ref,
    decompose,
    initial_configuration,
    is_terminal,
    node_count,
    plug,
    wrap_int,
)
from .scaling import FrequencyLadder, FrequencyLevel, ScaleOp, ScalingStrategy

RULE_CREATE = "Create"
RULE_ADD = "Add"
RULE_CLAIM = "Claim"


class EngineError(Exception):
    """Internal invariant broken while reducing."""


class NotEnabledError(EngineError):
    """A step was requested on a thread that cannot currently reduce."""


class DivergenceError(EngineError):
    """The step limit was exceeded (guards engine bugs; the calculus terminates)."""


class ExplorationLimitError(EngineError):
    """Interleaving exploration hit its state budget."""


@dataclass(frozen=True)
class CreateEvent:
    thread: FutureId
    level: FrequencyLevel  # level the create executed at, before scaling
    child: FutureId
    parent_level: FrequencyLevel
    child_level: FrequencyLevel
    clamps: int

    rule = RULE_CREATE

    @property
    def scaled(self) -> tuple[FrequencyLevel, ...]:
        """The levels the rule's operators set, in the order they apply."""
        return self.child_level, self.parent_level


@dataclass(frozen=True)
class ClaimEvent:
    thread: FutureId
    level: FrequencyLevel  # level the claim executed at, before scaling
    claimed: FutureId
    value: Expression
    claimant_level: FrequencyLevel
    clamps: int

    rule = RULE_CLAIM

    @property
    def scaled(self) -> tuple[FrequencyLevel, ...]:
        return (self.claimant_level,)


@dataclass(frozen=True)
class AddEvent:
    thread: FutureId
    level: FrequencyLevel
    left: int
    right: int
    total: int

    rule = RULE_ADD
    clamps = 0
    scaled = ()


ReductionEvent = Union[CreateEvent, ClaimEvent, AddEvent]


def _site(closure: Closure) -> RedexSite:
    """The closure's redex site: searched on first use, then kept on the closure."""
    site = closure.site
    if site is None:
        site = decompose(closure.expr)
        object.__setattr__(closure, "site", site)
    return site


def _ready(site: RedexSite, site_of: Callable[[FutureId], RedexSite]) -> bool:
    """The readiness rule: a redex fires at once, a claim once its producer's site is ``NoRedex``, a realized integer."""
    if isinstance(site, ClaimSite):
        try:
            return isinstance(site_of(site.target), NoRedex)
        except KeyError:
            raise EngineError(f"fv{site.target} claimed but never produced") from None
    return isinstance(site, (ArithRedex, CreateRedex))


def enabled_threads(config: Configuration) -> frozenset[FutureId]:
    """Threads that can take a step right now; realized non-root closures sit idle until claimed."""
    sites = {c.realizes: _site(c) for c in config.closures}
    return frozenset(fid for fid, site in sites.items() if _ready(site, sites.__getitem__))


def step(config: Configuration, thread: FutureId, strategy: ScalingStrategy) -> tuple[Configuration, ReductionEvent]:
    """Fire the one rule the named thread can take; pure, returns a new configuration."""
    if thread not in enabled_threads(config):
        raise NotEnabledError(f"fv{thread} has no enabled reduction")
    return _fire(config, next(i for i, c in enumerate(config.closures) if c.realizes == thread), strategy)


Hole = tuple[Context, Expression]


def _rule(site: RedexSite, level: FrequencyLevel, thread: FutureId, strategy: ScalingStrategy, fresh: FutureId,
          claimed: Expression | None = None) -> tuple[Hole, RedexSite, FrequencyLevel, ReductionEvent]:
    """The rule kernel: fire the rule at a thread's redex site, running at ``level``.

    A Create names its child ``fresh``; a Claim fills in ``claimed``, the
    value its producer realized. Returns the filled hole, ``(site.context,
    filler)``, whose ``plug`` is the thread's expression after the rule; that
    expression's redex site; the thread's level after scaling; and the event.
    The caller adds a Create's child (at ``event.child_level``, running
    ``site.body``) and drops a Claim's producer.
    """
    if isinstance(site, ArithRedex):
        total = wrap_int(site.left + site.right)
        filler: Expression = IntLit(total)
        event: ReductionEvent = AddEvent(thread, level, site.left, site.right, total)
    elif isinstance(site, CreateRedex):
        child_level, clamp_up = strategy.scale(ScaleOp.UP_CREATE, level)
        parent_level, clamp_down = strategy.scale(ScaleOp.DOWN, level)
        filler = FutureRef(fresh)
        event = CreateEvent(thread, level, fresh, parent_level, child_level, int(clamp_up) + int(clamp_down))
        level = parent_level
    elif isinstance(site, ClaimSite):
        if claimed is None:
            raise NotEnabledError(f"fv{thread} claims fv{site.target} but no claimed value was given")
        new_level, clamped = strategy.scale(ScaleOp.UP_CLAIM, level)
        filler = claimed
        event = ClaimEvent(thread, level, site.target, claimed, new_level, int(clamped))
        level = new_level
    else:
        raise NotEnabledError(f"fv{thread} holds a value")
    return (site.context, filler), _refocus(site, filler), level, event


def _fire(config: Configuration, index: int, strategy: ScalingStrategy) -> tuple[Configuration, ReductionEvent]:
    """Fire the rule of the enabled closure at ``index`` through the kernel, unchecked."""
    closure = config.closures[index]
    site = _site(closure)
    thread = closure.realizes
    claimed = config.closure_for(site.target).expr if isinstance(site, ClaimSite) else None
    hole, next_site, level, event = _rule(site, closure.freq, thread, strategy, config.next_fresh, claimed)
    updated = Closure(level, plug(*hole), thread)
    object.__setattr__(updated, "site", next_site)
    closures = config.closures[:index] + (updated,) + config.closures[index + 1 :]
    fresh = config.next_fresh
    if isinstance(event, CreateEvent):
        closures = (Closure(event.child_level, site.body, event.child),) + closures
        fresh += 1
    elif isinstance(event, ClaimEvent):
        closures = tuple(c for c in closures if c.realizes != event.claimed)
    return Configuration(closures, fresh, config.root), event


class _Thread:
    """A thread ``run`` and ``simulate`` step in place: its level and next site; ``NoRedex`` holds its value."""

    __slots__ = ("fid", "level", "site")

    def __init__(self, fid: FutureId, expr: Expression, level: FrequencyLevel):
        self.fid = fid
        self.level = level
        self.site = decompose(expr)


def _advance(thr: _Thread, threads: dict[FutureId, _Thread], strategy: ScalingStrategy, fresh: FutureId,
             claimed: Expression | None = None) -> tuple[Hole, ReductionEvent]:
    """Fire the thread's rule through the kernel in place; a Create's child joins ``threads`` as ``fresh``."""
    site = thr.site
    hole, thr.site, thr.level, event = _rule(site, thr.level, thr.fid, strategy, fresh, claimed)
    if isinstance(event, CreateEvent):
        threads[fresh] = _Thread(fresh, site.body, event.child_level)
    return hole, event


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------

Picker = Callable[[frozenset[FutureId]], FutureId]


class NewestFirst:
    """Most recently created runnable thread first, the highest id: fresh children run eagerly."""

    name = "newest-first"

    def session(self) -> Picker:
        return max


class RoundRobin:
    """Cycle through thread ids ascending, resuming after the last one stepped."""

    name = "round-robin"

    def session(self) -> Picker:
        last = -1

        def pick(enabled: frozenset[FutureId]) -> FutureId:
            nonlocal last
            ids = sorted(enabled)
            choice = next((i for i in ids if i > last), ids[0])
            last = choice
            return choice

        return pick


class SeededRandom:
    """Uniform choice among enabled threads; equal seeds give identical runs."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def session(self) -> Picker:
        rng = random.Random(self.seed)

        def pick(enabled: frozenset[FutureId]) -> FutureId:
            return rng.choice(sorted(enabled))

        return pick


SchedulerPolicy = Union[NewestFirst, RoundRobin, SeededRandom]


@dataclass(frozen=True)
class RunResult:
    final_value: int
    events: tuple[ReductionEvent, ...]
    final_level: FrequencyLevel
    step_count: int
    clamp_count: int


def start_level(expr: Expression, ladder: FrequencyLadder, init_index: int, strategy: ScalingStrategy) -> FrequencyLevel:
    """Check a program and its strategy at the start of a run; return the root's starting level."""
    if contains_future_ref(expr):
        raise ValueError("programs must not contain future references")
    if strategy.ladder != ladder:
        raise ValueError("strategy was built over a different ladder")
    return ladder.level(init_index)


def run(
    expr: Expression,
    ladder: FrequencyLadder,
    init_index: int,
    strategy: ScalingStrategy,
    policy: SchedulerPolicy | None = None,
    step_limit: int | None = None,
) -> RunResult:
    """Reduce a program to a single integer-holding root thread."""
    root = _Thread(0, expr, start_level(expr, ladder, init_index, strategy))
    threads = {0: root}  # live threads: a claimed producer leaves
    fresh = 1
    if step_limit is None:
        step_limit = 10 * 3 * node_count(expr)
    pick = (policy or NewestFirst()).session()
    site_of = lambda fid: threads[fid].site  # a producer's site; KeyError once it is claimed
    events: list[ReductionEvent] = []
    clamps = 0
    while True:
        enabled = frozenset(fid for fid, thr in threads.items() if _ready(thr.site, site_of))
        if not enabled:
            if len(threads) == 1 and isinstance(root.site, NoRedex):
                break
            raise EngineError("no enabled thread in a non-terminal configuration")
        if len(events) >= step_limit:
            raise DivergenceError(f"exceeded {step_limit} steps")
        thread = pick(enabled)
        if thread not in enabled:
            raise NotEnabledError(f"fv{thread} has no enabled reduction")
        thr = threads[thread]
        claimed = threads.pop(thr.site.target).site.value if isinstance(thr.site, ClaimSite) else None
        _, event = _advance(thr, threads, strategy, fresh, claimed)
        if isinstance(event, CreateEvent):
            fresh += 1
        events.append(event)
        clamps += event.clamps

    return RunResult(
        final_value=root.site.value.value,
        events=tuple(events),
        final_level=root.level,
        step_count=len(events),
        clamp_count=clamps,
    )


# ---------------------------------------------------------------------------
# Exhaustive interleaving exploration
# ---------------------------------------------------------------------------

# A shape memo maps id(expr) -> (expr, shape, referenced ids). The entry holds
# the expression, so the id cannot be reused while the entry lives.
ShapeMemo = dict[int, tuple[Expression, str, tuple[FutureId, ...]]]


def _shape(expr: Expression) -> tuple[str, tuple[FutureId, ...]]:
    """The expression's shape, with every future reference blanked, and the blanked ids in order.

    The shape is a prefix code: ``+`` (Add), ``f`` (FutureCreate), ``_``
    (FutureRef) and ``<int>,`` (IntLit), so equal shapes mean equal
    expressions up to the referenced ids. As a string it hashes once.
    """
    parts: list[str] = []
    refs: list[FutureId] = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Add):
            parts.append("+")
            stack.append(e.right)
            stack.append(e.left)
        elif isinstance(e, IntLit):
            parts.append(f"{e.value},")
        elif isinstance(e, FutureRef):
            parts.append("_")
            refs.append(e.fid)
        else:
            parts.append("f")
            stack.append(e.body)
    return "".join(parts), tuple(refs)


def canonical_key(config: Configuration, shapes: ShapeMemo | None = None) -> tuple:
    """A configuration key invariant under closure order and fresh-id choice.

    Walks the reference tree from the root in pre-order, left to right, and
    emits each thread's level index and shape: a flat tuple of length
    2 × threads. Every non-root future is referenced exactly once, so the
    shapes' blanks say where each subtree hangs and the key is exact up to
    renaming future ids. ``shapes`` memoises shapes by expression identity
    across calls; closures a rule did not touch share their expressions with
    the parent configuration, so only new expressions are walked.
    """
    if shapes is None:
        shapes = {}
    producers = {c.realizes: c for c in config.closures}
    key: list = []
    stack = [config.root]
    while stack:
        closure = producers[stack.pop()]
        entry = shapes.get(id(closure.expr))
        if entry is None:
            entry = shapes[id(closure.expr)] = (closure.expr, *_shape(closure.expr))
        key.append(closure.freq.index)
        key.append(entry[1])
        stack.extend(reversed(entry[2]))
    if len(key) != 2 * len(config.closures):
        raise EngineError("configuration has closures unreachable from the root")
    return tuple(key)


def _explore(config: Configuration, strategy: ScalingStrategy, state_limit: int) -> tuple[set[tuple[int, FrequencyLevel]], int]:
    if state_limit < 1:  # the initial state counts against the budget too
        raise ExplorationLimitError(f"more than {state_limit} states")
    shapes: ShapeMemo = {}
    seen = {canonical_key(config, shapes)}
    frontier = [config]
    outcomes: set[tuple[int, FrequencyLevel]] = set()
    while frontier:
        next_frontier: list[Configuration] = []
        for cfg in frontier:
            enabled = enabled_threads(cfg)
            if not enabled:
                if not is_terminal(cfg):
                    raise EngineError("stuck non-terminal state during exploration")
                root = cfg.closures[0]
                assert isinstance(root.expr, IntLit)
                outcomes.add((root.expr.value, root.freq))
                continue
            positions = {c.realizes: i for i, c in enumerate(cfg.closures)}
            for thread in sorted(enabled):
                stepped, _ = _fire(cfg, positions[thread], strategy)
                memo_size = len(shapes)
                key = canonical_key(stepped, shapes)
                if key in seen:
                    # Nothing keeps this successor: forget the shapes its key added
                    # (a dict pops its newest entries first).
                    while len(shapes) > memo_size:
                        shapes.popitem()
                    continue
                if len(seen) >= state_limit:
                    raise ExplorationLimitError(f"more than {state_limit} states")
                seen.add(key)
                next_frontier.append(stepped)
        frontier = next_frontier
    return outcomes, len(seen)


def explore_with_stats(
    expr: Expression,
    ladder: FrequencyLadder,
    init_index: int,
    strategy: ScalingStrategy,
    state_limit: int = 100_000,
) -> tuple[set[tuple[int, FrequencyLevel]], int]:
    """All distinct terminal (value, root level) pairs over every interleaving, and the number of states seen."""
    config = initial_configuration(expr, start_level(expr, ladder, init_index, strategy))
    return _explore(config, strategy, state_limit)


# ---------------------------------------------------------------------------
# Random program generation (property-test fuel)
# ---------------------------------------------------------------------------

def gen_random_program(seed: int, max_depth: int, max_future_nesting: int) -> Expression:
    """Deterministic random expression, reference-free, at most ``max_depth`` deep.

    ``max_depth`` caps depth, not size: while nesting allows, a node has 4/3
    children on average (int 1/6, add 1/2, future 1/3), so most draws grow
    exponentially with depth and only small depths are usable: seed 3 at
    depth 5,000 passes 10**6 nodes. One loop over an explicit stack of nodes
    still to draw, left child on top, draws in pre-order without recursion.
    """
    if max_depth < 1 or max_future_nesting < 1:
        raise ValueError("bounds must be at least 1")
    rng = random.Random(seed)
    todo: list = [(1, 0)]  # (depth, nesting) of a node to draw, or the constructor that closes one
    built: list[Expression] = []
    while todo:
        item = todo.pop()
        if item is Add:
            right = built.pop()
            built[-1] = Add(built[-1], right)
            continue
        if item is FutureCreate:
            built[-1] = FutureCreate(built[-1])
            continue
        depth, nesting = item
        kind = "int"
        if depth < max_depth:
            kinds = ["int", "add", "add", "add"]
            if nesting < max_future_nesting:
                kinds += ["future", "future"]
            kind = rng.choice(kinds)
        if kind == "int":
            built.append(IntLit(rng.randint(-9, 9)))
        elif kind == "add":
            todo += (Add, (depth + 1, nesting), (depth + 1, nesting))
        else:
            todo += (FutureCreate, (depth + 1, nesting + 1))
    return built[0]
