"""The rule kernel (Create, Add, Claim), configurations, schedulers, and interleaving exploration."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from .calculus import (
    Add,
    ArithRedex,
    ClaimSite,
    Closure,
    Configuration,
    Context,
    CreateRedex,
    Expression,
    FutureId,
    FutureRef,
    IntLit,
    NoRedex,
    RedexSite,
    _INT_MAX,
    _INT_MIN,
    _refocus,
    contains_future_ref,
    decompose,
    initial_configuration,
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


# Events are named tuples: a run builds one per step, and a tuple builds in a
# fraction of a frozen dataclass's time. A Create's fourth field is a level
# and a Claim's an expression, so no two kinds of event compare equal.
class CreateEvent(NamedTuple):
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


class ClaimEvent(NamedTuple):
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


class AddEvent(NamedTuple):
    thread: FutureId
    level: FrequencyLevel
    left: int
    right: int
    total: int

    rule = RULE_ADD
    clamps = 0
    scaled = ()


ReductionEvent = Union[CreateEvent, ClaimEvent, AddEvent]


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
    sites = {c.realizes: c.site for c in config.closures}
    return frozenset(fid for fid, site in sites.items() if _ready(site, sites.__getitem__))


def step(config: Configuration, thread: FutureId, strategy: ScalingStrategy) -> tuple[Configuration, ReductionEvent]:
    """Fire the one rule the named thread can take; pure, returns a new configuration.

    Only the fired closure is copied and stepped; the others are shared with
    ``config``. The successor's closures: a Create's child first, with the
    fresh id; a Claim's producer gone; the rest in their order.
    """
    if thread not in enabled_threads(config):
        raise NotEnabledError(f"fv{thread} has no enabled reduction")
    closures = {c.realizes: c for c in config.closures}
    fired = closures[thread]
    site = fired.site
    claimed = closures.pop(site.target).site.value if isinstance(site, ClaimSite) else None
    closures[thread] = fired = Closure(fired.freq, site, thread)
    born: dict[FutureId, Closure] = {}
    _, event = _advance(fired, born, strategy, config.next_fresh, claimed)
    return Configuration((*born.values(), *closures.values()), config.next_fresh + len(born), config.root), event


Hole = tuple[Context, Expression]


def _fill(site: RedexSite, thread: FutureId, fresh: FutureId | None,
          claimed: Expression | None = None) -> tuple[Hole, RedexSite]:
    """The kernel's expression half: fire the rule at a thread's redex site, leaving levels alone.

    An Add fills the hole with its wrapped sum, a Create with ``fresh``, the
    reference to its child, and a Claim with ``claimed``, the value its
    producer realized. Returns the filled hole, ``(site.context, filler)``,
    whose ``plug`` is the thread's expression after the rule, and that
    expression's redex site.
    """
    if isinstance(site, ArithRedex):
        total = site.left + site.right
        if not _INT_MIN <= total <= _INT_MAX:  # wrap only on overflow: in range, wrapping gives the sum
            total = wrap_int(total)
        filler: Expression = IntLit(total)
    elif isinstance(site, CreateRedex):
        filler = FutureRef(fresh)
    elif isinstance(site, ClaimSite):
        if claimed is None:
            raise NotEnabledError(f"fv{thread} claims fv{site.target} but no claimed value was given")
        filler = claimed
    else:
        raise NotEnabledError(f"fv{thread} holds a value")
    return (site.context, filler), _refocus(site, filler)


def _levels(rule: str, level: FrequencyLevel, strategy: ScalingStrategy) -> tuple[tuple[FrequencyLevel, ...], int]:
    """The level rules of a Create or a Claim run at ``level``: the levels its operators set, in order, and its clamps.

    A Create sets its child's level by UP_CREATE, then its own by DOWN; a
    Claim sets its own by UP_CLAIM. So the last level is the thread's after
    the rule. ``_rule`` and ``energy._price`` call it, and nothing else calls
    ``strategy.scale``.
    """
    if rule == RULE_CREATE:
        child_level, clamp_up = strategy.scale(ScaleOp.UP_CREATE, level)
        parent_level, clamp_down = strategy.scale(ScaleOp.DOWN, level)
        return (child_level, parent_level), int(clamp_up) + int(clamp_down)
    new_level, clamped = strategy.scale(ScaleOp.UP_CLAIM, level)
    return (new_level,), int(clamped)


def _rule(site: RedexSite, level: FrequencyLevel, thread: FutureId, strategy: ScalingStrategy, fresh: FutureId,
          claimed: Expression | None = None) -> tuple[Hole, RedexSite, FrequencyLevel, ReductionEvent]:
    """The rule kernel: fire the rule at a thread's redex site, running at ``level``.

    ``_fill`` fires its expression half and ``_levels`` its level rules.
    Returns the filled hole, the thread's new redex site, its level after
    scaling, and the event. The caller adds a Create's child (at
    ``event.child_level``, running ``site.body``) and drops a Claim's
    producer.
    """
    hole, refocused = _fill(site, thread, fresh, claimed)
    if site.__class__ is CreateRedex:
        (child_level, new_level), clamps = _levels(RULE_CREATE, level, strategy)
        return hole, refocused, new_level, CreateEvent(thread, level, fresh, new_level, child_level, clamps)
    if site.__class__ is ClaimSite:
        (new_level,), clamps = _levels(RULE_CLAIM, level, strategy)
        return hole, refocused, new_level, ClaimEvent(thread, level, site.target, claimed, new_level, clamps)
    return hole, refocused, level, AddEvent(thread, level, site.left, site.right, hole[1].value)


def _advance(thr: Closure, threads: dict[FutureId, Closure], strategy: ScalingStrategy, fresh: FutureId,
             claimed: Expression | None = None) -> tuple[Hole, ReductionEvent]:
    """Fire the thread's rule through the kernel in place; a Create's child joins ``threads`` as ``fresh``."""
    site = thr.site
    hole, thr.site, thr.freq, event = _rule(site, thr.freq, thr.realizes, strategy, fresh, claimed)
    if isinstance(event, CreateEvent):
        threads[fresh] = Closure(event.child_level, decompose(site.body), fresh)
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
    return ladder_start(ladder, init_index, strategy)


def ladder_start(ladder: FrequencyLadder, init_index: int, strategy: ScalingStrategy) -> FrequencyLevel:
    """Check that the strategy steps over ``ladder``; return the level a run starts at."""
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
    """Reduce a program to a single integer-holding root thread.

    The enabled set is kept event by event: after a step only the fired
    thread, a Create's child and the claimant parked on a thread that just
    realized can change readiness, so only they are tested again.
    """
    root = Closure(start_level(expr, ladder, init_index, strategy), decompose(expr), 0)
    threads = {0: root}  # live threads: a claimed producer leaves
    fresh = 1
    if step_limit is None:
        step_limit = 10 * 3 * node_count(expr)
    pick = (policy or NewestFirst()).session()
    site_of = lambda fid: threads[fid].site  # a producer's site; KeyError once it is claimed
    enabled: set[FutureId] = set()
    parked: dict[FutureId, FutureId] = {}  # producer -> the claimant waiting on it

    def retest(thr: Closure) -> None:
        if _ready(thr.site, site_of):
            enabled.add(thr.realizes)
        else:
            enabled.discard(thr.realizes)
            if isinstance(thr.site, ClaimSite):
                parked[thr.site.target] = thr.realizes

    retest(root)
    events: list[ReductionEvent] = []
    clamps = 0
    while enabled:
        if len(events) >= step_limit:
            raise DivergenceError(f"exceeded {step_limit} steps")
        thread = pick(frozenset(enabled))
        if thread not in enabled:
            raise NotEnabledError(f"fv{thread} has no enabled reduction")
        thr = threads[thread]
        claimed = threads.pop(thr.site.target).site.value if isinstance(thr.site, ClaimSite) else None
        _, event = _advance(thr, threads, strategy, fresh, claimed)
        if isinstance(event, CreateEvent):
            retest(threads[fresh])
            fresh += 1
        retest(thr)
        if isinstance(thr.site, NoRedex) and thread in parked:
            retest(threads[parked.pop(thread)])
        events.append(event)
        clamps += event.clamps
    if len(threads) != 1 or not isinstance(root.site, NoRedex):
        raise EngineError("no enabled thread in a non-terminal configuration")

    return RunResult(
        final_value=root.site.value.value,
        events=tuple(events),
        final_level=root.freq,
        step_count=len(events),
        clamp_count=clamps,
    )


# ---------------------------------------------------------------------------
# Exhaustive interleaving exploration
# ---------------------------------------------------------------------------

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


# Explore drops the interned key entries that no frontier state holds once
# this many more have piled up.
_INTERN_SLACK = 1 << 16


def _explore(config: Configuration, strategy: ScalingStrategy, state_limit: int) -> tuple[set[tuple[int, FrequencyLevel]], int]:
    """Breadth-first search over every interleaving from ``config``; a state's key is one interned integer.

    A state is each thread's record, ``{fid: Closure}``, and the next fresh
    id; the first state holds the configuration's own records, walked once
    breadth first from the root, which must reach every closure. A thread's
    entry is (level index, shape, *its children's nodes in reference order),
    and its node is the entry's number in an intern table, so two threads
    have equal nodes exactly when their subtrees are equal up to renaming
    future ids (a Merkle key). The state key is the root's node. A
    state carries also each thread's entry, each non-root thread's parent and
    the index of its node in the parent's entry, and its enabled set. A rule
    changes only the fired thread's subtree, so the successor's key is the
    fired thread's new entry re-interned up its path to the root, O(depth of
    the reference tree), and the successor is built only when that key is
    new. Firings are memoised per record: a Create's result depends also on
    the fresh id, a Claim's on the claimed value; a miss fires a copy of the
    record through ``_advance``, as ``run`` fires the record itself, and
    plugs the hole only to take its shape. The move keeps also the updated
    record's readiness (it can fire, it realized, or the producer it now
    claims) and whether a Create's child can fire. Only the fired thread, a
    Create's child and the fired thread's parent, which may be parked on it,
    can change readiness, so a successor's enabled set is its state's with
    at most three O(1) edits: the move says what became of the fired thread
    and its child, and one site read says whether the producer it claims
    has realized or whether its parent is parked on it. An edge to a state
    already seen costs its key only; a new state costs copies of its
    state's maps and those edits.

    A state's depth in the search is its total step count, which the state
    itself fixes, so two states can be equal only within one level: keys
    are compared level by level, and interned entries that no frontier
    state holds are dropped once ``_INTERN_SLACK`` of them pile up, which
    keeps a deep reference tree's O(states × depth) entries out of memory.
    """
    if state_limit < 1:  # the initial state counts against the budget too
        raise ExplorationLimitError(f"more than {state_limit} states")
    root = config.root
    threads = {c.realizes: c for c in config.closures}
    shapes: dict[FutureId, tuple[str, tuple[FutureId, ...]]] = {}
    up: dict[FutureId, tuple[FutureId, int]] = {}
    order = [root]
    for fid in order:  # breadth first, so a thread comes before its children
        shapes[fid] = _shape(threads[fid].expr)
        for at, ref in enumerate(shapes[fid][1], 2):
            up[ref] = (fid, at)
            order.append(ref)
    if len(order) != len(threads):
        raise EngineError("configuration has closures unreachable from the root")
    ids: dict[tuple, int] = {}  # entry -> node
    base = 0  # nodes numbered so far, less len(ids)
    entries: dict[FutureId, tuple] = {}
    nodes: dict[FutureId, int] = {}
    for fid in reversed(order):
        shape, refs = shapes[fid]
        entries[fid] = entry = (threads[fid].freq.index, shape, *(nodes[ref] for ref in refs))
        nodes[fid] = ids.setdefault(entry, len(ids) + base)

    # A move maps a firing to (the fired record, which pins its id, the
    # updated record, its (level index, shape) and references, the entry
    # index of the reference a Create added or a Claim removed, the Create's
    # child and its entry, the updated record's readiness: True if it can
    # fire, False if it realized, else the producer it now claims, and
    # whether the child can fire).
    moves: dict = {}
    count = 1
    kept = len(ids)
    frontier = [(threads, config.next_fresh, entries, up, set(enabled_threads(config)))]
    outcomes: set[tuple[int, FrequencyLevel]] = set()
    while frontier:
        next_frontier: list = []
        seen: set[int] = set()  # the next level's keys
        intern = ids.setdefault
        for threads, fresh, entries, up, enabled in frontier:
            if not enabled:
                site = threads[root].site
                if len(threads) != 1 or not isinstance(site, NoRedex):
                    raise EngineError("stuck non-terminal state during exploration")
                outcomes.add((site.value.value, threads[root].freq))
                continue
            for thread in enabled:
                thr = threads[thread]
                site = thr.site
                claimed = None
                if site.__class__ is CreateRedex:
                    key: object = (id(thr), fresh)
                elif site.__class__ is ClaimSite:
                    claimed = threads[site.target].site.value
                    key = (id(thr), claimed.value)
                else:
                    key = id(thr)
                move = moves.get(key)
                if move is None:
                    updated = Closure(thr.freq, site, thread)
                    born: dict[FutureId, Closure] = {}
                    hole, _ = _advance(updated, born, strategy, fresh, claimed)
                    shape, refs = _shape(plug(*hole))
                    child = born.get(fresh)
                    slot = child_entry = None
                    if child is not None:
                        slot = 2 + refs.index(fresh)
                        # A future's body is program text, so the child references nothing.
                        child_entry = (child.freq.index, _shape(site.body)[0])
                    elif claimed is not None:
                        slot = up[site.target][1]
                    now = updated.site
                    ready = now.target if now.__class__ is ClaimSite else now.__class__ is not NoRedex
                    move = moves[key] = (thr, updated, (updated.freq.index, shape), refs, slot, child, child_entry,
                                         ready, child is not None and child.site.__class__ is not NoRedex)
                _, updated, head, refs, slot, child, child_entry, ready, child_ready = move
                entry = entries[thread]
                if child is not None:
                    entry = head + entry[2:slot] + (intern(child_entry, len(ids) + base),) + entry[slot:]
                elif slot is not None:
                    entry = head + entry[2:slot] + entry[slot + 1 :]
                else:
                    entry = head + entry[2:]
                node = intern(entry, len(ids) + base)
                changed = {thread: entry}
                fid = thread
                while fid != root:
                    fid, at = up[fid]
                    entry = entries[fid]
                    entry = entry[:at] + (node,) + entry[at + 1 :]
                    node = intern(entry, len(ids) + base)
                    changed[fid] = entry
                if node in seen:
                    continue
                if count >= state_limit:
                    raise ExplorationLimitError(f"more than {state_limit} states")
                count += 1
                seen.add(node)
                next_threads = threads.copy()
                next_threads[thread] = updated
                next_entries = entries | changed
                next_up = up
                next_enabled = enabled.copy()
                if slot is not None:  # a Create or a Claim moves the references after its slot
                    next_up = up.copy()
                    if child is not None:
                        next_threads[fresh] = child
                        next_entries[fresh] = child_entry
                        if child_ready:
                            next_enabled.add(fresh)
                    else:
                        del next_threads[site.target], next_entries[site.target], next_up[site.target]
                    for at, ref in enumerate(refs, 2):
                        next_up[ref] = (thread, at)
                if ready is False:  # realized: release the parent if it is parked on this thread
                    next_enabled.discard(thread)
                    if thread != root:
                        parent = up[thread][0]
                        parked = next_threads[parent].site
                        if parked.__class__ is ClaimSite and parked.target == thread:
                            next_enabled.add(parent)
                elif ready is not True and next_threads[ready].site.__class__ is not NoRedex:
                    next_enabled.discard(thread)  # it claims a producer that is still running
                next_frontier.append((next_threads, fresh + (child is not None), next_entries, next_up, next_enabled))
        frontier = next_frontier
        if len(ids) > kept + _INTERN_SLACK:
            # Keys are compared within a level only, so an entry no frontier
            # state holds may be dropped: if it recurs, it gets a new node. A
            # state holds every thread's entry, so a held entry's children stay.
            held = {entry: ids[entry] for _, _, entries, _, _ in frontier for entry in entries.values()}
            base += len(ids) - len(held)
            ids, kept = held, len(held)
    return outcomes, count


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
