"""The rule kernel (Create, Add, Claim), configurations, schedulers, and interleaving exploration."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from .calculus import (
    EMPTY_CONTEXT,
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
    _HoleRightCell,
    _INT_MAX,
    _INT_MIN,
    _new_object,
    _refocus,
    _set_value,
    contains_future_ref,
    decompose,
    initial_configuration,
    node_count,
    plug,  # no driver calls it; kept as ``engine.plug``, which the benchmark patches to count calls
    subterms,
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


def _ready(site: RedexSite, threads: dict[FutureId, Closure]) -> bool:
    """The readiness rule: a redex fires at once, a claim once its producer in ``threads`` realized an integer."""
    if isinstance(site, ClaimSite):
        try:
            return isinstance(threads[site.target].site, NoRedex)
        except KeyError:
            raise EngineError(f"fv{site.target} claimed but never produced") from None
    return isinstance(site, (ArithRedex, CreateRedex))


def enabled_threads(config: Configuration) -> frozenset[FutureId]:
    """Threads that can take a step right now; realized non-root closures sit idle until claimed."""
    threads = {c.realizes: c for c in config.closures}
    return frozenset(fid for fid, thr in threads.items() if _ready(thr.site, threads))


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
    _, event, child = _advance(fired, strategy, config.next_fresh, claimed)
    born = () if child is None else (child,)
    return Configuration((*born, *closures.values()), config.next_fresh + len(born), config.root), event


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
        filler: Expression = _new_object(IntLit)  # ``IntLit(total)`` with no Python frame
        _set_value(filler, total)
    elif isinstance(site, CreateRedex):
        filler = FutureRef(fresh)
    elif isinstance(site, ClaimSite):
        if claimed is None:
            raise NotEnabledError(f"fv{thread} claims fv{site.target} but no claimed value was given")
        filler = claimed
    else:
        raise NotEnabledError(f"fv{thread} holds a value")
    return (site.context, filler), _refocus(site, filler)


# Bound once: reading a member off an enum class runs ``EnumType``'s Python
# attribute lookup (over 100 ns on 3.11), and a Create reads two.
_UP_CREATE, _DOWN, _UP_CLAIM = ScaleOp.UP_CREATE, ScaleOp.DOWN, ScaleOp.UP_CLAIM


def _levels(rule: str, level: FrequencyLevel, strategy: ScalingStrategy) -> tuple[tuple[FrequencyLevel, ...], int]:
    """The level rules of a Create or a Claim run at ``level``: the levels its operators set, in order, and its clamps.

    A Create sets its child's level by UP_CREATE, then its own by DOWN; a
    Claim sets its own by UP_CLAIM. So the last level is the thread's after
    the rule. ``_advance``, ``energy._price`` and ``energy._schedule`` call
    it, and nothing else calls ``strategy.scale``; the last two keep its
    answers for a run if ``_reusable``. It runs up to once per Create or
    Claim, so the operators are module constants and a Create's two clamp
    flags are added as they come (``True + False == 1``).
    """
    if rule == RULE_CREATE:
        child_level, clamp_up = strategy.scale(_UP_CREATE, level)
        parent_level, clamp_down = strategy.scale(_DOWN, level)
        return (child_level, parent_level), clamp_up + clamp_down
    new_level, clamped = strategy.scale(_UP_CLAIM, level)
    return (new_level,), int(clamped)


def _reusable(strategy: ScalingStrategy) -> bool:
    """True when ``strategy.scale`` is ``ScalingStrategy.scale``, which answers by (operator, level) alone."""
    return getattr(strategy.scale, "__func__", None) is ScalingStrategy.scale


def _advance(thr: Closure, strategy: ScalingStrategy, fresh: FutureId,
             claimed: Expression | None = None) -> tuple[Hole, ReductionEvent, Closure | None]:
    """The rule kernel: fire the rule at the thread's redex site, in place, at the thread's level.

    ``_fill`` fires its expression half and ``_levels`` its level rules.
    Returns the filled hole, the event, and a Create's child: ``fresh``,
    running ``site.body`` at ``event.child_level``; None for the other
    rules. The caller adds the child and drops a Claim's producer.
    """
    site, level, thread = thr.site, thr.freq, thr.realizes
    hole, thr.site = _fill(site, thread, fresh, claimed)
    if site.__class__ is CreateRedex:
        (child_level, thr.freq), clamps = _levels(RULE_CREATE, level, strategy)
        event = CreateEvent(thread, level, fresh, thr.freq, child_level, clamps)
        return hole, event, Closure(child_level, decompose(site.body), fresh)
    if site.__class__ is ClaimSite:
        (thr.freq,), clamps = _levels(RULE_CLAIM, level, strategy)
        return hole, ClaimEvent(thread, level, site.target, claimed, thr.freq, clamps), None
    return hole, AddEvent(thread, level, site.left, site.right, hole[1].value), None


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
    realized can change readiness. The first two are tested again; the
    claimant waited on that thread alone, so it is enabled untested.
    """
    root = Closure(start_level(expr, ladder, init_index, strategy), decompose(expr), 0)
    threads = {0: root}  # live threads: a claimed producer leaves
    fresh = 1
    if step_limit is None:
        step_limit = 10 * 3 * node_count(expr)
    pick = (policy or NewestFirst()).session()
    enabled: set[FutureId] = set()
    parked: dict[FutureId, FutureId] = {}  # producer -> the claimant waiting on it

    def retest(thr: Closure) -> None:
        if _ready(thr.site, threads):
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
        _, event, child = _advance(thr, strategy, fresh, claimed)
        if child is not None:
            threads[fresh] = child
            retest(child)
            fresh += 1
        retest(thr)
        if isinstance(thr.site, NoRedex) and thread in parked:
            enabled.add(parked.pop(thread))
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

class _SiteIds:
    """Interned integers that name expressions, context cells and redex sites up to renaming future ids.

    An object's number is interned from its class and the numbers of its
    parts: an expression's from its children's, a cell's from its operand's
    and its outer cell's, and a site's from its context's innermost cell and
    its focus. Every integer is kept and every future reference blanked, so
    two sites get equal numbers exactly when their expressions are equal up
    to the referenced ids. A claim-phase Add site gets the plain site's
    number, since an expression has one site.

    An expression's or a cell's number is memoised on the object, keyed by
    its ``id``; the memo pins the object, so that id is never reused. Cells
    are shared by every site built on them, so numbering a site costs only
    the cells pushed since its outer cells were numbered, and a subterm is
    numbered once, bottom up. ``refs[n]`` counts the future references of
    expression ``n``, and for cell ``n`` those left of its hole, which is
    the slot where a Create at that cell puts its child's reference.
    """

    __slots__ = ("ids", "refs", "memo", "pinned")

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {(Context,): 0}  # key -> number; 0 is the empty context
        self.refs: list[int] = [0]
        self.memo: dict[int, int] = {id(EMPTY_CONTEXT): 0}
        self.pinned: list[Expression | Context] = [EMPTY_CONTEXT]

    def _intern(self, key: tuple, refs: int) -> int:
        n = self.ids.get(key)
        if n is None:
            n = self.ids[key] = len(self.refs)
            self.refs.append(refs)
        return n

    def expr(self, expr: Expression) -> int:
        """The expression's number; each subterm not yet numbered is numbered after its children."""
        memo = self.memo
        if id(expr) in memo:
            return memo[id(expr)]
        refs = self.refs
        stack = [expr]
        while stack:
            e = stack[-1]
            if id(e) in memo:  # a shared literal, pushed twice
                stack.pop()
                continue
            kind = e.__class__
            if kind is Add:
                left, right = memo.get(id(e.left)), memo.get(id(e.right))
                if left is None or right is None:
                    stack += [part for part, n in ((e.right, right), (e.left, left)) if n is None]
                    continue
                n = self._intern((Add, left, right), refs[left] + refs[right])
            elif kind is FutureCreate:
                body = memo.get(id(e.body))
                if body is None:
                    stack.append(e.body)
                    continue
                n = self._intern((FutureCreate, body), refs[body])
            elif kind is IntLit:
                n = self._intern((IntLit, e.value), 0)
            else:
                n = self._intern((FutureRef,), 1)
            stack.pop()
            memo[id(e)] = n
            self.pinned.append(e)
        return memo[id(expr)]

    def cell(self, cell: Context) -> int:
        """The number of a context's innermost cell; the cells out to the first numbered one are numbered on the way."""
        memo = self.memo
        n = memo.get(id(cell))
        if n is not None:
            return n
        path = []
        while n is None:
            path.append(cell)
            cell = cell.outer
            n = memo.get(id(cell))
        refs = self.refs
        for cell in reversed(path):
            operand = self.expr(cell.operand)
            left = refs[n] + refs[operand] if cell.__class__ is _HoleRightCell else refs[n]
            n = memo[id(cell)] = self._intern((cell.__class__, operand, n), left)
            self.pinned.append(cell)
        return n

    def site(self, site: RedexSite) -> int:
        """The site's number: its innermost cell's and its focus's, a claimed reference blanked."""
        kind = site.__class__
        if kind is NoRedex:
            return self._intern((NoRedex, site.value.value), 0)
        cell = self.cell(site.context)
        if kind is CreateRedex:
            return self._intern((CreateRedex, cell, self.expr(site.body)), 0)
        if kind is ClaimSite:
            return self._intern((ClaimSite, cell), 0)
        return self._intern((ArithRedex, cell, site.left, site.right), 0)


# Explore drops the interned key entries that no frontier state holds once
# this many more have piled up.
_INTERN_SLACK = 1 << 16


def _explore(config: Configuration, strategy: ScalingStrategy, state_limit: int) -> tuple[set[tuple[int, FrequencyLevel]], int]:
    """Breadth-first search over every interleaving from ``config``; a state's key is the root's entry.

    A state is each thread's record, ``{fid: Closure}``, with no fresh id;
    the first state holds the configuration's own records, walked once
    breadth first from the root, which must reach every closure. A thread's
    entry is (level index, its site's number, *its children's nodes in
    reference order), where ``_SiteIds`` numbers the site, and a non-root
    thread's node is its entry's number in an intern table. So two threads
    have equal entries exactly when their subtrees are equal up to renaming
    future ids (a Merkle key), and the state key is the root's entry, which
    no thread holds. A state carries also each thread's entry, each non-root
    thread's parent and the index of its node in the parent's entry, and
    its enabled set. A rule changes only the fired thread's subtree, so the
    successor's key is the fired thread's new entry re-interned up its path
    to the root, O(depth of the reference tree), and the successor is built
    only when that key is new.

    Firings are memoised per record, a Claim's also per claimed value. A
    Create's move keeps its child, named once from a count that starts at
    the configuration's next fresh id, and every state that fires the record
    shares it: firing replaces a record, so no record fires twice on one
    path and no state holds an id twice, and keys blank references, so the
    id changes no key. A miss fires a copy of the record through
    ``_advance``, and numbers the updated record's site, which costs the
    cells the rule pushed; no expression is plugged or walked. The updated
    record's references are its record's, with a Create's child's inserted
    at the slot its cell counts, or a Claim's producer's removed. The move
    keeps also the updated record's readiness (it can fire, it realized, or
    the producer it now claims) and whether a Create's child can fire. Only
    the fired thread, a Create's child and the fired thread's parent, which
    may be parked on it, can change readiness, so a successor's enabled set
    is its state's with at most three O(1) edits: the move says what became
    of the fired thread and its child, and one site read says whether the
    producer it claims has realized or whether its parent is parked on it.
    An edge to a state already seen costs its key only; a new state costs
    copies of its state's maps and those edits, and shares its state's
    enabled set when no edit applies.

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
    sites = _SiteIds()
    refs_of: dict[int, tuple[FutureId, ...]] = {}  # id(record) -> its references in order; moves pin the records
    up: dict[FutureId, tuple[FutureId, int]] = {}
    order = [root]
    for fid in order:  # breadth first, so a thread comes before its children
        thr = threads[fid]
        refs_of[id(thr)] = refs = tuple(e.fid for e in subterms(thr.expr) if e.__class__ is FutureRef)
        for at, ref in enumerate(refs, 2):
            up[ref] = (fid, at)
            order.append(ref)
    if len(order) != len(threads):
        raise EngineError("configuration has closures unreachable from the root")
    ids: dict[tuple, int] = {}  # non-root entry -> node
    base = 0  # nodes numbered so far, less len(ids)
    entries: dict[FutureId, tuple] = {}
    nodes: dict[FutureId, int] = {}
    for fid in reversed(order):
        thr = threads[fid]
        entries[fid] = entry = (thr.freq.index, sites.site(thr.site), *(nodes[ref] for ref in refs_of[id(thr)]))
        if fid != root:
            nodes[fid] = ids.setdefault(entry, len(ids) + base)

    # A move maps a firing to (the fired record, which pins its id, the
    # updated record, its (level index, site number) and references, the
    # entry index of the reference a Create added or a Claim removed, the
    # Create's child and its entry, the updated record's readiness: True if
    # it can fire, False if it realized, else the producer it now claims,
    # and whether the child can fire).
    moves: dict = {}
    count, fresh = 1, config.next_fresh  # fresh: the id of the next child a move names
    kept = len(ids)
    frontier = [(threads, entries, up, set(enabled_threads(config)))]
    outcomes: set[tuple[int, FrequencyLevel]] = set()
    while frontier:
        next_frontier: list = []
        seen: set[tuple] = set()  # the next level's keys
        intern = ids.setdefault
        for threads, entries, up, enabled in frontier:
            if not enabled:
                site = threads[root].site
                if len(threads) != 1 or not isinstance(site, NoRedex):
                    raise EngineError("stuck non-terminal state during exploration")
                outcomes.add((site.value.value, threads[root].freq))
                continue
            for thread in enabled:
                thr = threads[thread]
                site = thr.site
                claimed, key = None, id(thr)
                if site.__class__ is ClaimSite:
                    claimed = threads[site.target].site.value
                    key = (key, claimed.value)
                move = moves.get(key)
                if move is None:
                    updated = Closure(thr.freq, site, thread)
                    _, _, child = _advance(updated, strategy, fresh, claimed)
                    refs = refs_of[id(thr)]
                    slot = child_entry = None
                    if child is not None:
                        at = sites.refs[sites.cell(site.context)]  # the references left of the hole
                        slot = 2 + at
                        refs = (*refs[:at], fresh, *refs[at:])
                        fresh += 1
                        # A future's body is program text, so the child references nothing.
                        child_entry = (child.freq.index, sites.site(child.site))
                        refs_of[id(child)] = ()
                    elif claimed is not None:
                        slot = up[site.target][1]
                        refs = refs[: slot - 2] + refs[slot - 1 :]
                    refs_of[id(updated)] = refs
                    now = updated.site
                    ready = now.target if now.__class__ is ClaimSite else now.__class__ is not NoRedex
                    move = moves[key] = (thr, updated, (updated.freq.index, sites.site(now)), refs, slot, child,
                                         child_entry, ready, child is not None and child.site.__class__ is not NoRedex)
                _, updated, head, refs, slot, child, child_entry, ready, child_ready = move
                entry = entries[thread]
                if child is not None:
                    entry = head + entry[2:slot] + (intern(child_entry, len(ids) + base),) + entry[slot:]
                elif slot is not None:
                    entry = head + entry[2:slot] + entry[slot + 1 :]
                else:
                    entry = head + entry[2:]
                changed = {thread: entry}
                fid = thread
                while fid != root:
                    node = intern(entry, len(ids) + base)
                    fid, at = up[fid]
                    entry = [*entries[fid]]  # a list edit builds half the tuples a slice edit does
                    entry[at] = node
                    changed[fid] = entry = tuple(entry)
                if entry in seen:
                    continue
                if count >= state_limit:
                    raise ExplorationLimitError(f"more than {state_limit} states")
                count += 1
                seen.add(entry)
                next_threads = threads.copy()
                next_threads[thread] = updated
                next_entries = entries | changed
                next_up = up
                if slot is not None:  # a Create or a Claim moves the references after its slot
                    next_up = up.copy()
                    if child is not None:
                        next_threads[child.realizes] = child
                        next_entries[child.realizes] = child_entry
                    else:
                        del next_threads[site.target], next_entries[site.target], next_up[site.target]
                    for at, ref in enumerate(refs, 2):
                        next_up[ref] = (thread, at)
                next_enabled = enabled  # states share an enabled set that no edit changes
                if ready is not True or child_ready:
                    next_enabled = enabled.copy()
                    if child_ready:
                        next_enabled.add(child.realizes)
                    if ready is False:  # realized: release the parent if it is parked on this thread
                        next_enabled.discard(thread)
                        if thread != root:
                            parent = up[thread][0]
                            parked = next_threads[parent].site
                            if parked.__class__ is ClaimSite and parked.target == thread:
                                next_enabled.add(parent)
                    elif ready is not True and next_threads[ready].site.__class__ is not NoRedex:
                        next_enabled.discard(thread)  # it claims a producer that is still running
                next_frontier.append((next_threads, next_entries, next_up, next_enabled))
        frontier = next_frontier
        if len(ids) > kept + _INTERN_SLACK:
            # Keys are compared within a level only, so an entry no frontier
            # state holds may be dropped: if it recurs, it gets a new node. A
            # state holds every thread's entry, so a held entry's children
            # stay. The root's entry is a state key and was never interned.
            held = {entry: ids[entry] for _, entries, _, _ in frontier
                    for fid, entry in entries.items() if fid != root}
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
