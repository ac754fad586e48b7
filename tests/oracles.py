"""Helpers the library no longer needs, kept as oracles and test fuel.

The configuration helpers read a configuration through each closure's
expression (``Closure.expr``), not through its site, as the library did before
closures held sites; ``validate_configuration`` (with ``ConfigurationError``
and ``future_ref_ids``) checks a configuration's structural invariants.
``unparse_in_context`` is ``unparse`` as it was when it could render a hole
through its context, and ``trace_snippet`` renders a compute record's
``expr`` with it, as the trace writer did before it memoised its context
frames. ``gen_random_program`` draws the seeded random programs the property
tests run. ``Token`` and ``_tokenize`` are the character-by-character lexer
the parser used before its one regex. ``compositional_cost`` prices a run
thread by thread from the paper's rules, with no event heap, as an oracle
for the simulator.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from futsim.calculus import (
    Add,
    ArithRedex,
    ClaimSite,
    Closure,
    Configuration,
    Context,
    CreateRedex,
    Expression,
    Frame,
    FutureCreate,
    FutureId,
    FutureRef,
    IntLit,
    NoRedex,
    _HoleLeftCell,
    _refocus,
    decompose,
    plug,
    subterms,
    wrap_int,
)
from futsim.cli import EXPR_SNIPPET_CHARS, _snippet
from futsim.engine import EngineError
from futsim.parser import ParseError, _atomic
from futsim.scaling import FrequencyLadder, ScaleOp


def refill(site, filler):
    """Plug the atom a rule produced into a fired site's hole; return the
    expression and its site, the one ``_refocus`` finds from the hole."""
    return plug(site.context, filler), _refocus(site, filler)


def is_terminal(config):
    """One closure left, the root's, holding an integer."""
    return (
        len(config.closures) == 1
        and config.closures[0].realizes == config.root
        and isinstance(config.closures[0].expr, IntLit)
    )


def closure_for(config, fid):
    for c in config.closures:
        if c.realizes == fid:
            return c
    raise KeyError(f"no closure realizes fv{fid}")


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


def canonical_key(config, shapes=None):
    """A configuration key invariant under closure order and fresh-id choice.

    Walks the reference tree from the root in pre-order, left to right, and
    emits each thread's level index and shape: a flat tuple of length
    2 × threads. Every non-root future is referenced exactly once, so the
    shapes' blanks say where each subtree hangs and the key is exact up to
    renaming future ids. ``shapes`` memoises shapes by record identity
    across calls, so a record must not be stepped in place once keyed; ``step``
    shares the closures it did not fire with the parent configuration, so
    only new records are walked. A memo entry holds its record, so the id
    cannot be reused while the entry lives.
    """
    if shapes is None:
        shapes = {}
    producers = {c.realizes: c for c in config.closures}
    key = []
    stack = [config.root]
    while stack:
        closure = producers[stack.pop()]
        entry = shapes.get(id(closure))
        if entry is None:  # ``.expr`` is rebuilt on each read, so walk it once per record
            entry = shapes[id(closure)] = (closure, *_shape(closure.expr))
        _, shape, refs = entry
        key.append(closure.freq.index)
        key.append(shape)
        stack.extend(reversed(refs))
    if len(key) != 2 * len(config.closures):
        raise EngineError("configuration has closures unreachable from the root")
    return tuple(key)


def future_ref_ids(expr: Expression) -> list[FutureId]:
    """All future ids referenced in expr, in left-to-right occurrence order."""
    return [e.fid for e in subterms(expr) if isinstance(e, FutureRef)]


class ConfigurationError(Exception):
    """A configuration violates a structural invariant."""


def validate_configuration(config: Configuration, ladder: FrequencyLadder | None = None) -> None:
    """Check producer uniqueness, no dangling futures, acyclicity, and ladder membership."""
    producers: dict[FutureId, Closure] = {}
    for c in config.closures:
        if c.realizes in producers:
            raise ConfigurationError(f"two closures realize fv{c.realizes}")
        producers[c.realizes] = c
    if config.root not in producers:
        raise ConfigurationError(f"no closure realizes the root fv{config.root}")

    referenced: dict[FutureId, int] = {}
    for c in config.closures:
        for fid in future_ref_ids(c.expr):
            if fid not in producers:
                raise ConfigurationError(f"dangling reference to fv{fid}")
            referenced[fid] = referenced.get(fid, 0) + 1
    if config.root in referenced:
        raise ConfigurationError("the root future must not be referenced")
    for fid in producers:
        if fid != config.root and referenced.get(fid, 0) != 1:
            raise ConfigurationError(f"fv{fid} referenced {referenced.get(fid, 0)} times, expected once")

    # Each non-root future is referenced exactly once, so reachability from the
    # root implies the realizes/references relation is a tree (hence acyclic).
    seen: set[FutureId] = set()
    stack = [config.root]
    while stack:
        fid = stack.pop()
        if fid in seen:
            raise ConfigurationError(f"fv{fid} reachable twice; reference cycle or sharing")
        seen.add(fid)
        stack.extend(future_ref_ids(producers[fid].expr))
    if seen != set(producers):
        orphans = sorted(set(producers) - seen)
        raise ConfigurationError(f"closures unreachable from the root: {orphans}")

    if ladder is not None:
        for c in config.closures:
            if not ladder.contains(c.freq):
                raise ConfigurationError(f"fv{c.realizes} runs at {c.freq} outside the ladder")


def unparse_in_context(expr: Expression, limit: int | None = None, context: Context | tuple[Frame, ...] = ()) -> str:
    """Render ``plug(context, expr)`` without building it, so that
    ``parse(unparse(e)) == e`` for ref-free e. The context's cells are
    listed once, outermost first, and each frame is read from its cell's
    class and operand, so none is built (a tuple of frames is made a
    ``Context`` first).

    With ``limit``, rendering stops once the text is longer than ``limit``
    characters: the result is the whole text or a prefix of it longer than
    ``limit``. One loop over an explicit stack does the work, so nesting depth
    costs no recursion. The stack holds text still to write, (node, followed)
    pairs still to render, and ranges of ``HoleLeft`` frames whose right
    operands are still to write, deepest first. A node is an expression or a
    1-tuple holding the index of a context frame, which stands for the
    subterm that frame and those inside it surround. ``followed`` means more
    tokens come after the node, so a future on its right spine must be fenced
    off with parentheses. A run of ``HoleLeft`` frames is pushed as one range,
    so a bounded render does not visit the right operands it never writes.
    """
    cells = []
    cell = Context.of(context)
    while cell.depth:
        cells.append(cell)
        cell = cell.outer
    cells.reverse()
    depth = len(cells)
    pieces: list[str] = []
    size = 0
    todo: list = [((0,) if depth else expr, False)]
    while todo:
        item = todo.pop()
        cls = item.__class__
        if cls is str:
            text = item
        elif cls is range:
            last = item[-1]
            if len(item) > 1:
                todo.append(item[:-1])
            right = cells[last].operand
            if right.__class__ is Add:
                todo += (")", (right, False))
                text = " + ("
            else:
                todo.append((right, last > item.start))
                text = " + "
        else:
            node, followed = item
            cls = node.__class__
            while cls is tuple or cls is Add:  # down the left spine of the sums
                if cls is tuple:
                    # A context node is the root or a fenced right operand, so
                    # it is not followed; the HoleLeft frames atop it are one run.
                    index = end = node[0]
                    while end < depth and cells[end].__class__ is _HoleLeftCell:
                        end += 1
                    if end > index:
                        todo.append(range(index, end))
                        followed = True
                    if end == depth:
                        node = expr
                        cls = node.__class__
                        continue
                    left, right = cells[end].operand, ((end + 1,) if end + 1 < depth else expr)
                else:
                    left, right = node.left, node.right
                cls = right.__class__
                if cls is IntLit:
                    todo.append(f" + {right.value}")
                elif cls is tuple or cls is Add:
                    todo += (")", (right, False), " + (")
                else:
                    todo += ((right, followed), " + ")
                node, followed = left, True
                cls = node.__class__
            if cls is IntLit:
                text = str(node.value)
            elif cls is FutureRef:
                text = f"fv{node.fid}"
            elif cls is FutureCreate:
                if followed:
                    todo += (")", (node.body, False))
                    text = "(future "
                elif _atomic(node.body):
                    todo.append((node.body, False))
                    text = "future "
                else:
                    todo += (")", (node.body, False))
                    text = "future ("
            else:
                raise TypeError(f"not an expression: {node!r}")
        pieces.append(text)
        size += len(text)
        if limit is not None and size > limit:
            break
    return "".join(pieces)


def trace_snippet(context, filler):
    """A compute record's ``expr``: the whole hole rendered by one bounded
    ``unparse_in_context`` through its context, then cut, once per record."""
    return _snippet(unparse_in_context(filler, EXPR_SNIPPET_CHARS, context))


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


# ---------------------------------------------------------------------------
# Compositional cost (an oracle for the simulator's pricing)
# ---------------------------------------------------------------------------

def compositional_cost(expr: Expression, ladder: FrequencyLadder, init_index: int, strategy, model) -> dict:
    """A run's cost, composed thread by thread from the paper's rules, with no event heap: ``simulate``'s fields but the timelines.

    Each thread owns a core, so its timeline depends only on its start, its
    own rules and the realize times of the futures it claims. A thread fires
    its expression's redexes in ``decompose`` order. A step of c cycles at
    frequency f takes c / f and costs kappa * f**alpha * c / f. A Create
    starts its child at UP_CREATE's level where the Create's step and level
    switches end, and the parent goes on at DOWN's level. A Claim whose
    producer realized after the claimant arrived waits (Case I): it spins
    until the realize, at the claimant's power or at ``idle_power``, or it
    blocks until ``block_time`` after the realize, for ``block_energy``.
    UP_CLAIM then sets the claimant's level. Each new level other than the
    one the rule ran at is a switch: it takes tau and, with
    ``transition_energy``, costs kappa * f_new**alpha * tau. An explicit
    stack of threads runs a child to its end before its parent resumes, so
    every claimed producer has realized.

    Threads are numbered as the simulator's heap numbers them: in order of
    their Creates' start times, ties broken by the creator's number. A
    thread runs all its Creates before its first Claim, so no parked claim
    delays a Create, and the heap pops Creates in that order. When steps
    take no time (cycles of 5e-324 at a level of 2 or more), a creator may
    itself be created at the instant it creates, so an instant's Creates
    are numbered one at a time, each the least among those whose creator
    has its number. Energy
    is added in that order, each thread's in its timeline's order, so the
    sums match bit for bit.

    Claim records come in the order the heap pops their claims. A visit is
    a thread's start, Create, Claim or realize, keyed (time, number). The
    heap pops a visit at its key, unless that key is no later than the
    latest visit it waits for: the thread's previous visit (or its
    creator's Create) and, for a Claim, the producer's realize. Such a
    visit (a parked claim released by a later realize, or a step of no
    time) pops right after the one it waited for. The heap pops a start
    and a first Create or Claim with no Add between as one event, which
    moves no visit past another. The walk calls the scaling operators in
    its own order, so a strategy must be stateless.
    """
    def power(level):
        return model.kappa * level.value**model.alpha

    threads = [[decompose(expr), 0.0, ladder.level(init_index), []]]  # walk order -> [site, clock, level, energies]
    realized = {}  # walk order -> (time, value)
    creates, claims = [], []  # (start, creator, child); (claimant, producer, arrival, realize, wait, case, visit)
    visits = [(0.0, 0, ())]  # (time, walk order, the visits it comes after): a start, Create, Claim or realize
    current = [0]  # walk order -> its latest visit

    def visit(me, now, *after):
        visits.append((now, me, (current[me], *after)))
        current[me] = len(visits) - 1

    clamps = switches = 0
    stack = [0]
    while stack:
        me = stack[-1]
        site, now, level, spent = threads[me]
        if isinstance(site, NoRedex):
            visit(me, now)
            realized[me] = (now, site.value)
            stack.pop()
            continue
        if isinstance(site, ArithRedex):
            cycles, filler, new_levels = model.add_cycles, IntLit(wrap_int(site.left + site.right)), ()
        elif isinstance(site, ClaimSite):
            visit(me, now, current[site.target])
            ready, filler = realized[site.target]
            wait = max(0.0, ready - now)
            claims.append((me, site.target, now, ready, wait, "CaseI" if wait > 0 else "CaseII", current[me]))
            if wait > 0 and model.wait_policy == "spin":
                spent.append((power(level) if model.idle_power is None else model.idle_power) * wait)
                now = ready
            elif wait > 0:
                spent.append(model.block_energy)
                now = ready + model.block_time
            new_level, clamped = strategy.scale(ScaleOp.UP_CLAIM, level)
            cycles, new_levels = model.claim_cycles, (new_level,)
            clamps += clamped
        else:
            visit(me, now)
            child = len(threads)
            creates.append((now, me, child))
            child_level, clamped_up = strategy.scale(ScaleOp.UP_CREATE, level)
            new_level, clamped_down = strategy.scale(ScaleOp.DOWN, level)
            cycles, filler, new_levels = model.create_cycles, FutureRef(child), (child_level, new_level)
            clamps += clamped_up + clamped_down
        duration = cycles / level.value
        spent.append(power(level) * duration)
        end = now + duration
        for new in new_levels:
            if new.index != level.index:
                switches += 1
                if model.tau > 0:
                    spent.append(power(new) * model.tau if model.transition_energy else 0.0)
                    end += model.tau
        threads[me] = [decompose(plug(site.context, filler)), end, new_levels[-1] if new_levels else level, spent]
        if isinstance(site, CreateRedex):
            threads.append([decompose(site.body), end, child_level, []])
            current.append(len(visits))
            visits.append((end, child, (current[me],)))
            stack.append(child)

    number = {0: 0}
    for _, group in itertools.groupby(sorted(creates, key=itemgetter(0)), key=itemgetter(0)):
        pending = list(group)
        while pending:  # a creator numbered in this instant gets a number above every creator numbered so far
            first = min((create for create in pending if create[1] in number), key=lambda create: number[create[1]])
            pending.remove(first)
            number[first[2]] = len(number)
    per_thread = {}
    for me in sorted(number, key=number.get):
        per_thread[number[me]] = 0
        for energy in threads[me][3]:
            per_thread[number[me]] += energy
    total = 0
    for energy in per_thread.values():
        total += energy
    makespan, value = realized[0]
    popped = []  # visit -> (time, number, turns since the heap last popped in order): the heap's pop order
    for time, me, after in visits:
        latest = max((popped[v] for v in after), default=(-math.inf, -1, 0))
        key = (time, number[me])
        popped.append((*key, 0) if key > latest[:2] else (*latest[:2], latest[2] + 1))
    records = [(number[c], number[p], *rest) for c, p, *rest, turn in sorted(claims, key=lambda c: popped[c[-1]])]
    return {"final_value": value.value, "makespan": makespan, "total_energy": total, "per_thread_energy": per_thread,
            "edp": total * makespan, "ed2p": total * makespan * makespan, "claim_records": tuple(records),
            "clamp_count": clamps, "transition_count": switches}


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'plus' | 'minus' | 'lparen' | 'rparen' | 'future' | 'eof'
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(Token("int", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word != "future":
                raise ParseError(line, start_col, f"unknown word {word!r}", ("future", "an integer"))
            tokens.append(Token("future", word, line, start_col))
            col += j - i
            i = j
            continue
        simple = {"+": "plus", "-": "minus", "(": "lparen", ")": "rparen"}
        if ch in simple:
            tokens.append(Token(simple[ch], ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(line, start_col, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens
