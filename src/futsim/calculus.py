"""Abstract syntax, configurations, and redex search for the futures calculus.

Expressions are integers, additions, future creations, and (at run time only)
future references. A configuration is an ordered collection of closures, one
per thread, each realizing a distinct future id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from .scaling import FrequencyLevel

FutureId = int

# Fixed-width arithmetic: both the sequential oracle and the Add rule wrap the
# same way, so they cannot disagree on overflow.
INT_BITS = 64
_INT_MIN = -(1 << (INT_BITS - 1))
_INT_MAX = (1 << (INT_BITS - 1)) - 1
_INT_MASK = (1 << INT_BITS) - 1


def wrap_int(n: int) -> int:
    """Wrap to 64-bit two's complement."""
    return ((n - _INT_MIN) & _INT_MASK) + _INT_MIN


# The value classes are slotted: a rule step builds about one node, and a
# slotted instance has no ``__dict__`` to build.
@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class FutureCreate:
    body: "Expression"


@dataclass(frozen=True, slots=True)
class FutureRef:
    fid: FutureId


Expression = Union[IntLit, Add, FutureCreate, FutureRef]

# Hot builds skip the Python-level constructors: a frozen dataclass's
# ``__init__`` runs one ``object.__setattr__`` per field in Python, and a
# named tuple's ``__new__`` binds its arguments in Python before it calls
# ``tuple.__new__``. ``object.__new__`` and the slot descriptors' ``__set__``
# build the same node, and ``tuple.__new__`` of a class and a tuple of all its
# fields the same tuple, with no Python frame.
_new_object = object.__new__
_set_left = Add.left.__set__
_set_right = Add.right.__set__
_set_value = IntLit.value.__set__
_set_body = FutureCreate.body.__set__
_new_tuple = tuple.__new__


def subterms(expr: Expression) -> Iterator[Expression]:
    """Every subterm of expr, expr first, in left-to-right pre-order.

    The walk keeps an explicit stack, so nesting depth costs no recursion.
    """
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Add):
            stack += (e.right, e.left)
        elif isinstance(e, FutureCreate):
            stack.append(e.body)


def node_count(expr: Expression) -> int:
    return sum(1 for _ in subterms(expr))


def contains_future_ref(expr: Expression) -> bool:
    """Whether expr holds a ``FutureRef``: one loop, since every run checks its program with it."""
    stack = [expr]
    while stack:
        e = stack.pop()
        kind = e.__class__
        if kind is Add:
            stack.append(e.left)
            stack.append(e.right)
        elif kind is FutureCreate:
            stack.append(e.body)
        elif kind is FutureRef:
            return True
    return False


# ---------------------------------------------------------------------------
# Context paths and redex search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class HoleLeft:
    """Frame for an addition whose hole is the left operand: (hole + right)."""

    right: Expression


@dataclass(frozen=True, slots=True)
class HoleRight:
    """Frame for an addition whose hole is the right operand: (left + hole)."""

    left: Expression


Frame = Union[HoleLeft, HoleRight]


class Context:
    """An evaluation context E[·]: a persistent linked list of frames, innermost first.

    A context is its innermost cell: the ``operand`` beside the hole, the
    context ``outer`` its frame sits in, and ``depth``, the number of
    frames. The cell's class gives the hole's side (one private subclass
    per frame kind, both built through ``Context.__init__``), so pushing a
    frame builds one object, and ``frame``, the ``HoleLeft`` or
    ``HoleRight``, is built only when it is read. Pushing a frame shares
    every outer cell (Huet's zipper), so a context that a step pops or
    pushes costs O(1), and a frame has the same outer frames in every
    context that holds its cell.

    It reads like the tuple of its frames, outermost first: ``len`` is the
    stored depth, iteration goes outermost first (materialising the frames
    once), ``reversed`` goes innermost first without a copy, and ``==``,
    ``hash`` and ``repr`` are those of the tuple, each computed by a loop.
    ``Context.of`` builds one from a tuple.
    """

    __slots__ = ("operand", "outer", "depth")

    def __init__(self, operand: Expression, outer: "Context"):
        self.operand = operand
        self.outer = outer
        self.depth = outer.depth + 1

    @property
    def frame(self) -> Frame | None:
        """The innermost frame, built on read; ``None`` for the empty context."""
        return None

    @classmethod
    def of(cls, frames: "Context | tuple[Frame, ...]") -> "Context":
        """The context of ``frames``, outermost first; a context is returned as it is."""
        if isinstance(frames, Context):
            return frames
        context = EMPTY_CONTEXT
        for frame in frames:
            if isinstance(frame, HoleLeft):
                context = _HoleLeftCell(frame.right, context)
            elif isinstance(frame, HoleRight):
                context = _HoleRightCell(frame.left, context)
            else:
                raise TypeError(f"not a context frame: {frame!r}")
        return context

    def __len__(self) -> int:
        return self.depth

    def __reversed__(self) -> Iterator[Frame]:
        cell = self
        while cell.depth:
            yield cell.frame
            cell = cell.outer

    def __iter__(self) -> Iterator[Frame]:
        frames = list(reversed(self))
        frames.reverse()
        return iter(frames)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, tuple):
            return len(other) == self.depth and all(a == b for a, b in zip(reversed(self), reversed(other)))
        if not isinstance(other, Context):
            return NotImplemented
        if self.depth != other.depth:
            return False
        a, b = self, other
        while a is not b and a.depth:  # from a shared cell outward, the frames are the same
            if a.__class__ is not b.__class__ or a.operand != b.operand:
                return False
            a, b = a.outer, b.outer
        return True

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _HoleLeftCell(Context):
    """A cell whose frame is ``HoleLeft(operand)``: the hole is the left operand."""

    __slots__ = ()

    @property
    def frame(self) -> HoleLeft:
        return HoleLeft(self.operand)


class _HoleRightCell(Context):
    """A cell whose frame is ``HoleRight(operand)``: the hole is the right operand."""

    __slots__ = ()

    @property
    def frame(self) -> HoleRight:
        return HoleRight(self.operand)


EMPTY_CONTEXT = object.__new__(Context)
EMPTY_CONTEXT.operand = EMPTY_CONTEXT.outer = None
EMPTY_CONTEXT.depth = 0


# Sites are named tuples: a step builds one, and a tuple builds in a fraction
# of a frozen dataclass's time. No two kinds compare equal: their lengths or
# their second fields' types differ.
class ArithRedex(NamedTuple):
    context: Context
    left: int
    right: int

    # True only on the sites ``_refocus`` finds after a claim, when the
    # expression holds no other redex; not part of the site's identity, so
    # ``decompose`` gives the plain class.
    _claim_phase = False


class _ClaimPhaseArithRedex(ArithRedex):
    """An Add redex found in the claim phase; equal to, and printed as, the plain site."""

    __slots__ = ()
    _claim_phase = True

    def __repr__(self) -> str:
        return "ArithRedex" + super().__repr__()[len(type(self).__name__):]


class CreateRedex(NamedTuple):
    context: Context
    body: Expression


class ClaimSite(NamedTuple):
    context: Context
    target: FutureId


class NoRedex(NamedTuple):
    """No action left: the expression is the integer ``value``, a realized future."""

    value: IntLit


RedexSite = Union[ArithRedex, CreateRedex, ClaimSite, NoRedex]


def _search(context: Context, focus: Expression, claims: bool, climbing: bool) -> RedexSite:
    """The next action in ``plug(context, focus)``, found by one loop over the context's cells.

    Descending walks down the left spine: a ``FutureCreate`` is a Create redex
    (evaluation never enters its body), in the claim phase a ``FutureRef`` is
    a claim site, and any other leaf starts a climb. Climbing pops a frame:
    two integer operands are an Add redex, and a ``HoleLeft`` leaves its right
    sibling to descend into unless that is an integer. A climb that reaches
    the root starts the claim phase there, which ends at the root with
    ``NoRedex``: by then every leaf was visited, and any ``FutureCreate``,
    ``FutureRef`` or pair of integers returned, so ``focus`` is one integer.
    The claim phase only searches subtrees that hold no redex: it
    starts when none is left anywhere, or after a claim, when only the hole's
    parent can be one. So both phases can look for every kind of action.
    With ``climbing`` set, the walk starts by climbing from ``focus``, which
    must hold no action.

    The context is used as a stack: a pop steps to ``outer`` and a push
    builds one cell on top, which holds the operand beside the hole (a
    climb through a ``HoleLeft`` cell pushes a ``HoleRight`` one), and the
    site holds the innermost cell; no frame is built. So a step does
    O(1) context work outside the subtree it descends into, and every cell
    keeps the outer cells it was built on; the trace writer memoises its
    text per cell on that. Sites and the sums a climb rebuilds are built
    with no Python-level constructor (see ``_new_object``).
    """
    while True:
        while climbing and context.depth:
            hole_left = context.__class__ is _HoleLeftCell
            if hole_left:
                left, right = focus, context.operand
            else:
                left, right = context.operand, focus
            context = context.outer
            if left.__class__ is IntLit and right.__class__ is IntLit:
                return _new_tuple(_ClaimPhaseArithRedex if claims else ArithRedex,
                                  (context, left.value, right.value))
            if hole_left and right.__class__ is not IntLit:
                context = _HoleRightCell(left, context)
                focus, climbing = right, False
            else:
                focus = _new_object(Add)
                _set_left(focus, left)
                _set_right(focus, right)
        if climbing:  # at the root: ``focus`` is the whole expression
            if claims:
                return _new_tuple(NoRedex, (focus,))
            claims = True
        while focus.__class__ is Add:
            context = _HoleLeftCell(focus.right, context)
            focus = focus.left
        if focus.__class__ is FutureCreate:
            return _new_tuple(CreateRedex, (context, focus.body))
        if claims and focus.__class__ is FutureRef:
            return _new_tuple(ClaimSite, (context, focus.fid))
        climbing = True


def decompose(expr: Expression) -> RedexSite:
    """Locate the unique next action in an expression.

    Left-to-right order: the leftmost addition-of-integers or future-creation
    redex wins; only when no redex remains anywhere does the expression expose
    a claim, at its leftmost future reference. Descent skips over claim-pending
    subterms, which keeps the search total: restricting descent to value-only
    left siblings would strand reducible work to the right of a pending claim
    (e.g. ``(fv1 + fv2) + (3 + 4)``) with no applicable rule.

    A bare integer is the only expression with no action left.
    """
    return _search(EMPTY_CONTEXT, expr, False, False)


def plug(context: Context | tuple[Frame, ...], filler: Expression) -> Expression:
    """Rebuild the expression a context (or the tuple of its frames) was torn from; inverse of decompose.

    Each frame is read from its cell's class and operand, so none is built.
    """
    expr = filler
    context = Context.of(context)
    while context.depth:
        if context.__class__ is _HoleLeftCell:
            expr = Add(expr, context.operand)
        else:
            expr = Add(context.operand, expr)
        context = context.outer
    return expr


def _refocus(site: Union[ArithRedex, CreateRedex, ClaimSite], filler: Expression) -> RedexSite:
    """The site of ``plug(site.context, filler)``, found without plugging the hole.

    ``filler`` is the ``IntLit`` an Add or Claim produced, or the ``FutureRef``
    of a Create. The search climbs from the hole instead of starting at the
    root (refocusing, Danvy & Nielsen 2004), since nothing left of the hole's
    path holds a redex. After a claim the search stays in the claim phase,
    and the Add redex it may find keeps that phase for its own refocus.
    """
    kind = filler.__class__
    if kind is IntLit:
        claims = site.__class__ is ClaimSite or site.__class__ is _ClaimPhaseArithRedex
    elif kind is FutureRef:
        claims = False
    else:
        raise TypeError(f"a hole takes an integer or a future reference, not {kind.__name__}")
    context = site.context
    if isinstance(context, tuple):
        context = Context.of(context)
    return _search(context, filler, claims, True)


def eval_sequential(expr: Expression) -> int:
    """Evaluate with every future erased; the determinacy oracle.

    Wrapping is addition modulo 2**64, so wrapping the sum of the literals once
    gives what wrapping after each addition would.
    """
    total = 0
    for e in subterms(expr):
        if isinstance(e, IntLit):
            total += e.value
        elif isinstance(e, FutureRef):
            raise ValueError("cannot sequentially evaluate an expression holding future references")
    return wrap_int(total)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Closure:
    """One thread: its frequency, its next redex site, and the future id it realizes.

    A realized thread's site is ``NoRedex``, which holds its value. The
    kernel's drivers step this record: ``run`` in place, while ``step`` and
    ``explore_with_stats`` step a copy and leave the records of the
    configuration they were given unchanged.
    """

    freq: FrequencyLevel
    site: RedexSite
    realizes: FutureId

    @property
    def expr(self) -> Expression:
        """The thread's expression: the site's focus plugged back into its context."""
        site = self.site
        if isinstance(site, NoRedex):
            return site.value
        if isinstance(site, ArithRedex):
            focus: Expression = Add(IntLit(site.left), IntLit(site.right))
        elif isinstance(site, CreateRedex):
            focus = FutureCreate(site.body)
        else:
            focus = FutureRef(site.target)
        return plug(site.context, focus)


@dataclass(frozen=True)
class Configuration:
    """Ordered closures, most recently created first, plus the fresh-id counter."""

    closures: tuple[Closure, ...]
    next_fresh: FutureId
    root: FutureId


def initial_configuration(expr: Expression, level: FrequencyLevel) -> Configuration:
    return Configuration(closures=(Closure(level, decompose(expr), 0),), next_fresh=1, root=0)
