"""Abstract syntax, configurations, and redex search for the futures calculus.

Expressions are integers, additions, future creations, and (at run time only)
future references. A configuration is an ordered collection of closures, one
per thread, each realizing a distinct future id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .scaling import FrequencyLadder, FrequencyLevel

FutureId = int

# Fixed-width arithmetic: both the sequential oracle and the Add rule wrap the
# same way, so they cannot disagree on overflow.
INT_BITS = 64
_INT_MIN = -(1 << (INT_BITS - 1))
_INT_MASK = (1 << INT_BITS) - 1


def wrap_int(n: int) -> int:
    """Wrap to 64-bit two's complement."""
    return ((n - _INT_MIN) & _INT_MASK) + _INT_MIN


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class FutureCreate:
    body: "Expression"


@dataclass(frozen=True)
class FutureRef:
    fid: FutureId


Expression = Union[IntLit, Add, FutureCreate, FutureRef]


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
    return any(isinstance(e, FutureRef) for e in subterms(expr))


def future_ref_ids(expr: Expression) -> list[FutureId]:
    """All future ids referenced in expr, in left-to-right occurrence order."""
    return [e.fid for e in subterms(expr) if isinstance(e, FutureRef)]


# ---------------------------------------------------------------------------
# Context paths and redex search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoleLeft:
    """Frame for an addition whose hole is the left operand: (hole + right)."""

    right: Expression


@dataclass(frozen=True)
class HoleRight:
    """Frame for an addition whose hole is the right operand: (left + hole)."""

    left: Expression


Frame = Union[HoleLeft, HoleRight]
Context = tuple[Frame, ...]


@dataclass(frozen=True)
class ArithRedex:
    context: Context
    left: int
    right: int
    # Set by ``_refocus`` when the expression holds no other redex (a claim made
    # this one); not part of the site's identity, so ``decompose`` leaves it False.
    _claim_phase: bool = field(default=False, kw_only=True, repr=False, compare=False)


@dataclass(frozen=True)
class CreateRedex:
    context: Context
    body: Expression


@dataclass(frozen=True)
class ClaimSite:
    context: Context
    target: FutureId


@dataclass(frozen=True)
class NoRedex:
    """No action left: the expression is the integer ``value``, a realized future."""

    value: IntLit


RedexSite = Union[ArithRedex, CreateRedex, ClaimSite, NoRedex]


def _search(frames: list[Frame], focus: Expression, claims: bool, climbing: bool) -> RedexSite:
    """The next action in ``plug(frames, focus)``, found by one loop over ``frames``.

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
    """
    while True:
        while climbing and frames:
            frame = frames.pop()
            if isinstance(frame, HoleLeft):
                left, right = focus, frame.right
            else:
                left, right = frame.left, focus
            if isinstance(left, IntLit) and isinstance(right, IntLit):
                return ArithRedex(tuple(frames), left.value, right.value, _claim_phase=claims)
            if isinstance(frame, HoleLeft) and not isinstance(right, IntLit):
                frames.append(HoleRight(left))
                focus, climbing = right, False
            else:
                focus = Add(left, right)
        if climbing:  # at the root: ``focus`` is the whole expression
            if claims:
                return NoRedex(focus)
            claims = True
        while isinstance(focus, Add):
            frames.append(HoleLeft(focus.right))
            focus = focus.left
        if isinstance(focus, FutureCreate):
            return CreateRedex(tuple(frames), focus.body)
        if claims and isinstance(focus, FutureRef):
            return ClaimSite(tuple(frames), focus.fid)
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
    return _search([], expr, False, False)


def plug(context: Context, filler: Expression) -> Expression:
    """Rebuild the expression a context was torn from; inverse of decompose."""
    expr = filler
    for frame in reversed(context):
        if isinstance(frame, HoleLeft):
            expr = Add(expr, frame.right)
        elif isinstance(frame, HoleRight):
            expr = Add(frame.left, expr)
        else:
            raise TypeError(f"not a context frame: {frame!r}")
    return expr


def _refocus(site: Union[ArithRedex, CreateRedex, ClaimSite], filler: Expression) -> RedexSite:
    """The site of ``plug(site.context, filler)``, found without plugging the hole.

    ``filler`` is the ``IntLit`` an Add or Claim produced, or the ``FutureRef``
    of a Create. The search climbs from the hole instead of starting at the
    root (refocusing, Danvy & Nielsen 2004), since nothing left of the hole's
    path holds a redex. After a claim the search stays in the claim phase,
    and the Add redex it may find keeps that phase for its own refocus.
    """
    if not isinstance(filler, (IntLit, FutureRef)):
        raise TypeError(f"a hole takes an integer or a future reference, not {type(filler).__name__}")
    claims = isinstance(filler, IntLit) and (
        isinstance(site, ClaimSite) or (isinstance(site, ArithRedex) and site._claim_phase)
    )
    return _search(list(site.context), filler, claims, True)


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

    A realized thread's site is ``NoRedex``, which holds its value. Every
    driver steps this record: ``run`` and ``simulate`` in place, while
    ``step`` and ``explore_with_stats`` step a copy and leave the records of
    the configuration they were given unchanged.
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
