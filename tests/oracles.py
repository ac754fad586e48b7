"""Helpers the library no longer needs, kept as oracles for the tests.

They read a configuration through each closure's expression (``Closure.expr``),
not through its site, as the library did before closures held sites.
"""

from __future__ import annotations

from futsim.calculus import IntLit, _refocus, plug
from futsim.engine import EngineError, _shape


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
