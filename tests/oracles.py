"""Helpers the library no longer needs, kept as oracles for the tests.

They read a configuration through each closure's expression (``Closure.expr``),
not through its site, as the library did before closures held sites.
"""

from __future__ import annotations

from futsim.calculus import IntLit, _refocus, plug


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
