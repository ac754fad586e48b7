"""Helpers the library no longer needs, kept as oracles for the tests.

The configuration helpers read a configuration through each closure's
expression (``Closure.expr``), not through its site, as the library did before
closures held sites; ``trace_snippet`` renders a compute record's ``expr`` as
the trace writer did before it memoised its context frames. ``Token`` and
``_tokenize`` are the character-by-character lexer the parser used before its
one regex.
"""

from __future__ import annotations

from dataclasses import dataclass

from futsim.calculus import IntLit, _refocus, plug
from futsim.cli import EXPR_SNIPPET_CHARS, _snippet
from futsim.engine import EngineError, _shape
from futsim.parser import ParseError, unparse


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


def trace_snippet(context, filler):
    """A compute record's ``expr``: the whole hole rendered by one bounded
    ``unparse`` through its context, then cut, once per record."""
    return _snippet(unparse(filler, EXPR_SNIPPET_CHARS, context))


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
