"""Concrete syntax: text to expressions and back.

Grammar: ``+`` is left-associative; ``future`` extends as far right as it can,
stopping only at a closing parenthesis or end of input; parentheses group;
integer literals are optionally signed ASCII decimals that fit in 64 bits
(two's complement). ``#`` starts a line comment.
"""

from __future__ import annotations

import re

from .calculus import Add, Expression, FutureCreate, FutureRef, IntLit, wrap_int


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.message = message
        self.expected = expected
        hint = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


# A match skips blanks and the comments that end a line, then takes a token of
# the kind its group names. A comment on the last line belongs to ``eof``, so the
# end of input is at its '#'. ``bad`` is a stray character or an unknown word.
_TOKEN = re.compile(r"""\s*(?:\#.*\n\s*)*
    (?:(?P<int>[0-9]+)|(?P<future>future\b)|(?P<plus>\+)|(?P<minus>-)|(?P<lparen>\()|(?P<rparen>\))
    |(?P<eof>(?:\#.*)?\Z)|(?P<bad>\w+|.))""", re.VERBOSE)


def _error(source: str, token: tuple[str, str, int], message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """The ParseError at ``token``, positioned from its offset so that lexing
    counts no lines; a message ending in "found" goes on to name the token."""
    kind, text, offset = token
    if message.endswith(", found"):
        message += " end of input" if kind == "eof" else f" {text!r}"
    line_start = source.rfind("\n", 0, offset) + 1
    return ParseError(source.count("\n", 0, line_start) + 1, offset - line_start + 1, message, expected)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of ``source``, ending in ``eof``. All are
    lexed before parsing starts, so a lexical error wins over a syntax error."""
    tokens = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        tokens.append((kind, text := match[kind], match.start(kind)))
        if kind == "bad":
            if text[0].isalpha() or text[0] == "_":
                raise _error(source, tokens[-1], f"unknown word {text!r}", ("future", "an integer"))
            raise _error(source, tokens[-1], f"unexpected character {text[0]!r}")
        if kind == "eof":
            return tokens


def parse(source: str) -> Expression:
    """Parse a program; raises ParseError with a source position on bad input.

    expr ::= operand ('+' operand)*, operand ::= 'future' expr | '(' expr ')'
    | ['+'|'-'] INT. One loop walks the tokens with an explicit stack of the
    open ``future`` and ``(`` frames, so nesting depth costs no recursion.
    Each frame holds the sum to its left. A ``future`` closes at the first
    token that does not continue its sum, and a ``(`` closes at its ``)``.
    """
    tokens = _tokenize(source)
    frames: list[tuple[str, Expression | None]] = []
    left: Expression | None = None  # the sum so far in the innermost open frame
    pos = 0
    while True:
        tok = start = tokens[pos]
        kind = tok[0]
        if kind == "future" or kind == "lparen":
            frames.append((kind, left))
            left = None
            pos += 1
            continue
        sign = -1 if kind == "minus" else 1
        if kind == "minus" or kind == "plus":
            pos += 1
            tok = tokens[pos]
            if tok[0] != "int":
                raise _error(source, tok, "sign must precede an integer literal, found", ("an integer",))
        elif kind != "int":
            raise _error(source, tok, "expected an expression, found", ("an integer", "'('", "future"))
        # 2**63 has 19 digits; counting them first keeps int() off literals
        # too long for it to convert.
        value = sign * int(tok[1]) if len(tok[1].lstrip("0")) <= 19 else None
        if value is None or wrap_int(value) != value:
            raise _error(source, start, "integer literal outside 64 bits (-2**63 to 2**63-1)")
        operand: Expression = IntLit(value)
        pos += 1
        # Add the operand to the open sum, then close every frame that the
        # next token ends, until a '+' asks for another operand.
        while True:
            left = operand if left is None else Add(left, operand)
            tok = tokens[pos]
            if tok[0] == "plus":
                pos += 1
                break
            if not frames:
                if tok[0] != "eof":
                    raise _error(source, tok, "trailing input after expression, found")
                return left
            kind, outer = frames.pop()
            if kind == "future":
                operand = FutureCreate(left)
            elif tok[0] == "rparen":
                operand = left
                pos += 1
            else:
                raise _error(source, tok, "unclosed parenthesis, found", ("')'",))
            left = outer


def _atomic(expr: Expression) -> bool:
    return isinstance(expr, (IntLit, FutureRef))


def unparse(expr: Expression, limit: int | None = None) -> str:
    """Render ``expr`` so that ``parse(unparse(e)) == e`` for ref-free e.

    With ``limit``, rendering stops once the text is longer than ``limit``
    characters: the result is the whole text or a prefix of it longer than
    ``limit``. One loop over an explicit stack does the work, so nesting depth
    costs no recursion. The stack holds text still to write and (node,
    followed) pairs still to render. ``followed`` means more tokens come after
    the node, so a future on its right spine must be fenced off with
    parentheses.
    """
    pieces: list[str] = []
    size = 0
    todo: list = [(expr, False)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            text = item
        else:
            node, followed = item
            cls = node.__class__
            while cls is Add:  # down the left spine of the sums
                right = node.right
                cls = right.__class__
                if cls is IntLit:
                    todo.append(f" + {right.value}")
                elif cls is Add:
                    todo += (")", (right, False), " + (")
                else:
                    todo += ((right, followed), " + ")
                node, followed = node.left, True
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
