"""Concrete syntax: text to expressions and back.

Grammar: ``+`` is left-associative; ``future`` extends as far right as it can,
stopping only at a closing parenthesis or end of input; parentheses group;
integer literals are optionally signed ASCII decimals that fit in 64 bits
(two's complement). ``#`` starts a line comment.
"""

from __future__ import annotations

import re
from itertools import islice

from .calculus import Add, Expression, FutureCreate, FutureRef, IntLit, wrap_int


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.message = message
        self.expected = expected
        hint = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


# A match skips blanks and the comments that end a line, then takes one token's
# text. A token's kind is read off that text: an ASCII digit starts an integer,
# '+', '-', '(', ')' and "future" are themselves, and the end of input is empty
# or, when a comment is on the last line, starts at its '#'. Any other text is a
# stray character or an unknown word.
_LEX = re.compile(r"""\s*(?:\#.*\n\s*)*([0-9]+|[-+()]|future\b|(?:\#.*)?\Z|\w+|.)""")
_FIXED = frozenset(("future", "+", "-", "(", ")"))  # texts that are their own kind


def _error(source: str, texts: list[str], index: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """The ParseError at token ``index``, found only once parsing has failed.

    A lexical error anywhere wins over the syntax error at ``index``, so the
    texts are scanned for one first. The source is then lexed again up to the
    failing token for its offset; a message ending in "found" goes on to name
    the token.
    """
    for i, text in enumerate(texts):
        if text[:1] in "#":  # the end of input: "" or a comment on the last line
            break
        if not ("0" <= text[0] <= "9" or text in _FIXED):
            index = i
            if text[0].isalpha() or text[0] == "_":
                message, expected = f"unknown word {text!r}", ("future", "an integer")
            else:
                message, expected = f"unexpected character {text[0]!r}", ()
            break
    match = next(islice(_LEX.finditer(source), index, None))
    text, offset = match[1], match.start(1)
    if message.endswith(", found"):
        message += " end of input" if text[:1] in "#" else f" {text!r}"
    line_start = source.rfind("\n", 0, offset) + 1
    return ParseError(source.count("\n", 0, line_start) + 1, offset - line_start + 1, message, expected)


def parse(source: str) -> Expression:
    """Parse a program; raises ParseError with a source position on bad input.

    expr ::= operand ('+' operand)*, operand ::= 'future' expr | '(' expr ')'
    | ['+'|'-'] INT. One loop walks the token texts with an explicit stack of
    the open ``future`` and ``(`` frames, so nesting depth costs no recursion.
    Each frame holds the sum to its left. A ``future`` closes at the first
    token that does not continue its sum, and a ``(`` closes at its ``)``.
    Equal literal texts share one leaf.
    """
    texts = _LEX.findall(source)
    leaves: dict[str, IntLit] = {}  # signed literal text -> its leaf
    frames: list[tuple[str, Expression | None]] = []
    left: Expression | None = None  # the sum so far in the innermost open frame
    pos = 0
    while True:
        text = texts[pos]
        operand: Expression | None = leaves.get(text)
        if operand is None:
            if text == "future" or text == "(":
                frames.append((text, left))
                left = None
                pos += 1
                continue
            start = pos
            if text == "-" or text == "+":
                pos += 1
                digits = texts[pos]
                if not "0" <= digits[:1] <= "9":
                    raise _error(source, texts, pos, "sign must precede an integer literal, found", ("an integer",))
                text = "-" + digits if text == "-" else digits
                operand = leaves.get(text)
            elif "0" <= text[:1] <= "9":
                digits = text
            else:
                raise _error(source, texts, pos, "expected an expression, found", ("an integer", "'('", "future"))
            if operand is None:
                # 2**63 has 19 digits; counting them first keeps int() off
                # literals too long for it to convert.
                value = int(text) if len(digits.lstrip("0")) <= 19 else None
                if value is None or wrap_int(value) != value:
                    raise _error(source, texts, start, "integer literal outside 64 bits (-2**63 to 2**63-1)")
                operand = leaves[text] = IntLit(value)
        pos += 1
        # Add the operand to the open sum, then close every frame that the
        # next token ends, until a '+' asks for another operand.
        while True:
            left = operand if left is None else Add(left, operand)
            text = texts[pos]
            if text == "+":
                pos += 1
                break
            if not frames:
                if text[:1] not in "#":  # neither "" nor "#..." (the end of input)
                    raise _error(source, texts, pos, "trailing input after expression, found")
                return left
            kind, outer = frames.pop()
            if kind == "future":
                operand = FutureCreate(left)
            elif text == ")":
                operand = left
                pos += 1
            else:
                raise _error(source, texts, pos, "unclosed parenthesis, found", ("')'",))
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
