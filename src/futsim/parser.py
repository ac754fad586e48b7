"""Concrete syntax: text to expressions and back.

Grammar: ``+`` is left-associative; ``future`` extends as far right as it can,
stopping only at a closing parenthesis or end of input; parentheses group;
integer literals are optionally signed ASCII decimals that fit in 64 bits
(two's complement). ``#`` starts a line comment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import Add, Context, Expression, FutureCreate, FutureRef, HoleLeft, IntLit, wrap_int


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.message = message
        self.expected = expected
        hint = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


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


def _found(tok: Token, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    where = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
    return ParseError(tok.line, tok.col, f"{message}, found {where}", expected)


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
        kind = tok.kind
        if kind == "future" or kind == "lparen":
            frames.append((kind, left))
            left = None
            pos += 1
            continue
        sign = -1 if kind == "minus" else 1
        if kind == "minus" or kind == "plus":
            pos += 1
            tok = tokens[pos]
            if tok.kind != "int":
                raise _found(tok, "sign must precede an integer literal", ("an integer",))
        elif kind != "int":
            raise _found(tok, "expected an expression", ("an integer", "'('", "future"))
        # 2**63 has 19 digits; counting them first keeps int() off literals
        # too long for it to convert.
        value = sign * int(tok.text) if len(tok.text.lstrip("0")) <= 19 else None
        if value is None or wrap_int(value) != value:
            raise ParseError(start.line, start.col, "integer literal outside 64 bits (-2**63 to 2**63-1)")
        operand: Expression = IntLit(value)
        pos += 1
        # Add the operand to the open sum, then close every frame that the
        # next token ends, until a '+' asks for another operand.
        while True:
            left = operand if left is None else Add(left, operand)
            tok = tokens[pos]
            if tok.kind == "plus":
                pos += 1
                break
            if not frames:
                if tok.kind != "eof":
                    raise _found(tok, "trailing input after expression")
                return left
            kind, outer = frames.pop()
            if kind == "future":
                operand = FutureCreate(left)
            elif tok.kind == "rparen":
                operand = left
                pos += 1
            else:
                raise _found(tok, "unclosed parenthesis", ("')'",))
            left = outer


def _atomic(expr: Expression) -> bool:
    return isinstance(expr, (IntLit, FutureRef))


def unparse(expr: Expression, limit: int | None = None, context: Context = ()) -> str:
    """Render ``plug(context, expr)`` without building it, so that
    ``parse(unparse(e)) == e`` for ref-free e.

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
    depth = len(context)
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
            right = context[last].right
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
                    while end < depth and context[end].__class__ is HoleLeft:
                        end += 1
                    if end > index:
                        todo.append(range(index, end))
                        followed = True
                    if end == depth:
                        node = expr
                        cls = node.__class__
                        continue
                    left, right = context[end].left, ((end + 1,) if end + 1 < depth else expr)
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
