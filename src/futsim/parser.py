"""Concrete syntax: text to expressions and back.

Grammar: ``+`` is left-associative; ``future`` extends as far right as it can,
stopping only at a closing parenthesis or end of input; parentheses group;
integer literals are optionally signed decimals. ``#`` starts a line comment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import Add, Expression, FutureCreate, FutureRef, IntLit


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
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        where = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
        return ParseError(tok.line, tok.col, f"{message}, found {where}", expected)

    # expr ::= operand ('+' operand)*
    def expr(self) -> Expression:
        left = self.operand()
        while self.peek().kind == "plus":
            self.advance()
            left = Add(left, self.operand())
        return left

    # operand ::= 'future' expr | atom
    def operand(self) -> Expression:
        if self.peek().kind == "future":
            self.advance()
            return FutureCreate(self.expr())
        return self.atom()

    # atom ::= '(' expr ')' | ['+'|'-'] INT
    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "lparen":
            self.advance()
            inner = self.expr()
            if self.peek().kind != "rparen":
                raise self.error("unclosed parenthesis", ("')'",))
            self.advance()
            return inner
        sign = 1
        if tok.kind in ("minus", "plus"):
            self.advance()
            sign = -1 if tok.kind == "minus" else 1
            tok = self.peek()
            if tok.kind != "int":
                raise self.error("sign must precede an integer literal", ("an integer",))
        if tok.kind == "int":
            self.advance()
            return IntLit(sign * int(tok.text))
        raise self.error("expected an expression", ("an integer", "'('", "future"))


def parse(source: str) -> Expression:
    """Parse a program; raises ParseError with a source position on bad input."""
    parser = _Parser(_tokenize(source))
    expr = parser.expr()
    if parser.peek().kind != "eof":
        raise parser.error("trailing input after expression")
    return expr


def _atomic(expr: Expression) -> bool:
    return isinstance(expr, (IntLit, FutureRef))


def _render(expr: Expression, followed: bool) -> str:
    """Render; ``followed`` means more tokens come after this subterm, so any
    future on its right spine must be fenced off with parentheses."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, FutureRef):
        return f"fv{expr.fid}"
    if isinstance(expr, FutureCreate):
        if followed:
            return f"(future {_render(expr.body, False)})"
        if _atomic(expr.body):
            return f"future {_render(expr.body, False)}"
        return f"future ({_render(expr.body, False)})"
    if isinstance(expr, Add):
        left = _render(expr.left, True)
        if isinstance(expr.right, Add):
            right = f"({_render(expr.right, False)})"
        else:
            right = _render(expr.right, followed)
        return f"{left} + {right}"
    raise TypeError(f"not an expression: {expr!r}")


def unparse(expr: Expression) -> str:
    """Render an expression so that ``parse(unparse(e)) == e`` for ref-free e."""
    return _render(expr, False)
