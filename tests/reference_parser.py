"""A reference parser for the expression language of `resweave.expr`.

It is a plain recursive-descent parser over a tokenizer that matches one
token at a time, written for clarity rather than speed. It builds fresh
nodes for every leaf and shares nothing between calls. `tests/test_expr.py`
runs generated texts through it and through `expr.parse_expr` and requires
equal trees or the identical `ExprSyntaxError` text, column included.

pytest does not collect this file.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from resweave.expr import FALSE, MAX_DEPTH, TRUE, BinOp, Expr, ExprSyntaxError, IntLit, Not, Var, parse_int

# Each binary operator: its precedence (higher binds tighter) and whether it
# chains (left-associative) or is a comparison, which does not.
_BINARY = {
    "||": (1, True), "&&": (2, True),
    "<": (3, False), "<=": (3, False), ">": (3, False), ">=": (3, False), "==": (3, False), "!=": (3, False),
    "+": (4, True), "-": (4, True), "*": (5, True),
}

_OPERATORS = sorted([*_BINARY, "!", "(", ")"], key=len, reverse=True)  # longest match first

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + "))"
)


class _Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    column: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", col)
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent; each method returns the tree it parsed and its depth."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0  # '(' and '!' whose operand is being parsed

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept_op(self, *ops: str) -> _Token | None:
        token = self.peek()
        if token.kind == "op" and token.text in ops:
            return self.advance()
        return None

    def parse(self) -> Expr:
        result, _ = self.binary(1)
        trailing = self.peek()
        if trailing.kind != "end":
            raise ExprSyntaxError(f"unexpected {trailing.text!r}", trailing.column)
        return result

    def binary(self, min_precedence: int) -> tuple[Expr, int]:
        """Precedence climbing: operators binding at least `min_precedence`."""
        left, depth = self.unary()
        max_precedence = float("inf")
        while True:
            token = self.peek()
            spec = _BINARY.get(token.text) if token.kind == "op" else None
            if spec is None or not min_precedence <= spec[0] <= max_precedence:
                return left, depth
            self.advance()
            precedence, chains = spec
            right, right_depth = self.binary(precedence + 1)
            left = BinOp(token.text, left, right)
            depth = _deeper(max(depth, right_depth), token)
            max_precedence = precedence if chains else precedence - 1

    def unary(self) -> tuple[Expr, int]:
        token = self.accept_op("!")
        if token:
            operand, depth = self.nested(token, self.unary)
            return Not(operand), _deeper(depth, token)
        token = self.accept_op("-")
        if token:
            operand = self.peek()
            if operand.kind != "int":
                raise ExprSyntaxError("unary '-' is only allowed before an integer literal", token.column)
            self.advance()
            return _int_literal("-" + operand.text, operand.column), 1
        return self.atom()

    def atom(self) -> tuple[Expr, int]:
        token = self.advance()
        if token.kind == "int":
            return _int_literal(token.text, token.column), 1
        if token.kind == "ident":
            if token.text == "true":
                return TRUE, 1
            if token.text == "false":
                return FALSE, 1
            return Var(token.text), 1
        if token.kind == "op" and token.text == "(":
            inner = self.nested(token, lambda: self.binary(1))
            closing = self.peek()
            if closing.kind != "op" or closing.text != ")":
                raise ExprSyntaxError("expected ')'", closing.column)
            self.advance()
            return inner
        raise ExprSyntaxError(
            f"expected an operand, found {token.text!r}" if token.text else "unexpected end of expression",
            token.column,
        )

    def nested(self, token: _Token, parse):
        """`parse()` the operand of a '(' or '!', at most MAX_DEPTH of them deep."""
        if self.nesting == MAX_DEPTH:
            raise _too_deep(token)
        self.nesting += 1
        result = parse()
        self.nesting -= 1
        return result


def _deeper(depth: int, token: _Token) -> int:
    """The depth of the node `token` makes over a subtree `depth` deep."""
    if depth == MAX_DEPTH:
        raise _too_deep(token)
    return depth + 1


def _too_deep(token: _Token) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", token.column)


def _int_literal(text: str, column: int) -> IntLit:
    value = parse_int(text)
    if value is None:
        raise ExprSyntaxError("integer literal out of 64-bit range", column)
    return IntLit(value)


def parse_expr(text: str) -> Expr:
    """Parse expression text into a syntax tree."""
    return _Parser(text).parse()
