"""Guard and action expression language.

Integer/boolean expressions over named variables, used in transition guards,
guarded entry/exit actions, assignment right-hand sides, and invariant
predicates. Grammar:

    expr   := unary (BINOP unary)*
    unary  := '!' unary | '-' INT | atom
    atom   := INT | 'true' | 'false' | IDENT | '(' expr ')'

BINOP is any operator of `_BINARY`, loosest binding first: '||'; '&&'; the
non-chaining comparisons '<' '<=' '>' '>=' '==' '!='; '+' '-'; '*'.

Comparisons apply to integers, logical connectives to booleans, and there is
no division. Variable names may be dotted (``RES.tPA``). Unary minus is only
accepted in front of an integer literal and folds into the literal.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from .errors import ResweaveError

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

KIND_INTEGER = "integer"
KIND_BOOLEAN = "boolean"

# The deepest expression tree accepted, in nodes from the root to a leaf, and
# the most '(' and '!' one expression may nest. It keeps every recursive walk
# of a tree (evaluation, printing, typing, code generation) far from Python's
# recursion limit, and the code `compile_expr` generates inside CPython's
# limit of 200 nested brackets.
MAX_DEPTH = 100


class ExprError(ResweaveError):
    pass


class ExprSyntaxError(ExprError):
    """Malformed expression text; `column` is 1-based within the text."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class ExprTypeError(ExprError):
    pass


class EvalError(ExprError):
    pass


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[IntLit, BoolLit, Var, Not, BinOp]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


class _Binary(NamedTuple):
    precedence: int  # higher binds tighter
    operand: str  # kind both operands must have
    result: str
    apply: Callable
    python: str  # the Python operator `compile_expr` emits; strict in both operands, like `apply`


# Every binary operator, its syntax, typing and meaning. An operator whose
# result kind differs from its operand kind (a comparison) does not chain;
# the others are left-associative.
_BINARY = {
    "||": _Binary(1, KIND_BOOLEAN, KIND_BOOLEAN, operator.or_, "|"),
    "&&": _Binary(2, KIND_BOOLEAN, KIND_BOOLEAN, operator.and_, "&"),
    "<": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.lt, "<"),
    "<=": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.le, "<="),
    ">": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.gt, ">"),
    ">=": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.ge, ">="),
    "==": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.eq, "=="),
    "!=": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.ne, "!="),
    "+": _Binary(4, KIND_INTEGER, KIND_INTEGER, operator.add, "+"),
    "-": _Binary(4, KIND_INTEGER, KIND_INTEGER, operator.sub, "-"),
    "*": _Binary(5, KIND_INTEGER, KIND_INTEGER, operator.mul, "*"),
}

# What evaluation needs of `_BINARY`: the Python type of both operands, and the operation.
_EVAL = {op: (bool if spec.operand == KIND_BOOLEAN else int, spec.apply) for op, spec in _BINARY.items()}

_OPERATORS = sorted([*_BINARY, "!", "(", ")"], key=len, reverse=True)  # longest match first

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + "))"
)

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
DOTTED_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*\Z")

_RESERVED = {"true", "false", "raise", "entry", "exit", "tick", "imply"}


def is_reserved_word(name: str) -> bool:
    return name in _RESERVED


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
        """Precedence climbing over `_BINARY`: operators binding at least `min_precedence`."""
        left, depth = self.unary()
        max_precedence = float("inf")
        while True:
            token = self.peek()
            spec = _BINARY.get(token.text) if token.kind == "op" else None
            if spec is None or not min_precedence <= spec.precedence <= max_precedence:
                return left, depth
            self.advance()
            right, right_depth = self.binary(spec.precedence + 1)
            # Interned: a large model holds thousands of these operator strings.
            left = BinOp(sys.intern(token.text), left, right)
            depth = _deeper(max(depth, right_depth), token)
            max_precedence = spec.precedence if _chains(spec) else spec.precedence - 1

    def unary(self) -> tuple[Expr, int]:
        token = self.accept_op("!")
        if token:
            operand, depth = self.nested(token, self.unary)
            return Not(operand), _deeper(depth, token)
        token = self.accept_op("-")
        if token:
            operand = self.peek()
            if operand.kind != "int":
                raise ExprSyntaxError(
                    "unary '-' is only allowed before an integer literal", token.column
                )
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


def _chains(spec: _Binary) -> bool:
    return spec.operand == spec.result


def _int_literal(text: str, column: int) -> IntLit:
    value = int(text)
    if not INT_MIN <= value <= INT_MAX:
        raise ExprSyntaxError("integer literal out of 64-bit range", column)
    return IntLit(value)


def parse_expr(text: str) -> Expr:
    """Parse expression text into a syntax tree."""
    return _Parser(text).parse()


def to_text(expr: Expr, rename=None) -> str:
    """Render a syntax tree in canonical form (reparses to an equal tree).

    `rename` optionally maps variable names, e.g. for identifier flattening.
    """
    return _render(expr, rename)


def _render(expr: Expr, rename) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Var):
        return rename(expr.name) if rename else expr.name
    if isinstance(expr, Not):
        inner = _render(expr.operand, rename)
        if isinstance(expr.operand, BinOp):
            inner = f"({inner})"
        return f"!{inner}"
    spec = _BINARY[expr.op]
    left = _render_side(expr.left, spec, right_side=False, rename=rename)
    right = _render_side(expr.right, spec, right_side=True, rename=rename)
    joiner = f" {expr.op} " if spec.operand == KIND_BOOLEAN else expr.op  # connectives are spaced
    return f"{left}{joiner}{right}"


def _render_side(child: Expr, parent: _Binary, right_side: bool, rename) -> str:
    text = _render(child, rename)
    if not isinstance(child, BinOp):
        return text
    child_prec = _BINARY[child.op].precedence
    # A left-associative parent keeps an equal-precedence child unbracketed
    # only on its left; a non-chaining parent brackets it on either side.
    if child_prec < parent.precedence or (
        child_prec == parent.precedence and (right_side or not _chains(parent))
    ):
        return f"({text})"
    return text


def type_of(expr: Expr, kinds: Mapping[str, str]) -> str:
    """Infer the kind of a well-typed expression, else raise ExprTypeError.

    `kinds` maps declared variable names to "integer" or "boolean".
    """
    if isinstance(expr, IntLit):
        return KIND_INTEGER
    if isinstance(expr, BoolLit):
        return KIND_BOOLEAN
    if isinstance(expr, Var):
        kind = kinds.get(expr.name)
        if kind is None:
            raise ExprTypeError(f"unknown variable '{expr.name}'")
        return kind
    if isinstance(expr, Not):
        if type_of(expr.operand, kinds) != KIND_BOOLEAN:
            raise ExprTypeError("'!' requires a boolean operand")
        return KIND_BOOLEAN
    # Type both operands first, so an unknown variable is reported before a
    # kind mismatch.
    left = type_of(expr.left, kinds)
    right = type_of(expr.right, kinds)
    spec = _BINARY[expr.op]
    if left != spec.operand or right != spec.operand:
        raise ExprTypeError(f"'{expr.op}' requires {spec.operand} operands")
    return spec.result


def eval_expr(expr: Expr, valuation: Mapping[str, int | bool]) -> int | bool:
    """Evaluate against a complete valuation; strict in both operands."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Var):
        try:
            return valuation[expr.name]
        except KeyError:
            raise EvalError(f"unbound variable '{expr.name}'") from None
    if isinstance(expr, Not):
        return not _expect_bool(eval_expr(expr.operand, valuation), "!")
    left = eval_expr(expr.left, valuation)
    right = eval_expr(expr.right, valuation)
    operand_type, apply = _EVAL[expr.op]
    if type(left) is not operand_type or type(right) is not operand_type:
        expect = _expect_bool if operand_type is bool else _expect_int
        left, right = expect(left, expr.op), expect(right, expr.op)
    return apply(left, right)


def compile_expr(expr: Expr, kinds: Mapping[str, str]) -> Callable[[Mapping[str, int | bool]], int | bool]:
    """One Python function of the valuation that computes what `eval_expr` does.

    The tree is type-checked against `kinds` first (ExprTypeError if it is
    ill-typed): the generated code relies on it, because its operators do not
    check the kinds of their operands the way `eval_expr` does.
    """
    type_of(expr, kinds)
    return eval(f"lambda v: {_python(expr)}", {"__builtins__": {}})


def _python(expr: Expr) -> str:
    if isinstance(expr, (IntLit, BoolLit)):
        return repr(expr.value)
    if isinstance(expr, Var):
        return f"v[{expr.name!r}]"
    if isinstance(expr, Not):
        return f"not {_python_operand(expr.operand)}"
    spec = _BINARY[expr.op]
    # Python's precedences differ from ours ('&' binds tighter than '<'), so
    # every compound operand is bracketed, except the left operand of a
    # chaining operator applied again: a long conjunction stays flat.
    chained = isinstance(expr.left, BinOp) and expr.left.op == expr.op and _chains(spec)
    left = _python(expr.left) if chained else _python_operand(expr.left)
    return f"{left} {spec.python} {_python_operand(expr.right)}"


def _python_operand(expr: Expr) -> str:
    text = _python(expr)
    return f"({text})" if isinstance(expr, (Not, BinOp)) else text


def compile_bound(
    expr: Expr, kinds: Mapping[str, str], clock: str
) -> Callable[[Mapping[str, int | bool]], int | float] | None:
    """When `expr` can next change value as the integer variable `clock` counts up.

    Returns a function of the valuation giving the least value above the
    current value of `clock` at which `expr` may evaluate differently, all
    other variables kept (`math.inf` if it never does), or None when `expr`
    does not read `clock`. The bound comes from the comparisons whose
    operands differ by a linear function of `clock`: `curT > 20`,
    `curT - onsetT <= 180`, `2*curT == k`. A comparison of fixed values
    gets its breakpoints once, here. Any other use of `clock`, such as
    `curT*curT > k` or an integer expression that reads it, bounds the
    change to the next value.
    """
    fixed: set[int] = set()
    moving = []  # (comparison, slope function, offset function) of a linear difference
    steps = False

    def visit(node: Expr) -> None:
        nonlocal steps
        if isinstance(node, Not):
            visit(node.operand)
        elif isinstance(node, BinOp) and _BINARY[node.op].operand == KIND_BOOLEAN:
            visit(node.left)
            visit(node.right)
        elif isinstance(node, BinOp) and _BINARY[node.op].result == KIND_BOOLEAN:
            difference = BinOp("-", node.left, node.right)
            degree = _degree(difference, clock)
            if degree > 1:
                steps = True
            elif degree == 1:
                # Linear: difference = slope * clock + offset, both free of the clock.
                offset = _at(difference, clock, 0)
                slope = BinOp("-", _at(difference, clock, 1), offset)
                compare = _BINARY[node.op].apply
                try:
                    fixed.update(_crossings(compare, eval_expr(slope, {}), eval_expr(offset, {})))
                except EvalError:  # it reads other variables too: solved at each call
                    moving.append((compare, compile_expr(slope, kinds), compile_expr(offset, kinds)))
        elif _degree(node, clock):
            steps = True

    visit(expr)
    if steps:
        return lambda v: v[clock] + 1
    if not fixed and not moving:
        return None
    breakpoints = sorted(fixed)

    def bound(v: Mapping[str, int | bool]) -> int | float:
        now = v[clock]
        index = bisect.bisect_right(breakpoints, now)
        best = breakpoints[index] if index < len(breakpoints) else math.inf
        for compare, slope, offset in moving:
            for value in _crossings(compare, slope(v), offset(v)):
                if now < value < best:
                    best = value
        return best

    return bound


def _degree(expr: Expr, name: str) -> int:
    """The degree of an integer expression as a polynomial in the variable `name`."""
    if isinstance(expr, Var):
        return int(expr.name == name)
    if isinstance(expr, BinOp):
        left, right = _degree(expr.left, name), _degree(expr.right, name)
        return left + right if expr.op == "*" else max(left, right)
    return 0


def _at(expr: Expr, name: str, value: int) -> Expr:
    """An integer expression with the variable `name` replaced by `value`."""
    if isinstance(expr, Var) and expr.name == name:
        return IntLit(value)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _at(expr.left, name, value), _at(expr.right, name, value))
    return expr


def _crossings(compare: Callable, slope: int, offset: int) -> list[int]:
    """Each integer x at which `compare(slope*x + offset, 0)` differs from its value at x - 1."""
    if not slope:
        return []
    # The line crosses zero at -offset/slope: only its ceiling or its floor plus one can flip it.
    candidates = {-(offset // slope), -offset // slope + 1}
    return [x for x in candidates if compare(slope * x + offset, 0) != compare(slope * (x - 1) + offset, 0)]


def depth(expr: Expr) -> int:
    """Nodes on the longest path from the root to a leaf."""
    if isinstance(expr, Not):
        return 1 + depth(expr.operand)
    if isinstance(expr, BinOp):
        return 1 + max(depth(expr.left), depth(expr.right))
    return 1


def _expect_bool(value, op: str) -> bool:
    if not isinstance(value, bool):
        raise EvalError(f"'{op}' applied to non-boolean value {value!r}")
    return value


def _expect_int(value, op: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EvalError(f"'{op}' applied to non-integer value {value!r}")
    return value


def conjoin(left: Expr, right: Expr) -> BinOp:
    """Left-associated conjunction, as used by guard strengthening."""
    return BinOp("&&", left, right)
