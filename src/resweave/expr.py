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

One printer, `_render`, writes a tree as canonical text (`to_text`), as
timed-automata text (`to_text` with a renaming) and as the Python that
`compile_expr` generates; a table of words (`true`/`!`/`&&`/`||` against
`True`/`not`/`and`/`or`) is all that differs.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
import sys
from collections.abc import Iterable, Mapping
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


class _Node:
    """An expression tree node: a record of the fields its `_fields` (also its `__slots__`) name,
    never changed once built. It equals, and hashes like, only a node of its own class with equal
    fields: a tuple record would equal every tuple of its values, so `IntLit(1) == BoolLit(True)`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if self is other:
            return True
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self._values()))})"


class IntLit(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        self.value = value


class BoolLit(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool):
        self.value = value


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name


class Not(_Node):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand


class BinOp(_Node):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op, self.left, self.right = op, left, right


Expr = Union[IntLit, BoolLit, Var, Not, BinOp]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


class _Binary(NamedTuple):
    precedence: int  # higher binds tighter
    operand: str  # kind both operands must have
    result: str
    apply: Callable


# Every binary operator, its syntax, typing and meaning. An operator whose
# result kind differs from its operand kind (a comparison) does not chain;
# the others are left-associative.
_BINARY = {
    "||": _Binary(1, KIND_BOOLEAN, KIND_BOOLEAN, operator.or_),
    "&&": _Binary(2, KIND_BOOLEAN, KIND_BOOLEAN, operator.and_),
    "<": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.lt),
    "<=": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.le),
    ">": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.gt),
    ">=": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.ge),
    "==": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.eq),
    "!=": _Binary(3, KIND_INTEGER, KIND_BOOLEAN, operator.ne),
    "+": _Binary(4, KIND_INTEGER, KIND_INTEGER, operator.add),
    "-": _Binary(4, KIND_INTEGER, KIND_INTEGER, operator.sub),
    "*": _Binary(5, KIND_INTEGER, KIND_INTEGER, operator.mul),
}

_OPERATORS = sorted([*_BINARY, "!", "(", ")"], key=len, reverse=True)  # longest match first

# One pass of `finditer` reads every token; the search skips whitespace, and
# any other character no token starts with is caught by `bad`.
_TOKEN_RE = re.compile(
    r"(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<bad>\S)"
)

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
DOTTED_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*\Z")
_INTEGER_RE = re.compile(r"(-?)([0-9]+)\Z")

_RESERVED = {"true", "false", "raise", "entry", "exit", "tick", "imply"}


def is_reserved_word(name: str) -> bool:
    return name in _RESERVED


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, 1-based column) of each token, then ("end", "", column past the text)."""
    tokens = [(match.lastgroup, match.group(), match.start() + 1) for match in _TOKEN_RE.finditer(text)]
    for kind, token, column in tokens:
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {token!r}", column)
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Precedence climbing; each method returns the tree it parsed and its depth.

    `leaves` maps the text of each leaf read so far (a name, or a literal with
    its sign) to its node, so that trees parsed with one map share leaves."""

    def __init__(self, text: str, leaves: dict[str, Expr]):
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0  # '(' and '!' whose operand is being parsed
        self.leaves = leaves

    def parse(self) -> Expr:
        result, _ = self.binary(1)
        kind, token, column = self.tokens[self.index]
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {token!r}", column)
        return result

    def binary(self, min_precedence: int) -> tuple[Expr, int]:
        """The operators of `_BINARY` binding at least `min_precedence`, over unary operands."""
        left, depth = self.unary()
        max_precedence = math.inf
        while True:
            _, token, column = self.tokens[self.index]
            spec = _BINARY.get(token)
            if spec is None or not min_precedence <= spec.precedence <= max_precedence:
                return left, depth
            self.index += 1
            right, right_depth = self.binary(spec.precedence + 1)
            # Interned: a large model holds thousands of these operator strings.
            left = BinOp(sys.intern(token), left, right)
            depth = max(depth, right_depth)
            if depth == MAX_DEPTH:
                raise _too_deep(column)
            depth += 1
            max_precedence = spec.precedence if _chains(spec) else spec.precedence - 1

    def unary(self) -> tuple[Expr, int]:
        kind, token, column = self.tokens[self.index]
        self.index += 1
        if token == "-":  # folds into the integer literal after it
            kind, digits, digits_column = self.tokens[self.index]
            if kind != "int":
                raise ExprSyntaxError("unary '-' is only allowed before an integer literal", column)
            self.index += 1
            token, column = "-" + digits, digits_column
        if kind == "int" or kind == "ident":
            leaf = self.leaves.get(token)
            if leaf is None:
                if kind == "int":
                    leaf = _int_literal(token, column)
                else:
                    leaf = TRUE if token == "true" else FALSE if token == "false" else Var(token)
                self.leaves[token] = leaf
            return leaf, 1
        if token != "!" and token != "(":
            raise ExprSyntaxError(f"expected an operand, found {token!r}" if token else "unexpected end of expression",
                                  column)
        if self.nesting == MAX_DEPTH:
            raise _too_deep(column)
        self.nesting += 1
        if token == "!":
            operand, depth = self.unary()
            if depth == MAX_DEPTH:
                raise _too_deep(column)
            self.nesting -= 1
            return Not(operand), depth + 1
        inner = self.binary(1)
        _, token, column = self.tokens[self.index]
        if token != ")":
            raise ExprSyntaxError("expected ')'", column)
        self.index += 1
        self.nesting -= 1
        return inner


def _too_deep(column: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", column)


def _chains(spec: _Binary) -> bool:
    return spec.operand == spec.result


def parse_int(text: str) -> int | None:
    """The integer `text` writes as `-?[0-9]+`, the way expressions, schedules
    and command lines write one; None if it is written otherwise or lies
    outside 64 bits. No more than 19 digits are ever converted."""
    match = _INTEGER_RE.match(text)
    if match is None:
        return None
    digits = match.group(2).lstrip("0") or "0"
    if len(digits) > len(str(INT_MAX)):
        return None
    value = int(match.group(1) + digits)
    return value if INT_MIN <= value <= INT_MAX else None


def _int_literal(text: str, column: int) -> IntLit:
    value = parse_int(text)
    if value is None:
        raise ExprSyntaxError("integer literal out of 64-bit range", column)
    return IntLit(value)


def parse_expr(text: str, leaves: dict[str, Expr] | None = None) -> Expr:
    """Parse expression text into a syntax tree.

    Trees parsed with one `leaves` map share their leaves: one `Var` per name
    and one `IntLit` per literal text. The map starts empty and is filled here.
    """
    return _Parser(text, {} if leaves is None else leaves).parse()


def to_text(expr: Expr, rename=None) -> str:
    """Render a syntax tree in canonical form (reparses to an equal tree).

    `rename` optionally maps variable names, e.g. for identifier flattening.
    """
    return _render(expr, rename, _TEXT_WORDS)


# The spelling of the words that differ between expression text and the
# Python `compile_expr` generates. Printing Python through `_render` is sound
# on the well-typed trees `compile_expr` accepts. Python ranks `or` < `and` <
# `not` < comparisons < `+ -` < `*`, the order of `_BINARY`; a `!` is only
# ever an operand of `!`, `&&` or `||`, and `_render` brackets every `BinOp`
# under it. `_render` never leaves two comparisons unbracketed next to each
# other, so Python chains none. And on booleans, `and`/`or` give the same
# bool as the strict `&&`/`||`.
_TEXT_WORDS = {"true": "true", "false": "false", "!": "!", "&&": "&&", "||": "||"}
_PYTHON_WORDS = {"true": "True", "false": "False", "!": "not ", "&&": "and", "||": "or"}


def _render(expr: Expr, rename, words: Mapping[str, str]) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return words["true" if expr.value else "false"]
    if isinstance(expr, Var):
        return rename(expr.name) if rename else expr.name
    if isinstance(expr, Not):
        inner = _render(expr.operand, rename, words)
        if isinstance(expr.operand, BinOp):
            inner = f"({inner})"
        return words["!"] + inner
    spec = _BINARY[expr.op]
    left = _render_side(expr.left, spec, False, rename, words)
    right = _render_side(expr.right, spec, True, rename, words)
    op = words.get(expr.op, expr.op)
    joiner = f" {op} " if spec.operand == KIND_BOOLEAN else op  # connectives are spaced
    return f"{left}{joiner}{right}"


def _render_side(child: Expr, parent: _Binary, right_side: bool, rename, words: Mapping[str, str]) -> str:
    text = _render(child, rename, words)
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


def _expect_bool(value, op: str) -> bool:
    if not isinstance(value, bool):
        raise EvalError(f"'{op}' applied to non-boolean value {value!r}")
    return value


def _expect_int(value, op: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EvalError(f"'{op}' applied to non-integer value {value!r}")
    return value


# What evaluation needs of `_BINARY`: the check of each operand, and the operation.
_EVAL = {
    op: (_expect_bool if spec.operand == KIND_BOOLEAN else _expect_int, spec.apply) for op, spec in _BINARY.items()
}


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
    left, right = eval_expr(expr.left, valuation), eval_expr(expr.right, valuation)
    expect, apply = _EVAL[expr.op]
    return apply(expect(left, expr.op), expect(right, expr.op))


def compile_expr(expr: Expr, kinds: Mapping[str, str]) -> Callable[[Mapping[str, int | bool]], int | bool]:
    """One Python function of the valuation that computes what `eval_expr` does.

    The tree is type-checked against `kinds` first (ExprTypeError if it is
    ill-typed): the generated code relies on it, because its operators do not
    check the kinds of their operands the way `eval_expr` does.
    """
    type_of(expr, kinds)
    return eval(f"lambda v: {_render(expr, 'v[{!r}]'.format, _PYTHON_WORDS)}", {"__builtins__": {}})


def compile_bound(
    exprs: Iterable[Expr], kinds: Mapping[str, str], clock: str
) -> Callable[[Mapping[str, int | bool]], int | float] | None:
    """When one of `exprs` can next change value as the integer variable `clock` counts up.

    Returns a function of the valuation giving the least value above the
    current value of `clock` at which one of the trees may evaluate
    differently, all other variables kept (`math.inf` if none ever does),
    or None when none reads `clock`. The bound comes from the comparisons
    whose operands differ by a linear function of `clock`: `curT > 20`,
    `curT - onsetT <= 180`, `2*curT == k`. The comparisons of fixed values
    get their breakpoints once, here, in one sorted list. Any other use of
    `clock`, such as `curT*curT > k` or an integer expression that reads
    it, bounds the change to the next value.
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

    for expr in exprs:
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


def variables(expr: Expr) -> set[str]:
    """The names of the variables `expr` reads."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Not):
        return variables(expr.operand)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    return set()


def conjoin(left: Expr, right: Expr) -> BinOp:
    """Left-associated conjunction, as used by guard strengthening and region guards."""
    return BinOp("&&", left, right)
