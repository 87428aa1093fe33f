import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resweave import expr as ex

from generators import gen_expr


def test_parse_precedence():
    parsed = ex.parse_expr("a && b || c")
    assert parsed == ex.BinOp("||", ex.BinOp("&&", ex.Var("a"), ex.Var("b")), ex.Var("c"))
    parsed = ex.parse_expr("!p && q")
    assert parsed == ex.BinOp("&&", ex.Not(ex.Var("p")), ex.Var("q"))
    parsed = ex.parse_expr("1+2*3")
    assert parsed == ex.BinOp("+", ex.IntLit(1), ex.BinOp("*", ex.IntLit(2), ex.IntLit(3)))
    parsed = ex.parse_expr("tpaT-onsetT<=180")
    assert parsed == ex.BinOp(
        "<=", ex.BinOp("-", ex.Var("tpaT"), ex.Var("onsetT")), ex.IntLit(180)
    )


@pytest.mark.parametrize("text", ["a ", " a", "a\t\n"])
def test_whitespace_around_an_expression_is_skipped(text):
    assert ex.parse_expr(text) == ex.Var("a")


def test_parse_dotted_names_and_parens():
    assert ex.parse_expr("RES.tPA") == ex.Var("RES.tPA")
    assert ex.parse_expr("(a || b) && c") == ex.BinOp(
        "&&", ex.BinOp("||", ex.Var("a"), ex.Var("b")), ex.Var("c")
    )
    assert ex.parse_expr("-5") == ex.IntLit(-5)
    assert ex.parse_expr("true") == ex.TRUE
    assert ex.parse_expr("false") == ex.FALSE


def test_canonical_text():
    parsed = ex.parse_expr("systolicBP <= 185 && diastolicBP<=110 &&  ! hemorrhage")
    assert ex.to_text(parsed) == "systolicBP<=185 && diastolicBP<=110 && !hemorrhage"
    assert ex.to_text(ex.parse_expr("curT>200")) == "curT>200"
    # right-nested same-precedence operators keep their shape through parens
    nested = ex.BinOp("&&", ex.Var("a"), ex.BinOp("&&", ex.Var("b"), ex.Var("c")))
    assert ex.to_text(nested) == "a && (b && c)"
    assert ex.parse_expr(ex.to_text(nested)) == nested
    minus = ex.BinOp("-", ex.Var("a"), ex.BinOp("-", ex.Var("b"), ex.Var("c")))
    assert ex.to_text(minus) == "a-(b-c)"


@pytest.mark.parametrize(
    "text, column_word",
    [
        ("a &&", "end of expression"),
        ("1 + * 2", "'*'"),
        ("(a", "')'"),
        ("a ? b", "'?'"),
        ("-x", "integer literal"),
    ],
)
def test_syntax_errors(text, column_word):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr(text)
    assert column_word in str(err.value)
    assert "column" in str(err.value)


def test_eval_blood_pressure_guard():
    guard = ex.parse_expr("systolicBP<=185 && diastolicBP<=110 && !hemorrhage")
    valuation = {"systolicBP": 150, "diastolicBP": 100, "hemorrhage": False}
    assert ex.eval_expr(guard, valuation) is True
    assert ex.eval_expr(guard, {**valuation, "hemorrhage": True}) is False
    assert ex.eval_expr(guard, {**valuation, "systolicBP": 190}) is False


def test_eval_treatment_window():
    predicate = ex.parse_expr("tpaT-onsetT<=180")
    assert ex.eval_expr(predicate, {"tpaT": 200, "onsetT": 0}) is False
    assert ex.eval_expr(predicate, {"tpaT": 100, "onsetT": 0}) is True


def test_eval_identity_law():
    assert ex.eval_expr(ex.parse_expr("true && x"), {"x": False}) is False
    assert ex.eval_expr(ex.parse_expr("true && x"), {"x": True}) is True


def test_eval_is_strict_in_both_operands():
    # no short-circuiting: an unbound right operand is an error even when the
    # left operand decides the result
    with pytest.raises(ex.EvalError, match="missing"):
        ex.eval_expr(ex.parse_expr("true || missing"), {})
    with pytest.raises(ex.EvalError, match="missing"):
        ex.eval_expr(ex.parse_expr("false && missing"), {})


def test_eval_unbound_variable_named():
    with pytest.raises(ex.EvalError, match="'tpaT'"):
        ex.eval_expr(ex.parse_expr("tpaT-onsetT<=180"), {"onsetT": 0})


def test_eval_is_pure():
    rng = random.Random(7)
    valuation = {name: rng.randint(-10, 10) for name in ("a", "b", "c")}
    valuation.update({name: rng.random() < 0.5 for name in ("p", "q", "r")})
    for _ in range(50):
        expr = gen_expr(rng)
        assert ex.eval_expr(expr, valuation) == ex.eval_expr(expr, valuation)


def test_type_of():
    kinds = {"x": "integer", "p": "boolean"}
    assert ex.type_of(ex.parse_expr("x+1"), kinds) == "integer"
    assert ex.type_of(ex.parse_expr("x<=1 && p"), kinds) == "boolean"
    with pytest.raises(ex.ExprTypeError):
        ex.type_of(ex.parse_expr("p < 1"), kinds)
    with pytest.raises(ex.ExprTypeError):
        ex.type_of(ex.parse_expr("x && p"), kinds)
    with pytest.raises(ex.ExprTypeError):
        ex.type_of(ex.parse_expr("!x"), kinds)
    with pytest.raises(ex.ExprTypeError, match="'y'"):
        ex.type_of(ex.parse_expr("y == 1"), kinds)
    with pytest.raises(ex.ExprTypeError):
        ex.type_of(ex.parse_expr("p == p"), kinds)  # equality is integer-only


def test_int_literal_range():
    assert ex.parse_expr(str(2**63 - 1)) == ex.IntLit(2**63 - 1)
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse_expr(str(2**63))


_INTEGER_TEXTS = [
    ("0", 0), ("-0", 0), ("42", 42), ("-7", -7), ("007", 7), ("0" * 5000 + "1", 1),
    (str(2**63 - 1), 2**63 - 1), (str(-(2**63)), -(2**63)),
    (str(2**63), None), (str(-(2**63) - 1), None), ("9" * 5000, None),
    ("", None), ("-", None), ("+5", None), ("1_0", None), (" 7", None), ("7 ", None), ("0x10", None),
    ("\U0001d7d3", None), ("\u0661\u0665\u0660", None),  # decimal digits, but not ASCII ones
]


@pytest.mark.parametrize("text, value", _INTEGER_TEXTS, ids=[repr(text[:24]) for text, _ in _INTEGER_TEXTS])
def test_parse_int_reads_a_64_bit_integer_literal(text, value):
    assert ex.parse_int(text) == value


def test_parse_int_refuses_a_long_run_of_zeros_in_linear_time():
    # Two quantifiers that could both match the zeros would backtrack for
    # seconds on this text; one pass over it takes well under a millisecond.
    start = time.perf_counter()
    assert ex.parse_int("0" * 20_000 + "x") is None
    assert time.perf_counter() - start < 1.0


def test_int_literal_of_thousands_of_digits_is_a_syntax_error():
    with pytest.raises(ex.ExprSyntaxError, match="out of 64-bit range"):
        ex.parse_expr("x > " + "1" * 5000)
    assert ex.parse_expr("x > " + "0" * 5000 + "1") == ex.BinOp(">", ex.Var("x"), ex.IntLit(1))


_A, _B, _C, _P, _Q, _R = (ex.Var(name) for name in "abcpqr")
_VALUATION = {"a": 3, "b": 5, "c": -4, "p": False, "q": True, "r": False}
_KINDS = {"a": "integer", "b": "integer", "c": "integer", "p": "boolean", "q": "boolean", "r": "boolean"}


# One case per operator: parsed tree, canonical text, kind and value, written
# down as literals so that they do not depend on the operator table under test.
@pytest.mark.parametrize(
    "text, tree, canonical, kind, value",
    [
        ("p || q && !r", ex.BinOp("||", _P, ex.BinOp("&&", _Q, ex.Not(_R))), "p || q && !r", "boolean", True),
        ("(p || q) && r", ex.BinOp("&&", ex.BinOp("||", _P, _Q), _R), "(p || q) && r", "boolean", False),
        ("a<b+1", ex.BinOp("<", _A, ex.BinOp("+", _B, ex.IntLit(1))), "a<b+1", "boolean", True),
        ("a - b <= c*2", ex.BinOp("<=", ex.BinOp("-", _A, _B), ex.BinOp("*", _C, ex.IntLit(2))),
         "a-b<=c*2", "boolean", False),
        ("a*2 > b", ex.BinOp(">", ex.BinOp("*", _A, ex.IntLit(2)), _B), "a*2>b", "boolean", True),
        ("a >= -3", ex.BinOp(">=", _A, ex.IntLit(-3)), "a>=-3", "boolean", True),
        ("a+b == c", ex.BinOp("==", ex.BinOp("+", _A, _B), _C), "a+b==c", "boolean", False),
        ("a != b-c", ex.BinOp("!=", _A, ex.BinOp("-", _B, _C)), "a!=b-c", "boolean", True),
        ("a + (b + c)", ex.BinOp("+", _A, ex.BinOp("+", _B, _C)), "a+(b+c)", "integer", 4),
        ("a - b - c", ex.BinOp("-", ex.BinOp("-", _A, _B), _C), "a-b-c", "integer", 2),
        ("a*(b+c)", ex.BinOp("*", _A, ex.BinOp("+", _B, _C)), "a*(b+c)", "integer", 3),
        ("!(p && q)", ex.Not(ex.BinOp("&&", _P, _Q)), "!(p && q)", "boolean", True),
        ("a * -2", ex.BinOp("*", _A, ex.IntLit(-2)), "a*-2", "integer", -6),
    ],
)
def test_operator(text, tree, canonical, kind, value):
    parsed = ex.parse_expr(text)
    assert parsed == tree
    assert ex.to_text(parsed) == canonical
    assert ex.type_of(parsed, _KINDS) == kind
    assert ex.eval_expr(parsed, _VALUATION) == value
    assert type(ex.eval_expr(parsed, _VALUATION)) is type(value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a<b<c", "unexpected '<' (column 4)"),
        ("(a<b<c)", "expected ')' (column 5)"),
        ("a && b<c<d", "unexpected '<' (column 9)"),
    ],
)
def test_comparisons_do_not_chain(text, message):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr(text)
    assert str(err.value) == message


def test_type_errors_name_unknown_variables_first():
    with pytest.raises(ex.ExprTypeError) as err:
        ex.type_of(ex.parse_expr("p < y"), _KINDS)
    assert str(err.value) == "unknown variable 'y'"
    with pytest.raises(ex.ExprTypeError) as err:
        ex.type_of(ex.parse_expr("p < 1"), _KINDS)
    assert str(err.value) == "'<' requires integer operands"


@pytest.mark.parametrize(
    "text, valuation, message",
    [
        ("a+1", {"a": True}, "'+' applied to non-integer value True"),
        ("p && q", {"p": 1, "q": True}, "'&&' applied to non-boolean value 1"),
        ("!a", {"a": 1}, "'!' applied to non-boolean value 1"),
        # both operands are evaluated before either is checked, the left one first
        ("p + x", {"p": True}, "unbound variable 'x'"),
        ("p + q", {"p": True, "q": False}, "'+' applied to non-integer value True"),
        ("a + p", {"a": 1, "p": True}, "'+' applied to non-integer value True"),
        ("a || p", {"a": 1, "p": True}, "'||' applied to non-boolean value 1"),
        ("a < p", {"a": 1, "p": True}, "'<' applied to non-integer value True"),
    ],
)
def test_eval_rejects_wrong_kinds(text, valuation, message):
    with pytest.raises(ex.EvalError) as err:
        ex.eval_expr(ex.parse_expr(text), valuation)
    assert str(err.value) == message


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**32))
def test_roundtrip_generated(seed):
    rng = random.Random(seed)
    expr = gen_expr(rng, depth=4)
    assert ex.parse_expr(ex.to_text(expr)) == expr


_COMPILE_KINDS = {"a": "integer", "b": "integer", "RES.n": "integer", "p": "boolean", "RES.x": "boolean"}
_INT_VARS = [name for name, kind in _COMPILE_KINDS.items() if kind == "integer"]
_BOOL_VARS = [name for name, kind in _COMPILE_KINDS.items() if kind == "boolean"]


def _typed_tree(rng: random.Random, kind: str, depth: int) -> ex.Expr:
    """A well-typed tree of `kind`, exactly `depth` deep: a spine of random
    operators, each with a shallow operand on a random side."""
    if depth == 1:
        if kind == ex.KIND_INTEGER:
            if rng.random() < 0.5:
                return ex.Var(rng.choice(_INT_VARS))
            return ex.IntLit(rng.choice([rng.randint(-9, 9), rng.randint(ex.INT_MIN, ex.INT_MAX)]))
        return ex.Var(rng.choice(_BOOL_VARS)) if rng.random() < 0.5 else ex.BoolLit(rng.random() < 0.5)
    operators = [op for op, spec in ex._BINARY.items() if spec.result == kind]
    op = rng.choice(operators + (["!"] if kind == ex.KIND_BOOLEAN else []))
    if op == "!":
        return ex.Not(_typed_tree(rng, kind, depth - 1))
    operand = ex._BINARY[op].operand
    deep = _typed_tree(rng, operand, depth - 1)
    shallow = _typed_tree(rng, operand, rng.randint(1, min(3, depth - 1)))
    return ex.BinOp(op, deep, shallow) if rng.random() < 0.5 else ex.BinOp(op, shallow, deep)


_VALUATIONS = st.fixed_dictionaries({
    name: st.integers(ex.INT_MIN, ex.INT_MAX) if kind == ex.KIND_INTEGER else st.booleans()
    for name, kind in _COMPILE_KINDS.items()
})


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([ex.KIND_BOOLEAN, ex.KIND_INTEGER]),
    st.integers(1, ex.MAX_DEPTH),
    st.integers(0, 2**32),
    _VALUATIONS,
)
def test_compiled_matches_eval(kind, depth, seed, valuation):
    tree = _typed_tree(random.Random(seed), kind, depth)
    assert ex.depth(tree) == depth
    compiled = ex.compile_expr(tree, _COMPILE_KINDS)(valuation)
    expected = ex.eval_expr(tree, valuation)
    assert compiled == expected
    assert type(compiled) is type(expected)


@pytest.mark.parametrize("op", [op for op, spec in ex._BINARY.items() if spec.operand == spec.result])
def test_compiled_left_chain_at_depth_bound(op):
    operand = "p" if ex._BINARY[op].operand == ex.KIND_BOOLEAN else "a"
    tree = ex.parse_expr(f" {op} ".join([operand] * ex.MAX_DEPTH))
    assert ex.depth(tree) == ex.MAX_DEPTH
    valuation = {"a": 3, "p": True}
    assert ex.compile_expr(tree, _COMPILE_KINDS)(valuation) == ex.eval_expr(tree, valuation)


def test_compile_rejects_ill_typed_trees():
    with pytest.raises(ex.ExprTypeError, match="requires integer operands"):
        ex.compile_expr(ex.parse_expr("p + 1"), _COMPILE_KINDS)
    with pytest.raises(ex.ExprTypeError, match="unknown variable 'y'"):
        ex.compile_expr(ex.parse_expr("y"), _COMPILE_KINDS)


_PAIR_KINDS = {"a": ex.KIND_INTEGER, "b": ex.KIND_INTEGER, "p": ex.KIND_BOOLEAN, "q": ex.KIND_BOOLEAN}
_A, _B, _P, _Q = (ex.Var(name) for name in _PAIR_KINDS)
_LEAVES = {
    ex.KIND_INTEGER: [_A, _B, ex.IntLit(ex.INT_MIN), ex.IntLit(ex.INT_MAX)],
    ex.KIND_BOOLEAN: [_P, _Q, ex.TRUE, ex.FALSE],
}


def _one_level(kind: str) -> list[ex.Expr]:
    """Every tree of `kind` at most one operator deep: each leaf, `!` and each operator of `_BINARY` over leaves."""
    trees = _LEAVES[kind] + ([ex.Not(_P)] if kind == ex.KIND_BOOLEAN else [])
    for op, spec in ex._BINARY.items():
        if spec.result == kind:
            trees.append(ex.BinOp(op, *((_A, _B) if spec.operand == ex.KIND_INTEGER else (_P, _Q))))
    return trees


def _two_level_trees():
    """A parent from `_BINARY` or `!` over every one-level child on each side."""
    for op, spec in ex._BINARY.items():
        for left in _one_level(spec.operand):
            for right in _one_level(spec.operand):
                yield ex.BinOp(op, left, right)
    for operand in _one_level(ex.KIND_BOOLEAN):
        yield ex.Not(operand)


def _right_chain(op: str, leaf: ex.Expr) -> ex.Expr:
    tree = leaf
    for _ in range(ex.MAX_DEPTH - 1):
        tree = ex.BinOp(op, leaf, tree) if op != "!" else ex.Not(tree)
    return tree


_CHAINS = [_right_chain("&&", _P), _right_chain("||", _Q), _right_chain("-", _A), _right_chain("!", _P)]


def test_every_operator_pair_prints_alike_as_text_and_python():
    """`to_text` and `compile_expr` print through one printer: on every pair of
    operators, the compiled function agrees with `eval_expr` in value and type,
    and the text reparses to the same tree."""
    trees = [*_two_level_trees(), *_CHAINS]
    assert len(trees) == 2 * 13**2 + 9 * 7**2 + 13 + 4
    assert [ex.depth(chain) for chain in _CHAINS] == [ex.MAX_DEPTH] * 4
    valuations = [
        {"a": a, "b": b, "p": p, "q": q}
        for a in (-1, 0, 2) for b in (-1, 0, 2) for p in (False, True) for q in (False, True)
    ]
    for tree in trees:
        assert ex.parse_expr(ex.to_text(tree)) == tree
        compiled = ex.compile_expr(tree, _PAIR_KINDS)
        for valuation in valuations:
            expected = ex.eval_expr(tree, valuation)
            got = compiled(valuation)
            assert (got, type(got)) == (expected, type(expected)), (ex.to_text(tree), valuation)


_DEEPEST = ex.MAX_DEPTH - 1  # operators or '!' over one leaf


@pytest.mark.parametrize(
    "build",
    [
        lambda n: "a" + "+1" * n,  # a left chain, built without recursion
        lambda n: "p" + " && (p" * n + ")" * n,  # right-nested in brackets
        lambda n: "!" * n + "p",
    ],
)
def test_depth_bound(build):
    assert ex.depth(ex.parse_expr(build(_DEEPEST))) == ex.MAX_DEPTH
    with pytest.raises(ex.ExprSyntaxError, match=f"nested deeper than {ex.MAX_DEPTH} levels"):
        ex.parse_expr(build(_DEEPEST + 1))
    with pytest.raises(ex.ExprSyntaxError, match=f"nested deeper than {ex.MAX_DEPTH} levels"):
        ex.parse_expr(build(3000))


def test_redundant_brackets_count_toward_the_bound():
    assert ex.parse_expr("(" * ex.MAX_DEPTH + "p" + ")" * ex.MAX_DEPTH) == ex.Var("p")
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr("(" * (ex.MAX_DEPTH + 1) + "p" + ")" * (ex.MAX_DEPTH + 1))
    assert str(err.value) == f"expression nested deeper than {ex.MAX_DEPTH} levels (column {ex.MAX_DEPTH + 1})"


_CLOCK_KINDS = {"curT": ex.KIND_INTEGER, "a": ex.KIND_INTEGER, "p": ex.KIND_BOOLEAN}


_CLOCK_CASES = [
    ("curT > 20", True),
    ("curT <= 5 && curT > 2", True),
    ("curT - a > 180", True),
    ("2*curT <= a", True),
    ("curT == 7", True),
    ("curT != a", True),
    ("a*curT < 40", True),
    ("0 - curT*3 + a == -10", True),
    ("!(3*curT - 2*a >= 5) || p", True),
    ("curT*curT > 50", False),
    ("curT + 1", False),
    ("(curT - curT)*curT > 0", False),
]


def _assert_next_change(texts: list[str], exact: bool) -> None:
    """The bound of the trees is above the clock and no later than the first
    value at which one of them changes; when `exact`, it is that value."""
    exprs = [ex.parse_expr(text) for text in texts]
    bound = ex.compile_bound(exprs, _CLOCK_KINDS, "curT")
    rng = random.Random(" ".join(texts))
    for _ in range(200):
        valuation = {"curT": rng.randint(-50, 100), "a": rng.randint(-30, 300), "p": rng.random() < 0.5}
        now, values = valuation["curT"], [ex.eval_expr(expr, valuation) for expr in exprs]
        changes = (
            x for x in range(now + 1, now + 400)
            if [ex.eval_expr(expr, {**valuation, "curT": x}) for expr in exprs] != values
        )
        first = next(changes, math.inf)
        assert now < bound(valuation) <= first
        if exact and first < now + 300:
            assert bound(valuation) == first
        if not exact:
            assert bound(valuation) == now + 1


@pytest.mark.parametrize("text, exact", _CLOCK_CASES)
def test_clock_bound_is_the_next_change(text, exact):
    """For linear comparisons the bound is the next change."""
    _assert_next_change([text], exact)


@pytest.mark.parametrize("seed", range(8))
def test_clock_bound_of_several_trees_is_the_least_of_their_bounds(seed):
    """Several trees, their fixed breakpoints merged into one list, have the
    bound of their first change: the least of their own bounds."""
    rng = random.Random(seed)
    cases = rng.sample(_CLOCK_CASES, 3)
    _assert_next_change([text for text, _ in cases], all(exact for _, exact in cases))
    bounds = [ex.compile_bound([ex.parse_expr(text)], _CLOCK_KINDS, "curT") for text, _ in cases]
    together = ex.compile_bound([ex.parse_expr(text) for text, _ in cases], _CLOCK_KINDS, "curT")
    for now in range(-50, 100):
        valuation = {"curT": now, "a": rng.randint(-30, 300), "p": rng.random() < 0.5}
        assert together(valuation) == min(bound(valuation) for bound in bounds)


def test_clock_bound_of_clock_free_expression_is_none():
    for text in ("a > 3", "p || a*a == 4", "a + 1", "true"):
        assert ex.compile_bound([ex.parse_expr(text)], _CLOCK_KINDS, "curT") is None
