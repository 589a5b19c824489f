import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kst.cli import main
from kst.decompose import DecompositionCaps, init_state, residual_modulus
from kst.errors import DomainError, ExpressionError
from kst.target import (
    MAX_DEPTH,
    BinOp,
    Call,
    Neg,
    Num,
    TargetFunction,
    Var,
    _compile,
    builtin_target,
    expression_target,
    parse,
)
from oracles import SCALAR_FUNCTIONS, oracle_eval_expr, pretty


def eval_expr(e, p) -> float:
    """Value of an expression tree at one point, through the compiled form."""
    t = TargetFunction(dim=len(p), fn=_compile(e), sup_norm_bound=0.0, provenance={})
    return float(t.eval_batch(np.asarray([p], dtype=float))[0])


def modulus(t: TargetFunction, resolution: int, steps) -> dict[float, float]:
    """Axis-step oscillation of t on the audit mesh, per step: the
    residual oscillation of a fresh state, whose approximant is zero."""
    state = init_state(t, caps=DecompositionCaps(audit_resolution=resolution))
    return {h: residual_modulus(state, h) for h in steps}


def _ast_strategy(n=2, depth=3, ops="+-*", funcs=("sin", "cos", "abs"), low=0.1):
    leaf = st.one_of(
        st.builds(Num, st.floats(low, 4.0, allow_nan=False).map(lambda v: round(v, 3))),
        st.builds(Var, st.integers(1, n)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from(list(ops)), children, children),
            st.builds(Call, st.sampled_from(list(funcs)), children),
        )

    return st.recursive(leaf, extend, max_leaves=depth * 4)


def _has_exp(e) -> bool:
    if isinstance(e, Call):
        return e.func == "exp" or _has_exp(e.arg)
    if isinstance(e, Neg):
        return _has_exp(e.operand)
    if isinstance(e, BinOp):
        return _has_exp(e.left) or _has_exp(e.right)
    return False


def _oracle_or_none(tree, p, functions=SCALAR_FUNCTIONS):
    """Walker value at p, or None where it is undefined or not finite."""
    try:
        v = oracle_eval_expr(tree, p, functions)
    except DomainError:
        return None
    return v if math.isfinite(v) else None


_unit = st.floats(0.0, 1.0)
# the walker with exp taken from numpy: np.exp may differ from math.exp
# in the last bit, while the other ufuncs match their scalar forms
_NUMPY_EXP = SCALAR_FUNCTIONS | {"exp": lambda v: float(np.exp(v))}


class TestCompiled:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        _ast_strategy(3, ops="+-*/^", funcs=sorted(SCALAR_FUNCTIONS), low=0.0),
        st.lists(st.tuples(_unit, _unit, _unit), min_size=1, max_size=6),
    )
    def test_batch_matches_walker(self, tree, rows):
        reparsed = parse(pretty(tree), 3)
        assert reparsed == tree
        target = TargetFunction(dim=3, fn=_compile(reparsed), sup_norm_bound=0.0, provenance={})
        pts = np.asarray(rows, dtype=float)
        want = [_oracle_or_none(tree, p) for p in rows]
        if any(v is None for v in want):
            with pytest.raises(DomainError):
                target.eval_batch(pts)
            return
        got = target.eval_batch(pts)
        if not _has_exp(tree):
            assert got.tolist() == want
            return
        assert got.tolist() == [_oracle_or_none(tree, p, _NUMPY_EXP) for p in rows]
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize(
        "text, x",
        [("1/x1", 0.0), ("sqrt(x1-1)", 0.0), ("(-x1)^0.5", 0.5), ("0^-1", 0.5),
         ("exp(1000*x1)", 1.0)],
    )
    def test_domain_errors(self, text, x):
        with pytest.raises(DomainError):
            eval_expr(parse(text, 1), (x,))
        target = TargetFunction(dim=1, fn=_compile(parse(text, 1)), sup_norm_bound=0.0,
                                provenance={})
        with pytest.raises(DomainError):
            target.eval_batch(np.array([[0.25], [x]]))

    def test_underflow_is_zero(self):
        assert eval_expr(parse("exp(-1000*x1)", 1), (1.0,)) == 0.0
        t = expression_target("exp(-1000*x1)", 1)
        assert t.eval_batch(np.array([[1.0], [0.0]])).tolist() == [0.0, 1.0]

    def test_cli_refuses_undefined_target(self, capsys):
        assert main(["decompose", "--n", "2", "--f", "1/x1", "--iters", "1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "x1\u00b2", "\u00b2", "x1+\u0663", "x\u0661",
        "(" * 400 + "x1" + ")" * 400, "x1^" * 2000 + "x1", "x1+" * 2000 + "x1"])
    def test_cli_refuses_malformed_expression(self, capsys, text):
        # non-ASCII digits and letters, and expressions nested too deep
        assert main(["decompose", "--n", "2", "--f", text, "--iters", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("n", [2, 3])
    def test_builtins_match_scalar_lambdas(self, n):
        scalar = {
            "product": lambda p: math.prod(p),
            "ridge": lambda p: math.sin(math.pi * sum(p)) / n,
        }
        pts = np.random.default_rng(2024).random((10**4, n))
        for name, fn in scalar.items():
            want = [fn(p) for p in pts.tolist()]
            assert builtin_target(name, n).eval_batch(pts).tolist() == want


class TestParse:
    def test_product_node(self):
        ast = parse("x1*x2", 2)
        assert isinstance(ast, BinOp)
        assert ast.op == "*"

    def test_double_star_is_syntax_error_at_3(self):
        with pytest.raises(ExpressionError) as err:
            parse("x1**", 2)
        assert err.value.offset == 3

    def test_variable_out_of_range(self):
        with pytest.raises(ExpressionError):
            parse("x3", 2)

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError):
            parse("tan(x1)", 2)

    def test_empty(self):
        with pytest.raises(ExpressionError):
            parse("   ", 2)

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError):
            parse("(x1", 2)

    def test_power_is_right_associative(self):
        # 2^3^2 = 2^(3^2) = 512
        ast = parse("2^3^2", 1)
        assert eval_expr(ast, (0.0,)) == 512.0

    def test_unary_minus_binds_below_power(self):
        ast = parse("-x1^2", 1)
        assert isinstance(ast, Neg)
        assert eval_expr(ast, (3.0,)) == -9.0

    def test_power_with_negative_exponent(self):
        ast = parse("x1^-2", 1)
        assert eval_expr(ast, (2.0,)) == 0.25

    # Unicode digits and letters that Python's str methods accept
    @pytest.mark.parametrize(
        "text, offset", [("x1\u00b2", 2), ("\u00b2", 0), ("x1+\u0663", 3), ("x\u0661", 1)])
    def test_non_ascii_digits_refused(self, text, offset):
        with pytest.raises(ExpressionError, match="unexpected character") as err:
            parse(text, 2)
        assert err.value.offset == offset

    def test_depth_limit(self):
        # MAX_DEPTH levels parse, one more is refused: nested
        # parentheses, a power tower, unary minus and a flat sum
        d = MAX_DEPTH
        parse("(" * (d - 1) + "x1" + ")" * (d - 1), 1)
        parse("x1^" * (d - 1) + "x1", 1)
        parse("-" * (d - 1) + "x1", 1)
        parse("x1+" * (d - 1) + "x1", 1)
        for text, offset in [("(" * d + "x1" + ")" * d, d), ("x1^" * d + "x1", 3 * d),
                             ("-" * d + "x1", d), ("x1+" * d + "x1", None)]:
            with pytest.raises(ExpressionError, match="deep") as err:
                parse(text, 1)
            assert err.value.offset == offset


class TestEval:
    def test_product(self):
        assert eval_expr(parse("x1*x2", 2), (0.5, 0.5)) == 0.25

    def test_sin_zero(self):
        assert eval_expr(parse("sin(0)", 2), (0.3, 0.9)) == 0.0

    def test_gaussian_at_origin(self):
        assert eval_expr(parse("exp(-(x1^2+x2^2))", 2), (0.0, 0.0)) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_expr(parse("1/x1", 1), (0.0,))

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            eval_expr(parse("sqrt(x1-1)", 1), (0.0,))

    def test_precedence(self):
        assert eval_expr(parse("1+2*3", 1), (0.0,)) == 7.0
        assert eval_expr(parse("(1+2)*3", 1), (0.0,)) == 9.0


class TestRoundTrip:
    EXPRESSIONS = [
        "x1*x2",
        "exp(-(x1^2+x2^2))",
        "sin(3.14159*x1)/2",
        "1-x1/2+x2*x2",
        "-x1^2 + sqrt(abs(x2))",
        "cos(x1)^2 + sin(x2)^2",
        "x1^-2",
    ]

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_parse_pretty_parse(self, text):
        first = parse(text, 2)
        second = parse(pretty(first), 2)
        rng = random.Random(17)
        for _ in range(100):
            p = (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
            assert eval_expr(first, p) == pytest.approx(eval_expr(second, p), abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(_ast_strategy(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_random_tree_round_trip(self, tree, x1, x2):
        reparsed = parse(pretty(tree), 2)
        assert eval_expr(reparsed, (x1, x2)) == pytest.approx(
            eval_expr(tree, (x1, x2)), rel=1e-12, abs=1e-12
        )


class TestBuiltins:
    def test_names_and_bounds(self):
        for name in ("zero", "one", "product", "gaussian", "ridge"):
            t = builtin_target(name, 2)
            assert t.dim == 2
            assert t.sup_norm_bound <= 1.0

    def test_values(self):
        at = lambda name, p: float(builtin_target(name, 2).eval_batch(np.asarray([p]))[0])
        assert at("product", (0.5, 0.5)) == 0.25
        assert at("gaussian", (0.0, 0.0)) == 1.0
        assert at("ridge", (0.25, 0.25)) == pytest.approx(0.5)

    def test_unknown_builtin(self):
        with pytest.raises(ExpressionError):
            builtin_target("spam", 2)

    def test_expression_target_bound_dominates_samples(self):
        t = expression_target("x1*x2", 2)
        rng = random.Random(23)
        pts = np.asarray([(rng.random(), rng.random()) for _ in range(200)])
        assert np.all(np.abs(t.eval_batch(pts)) <= t.sup_norm_bound + 1e-12)


class TestModulus:
    def test_zero_function(self):
        t = builtin_target("zero", 2)
        table = modulus(t, 51, [1 / 6, 1 / 36])
        assert all(v == 0.0 for v in table.values())

    def test_coordinate_projection(self):
        t = expression_target("x1", 2)
        res = 101
        table = modulus(t, res, [6**-1, 6**-2, 6**-3])
        for h, w in table.items():
            assert abs(w - h) <= 2 / res

    def test_product_lipschitz(self):
        t = builtin_target("product", 2)
        table = modulus(t, 101, [6**-1, 6**-2, 6**-3])
        for h, w in table.items():
            assert w <= 2 * h + 1e-12

    def test_monotone_in_h(self):
        t = builtin_target("gaussian", 2)
        table = modulus(t, 51, [6**-3, 6**-1, 6**-2])
        hs = sorted(table)
        assert all(table[hs[i]] <= table[hs[i + 1]] for i in range(len(hs) - 1))

    def test_vanishing_limit(self):
        t = builtin_target("gaussian", 2)
        table = modulus(t, 51, [1e-3])
        assert table[1e-3] < 0.01

    def test_math_sanity(self):
        assert math.isclose(builtin_target("ridge", 2).eval_batch(np.asarray([[0.5, 0.5]]))[0],
                            math.sin(math.pi) / 2, abs_tol=1e-15)
