import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kst.decompose import init_state, state_from_json_dict, state_json_text
from kst.errors import ConstraintViolation
from kst.params import KstParams, beta, big_int_digits, lambda_coeffs, make_params
from kst.target import builtin_target


class TestBeta:
    @pytest.mark.parametrize(
        "n,ell,expected",
        [(2, 1, 1), (2, 3, 7), (3, 2, 4), (2, 4, 15), (3, 3, 13), (10, 5, 11111)],
    )
    def test_values(self, n, ell, expected):
        assert beta(n, ell) == expected

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=12))
    def test_recurrence(self, n, ell):
        assert beta(n, ell + 1) == n * beta(n, ell) + 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConstraintViolation):
            beta(1, 3)
        with pytest.raises(ConstraintViolation):
            beta(2, 0)


class TestMakeParams:
    def test_defaults_n2(self):
        p = make_params(2)
        assert p.m == 4
        assert p.gamma == 6
        assert p.a == Fraction(1, 30)
        assert math.isclose(p.alpha, math.log(2) / math.log(6), rel_tol=1e-15)
        assert math.isclose(p.alpha, 0.3869, abs_tol=5e-5)

    def test_gamma_override_changes_shift(self):
        p = make_params(2, gamma=10)
        assert p.a == Fraction(1, 90)

    def test_contraction_constraint_violation(self):
        # (m-n+1)/(n+1)*delta + 2n/(m+1) = 0.1 + 0.8 = 0.9 > 0.85
        with pytest.raises(ConstraintViolation) as err:
            make_params(2, delta=0.1, eta=0.85)
        assert "eta" in str(err.value)

    def test_gamma_too_small(self):
        with pytest.raises(ConstraintViolation) as err:
            make_params(2, gamma=5)
        assert "gamma" in str(err.value)

    def test_m_too_small(self):
        with pytest.raises(ConstraintViolation):
            make_params(3, m=5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_defaults_satisfy_constraints_exactly(self, n):
        p = make_params(n)
        d, e = Fraction(p.delta), Fraction(p.eta)
        lower = Fraction(p.m - n + 1, n + 1) * d + Fraction(2 * n, p.m + 1)
        assert lower <= e < 1
        assert 0 < d < p.delta_upper_bound

    def test_delta_bound_flag(self):
        # At the defaults the printed bound 1 - n/(n-m+1) exceeds one.
        p = make_params(2)
        assert p.delta_upper_bound == 3
        assert p.delta_bound_exceeds_one

    def test_nu_formula(self):
        p = make_params(2)
        assert math.isclose(p.nu, 2 ** (-p.alpha) * 9, rel_tol=1e-15)

    def test_json_round_trip(self):
        p = make_params(2, gamma=10)
        q = KstParams.from_json_dict(p.to_json_dict())
        assert q == p


def test_import_keeps_int_digit_limit():
    code = (
        "import sys; sys.set_int_max_str_digits(5000); "
        "import kst, kst.cli; print(sys.get_int_max_str_digits())"
    )
    env = os.environ | {"PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "5000"


def test_n3_json_round_trip():
    p = make_params(3)
    limit = sys.get_int_max_str_digits()
    text = json.dumps({"params": p.to_json_dict(), "lambdas": lambda_coeffs(p).to_json_dict()})
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(text)
    assert KstParams.from_json_dict(doc["params"]) == p
    lam = lambda_coeffs(p)
    assert len(doc["lambdas"]["values"][2]["den"]) > 4300
    with big_int_digits():
        values = [Fraction(int(v["num"]), int(v["den"])) for v in doc["lambdas"]["values"]]
    assert tuple(values) == lam.values
    state = init_state(builtin_target("product", 3))
    again = state_from_json_dict(json.loads(state_json_text(state)))
    assert state_json_text(again) == state_json_text(state)


class TestLambdaCoeffs:
    def test_lambda1_is_one(self):
        for n in (2, 3, 4):
            lam = lambda_coeffs(make_params(n))
            assert lam.values[0] == 1

    def test_partial_sum_example(self):
        p = make_params(2, gamma=10, lambda_depth=3)
        lam = lambda_coeffs(p)
        assert lam.values[1] == Fraction(1010001, 10**7)

    def test_sum_below_ratio_bound(self):
        p = make_params(2)  # gamma = 6
        lam = lambda_coeffs(p)
        assert lam.total + p.n * lam.tail_bound < Fraction(5, 4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_strictly_decreasing_and_in_range(self, n):
        lam = lambda_coeffs(make_params(n))
        vals = lam.values
        assert all(0 < v < 1 for v in vals[1:])
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_depth_consistency(self, depth):
        # Successive truncations differ by at most the shallower tail bound.
        shallow = lambda_coeffs(make_params(2, lambda_depth=depth))
        deep = lambda_coeffs(make_params(2, lambda_depth=depth + 1))
        diff = deep.values[1] - shallow.values[1]
        assert 0 <= diff <= shallow.tail_bound
