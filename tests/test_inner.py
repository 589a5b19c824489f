import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from kst.bumps import family_axis
from kst.cli import main
from kst.decompose import family_grid
from kst.errors import BudgetError, DomainError
from kst.inner import InnerEvaluator
from kst.params import beta, lambda_coeffs, make_params
from oracles import BaseGammaPoint, DigitPsi, holder_audit, oracle_closed_form, oracle_psi


@pytest.fixture(scope="module")
def ev10():
    return InnerEvaluator(make_params(2, gamma=10))


@pytest.fixture(scope="module")
def ev6():
    return InnerEvaluator(make_params(2))


def _truncate(x: Fraction, k: int, gamma: int) -> Fraction:
    """x cut to its first k base-gamma digits."""
    return Fraction(math.floor(x * gamma**k), gamma**k)


class TestBaseGammaPoint:
    # the digit points of the oracle recursion
    def test_value_and_depth(self):
        p = BaseGammaPoint((1, 2), 10)
        assert p.value() == Fraction(12, 100)
        assert p.k == 2

    def test_equality_after_zero_padding(self):
        assert BaseGammaPoint((3,), 10) == BaseGammaPoint((3, 0, 0), 10)
        assert hash(BaseGammaPoint((3,), 10)) == hash(BaseGammaPoint((3, 0), 10))

    def test_digit_range_validated(self):
        with pytest.raises(DomainError):
            BaseGammaPoint((10,), 10)

    def test_from_fraction(self):
        p = BaseGammaPoint.from_fraction(Fraction(9, 100), 10)
        assert p.digits == (0, 9)
        with pytest.raises(DomainError):
            BaseGammaPoint.from_fraction(Fraction(1, 7), 6, max_depth=16)


class TestPsiGrid:
    def test_level_one_identity(self, ev10):
        assert ev10.psi_grid(Fraction(3, 10)) == Fraction(3, 10)

    def test_digit_restricted_point(self, ev10):
        # 0.12 -> 1*10^-1 + 2*10^-3, frozen from the closed form
        assert ev10.psi_grid(Fraction(12, 100)) == Fraction(102, 1000)

    def test_averaging_case(self, ev10):
        # 0.09: last digit is gamma-1, so the value is the average
        # (psi(0.08) + psi(0.10)) / 2 = (0.008 + 0.1) / 2 = 0.054
        assert ev10.psi_grid(Fraction(9, 100)) == Fraction(54, 1000)

    def test_matches_oracle_on_d2(self, ev6):
        g = 6
        for i in range(g**2):
            assert ev6.psi_grid(Fraction(i, g**2)) == oracle_psi(i, 2, 2, g)

    def test_matches_closed_form_when_digits_small(self, ev6):
        g, n = 6, 2
        for digits in itertools.product(range(g - 1), repeat=3):
            point = BaseGammaPoint(digits, g).value()
            assert ev6.psi_grid(point) == oracle_closed_form(digits, n, g)

    def test_depth_consistency(self, ev10):
        # trailing zero digits leave the value alone: index 100 * i at
        # depth 4 is the point i / 100 of depth 2
        for i in range(100):
            num, _, den = ev10.lattice_pair(4, 100 * i)
            assert Fraction(num, den) == ev10.psi_grid(Fraction(i, 100))

    @pytest.mark.parametrize("gamma", [6, 10])
    def test_range_up_to_depth_4(self, gamma):
        ev = InnerEvaluator(make_params(2, gamma=gamma))
        k = 4 if gamma == 6 else 3
        for i in range(gamma**k):
            v = ev.psi_grid(Fraction(i, gamma**k))
            assert 0 <= v < 1


class TestPsiContinuum:
    # values at truncated points, read by the walk and by the oracle's
    # certified continuum reader
    def test_zero(self, ev10):
        r = DigitPsi(ev10.params).psi(0, 3)
        assert r.value_exact == ev10.psi_exact_extended(0) == 0
        assert r.value == 0.0

    def test_shift_rule_value(self, ev10):
        r = DigitPsi(ev10.params).psi(1.3, 1)
        assert r.value_exact == ev10.psi_exact_extended(Fraction(13, 10)) == Fraction(13, 10)

    def test_truncated_grid_point(self, ev10):
        p = ev10.params
        r = DigitPsi(p).psi(0.12, 3)
        assert r.value_exact == ev10.psi_grid(Fraction(12, 100)) == Fraction(102, 1000)
        assert r.err_bound == pytest.approx(p.nu * p.gamma ** (-3 * p.alpha), rel=1e-14)

    def test_domain_errors(self, ev10):
        oracle = DigitPsi(ev10.params)
        with pytest.raises(DomainError):
            oracle.psi(2.0, 3)
        with pytest.raises(DomainError):
            oracle.psi(-0.1, 3)

    def test_shift_identity_exact(self, ev6):
        rng = random.Random(7)
        for _ in range(200):
            x = Fraction(repr(rng.random()))
            k = rng.randint(1, 6)
            q = _truncate(x, k, 6)
            assert ev6.psi_exact_extended(q + 1) - ev6.psi_exact_extended(q) == 1

    def test_truncation_certificate(self, ev6):
        p = ev6.params
        rng = random.Random(11)
        for _ in range(300):
            x = Fraction(repr(rng.random()))
            k = rng.randint(1, 6)
            a = ev6.psi_grid(_truncate(x, k, 6))
            b = ev6.psi_grid(_truncate(x, k + 1, 6))
            assert abs(b - a) <= Fraction(repr(p.nu * p.gamma ** (-p.alpha * k)))


class TestHolderAudit:
    @pytest.mark.parametrize("gamma,k", [(6, 1), (6, 2), (10, 1)])
    def test_ratio_below_one(self, gamma, k):
        ev = InnerEvaluator(make_params(2, gamma=gamma))
        audit = holder_audit(ev, k)
        assert audit["max_ratio"] <= 1.0

    def test_budget_guard(self, ev10):
        with pytest.raises(BudgetError):
            holder_audit(ev10, 8)

    def test_single_pair_value(self, ev10):
        # ratio over (0, 1/gamma) is gamma^-1 / (nu * gamma^-alpha) < 1
        p = ev10.params
        expected = (1 / p.gamma) / (p.nu * (1 / p.gamma) ** p.alpha)
        audit = holder_audit(ev10, 1)
        assert audit["max_ratio"] >= expected - 1e-15
        assert expected < 1
        # the witness pair attains the reported ratio
        x, y = audit["witness"]
        table = ev10.float_table(1)
        ratio = abs(table[round(x * p.gamma)] - table[round(y * p.gamma)]) / (
            p.nu * abs(x - y) ** p.alpha)
        assert x != y and ratio == pytest.approx(audit["max_ratio"], rel=1e-14)


def inner_rows(tmp_path, gamma: int, k: int) -> list[list[str]]:
    """The data rows of ``kst inner --n 2 --gamma G --k K``, as text pairs."""
    out = tmp_path / "psi.csv"
    assert main(["inner", "--n", "2", "--gamma", str(gamma), "--k", str(k),
                 "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "d,psi"
    return [row.split(",") for row in rows]


class TestPlotData:
    # the rows kst inner prints, against the exact lattice
    def test_level_one_rows(self, tmp_path):
        rows = inner_rows(tmp_path, 10, 1)
        assert len(rows) == 10
        assert all(d == v for d, v in rows)

    def test_level_three_monotone(self, tmp_path, ev10):
        rows = inner_rows(tmp_path, 10, 3)
        assert len(rows) == 1000
        nums, den = ev10.lattice(3)
        assert [(float(d), float(v)) for d, v in rows] == [
            (float(Fraction(i, 1000)), float(Fraction(nums[i], den))) for i in range(1000)]
        vals = [float(v) for _, v in rows]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_k_zero_rejected(self, capsys):
        assert main(["inner", "--n", "2", "--gamma", "10", "--k", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_budget_guard(self, capsys):
        assert main(["inner", "--n", "2", "--gamma", "10", "--k", "7"]) == 3
        assert "budget guard:" in capsys.readouterr().err


@st.composite
def lattice_depths(draw):
    """(n, gamma, k) with gamma from m + 2 at the default m = 2n up to 10
    and at most 5000 points on the depth-k grid."""
    n = draw(st.sampled_from([2, 3]))
    gamma = draw(st.integers(2 * n + 2, 10))
    k = draw(st.integers(1, max(k for k in range(1, 8) if gamma**k <= 5000)))
    return n, gamma, k


class TestLattice:
    @settings(derandomize=True, deadline=None)
    @given(lattice_depths())
    def test_every_entry_matches_oracle(self, depth):
        n, gamma, k = depth
        ev = InnerEvaluator(make_params(n, gamma=gamma))
        nums, den = ev.lattice(k)
        assert den == 2 ** (k - 1) * gamma ** beta(n, k)
        assert len(nums) == gamma**k + 1
        exact = [oracle_psi(i, k, n, gamma) for i in range(gamma**k + 1)]
        assert [Fraction(v, den) for v in nums] == exact
        # one rounding of the exact value, bit for bit
        expected = np.asarray([float(v) for v in exact[:-1]])
        assert ev.psi_table(k).tobytes() == expected.tobytes()

    @settings(derandomize=True, deadline=None)
    @given(lattice_depths(), st.integers(0, 2), st.data())
    def test_trunc_float_matches_exact_psi(self, depth, extra, data):
        # q on a grid up to two levels finer than the truncation depth k;
        # the sampled values are q = 1, the rest of [1, 2), and the
        # carries just below 1 and 2 and out of a full lowest digit
        n, gamma, k = depth
        scale = gamma ** (k + extra)
        cell = gamma**extra
        special = [0, scale, scale + 1, scale - 1, scale - cell, 2 * scale - 1,
                   2 * scale - cell, gamma * cell - 1, scale + gamma * cell - 1]
        idx = data.draw(st.one_of(
            st.sampled_from([i for i in special if 0 <= i < 2 * scale]),
            st.integers(0, 2 * scale - 1),
        ))
        q = Fraction(idx, scale)
        p = make_params(n, gamma=gamma)
        ev = InnerEvaluator(p)
        assert ev.psi_trunc_float(q, k) == float(DigitPsi(p).psi(q, k).value_exact)

    @pytest.mark.parametrize("gamma,k", [(g, k) for g in (6, 10) for k in (1, 2, 3, 4)])
    def test_every_reader_rounds_once(self, gamma, k):
        # psi at every cell-aligned float of [0, 2), rounded once from the
        # exact digit recursion, whichever reader is asked; on [1, 2) that
        # is float(1 + psi), not 1.0 + float(psi)
        p = make_params(2, gamma=gamma)
        ev = InnerEvaluator(p)
        scale = gamma**k
        exact = DigitPsi(p)
        want = np.asarray([float(exact.psi_exact_extended(Fraction(i, scale)))
                           for i in range(2 * scale)])
        assert ev.psi_trunc_vector(np.arange(2 * scale) / scale, k).tobytes() == want.tobytes()
        assert [ev.psi_trunc_float(Fraction(i, scale), k) for i in range(2 * scale)] == list(want)
        assert ev.psi_table(k).tobytes() == want[:scale].tobytes()
        if (scale + 1) ** 2 > 10**5:
            return
        lams = np.asarray([float(v) for v in lambda_coeffs(p).values])
        state = SimpleNamespace(params=p, ev=ev, lambdas=lambda_coeffs(p))
        for j in range(p.m + 1):
            psi = want[family_axis(p, k, j)]
            images = (lams[0] * psi)[:, None] + (lams[1] * psi)[None, :]
            grid = family_grid(state, j, k)
            assert grid.xi.tobytes() == np.sort(images.ravel()).tobytes()

    def test_trunc_float_edges(self, ev6):
        for k in (1, 3, 5):
            assert ev6.psi_trunc_float(Fraction(1), k) == 1.0
            below_one = ev6.psi_exact_extended(1 - Fraction(1, 6**k))
            assert ev6.psi_trunc_float(1 - Fraction(1, 6**k), k) == float(below_one) < 1.0
            assert ev6.psi_trunc_float(2 - Fraction(1, 6**k), k) == float(1 + below_one)
        # 1 + psi is rounded once: adding 1.0 to the rounded psi(5/6)
        # would give 1.8333333333333335
        assert ev6.psi_trunc_float(Fraction(11, 6), 1) == 1.8333333333333333
        with pytest.raises(DomainError):
            ev6.psi_trunc_float(Fraction(2), 3)


@st.composite
def walk_points(draw):
    """(n, gamma, q) with q in [0, 2) on a grid of depth up to 12, gamma
    from 6, 8 and 10 at least m + 2 at the default m = 2n."""
    n = draw(st.sampled_from([2, 3]))
    gamma = draw(st.sampled_from([g for g in (6, 8, 10) if g >= 2 * n + 2]))
    k = draw(st.integers(1, 12))
    return n, gamma, Fraction(draw(st.integers(0, 2 * gamma**k - 1)), gamma**k)


class TestPairWalk:
    @pytest.mark.parametrize("n,gamma", [(2, 6), (2, 10), (3, 8)])
    def test_matches_lattice_at_every_index(self, n, gamma):
        ev = InnerEvaluator(make_params(n, gamma=gamma))
        k = 1
        while gamma**k <= 10**5:
            nums, den = ev.lattice(k)
            for i in range(gamma**k):
                assert ev.lattice_pair(k, i) == (nums[i], nums[i + 1], den), (k, i)
            k += 1

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(walk_points())
    def test_matches_digit_recursion(self, point):
        n, gamma, q = point
        p = make_params(n, gamma=gamma)
        assert InnerEvaluator(p).psi_exact_extended(q) == DigitPsi(p).psi_exact_extended(q)

    def test_top_cell_below_one_and_carry_to_one(self, ev6):
        for k in range(1, 8):
            below, carry, den = ev6.lattice_pair(k, 6**k - 1)
            assert below < den and carry == den
            assert ev6.psi_grid(1 - Fraction(1, 6**k)) == Fraction(below, den) < 1
        assert ev6.psi_exact_extended(Fraction(1)) == 1

    def test_domain_errors(self, ev6):
        for q in (Fraction(-1, 6), Fraction(2), Fraction(13, 6), Fraction(1, 7),
                  1 + Fraction(1, 7), Fraction(1, 6 * 7**3)):
            with pytest.raises(DomainError):
                ev6.psi_exact_extended(q)
        for q in (Fraction(-1, 6), Fraction(1), Fraction(1, 7)):
            with pytest.raises(DomainError):
                ev6.psi_grid(q)
        for k, i in ((0, 0), (2, -1), (2, 36)):
            with pytest.raises(DomainError):
                ev6.lattice_pair(k, i)
