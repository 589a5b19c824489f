import random
from fractions import Fraction

import pytest

from kst.bumps import b_k, disjoint_support_audit
from kst.errors import BudgetError, DomainError
from kst.inner import InnerEvaluator
from kst.params import beta, lambda_coeffs, make_params
from oracles import (
    DigitPsi,
    ShiftedGrid,
    grid_shift,
    integer_image_audit,
    make_bump,
    sigma,
    theta,
    theta_exact,
    xi,
)


@pytest.fixture(scope="module")
def setup6():
    p = make_params(2)
    return p, lambda_coeffs(p), InnerEvaluator(p)


@pytest.fixture(scope="module")
def setup10_depth3():
    p = make_params(2, gamma=10, lambda_depth=3)
    return p, lambda_coeffs(p), InnerEvaluator(p)


class TestSigma:
    @pytest.mark.parametrize("x,expected", [(-1.0, 0.0), (0.5, 0.5), (2.0, 1.0)])
    def test_clamp(self, x, expected):
        assert sigma(x) == expected

    def test_matches_relu_difference(self):
        rng = random.Random(3)
        relu = lambda v: max(v, 0.0)
        for _ in range(10_000):
            x = rng.uniform(-3, 3)
            assert sigma(x) == relu(x) - relu(x - 1.0)


class TestShiftedGrid:
    def test_shift_zero_cases(self, setup6):
        p, _, _ = setup6
        assert ShiftedGrid(p, 1, 3).shift == 0
        assert ShiftedGrid(p, 2, 0).shift == 0

    def test_shift_value(self, setup6):
        p, _, _ = setup6
        assert grid_shift(p, 2, 3) == Fraction(3, 36)
        assert grid_shift(p, 3, 2) == 2 * (Fraction(1, 36) + Fraction(1, 216))

    def test_size(self, setup6):
        p, _, _ = setup6
        g = ShiftedGrid(p, 2, 1)
        assert g.size == 6**4
        assert sum(1 for _ in g.points()) == 6**4


class TestXi:
    def test_zero_vector(self, setup6):
        p, lam, ev = setup6
        assert xi(p, lam, ev, (Fraction(0), Fraction(0))) == 0

    def test_level_one_value(self, setup10_depth3):
        p, lam, ev = setup10_depth3
        got = xi(p, lam, ev, (Fraction(3, 10), Fraction(3, 10)))
        assert got == Fraction(33030003, 10**8)

    def test_domain_guard(self, setup6):
        p, lam, ev = setup6
        with pytest.raises(DomainError):
            xi(p, lam, ev, (Fraction(2), Fraction(0)))

    def test_range_bound(self, setup6):
        p, lam, ev = setup6
        sup = p.phi_domain_sup
        for d in ShiftedGrid(p, 1, 0).points():
            assert 0 <= xi(p, lam, ev, d) < sup
        for d in ShiftedGrid(p, 2, 4).points():
            assert 0 <= xi(p, lam, ev, d) < sup


class TestBk:
    def test_partial_sum_structure_gamma6(self, setup6):
        p, lam, _ = setup6
        res = b_k(p, lam, 1)
        expected = sum(
            (Fraction(1, 6 ** beta(2, ell)) for ell in range(2, 10)), Fraction(0)
        ) * lam.total
        assert res.value == expected
        assert res.value <= res.hi

    def test_two_term_example_gamma10(self, setup10_depth3):
        p, lam, _ = setup10_depth3
        res = b_k(p, lam, 1)
        approx = (Fraction(1, 10**3) + Fraction(1, 10**7)) * (1 + lam.values[1])
        # the exact value also carries the 10^-15 term of the l-series
        assert abs(float(res.value) - float(approx)) < 1e-12 * float(approx)
        assert res.value > approx

    def test_geometric_decay(self, setup6):
        p, lam, _ = setup6
        prev = b_k(p, lam, 1).value
        for k in range(2, 5):
            cur = b_k(p, lam, k).value
            ratio_bound = Fraction(1, 6 ** (beta(2, k + 1) - beta(2, k)))
            assert cur <= prev * ratio_bound
            prev = cur

    def test_certified_width(self, setup6):
        p, lam, _ = setup6
        for k in (1, 2, 3):
            res = b_k(p, lam, k)
            width_cap = 2 * Fraction(1, 6 ** beta(2, k + 1 + p.lambda_depth))
            assert res.hi - res.value < width_cap


class TestTheta:
    def _bump(self, setup):
        p, lam, ev = setup
        bk = b_k(p, lam, 1)
        image = xi(p, lam, ev, (Fraction(1, 6), Fraction(2, 6)))
        return make_bump(p, bk, image, 1)

    def test_plateau_left_edge_is_one(self, setup6):
        spec = self._bump(setup6)
        assert theta_exact(spec, spec.center_left) == 1

    def test_left_support_edge_is_zero(self, setup6):
        spec = self._bump(setup6)
        assert theta_exact(spec, spec.support_lo) == 0

    def test_right_support_edge_is_zero(self, setup6):
        spec = self._bump(setup6)
        assert theta_exact(spec, spec.support_hi) == 0

    def test_plateau_right_edge_is_one(self, setup6):
        spec = self._bump(setup6)
        assert theta_exact(spec, spec.center_left + spec.plateau) == 1

    def test_float_matches_exact_on_samples(self, setup6):
        spec = self._bump(setup6)
        rng = random.Random(5)
        lo, hi = float(spec.support_lo), float(spec.support_hi)
        for _ in range(500):
            x = rng.uniform(lo - 0.01, hi + 0.01)
            assert theta(spec, x) == pytest.approx(
                float(theta_exact(spec, Fraction(repr(x)))), abs=1e-9
            )

    def test_lipschitz_bound_sampled(self, setup6):
        spec = self._bump(setup6)
        rng = random.Random(9)
        lo, hi = float(spec.support_lo), float(spec.support_hi)
        for _ in range(2000):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            if x == y:
                continue
            rate = abs(theta(spec, x) - theta(spec, y)) / abs(x - y)
            assert rate <= spec.slope * (1 + 1e-9)

    def test_bounded_and_nonnegative(self, setup6):
        spec = self._bump(setup6)
        rng = random.Random(13)
        for _ in range(2000):
            x = rng.uniform(-0.5, 3.0)
            assert 0.0 <= theta(spec, x) <= 1.0


class TestDisjointness:
    def test_k2_families_disjoint(self, setup6):
        p, lam, ev = setup6
        for j in (0, 3):
            audit = disjoint_support_audit(p, lam, ev, 2, j)
            assert audit.count == 1296
            assert audit.ok
            assert audit.min_gap > 0

    def test_k1_family_overlaps(self, setup6):
        # The depth-1 ramps are wider than the street between images,
        # so this family genuinely overlaps; pinned as a regression.
        p, lam, ev = setup6
        audit = disjoint_support_audit(p, lam, ev, 1, 0)
        assert audit.count == 36
        assert not audit.ok
        assert audit.min_gap < 0

    def test_budget_guard(self, setup6):
        p, lam, ev = setup6
        with pytest.raises(BudgetError):
            disjoint_support_audit(p, lam, ev, 3, 0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_min_gap_matches_shifted_grid_oracle(self, k):
        # the lattice images against xi over the Fraction grid, whose
        # values come from the digit recursion
        p = make_params(2)
        lam, ev = lambda_coeffs(p), DigitPsi(p)
        ramp = Fraction(1, p.gamma ** beta(p.n, k + 1))
        plateau_hi = (p.gamma - 2) * b_k(p, lam, k).hi
        for j in range(p.m + 1):
            images = sorted(xi(p, lam, ev, d) for d in ShiftedGrid(p, k, j).points())
            gap = min((b - ramp) - (a + plateau_hi + ramp) for a, b in zip(images, images[1:]))
            audit = disjoint_support_audit(p, lam, InnerEvaluator(p), k, j)
            assert (audit.min_gap, audit.count) == (gap, len(images)), j

    @pytest.mark.parametrize("m, gamma, k", [(None, 6, 1), (None, 6, 2), (None, 8, 1),
                                             (8, 10, 1)])
    def test_integer_images_give_the_fraction_audit(self, m, gamma, k):
        p = make_params(2, m=m, gamma=gamma)
        lam, ev = lambda_coeffs(p), InnerEvaluator(p)
        for j in range(p.m + 1):
            want = disjoint_support_audit(p, lam, ev, k, j)
            assert integer_image_audit(p, lam, ev, k, j) == want, j

    def test_json_shape(self, setup6):
        p, lam, ev = setup6
        # the fields the benchmark's audit records are made of
        audit = disjoint_support_audit(p, lam, ev, 2, 1)
        assert (audit.k, audit.j, audit.count) == (2, 1, p.gamma ** (2 * p.n))
        assert audit.ok == (audit.min_gap > 0) and isinstance(audit.min_gap, Fraction)


class TestXiMonotone:
    def test_monotone_in_each_coordinate_digit_restricted(self, setup6):
        p, lam, ev = setup6
        g = p.gamma
        vals = [Fraction(i, g**2) for i in range(g**2)]
        small = [v for v in vals if all(d < g - 1 for d in _digits(v, g, 2))]
        base = xi(p, lam, ev, (small[0], small[0]))
        for axis in range(2):
            prev = None
            for v in small:
                point = [small[0], small[0]]
                point[axis] = v
                cur = xi(p, lam, ev, tuple(point))
                if prev is not None:
                    assert cur > prev
                prev = cur
        assert base == xi(p, lam, ev, (small[0], small[0]))


def _digits(q, g, k):
    out = []
    rem = q
    for _ in range(k):
        rem *= g
        d = int(rem)
        out.append(d)
        rem -= d
    return out
