"""Differential test: the whole first-round approximant is recomputed
by an independent straight-line implementation (own weights, own grid
recursion, own trapezoid arithmetic) and compared pointwise.

Sample points are rationals with denominator 97, whose shifted images
stay at least 3e-4 cells away from every truncation-lattice boundary,
so the library's float evaluation rule and the oracle's exact-argument
truncation provably agree.
"""

from fractions import Fraction

import numpy as np
import pytest

from kst.decompose import f_r, init_state, iterate
from kst.params import beta
from kst.target import builtin_target
from oracles import oracle_psi


def oracle_lambda(i, gamma, n, depth):
    return sum(
        Fraction(1, gamma ** ((i - 1) * beta(n, ell))) for ell in range(1, depth + 1)
    ) if i > 1 else Fraction(1)


def oracle_psi_extended(q, k_depth, n, gamma):
    """Exact grid value at a gamma-adic q in [0, 2)."""
    shift = 0
    if q >= 1:
        shift = 1
        q = q - 1
    num = q * gamma**k_depth
    assert num.denominator == 1
    return shift + oracle_psi(int(num), k_depth, n, gamma)


def oracle_trunc_psi(q, depth, n, gamma):
    """Truncated continuum value at an exact rational q in [0, 2)."""
    shift = 0
    if q >= 1:
        shift = 1
        q = q - 1
    i = (q * gamma**depth).numerator // (q * gamma**depth).denominator
    return shift + oracle_psi(i, depth, n, gamma)


def oracle_f1(x, target, params, k1, lambda_depth, k_trunc):
    """First-round approximant from scratch."""
    n, m, g = params.n, params.m, params.gamma
    lams = [oracle_lambda(i, g, n, lambda_depth) for i in range(1, n + 1)]
    lam_f = [float(v) for v in lams]
    b = sum(
        Fraction(1, g ** beta(n, ell)) for ell in range(k1 + 1, k1 + lambda_depth + 1)
    ) * sum(lams, Fraction(0))
    plateau = float((g - 2) * b)
    slope = float(g ** beta(n, k1 + 1))
    axis = [Fraction(i, g**k1) for i in range(g**k1 + 1)]

    total = 0.0
    a = Fraction(1, g * (g - 1))
    for j in range(m + 1):
        s_j = j * sum((Fraction(1, g**ell) for ell in range(2, k1 + 1)), Fraction(0))
        y = sum(
            lam_f[i] * float(oracle_trunc_psi(Fraction(x[i]) + j * a, k_trunc, n, g))
            for i in range(n)
        )
        for d in _product(axis, n):
            xi = sum(
                lams[i] * oracle_psi_extended(d[i] + s_j, _depth_of(d[i] + s_j, g), n, g)
                for i in range(n)
            )
            coeff = target(tuple(float(v) for v in d)) / (m + 1)
            t1 = min(max(slope * (y - float(xi)) + 1.0, 0.0), 1.0)
            t2 = min(max(slope * (y - float(xi) - plateau), 0.0), 1.0)
            total += coeff * (t1 - t2)
    return total


def _product(axis, n):
    if n == 1:
        for v in axis:
            yield (v,)
    else:
        for v in axis:
            for rest in _product(axis, n - 1):
                yield (v,) + rest


def _depth_of(q, gamma, cap=16):
    for k in range(1, cap + 1):
        if (q * gamma**k).denominator == 1:
            return k
    raise AssertionError("not a gamma-adic rational")


@pytest.mark.parametrize("name", ["product", "gaussian"])
def test_first_round_matches_independent_reimplementation(name):
    target = builtin_target(name, 2)
    state = iterate(init_state(target))
    k1 = state.k_list[0]
    p = state.params
    rng = np.random.default_rng(19)
    numerators = rng.integers(1, 96, size=(12, 2))
    worst = 0.0
    for row in numerators:
        x = (Fraction(int(row[0]), 97), Fraction(int(row[1]), 97))
        mine = f_r(state, np.asarray([[float(x[0])], [float(x[1])]]))[0]
        theirs = oracle_f1(x, target, p, k1, p.lambda_depth, state.k_trunc)
        worst = max(worst, abs(mine - theirs))
    assert worst <= 1e-9, f"max deviation {worst}"
