"""Geometric machinery of the outer construction: the lattice indices of
a bump family, the plateau tail constant, and the exact disjointness
audit of a bump family.

Family j at depth k places its bumps at the images
sum_i lambda_i * psi(d_i + j * a_k) of the depth-k grid vectors d, where
a_k = sum_{l=2..k} gamma**-l is the shift a cut at depth k. Every such
argument is a point of the depth-k lattice, so one family axis of
lattice indices (family_axis) serves the float bump grids and the exact
audit alike.

The audit is exact. At n=2, gamma=6, k=2 the ramp slope is
6**7 = 279936 while the plateau is about 4e-6; gap checks in doubles
would be tolerance-dependent, so disjointness is audited in rational
arithmetic with no tolerance at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, DomainError
from .inner import InnerEvaluator
from .params import KstParams, LambdaCoeffs, beta

AUDIT_BUMP_BUDGET = 10**4


def family_axis(params: KstParams, k: int, j: int) -> np.ndarray:
    """Lattice indices i + j * sum_{l=2..k} gamma**(k-l), i = 0..gamma**k,
    of the arguments i * gamma**-k + j * a_k of family j at depth k: the
    gamma**k regular anchors and the top column i = gamma**k. All lie in
    [0, 2 * gamma**k)."""
    if not (0 <= j <= params.m):
        raise DomainError(f"shift index must lie in [0, {params.m}]")
    g = params.gamma
    shift_step = sum(g ** (k - ell) for ell in range(2, k + 1))
    return np.arange(g**k + 1, dtype=np.int64) + j * shift_step


@dataclass(frozen=True)
class BkResult:
    """Tail constant with its certified truncation interval.

    ``value`` is the lower partial sum and is what the construction
    uses; ``hi`` adds a geometric bound on the dropped terms of the
    l-series, relative to the run's (already truncated) lambda weights.
    """

    value: Fraction
    hi: Fraction


def b_k(params: KstParams, lambdas: LambdaCoeffs, k: int) -> BkResult:
    """Plateau tail constant (sum_{l>k} gamma**(-beta_n(l))) * (sum lambda_i).

    The l-series keeps lambda_depth terms beyond k. The first dropped
    term is gamma**(-beta_n(k+depth+1)) and successive ratios are below
    gamma**(-1), so the dropped tail is at most that term divided by
    (1 - 1/gamma).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    n, g, depth = params.n, params.gamma, params.lambda_depth
    partial = sum(
        (Fraction(1, g ** beta(n, ell)) for ell in range(k + 1, k + depth + 1)),
        Fraction(0),
    )
    total_lambda = lambdas.total
    tail_first = Fraction(1, g ** beta(n, k + depth + 1))
    tail = tail_first * Fraction(g, g - 1)
    return BkResult(value=partial * total_lambda, hi=(partial + tail) * total_lambda)


@dataclass(frozen=True)
class DisjointnessAudit:
    min_gap: Fraction
    ok: bool
    count: int
    k: int
    j: int


def disjoint_support_audit(
    params: KstParams,
    lambdas: LambdaCoeffs,
    ev: InnerEvaluator,
    k: int,
    j: int,
) -> DisjointnessAudit:
    """Exact disjointness check of one (k, j) bump family.

    The images of the gamma**(nk) regular anchors, exact sums of the
    lattice values N_k / D_k at the first gamma**k indices of the family
    axis, are sorted, and the smallest distance between consecutive
    support intervals is computed in rational arithmetic.
    Support radii use the upper end of the tail-constant interval, so a
    positive min_gap certifies disjointness of the actual bumps, whose
    plateau uses the lower partial sum.
    """
    g, n = params.gamma, params.n
    if g ** (n * k) > AUDIT_BUMP_BUDGET:
        raise BudgetError(
            f"family size {g ** (n * k)} exceeds the audit budget {AUDIT_BUMP_BUDGET}"
        )
    nums, den = ev.lattice(k)
    scale = g**k
    psi = [Fraction(i // scale * den + nums[i % scale], den)
           for i in family_axis(params, k, j)[:-1].tolist()]
    terms = [[lam * v for v in psi] for lam in lambdas.values]
    bk = b_k(params, lambdas, k)
    ramp = Fraction(1, g ** beta(n, k + 1))
    plateau_hi = (g - 2) * bk.hi
    images = sorted(sum(t) for t in itertools.product(*terms))
    min_gap: Fraction | None = None
    for prev, nxt in zip(images, images[1:]):
        gap = (nxt - ramp) - (prev + plateau_hi + ramp)
        if min_gap is None or gap < min_gap:
            min_gap = gap
    if min_gap is None:
        min_gap = Fraction(0)
    return DisjointnessAudit(
        min_gap=min_gap, ok=min_gap > 0, count=len(images), k=k, j=j
    )
