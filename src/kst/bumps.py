"""Geometric machinery of the outer construction: shifted grids, image
points of grid vectors, the plateau tail constant, and the exact
disjointness audit of a bump family.

Everything here is exact. At n=2, gamma=6, k=2 the ramp slope is
6**7 = 279936 while the plateau is about 4e-6; gap checks in doubles
would be tolerance-dependent, so disjointness is audited in rational
arithmetic with no tolerance at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BudgetError, DomainError
from .inner import InnerEvaluator
from .params import KstParams, LambdaCoeffs, beta

AUDIT_BUMP_BUDGET = 10**4


def grid_shift(params: KstParams, k: int, j: int) -> Fraction:
    """Shift j * sum_{l=2..k} gamma**(-l) of the level-k family j."""
    g = params.gamma
    return j * sum((Fraction(1, g**ell) for ell in range(2, k + 1)), Fraction(0))


@dataclass(frozen=True)
class ShiftedGrid:
    """The level-k grid shifted by family index j, one axis replicated n times."""

    params: KstParams
    k: int
    j: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("grid depth must be >= 1")
        if not (0 <= self.j <= self.params.m):
            raise DomainError(f"shift index must lie in [0, {self.params.m}]")

    @property
    def shift(self) -> Fraction:
        return grid_shift(self.params, self.k, self.j)

    @property
    def size(self) -> int:
        return self.params.gamma ** (self.params.n * self.k)

    def axis_values(self) -> list[Fraction]:
        g, k = self.params.gamma, self.k
        s = self.shift
        return [Fraction(i, g**k) + s for i in range(g**k)]

    def points(self) -> Iterator[tuple[Fraction, ...]]:
        return itertools.product(self.axis_values(), repeat=self.params.n)


def xi(
    params: KstParams,
    lambdas: LambdaCoeffs,
    ev: InnerEvaluator,
    d: tuple[Fraction, ...],
) -> Fraction:
    """Image sum_i lambda_i * psi(d_i) of a grid vector, exact."""
    if len(d) != params.n:
        raise DomainError(f"expected {params.n} coordinates, got {len(d)}")
    acc = Fraction(0)
    for lam, coord in zip(lambdas.values, d):
        if not (0 <= coord < 2):
            raise DomainError(f"coordinate {coord} outside [0, 2)")
        acc += lam * ev.psi_exact_extended(coord)
    return acc


@dataclass(frozen=True)
class BkResult:
    """Tail constant with its certified truncation interval.

    ``value`` is the lower partial sum and is what the construction
    uses; ``hi`` adds a geometric bound on the dropped terms of the
    l-series, relative to the run's (already truncated) lambda weights.
    """

    value: Fraction
    lo: Fraction
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
    lo = partial * total_lambda
    tail_first = Fraction(1, g ** beta(n, k + depth + 1))
    tail = tail_first * Fraction(g, g - 1)
    hi = (partial + tail) * total_lambda
    return BkResult(value=lo, lo=lo, hi=hi)


@dataclass(frozen=True)
class DisjointnessAudit:
    min_gap: Fraction
    ok: bool
    count: int
    k: int
    j: int

    def to_json_dict(self) -> dict:
        return {
            "min_gap": format(float(self.min_gap), ".17g"),
            "ok": self.ok,
            "count": self.count,
        }


def disjoint_support_audit(
    params: KstParams,
    lambdas: LambdaCoeffs,
    ev: InnerEvaluator,
    k: int,
    j: int,
) -> DisjointnessAudit:
    """Exact disjointness check of one (k, j) bump family.

    All gamma**(nk) images are sorted and the smallest distance between
    consecutive support intervals is computed in rational arithmetic.
    Support radii use the upper end of the tail-constant interval, so a
    positive min_gap certifies disjointness of the actual bumps, whose
    plateau uses the lower partial sum.
    """
    grid = ShiftedGrid(params, k, j)
    if grid.size > AUDIT_BUMP_BUDGET:
        raise BudgetError(
            f"family size {grid.size} exceeds the audit budget {AUDIT_BUMP_BUDGET}"
        )
    bk = b_k(params, lambdas, k)
    ramp = Fraction(1, params.gamma ** beta(params.n, k + 1))
    plateau_hi = (params.gamma - 2) * bk.hi
    images = sorted(xi(params, lambdas, ev, d) for d in grid.points())
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
