"""The inner function: exact values on base-gamma grids, one once-rounded
float table per depth, and a certified continuum evaluation.

Grid values are defined by a three-case recursion on the digits of a
point d = sum_l i_l * gamma**(-l). Level-1 points map to themselves,
appending a digit below gamma-1 adds i_k * gamma**(-beta_n(k)), and a
trailing digit of gamma-1 averages the two neighbouring values. The
averaging case introduces factors of two, so every value on the depth-k
grid is an integer numerator over the one denominator
D_k = 2**(k-1) * gamma**beta_n(k).

Whole grids are built level by level as one lattice of Python-int
numerators N_k[0..gamma**k], with the carry N_k[gamma**k] = D_k pinned
to psi = 1. With s = 2 * gamma**(beta_n(k) - beta_n(k-1)), entry
i*gamma + d is s * N_{k-1}[i] + d * 2**(k-1) for d < gamma-1, and the
last digit averages its left neighbour with s * N_{k-1}[i+1]; that sum
is always even, so nothing is ever rounded.

Every float value of psi is read from one table per depth, indexed by
the lattice index i of i * gamma**-k over [0, 2): entry i is
(i // gamma**k * D_k + N_k[i % gamma**k]) / D_k, one integer true
division, so psi(x) = 1 + psi(x - 1) on [1, 2) is rounded once too. The
vector reader takes the nudged floor of u * gamma**k as the index, the
exact reader the exact floor. Single points, which may be deeper than
any table budget, go through a memoized exact recursion on their digits
instead.

Continuum evaluation truncates the base-gamma expansion of x at a
requested depth and certifies the truncation with the Hoelder bound
nu * gamma**(-alpha * k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, DomainError
from .params import KstParams, beta

HOLDER_PAIR_BUDGET = 10**4   # max gamma**k for pairwise audits
PLOT_ROW_BUDGET = 10**6      # max gamma**k for grid sweeps


@dataclass(frozen=True)
class BaseGammaPoint:
    """A grid point of D_k given by its base-gamma digits i_1..i_k.

    Two points are equal iff their values agree after zero-padding to a
    common depth, so equality and hashing go through the canonical form
    with trailing zeros stripped.
    """

    digits: tuple[int, ...]
    gamma: int

    def __post_init__(self):
        if len(self.digits) < 1:
            raise DomainError("a grid point needs at least one digit")
        if any(not (0 <= i < self.gamma) for i in self.digits):
            raise DomainError(f"digits must lie in [0, {self.gamma - 1}]")

    @property
    def k(self) -> int:
        return len(self.digits)

    def canonical(self) -> tuple[int, ...]:
        d = self.digits
        end = len(d)
        while end > 1 and d[end - 1] == 0:
            end -= 1
        return d[:end]

    def value(self) -> Fraction:
        g = self.gamma
        acc = Fraction(0)
        for pos, digit in enumerate(self.digits, start=1):
            acc += Fraction(digit, g**pos)
        return acc

    def __eq__(self, other):
        if not isinstance(other, BaseGammaPoint):
            return NotImplemented
        return self.gamma == other.gamma and self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.gamma, self.canonical()))

    @staticmethod
    def from_fraction(q: Fraction, gamma: int, max_depth: int = 64) -> "BaseGammaPoint":
        """Digits of an exactly representable q in [0, 1)."""
        if not (0 <= q < 1):
            raise DomainError(f"grid points live in [0, 1), got {q}")
        digits = []
        rem = q
        for _ in range(max_depth):
            rem *= gamma
            d = int(rem)  # floor; rem >= 0
            digits.append(d)
            rem -= d
            if rem == 0:
                return BaseGammaPoint(tuple(digits), gamma)
        raise DomainError(f"{q} has no base-{gamma} expansion of depth <= {max_depth}")


@dataclass(frozen=True)
class PsiValue:
    """Continuum evaluation result with its certified truncation bound."""

    value_exact: Fraction
    err_bound: float
    k_trunc: int

    @property
    def value(self) -> float:
        return float(self.value_exact)


def _decimal_fraction(x) -> Fraction:
    """Exact rational reading of an input coordinate.

    Floats are read through their shortest decimal representation, so a
    literal like 0.3 means 3/10 rather than its binary neighbour. Exact
    types pass through unchanged.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(repr(float(x)))


class InnerEvaluator:
    """Exact evaluation of the inner function: per-depth lattices for
    whole grids, a memoized recursion for single points.

    The lattices, float tables and memo behave as caches only: every
    value is a pure function of (params, point). Concurrent readers
    should pre-warm the depths they need and then share them read-only.
    """

    def __init__(self, params: KstParams):
        self.params = params
        self._memo: dict[tuple[int, ...], Fraction] = {}
        self._lattices: dict[int, tuple[list[int], int]] = {}
        self._tables: dict[int, np.ndarray] = {}

    # -- exact values on grids -------------------------------------------

    def psi_grid(self, d) -> Fraction:
        """psi_k(d) for a grid point d of any depth, exact.

        Accepts a BaseGammaPoint, a digit tuple, or an exactly
        representable Fraction in [0, 1).
        """
        if isinstance(d, BaseGammaPoint):
            if d.gamma != self.params.gamma:
                raise DomainError("grid point base does not match params")
            key = d.canonical()
        elif isinstance(d, tuple):
            key = BaseGammaPoint(d, self.params.gamma).canonical()
        else:
            key = BaseGammaPoint.from_fraction(
                Fraction(d), self.params.gamma
            ).canonical()
        return self._psi(key)

    def _psi(self, t: tuple[int, ...]) -> Fraction:
        memo = self._memo
        got = memo.get(t)
        if got is not None:
            return got
        g = self.params.gamma
        n = self.params.n
        if len(t) == 1:
            val = Fraction(t[0], g)
        else:
            k = len(t)
            i_k = t[-1]
            if i_k < g - 1:
                prefix = BaseGammaPoint(t[:-1], g).canonical()
                val = self._psi(prefix) + i_k * Fraction(1, g ** beta(n, k))
            else:
                # Averaging case. The right neighbour is the raw length
                # (k-1) prefix plus one ulp at depth k-1; the carry can
                # reach 1.0 exactly, where the [1,2) shift rule pins the
                # value to 1.
                left = self._psi(BaseGammaPoint(t[:-1] + (g - 2,), g).canonical())
                carried = _add_ulp(t[:-1], g)
                right = Fraction(1) if carried is None else self._psi(carried)
                val = (left + right) / 2
        memo[t] = val
        return val

    def psi_exact_extended(self, q: Fraction) -> Fraction:
        """Exact psi at a gamma-adic rational q in [0, 2)."""
        if not (0 <= q < 2):
            raise DomainError(f"psi domain is [0, 2), got {q}")
        if q == 1:
            return Fraction(1)
        if q > 1:
            return 1 + self.psi_grid(q - 1)
        return self.psi_grid(q)

    # -- continuum evaluation ---------------------------------------------

    def truncate_digits(self, q: Fraction, k_trunc: int) -> tuple[int, ...]:
        """First k_trunc base-gamma digits of q in [0, 1)."""
        g = self.params.gamma
        digits = []
        rem = q
        for _ in range(k_trunc):
            rem *= g
            d = int(rem)
            digits.append(d)
            rem -= d
        return tuple(digits)

    def psi(self, x, k_trunc: int) -> PsiValue:
        """Truncated evaluation of psi at x in [0, 2) with a certificate.

        The truncation moves x by at most gamma**(-k_trunc), so the
        Hoelder property bounds the error by nu * gamma**(-alpha*k).
        """
        if k_trunc < 1:
            raise DomainError("k_trunc must be >= 1")
        q = _decimal_fraction(x)
        if not (0 <= q < 2):
            raise DomainError(f"psi domain is [0, 2), got {x}")
        shift = 0
        if q >= 1:
            shift = 1
            q -= 1
        digits = self.truncate_digits(q, k_trunc)
        exact = self._psi(BaseGammaPoint(digits, self.params.gamma).canonical()) + shift
        p = self.params
        err = p.nu * p.gamma ** (-p.alpha * k_trunc)
        return PsiValue(value_exact=exact, err_bound=err, k_trunc=k_trunc)

    def lattice(self, k: int) -> tuple[list[int], int]:
        """Numerators N_k[0..gamma**k] of psi on D_k over the denominator
        D_k = 2**(k-1) * gamma**beta_n(k), built from level k-1."""
        got = self._lattices.get(k)
        if got is None:
            g, n = self.params.gamma, self.params.n
            if k < 1:
                raise DomainError("k must be >= 1")
            if g**k > PLOT_ROW_BUDGET:
                raise BudgetError(f"gamma**k = {g**k} exceeds the table budget")
            if k == 1:
                got = (list(range(g + 1)), g)
            else:
                prev, prev_den = self.lattice(k - 1)
                s = 2 * g ** (beta(n, k) - beta(n, k - 1))
                steps = [d << (k - 1) for d in range(g - 1)]
                last = steps[-1]
                scaled = [s * v for v in prev]
                nums = []
                for lo, hi in zip(scaled, scaled[1:]):
                    nums.extend([lo + step for step in steps])
                    nums.append((lo + last + hi) >> 1)
                nums.append(scaled[-1])
                got = (nums, s * prev_den)
            self._lattices[k] = got
        return got

    def float_table(self, k: int) -> np.ndarray:
        """Float of psi at i * gamma**(-k) for every lattice index i in
        [0, 2 * gamma**k), with psi(x) = 1 + psi(x - 1) on [1, 2): entry
        i is (i // gamma**k * D_k + N_k[i % gamma**k]) / D_k, rounded once."""
        got = self._tables.get(k)
        if got is None:
            nums, den = self.lattice(k)
            body = nums[:-1]
            got = np.asarray([v / den for v in body] + [(den + v) / den for v in body])
            self._tables[k] = got
        return got

    def psi_trunc_float(self, q: Fraction, k_trunc: int) -> float:
        """Float of the depth-k truncated value at an exact q in [0, 2)."""
        if not (0 <= q < 2):
            raise DomainError(f"psi domain is [0, 2), got {q}")
        idx = q.numerator * self.params.gamma**k_trunc // q.denominator
        return float(self.float_table(k_trunc)[idx])

    def psi_table(self, k: int) -> np.ndarray:
        """Float values of psi on all of D_k, indexed by i of i*gamma**-k."""
        return self.float_table(k)[: self.params.gamma**k]

    def psi_trunc_vector(self, u: np.ndarray, k_trunc: int) -> np.ndarray:
        """Vectorized depth-k truncated values for u in [0, 2).

        The table index is floor(u * gamma**k + 1e-6): the small upward
        nudge makes grid-aligned floats land in their own cell, and the
        index runs on across the integer boundary into the table's
        [1, 2) half. All floating-point evaluation paths (sweeps, audits,
        measurements, network knots) share this exact rule so they can
        never straddle a cell boundary differently.
        """
        scale = self.params.gamma**k_trunc
        idx = np.floor(np.asarray(u, dtype=float) * scale + 1e-6).astype(np.int64)
        return self.float_table(k_trunc)[np.clip(idx, 0, 2 * scale - 1)]

    # -- audits and sweeps --------------------------------------------------

    def holder_audit(self, k: int) -> dict:
        """Worst Hoelder ratio over all pairs in D_k united with D_k + 1.

        Returns max over x != y of |psi(x)-psi(y)| / (nu*|x-y|**alpha),
        which the construction promises is at most 1, plus the witness
        pair attaining it.
        """
        p = self.params
        if p.gamma**k > HOLDER_PAIR_BUDGET:
            raise BudgetError(
                f"gamma**k = {p.gamma**k} exceeds the pair budget {HOLDER_PAIR_BUDGET}"
            )
        x = np.arange(2 * p.gamma**k) / p.gamma**k
        y = self.float_table(k)
        dx = np.abs(x[:, None] - x[None, :])
        dy = np.abs(y[:, None] - y[None, :])
        np.fill_diagonal(dx, 1.0)  # excluded pairs; dy diagonal is 0
        ratio = dy / (p.nu * dx**p.alpha)
        idx = int(np.argmax(ratio))
        i, j = divmod(idx, ratio.shape[1])
        return {
            "max_ratio": float(ratio[i, j]),
            "witness": (x[i], x[j]),
            "points": len(x),
        }

    def psi_plot_data(self, k: int) -> list[tuple[Fraction, Fraction]]:
        """(d, psi(d)) for every d in D_k, ascending in d."""
        p = self.params
        if k < 1:
            raise DomainError("k must be >= 1")
        if p.gamma**k > PLOT_ROW_BUDGET:
            raise BudgetError(
                f"gamma**k = {p.gamma**k} exceeds the row budget {PLOT_ROW_BUDGET}"
            )
        nums, den = self.lattice(k)
        return [(Fraction(i, p.gamma**k), Fraction(nums[i], den)) for i in range(p.gamma**k)]


def _add_ulp(prefix: tuple[int, ...], gamma: int) -> tuple[int, ...] | None:
    """Digits of prefix + gamma**(-len(prefix)), or None on carry to 1."""
    digits = list(prefix)
    pos = len(digits) - 1
    while pos >= 0:
        if digits[pos] < gamma - 1:
            digits[pos] += 1
            return BaseGammaPoint(tuple(digits), gamma).canonical()
        digits[pos] = 0
        pos -= 1
    return None
