"""The inner function: exact values on base-gamma grids by one lattice
recurrence, and one once-rounded float table per depth.

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
is always even, so nothing is ever rounded. Single points, which may be
deeper than any lattice budget, walk the same recurrence along their
own digits and carry only the pair of neighbouring numerators.

Every float value of psi is read from one table per depth, indexed by
the lattice index i of i * gamma**-k over [0, 2): entry i is
(i // gamma**k * D_k + N_k[i % gamma**k]) / D_k, one integer true
division, so psi(x) = 1 + psi(x - 1) on [1, 2) is rounded once too. The
vector reader takes the nudged floor of u * gamma**k as the index, the
exact reader the exact floor; ``kst inner`` prints the [0, 1) half.
``staircase`` gives the knots and values of the inner net, which
realizes the vector reader's truncated function.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import BudgetError, DomainError
from .params import KstParams, beta

LATTICE_BUDGET = 10**6       # max gamma**k of a lattice
TRUNC_NUDGE = 1e-6           # upward nudge of the truncation index
STAIR_RAMP_WIDTH = 1e-9      # width of each ramp of the staircase net


class InnerEvaluator:
    """Exact evaluation of the inner function: per-depth lattices for
    whole grids, a walk of the same recurrence for single points.

    The lattices and float tables behave as caches only: every value is
    a pure function of (params, point). Concurrent readers should
    pre-warm the depths they need and then share them read-only.
    """

    def __init__(self, params: KstParams):
        self.params = params
        self._lattices: dict[int, tuple[list[int], int]] = {}
        self._tables: dict[int, np.ndarray] = {}

    # -- exact values on grids -------------------------------------------

    def lattice(self, k: int) -> tuple[list[int], int]:
        """Numerators N_k[0..gamma**k] of psi on D_k over the denominator
        D_k = 2**(k-1) * gamma**beta_n(k), built from level k-1."""
        got = self._lattices.get(k)
        if got is None:
            g, n = self.params.gamma, self.params.n
            if k < 1:
                raise DomainError("k must be >= 1")
            if g**k > LATTICE_BUDGET:
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

    def lattice_pair(self, k: int, i: int) -> tuple[int, int, int]:
        """(N_k[i], N_k[i+1], D_k) for 0 <= i < gamma**k, by the recurrence
        of ``lattice`` walked along the base-gamma digits of i alone.

        The walk carries the numerators of the depth-l prefix p of i and
        of its right neighbour p+1. A digit d below gamma-2 gives
        s * N_l[p] + d * 2**(l-1) and the next step; digit gamma-2 has the
        even average on its right; digit gamma-1 is that average, with the
        carry s * N_l[p+1] on its right.
        """
        g, n = self.params.gamma, self.params.n
        if k < 1 or not 0 <= i < g**k:
            raise DomainError(f"no lattice index {i} at depth {k}")
        digits = []
        for _ in range(k):
            i, d = divmod(i, g)
            digits.append(d)
        lo = digits.pop()
        hi, den = lo + 1, g
        for ell in range(2, k + 1):
            d = digits.pop()
            s = 2 * g ** (beta(n, ell) - beta(n, ell - 1))
            step = 1 << (ell - 1)
            left = s * lo + d * step
            if d < g - 2:
                lo, hi = left, left + step
            else:
                avg = (s * lo + (g - 2) * step + s * hi) >> 1
                lo, hi = (left, avg) if d == g - 2 else (avg, s * hi)
            den *= s
        return lo, hi, den

    def psi_grid(self, q) -> Fraction:
        """Exact psi at a gamma-adic rational q in [0, 1), walked at the
        least depth k with q * gamma**k an integer."""
        q = Fraction(q)
        if not 0 <= q < 1:
            raise DomainError(f"grid points live in [0, 1), got {q}")
        g = self.params.gamma
        rest, k = q.denominator, 0
        while (c := math.gcd(rest, g)) > 1:
            rest //= c
            k += 1
        if rest != 1:
            raise DomainError(f"{q} has no finite base-{g} expansion")
        k = max(k, 1)
        num, _, den = self.lattice_pair(k, q.numerator * g**k // q.denominator)
        return Fraction(num, den)

    def psi_exact_extended(self, q) -> Fraction:
        """Exact psi at a gamma-adic rational q in [0, 2), with
        psi(q) = 1 + psi(q - 1) on [1, 2)."""
        q = Fraction(q)
        if not 0 <= q < 2:
            raise DomainError(f"psi domain is [0, 2), got {q}")
        if q >= 1:
            return 1 + self.psi_grid(q - 1)
        return self.psi_grid(q)

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

        The table index is floor(u * gamma**k + TRUNC_NUDGE): the small
        upward nudge makes grid-aligned floats land in their own cell, and
        the index runs on across the integer boundary into the table's
        [1, 2) half. All floating-point evaluation paths (sweeps, audits,
        measurements, network knots) share this exact rule so they can
        never straddle a cell boundary differently.
        """
        scale = self.params.gamma**k_trunc
        idx = np.floor(np.asarray(u, dtype=float) * scale + TRUNC_NUDGE).astype(np.int64)
        return self.float_table(k_trunc)[np.clip(idx, 0, 2 * scale - 1)]

    def staircase(self, k: int, M: float) -> tuple[np.ndarray, np.ndarray]:
        """Knots and values of a piecewise-linear net equal to
        psi_trunc_vector at depth k on [0, M] away from its jumps.

        Under the nudged floor the truncated function is constant on
        lattice cells and jumps at (i - TRUNC_NUDGE)/gamma**k. The net is
        flat on each cell with a steep ramp of width STAIR_RAMP_WIDTH just
        below every jump. The nudge keeps the jumps clear of all rational
        coincidences of audit points, so evaluation points never land
        inside a ramp and the net reproduces the truncated function
        pointwise.
        """
        scale = self.params.gamma**k
        table = self.float_table(k)
        idx_top = math.floor(M * scale + TRUNC_NUDGE)
        # jump i sits at (i - TRUNC_NUDGE)/scale; idx_top + 2 is past M
        i = np.arange(1, idx_top + 3)
        i = i[(i - TRUNC_NUDGE) / scale < M]
        jumps = (i - TRUNC_NUDGE) / scale
        # a ramp start left of jump i, where it clears the knot before it
        lefts = jumps - STAIR_RAMP_WIDTH
        has_left = lefts > np.concatenate(([0.0], jumps[:-1]))
        keep = np.stack([has_left, np.ones_like(has_left)], axis=1).ravel()
        knots = np.concatenate(([0.0], np.stack([lefts, jumps], axis=1).ravel()[keep]))
        vals = table[np.concatenate(([0], np.stack([i - 1, i], axis=1).ravel()[keep]))]
        if knots[-1] < M:
            knots = np.append(knots, M)
            vals = np.append(vals, table[idx_top])
        return knots, vals
