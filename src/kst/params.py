"""Constants of the superposition construction.

Everything downstream is driven by a single immutable parameter record:
the dimension n, the outer-function count m+1, the base gamma, the shift
a = 1/(gamma*(gamma-1)), the Hoelder pair (nu, alpha), the contraction
pair (delta, eta), and the truncation depth used for the lambda weights.

Grid-level constants are kept as exact rationals with big-integer
numerators and denominators; gamma**(-beta_n(l)) underflows double
precision already at n=2, l=4, so floating conversion happens only at
evaluation boundaries.

The module also holds the inner sums of the superposition formula
(``images``), at which the approximant, the assembled network and the
bump grids read their outer functions, and the one text format of
floats in JSON output (``f17``).
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConstraintViolation

DEFAULT_DELTA = 0.05
DEFAULT_ETA = 0.9
DEFAULT_LAMBDA_DEPTH = 8


@contextmanager
def big_int_digits():
    """Let ints of up to a million digits convert to and from text inside
    the block. Exact weights at n >= 3 carry denominators with thousands
    of digits (gamma**((n-1)*beta_n(depth+1))), past the default limit."""
    limit = sys.get_int_max_str_digits()
    if 0 < limit < 10**6:
        sys.set_int_max_str_digits(10**6)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def f17(v) -> str:
    """A float as 17 significant digits, text that parses back to it."""
    return format(float(v), ".17g")


def to_json(value):
    """value with every float as f17 text and every Fraction as its
    numerator and denominator texts, through dicts, lists and tuples."""
    if isinstance(value, float):
        return f17(value)
    if isinstance(value, Fraction):
        with big_int_digits():
            return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return value


def images(inner, lams, shift: float, columns, count: int):
    """The points sum_i lams[i] * inner(columns[i] + j * shift) at which
    the superposition sum_j phi_j(...) reads outer j, for j < count.

    inner maps an array to its values elementwise. The coordinate columns
    broadcast: 1-D columns of one length give the images of those points,
    and columns laid along their own axes (``np.ix_``) the images on
    their product mesh, in the same bits as at the mesh's points."""
    for j in range(count):
        yield sum(lam * inner(col + j * shift) for lam, col in zip(lams, columns))


def beta(n: int, ell: int) -> int:
    """Geometric digit-weight exponent 1 + n + ... + n**(ell-1).

    Exact integer for any size; Python integers never overflow.
    """
    if n < 2:
        raise ConstraintViolation("n >= 2", f"got n={n}")
    if ell < 1:
        raise ConstraintViolation("ell >= 1", f"got ell={ell}")
    return (n**ell - 1) // (n - 1)


@dataclass(frozen=True)
class KstParams:
    """All constants of one construction run. Immutable, thread-safe."""

    n: int
    m: int
    gamma: int
    a: Fraction            # exact shift 1/(gamma*(gamma-1))
    alpha: float           # Hoelder exponent log_gamma(2)
    nu: float              # Hoelder constant 2**(-alpha) * (gamma+3)
    delta: float           # residual-oscillation parameter
    eta: float             # contraction factor
    lambda_depth: int      # series truncation depth for lambda_i and b_k

    @property
    def delta_upper_bound(self) -> Fraction:
        """Literal bound 1 - n/(n-m+1) on delta; can exceed 1, see below."""
        return 1 - Fraction(self.n, self.n - self.m + 1)

    @property
    def delta_bound_exceeds_one(self) -> bool:
        """True when the printed delta bound is vacuous (> 1).

        For m > n+1 the denominator n-m+1 is negative, the bound exceeds
        one and every delta in (0, 1) passes. We validate the inequality
        literally and expose this flag so reports can call it out.
        """
        return self.delta_upper_bound > 1

    @property
    def phi_domain_sup(self) -> Fraction:
        """Upper end 2*(gamma-1)/(gamma-2) of the outer-function domain."""
        return 2 * Fraction(self.gamma - 1, self.gamma - 2)

    def to_json_dict(self) -> dict:
        return to_json({**asdict(self), "delta_bound_exceeds_one": self.delta_bound_exceeds_one})

    @staticmethod
    def from_json_dict(d: dict) -> "KstParams":
        return make_params(
            int(d["n"]),
            m=int(d["m"]),
            gamma=int(d["gamma"]),
            delta=float(d["delta"]),
            eta=float(d["eta"]),
            lambda_depth=int(d["lambda_depth"]),
        )


@dataclass(frozen=True)
class LambdaCoeffs:
    """Truncated inner weights lambda_1..lambda_n, exact rationals.

    ``tail_bound`` dominates the truncation error of every lambda_i: the
    dropped tail of lambda_i is a sub-geometric series whose first term
    is gamma**(-(i-1)*beta_n(depth+1)), largest at i=2, and successive
    term ratios are below 1/2, so twice the first term is an upper bound.
    """

    values: tuple[Fraction, ...]
    tail_bound: Fraction

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))

    @cached_property
    def floats(self) -> np.ndarray:
        """The weights as floats, each rounded once: the lambda_i every
        float evaluation of the superposition reads."""
        return np.asarray([float(v) for v in self.values])

    def to_json_dict(self) -> dict:
        return to_json(asdict(self))


def make_params(
    n: int,
    m: int | None = None,
    gamma: int | None = None,
    delta: float | None = None,
    eta: float | None = None,
    lambda_depth: int | None = None,
) -> KstParams:
    """Build and validate a parameter record.

    Defaults follow the standard choice m = 2n, gamma = 2n + 2, with
    delta = 0.05 and eta = 0.9, which satisfy the contraction
    inequalities with slack for n = 2..6. Raises ConstraintViolation
    naming the violated inequality otherwise.
    """
    if n < 2:
        raise ConstraintViolation("n >= 2", f"got n={n}")
    m = 2 * n if m is None else m
    gamma = 2 * n + 2 if gamma is None else gamma
    delta = DEFAULT_DELTA if delta is None else delta
    # a non-finite value has no exact Fraction: name the bound it fails
    if not math.isfinite(delta):
        raise ConstraintViolation(
            "delta < 1 - n/(n-m+1)" if delta > 0 else "0 < delta", f"delta={delta}"
        )
    if eta is not None and not math.isfinite(eta):
        raise ConstraintViolation(
            "eta < 1" if eta > 0 else "eta >= (m-n+1)/(n+1)*delta + 2n/(m+1)", f"eta={eta}"
        )
    if eta is None:
        # The contraction lower bound delta + 2n/(m+1)-style grows with n
        # and crosses 0.9 at n = 3, so the default moves to the midpoint
        # between the exact bound and 1 whenever 0.9 would violate it.
        lower = Fraction(m - n + 1, n + 1) * Fraction(delta) + Fraction(2 * n, m + 1)
        eta = DEFAULT_ETA if lower <= Fraction(DEFAULT_ETA) else float((lower + 1) / 2)
    lambda_depth = DEFAULT_LAMBDA_DEPTH if lambda_depth is None else lambda_depth

    if m < 2 * n:
        raise ConstraintViolation("m >= 2n", f"m={m}, n={n}")
    if gamma < m + 2:
        raise ConstraintViolation("gamma >= m + 2", f"gamma={gamma}, m={m}")
    if lambda_depth < 1:
        raise ConstraintViolation("lambda_depth >= 1", f"got {lambda_depth}")

    # Exact evaluation of the two scalar constraints. Floats are lifted
    # to their exact binary values so the comparison is deterministic.
    d = Fraction(delta)
    e = Fraction(eta)
    delta_bound = 1 - Fraction(n, n - m + 1)
    if not (0 < d):
        raise ConstraintViolation("0 < delta", f"delta={delta}")
    if not (d < delta_bound):
        raise ConstraintViolation(
            "delta < 1 - n/(n-m+1)", f"delta={delta}, bound={float(delta_bound)}"
        )
    eta_lower = Fraction(m - n + 1, n + 1) * d + Fraction(2 * n, m + 1)
    if not (eta_lower <= e):
        raise ConstraintViolation(
            "eta >= (m-n+1)/(n+1)*delta + 2n/(m+1)",
            f"eta={eta} is below {float(eta_lower)}",
        )
    if not (e < 1):
        raise ConstraintViolation("eta < 1", f"eta={eta}")

    alpha = math.log(2) / math.log(gamma)
    nu = 2 ** (-alpha) * (gamma + 3)
    return KstParams(
        n=n,
        m=m,
        gamma=gamma,
        a=Fraction(1, gamma * (gamma - 1)),
        alpha=alpha,
        nu=nu,
        delta=delta,
        eta=eta,
        lambda_depth=lambda_depth,
    )


def lambda_coeffs(params: KstParams) -> LambdaCoeffs:
    """Compute lambda_1..lambda_n as exact partial sums.

    lambda_1 = 1 and lambda_i = sum over l of gamma**(-(i-1)*beta_n(l)),
    truncated at l = lambda_depth. The tail bound is evaluated at the
    worst case i = 2 and certified by geometric comparison.
    """
    n, g, depth = params.n, params.gamma, params.lambda_depth
    values = [Fraction(1)]
    for i in range(2, n + 1):
        acc = Fraction(0)
        for ell in range(1, depth + 1):
            acc += Fraction(1, g ** ((i - 1) * beta(n, ell)))
        values.append(acc)
    tail = 2 * Fraction(1, g ** beta(n, depth + 1))
    return LambdaCoeffs(values=tuple(values), tail_bound=tail)
