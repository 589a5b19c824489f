"""Independent brute-force reference implementations used by the tests.

These are written directly from the defining recursions, with no
memoization tricks shared with the library code, so they can serve as
oracles for exact comparisons. The digit recursion for the inner
function (``DigitPsi`` over ``BaseGammaPoint``), with its certified
continuum reader, is the reference for the lattice walk of
``InnerEvaluator``. The single trapezoidal bump
(``BumpSpec``, ``theta``, ``theta_exact``) lives here too: the library
stores bumps as whole rounds on shared grids and never builds one
alone. So does the point-by-point expression walker
(``oracle_eval_expr``) that the compiled whole-array targets are
checked against, with the
parenthesized rendering that parses back (``pretty``), and the shifted grids
of ``Fraction`` coordinates (``grid_shift``, ``ShiftedGrid``) with their
images through the digit recursion (``xi``), the reference for the
lattice images of the exact audit. So is the ``--out-net`` text built
as a dict of Python lists and rendered by ``json.dumps``
(``net_json_text``), the byte reference for the column encoder, and
the gather-based forward pass (``take_forward``), the bit-for-bit
reference for ``ReluNetwork.eval_batch``, and the univariate build that
samples its whole audit grid in one call (``whole_grid_univariate``,
over ``audit_grid``), the bit-for-bit reference for the blocked audit
of ``build_univariate``, and the outer nets as that build gave them
over ``phi_batch`` at ``np.unique`` corner knots
(``phi_batch_outer_net``), the bit-for-bit reference for
``pipeline.build_outer_nets``. The residual oscillation swept over
each whole shifted audit mesh (``whole_mesh_modulus``) is the reference
for the blocked sweep of ``decompose.residual_modulus``. The depth-2 network of a univariate
interpolant's hinge coefficients (``univariate_network``) is built here
only: the library wires those hinges straight into the assembled
network. The pairwise Hoelder audit of the inner function's float
table (``holder_audit``) is a check of the construction, not part of
it, so it lives here too. So is the disjointness audit over integer
images (``integer_image_audit``), checked against the ``Fraction``
audit of ``bumps.disjoint_support_audit``.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from kst import decompose
from kst.bumps import DisjointnessAudit, b_k, family_axis
from kst.errors import BudgetError, DomainError
from kst.params import beta
from kst.relunet import ReluNetwork, UnivariateNet, build_univariate
from kst.target import BinOp, Call, Neg, Num, Var


def oracle_psi(i: int, k: int, n: int, gamma: int) -> Fraction:
    """Value at the grid point i * gamma**(-k), by direct recursion.

    Works on the integer numerator i at depth k. 0 <= i <= gamma**k is
    accepted; i == gamma**k is the carry endpoint, pinned to 1.
    """
    if i == gamma**k:
        return Fraction(1)
    if not (0 <= i < gamma**k):
        raise ValueError("numerator out of range")
    if k == 1:
        return Fraction(i, gamma)
    last = i % gamma
    if last == 0:
        return oracle_psi(i // gamma, k - 1, n, gamma)
    if last < gamma - 1:
        return oracle_psi(i - last, k, n, gamma) + last * Fraction(1, gamma ** beta(n, k))
    a = oracle_psi(i - 1, k, n, gamma)
    b = oracle_psi((i + 1) // gamma, k - 1, n, gamma)
    return (a + b) / 2


def oracle_closed_form(digits, n: int, gamma: int) -> Fraction:
    """sum_l i_l * gamma**(-beta_n(l)); valid when all digits < gamma-1."""
    acc = Fraction(0)
    for pos, d in enumerate(digits, start=1):
        acc += d * Fraction(1, gamma ** beta(n, pos))
    return acc


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
    """Exact rational reading of an input coordinate: floats through
    their shortest decimal representation, so 0.3 means 3/10; exact
    types pass through unchanged."""
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    return Fraction(repr(float(x)))


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


class DigitPsi:
    """psi by the memoized three-case recursion on canonical digit
    tuples, in Fractions: the reference for the lattice walk of
    ``InnerEvaluator``, with the certified continuum reader ``psi``."""

    def __init__(self, params):
        self.params = params
        self._memo: dict[tuple[int, ...], Fraction] = {}

    def psi_grid(self, d) -> Fraction:
        """psi at a BaseGammaPoint, a digit tuple, or an exactly
        representable Fraction in [0, 1)."""
        g = self.params.gamma
        if isinstance(d, BaseGammaPoint):
            if d.gamma != g:
                raise DomainError("grid point base does not match params")
            key = d.canonical()
        elif isinstance(d, tuple):
            key = BaseGammaPoint(d, g).canonical()
        else:
            key = BaseGammaPoint.from_fraction(Fraction(d), g).canonical()
        return self._psi(key)

    def _psi(self, t: tuple[int, ...]) -> Fraction:
        got = self._memo.get(t)
        if got is not None:
            return got
        g, n = self.params.gamma, self.params.n
        if len(t) == 1:
            val = Fraction(t[0], g)
        elif t[-1] < g - 1:
            prefix = BaseGammaPoint(t[:-1], g).canonical()
            val = self._psi(prefix) + t[-1] * Fraction(1, g ** beta(n, len(t)))
        else:
            # the right neighbour is the length k-1 prefix plus one ulp;
            # the carry can reach 1, where psi is pinned to 1
            left = self._psi(BaseGammaPoint(t[:-1] + (g - 2,), g).canonical())
            carried = _add_ulp(t[:-1], g)
            right = Fraction(1) if carried is None else self._psi(carried)
            val = (left + right) / 2
        self._memo[t] = val
        return val

    def psi_exact_extended(self, q: Fraction) -> Fraction:
        """psi at a gamma-adic rational q in [0, 2)."""
        if not (0 <= q < 2):
            raise DomainError(f"psi domain is [0, 2), got {q}")
        if q >= 1:
            return 1 + self.psi_grid(q - 1)
        return self.psi_grid(q)

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
        """psi at x in [0, 2) truncated to depth k_trunc, with the
        Hoelder certificate nu * gamma**(-alpha * k_trunc) of the move."""
        if k_trunc < 1:
            raise DomainError("k_trunc must be >= 1")
        q = _decimal_fraction(x)
        if not (0 <= q < 2):
            raise DomainError(f"psi domain is [0, 2), got {x}")
        shift = 1 if q >= 1 else 0
        digits = self.truncate_digits(q - shift, k_trunc)
        exact = self._psi(BaseGammaPoint(digits, self.params.gamma).canonical()) + shift
        p = self.params
        err = p.nu * p.gamma ** (-p.alpha * k_trunc)
        return PsiValue(value_exact=exact, err_bound=err, k_trunc=k_trunc)


def grid_shift(params, k: int, j: int) -> Fraction:
    """Shift j * sum_{l=2..k} gamma**(-l) of the level-k family j."""
    g = params.gamma
    return j * sum((Fraction(1, g**ell) for ell in range(2, k + 1)), Fraction(0))


@dataclass(frozen=True)
class ShiftedGrid:
    """The level-k grid shifted by family index j, one axis replicated n times."""

    params: object
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

    def points(self):
        return itertools.product(self.axis_values(), repeat=self.params.n)


def xi(params, lambdas, ev, d: tuple[Fraction, ...]) -> Fraction:
    """Image sum_i lambda_i * psi(d_i) of a grid vector, exact, through
    ``ev.psi_exact_extended`` (a ``DigitPsi`` or an ``InnerEvaluator``)."""
    if len(d) != params.n:
        raise DomainError(f"expected {params.n} coordinates, got {len(d)}")
    acc = Fraction(0)
    for lam, coord in zip(lambdas.values, d):
        if not (0 <= coord < 2):
            raise DomainError(f"coordinate {coord} outside [0, 2)")
        acc += lam * ev.psi_exact_extended(coord)
    return acc


def integer_image_audit(params, lambdas, ev, k: int, j: int) -> DisjointnessAudit:
    """``bumps.disjoint_support_audit`` with each image an integer over
    the common denominator lcm(lambda denominators) * D_k: the lattice
    numerators read at ``family_axis`` are weighted by each lambda's
    numerator over that lcm, the sums are sorted and their smallest step
    is taken in integers. A gap is the step less the plateau (upper tail
    constant) and two ramps, so the least gap is that of the least step,
    as a Fraction."""
    g = params.gamma
    nums, den = ev.lattice(k)
    scale = g**k
    psi = [i // scale * den + nums[i % scale] for i in family_axis(params, k, j)[:-1].tolist()]
    lcm = math.lcm(*(lam.denominator for lam in lambdas.values))
    weights = [lam.numerator * (lcm // lam.denominator) for lam in lambdas.values]
    images = sorted(map(sum, itertools.product(*[[w * v for v in psi] for w in weights])))
    ramp = Fraction(1, g ** beta(params.n, k + 1))
    plateau_hi = (g - 2) * b_k(params, lambdas, k).hi
    steps = [b - a for a, b in zip(images, images[1:])]
    min_gap = Fraction(min(steps), lcm * den) - plateau_hi - 2 * ramp if steps else Fraction(0)
    return DisjointnessAudit(min_gap=min_gap, ok=min_gap > 0, count=len(images), k=k, j=j)


def family_rounds(state, j: int):
    """Family j's rounds, each as its grid (``decompose.family_grid``,
    looked up at call time) and its coefficients in the grid's slot order."""
    for k, coeff in zip(state.k_list, state.coeff):
        grid = decompose.family_grid(state, j, k)
        yield grid, coeff[grid.order]


def whole_mesh_modulus(state, h: float) -> float:
    """Residual oscillation over axis step h, by one sweep of each whole
    shifted mesh: the bit-for-bit reference for the value of
    ``decompose.residual_modulus``, which sweeps in row blocks and stops
    above a bound."""
    axis = state.audit.axis
    base = state.audit.f_mesh - state.fr_mesh
    n = state.params.n
    worst = 0.0
    keep = axis + h <= 1.0 + 1e-12
    if not np.any(keep):
        return worst
    shifted = axis[keep] + h
    for ax_i in range(n):
        axes = [axis] * n
        axes = axes[:ax_i] + [shifted] + axes[ax_i + 1 :]
        f_mesh = decompose.target_on_mesh(state.target, axes)
        e_mesh = f_mesh - decompose.f_r(state, np.ix_(*axes))
        sel = [slice(None)] * n
        sel[ax_i] = keep
        diff = np.abs(e_mesh - base[tuple(sel)])
        worst = max(worst, float(np.max(diff)))
    return worst


def dense_phi_sum(state, j: int, y: float) -> float:
    """Outer-function value by brute summation over every stored bump."""
    total = 0.0
    for g, round_coeff in family_rounds(state, j):
        for xi, coeff in zip(g.xi, round_coeff):
            t1 = min(max(g.slope * (y - xi) + 1.0, 0.0), 1.0)
            t2 = min(max(g.slope * (y - xi - g.plateau), 0.0), 1.0)
            total += coeff * (t1 - t2)
    return total


def two_candidate_phi(state, j: int, y: np.ndarray) -> np.ndarray:
    """Outer-approximant values by the earlier unblocked evaluator: per
    round, the bump whose support starts last at or below each point
    and its predecessor, over the whole array at once. Sums in the same
    order as ``phi_batch``, so the two agree bit for bit."""
    out = np.zeros_like(y, dtype=float)
    for g, round_coeff in family_rounds(state, j):
        lo = g.xi - g.ramp
        idx = np.searchsorted(lo, y, side="right") - 1
        for off in (0, -1):
            c = idx + off
            inb = (c >= 0) & (c < g.xi.size)
            cc = np.where(inb, c, 0)
            xi_c = g.xi[cc]
            inside = inb & (y > xi_c - g.ramp) & (y < xi_c + g.plateau + g.ramp)
            t1 = np.clip(g.slope * (y - xi_c) + 1.0, 0.0, 1.0)
            t2 = np.clip(g.slope * (y - xi_c - g.plateau), 0.0, 1.0)
            out += np.where(inside, round_coeff[cc] * (t1 - t2), 0.0)
    return out


def active_bump_counts(state, j: int, y: float) -> list[int]:
    """Number of bumps with positive value at y, per round."""
    counts = []
    for g, _ in family_rounds(state, j):
        lo = g.xi - g.ramp
        hi = g.xi + g.plateau + g.ramp
        counts.append(int(np.sum((y > lo) & (y < hi))))
    return counts


def dag_forward(net, X) -> np.ndarray:
    """Network outputs at the rows of X, by a loop over the units in
    (layer, id) order that sums each unit's incoming edges in turn.

    Reads only ``net.units``, ``net.edges`` and ``net.output_ids``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    units = sorted(net.units, key=lambda u: (u.layer, u.id))
    incoming = {u.id: [] for u in units}
    for src, dst, w in net.edges:
        incoming[dst].append((src, w))
    inputs = [u.id for u in units if u.kind == "input"]
    vals = {uid: X[:, col] for col, uid in enumerate(inputs)}
    for unit in units:
        if unit.kind == "input":
            continue
        acc = np.full(X.shape[0], unit.bias)
        for src, w in incoming[unit.id]:
            acc = acc + w * vals[src]
        vals[unit.id] = np.maximum(acc, 0.0) if unit.kind == "relu" else acc
    return np.stack([vals[o] for o in net.output_ids], axis=1)


def take_forward(net, X, block: int) -> np.ndarray:
    """Network outputs at the rows of X, over blocks of ``block``
    points, by the first layered forward pass: per block a fresh
    (points, units) array; per layer the sources as a slice when they
    are consecutive and through ``np.take`` otherwise, times the weights
    unless all are 1, summed per unit by ``np.add.reduceat`` unless
    every unit has one edge, plus the bias, and ReLU on the relu units.

    Reads only the network's columns and ``output_ids``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n_inputs = int(np.count_nonzero(net.layer == 0))
    out = np.empty((len(X), len(net.output_ids)))
    for start in range(0, len(X), block):
        vals = np.empty((len(X[start : start + block]), len(net.layer)))
        vals[:, :n_inputs] = X[start : start + block]
        for lay in np.unique(net.layer[n_inputs:]):
            u0, u1 = np.searchsorted(net.layer, [lay, lay + 1])
            e0, e1 = np.searchsorted(net.dst, [u0, u1])
            sources = net.src[e0:e1]
            if np.array_equal(sources, np.arange(sources[0], sources[0] + len(sources))):
                terms = vals[:, sources[0] : sources[-1] + 1]
            else:
                terms = np.take(vals, sources, axis=1)
            if not np.all(net.w[e0:e1] == 1.0):
                terms = terms * net.w[e0:e1]
            if e1 - e0 > u1 - u0:
                heads = np.searchsorted(net.dst[e0:e1], np.arange(u0, u1))
                terms = np.add.reduceat(terms, heads, axis=1)
            layer_vals = vals[:, u0:u1]
            np.add(terms, net.bias[u0:u1], out=layer_vals)
            relu = net.kind[u0:u1] == "relu"
            layer_vals[:, relu] = np.maximum(layer_vals[:, relu], 0.0)
        out[start : start + block] = vals[:, net.output_ids]
    return out


def audit_grid(knots: np.ndarray, audit_factor: int) -> tuple[np.ndarray, int]:
    """The whole audit grid of ``build_univariate`` over knots, in
    ascending order, and its refinement factor: every cell cut into
    factor parts, factor at least audit_factor and at least 1024 parts
    in all, and the last knot. Every factor-th point is a knot."""
    factor = max(audit_factor, -(-1024 // (len(knots) - 1)))
    left = knots[:-1, None]
    right = knots[1:, None]
    frac = np.arange(factor)[None, :] / factor
    return np.append((left + (right - left) * frac).ravel(), knots[-1]), factor


def whole_grid_univariate(g, M: float, N: int, knots=None, audit_factor: int = 10,
                          values=None) -> UnivariateNet:
    """``build_univariate`` on valid input as it was before its audit
    went by blocks: g called once on the whole audit grid, the knot
    values read off that call unless supplied, and the error the max
    deviation from one ``np.interp`` over the whole grid."""
    knots = np.linspace(0.0, float(M), N + 1) if knots is None else np.asarray(knots, dtype=float)
    audit, factor = audit_grid(knots, audit_factor)
    g_audit = np.asarray(g(audit), dtype=float)
    if values is None:
        values = g_audit[::factor].copy()
    eps = float(np.max(np.abs(g_audit - np.interp(audit, knots, values))))
    return UnivariateNet(knots=knots, values=values, domain=float(M), eps_measured=eps)


def unique_corner_knots(state, j: int, M: float) -> np.ndarray:
    """``pipeline._corner_knots`` as ``np.unique`` over every corner
    copy of the grids of the rounds with a nonzero coefficient, then
    cut to [0, M]."""
    pieces = [np.asarray([0.0, M])]
    depths = dict.fromkeys(k for k, coeff in zip(state.k_list, state.coeff) if np.any(coeff))
    for grid in (decompose.family_grid(state, j, k) for k in depths):
        top = grid.xi + grid.plateau
        pieces += [grid.xi - grid.ramp, grid.xi, top, top + grid.ramp]
    knots = np.unique(np.concatenate(pieces))
    return knots[(knots >= 0.0) & (knots <= M)]


def phi_batch_outer_net(state, j: int) -> UnivariateNet:
    """Family j's outer net as ``pipeline.build_outer_nets`` built it
    before it derived the audit points' slots from the knots' and
    skipped the flat cells: ``build_univariate`` over ``phi_batch`` at
    ``unique_corner_knots``, audit factor 4, every audit point
    evaluated."""
    M = float(state.params.phi_domain_sup)
    g = lambda y: decompose.phi_batch(state, j, np.asarray(y, dtype=float))
    return build_univariate(g, M, 0, knots=unique_corner_knots(state, j, M), audit_factor=4)


def univariate_network(uni: UnivariateNet) -> ReluNetwork:
    """The depth-2 network c_0 + sum_i a_i * ReLU(x - t_i) of an
    interpolant's ``hinge_coeffs``: the input, one hinge per knot but
    the last, and one linear output."""
    c0, t, a = uni.hinge_coeffs()
    hinges = np.arange(1, len(t) + 1)
    return ReluNetwork(
        kind=["input"] + ["relu"] * len(t) + ["linear"],
        layer=[0] + [1] * len(t) + [2],
        bias=np.concatenate([[0.0], -t, [c0]]),
        src=np.concatenate([np.zeros(len(t), dtype=np.int64), hinges]),
        dst=np.concatenate([hinges, np.full(len(t), len(t) + 1)]),
        w=np.concatenate([np.ones(len(t)), a]),
        output_ids=[len(t) + 1],
    )


def json_network(doc: dict) -> SimpleNamespace:
    """The units, edges and outputs of a ``--out-net`` document, in the
    shape ``dag_forward`` reads."""
    u, e = doc["units"], doc["edges"]
    units = [
        SimpleNamespace(id=i, kind=kind, layer=layer, bias=float(bias))
        for i, (kind, layer, bias) in enumerate(zip(u["kind"], u["layer"], u["bias"]))
    ]
    edges = [(s, d, float(w)) for s, d, w in zip(e["from"], e["to"], e["w"])]
    return SimpleNamespace(units=units, edges=edges, output_ids=doc["meta"]["outputs"])


def f17_list(values: np.ndarray) -> list[str]:
    """17-digit decimal strings of a float array, each distinct bit
    pattern (signed zeros apart) formatted once and shared."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [format(v, ".17g") for v in bits.view(np.float64).tolist()]
    return np.asarray(text, dtype=object)[inverse].tolist()


def net_json_text(net) -> str:
    """The ``--out-net`` text of a network as a dict of Python lists,
    floats as ``f17_list`` strings, rendered by ``json.dumps``: the byte
    reference for the column encoder ``relunet.json_parts``."""
    doc = {
        "units": {"kind": net.kind.tolist(), "layer": net.layer.tolist(),
                  "bias": f17_list(net.bias)},
        "edges": {"from": net.src.tolist(), "to": net.dst.tolist(), "w": f17_list(net.w)},
        "meta": {"W": net.W, "L": net.L, "outputs": net.output_ids},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def columns_json_text(doc) -> str:
    """``json.dumps`` (compact, sorted keys) of a document whose numpy
    columns are replaced by lists, float columns by ``f17_list``."""

    def plain(node):
        if isinstance(node, dict):
            return {key: plain(value) for key, value in node.items()}
        if isinstance(node, np.ndarray):
            return f17_list(node) if node.dtype.kind == "f" else node.tolist()
        return node

    return json.dumps(plain(doc), sort_keys=True, separators=(",", ":"))


HOLDER_PAIR_BUDGET = 10**4  # max gamma**k for the pairwise audit


def holder_audit(ev, k: int) -> dict:
    """Worst Hoelder ratio of an ``InnerEvaluator``'s depth-k float
    table over all pairs in D_k united with D_k + 1.

    Returns max over x != y of |psi(x)-psi(y)| / (nu*|x-y|**alpha),
    which the construction promises is at most 1, plus the witness
    pair attaining it.
    """
    p = ev.params
    if p.gamma**k > HOLDER_PAIR_BUDGET:
        raise BudgetError(
            f"gamma**k = {p.gamma**k} exceeds the pair budget {HOLDER_PAIR_BUDGET}"
        )
    x = np.arange(2 * p.gamma**k) / p.gamma**k
    y = ev.float_table(k)
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


def sigma(x: float) -> float:
    """Piecewise-linear clamp: 0 below 0, identity on [0, 1], 1 above.

    Equals ReLU(x) - ReLU(x - 1) pointwise, which is how the network
    realization spells it.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return x


@dataclass(frozen=True)
class BumpSpec:
    """One trapezoidal bump: plateau of height 1 over
    [center_left, center_left + plateau], linear ramps of width
    1/slope on both sides, zero outside.
    """

    center_left: Fraction
    plateau: Fraction
    slope: int
    k: int

    @property
    def ramp(self) -> Fraction:
        return Fraction(1, self.slope)

    @property
    def support_lo(self) -> Fraction:
        return self.center_left - self.ramp

    @property
    def support_hi(self) -> Fraction:
        return self.center_left + self.plateau + self.ramp


def make_bump(params, bk, xi_value: Fraction, k: int) -> BumpSpec:
    g, n = params.gamma, params.n
    return BumpSpec(
        center_left=xi_value,
        plateau=(g - 2) * bk.value,
        slope=g ** beta(n, k + 1),
        k=k,
    )


def theta(spec: BumpSpec, x: float) -> float:
    """Trapezoid value at x, evaluated in floating point."""
    slope = float(spec.slope)
    left = float(spec.center_left)
    width = float(spec.plateau)
    return sigma(slope * (x - left) + 1.0) - sigma(slope * (x - left - width))


def theta_exact(spec: BumpSpec, x: Fraction) -> Fraction:
    """Trapezoid value at an exact x; used by boundary tests."""

    def clamp(v: Fraction) -> Fraction:
        if v <= 0:
            return Fraction(0)
        if v >= 1:
            return Fraction(1)
        return v

    s = Fraction(spec.slope)
    return clamp(s * (x - spec.center_left) + 1) - clamp(
        s * (x - spec.center_left - spec.plateau)
    )


SCALAR_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "abs": abs,
    "sqrt": math.sqrt,
}


def oracle_eval_expr(e, p, functions=SCALAR_FUNCTIONS) -> float:
    """Expression value at one point by recursive scalar evaluation,
    raising DomainError where Python's float arithmetic refuses."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(p[e.index - 1])
    if isinstance(e, Neg):
        return -oracle_eval_expr(e.operand, p, functions)
    if isinstance(e, Call):
        arg = oracle_eval_expr(e.arg, p, functions)
        try:
            return functions[e.func](arg)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{e.func}({arg}) is undefined") from exc
    if isinstance(e, BinOp):
        a = oracle_eval_expr(e.left, p, functions)
        b = oracle_eval_expr(e.right, p, functions)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            return a / b
        try:
            r = a**b
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{a} ^ {b} is undefined") from exc
        if isinstance(r, complex):
            raise DomainError(f"{a} ^ {b} is not real")
        return r
    raise TypeError(f"not an expression node: {e!r}")


def pretty(e) -> str:
    """Fully parenthesized rendering of an expression tree; parses back
    to the same tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        return f"(-{pretty(e.operand)})"
    if isinstance(e, Call):
        return f"{e.func}({pretty(e.arg)})"
    return f"({pretty(e.left)}{e.op}{pretty(e.right)})"
