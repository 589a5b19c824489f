"""Iterative construction of the outer functions.

One iteration picks a grid depth k_r fine enough that the current
residual oscillates by at most delta times its sup norm over one grid
cell, evaluates the residual at every level-k_r grid point, and adds a
layer of trapezoidal bumps to each of the m+1 outer approximants: the
bump for grid vector d sits at the image of d shifted by the family
index, with coefficient e_{r-1}(d)/(m+1). A state holds that vector
once per round; family_grid places its bumps for each family.

Residual sup norms are measured on a fixed audit mesh plus a seeded
batch of random points, one AuditSample that every state of a
decomposition shares; the true sup norm is unobservable and the same
estimator is used both for choosing k_r and for reporting. The sample
also keeps the target on every sweep and shifted mesh it is evaluated on.

A state carries each family's phi_j on the audit mesh and points
(phi_mesh, phi_points) and, before its last round, on that round's
sweep mesh (phi_sweep): phi_batch adds only the new round to them,
which gives the bits of every round added in order to +0.0. That
is 0.45 MB per n=2 state, and 1.9 MB more on a depth-3 sweep mesh at
gamma 6. A state loaded from a file computes them from scratch.

States are immutable snapshots; iterate() returns a new one. The inner
evaluator's lattices and float tables, and the bump grids, are shared
caches whose population is observationally invisible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bumps import b_k, disjoint_support_audit, family_axis
from .errors import BudgetError, ConstraintViolation, DomainError, KstError
from .inner import InnerEvaluator
from .params import (
    KstParams,
    LambdaCoeffs,
    beta,
    images,
    lambda_coeffs,
    make_params,
    to_json,
)
from .relunet import AUDIT_BLOCK_CELLS, audit_points, json_parts
from .target import (
    TargetFunction,
    default_audit_resolution,
    mesh_points,
    target_from_provenance,
)

STATE_SCHEMA = "kst-decomposition/3"

# Points per phi_batch block, whose temporaries then stay in cache
PHI_BLOCK = 1 << 14

# Rows along axis 0 in the first block of a residual_modulus sweep; each
# later block doubles, so a failing depth test stops after a few blocks
MODULUS_FIRST_ROWS = 4


@dataclass(frozen=True, eq=False)
class Grid:
    """The bump supports of one family at one depth, sorted by image
    position: slot i holds the bump of grid vector order[i] (a row-major
    index into a round's coefficients), whose plateau starts at its
    image xi[i]. One per parameter record, family and depth; it hashes
    by identity.

    Every reader takes a bump's corners from here: the support start
    xi - ramp, xi, the plateau end xi + plateau and the support end
    (xi + plateau) + ramp. So each support end of a grid is, bit for
    bit, a knot of the outer nets."""

    k: int
    slope: float
    plateau: float
    ramp: float
    xi: np.ndarray
    order: np.ndarray

    def start(self, xi: np.ndarray) -> np.ndarray:
        """The support starts of the bumps at xi."""
        return xi - self.ramp

    def end(self, xi: np.ndarray) -> np.ndarray:
        """The support ends of the bumps at xi."""
        return (xi + self.plateau) + self.ramp

    def corners(self) -> tuple[np.ndarray, ...]:
        """The four corners of every bump, each ascending in slot order."""
        return self.lo, self.xi, self.xi + self.plateau, self.hi

    @cached_property
    def lo(self) -> np.ndarray:
        return self.start(self.xi)

    @property
    def hi(self) -> np.ndarray:
        """The support ends, built on each read."""
        return self.end(self.xi)

    @cached_property
    def shared(self) -> np.ndarray:
        """True at slot i when bump i-1's support reaches past lo[i]."""
        return np.concatenate(([False], self.hi[:-1] > self.lo[1:]))

    @cached_property
    def reach(self) -> np.ndarray:
        """The grid vectors, in slot order, of the bumps whose support
        reaches past the next neighbour (hi[i] > lo[i+2])."""
        return self.order[np.flatnonzero(self.hi[:-2] > self.lo[2:])]


@dataclass(frozen=True)
class DecompositionCaps:
    """Depth cap, budgets and audit sizes of a decomposition.

    ``audit_resolution`` is the points per axis of the audit mesh; None
    takes the default for the dimension when the state is created.
    DomainError refuses a ``k_max``, a grid budget or an audit resolution
    below 1, a negative ``n_random`` and a negative ``seed``.
    """

    k_max: int = 3
    grid_budget: int = 10**6
    audit_resolution: int | None = None
    n_random: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("k_max", 1), ("grid_budget", 1), ("audit_resolution", 1),
                            ("n_random", 0), ("seed", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise DomainError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True, eq=False)
class AuditSample:
    """The fixed sample on which the states of one decomposition measure
    their residuals: the audit mesh axis, the seeded random points, and
    the target on the mesh and at the points, each evaluated on first
    use, and on every other mesh it is asked for (f_on)."""

    target: TargetFunction
    axis: np.ndarray
    points: np.ndarray
    meshes: dict = field(default_factory=dict, repr=False)

    @classmethod
    def draw(cls, target: TargetFunction, caps: DecompositionCaps) -> "AuditSample":
        """The sample of caps' audit resolution, random batch size and seed."""
        rng = np.random.Generator(np.random.PCG64(caps.seed))
        return cls(target, np.linspace(0.0, 1.0, caps.audit_resolution),
                   rng.random((caps.n_random, target.dim)))

    @property
    def mesh(self) -> tuple[np.ndarray, ...]:
        """The audit mesh as coordinate columns, np.ix_ of the axis."""
        return np.ix_(*[self.axis] * self.target.dim)

    @property
    def f_mesh(self) -> np.ndarray:
        return self.f_on([self.axis] * self.target.dim)

    def f_on(self, axes: list[np.ndarray]) -> np.ndarray:
        """The target on the product mesh of axes, evaluated once."""
        key = tuple(ax.tobytes() for ax in axes)
        if key not in self.meshes:
            self.meshes[key] = target_on_mesh(self.target, axes)
        return self.meshes[key]

    @cached_property
    def f_points(self) -> np.ndarray:
        return self.target.eval_batch(self.points)


@dataclass
class DecompositionState:
    """A decomposition after r rounds, as its file holds it. Round l has
    depth k_list[l] and coeff[l], one coefficient per depth-k grid vector
    in row-major order, the same for every family; family_grid(state, j,
    k) places family j's bumps."""

    params: KstParams
    lambdas: LambdaCoeffs
    ev: InnerEvaluator
    target: TargetFunction
    caps: DecompositionCaps
    k_list: tuple[int, ...]
    k_warnings: tuple[bool, ...]
    coeff: tuple[np.ndarray, ...]
    residual_norms: tuple[float, ...]
    audit: AuditSample

    @property
    def r(self) -> int:
        return len(self.k_list)

    @property
    def k_trunc(self) -> int:
        return self.caps.k_max + 2

    @property
    def rounds(self) -> list[tuple[int, np.ndarray]]:
        return list(zip(self.k_list, self.coeff))

    # The carried values of the module docstring, which iterate sets on
    # the state it makes; phi_sweep is None on any other state.
    phi_sweep = None

    @cached_property
    def phi_mesh(self) -> tuple[np.ndarray, ...]:
        return carry(self, self.audit.mesh, self.rounds)

    @cached_property
    def phi_points(self) -> tuple[np.ndarray, ...]:
        return carry(self, self.audit.points.T, self.rounds)

    @cached_property
    def fr_mesh(self) -> np.ndarray:
        """f_r on the audit mesh, computed once per state."""
        return sum(self.phi_mesh)

    @cached_property
    def fr_points(self) -> np.ndarray:
        """f_r at the audit sample's random points, computed once per state."""
        return sum(self.phi_points)


def init_state(
    target: TargetFunction,
    params: KstParams | None = None,
    caps: DecompositionCaps | None = None,
) -> DecompositionState:
    """Fresh state at r = 0 with the measured norm of the target."""
    params = make_params(target.dim) if params is None else params
    if params.n != target.dim:
        raise DomainError("target dimension does not match params")
    caps = DecompositionCaps() if caps is None else caps
    if caps.audit_resolution is None:
        caps = replace(caps, audit_resolution=default_audit_resolution(params.n))
    state = DecompositionState(
        params=params,
        lambdas=lambda_coeffs(params),
        ev=InnerEvaluator(params),
        target=target,
        caps=caps,
        k_list=(),
        k_warnings=(),
        coeff=(),
        residual_norms=(),
        audit=AuditSample.draw(target, caps),
    )
    state.residual_norms = (measure_residual_norm(state),)
    return state


# -- vectorized evaluation ----------------------------------------------------


def phi_batch(state, j: int, y: np.ndarray, rounds=None, out=None, own=None) -> np.ndarray:
    """Outer approximant phi_j at a flat array of points: out (or +0.0)
    plus, added in place by _add_rounds in blocks of PHI_BLOCK, each
    (depth, coefficients) round of rounds (or of the state) times its
    depth's bumps on family j's grid. In each grid a point takes the
    bump whose support starts last at or below it and, in the slots of
    Grid.shared, that bump's predecessor: every support containing the
    point, provided no bump with a nonzero coefficient reaches past its
    next neighbour, which check_overreach ensures for every round.

    Per block, _locate finds the slots once for each depth, so the
    rounds of one depth share them. With own a depth whose grid vectors,
    in row-major order, y images (a sweep mesh), that depth's slots are
    those _confirm confirms."""
    rounds = list(zip(state.k_list, state.coeff)) if rounds is None else rounds
    out = np.zeros(len(y)) if out is None else out
    grids = {k: family_grid(state, j, k) for k, _ in rounds}
    if own in grids:
        rank = np.empty_like(grids[own].order)
        rank[grids[own].order] = np.arange(len(rank))
    for start in range(0, len(y), PHI_BLOCK):
        yb = y[start : start + PHI_BLOCK]
        slots = {k: _confirm(grid, yb, rank[start : start + PHI_BLOCK]) if k == own
                 else _locate(grid, yb) for k, grid in grids.items()}
        _add_rounds(out[start : start + PHI_BLOCK], rounds, grids, yb, slots)
    return out


def _locate(grid: Grid, yb: np.ndarray) -> np.ndarray:
    """Each point's slot: the last bump whose support starts at or below
    it, and slot 0 below the first."""
    slot = np.searchsorted(grid.lo, yb, side="right") - 1
    return np.maximum(slot, 0, out=slot)


def _confirm(grid: Grid, yb: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """_locate's slots from a guess per point: a sweep point lies on its
    own bump, in its grid vector's slot, so lo[guess] <= y < lo[guess+1]
    confirms most guesses, and the others are searched."""
    lo = grid.lo
    wrong = np.flatnonzero(~((lo[guess] <= yb) & (lo[np.minimum(guess + 1, len(lo) - 1)] > yb)))
    slot = guess.copy()
    slot[wrong] = np.searchsorted(lo, yb[wrong], side="right") - 1
    return np.maximum(slot, 0, out=slot)


def _add_rounds(out: np.ndarray, rounds, grids: dict, y: np.ndarray, slots: dict) -> None:
    """Add to out, round by round, each (depth k, coefficients) round's
    coefficients times the shapes at y of the bumps in the points' slots
    slots[k] of grids[k] and, in shared slots, of their predecessors.
    The shapes are found once per depth. Outside its support a term is
    -0.0 where a coefficient is negative; added to out, which is never
    -0.0, it changes nothing, as +0.0 would not."""
    found = {}
    for k, grid in grids.items():
        slot = slots[k]
        two = np.flatnonzero(grid.shared[slot])
        prev = slot[two] - 1
        found[k] = (grid.order[slot], _shape(grid, y, slot), two, grid.order[prev],
                    _shape(grid, y[two], prev))
    for k, coeff in rounds:
        vec, shape, two, prev, prev_shape = found[k]
        term = coeff[vec]
        term *= shape
        out += term
        if two.size:
            out[two] += coeff[prev] * prev_shape


def _ascending_slots(lo: np.ndarray, yb: np.ndarray) -> np.ndarray:
    """_locate's slots in a grid of starts lo for ascending yb, found by
    placing the starts that lie in (yb[0], yb[-1]] among the points: a
    point's slot rises by one at each start at or below it."""
    a, b = np.searchsorted(lo, yb[[0, -1]], side="right")
    at = np.searchsorted(yb, lo[a:b], side="left")
    return np.repeat(np.maximum(np.arange(a - 1, b), 0), np.diff(at, prepend=0, append=len(yb)))


def _shape(grid: Grid, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Bump c's unit-height trapezoid at y, and +0.0 outside its support:
    min(max(slope * d + 1, 0), 1) - min(max(slope * (d - plateau), 0), 1)
    with d = y - xi[c], computed in two buffers."""
    x = grid.xi[c]
    inside = y > grid.start(x)
    np.logical_and(inside, y < grid.end(x), out=inside)
    d = np.subtract(y, x, out=x)
    t2 = d - grid.plateau
    t2 *= grid.slope
    np.maximum(t2, 0.0, out=t2)
    np.minimum(t2, 1.0, out=t2)
    d *= grid.slope
    d += 1.0
    np.maximum(d, 0.0, out=d)
    np.minimum(d, 1.0, out=d)
    d -= t2
    np.logical_not(inside, out=inside)
    d[inside] = 0.0
    return d


def _flat(grid: Grid, left: np.ndarray, right: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """True for the cells [left, right] on which the bump in each cell's
    slot and, in shared slots, its predecessor have a constant shape."""
    flat = _constant(grid, left, right, slot)
    two = np.flatnonzero(grid.shared[slot])
    flat[two] &= _constant(grid, left[two], right[two], slot[two] - 1)
    return flat


def _constant(grid: Grid, left: np.ndarray, right: np.ndarray, c: np.ndarray) -> np.ndarray:
    """True where _shape(grid, y, c) is +0.0 for every y in [left, right]
    (outside the open support), or 1.0 (inside it, with y - xi >= 0 and
    (y - xi) - plateau <= 0). Rounding to nearest is monotone, so each
    test holds between the ends when it holds at the end that bounds it."""
    xi = grid.xi[c]
    lo, hi = grid.start(xi), grid.end(xi)
    zero = (right <= lo) | (left >= hi)
    one = (left > lo) & (right < hi) & (left - xi >= 0.0) & (right - xi - grid.plateau <= 0.0)
    return zero | one


def _cell_points(knots: np.ndarray, cells: np.ndarray, frac: np.ndarray) -> tuple[np.ndarray, ...]:
    """The audit points of the given cells of ascending knots, and the
    index of each one's knot: its cell's left knot, or the right one
    where it rounds onto that knot (as in cells one ulp wide)."""
    x = audit_points(knots[cells], knots[cells + 1], frac)
    at = np.repeat(cells, len(frac))
    at += x == knots[at + 1]
    return x, at


def nonzero_rounds(state) -> list[tuple[int, np.ndarray]]:
    """The (depth, coefficients) rounds with a nonzero coefficient: the
    others add zeros in _add_rounds, which change no value."""
    return [(k, coeff) for k, coeff in zip(state.k_list, state.coeff) if np.any(coeff)]


def phi_on_knots(state, j: int, knots: np.ndarray, frac: np.ndarray) -> tuple[np.ndarray, float]:
    """phi_j at ascending knots, and the largest deviation from phi_j of
    their interpolant at the audit points (audit_points with frac) of
    every cell: phi_batch's values there, bit for bit. The knots must
    hold every support start in [knots[0], knots[-1]] of the grids of
    nonzero_rounds.

    Per block of AUDIT_BLOCK_CELLS cells the knots' slots are found once
    per grid, by _ascending_slots. No support starts inside a cell, so
    an audit point takes its cell's left knot's slots, or its right
    knot's where it rounds onto that knot (_cell_points). A cell on
    which every bump of its slots is exactly flat (_flat) and whose end
    values are equal has phi_j equal to its left value throughout, as
    the interpolant does: its deviation is exactly 0.0, so its points
    are not evaluated. DomainError refuses a non-finite value."""
    rounds = nonzero_rounds(state)
    grids = {k: family_grid(state, j, k) for k, _ in rounds}
    values = np.zeros(len(knots))
    eps = 0.0
    for s in range(0, len(knots) - 1, AUDIT_BLOCK_CELLS):
        kb = knots[s : s + AUDIT_BLOCK_CELLS + 1]
        vb = values[s : s + AUDIT_BLOCK_CELLS + 1]
        slots = {k: _ascending_slots(grid.lo, kb) for k, grid in grids.items()}
        vb[:] = 0.0
        _add_rounds(vb, rounds, grids, kb, slots)
        left, right = kb[:-1], kb[1:]
        live = vb[:-1] != vb[1:]
        for k, grid in grids.items():
            live |= ~_flat(grid, left, right, slots[k][:-1])
        x, at = _cell_points(kb, np.flatnonzero(live), frac)
        fx = np.zeros(len(x))
        _add_rounds(fx, rounds, grids, x, {k: slot[at] for k, slot in slots.items()})
        if not (np.all(np.isfinite(vb)) and np.all(np.isfinite(fx))):
            raise DomainError(f"outer function {j} is not finite on the audit grid")
        eps = max(eps, float(np.max(np.abs(fx - np.interp(x, kb, vb)), initial=0.0)))
    return values, eps


def carry(state, columns, rounds, start=None, own=None) -> tuple[np.ndarray, ...]:
    """Each family's phi_j where f_r reads it at coordinate columns, in
    their broadcast shape: phi_batch of the rounds, with its own, from
    start[j] (or +0.0). From the earlier rounds' values, the bits of
    every round added to +0.0."""
    k = state.k_trunc
    ys = images(lambda u: state.ev.psi_trunc_vector(u, k), state.lambdas.floats,
                float(state.params.a), columns, state.params.m + 1)
    return tuple(phi_batch(state, j, y.ravel(), rounds,
                           None if start is None else start[j].ravel().copy(), own)
                 .reshape(y.shape) for j, y in enumerate(ys))


def f_r(state, columns) -> np.ndarray:
    """The approximant at coordinate columns, carry's phi_j summed in
    family order: ``pts.T`` of an (N, n) array of points gives the N
    values, and ``np.ix_(*axes)`` the values on the product mesh of the
    axes. The inner function is read at the float-rounded sums x +
    j*float(a) through the shared nudged-floor rule, so the approximant
    is evaluated at exactly the argument a network sees."""
    return sum(carry(state, columns, state.rounds))


def target_on_mesh(target: TargetFunction, axes: list[np.ndarray]) -> np.ndarray:
    vals = target.eval_batch(mesh_points(axes))
    return vals.reshape(tuple(len(ax) for ax in axes))


def measure_residual_norm(state) -> float:
    """Sup of |f - f_r| over the audit mesh and the seeded random batch."""
    audit = state.audit
    sup = float(np.max(np.abs(audit.f_mesh - state.fr_mesh)))
    rand = np.abs(audit.f_points - state.fr_points)
    return max(sup, float(np.max(rand, initial=0.0)))


# -- the iteration ------------------------------------------------------------


def residual_modulus(state, h: float, bound: float = math.inf) -> float:
    """Empirical oscillation of the residual over axis step h: the max
    over the axes i of |e(x + h u_i) - e(x)| at the audit mesh points x
    that the shift keeps in the cube.

    Each shifted mesh is swept in blocks of rows along axis 0, the first
    MODULUS_FIRST_ROWS rows and each later block twice the one before,
    and the sweep stops at the first block that takes the running max
    strictly above bound. f_r on a block of rows is those rows of f_r on
    the whole mesh, bit for bit (images and phi_batch work point by
    point), and the target is the sample's on the whole shifted mesh,
    sliced. So the value is the exact max when that max is at most
    bound, and a value in (bound, max] otherwise."""
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
        axes[ax_i] = shifted
        f_mesh = state.audit.f_on(axes)
        sel = [slice(None)] * n
        sel[ax_i] = keep
        base_i = base[tuple(sel)]
        start, rows = 0, MODULUS_FIRST_ROWS
        while start < len(axes[0]):
            block = slice(start, start + rows)
            e_block = f_mesh[block] - f_r(state, np.ix_(axes[0][block], *axes[1:]))
            worst = max(worst, float(np.max(np.abs(e_block - base_i[block]))))
            if worst > bound:
                return worst
            start, rows = block.stop, 2 * rows
    return worst


# For the parameter record last asked (a state of another record clears
# it), each depth k's float bump shape, each family j's Grid at depth k
# (key (k, j)) and the exact depth-1 min_gap ("gap"), computed on first
# use: pure functions of the record, a cache only.
_geometry: dict[KstParams, dict] = {}


def _memo(state, key, compute):
    if state.params not in _geometry:
        _geometry.clear()
    known = _geometry.setdefault(state.params, {})
    if key not in known:
        known[key] = compute()
    return known[key]


def depth_refusal(state, k: int, nonzero: bool = False) -> KstError | None:
    """The error a round at depth k must raise, or None.

    The cheap part refuses a depth outside 1..k_max; one whose float ramp
    gamma**-beta_n(k+1), narrower than the plateau (gamma - 2) * b_k >= 4
    ramps, is no wider than the float spacing at the top of the outer
    domain, where every bump would collapse (n=2 from depth 4 on, n=3
    from depth 3 on); and one whose (gamma**k + 1)**n grid exceeds the
    budget. With ``nonzero``, for a layer with a nonzero coefficient, the
    exact audit refuses overlapping supports. Only depth 1 is audited:
    its family shift is empty, so one audit of gamma**n images decides
    all m+1 families (min_gap -7.05e-3, -3.20e-3, -1.71e-3 at n=2 for
    gamma 6, 8, 10). Deeper families take m+1 audits of gamma**(nk)
    images each and are not audited here.
    """
    p, caps = state.params, state.caps
    if not 1 <= k <= caps.k_max:
        return ConstraintViolation("1 <= k <= k_max", f"depth {k}, k_max {caps.k_max}")
    ramp = _bump_shape(state, k)[2]
    spacing = float(np.spacing(float(p.phi_domain_sup)))
    if ramp <= spacing:
        return ConstraintViolation(f"bump ramp wider than the float spacing {spacing:.3e}",
                                   f"ramp {ramp:.3e} at depth {k}")
    size = (p.gamma**k + 1) ** p.n
    if size > caps.grid_budget:
        return BudgetError(f"depth-{k} grid size (gamma**k + 1)**n = {size} exceeds "
                           f"{caps.grid_budget}")
    if nonzero and k == 1:
        audit = lambda: disjoint_support_audit(p, state.lambdas, state.ev, 1, 0).min_gap
        if (gap := _memo(state, "gap", audit)) <= 0:
            return ConstraintViolation("disjoint depth-1 bump supports",
                                       f"exact audit min_gap = {float(gap):.6e} at depth 1")
    return None


def choose_k_r(state) -> tuple[int, bool]:
    """Smallest depth whose empirical residual oscillation is within
    delta times the residual norm and that depth_refusal lets a nonzero
    layer take, (k_max, True) when none qualifies: depths its cheap part
    refuses are not swept, and its audit is asked after a sweep passes.
    The sweep is given delta times the norm as its bound, so a failing
    depth stops at its first row block above it; the value it returns
    then still exceeds the bound, and the depth is decided as by a whole
    sweep. A zero residual gives depth 1, whose layer is null."""
    norm = state.residual_norms[-1]
    if norm == 0.0:
        return 1, False
    p = state.params
    bound = p.delta * norm
    for k in range(1, state.caps.k_max + 1):
        if (depth_refusal(state, k) is None
                and residual_modulus(state, float(p.gamma) ** -k, bound) <= bound
                and depth_refusal(state, k, nonzero=True) is None):
            return k, False
    return state.caps.k_max, True


def _bump_shape(state, k: int) -> tuple[float, float, float]:
    """Slope gamma**beta_n(k+1), plateau width (gamma - 2) * b_k and ramp
    width 1/slope of a depth-k bump, as floats, computed once per
    parameter record. A slope past the float range, whose depth
    depth_refusal refuses for its ramp, reads as the largest float."""
    p = state.params

    def compute():
        slope = p.gamma ** beta(p.n, k + 1)
        plateau = float((p.gamma - 2) * b_k(p, state.lambdas, k).value)
        return float(min(slope, sys.float_info.max)), plateau, float(Fraction(1, slope))

    return _memo(state, k, compute)


def family_grid(state, j: int, k: int) -> Grid:
    """Family j's depth-k bump grid: the depth-k grid vectors d, taken in
    row-major order, sorted by their images sum_i lambda_i * psi(d_i +
    j * a_k), where a_k = sum_{l=2..k} gamma**-l is the shift a cut at
    depth k. One Grid per parameter record, family and depth, shared by
    every state of that record and computed on first use.
    """
    p = state.params

    def build():
        # the images at the family's lattice indices, which carry its shift
        axes = np.ix_(*[family_axis(p, k, j)] * p.n)
        xi = next(images(state.ev.float_table(k).take, state.lambdas.floats, 0, axes, 1)).ravel()
        order = np.argsort(xi, kind="stable")
        return Grid(k, *_bump_shape(state, k), xi=xi[order], order=order)

    return _memo(state, (k, j), build)


def check_overreach(state, l: int) -> None:
    """Raise ConstraintViolation naming the round, the coefficient and
    its grid vector when round l puts a nonzero coefficient on a bump
    whose support reaches past its next neighbour (Grid.reach) in some
    family."""
    p, k, coeff = state.params, state.k_list[l], state.coeff[l]
    for j in range(p.m + 1):
        reach = family_grid(state, j, k).reach
        if (bad := reach[coeff[reach] != 0.0]).size:
            c = int(bad[0])
            d = tuple(int(x) for x in np.unravel_index(c, (p.gamma**k + 1,) * p.n))
            raise ConstraintViolation(
                "bump supports reach no further than the next bump",
                f"state.coeff[{l}][{c}], grid vector {d}, is nonzero on a depth-{k} "
                f"bump of family {j} that reaches past the next bump",
            )


def iterate(state: DecompositionState) -> DecompositionState:
    """Append one round to the state and remeasure the residual.

    Raises the error of depth_refusal for the chosen depth: that of its
    cheap part before the residual sweep, so no grid above the budget is
    allocated, and that of the exact audit after it, when a coefficient
    is nonzero (the null rounds of a zero residual are built at depth 1);
    then that of check_overreach. The sweep values are carried on from
    the parent's when the depth repeats, else computed from scratch.
    """
    p = state.params
    g, n, m = p.gamma, p.n, p.m
    k_r, warned = choose_k_r(state)
    if (err := depth_refusal(state, k_r)) is not None:
        raise err
    # The level-k axis includes the right endpoint 1. Without it the
    # strip (1 - gamma**-k/(gamma-1), 1] of the cube belongs to no
    # family's plateau region (the families shift towns toward 0), and
    # the residual would never contract there. Each float
    # i/gamma**k + j*float(a) reads the cell of its exact argument, whose
    # position in the cell is 0 (j = 0, kept by the nudge) or j/(gamma-1).
    axis = np.arange(g**k_r + 1) / g**k_r
    sweep = np.ix_(*[axis] * n)
    if state.phi_sweep is not None and state.k_list[-1] == k_r:
        phi_sweep = carry(state, sweep, state.rounds[-1:], state.phi_sweep, k_r)
    else:
        phi_sweep = carry(state, sweep, state.rounds, own=k_r)
    coeff = ((state.audit.f_on([axis] * n) - sum(phi_sweep)) / (m + 1)).ravel()
    if (err := depth_refusal(state, k_r, nonzero=bool(np.any(coeff)))) is not None:
        raise err

    nxt = replace(
        state,
        k_list=state.k_list + (k_r,),
        k_warnings=state.k_warnings + (warned,),
        coeff=state.coeff + (coeff,),
    )
    check_overreach(nxt, state.r)
    new = [(k_r, coeff)]
    nxt.phi_mesh = carry(nxt, nxt.audit.mesh, new, state.phi_mesh)
    nxt.phi_points = carry(nxt, nxt.audit.points.T, new, state.phi_points)
    nxt.phi_sweep = phi_sweep
    nxt.residual_norms = state.residual_norms + (measure_residual_norm(nxt),)
    return nxt


def lipschitz_report(state) -> dict:
    """Lipschitz constant of the outer approximants from measured norms,
    and the growth-class bound with C = max chosen depth."""
    if state.r < 1:
        raise DomainError("no completed iterations to report on")
    p = state.params
    nu_r = sum(
        state.residual_norms[ell - 1] * float(p.gamma ** beta(p.n, k_ell + 1))
        for ell, k_ell in enumerate(state.k_list, start=1)
    ) / (p.m + 1)
    c_depth = max(state.k_list)
    bound = (
        state.residual_norms[0]
        * state.r
        * float(p.gamma ** (2 * p.n**c_depth))
        / (p.m + 1)
    )
    return {
        "nu_r": nu_r,
        "K_C_bound": bound,
        "C": c_depth,
        "k_list": list(state.k_list),
        "k_warnings": list(state.k_warnings),
        "within_bound": nu_r <= bound,
    }


# -- serialization --------------------------------------------------------------


def _state_document(state) -> dict:
    """The state document with each round's coefficient vector left as
    an array, for json_parts to render."""
    return to_json({
        "schema": STATE_SCHEMA,
        "params": state.params.to_json_dict(),
        "target": {"provenance": state.target.provenance},
        "caps": asdict(state.caps),
        "k_list": state.k_list,
        "k_warnings": state.k_warnings,
        "residual_norms": state.residual_norms,
    }) | {"coeff": list(state.coeff)}


def state_json_text(state) -> str:
    """The text of a state file: the state document as compact JSON with
    sorted keys and %.17g coefficient strings, and a final newline."""
    return b"".join(json_parts(_state_document(state))).decode() + "\n"


# JSON layout of a state file: a dict maps keys to layouts, a one-item
# list is a list of that layout, str/int/bool are JSON leaves, and float
# is a finite decimal string.
_STATE_LAYOUT = {
    "schema": str,
    "params": {
        "n": int, "m": int, "gamma": int, "delta": float, "eta": float,
        "lambda_depth": int,
    },
    "target": {"provenance": {"kind": str}},
    "caps": {
        "k_max": int, "grid_budget": int, "audit_resolution": int,
        "n_random": int, "seed": int,
    },
    "k_list": [int],
    "k_warnings": [bool],
    "residual_norms": [float],
    "coeff": [[float]],
}

# The entry that names a target of each provenance kind
_PROVENANCE_KEY = {"builtin": "name", "expression": "text"}


# The characters of a decimal string; float() also reads other digits,
# underscores, padding and the names of infinities and NaN
_DECIMAL_BYTES = b"0123456789+-.eE"


def _decimals(texts: list) -> np.ndarray | None:
    """Floats of a list of finite decimal strings in ASCII, each parsed
    once, else None."""
    if not set(map(type, texts)) <= {str}:
        return None
    try:
        if "".join(texts).encode("ascii").translate(None, _DECIMAL_BYTES):
            return None
    except UnicodeEncodeError:  # a text that is not ASCII
        return None
    try:
        values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
    except ValueError:  # a text that is not a number
        return None
    return values if np.all(np.isfinite(values)) else None


def _check_layout(value, layout, where: str):
    """value with its decimal strings parsed, a list of them as one array;
    DomainError names the first place value departs from layout."""
    if isinstance(layout, dict):
        if not isinstance(value, dict):
            raise DomainError(f"{where} is not a JSON object")
        checked = {}
        for key, sub in layout.items():
            if key not in value:
                raise DomainError(f"{where} has no {key!r} entry")
            checked[key] = _check_layout(value[key], sub, f"{where}.{key}")
        return checked
    if isinstance(layout, list):
        if not isinstance(value, list):
            raise DomainError(f"{where} is not a JSON list")
        # a list of decimals is checked whole; the walk names the first bad place
        if layout[0] is float and (values := _decimals(value)) is not None:
            return values
        return [_check_layout(item, layout[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if layout is float:
        if (values := _decimals([value])) is None:
            raise DomainError(f"{where} is not a finite decimal string")
        return float(values[0])
    if not isinstance(value, layout) or isinstance(value, bool) != (layout is bool):
        raise DomainError(f"{where} is not of JSON type {layout.__name__}")
    return value


def _check_rounds(state) -> None:
    """Raise DomainError naming the first round whose lists disagree
    with k_list, that lacks the (gamma**k + 1)**n coefficients of its
    depth k, or whose depth the cheap part of depth_refusal refuses
    under the state's caps. The exact overlap audit is left to the build."""
    g, n, r = state.params.gamma, state.params.n, state.r
    for key, extra in (("k_warnings", 0), ("coeff", 0), ("residual_norms", 1)):
        if (count := len(getattr(state, key))) != r + extra:
            raise DomainError(f"state.{key} has {count} entries for the {r} rounds of state.k_list")
    for l, (k, coeff) in enumerate(zip(state.k_list, state.coeff)):
        # gamma**k exceeds the coefficient count once k exceeds the count's
        # bit length, so no grid size or ramp is computed for an absurd depth
        if k > len(coeff).bit_length() or len(coeff) != (g**k + 1) ** n:
            raise DomainError(f"state.coeff[{l}] has {len(coeff)} coefficients, "
                              f"not (gamma**k + 1)**n at k = state.k_list[{l}] = {k}")
        if (err := depth_refusal(state, k)) is not None:
            raise DomainError(f"state.k_list[{l}] holds a depth the caps refuse: {err}")


def state_from_json_dict(d: dict) -> DecompositionState:
    _check_layout(d, {"schema": str}, "state")
    if d["schema"] != STATE_SCHEMA:
        raise DomainError(f"unrecognized decomposition schema {d['schema']!r}")
    doc = _check_layout(d, _STATE_LAYOUT, "state")
    provenance = d["target"]["provenance"]
    if provenance["kind"] not in _PROVENANCE_KEY:
        raise DomainError(f"state.target.provenance.kind {provenance['kind']!r} "
                          f"is not one of {sorted(_PROVENANCE_KEY)}")
    _check_layout(provenance, {_PROVENANCE_KEY[provenance["kind"]]: str}, "state.target.provenance")
    params = KstParams.from_json_dict(d["params"])
    target = target_from_provenance(provenance, params.n)
    caps = DecompositionCaps(**{key: d["caps"][key] for key in _STATE_LAYOUT["caps"]})
    state = DecompositionState(
        params=params,
        lambdas=lambda_coeffs(params),
        ev=InnerEvaluator(params),
        target=target,
        caps=caps,
        k_list=tuple(d["k_list"]),
        k_warnings=tuple(d["k_warnings"]),
        coeff=tuple(doc["coeff"]),
        residual_norms=tuple(doc["residual_norms"].tolist()),
        audit=AuditSample.draw(target, caps),
    )
    _check_rounds(state)
    for l in range(state.r):
        check_overreach(state, l)
    return state
