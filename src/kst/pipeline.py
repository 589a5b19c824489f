"""End-to-end execution: pick the iteration count from the target
accuracy, run the decomposition, split the budget between inner and
outer network approximants, assemble, and audit the error budget.

The split follows the proof exactly: with nu the outer Lipschitz
constant, eps_psi = n*eps / (2*(2n+1)^2*nu) and eps_phi = eps/(4*(2n+1)),
which makes ((2n+1)^2/(2n))*nu*eps_psi and (2n+1)*eps_phi both equal
eps/4. At desk scale eps_psi is usually unreachable within the knot
budget; such runs are flagged partial and every error is still measured
and reported honestly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .decompose import (
    DecompositionCaps,
    DecompositionState,
    f_r,
    family_grid,
    init_state,
    iterate,
    lipschitz_report,
    nonzero_rounds,
    phi_on_knots,
)
from .errors import BudgetError, DomainError
from .inner import TRUNC_NUDGE
from .params import KstParams, make_params, to_json
from .relunet import AssembledKst, UnivariateNet, assemble_kst, audit_fractions, build_univariate
from .target import TargetFunction


@dataclass(frozen=True)
class PipelineCaps:
    """Caps of a run; DomainError refuses a negative ``r_cap`` or ``seed``
    and a ``knot_budget`` or ``n_random`` below 1."""

    r_cap: int = 3
    k_max: int = 3
    knot_budget: int = 10**6
    align_inner_knots: bool = True
    n_random: int = 10**4
    seed: int = 0

    def __post_init__(self):
        for name, least in (("r_cap", 0), ("knot_budget", 1), ("n_random", 1), ("seed", 0)):
            if (value := getattr(self, name)) < least:
                raise DomainError(f"{name} must be at least {least}, got {value}")


@dataclass
class PipelineReport:
    eps_target: float
    r_target: int
    r_used: int
    partial_r: bool
    partial_psi: bool
    partial_phi: bool
    nu_r: float
    eps_psi: float
    eps_phi: float
    eps_psi_measured: float
    eps_phi_measured: float
    k_list: list[int]
    k_warnings: list[bool]
    residual_norms: list[float]
    errors_grid: dict[str, float]
    errors_random: dict[str, float]
    errors_overall: dict[str, float]
    W: int
    L: int
    fig3_W: int
    fig3_depth: int
    aggregation_weights: int
    psi_knots: int
    phi_knots: int
    seed: int
    timings: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Serializable form; wall-clock timings are deliberately left
        out so identical runs produce byte-identical files."""
        return to_json({f.name: getattr(self, f.name) for f in fields(self) if f.name != "timings"})


def r_of_epsilon(eta: float, eps: float) -> int:
    """Iteration count ceil(log(2/eps) / log(1/eta))."""
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if not (0.0 < eta < 1.0):
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    q = math.log(2.0 / eps) / math.log(1.0 / eta)
    return max(1, math.ceil(q - 1e-12))


def epsilon_split(params: KstParams, nu_r: float, eps: float) -> dict[str, float]:
    """Accuracy split between the inner and outer approximants."""
    if nu_r <= 0.0:
        raise DomainError("nu_r must be positive")
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    n = params.n
    eps_psi = n * eps / (2.0 * (2 * n + 1) ** 2 * nu_r)
    eps_phi = eps / (4.0 * (2 * n + 1))
    return {"eps_psi": eps_psi, "eps_phi": eps_phi}


# -- network construction ------------------------------------------------------


STAIR_RAMP_WIDTH = 1e-9


def _staircase_inner_knots(
    state: DecompositionState, M: float
) -> tuple[np.ndarray, np.ndarray]:
    """Knot and value arrays realizing the depth-truncated inner
    function on [0, M].

    The decomposition evaluates the inner function truncated at depth
    k_max + 2, which under the shared nudged-floor rule is constant on
    lattice cells and jumps at (i - TRUNC_NUDGE)/gamma**depth. The network
    is flat on each cell with a steep ramp of width STAIR_RAMP_WIDTH just
    below every jump. The index nudge keeps the jumps clear of all
    rational coincidences of audit points, so evaluation points never
    land inside a ramp and the network reproduces the evaluated inner
    function pointwise.
    """
    scale = state.params.gamma**state.k_trunc
    table = state.ev.float_table(state.k_trunc)
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


def build_inner_net(
    state: DecompositionState, eps_psi: float, caps: PipelineCaps
) -> tuple[UnivariateNet, bool]:
    """Inner approximant on [0, 1 + m*a] and its partial flag.

    The reference is the same depth-truncated inner function the
    decomposition evaluates, so the measured error is exactly what the
    assembled network deviates from the approximant by.
    """
    p = state.params
    M = 1.0 + p.m * float(p.a)
    depth = state.k_trunc
    ref = lambda x: state.ev.psi_trunc_vector(np.asarray(x, dtype=float), depth)
    if caps.align_inner_knots:
        knots, values = _staircase_inner_knots(state, M)
        if len(knots) - 1 > caps.knot_budget:
            raise BudgetError(f"staircase knot count {len(knots) - 1} exceeds the knot budget")
        net = build_univariate(ref, M, 0, knots=knots, values=values, audit_factor=4)
    else:
        h = (eps_psi / p.nu) ** (1.0 / p.alpha) if eps_psi > 0 else 0.0
        n_req = math.inf if h == 0.0 else M / h
        N = int(min(n_req, caps.knot_budget)) if math.isfinite(n_req) else caps.knot_budget
        net = build_univariate(ref, M, max(N, 1))
    return net, net.eps_measured > eps_psi


def _corner_knots(state: DecompositionState, j: int, M: float) -> np.ndarray:
    """0, M and the bump corners (Grid.corners) in [0, M] of family j's
    grids at the depths of rounds with a nonzero coefficient: the
    breakpoints of phi_j. Each corner copy of a grid ascends, so the
    copies are merged by one stable sort of their concatenation, which
    runs over sorted runs, and equal neighbours are dropped."""
    pieces = [np.asarray([0.0, M])]
    for k in dict.fromkeys(k for k, _ in nonzero_rounds(state)):
        for corners in family_grid(state, j, k).corners():
            pieces.append(corners[np.searchsorted(corners, 0.0):
                                  np.searchsorted(corners, M, side="right")])
    knots = np.sort(np.concatenate(pieces), kind="stable")
    return knots[np.concatenate(([True], knots[1:] != knots[:-1]))]


def build_outer_nets(
    state: DecompositionState, eps_phi: float, caps: PipelineCaps
) -> tuple[list[UnivariateNet], bool]:
    """One approximant per family, interpolating phi_j at its
    breakpoints: phi_j is a sum of trapezoids, so it is linear between
    them and the net reproduces it up to rounding. phi_on_knots gives
    the knot values and the error at build_univariate's audit points
    (audit factor 4), the same bits as build_univariate over phi_batch,
    reading the points' slots off the knots' and skipping the cells
    where phi_j is exactly flat."""
    p = state.params
    M = float(p.phi_domain_sup)
    nets = []
    for j in range(p.m + 1):
        knots = _corner_knots(state, j, M)
        if len(knots) - 1 > caps.knot_budget:
            raise BudgetError(f"breakpoint count {len(knots) - 1} exceeds the knot budget")
        values, eps = phi_on_knots(state, j, knots, audit_fractions(len(knots) - 1, 4))
        nets.append(UnivariateNet(knots=knots, values=values, domain=M, eps_measured=eps))
    return nets, any(net.eps_measured > eps_phi for net in nets)


# -- end-to-end runs -----------------------------------------------------------


def assemble_from_state(
    state: DecompositionState, eps: float, caps: PipelineCaps | None = None
) -> tuple[AssembledKst, PipelineReport]:
    """Build and audit the network for an existing decomposition."""
    caps = PipelineCaps() if caps is None else caps
    p = state.params
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    if state.r >= 1:
        nu = lipschitz_report(state)["nu_r"]
    else:
        nu = 0.0
    if nu > 0.0:
        split = epsilon_split(p, nu, eps)
        eps_psi, eps_phi = split["eps_psi"], split["eps_phi"]
    else:
        # degenerate decomposition (zero residual everywhere)
        eps_psi = eps_phi = float("inf")
    psi_net, partial_psi = build_inner_net(state, eps_psi, caps)
    timings["build_psi"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    phi_nets, partial_phi = build_outer_nets(state, eps_phi, caps)
    timings["build_phi"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    asm = assemble_kst(psi_net, phi_nets, p, state.lambdas)
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    f_mesh, fr_mesh = state.audit.f_mesh, state.fr_mesh
    net_mesh = asm.eval_columns(state.audit.mesh).ravel()

    rng = np.random.Generator(np.random.PCG64(caps.seed))
    rand_pts = rng.random((caps.n_random, p.n))
    f_rand = state.target.eval_batch(rand_pts)
    fr_rand = f_r(state, rand_pts.T)
    net_rand = asm.eval_batch(rand_pts)

    def sups(f, fr, net):
        return {
            "f_minus_fr": float(np.max(np.abs(f - fr))),
            "fr_minus_net": float(np.max(np.abs(fr - net))),
            "f_minus_net": float(np.max(np.abs(f - net))),
        }

    errors_grid = sups(f_mesh.ravel(), fr_mesh.ravel(), net_mesh)
    errors_random = sups(f_rand, fr_rand, net_rand)
    errors_overall = {
        k: max(errors_grid[k], errors_random[k]) for k in errors_grid
    }
    timings["measure"] = time.perf_counter() - t0

    r_target = r_of_epsilon(p.eta, eps)
    report = PipelineReport(
        eps_target=eps,
        r_target=r_target,
        r_used=state.r,
        partial_r=state.r < r_target,
        partial_psi=partial_psi,
        partial_phi=partial_phi,
        nu_r=nu,
        eps_psi=eps_psi,
        eps_phi=eps_phi,
        eps_psi_measured=psi_net.eps_measured,
        eps_phi_measured=max(net.eps_measured for net in phi_nets),
        k_list=list(state.k_list),
        k_warnings=list(state.k_warnings),
        residual_norms=list(state.residual_norms),
        errors_grid=errors_grid,
        errors_random=errors_random,
        errors_overall=errors_overall,
        W=asm.W,
        L=asm.L,
        fig3_W=asm.fig3_W,
        fig3_depth=asm.fig3_depth,
        aggregation_weights=asm.aggregation_weights,
        psi_knots=psi_net.n_segments,
        phi_knots=phi_nets[0].n_segments,
        seed=caps.seed,
        timings=timings,
    )
    return asm, report


def run_pipeline(
    f: TargetFunction,
    eps: float,
    caps: PipelineCaps | None = None,
    params: KstParams | None = None,
) -> tuple[AssembledKst, PipelineReport, DecompositionState]:
    """Decompose f to min(r(eps), r_cap) iterations, build the network,
    and measure all three errors."""
    caps = PipelineCaps() if caps is None else caps
    params = make_params(f.dim) if params is None else params
    if f.sup_norm_bound > 1.0 + 1e-12:
        raise DomainError("target sup-norm bound must be at most 1")
    r_target = r_of_epsilon(params.eta, eps)
    r_used = min(r_target, caps.r_cap)
    state = init_state(
        f,
        params,
        DecompositionCaps(
            k_max=caps.k_max,
            n_random=1000,
            seed=caps.seed,
        ),
    )
    t0 = time.perf_counter()
    for _ in range(r_used):
        state = iterate(state)
    # only a further round reads the sweep values, and without them it
    # computes the same bits; the outer-net build then runs without them
    state.phi_sweep = None
    decompose_time = time.perf_counter() - t0
    asm, report = assemble_from_state(state, eps, caps)
    report.timings["decompose"] = decompose_time
    return asm, report, state

