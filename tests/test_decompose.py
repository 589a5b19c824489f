import json
import math
import random
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kst import decompose, pipeline
from kst.bumps import b_k
from kst.decompose import (
    DecompositionCaps,
    Grid,
    choose_k_r,
    f_r,
    family_grid,
    init_state,
    iterate,
    lipschitz_report,
    phi_batch,
    residual_modulus,
    state_from_json_dict,
    state_json_text,
)
from kst.errors import BudgetError, ConstraintViolation, DomainError
from kst.inner import InnerEvaluator
from kst.params import beta, f17, images, make_params
from kst.target import builtin_target, mesh_points
from oracles import (
    active_bump_counts,
    audit_grid,
    dense_phi_sum,
    grid_shift,
    two_candidate_phi,
    unique_corner_knots,
    whole_mesh_modulus,
)


@pytest.fixture(scope="module")
def product_r1():
    state = init_state(builtin_target("product", 2))
    return iterate(state)


@pytest.fixture(scope="module")
def product_r2(product_r1):
    return iterate(product_r1)


@pytest.fixture(scope="module")
def product_r3(product_r2):
    return iterate(product_r2)


@pytest.fixture(scope="module")
def zero_state():
    return init_state(builtin_target("zero", 2))


@pytest.fixture(scope="module")
def one_state():
    return init_state(builtin_target("one", 2))


def force_depth(monkeypatch, k):
    """Make iterate build depth k, as if choose_k_r had chosen it."""
    monkeypatch.setattr(decompose, "choose_k_r", lambda state: (k, False))


@contextmanager
def phi_points():
    """A list of the point counts of the phi_batch calls made inside."""
    seen = []
    original = decompose.phi_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "phi_batch",
                   lambda state, j, y, *rest: seen.append(len(y)) or original(state, j, y, *rest))
        yield seen


def full_sweep_points(state, k: int) -> int:
    """The points a whole-mesh residual_modulus sweep at step gamma**-k
    hands phi_batch: every family on each of the n shifted meshes."""
    p, axis = state.params, state.audit.axis
    rows = int(np.sum(axis + float(p.gamma) ** -k <= 1.0 + 1e-12))
    return (p.m + 1) * p.n * rows * len(axis) ** (p.n - 1)


def family_images(state, columns) -> list[np.ndarray]:
    """Each family's flat points at which f_r reads phi_j at the
    coordinate columns, taken from images."""
    k = state.k_trunc
    return [y.ravel() for y in images(lambda u: state.ev.psi_trunc_vector(u, k),
                                      state.lambdas.floats, float(state.params.a), columns,
                                      state.params.m + 1)]


def sweep_mesh(state, k: int) -> tuple[np.ndarray, ...]:
    """The depth-k sweep mesh of iterate as coordinate columns."""
    g = state.params.gamma
    return np.ix_(*[np.arange(g**k + 1) / g**k] * state.params.n)


# The states of TestResidualModulus and TestCarriedValues, per (target,
# gamma, audit resolution, k_max): entry r is the state after r rounds
_chains: dict[tuple, list] = {}


def chain_state(name: str, gamma: int, resolution: int, r: int, k_max: int = 3):
    chain = _chains.setdefault((name, gamma, resolution, k_max), [])
    if not chain:
        caps = DecompositionCaps(k_max=k_max, audit_resolution=resolution, n_random=20, seed=3)
        chain.append(init_state(builtin_target(name, 2), make_params(2, gamma=gamma), caps))
    while len(chain) <= r:
        chain.append(iterate(chain[-1]))
    return chain[r]


class TestChooseK:
    def test_zero_residual_gives_one(self, zero_state):
        assert choose_k_r(zero_state) == (1, False)

    def test_product_picks_two(self):
        state = init_state(builtin_target("product", 2))
        k, warned = choose_k_r(state)
        assert k == 2
        assert not warned

    def test_overlapping_depth_one_skipped(self, one_state):
        # a constant residual passes the oscillation test at depth 1,
        # whose bump supports overlap in exact arithmetic
        assert choose_k_r(one_state) == (2, False)

    def test_warned_when_nothing_qualifies(self, product_r1):
        # the layer-1 teeth make the residual oscillate at every depth
        k, warned = choose_k_r(product_r1)
        assert k == product_r1.caps.k_max
        assert warned

    def test_refused_depths_not_swept(self, monkeypatch):
        # depths 2 and 3 have grids of 37**2 and 217**2 points, above the
        # budget: only depth 1 is swept, and nothing qualifies
        caps = DecompositionCaps(grid_budget=1000, audit_resolution=21, n_random=10)
        state = init_state(builtin_target("product", 2), caps=caps)
        steps = []
        original = decompose.residual_modulus
        monkeypatch.setattr(decompose, "residual_modulus",
                            lambda st, h, bound=math.inf: steps.append(h) or original(st, h, bound))
        assert choose_k_r(state) == (3, True)
        assert steps == [1 / 6]
        with pytest.raises(BudgetError, match="depth-3 grid size"):
            iterate(state)

    def test_oscillation_at_the_bound_passes(self, monkeypatch):
        # a depth whose oscillation equals delta times the norm qualifies;
        # depth 1 is then left out by its audit alone
        monkeypatch.setattr(decompose, "residual_modulus", lambda st, h, bound=math.inf: bound)
        assert choose_k_r(init_state(builtin_target("product", 2))) == (2, False)

    def test_failing_depths_stop_early(self, product_r1):
        # every depth of the second round fails its test: each sweep
        # stops at its first row block above delta times the norm, far
        # short of the whole shifted meshes
        tested = [k for k in range(1, product_r1.caps.k_max + 1)
                  if decompose.depth_refusal(product_r1, k) is None]
        full = sum(full_sweep_points(product_r1, k) for k in tested)
        with phi_points() as seen:
            assert choose_k_r(product_r1) == (product_r1.caps.k_max, True)
        assert 0 < sum(seen) < full / 4


class TestResidualModulus:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.sampled_from(["zero", "one", "product", "gaussian"]), st.sampled_from([6, 8]),
           st.sampled_from([2, 5, 9, 17]), st.integers(0, 2), st.integers(1, 3),
           st.floats(0.0, 2.0))
    def test_blocked_sweep_equals_whole_mesh(self, name, gamma, resolution, r, k, scale):
        # without a bound the value is the whole sweep's, bit for bit and
        # at the same cost; with a bound b it is that value when it is at
        # most b (b equal to it included), and lies in (b, value] above
        state = chain_state(name, gamma, resolution, r)
        h = float(gamma) ** -k
        want = whole_mesh_modulus(state, h)
        with phi_points() as full:
            assert residual_modulus(state, h) == want
        assert sum(full) == full_sweep_points(state, k)
        for bound in (want, scale * want, 0.0):
            with phi_points() as seen:
                got = residual_modulus(state, h, bound)
            if want <= bound:
                assert got == want and sum(seen) == sum(full)
            else:
                assert bound < got <= want and sum(seen) <= sum(full)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose, "residual_modulus",
                       lambda st, h, bound=math.inf: whole_mesh_modulus(st, h))
            oracle = choose_k_r(state)
        assert choose_k_r(state) == oracle


class TestCarriedValues:
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(st.sampled_from(["zero", "one", "product", "gaussian"]), st.sampled_from([6, 8]),
           st.integers(2, 17), st.integers(2, 3), st.integers(0, 3))
    @example("product", 6, 9, 3, 1)  # depths 2, 3: the sweep mesh changes
    @example("gaussian", 8, 5, 3, 2)  # depths 2, 3, 3: the sweep values are carried on
    def test_carried_values_are_from_scratch(self, name, gamma, resolution, k_max, r):
        # the values the state after round r + 1 carries on the audit
        # mesh and points, and on its sweep mesh those of the state
        # before it, are phi_batch's and f_r's computed from scratch, bit
        # for bit; the state before it, read back from its file, computes
        # them from scratch and iterates to the same next state
        state = chain_state(name, gamma, resolution, r, k_max)
        nxt = chain_state(name, gamma, resolution, r + 1, k_max)
        audit = nxt.audit
        for values, columns in ((nxt.phi_mesh, audit.mesh), (nxt.phi_points, audit.points.T)):
            for j, y in enumerate(family_images(nxt, columns)):
                assert values[j].tobytes() == phi_batch(nxt, j, y).tobytes()
        assert nxt.fr_mesh.tobytes() == f_r(nxt, audit.mesh).tobytes()
        assert nxt.fr_points.tobytes() == f_r(nxt, audit.points.T).tobytes()
        sweep = sweep_mesh(state, nxt.k_list[-1])
        for j, y in enumerate(family_images(state, sweep)):
            assert nxt.phi_sweep[j].tobytes() == phi_batch(state, j, y).tobytes()
        loaded = state_from_json_dict(json.loads(state_json_text(state)))
        assert loaded.phi_sweep is None
        assert state_json_text(iterate(loaded)) == state_json_text(nxt)

    def test_a_round_costs_one_grid(self, product_r2, monkeypatch):
        # the third round of product repeats depth 3 (depths 2, 3, 3):
        # the audit mesh, the audit points and the sweep mesh are each
        # evaluated on the depth-3 grid once per family, one shape per
        # point and one per point in a shared slot, where the same round
        # from a state read from its file evaluates both grids
        k = choose_k_r(product_r2)
        assert product_r2.k_list + (k[0],) == (2, 3, 3)
        audit = product_r2.audit
        one_grid = 0
        for columns in (sweep_mesh(product_r2, 3), audit.mesh, audit.points.T):
            for j, y in enumerate(family_images(product_r2, columns)):
                grid = family_grid(product_r2, j, 3)
                slot = np.maximum(np.searchsorted(grid.lo, y, side="right") - 1, 0)
                one_grid += y.size + np.count_nonzero(grid.shared[slot])
        seen, guessed = [], []
        original, confirm = decompose._shape, decompose._confirm
        monkeypatch.setattr(decompose, "_shape", lambda grid, y, c: seen.append(len(y))
                            or original(grid, y, c))
        # the sweep mesh's slots are guessed from the grid vectors' bumps
        monkeypatch.setattr(decompose, "_confirm", lambda grid, yb, guess: guessed.append(len(yb))
                            or confirm(grid, yb, guess))
        monkeypatch.setattr(decompose, "choose_k_r", lambda state: k)
        with pytest.MonkeyPatch.context() as mp:
            # the second round evaluated the target on the depth-3 sweep mesh
            mp.setattr(decompose, "target_on_mesh", lambda target, axes: pytest.fail("again"))
            nxt = iterate(product_r2)
        assert sum(seen) == one_grid
        assert sum(guessed) == (product_r2.params.m + 1) * 217**2
        seen.clear()
        loaded = state_from_json_dict(json.loads(state_json_text(product_r2)))
        assert state_json_text(iterate(loaded)) == state_json_text(nxt)
        assert sum(seen) > 2 * one_grid

    def test_target_once_per_mesh(self, monkeypatch):
        # over a decomposition the target is evaluated once on the audit
        # mesh, once on each depth's sweep mesh and once on each shifted
        # mesh of the depth test, though each round sweeps and tests again
        key = lambda axes: tuple(np.ravel(ax).tobytes() for ax in axes)
        asked, meshes = [], []
        f_on, on_mesh = decompose.AuditSample.f_on, decompose.target_on_mesh
        monkeypatch.setattr(decompose.AuditSample, "f_on",
                            lambda audit, axes: asked.append(key(axes)) or f_on(audit, axes))
        monkeypatch.setattr(decompose, "target_on_mesh",
                            lambda target, axes: meshes.append(key(axes)) or on_mesh(target, axes))
        state = init_state(builtin_target("product", 2))
        for _ in range(3):
            state = iterate(state)
        assert state.k_list == (2, 3, 3)
        assert len(meshes) == len(set(meshes)) == len(set(asked)) < len(asked)
        for k in (2, 3):
            assert asked.count(key(sweep_mesh(state, k))) == state.k_list.count(k)
            assert key(sweep_mesh(state, k)) in meshes


class TestIterate:
    def test_zero_target_layers_are_null(self, zero_state):
        s1 = iterate(zero_state)
        assert s1.residual_norms == (0.0, 0.0)
        assert s1.k_list == (1,)
        assert len(s1.coeff) == 1
        assert np.all(s1.coeff[0] == 0.0)

    def test_forced_overlapping_depth_refused(self, one_state, monkeypatch):
        force_depth(monkeypatch, 1)
        with pytest.raises(ConstraintViolation, match="depth 1"):
            iterate(one_state)

    def test_layer_shapes(self, product_r1):
        p = product_r1.params
        k = product_r1.k_list[0]
        expected = (p.gamma**k + 1) ** p.n
        assert product_r1.coeff[0].size == expected
        for j in range(p.m + 1):
            grid = family_grid(product_r1, j, k)
            assert grid.xi.size == expected
            assert np.all(np.diff(grid.xi) >= 0)
            assert np.array_equal(np.sort(grid.order), np.arange(expected))

    def test_first_contraction(self, product_r1):
        p = product_r1.params
        assert product_r1.residual_norms[0] == 1.0
        assert product_r1.residual_norms[1] <= p.eta

    def test_two_iterations_contract(self):
        state = init_state(builtin_target("gaussian", 2))
        s2 = iterate(iterate(state))
        eta = s2.params.eta
        assert s2.residual_norms[1] <= eta * 1.0
        assert s2.residual_norms[2] <= eta**2 * 1.0

    def test_budget_guard(self, zero_state, monkeypatch):
        small = DecompositionCaps(grid_budget=10)
        state = init_state(builtin_target("zero", 2), caps=small)
        force_depth(monkeypatch, 2)
        with pytest.raises(BudgetError):
            iterate(state)

    @pytest.mark.parametrize(
        "n, k, grid_budget",
        [(2, 4, 10**6), (2, 4, 10**7), (2, 4, 10**12), (3, 3, 10**6), (3, 3, 10**9)],
    )
    def test_float_cliff_refused(self, monkeypatch, n, k, grid_budget):
        # At these depths the ramp gamma**-beta_n(k+1) and the plateau lie
        # below the float spacing at the top of the outer domain (7.5e-25
        # and 3.5e-24 at n=2, k=4), so every bump would collapse and the
        # residual would stay where it was. k_max is the depth, so the
        # rule refuses it on the spacing, before the grid budget is
        # consulted, whatever that budget is; the depth below is built.
        caps = DecompositionCaps(k_max=k, grid_budget=grid_budget, audit_resolution=11,
                                 n_random=10)
        state = init_state(builtin_target("gaussian", n), caps=caps)
        err = decompose.depth_refusal(state, k)
        assert isinstance(err, ConstraintViolation)
        assert "float spacing" in str(err) and f"depth {k}" in str(err)
        assert decompose.depth_refusal(state, k - 1) is None
        force_depth(monkeypatch, k)
        with pytest.raises(ConstraintViolation, match=f"depth {k}"):
            iterate(state)

    def test_slope_past_the_float_range_refused_on_its_ramp(self, product_r1):
        # the depth-8 slope 6**511 at n=2 has no float (a live state at
        # these caps fails on its inner table first, but one at n=4,
        # gamma 10, k_max 4 has the slope 10**341); the depth is refused
        # on its ramp like any other, with no OverflowError
        state = replace(product_r1, caps=replace(product_r1.caps, k_max=8))
        assert "float spacing" in str(decompose.depth_refusal(state, 8))

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_caps_refuse_k_max_below_one(self, k_max):
        with pytest.raises(DomainError, match=f"k_max must be at least 1, got {k_max}"):
            DecompositionCaps(k_max=k_max)

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_caps_refuse_audit_resolution_below_one(self, resolution):
        with pytest.raises(DomainError,
                           match=f"audit_resolution must be at least 1, got {resolution}"):
            DecompositionCaps(audit_resolution=resolution)

    def test_depth_above_k_max_refused(self, product_r1, monkeypatch):
        k = product_r1.caps.k_max + 1
        assert "k_max" in str(decompose.depth_refusal(product_r1, k))
        force_depth(monkeypatch, k)
        with pytest.raises(ConstraintViolation, match="k <= k_max"):
            iterate(product_r1)

    def test_layer_coefficients_scale(self, product_r1):
        p = product_r1.params
        norm0 = product_r1.residual_norms[0]
        assert np.max(np.abs(product_r1.coeff[0])) <= norm0 / (p.m + 1) + 1e-12


def phi_at(state, j: int, y: float) -> float:
    return float(phi_batch(state, j, np.asarray([y]))[0])


@st.composite
def bump_grids(draw, k, shapes=False):
    """A depth-k grid of a few bumps spaced at 0.5 to 2 support widths,
    so that neighbours may overlap or touch but none reaches past its
    next one, over grid vectors in a drawn order. With shapes, the slope
    may be a power of ten up to 1e14 with a plateau of 4 to 10**4 ramps,
    whose corners lie a few ulps off the ramp ends as at depth 3, and the
    ramp may be 1/slope stretched by up to 5% either way, whose corner
    discrepancies are as large."""
    slope = float(draw(st.integers(2, 64)))
    plateau = draw(st.floats(1e-3, 0.5))
    if shapes and draw(st.booleans()):
        slope = 10.0 ** draw(st.integers(3, 14))
        plateau = draw(st.floats(4.0, 1e4)) / slope
    ramp = 1.0 / slope
    if shapes and draw(st.booleans()):
        ramp *= draw(st.floats(0.95, 1.05))
    width = plateau + 2 * ramp
    size = draw(st.integers(3, 12))
    gaps = draw(st.lists(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.5, 2.0)),
                         min_size=size - 1, max_size=size - 1))
    xi = draw(st.floats(0.0, 1.0)) + np.concatenate(([0.0], np.cumsum(np.multiply(gaps, width))))
    order = np.asarray(draw(st.permutations(range(size))))
    return Grid(k=k, slope=slope, plateau=plateau, ramp=ramp, xi=xi, order=order)


@st.composite
def bump_rounds(draw, depths=None, shapes=False):
    """Rounds at the given depths (1 to 3 rounds at depths 1, 2, ... when
    None) on grids of bump_grids, one per depth, with coefficient vectors
    with zeros among them: the grids by depth and a stand-in state."""
    depths = tuple(range(1, draw(st.integers(1, 3)) + 1)) if depths is None else depths
    grids = {k: draw(bump_grids(k, shapes)) for k in sorted(set(depths))}
    coeff = tuple(np.asarray(draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                                            min_size=grids[k].xi.size,
                                            max_size=grids[k].xi.size)))
                  for k in depths)
    # two gaps of half a width may round to an overreach
    assume(not any(np.any(c[grids[k].reach]) for k, c in zip(depths, coeff)))
    return grids, SimpleNamespace(k_list=depths, coeff=coeff)


def past_corners(grids) -> float:
    """A domain end M one past the last corner of the grids."""
    return max(float(c.max()) for g in grids.values() for c in g.corners()) + 1.0


@contextmanager
def on_grids(grids):
    """family_grid, for phi_batch and the oracles, gives grids[k] at depth k."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "family_grid", lambda state, j, k: grids[k])
        yield


class TestEvaluatePhi:
    def test_empty_state_is_zero(self, zero_state):
        assert phi_at(zero_state, 0, 0.5) == 0.0

    def test_outside_supports_is_zero(self, product_r1):
        grid = family_grid(product_r1, 0, product_r1.k_list[0])
        y = float(grid.xi[0] + grid.plateau + 2 * grid.ramp)
        between = 0.5 * (y + float(grid.xi[1] - grid.ramp))
        assert phi_at(product_r1, 0, between) == 0.0

    def test_plateau_midpoint_returns_coefficient(self, product_r1):
        grid = family_grid(product_r1, 2, product_r1.k_list[0])
        idx = 100
        y = float(grid.xi[idx]) + grid.plateau / 2
        assert phi_at(product_r1, 2, y) == pytest.approx(
            float(product_r1.coeff[0][grid.order[idx]]), abs=1e-15
        )

    def test_sparse_equals_dense(self, product_r1):
        rng = random.Random(31)
        sup = float(product_r1.params.phi_domain_sup)
        for _ in range(1000):
            j = rng.randrange(5)
            y = rng.uniform(0.0, sup * 0.999)
            sparse = phi_at(product_r1, j, y)
            dense = dense_phi_sum(product_r1, j, y)
            assert sparse == pytest.approx(dense, abs=1e-12)

    def test_batch_equals_dense_constant_target(self, one_state):
        # every bump carries the same coefficient, so a support missed
        # by the candidate search would show at once; probe the ramps
        # and plateaus of a seeded sample of bumps
        s1 = iterate(one_state)
        grid = family_grid(s1, 0, s1.k_list[0])
        rng = np.random.default_rng(59)
        xi = grid.xi[rng.choice(grid.xi.size, 150, replace=False)]
        ys = np.concatenate(
            [xi - grid.ramp / 2, xi + grid.plateau / 2, xi + grid.plateau + grid.ramp / 2]
        )
        batch = phi_batch(s1, 0, ys)
        for y, got in zip(ys, batch):
            assert got == pytest.approx(dense_phi_sum(s1, 0, float(y)), abs=1e-12)

    def test_batch_matches_single(self, product_r1, monkeypatch):
        # random points, checked against the sum over every bump, and
        # with them the ends and middle of every overlap of two supports,
        # checked bit for bit against the earlier two-candidate
        # evaluator; a small odd block size spreads them over many blocks
        monkeypatch.setattr(decompose, "PHI_BLOCK", 37)
        rng = random.Random(37)
        ys = np.asarray([rng.uniform(0.0, 2.0) for _ in range(500)])
        batch = phi_batch(product_r1, 1, ys)
        for y, got in zip(ys, batch):
            assert got == pytest.approx(dense_phi_sum(product_r1, 1, float(y)), abs=1e-13)
        grid = family_grid(product_r1, 1, product_r1.k_list[0])
        two = np.flatnonzero(grid.shared)
        ys = np.concatenate([ys, grid.lo[two], grid.hi[two - 1],
                             0.5 * (grid.lo[two] + grid.hi[two - 1])])
        rng.shuffle(ys)
        assert np.array_equal(phi_batch(product_r1, 1, ys),
                              two_candidate_phi(product_r1, 1, ys))

    def test_layer_locality(self, product_r1):
        # interior supports are disjoint; a top-column bump may graze
        # one regular neighbour, so at most two bumps are ever active
        rng = random.Random(41)
        sup = float(product_r1.params.phi_domain_sup)
        doubles = 0
        for _ in range(500):
            counts = active_bump_counts(product_r1, rng.randrange(5), rng.uniform(0, sup))
            assert all(c <= 2 for c in counts)
            doubles += sum(c == 2 for c in counts)
        assert doubles <= 10

    def test_boundedness(self, product_r1):
        p = product_r1.params
        cap = sum(
            product_r1.residual_norms[ell] for ell in range(product_r1.r)
        ) / (p.m + 1)
        rng = random.Random(43)
        sup = float(p.phi_domain_sup)
        for _ in range(500):
            y = rng.uniform(0.0, sup * 0.999)
            assert abs(phi_at(product_r1, 0, y)) <= cap + 1e-12

    @settings(derandomize=True, deadline=None)
    @given(bump_rounds(), st.data())
    def test_batch_equals_dense_random_layers(self, rounds, data):
        # points on every support's ends, ramps and plateau, and
        # between supports, checked against the sum over all bumps
        grids, state = rounds
        ys = np.concatenate([
            np.concatenate([g.lo, g.lo + g.ramp / 3, g.xi, g.xi + g.plateau / 2, g.hi - g.ramp,
                            g.hi - g.ramp / 3, g.hi])
            for g in grids.values()
        ] + [data.draw(st.lists(st.floats(-0.5, 30.0), max_size=20))])
        with on_grids(grids):
            for y, got in zip(ys, phi_batch(state, 0, ys)):
                assert got == pytest.approx(dense_phi_sum(state, 0, float(y)), abs=1e-12)

    @pytest.mark.parametrize("name", ["product", "gaussian", "one"])
    def test_blocks_match_two_candidates_bitwise(self, name, monkeypatch):
        # an odd block size puts block boundaries between the points of
        # every kind, including those that take the predecessor bump
        state = init_state(builtin_target(name, 2))
        for _ in range(3):
            state = iterate(state)
        monkeypatch.setattr(decompose, "PHI_BLOCK", 97)
        rng = np.random.default_rng(61)
        sup = float(state.params.phi_domain_sup)
        for j in range(state.params.m + 1):
            pieces = [np.linspace(0.0, sup, 4001), rng.uniform(0.0, sup, 2000)]
            for k in state.k_list:
                grid = family_grid(state, j, k)
                two = np.flatnonzero(grid.shared)
                pieces += [grid.lo[two], grid.hi[two - 1],
                           0.5 * (grid.lo[two] + grid.hi[two - 1]), grid.lo[:50]]
            ys = np.concatenate(pieces)
            for y in (ys, np.sort(ys)):
                assert phi_batch(state, j, y).tobytes() == two_candidate_phi(state, j, y).tobytes()

    @settings(derandomize=True, deadline=None)
    @given(bump_rounds(), st.data())
    def test_ascending_blocks_match_two_candidates(self, rounds, data):
        # sorted points with repeats, on every support end, below the
        # first and above the last; blocks of 1 to 7 points, the last of
        # one point, the second block reversed so that an ascending
        # block follows a descending one, and NaNs among the points: the
        # searched slots of every block give the oracles' values
        grids, state = rounds
        ends = np.concatenate([np.concatenate([g.lo, g.hi]) for g in grids.values()])
        marks = np.concatenate([ends, [ends.min() - 1.0, ends.max() + 1.0]])
        block = data.draw(st.integers(1, 7))
        picks = data.draw(st.lists(st.one_of(st.sampled_from(marks.tolist()),
                                             st.floats(-0.5, 30.0)),
                                   min_size=2 * block + 1, max_size=8 * block + 1))
        picks += picks[: data.draw(st.integers(0, len(picks)))]
        ys = np.sort(picks)[: len(picks) - (len(picks) - 1) % block]
        ys[block : 2 * block] = ys[block : 2 * block][::-1].copy()
        at = data.draw(st.lists(st.integers(0, len(ys)), max_size=3))
        ys = np.insert(ys, sorted(at), np.nan)
        # the NaNs shift the blocks; trim again so the last block is one point
        ys = ys[: len(ys) - (len(ys) - 1) % block]
        with on_grids(grids):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(decompose, "PHI_BLOCK", block)
                got = phi_batch(state, 0, ys)
            assert got.tobytes() == two_candidate_phi(state, 0, ys).tobytes()
            for y, value in zip(ys, got):
                if not math.isnan(y):
                    assert value == pytest.approx(dense_phi_sum(state, 0, float(y)), abs=1e-12)

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=30),
           st.lists(st.integers(-2, 22), min_size=1, max_size=40))
    def test_ascending_slots_equal_search(self, starts, points):
        # repeated starts, and points on them, below and above them: a
        # point on a start takes the last of the equal starts
        lo = np.sort(np.asarray(starts, dtype=float) / 4)
        yb = np.sort(np.asarray(points, dtype=float) / 4)
        assert np.array_equal(decompose._ascending_slots(lo, yb),
                              np.maximum(np.searchsorted(lo, yb, side="right") - 1, 0))

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=30),
           st.lists(st.one_of(st.integers(-2, 22), st.just(None)), min_size=1, max_size=40),
           st.data())
    def test_confirmed_slots_equal_search(self, starts, points, data):
        # any guess, right or wrong, of each point's slot among repeated
        # starts gives the searched slot, for points on and off the
        # starts, below and above them, and NaN
        lo = np.sort(np.asarray(starts, dtype=float) / 4)
        yb = np.asarray([math.nan if p is None else p / 4 for p in points])
        guess = np.asarray(data.draw(st.lists(st.integers(0, lo.size - 1),
                                              min_size=yb.size, max_size=yb.size)))
        grid = SimpleNamespace(lo=lo)
        assert np.array_equal(decompose._confirm(grid, yb, guess),
                              decompose._locate(grid, yb))

    @settings(derandomize=True, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 3)]), st.data())
    def test_shared_grids_match_two_candidates(self, depths, data):
        # rounds of one depth share one grid object, as family_grid gives
        # it: each block locates its points once per grid, and the sums
        # are those of every round on its own. Points on every support
        # end and shared slot, first ascending, then shuffled with NaNs.
        grids, state = data.draw(bump_rounds(depths))
        marks = []
        for g in grids.values():
            two = np.flatnonzero(g.shared)
            marks += [g.lo, g.hi, g.xi + g.plateau / 2, g.lo + g.ramp / 3,
                      0.5 * (g.lo[two] + g.hi[two - 1])]
        marks = np.sort(np.concatenate(marks))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shuffled = rng.permutation(np.concatenate([marks, np.full(3, np.nan)]))
        ys = np.concatenate([marks, shuffled])
        block = data.draw(st.integers(2, 7))
        located = []

        def counted(grid, yb, locate=decompose._locate):
            located.append(grid)
            return locate(grid, yb)

        with on_grids(grids):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(decompose, "PHI_BLOCK", block)
                mp.setattr(decompose, "_locate", counted)
                got = phi_batch(state, 0, ys)
            blocks = -(-ys.size // block)
            assert len(located) == blocks * len(grids)
            assert set(located) == set(grids.values())
            assert got.tobytes() == two_candidate_phi(state, 0, ys).tobytes()
            for y, value in zip(ys, got):
                if not math.isnan(y):
                    assert value == pytest.approx(dense_phi_sum(state, 0, float(y)), abs=1e-12)

    def test_outer_nets_evaluate_only_the_knots(self, product_r3, monkeypatch):
        # build_outer_nets evaluates phi_j block by block at the knots and
        # nowhere else, with two_candidate_phi's bits, for the
        # breakpoint-knot nets of an r=3 product state. Each net's error is
        # outer_interpolant's bound, at least the deviation from the oracle
        # over audit_grid(net.knots, 4), the sample that it replaces
        state = product_r3
        calls = []

        def keep(out, rounds, grids, y, slots, add=decompose._add_rounds):
            add(out, rounds, grids, y, slots)
            calls.append((tuple(grids.values()), y.copy(), out.copy()))

        monkeypatch.setattr(decompose, "_add_rounds", keep)
        nu = lipschitz_report(state)["nu_r"]
        eps_phi = pipeline.epsilon_split(state.params, nu, 0.25)["eps_phi"]
        nets, partial = pipeline.build_outer_nets(state, eps_phi, pipeline.PipelineCaps())
        monkeypatch.undo()
        assert not partial
        k = state.k_list[-1]
        for j, net in enumerate(nets):
            mine = [(y, v) for grids, y, v in calls if family_grid(state, j, k) in grids]
            ys = np.concatenate([y for y, _ in mine])
            assert ys.tobytes() == net.knots.tobytes()
            assert np.concatenate([v for _, v in mine]).tobytes() == net.values.tobytes() == \
                two_candidate_phi(state, j, ys).tobytes()
            grid, factor = audit_grid(net.knots, 4)
            assert factor == 4 and grid.size > 500_000
            deviation = np.abs(two_candidate_phi(state, j, grid) - net.eval(grid))
            assert net.eps_measured == decompose.outer_interpolant(state, j, net.domain, 10**6)[2]
            assert deviation.max() <= net.eps_measured <= eps_phi / 100

    @settings(derandomize=True, deadline=None)
    @given(bump_rounds(shapes=True), st.data())
    def test_knot_values_equal_phi_batch(self, rounds, data):
        # in blocks of a drawn size, outer_interpolant's knots are the
        # oracle's np.unique corner knots, the corners below 0 cut, and
        # its values phi_batch's bits at every knot
        grids, state = rounds
        M = past_corners(grids)
        with on_grids(grids):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(decompose, "PHI_BLOCK", data.draw(st.integers(1, 40)))
                knots, values, _ = decompose.outer_interpolant(state, 0, M, 10**6)
            assert knots.tobytes() == unique_corner_knots(state, 0, M).tobytes()
            assert values.tobytes() == phi_batch(state, 0, knots).tobytes()

    @settings(derandomize=True, deadline=None)
    @given(bump_grids(2, shapes=True))
    def test_corner_error_covers_the_exact_discrepancy(self, grid):
        # Grid.corner_error gives, per bump, the largest discrepancy of
        # its float corners, taken in exact rationals, plus twice the
        # rounding allowance rho = 4u(slope * (hi - lo) + 2) and 2u, which
        # the bound's argument needs, and exceeds that by at most rho + u,
        # the float evaluation's own error
        u = Fraction(1, 2**53)
        slope, plateau = Fraction(grid.slope), Fraction(grid.plateau)
        lo, xi, top, hi = (list(map(Fraction, c.tolist())) for c in grid.corners())
        for b, got in enumerate(grid.corner_error().tolist()):
            exact = max(abs(slope * (lo[b] - xi[b]) + 1), abs(slope * (top[b] - xi[b] - plateau)),
                        abs(1 - slope * (hi[b] - xi[b] - plateau)))
            rho = 4 * u * (slope * (hi[b] - lo[b]) + 2)
            assert exact + 2 * rho + 2 * u <= Fraction(got) <= exact + 4 * rho + 4 * u

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.sampled_from([(1,), (2, 2), (1, 2), (2, 1, 2), (1, 2, 3), (3, 3, 1)]), st.data())
    def test_error_bound_covers_the_dense_deviation(self, depths, data):
        # drawn rounds, a depth repeated or not, on grids with shared
        # slots, steep ramps and stretched ramps. outer_interpolant's bound
        # is at least |phi_j - interpolant| on its domain [0, M] at 16
        # points per cell, at each corner and the floats next to it, and
        # at random points
        grids, state = data.draw(bump_rounds(depths, shapes=True))
        corners = np.concatenate([c for g in grids.values() for c in g.corners()])
        M = past_corners(grids)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        with on_grids(grids):
            knots, values, bound = decompose.outer_interpolant(state, 0, M, 10**6)
            ys = np.concatenate([
                (knots[:-1, None] + np.diff(knots)[:, None] * (np.arange(1, 16) / 16)).ravel(),
                corners, np.nextafter(corners, np.inf), np.nextafter(corners, -np.inf),
                np.nextafter(np.nextafter(corners, np.inf), np.inf),
                rng.uniform(0.0, M, 500)])
            ys = ys[(ys >= 0.0) & (ys <= M)]
            deviation = np.abs(phi_batch(state, 0, ys) - np.interp(ys, knots, values))
            assert deviation.max() <= bound

    def test_error_bound_sums_the_rounds(self):
        # one bump per round and no shared slot: each round adds its
        # |coefficient| times the bump's corner error
        grid = Grid(k=1, slope=4.0, plateau=0.5, ramp=0.25, xi=np.asarray([0.3, 3.0]),
                    order=np.asarray([1, 0]))
        assert not grid.shared.any()
        state = SimpleNamespace(k_list=(1, 1, 1), coeff=(np.asarray([0.5, 0.0]), np.zeros(2),
                                                         np.asarray([0.0, -2.0])))
        with on_grids({1: grid}):
            bound = decompose.outer_interpolant(state, 0, 5.0, 10**6)[2]
        u = decompose.UNIT_ROUNDOFF
        corner = 0.5 * grid.corner_error()[1] + 2.0 * grid.corner_error()[0]
        assert bound == (corner + 20 * u * 2.5) * (1 + 2.0**-40)
        # the corners of slope 4 are exact, so only the allowances remain
        assert grid.corner_error().tolist() == [12 * u * (4 * 1.0 + 2) + 3 * u] * 2

    def test_error_bound_is_reached_by_one_bump(self):
        # a ramp 4% short of 1/slope: phi_j jumps by 4% of the coefficient
        # at the support start, the bound's corner term, while the
        # interpolant starts from 0 there
        grid = Grid(k=1, slope=4.0, plateau=0.5, ramp=0.24, xi=np.asarray([0.5, 3.0]),
                    order=np.asarray([0, 1]))
        state = SimpleNamespace(k_list=(1,), coeff=(np.asarray([0.75, 0.0]),))
        ys = np.nextafter(grid.lo[0], np.inf)
        with on_grids({1: grid}):
            knots, values, bound = decompose.outer_interpolant(state, 0, 5.0, 10**6)
            deviation = abs(phi_batch(state, 0, np.asarray([ys]))[0] - np.interp(ys, knots, values))
        assert bound * (1 - 1e-9) <= deviation <= bound
        assert deviation == pytest.approx(0.75 * 0.04)

    def test_error_bound_doubles_a_shared_slot(self):
        # bump 1's support starts at bump 0's plateau end, bit for bit: a
        # shared slot, with no bump reaching past its next neighbour. One
        # ulp right of that corner both bumps depart from the chord, by
        # more together than one round's term, which the bound counts
        # twice on a grid with shared slots
        grid = Grid(k=1, slope=1e13, plateau=4.007828974742468e-12, ramp=9.999757166298915e-14,
                    xi=np.asarray([0.5065940908262577, 0.5065940908303656]),
                    order=np.asarray([0, 1]))
        assert grid.lo[1] == grid.xi[0] + grid.plateau
        assert grid.shared.tolist() == [False, True] and grid.reach.size == 0
        state = SimpleNamespace(k_list=(1,),
                                coeff=(np.asarray([0.7280003879599442, -0.6548428439482044]),))
        ys = np.nextafter(grid.lo[1], np.inf)
        with on_grids({1: grid}):
            knots, values, bound = decompose.outer_interpolant(state, 0, 1.0, 10**6)
            deviation = abs(phi_batch(state, 0, np.asarray([ys]))[0] - np.interp(ys, knots, values))
        assert bound / 2 < deviation <= bound
        assert deviation == pytest.approx(4.571e-4, rel=1e-3)


def family_grids(state) -> dict:
    """Each family's grid at each depth of the state's rounds, by (j, k)."""
    return {(j, k): family_grid(state, j, k)
            for j in range(state.params.m + 1) for k in state.k_list}


class TestSharedGrid:
    def test_memo_keeps_one_record(self):
        # a decomposition under another parameter record clears the
        # memo, so only the last record's grids are held
        caps = DecompositionCaps(audit_resolution=5, n_random=3)
        for gamma in (6, 8):
            iterate(init_state(builtin_target("product", 2), make_params(2, gamma=gamma), caps))
        assert list(decompose._geometry) == [make_params(2, gamma=8)]
        assert any(isinstance(g, Grid) for g in decompose._geometry[make_params(2, gamma=8)].values())

    def test_same_depth_layers_hold_one_grid(self, product_r3):
        assert product_r3.k_list == (2, 3, 3)
        grids = family_grids(product_r3)
        for j in range(product_r3.params.m + 1):
            assert family_grid(product_r3, j, 3) is grids[j, 3] is not grids[j, 2]
        # the families' images differ, so each family has its own grids
        assert len(set(grids.values())) == 10

    def test_reload_keeps_sharing_and_values(self, product_r3):
        blob = state_json_text(product_r3)
        loaded = state_from_json_dict(json.loads(blob))
        rng = np.random.default_rng(67)
        sup = float(product_r3.params.phi_domain_sup)
        ys = np.concatenate([np.linspace(0.0, sup, 4001), rng.uniform(0.0, sup, 4000)])
        assert family_grids(loaded) == family_grids(product_r3)
        assert [c.tobytes() for c in loaded.coeff] == [c.tobytes() for c in product_r3.coeff]
        for j in range(product_r3.params.m + 1):
            assert phi_batch(loaded, j, ys).tobytes() == phi_batch(product_r3, j, ys).tobytes()

    def test_one_grid_per_record_family_and_depth(self, product_r1):
        # decompositions of other targets under an equal parameter record,
        # and a state read from a file, get the very Grid objects that
        # product_r1's rounds are evaluated on
        caps = DecompositionCaps(audit_resolution=21, n_random=10)
        gaussian = iterate(init_state(builtin_target("gaussian", 2), caps=caps))
        loaded = state_from_json_dict(json.loads(state_json_text(gaussian)))
        assert gaussian.params is not product_r1.params
        assert gaussian.k_list == loaded.k_list == product_r1.k_list == (2,)
        grids = family_grids(product_r1)
        for state in (gaussian, loaded):
            assert all(family_grid(state, j, k) is g for (j, k), g in grids.items())

    def test_audit_mesh_approximant_once_per_state(self, monkeypatch):
        # the outer values of f_r on the audit mesh are computed once per
        # state (from scratch, or by iterate from the parent's), whichever
        # of the norm, the depth choice, the oscillation and the assembly
        # asks first, and also for a state read from a file; the states
        # of one decomposition hold one audit sample
        counts = {}
        original = decompose.carry

        def counted(state, columns, *args, **kwargs):
            if all(np.array_equal(np.ravel(c), state.audit.axis) for c in columns):
                counts[id(state)] = counts.get(id(state), 0) + 1
            return original(state, columns, *args, **kwargs)

        monkeypatch.setattr(decompose, "carry", counted)
        s0 = init_state(builtin_target("product", 2))
        s1 = iterate(s0)
        loaded = state_from_json_dict(json.loads(state_json_text(s1)))
        assert s1.audit is s0.audit
        assert loaded.audit.points.tobytes() == s0.audit.points.tobytes()
        for state in (s0, s1, loaded):
            decompose.residual_modulus(state, 1 / 36)
            choose_k_r(state)
            decompose.measure_residual_norm(state)
        for state in (s1, loaded):
            pipeline.assemble_from_state(state, 0.25)
        assert counts == {id(s0): 1, id(s1): 1, id(loaded): 1}


class TestEvaluateFr:
    def test_zero_state(self, zero_state):
        assert f_r(zero_state, np.asarray([[0.3, 0.7]]).T).tolist() == [0.0]

    def test_pointwise_error_after_one_iteration(self, product_r1):
        rng = random.Random(47)
        eta = product_r1.params.eta
        f = product_r1.target
        worst = 0.0
        for _ in range(2000):
            x = np.asarray([[rng.random(), rng.random()]])
            worst = max(worst, abs(f.eval_batch(x)[0] - f_r(product_r1, x.T)[0]))
        assert worst <= eta

    def test_grid_point_structure(self, product_r1):
        # at an interior grid point every family contributes the same
        # coefficient, so f_1(d) equals e_0(d); the float coordinates of
        # the grid point read the cells of their exact arguments
        q = [3 / 36, 7 / 36]
        got = f_r(product_r1, np.ix_([q[0]], [q[1]]))[0, 0]
        expected = float(Fraction(3, 36) * Fraction(7, 36))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_mesh_columns_match_mesh_points(self, product_r3):
        # f_r on a product mesh and at the mesh's points, bit for bit,
        # for two axes and for one axis object taken twice
        a = np.sort(np.random.default_rng(71).random(37))
        for axes in ([a, np.linspace(0.0, 1.0, 23)], [a, a]):
            on_mesh = f_r(product_r3, np.ix_(*axes))
            assert on_mesh.shape == tuple(len(ax) for ax in axes)
            at_points = f_r(product_r3, mesh_points(axes).T)
            assert on_mesh.ravel().tobytes() == at_points.tobytes()


class _IndexTable(InnerEvaluator):
    """An evaluator whose float table holds each entry's lattice index,
    so every float reader returns the index it looked up."""

    def float_table(self, k):
        return np.arange(2 * self.params.gamma**k, dtype=float)


class TestSweepIndex:
    @pytest.mark.parametrize(
        "params",
        [make_params(2), make_params(3), make_params(2, m=8, gamma=10)],
        ids=["n2-default", "n3-default", "m8-gamma10"],
    )
    def test_sweep_floats_take_the_exact_cell(self, params):
        # iterate sweeps the floats i/gamma**k + j*float(a) through the
        # nudged floor; each must read the cell of the exact floor of
        # i/gamma**k + j*a at the truncation depth
        caps = DecompositionCaps()
        ev = _IndexTable(params)
        g, depth = params.gamma, caps.k_max + 2
        for k in range(1, caps.k_max + 1):
            axis = np.arange(g**k + 1) / g**k
            for j in range(params.m + 1):
                got = ev.psi_trunc_vector(axis + j * float(params.a), depth)
                want = [ev.psi_trunc_float(Fraction(i, g**k) + j * params.a, depth)
                        for i in range(g**k + 1)]
                assert got.tolist() == want, (k, j)


class TestExtendedFamilyDisjointness:
    def test_overlaps_confined_to_top_column(self):
        # With the endpoint column added, exact disjointness holds for
        # every pair of interior bumps; the only overlapping pairs
        # involve a top-column anchor (a coordinate equal to 1), whose
        # image lambda_i * psi(1) = lambda_i shares digit structure
        # with regular images. At most one such neighbour exists.
        p = make_params(2)
        from kst.inner import InnerEvaluator
        from kst.params import lambda_coeffs

        lam = lambda_coeffs(p)
        ev = InnerEvaluator(p)
        bk = b_k(p, lam, 2)
        ramp = Fraction(1, p.gamma ** beta(p.n, 3))
        plateau_hi = (p.gamma - 2) * bk.hi
        for j in range(p.m + 1):
            s = grid_shift(p, 2, j)
            axis = [Fraction(i, 36) + s for i in range(37)]
            entries = sorted(
                (
                    lam.values[0] * ev.psi_exact_extended(d1)
                    + lam.values[1] * ev.psi_exact_extended(d2),
                    i1 == 36 or i2 == 36,
                )
                for i1, d1 in enumerate(axis)
                for i2, d2 in enumerate(axis)
            )
            overlapping = [
                (prev, nxt)
                for prev, nxt in zip(entries, entries[1:])
                if (nxt[0] - ramp) - (prev[0] + plateau_hi + ramp) <= 0
            ]
            assert overlapping, "the top column is known to graze its partners"
            for prev, nxt in overlapping:
                assert prev[1] or nxt[1]


class TestThreeDimensions:
    def test_gaussian_n3_contracts(self):
        # exercises the general mesh broadcasting and the n=3 constants
        caps = DecompositionCaps(audit_resolution=21, n_random=200)
        state = init_state(builtin_target("gaussian", 3), caps=caps)
        assert state.params.gamma == 8
        s1 = iterate(state)
        assert s1.coeff[0].size == (8 ** s1.k_list[0] + 1) ** 3
        assert s1.residual_norms[1] <= s1.params.eta * s1.residual_norms[0]

    def test_modulus_paths_n3(self):
        state = init_state(
            builtin_target("ridge", 3),
            caps=DecompositionCaps(audit_resolution=15, n_random=100),
        )
        k, warned = choose_k_r(state)
        assert 1 <= k <= state.caps.k_max
        assert isinstance(warned, bool)


class TestLipschitzReport:
    def test_r0_rejected(self, zero_state):
        with pytest.raises(DomainError):
            lipschitz_report(zero_state)

    def test_single_layer_value(self, product_r1):
        rep = lipschitz_report(product_r1)
        p = product_r1.params
        expected = product_r1.residual_norms[0] * p.gamma ** beta(2, 3) / (p.m + 1)
        assert rep["nu_r"] == pytest.approx(expected, rel=1e-12)
        assert rep["nu_r"] == pytest.approx(6**7 / 5, rel=1e-12)

    def test_growth_bound_holds(self, product_r1):
        rep = lipschitz_report(product_r1)
        assert rep["within_bound"]
        p = product_r1.params
        manual = (
            product_r1.residual_norms[0]
            * product_r1.r
            * p.gamma ** (2 * p.n ** rep["C"])
            / (p.m + 1)
        )
        assert rep["K_C_bound"] == pytest.approx(manual, rel=1e-12)


class TestSerialization:
    def test_round_trip_evaluates_identically(self, product_r1, zero_state):
        # with the record's memo dropped, the loaded state's grids are
        # built afresh from the parameters, bit for bit; the zero state
        # holds two depth-1 rounds
        pts = np.random.default_rng(53).random((2000, 2))
        for state in (product_r1, iterate(iterate(zero_state))):
            text = state_json_text(state)
            before = family_grids(state)
            decompose._geometry.pop(state.params)
            loaded = state_from_json_dict(json.loads(text))
            for key, g in before.items():
                h = family_grid(loaded, *key)
                assert h is not g
                assert (h.k, h.slope, h.plateau, h.ramp) == (g.k, g.slope, g.plateau, g.ramp)
                assert h.xi.tobytes() == g.xi.tobytes()
                assert h.order.tobytes() == g.order.tobytes()
            assert [c.tobytes() for c in loaded.coeff] == [c.tobytes() for c in state.coeff]
            assert f_r(loaded, pts.T).tobytes() == f_r(state, pts.T).tobytes()
            assert state_json_text(loaded) == text

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.sampled_from(["zero", "product", "gaussian", "ridge"]), st.integers(0, 3),
           st.integers(1, 2), st.integers(0, 3))
    def test_written_state_loads_exactly(self, name, rounds, k_max, seed):
        # a state file holds each round's depth and coefficient vector,
        # which the loader reads back bit for bit; its rounds are
        # evaluated on the grids of the written state
        assume(k_max == 2 or name == "zero")  # depth 1 takes only null rounds
        caps = DecompositionCaps(k_max=k_max, audit_resolution=11, n_random=20, seed=seed)
        state = init_state(builtin_target(name, 2), caps=caps)
        for _ in range(rounds):
            state = iterate(state)
        text = state_json_text(state)
        loaded = state_from_json_dict(json.loads(text))
        assert loaded.r == rounds
        assert [c.tobytes() for c in loaded.coeff] == [c.tobytes() for c in state.coeff]
        assert loaded.k_list == state.k_list
        assert family_grids(loaded) == family_grids(state)
        pts = np.random.default_rng(seed).random((500, 2))
        assert f_r(loaded, pts.T).tobytes() == f_r(state, pts.T).tobytes()
        assert state_json_text(loaded) == text

    def test_round_trip_metadata(self, product_r1):
        d = json.loads(state_json_text(product_r1))
        loaded = state_from_json_dict(d)
        assert loaded.k_list == product_r1.k_list
        assert loaded.residual_norms == product_r1.residual_norms
        assert loaded.params == product_r1.params

    def test_deterministic_serialization(self, product_r1):
        # the coefficient columns are written as json.dumps writes their
        # 17-digit texts, and the document is the file's text parsed
        doc = json.loads(state_json_text(product_r1))
        assert doc["coeff"] == [[f17(v) for v in c.tolist()] for c in product_r1.coeff]
        text = state_json_text(product_r1)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert state_json_text(product_r1) == text
        assert json.loads(state_json_text(state_from_json_dict(doc))) == doc
