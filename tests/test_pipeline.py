import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kst import decompose, pipeline
from kst.errors import DomainError
from kst.params import make_params
from kst.pipeline import (
    PipelineCaps,
    assemble_from_state,
    epsilon_split,
    r_of_epsilon,
    run_pipeline,
)
from kst.decompose import DecompositionCaps, init_state, iterate
from kst.target import builtin_target, expression_target, mesh_points
from oracles import phi_batch_outer_net, unique_corner_knots


class TestRofEpsilon:
    def test_exact_power(self):
        assert r_of_epsilon(0.5, 0.25) == 3

    def test_default_eta(self):
        assert r_of_epsilon(0.9, 0.5) == 14

    def test_monotone_in_eps(self):
        etas = [0.5, 0.7, 0.9]
        eps_grid = [0.9, 0.5, 0.25, 0.125, 0.05]
        for eta in etas:
            rs = [r_of_epsilon(eta, e) for e in eps_grid]
            assert all(rs[i] <= rs[i + 1] for i in range(len(rs) - 1))

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            r_of_epsilon(0.9, 1.0)
        with pytest.raises(DomainError):
            r_of_epsilon(1.0, 0.5)
        with pytest.raises(DomainError):
            r_of_epsilon(0.9, 0.0)


class TestEpsilonSplit:
    def test_reference_values(self):
        p = make_params(2)
        split = epsilon_split(p, 5.0, 0.1)
        # n*eps / (2*(2n+1)^2*nu) = 2*0.1/(2*25*5)
        assert split["eps_psi"] == pytest.approx(0.0008, rel=1e-12)
        assert split["eps_phi"] == pytest.approx(0.005, rel=1e-12)

    def test_budget_identity(self):
        # ((2n+1)^2 / 2n) * nu * eps_psi is exactly eps/4
        p = make_params(2)
        for nu in (0.5, 5.0, 1e4):
            for eps in (0.1, 0.5, 0.9):
                s = epsilon_split(p, nu, eps)
                first = (2 * p.n + 1) ** 2 / (2 * p.n) * nu * s["eps_psi"]
                second = (2 * p.n + 1) * s["eps_phi"]
                assert first == pytest.approx(eps / 4, rel=1e-12)
                assert second == pytest.approx(eps / 4, rel=1e-12)

    def test_linear_scaling(self):
        p = make_params(2)
        one = epsilon_split(p, 7.0, 0.2)
        two = epsilon_split(p, 7.0, 0.4)
        assert two["eps_psi"] == pytest.approx(2 * one["eps_psi"], rel=1e-12)
        assert two["eps_phi"] == pytest.approx(2 * one["eps_phi"], rel=1e-12)

    def test_decreasing_in_nu(self):
        p = make_params(2)
        a = epsilon_split(p, 1.0, 0.2)["eps_psi"]
        b = epsilon_split(p, 10.0, 0.2)["eps_psi"]
        assert b < a

    def test_guards(self):
        p = make_params(2)
        with pytest.raises(DomainError):
            epsilon_split(p, 0.0, 0.2)
        with pytest.raises(DomainError):
            epsilon_split(p, 1.0, 1.5)


class _StateBuilt(Exception):
    pass


@pytest.mark.parametrize("n, used", [(2, 101), (3, 31)])
def test_audit_resolution_default_per_dimension(monkeypatch, n, used):
    real_init = pipeline.init_state

    def stop_after_init(f, params, caps):
        raise _StateBuilt(caps, real_init(f, params, caps))

    monkeypatch.setattr(pipeline, "init_state", stop_after_init)
    with pytest.raises(_StateBuilt) as built:
        run_pipeline(builtin_target("zero", n), 0.5)
    # run_pipeline leaves the resolution to init_state's default for n
    received, state = built.value.args
    assert received.audit_resolution is None
    assert state.caps.audit_resolution == used


@pytest.fixture(scope="module")
def zero_run():
    return run_pipeline(builtin_target("zero", 2), 0.5, PipelineCaps(n_random=500))


@pytest.fixture(scope="module")
def product_run():
    caps = PipelineCaps(r_cap=1, n_random=2000)
    return run_pipeline(builtin_target("product", 2), 0.5, caps)


class TestRunPipeline:
    def test_zero_target_everything_zero(self, zero_run):
        asm, rep, state = zero_run
        for d in (rep.errors_grid, rep.errors_random, rep.errors_overall):
            assert all(v == 0.0 for v in d.values())
        pts = np.array([[0.2, 0.9], [0.0, 0.0], [1.0, 1.0]])
        assert np.all(asm.eval_batch(pts) == 0.0)

    def test_triangle_identity(self, product_run):
        _, rep, _ = product_run
        for d in (rep.errors_grid, rep.errors_random, rep.errors_overall):
            assert d["f_minus_net"] <= d["f_minus_fr"] + d["fr_minus_net"] + 1e-12

    def test_capped_run_flagged(self, product_run):
        _, rep, _ = product_run
        assert rep.r_target == 14
        assert rep.r_used == 1
        assert rep.partial_r

    def test_network_half_error(self, product_run):
        _, rep, _ = product_run
        assert rep.errors_grid["fr_minus_net"] <= 0.5 / 2
        assert rep.errors_grid["f_minus_fr"] <= rep.residual_norms[-1] + 1e-12

    def test_residual_bound(self, product_run):
        _, rep, state = product_run
        assert rep.residual_norms[-1] <= state.params.eta

    def test_report_json_deterministic_and_no_timings(self, product_run):
        _, rep, _ = product_run
        d = rep.to_json_dict()
        assert "timings" not in d
        assert json.dumps(d, sort_keys=True) == json.dumps(
            rep.to_json_dict(), sort_keys=True
        )

    def test_assemble_from_state_matches_run(self, product_run):
        asm1, rep1, state = product_run
        asm2, rep2 = assemble_from_state(state, 0.5, PipelineCaps(r_cap=1, n_random=2000))
        assert rep2.errors_grid == rep1.errors_grid
        assert rep2.W == rep1.W

    def test_sup_norm_guard(self):
        t = builtin_target("product", 2)
        big = type(t)(dim=2, fn=t.fn, sup_norm_bound=1.5, provenance=t.provenance)
        with pytest.raises(DomainError):
            run_pipeline(big, 0.5)

    @pytest.mark.parametrize(
        "caps",
        [dict(r_cap=0, n_random=0), dict(r_cap=0, seed=-1),
         dict(r_cap=-1), dict(k_max=0), dict(k_max=-1),
         dict(r_cap=0, knot_budget=0), dict(r_cap=0, knot_budget=-5)],
        ids=["n-random-zero", "seed-negative", "r-cap-negative", "k-max-zero",
             "k-max-negative", "knot-budget-zero", "knot-budget-negative"],
    )
    def test_caps_guard(self, caps):
        # the caps are built inside the test: PipelineCaps refuses its own
        # fields, and the decomposition's caps refuse theirs
        with pytest.raises(DomainError):
            run_pipeline(builtin_target("zero", 2), 0.5, PipelineCaps(**caps))


def test_outer_nets_take_the_breakpoints():
    # phi_j is linear between the corners of its bumps, so each outer net
    # interpolates it there; sized from the Lipschitz count instead, the
    # nets of this run took 706,910 uniform knots and missed f_r by 0.049
    asm, rep, state = run_pipeline(expression_target("0.5*x1*x2", 2), 0.99,
                                   PipelineCaps(r_cap=1, seed=5))
    M = float(state.params.phi_domain_sup)
    for j, net in enumerate(asm.phi_nets):
        assert net.knots.tobytes() == unique_corner_knots(state, j, M).tobytes()
    assert rep.phi_knots == 5475
    assert rep.errors_overall["fr_minus_net"] <= 1e-9


# States by (target, gamma), one per round count r = 1..3; depth 3 at
# gamma 8 gives a million knots per outer net, so gamma 8 stops at depth 2
_STATES: dict = {}


def _state(name: str, gamma: int, r: int):
    if (name, gamma) not in _STATES:
        target = (expression_target("exp(-(x1^2+x2^2))", 2) if name == "expression"
                  else builtin_target(name, 2))
        state = init_state(target, make_params(2, gamma=gamma),
                           DecompositionCaps(k_max=3 if gamma == 6 else 2, seed=5))
        _STATES[name, gamma] = [state := iterate(state) for _ in range(3)]
    return _STATES[name, gamma][r - 1]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.sampled_from(["product", "gaussian", "ridge", "expression", "zero"]),
       st.sampled_from([6, 8]), st.integers(1, 3), st.data())
def test_outer_nets_equal_the_phi_batch_build(name, gamma, r, data):
    # the knots and values of every family's net, bit for bit, with one
    # round's coefficients set to zero in some states, and blocks of a
    # drawn number of knots; the error is the proven bound, at least the
    # build's sampled one
    state = _state(name, gamma, r)
    zero = data.draw(st.sampled_from([None, *range(r)]))
    if zero is not None:
        state = replace(state, coeff=tuple(np.zeros_like(c) if l == zero else c
                                           for l, c in enumerate(state.coeff)))
    block = data.draw(st.sampled_from([1000, 4097, decompose.PHI_BLOCK]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "PHI_BLOCK", block)
        nets, _ = pipeline.build_outer_nets(state, 1.0, PipelineCaps())
    j = data.draw(st.integers(0, state.params.m))
    want = phi_batch_outer_net(state, j)
    assert nets[j].knots.tobytes() == want.knots.tobytes()
    assert nets[j].values.tobytes() == want.values.tobytes()
    M = float(state.params.phi_domain_sup)
    bound = decompose.outer_interpolant(state, j, M, PipelineCaps().knot_budget)[2]
    assert nets[j].eps_measured == bound >= want.eps_measured
    if name == "zero" or (zero is not None and r == 1):
        assert want.knots.tolist() == [0.0, float(state.params.phi_domain_sup)]
        assert nets[j].eps_measured == 0.0


@pytest.mark.parametrize("name", ["product", "gaussian", "ridge", "expression"])
def test_error_bound_covers_the_sampled_audit(name):
    # the states of the pipeline-n2 targets at seed 5: every family's
    # bound is at least the deviation that build_univariate samples at
    # audit factor 4 over phi_batch, and below eps_phi / 100
    state = _state(name, 6, 3)
    asm, report = assemble_from_state(state, 0.25, PipelineCaps(seed=5))
    bounds = [net.eps_measured for net in asm.phi_nets]
    for j, bound in enumerate(bounds):
        assert phi_batch_outer_net(state, j).eps_measured <= bound <= report.eps_phi / 100
    assert report.eps_phi_measured == max(bounds)


def test_outer_nets_refuse_a_non_finite_value():
    state = _state("product", 6, 1)
    state = replace(state, coeff=(np.where(state.coeff[0] != 0.0, np.inf, 0.0),))
    with pytest.raises(DomainError, match="outer function 0 is not finite"), \
            np.errstate(invalid="ignore"):
        pipeline.build_outer_nets(state, 1.0, PipelineCaps())


@pytest.mark.parametrize("name", ["product", "x1*x2"])
def test_every_support_end_is_a_knot(name):
    # the r=3 product state and the one-round x1*x2 state of kst
    # decompose; with the fourth corner spelled xi + (plateau + ramp),
    # 37 to 2,104 support ends per family missed every knot by an ulp
    if name == "product":
        state = _state(name, 6, 3)
    else:
        state = iterate(init_state(expression_target(name, 2), caps=DecompositionCaps(seed=5)))
    M = float(state.params.phi_domain_sup)
    for j in range(state.params.m + 1):
        knots = decompose.outer_interpolant(state, j, M, PipelineCaps().knot_budget)[0]
        for k in {k for k, coeff in zip(state.k_list, state.coeff) if np.any(coeff)}:
            hi = decompose.family_grid(state, j, k).hi
            assert np.isin(hi[(hi >= 0.0) & (hi <= M)], knots).all()


@pytest.mark.parametrize("name", ["product", "ridge", "expression"])
def test_net_on_the_audit_mesh_equals_its_points(name):
    # assemble_from_state measures the net on the audit mesh through
    # the images' product-mesh broadcast (the inner interpolants read at
    # the axis values); the values are eval_batch's at the mesh's points
    state = _state(name, 6, 3)
    asm, report = assemble_from_state(state, 0.25, PipelineCaps(seed=5))
    on_mesh = asm.eval_columns(state.audit.mesh).ravel()
    at_points = asm.eval_batch(mesh_points([state.audit.axis] * 2))
    assert np.array_equal(on_mesh.view(np.int64), at_points.view(np.int64))
    fr = state.fr_mesh.ravel()
    assert report.errors_grid["fr_minus_net"] == float(np.max(np.abs(fr - at_points)))


class TestStaircaseConsistency:
    def test_network_matches_decomposition_everywhere_sampled(self):
        state = iterate(init_state(builtin_target("gaussian", 2)))
        asm, rep = assemble_from_state(state, 0.5, PipelineCaps(n_random=3000))
        assert rep.errors_overall["fr_minus_net"] <= 1e-3
        assert rep.errors_grid["fr_minus_net"] <= 1e-3
