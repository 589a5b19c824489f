"""The traced benchmark wraps kst's entry points by name from outside the
package (perfbench/tracer.py). A refactor that renames or drops one of
them should fail here rather than crash a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_entry_points():
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        try:
            tracer.install(t)
        except (AttributeError, KeyError) as exc:
            pytest.fail(f"an entry point the tracer wraps is gone: {exc!r}")
        patched = list(t._restore)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, f"{attr} was not wrapped"
    finally:
        t.unpatch()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{attr} was not restored"


def test_untraced_attributes_the_workloads_read():
    # perfbench/workloads.py reads these in its describe functions,
    # outside the tracer; a deletion in src/ that breaks them should fail
    # here rather than end a benchmark run with a traceback
    from fractions import Fraction

    import numpy as np

    import kst.cli
    from kst.bumps import disjoint_support_audit
    from kst.inner import InnerEvaluator
    from kst.params import lambda_coeffs, make_params
    from kst.pipeline import PipelineCaps, run_pipeline
    from kst.target import builtin_target

    assert callable(kst.cli.assemble_from_state)
    caps = PipelineCaps(r_cap=1, knot_budget=6000, align_inner_knots=False, n_random=100)
    asm, rep, state = run_pipeline(builtin_target("product", 2), 0.5, caps)
    assert list(rep.k_list) == list(state.k_list)
    assert rep.psi_knots > 0 and rep.phi_knots > 0
    assert len(state.residual_norms) == 2 and 0 < state.params.eta < 1
    for value in (rep.errors_grid["fr_minus_net"], rep.errors_overall["f_minus_net"]):
        assert np.isfinite(value)

    net = asm.network
    assert (net.W, net.L) == (rep.W, rep.L)
    layer_of, weights = {}, 0
    for unit in net.units:
        assert 0 <= unit.layer <= net.L
        layer_of[unit.id] = unit.layer
        weights += unit.bias != 0.0
    assert sorted(layer_of) == list(range(len(layer_of)))
    for src, dst, _ in net.edges:
        assert layer_of[src] < layer_of[dst]
        weights += 1
    assert weights == net.W
    pts = np.random.default_rng(0).random((5, 2))
    assert net.eval_batch(pts)[:, 0].shape == asm.eval_batch(pts).shape == (5,)

    p = make_params(2)
    audit = disjoint_support_audit(p, lambda_coeffs(p), InnerEvaluator(p), 1, 0)
    assert (audit.k, audit.j, audit.count) == (1, 0, p.gamma**p.n)
    assert isinstance(audit.min_gap, Fraction) and audit.ok == (audit.min_gap > 0)


def test_decompose_state_file_holds_k_list(tmp_path):
    # the cli-net-n2 workload's describe_decompose reads the top-level
    # k_list of the state file its decompose command writes
    import json

    import kst.cli

    state = tmp_path / "state.json"
    assert kst.cli.main(["decompose", "--n", "2", "--f", "x1*x2", "--iters", "1",
                         "--seed", "5", "--out-state", str(state),
                         "--out-csv", str(tmp_path / "decay.csv")]) == 0
    k_list = json.loads(state.read_text())["k_list"]
    assert k_list == [2] and all(type(k) is int for k in k_list)


def test_tracer_counts_phi_batch_points():
    # the tracer counts decompose.phi_batch_points from phi_batch's third
    # argument, the points; a signature that moves them should fail here
    import numpy as np

    from kst import decompose
    from kst.target import builtin_target

    state = decompose.init_state(builtin_target("zero", 2),
                                 caps=decompose.DecompositionCaps(audit_resolution=5,
                                                                  n_random=3))
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        tracer.install(t)
        decompose.phi_batch(state, 1, np.linspace(0.0, 1.0, 17))
    finally:
        t.unpatch()
    assert t.counts["decompose.phi_batch_points"] == 17


def test_tracer_counts_carried_rounds(monkeypatch):
    # iterate carries phi_j on through phi_batch, so the tracer counts
    # the points of every round it adds: per round and family the depth-2
    # sweep mesh (37**2 points at gamma 6), the 5**2 audit mesh and the 3
    # audit points
    from kst import decompose
    from kst.target import builtin_target

    state = decompose.init_state(builtin_target("product", 2),
                                 caps=decompose.DecompositionCaps(audit_resolution=5,
                                                                  n_random=3))
    monkeypatch.setattr(decompose, "choose_k_r", lambda state: (2, False))
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        tracer.install(t)
        decompose.iterate(decompose.iterate(state))
    finally:
        t.unpatch()
    assert t.counts["decompose.phi_batch_points"] == 2 * 5 * (37**2 + 5**2 + 3) == 13_970
