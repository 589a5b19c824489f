"""Correctness gate for the benchmark's operations.

Every operation yields a record of plain values. ``check`` compares a
record with the values recorded in ``expected.json`` (integers and exact
fractions that do not depend on the seed) and with the acceptance bounds
that hold for any seed. ``negative_control`` perturbs a good record in
several ways and confirms that the gate rejects each perturbation.
"""

from __future__ import annotations

import copy
import json
import os
from fractions import Fraction

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json"),
          encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

# Acceptance 7a: grid |f_r - net| of the capped pipeline run.
FR_MINUS_NET_BOUND = 0.25
# Explicit forward pass against the interpolant form on the 227k-unit CLI
# network. Acceptance 6 states 1e-10 for its own 400/600-knot network;
# summing 20000 hinge terms per inner copy leaves a float gap of up to
# 6.8e-9 here (gaps per seed are listed in NOTES.md), so the bound sits
# about 15x above the worst gap seen, not at the summation error itself.
DAG_GAP_BOUND = 1e-7


def _equal(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, recorded {want!r}")


def _contracts(problems, what, norms, eta):
    for r, v in enumerate(norms[1:], start=1):
        if not v <= eta**r:
            problems.append(f"{what}: |e_{r}| = {v!r} exceeds eta^{r} = {eta**r!r}")


def check(workload: str, rec: dict) -> list[str]:
    """Problems found in one operation record; empty when it passes."""
    problems: list[str] = []
    kind = rec["kind"]
    exp = EXPECTED[workload]
    if kind == "pipeline":
        want = exp[rec["target"]]
        for key in ("k_list", "W", "L", "psi_knots", "phi_knots"):
            _equal(problems, f"{rec['target']} {key}", rec[key], want[key])
        if rec["builtin"]:
            _contracts(problems, rec["target"], rec["residual_norms"], rec["eta"])
        if not rec["fr_minus_net_grid"] <= FR_MINUS_NET_BOUND:
            problems.append(
                f"{rec['target']}: grid |f_r - net| = {rec['fr_minus_net_grid']!r} "
                f"exceeds {FR_MINUS_NET_BOUND}")
    elif kind == "cli-decompose":
        _equal(problems, "decompose exit code", rec["rc"], 0)
        _equal(problems, "state k_list", rec["k_list"], exp["k_list"])
    elif kind == "cli-assemble":
        _equal(problems, "assemble exit code", rec["rc"], 0)
        for key in ("k_list", "W", "L", "psi_knots", "phi_knots"):
            _equal(problems, f"report {key}", rec[key], exp[key])
        _equal(problems, "report file W", rec["file_W"], rec["W"])
        if rec["file_has_timings"]:
            problems.append("report file carries wall-clock timings")
    elif kind == "forward":
        _equal(problems, "materialized W", rec["W_materialized"], rec["W_report"])
        _equal(problems, "materialized W", rec["W_materialized"], exp["W"])
        _equal(problems, "units", rec["units"], exp["units"])
        _equal(problems, "edges", rec["edges"], exp["edges"])
        _equal(problems, "layer counts", rec["layers"], exp["layers"])
        layer_sum = sum(v["edges"] + v["nonzero_bias"] for v in rec["layers"].values())
        _equal(problems, "sum over layers of edges and nonzero biases",
               layer_sum, rec["W_materialized"])
        if not rec["dag_gap"] <= DAG_GAP_BOUND:
            problems.append(
                f"max |DAG - interpolant| = {rec['dag_gap']!r} exceeds {DAG_GAP_BOUND}")
    elif kind == "audit":
        want = exp[f"gamma{rec['gamma']}-k{rec['k']}"]
        where = f"audit gamma={rec['gamma']} k={rec['k']} j={rec['j']}"
        _equal(problems, f"{where} count", rec["count"], want["count"])
        _equal(problems, f"{where} ok", rec["ok"], want["ok"])
        _equal(problems, f"{where} min_gap", Fraction(rec["min_gap"]),
               Fraction(want["min_gap"]))
        # depth 1 overlaps by design (acceptance 4, j-1 cases); depth 2 is disjoint
        _equal(problems, f"{where} disjoint", rec["ok"], rec["k"] >= 2)
    else:
        problems.append(f"unknown record kind {kind!r}")
    return problems


def _perturbations(rec: dict) -> list[tuple[str, dict]]:
    kind = rec["kind"]
    out = []

    def variant(label, **changes):
        bad = copy.deepcopy(rec)
        bad.update(changes)
        out.append((label, bad))

    if kind == "pipeline":
        variant("W + 1", W=rec["W"] + 1)
        variant("grid |f_r - net| above 7a", fr_minus_net_grid=FR_MINUS_NET_BOUND * 1.01)
        if rec["builtin"]:
            norms = list(rec["residual_norms"])
            norms[1] = rec["eta"] * 1.0001
            variant("|e_1| above eta", residual_norms=norms)
    elif kind == "cli-decompose":
        variant("exit code 2", rc=2)
        variant("k_list", k_list=[k + 1 for k in rec["k_list"]])
    elif kind == "cli-assemble":
        variant("W + 1", W=rec["W"] + 1, file_W=rec["W"] + 1)
        variant("timings in report", file_has_timings=True)
    elif kind == "forward":
        variant("DAG off by the bound", dag_gap=rec["dag_gap"] + DAG_GAP_BOUND)
        layers = copy.deepcopy(rec["layers"])
        layers["3"]["edges"] += 1
        variant("one extra aggregation edge", layers=layers)
        variant("materialized W + 1", W_materialized=rec["W_materialized"] + 1)
    elif kind == "audit":
        gap = Fraction(rec["min_gap"])
        variant("min_gap off by 1e-40", min_gap=str(gap + Fraction(1, 10**40)))
        variant("ok flipped", ok=not rec["ok"])
        variant("count + 1", count=rec["count"] + 1)
    return out


def negative_control(workload: str, records: list[dict]) -> list[str]:
    """Perturbations of passing records that the gate failed to reject."""
    missed = []
    seen = set()
    for rec in records:
        if rec["kind"] in seen or check(workload, rec):
            continue
        seen.add(rec["kind"])
        for label, bad in _perturbations(rec):
            if not check(workload, bad):
                missed.append(f"{rec['kind']}: {label}")
    if not seen:
        missed.append("no passing record to perturb")
    return missed
