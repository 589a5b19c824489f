"""One benchmark workload in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/workloads.py --workload NAME --probe-setup

Run from the repository root with ``src`` on PYTHONPATH; ``run.py``
starts this process and reads the JSON object on its last stdout line.

A pass runs every operation of the workload once, in order. One full
pass always runs; after it, operations repeat in pass order while each
still fits in ``--seconds``. Each operation is timed on its own after a
garbage collection, and ``wall_s`` is the sum over operations of their
fastest time, the cost of one clean pass. ``setup_s`` is the fastest of
several set-ups in fresh processes started between operations over the
whole run. With ``--trace 1`` untraced and traced passes alternate (at
least one of each) and the per-layer figures come from the traced ones.
Results are checked by ``gate.py`` outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import tracer as tracing  # noqa: E402

OUT_DIR = ".perfbench_out"
EXPRESSION = "exp(-(x1^2+x2^2))"
N2_BUILTINS = ("product", "gaussian", "ridge")
AUDIT_GAMMAS = (6, 8)
AUDIT_DEPTHS = (1, 2)
FORWARD_POINTS = 500
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60


# -- set-up: import, and the params and targets the workload uses ---------------


def setup(workload: str) -> dict:
    from kst.params import lambda_coeffs, make_params
    from kst.target import builtin_target, expression_target

    if workload == "pipeline-n2":
        return {
            "params": make_params(2),
            "targets": [(name, builtin_target(name, 2)) for name in N2_BUILTINS]
            + [("expression", expression_target(EXPRESSION, 2))],
        }
    if workload == "cli-net-n2":
        # the CLI builds its own params and target, inside the timed commands
        import kst.cli  # noqa: F401

        return {}
    if workload == "audit-exact-n2":
        by_gamma = {}
        for g in AUDIT_GAMMAS:
            params = make_params(2, gamma=g)
            by_gamma[g] = (params, lambda_coeffs(params))
        return {"by_gamma": by_gamma}
    raise SystemExit(f"unknown workload {workload!r}")


# -- operations ------------------------------------------------------------------
#
# Each workload yields (name, run, describe) triples. ``run`` is the timed
# call into the program; ``describe`` turns its result into a gate record
# outside the timed region.


def ops_pipeline(ctx, seed, chain):
    from kst import pipeline

    for name, target in ctx["targets"]:
        def run(target=target):
            caps = pipeline.PipelineCaps(r_cap=3, seed=seed)
            return pipeline.run_pipeline(target, 0.25, caps, params=ctx["params"])

        def describe(out, name=name):
            _, rep, state = out
            return {
                "kind": "pipeline",
                "target": name,
                "builtin": name in N2_BUILTINS,
                "k_list": list(rep.k_list),
                "W": rep.W,
                "L": rep.L,
                "psi_knots": rep.psi_knots,
                "phi_knots": rep.phi_knots,
                "residual_norms": list(state.residual_norms),
                "eta": state.params.eta,
                "fr_minus_net_grid": rep.errors_grid["fr_minus_net"],
                "f_minus_net": rep.errors_overall["f_minus_net"],
            }

        yield name, run, describe


@contextmanager
def _capture_assembly(into: dict):
    """Keep the network and report that ``kst assemble`` builds."""
    import kst.cli

    original = kst.cli.assemble_from_state

    def capture(*args, **kwargs):
        into["asm"], into["report"] = out = original(*args, **kwargs)
        return out

    kst.cli.assemble_from_state = capture
    try:
        yield
    finally:
        kst.cli.assemble_from_state = original


def _file_sizes(paths: dict) -> dict:
    return {key: os.path.getsize(path) for key, path in paths.items()
            if os.path.exists(path)}


def ops_cli_net(ctx, seed, chain):
    import numpy as np
    from kst import cli

    out = os.path.join(OUT_DIR, "cli")
    os.makedirs(out, exist_ok=True)
    paths = {k: os.path.join(out, f) for k, f in (
        ("state", "state.json"), ("csv", "decay.csv"),
        ("report", "report.json"), ("net", "net.json"))}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)

    def run_decompose():
        return cli.main(["decompose", "--n", "2", "--f", "x1*x2", "--iters", "1",
                         "--seed", str(seed), "--out-state", paths["state"],
                         "--out-csv", paths["csv"]])

    def describe_decompose(rc):
        k_list = None
        if rc == 0:
            with open(paths["state"], encoding="utf-8") as fh:
                k_list = json.load(fh)["k_list"]
        chain["bytes"] = _file_sizes({k: paths[k] for k in ("state", "csv")})
        return {"kind": "cli-decompose", "rc": rc, "k_list": k_list}

    def run_assemble():
        with _capture_assembly(chain):
            return cli.main(["assemble", "--decomp", paths["state"], "--eps", "0.5",
                             "--seed", str(seed), "--n-random", "500",
                             "--knot-budget", "20000", "--uniform-inner",
                             "--out-report", paths["report"], "--out-net", paths["net"]])

    def describe_assemble(rc):
        rep = chain["report"]
        with open(paths["report"], encoding="utf-8") as fh:
            on_disk = json.load(fh)
        chain["bytes"].update(_file_sizes({k: paths[k] for k in ("report", "net")}))
        return {
            "kind": "cli-assemble",
            "rc": rc,
            "k_list": list(rep.k_list),
            "W": rep.W,
            "L": rep.L,
            "psi_knots": rep.psi_knots,
            "phi_knots": rep.phi_knots,
            "file_W": on_disk["W"],
            "file_has_timings": "timings" in on_disk,
            "f_minus_net": rep.errors_overall["f_minus_net"],
            "bytes": chain["bytes"],
        }

    def run_forward():
        asm = chain["asm"]
        pts = np.random.default_rng(seed).random((FORWARD_POINTS, 2))
        t0 = time.perf_counter()
        dag = asm.network.eval_batch(pts)[:, 0]
        chain["dag_s"] = time.perf_counter() - t0
        return dag, asm.eval_batch(pts)

    def describe_forward(result):
        dag, interp = result
        asm = chain.pop("asm")
        net = asm.network
        layers = {str(layer): {"units": 0, "edges": 0, "nonzero_bias": 0}
                  for layer in range(1, net.L + 1)}
        unit_layer = {}
        for unit in net.units:
            unit_layer[unit.id] = unit.layer
            if unit.layer > 0:
                row = layers[str(unit.layer)]
                row["units"] += 1
                row["nonzero_bias"] += unit.bias != 0.0
        for _, dst, _ in net.edges:
            layers[str(unit_layer[dst])]["edges"] += 1
        return {
            "kind": "forward",
            "W_materialized": net.W,
            "W_report": chain["report"].W,
            "units": len(net.units),
            "edges": len(net.edges),
            "layers": layers,
            "dag_gap": float(np.max(np.abs(dag - interp))),
            "points_per_s": FORWARD_POINTS / chain["dag_s"],
        }

    yield "cli-decompose", run_decompose, describe_decompose
    yield "cli-assemble", run_assemble, describe_assemble
    yield "forward", run_forward, describe_forward


def ops_audit(ctx, seed, chain):
    from kst import bumps
    from kst.inner import InnerEvaluator

    families = [(g, k, j) for g in AUDIT_GAMMAS for k in AUDIT_DEPTHS
                for j in range(ctx["by_gamma"][g][0].m + 1)]
    # The audit has no random input; the seed only orders the families.
    random.Random(seed).shuffle(families)
    for g, k, j in families:
        params, lambdas = ctx["by_gamma"][g]

        def run(params=params, lambdas=lambdas, k=k, j=j):
            return bumps.disjoint_support_audit(
                params, lambdas, InnerEvaluator(params), k, j)

        def describe(audit, g=g):
            gap = audit.min_gap
            return {"kind": "audit", "gamma": g, "k": audit.k, "j": audit.j,
                    "count": audit.count, "ok": audit.ok,
                    "min_gap": f"{gap.numerator}/{gap.denominator}"}

        yield f"gamma{g}-k{k}-j{j}", run, describe


OPS = {
    "pipeline-n2": ops_pipeline,
    "cli-net-n2": ops_cli_net,
    "audit-exact-n2": ops_audit,
}


# -- passes ----------------------------------------------------------------------


class Run:
    def __init__(self, workload, ctx, seed):
        self.workload = workload
        self.ctx = ctx
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[dict] = []

    def one_pass(self, times: dict, tracer=None, deadline=None, between=None):
        """Run every operation once, in order.

        With a deadline, stop before an operation whose longest earlier
        time would overrun it. ``between()`` runs before each operation,
        outside its timing. Returns the time spent, the records and
        whether every operation ran.
        """
        chain: dict = {}
        records = []
        total = 0.0
        broken = False
        complete = True
        for name, run, describe in OPS[self.workload](self.ctx, self.seed, chain):
            if between is not None:
                between()
            expected = max(times.get(name, (0.0,)))
            if deadline is not None and time.perf_counter() + expected > deadline:
                complete = False
                break
            self.attempted += 1
            if broken:
                self.failures.append(f"{name}: skipped after an earlier failure")
                continue
            gc.collect()
            span = None
            if tracer is not None:
                tracer.op += 1
                span = tracer.open("op")
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # any failure of the program is counted
                broken = True
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                dt = time.perf_counter() - t0
                if span is not None:
                    tracer.close(span)
            total += dt
            times.setdefault(name, []).append(dt)
            try:
                rec = describe(out)
            except Exception as exc:
                broken = True
                self.failures.append(f"{name}: result unreadable: {type(exc).__name__}: {exc}")
                continue
            del out
            problems = gate.check(self.workload, rec)
            if problems:
                broken = True
                self.failures.extend(f"{name}: {p}" for p in problems)
            records.append(rec)
        self.records.extend(records)
        chain.clear()
        gc.collect()
        return total, records, complete


def observed(workload: str, records: list[dict]) -> dict:
    """Deterministic outputs and the forward throughput of one pass."""
    out = {"quality.sup_err": 0.0, "quality.net_W": 0}
    for rec in records:
        kind = rec["kind"]
        if kind == "pipeline":
            out["quality.sup_err"] = max(out["quality.sup_err"], rec["f_minus_net"])
            out["quality.net_W"] += rec["W"]
        elif kind == "cli-assemble":
            out["quality.sup_err"] = rec["f_minus_net"]
            out["quality.net_W"] += rec["W"]
            for key, size in rec["bytes"].items():
                out[f"cli.bytes_{key}"] = size
            out["cli.bytes_written"] = sum(rec["bytes"].values())
        elif kind == "forward":
            out["relunet.forward_pts_per_s"] = rec["points_per_s"]
            out["relunet.dag_gap"] = rec["dag_gap"]
            out["relunet.units"] = rec["units"]
            out["relunet.edges"] = rec["edges"]
            for layer, row in rec["layers"].items():
                for key, value in row.items():
                    out[f"relunet.layer{layer}.{key}"] = value
    return out


def wall(times: dict) -> float:
    return sum(min(v) for v in times.values())


class SetupProbes:
    """Set-up timed in fresh processes, spread evenly over the run.

    The host's speed drifts by up to 1.6x over seconds to minutes, so the
    fastest of several set-ups is steadier from run to run than their
    median.
    """

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.interval = seconds / SETUP_PROBES
        self.start = time.perf_counter()
        self.times: list[float] = []

    def one(self) -> None:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", self.workload,
             "--probe-setup"], stdout=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S, check=True)
        self.times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def when_due(self) -> None:
        elapsed = time.perf_counter() - self.start
        if len(self.times) < min(SETUP_PROBES, elapsed / self.interval):
            self.one()

    def finish(self) -> None:
        while len(self.times) < SETUP_PROBES:
            self.one()


def layer_metrics(tracer, first_span: int, counts: dict, obs: dict) -> dict:
    self_t = tracer.self_times(first_span)
    total_t = tracer.total_times(first_span)
    s = lambda name: self_t.get(name, 0.0)
    c = lambda key: counts.get(key, 0)
    m = {
        "target.eval_s": s("target.eval"),
        "target.points": c("target.points"),
        "inner.table_s": s("inner.table"),
        "inner.exact_s": s("inner.exact"),
        "inner.exact_calls": c("inner.exact_calls"),
        "inner.vector_s": s("inner.vector"),
        "bumps.audit_s": s("bumps.audit"),
        "bumps.images": c("bumps.images"),
        "decompose.rounds": c("decompose.rounds"),
        "decompose.iterate_s": s("decompose.iterate"),
        "decompose.choose_k_s": s("decompose.choose_k"),
        "decompose.k_tests": c("decompose.k_tests"),
        "decompose.k_useful_ratio":
            c("decompose.rounds") / c("decompose.k_tests") if c("decompose.k_tests") else 0.0,
        "decompose.sweep_points": c("decompose.sweep_points"),
        "decompose.phi_batch_s": s("decompose.phi_batch"),
        "decompose.phi_batch_points": c("decompose.phi_batch_points"),
        "decompose.measure_s": s("decompose.measure"),
        "decompose.load_state_s": s("decompose.load_state"),
        "pipeline.run_s": s("pipeline.run"),
        "pipeline.assemble_from_state_s": s("pipeline.assemble_from_state"),
    }
    for stage in ("decompose", "build_psi", "build_phi", "assemble", "measure"):
        m[f"pipeline.{stage}_s"] = c(f"pipeline.{stage}_s")
    m["pipeline.psi_knots"] = c("pipeline.psi_knots")
    m["pipeline.phi_knots"] = c("pipeline.phi_knots")
    dag_s = s("relunet.dag_forward")
    m.update({
        "relunet.build_univariate_s": s("relunet.build_univariate"),
        "relunet.build_univariate_calls": c("relunet.build_univariate_calls"),
        "relunet.materialize_s": s("relunet.materialize"),
        "relunet.to_json_s": s("relunet.to_json"),
        "relunet.dag_forward_s": dag_s,
        "relunet.interp_forward_s": s("relunet.interp_forward"),
        "relunet.units": 0,
        "relunet.edges": 0,
        "relunet.dag_gap": 0.0,
    })
    for layer in range(1, 7):
        for key in ("units", "edges", "nonzero_bias"):
            m[f"relunet.layer{layer}.{key}"] = 0
    for key in ("written", "state", "csv", "report", "net"):
        m[f"cli.bytes_{key}"] = 0
    m.update(obs)
    # throughput of the traced forward pass, consistent with dag_forward_s
    m["relunet.forward_pts_per_s"] = c("relunet.dag_points") / dag_s if dag_s else 0.0
    m.update({
        "cli.decompose_s": total_t.get("cli.decompose", 0.0),
        "cli.assemble_s": total_t.get("cli.assemble", 0.0),
        "cli.serialize_s": s("cli.assemble"),
    })
    m["trace.unattributed_s"] = s("op")
    m["trace.spans"] = len(tracer.spans) - first_span
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    t0 = time.perf_counter()
    ctx = setup(workload)
    setup_s = import_s + time.perf_counter() - t0
    run = Run(workload, ctx, seed)
    plain_times: dict = {}
    traced_times: dict = {}
    per_pass_layers: list[dict] = []
    obs: dict = {}
    tracer = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    if not trace:
        # after the first pass, operations repeat while each still fits
        probes = SetupProbes(workload, seconds)
        complete = True
        while complete and not run.failures:
            _, records, complete = run.one_pass(
                plain_times, deadline=deadline if plain_times else None,
                between=probes.when_due)
            if complete:
                obs = observed(workload, records)
        probes.finish()
        setup_s = min([setup_s] + probes.times)
    else:
        # an untraced pass, then a traced one, while both still fit
        longest = 0.0
        while True:
            took, records, _ = run.one_pass(plain_times)
            obs = observed(workload, records)
            longest = max(longest, took)
            if run.failures:
                break
            first = len(tracer.spans)
            counts_before = dict(tracer.counts)
            tracing.install(tracer)
            try:
                took, records, _ = run.one_pass(traced_times, tracer)
            finally:
                tracer.unpatch()
            counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
            per_pass_layers.append(layer_metrics(
                tracer, first, counts, observed(workload, records)))
            longest = max(longest, took)
            if run.failures or time.perf_counter() + 2 * longest > deadline:
                break

    result = {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "negative_control_missed": gate.negative_control(workload, run.records),
        "setup_s": setup_s,
        "observed": obs,
    }
    if plain_times:
        result["op_s"] = {k: min(v) for k, v in plain_times.items()}
        result["wall_s"] = wall(plain_times)
        result["passes"] = min(len(v) for v in plain_times.values())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace and per_pass_layers:
        layers = {key: statistics.median(p[key] for p in per_pass_layers)
                  for key in per_pass_layers[0]}
        traced = wall(traced_times)
        layers["trace.wall_traced_s"] = traced
        layers["trace.wall_untraced_s"] = result.get("wall_s", 0.0)
        layers["trace.overhead_s"] = traced - result.get("wall_s", 0.0)
        result["layers"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json_dict(), fh)
        result["trace_file"] = path
    shutil.rmtree(os.path.join(OUT_DIR, "cli"), ignore_errors=True)
    return result


def versions() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true")
    args = ap.parse_args()
    if args.probe_setup:
        t0 = time.perf_counter()
        import kst  # noqa: F401

        setup(args.workload)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    t0 = time.perf_counter()
    import kst  # noqa: F401

    import_s = time.perf_counter() - t0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
