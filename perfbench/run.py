"""Benchmark entry point for kst.

    python3 perfbench/run.py --workload NAME|all --seed S --seconds T --trace 0|1

Run from the repository root. Each workload runs in its own fresh
process with one compute thread (BLAS and OpenMP pools set to 1), so
peak memory and the program's memo tables never carry over between
workloads. Set-up time is the fastest of several fresh processes.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones. The lines before it give the run record and every
metric by name and unit. Workload choices and the layer-to-metric map
are in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("pipeline-n2", "cli-net-n2", "audit-exact-n2")
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    env = dict(os.environ)
    # never look for a repository above the checkout
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.path.abspath("."))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: int, trace: int, env: dict,
                 spec: dict, deadline: float) -> dict:
    res = run_child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)], env, max(1.0, deadline - time.monotonic()))
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res.get("layers", {})
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"setup_s": res["setup_s"], "wall_s": res.get("wall_s"),
                  "peak_rss_mb": res["peak_rss_mb"]}
    # a failed operation may leave figures unmeasured; they read 0
    values = {k: v for k, v in values.items() if v is not None}
    if set(units) != set(values) and not res["failures"]:
        raise RuntimeError(f"{name}: metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    res["metrics"] = {k: {"value": values.get(k, 0.0), "unit": units[k]} for k in units}
    return res


def report(name: str, res: dict, trace: int) -> None:
    for key, m in res["metrics"].items():
        print(f"{name:15s} {key:34s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        for key, value in sorted(res["observed"].items()):
            print(f"{name:15s} {key:34s} {value:>16.6g} (observed)")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{name:15s} {'failed_ops_frac':34s} {frac:>16.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    for op, secs in res.get("op_s", {}).items():
        print(f"{name:15s} {'op ' + op:34s} {secs:>16.6g} s (fastest)")
    if "passes" in res:
        print(f"{name:15s} {'passes':34s} {res['passes']:>16d}")
    if "trace_file" in res:
        print(f"{name:15s} spans written to {res['trace_file']}")
    for problem in res["failures"]:
        print(f"{name:15s} FAILED {problem}")
    for missed in res["negative_control_missed"]:
        print(f"{name:15s} NEGATIVE CONTROL NOT REJECTED: {missed}")


def main() -> int:
    ap = argparse.ArgumentParser(description="kst benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "kst", "__init__.py")):
        print("error: run from the repository root; src/kst is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + (CHILD_TIMEOUT_S if len(names) == 1
                                   else CHILD_TIMEOUT_S * len(names))
    print(f"run: seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()!r} "
          f"commit={git_commit()}")
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, env, spec, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if name == names[0]:
            v = res["versions"]
            print(f"run: python={v['python']} numpy={v['numpy']}")
        report(name, res, args.trace)
        results[name] = res

    ok = all(r["failed"] == 0 and not r["negative_control_missed"] and r["attempted"] > 0
             for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
