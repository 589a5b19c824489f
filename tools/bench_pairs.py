"""Alternated parent/change runs of one benchmark workload, kept on disk.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 301,302,...
    python3 tools/bench_pairs.py --chain BENCH_NAME.json

Each DIR is a checkout of one commit. Pair i uses the i-th seed and runs
the parent first when i is even, the change first when i is odd, each as
``python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0``
from its checkout, with T the run_seconds of the change's BENCHMARK.json.
Before the first pair, stdlib compileall writes the bytecode of each
checkout's src/, so that no run compiles the package, even under
PYTHONDONTWRITEBYTECODE=1, and set-up time and peak memory do not follow
the size of the source; the series records this as ``compiled_src``.
The output file, BENCH_<NAME>.json in the current directory, keeps one
series per invocation, appended after the series already in it. A series
names its change and parent commits and T, and keeps, per pair, the
seed, the side that ran first, both commit ids, the last stdout line
of each run verbatim and the change/parent ratio of each end-to-end
metric of BENCHMARK.json; and, per metric, each side's median and
quartiles, the median ratio and how many pairs the change won. The file
is rewritten after every pair, so an interrupted series keeps the pairs
it finished. When the series ends, one line per end-to-end metric gives
both medians, the median ratio, the change's wins and whether the median
gain exceeds the parent's interquartile range; then one line per metric
gives its no-regression verdict against the metric's bound in
BENCHMARK.json (``verdict``).

``--chain`` only reads a file: per end-to-end metric it prints the
product of the series' median ratios, taking for each parent commit
only the last series recorded against it (a later series of the same
parent spans the earlier one), so the product chains the changes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0"


def run_side(checkout: str, workload: str, seed: int, seconds: int) -> tuple[str, str]:
    """The commit id from the run record and the run's last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record = next(line for line in lines if line.startswith("run: seed="))
    return record.rsplit("commit=", 1)[1], lines[-1]


def compile_sources(series: dict, checkouts: list[str]) -> None:
    """Write the bytecode of each checkout's src/ and record it in series."""
    for checkout in checkouts:
        if not compileall.compile_dir(os.path.join(checkout, "src"), quiet=1):
            raise SystemExit(f"compileall failed on {checkout}/src")
    series["compiled_src"] = True


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def metric(pair: dict, side: str, name: str) -> float:
    return json.loads(pair[side]["last_line"])["metrics"][name]["value"]


def ratio(pair: dict, name: str) -> float:
    """The change/parent ratio of one metric in one pair."""
    return metric(pair, "change", name) / metric(pair, "parent", name)


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for m in end_to_end:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        side = {s: [metric(p, s, name) for p in pairs] for s in ("parent", "change")}
        stats = {s: spread(v) for s, v in side.items()}
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        wins = sum(sign * (a - b) > 0 for a, b in zip(side["parent"], side["change"]))
        out[name] = stats | {
            "unit": m["unit"],
            "better": m["better"],
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gain": gap,
            "median_ratio": statistics.median(ratio(p, name) for p in pairs),
            "gain_exceeds_parent_iqr": gap > stats["parent"]["iqr"],
            "bound": m["bound"],
            "verdict": verdict(side, stats, sign, m["bound"]),
        }
    return out


def verdict(side: dict, stats: dict, sign: int, bound: float) -> str:
    """The no-regression verdict of one metric, from each side's runs,
    their spread and the metric's bound, a fraction of the parent's median:
    "unresolved" when the parent's IQR is wider than the bound and not
    every change run beats every parent run, else "worse" when the
    change's median is worse than the parent's by more than the bound,
    else "within bound"."""
    allowed = bound * abs(stats["parent"]["median"])
    beats_all = all(sign * (p - c) > 0 for p in side["parent"] for c in side["change"])
    if stats["parent"]["iqr"] > allowed and not beats_all:
        return "unresolved"
    worse = sign * (stats["change"]["median"] - stats["parent"]["median"])
    return "worse" if worse > allowed else "within bound"


def summary_lines(summary: dict) -> list[str]:
    """One line per metric of a series summary: both medians, the median
    change/parent ratio, the change's wins and whether the median gain
    exceeds the parent's interquartile range."""
    return [f"{name}: parent {m['parent']['median']:.4g} {m['unit']}, "
            f"change {m['change']['median']:.4g} {m['unit']}, "
            f"median ratio {m['median_ratio']:.3f}, change won {m['change_wins']} of {m['pairs']}, "
            f"gain {'exceeds' if m['gain_exceeds_parent_iqr'] else 'does not exceed'} parent IQR"
            for name, m in summary.items()]


def verdict_lines(summary: dict) -> list[str]:
    """One line per metric of a series summary: its no-regression verdict."""
    return [f"{name}: {m['verdict']} (bound {m['bound']:g} of the parent's median)"
            for name, m in summary.items()]


def open_series(path: str, workload: str, seconds: int) -> tuple[dict, dict]:
    """The document at path, or a new one, with an empty series appended."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["workload"] != workload:
            raise SystemExit(f"{path} holds workload {doc['workload']!r}, not {workload!r}")
    else:
        doc = {"workload": workload, "command": COMMAND, "series": []}
    series = {"change": None, "parent": None, "seconds": seconds, "pairs": []}
    doc["series"].append(series)
    return doc, series


def add_pair(path: str, doc: dict, series: dict, pair: dict, end_to_end: list[dict]) -> None:
    """Append pair to series, summarize the series and rewrite path."""
    pair["ratio"] = {m["name"]: ratio(pair, m["name"]) for m in end_to_end}
    series["pairs"].append(pair)
    series["change"], series["parent"] = pair["change"]["commit"], pair["parent"]["commit"]
    if len(series["pairs"]) >= 2:
        series["summary"] = summarize(series["pairs"], end_to_end)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def chain(doc: dict) -> dict:
    """Per metric of the first run, the number of series chained and
    the product of their median change/parent ratios, over the last
    series recorded per parent commit."""
    last = list({s["parent"]: s for s in doc["series"] if s["pairs"]}.values())
    out = {}
    for name in json.loads(last[0]["pairs"][0]["parent"]["last_line"])["metrics"]:
        medians = [statistics.median(ratio(p, name) for p in s["pairs"]) for s in last]
        out[name] = (len(last), math.prod(medians))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chain", metavar="FILE", help="print the chained ratios of FILE and stop")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", help="comma-separated, one per pair")
    args = ap.parse_args()
    if args.chain:
        with open(args.chain, encoding="utf-8") as fh:
            for name, (count, product) in chain(json.load(fh)).items():
                print(f"{name} {product:.3f} over {count} series")
        return 0
    if not (args.parent and args.change and args.workload and args.seeds):
        ap.error("--parent, --change, --workload and --seeds are required without --chain")
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end, seconds = bench["end_to_end"], bench["run_seconds"]
    out = f"BENCH_{args.workload}.json"
    doc, series = open_series(out, args.workload, seconds)
    compile_sources(series, [args.parent, args.change])
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            commit, last = run_side(getattr(args, side), args.workload, seed, seconds)
            pair[side] = {"commit": commit, "last_line": last}
        add_pair(out, doc, series, pair, end_to_end)
        print(f"pair {i}: seed {seed}, {order[0]} first, done", flush=True)
    summary = series.get("summary", {})
    for line in summary_lines(summary) + verdict_lines(summary):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
