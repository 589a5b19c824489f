"""sha256 digests of the reports and states run_pipeline gives on the
pipeline-n2 targets, and of the files the cli-net-n2 commands write, so
that two checkouts are compared bit for bit by one diff of two outputs.

    PYTHONPATH=src python3 tools/digest.py --seeds 5,302

First come four lines, one per command of ``CLI_STDOUT`` (``kst inner
--n 2 --gamma 10 --k 3``, ``kst inner --n 3 --k 2``, ``kst params --n 2``
and ``kst params --n 3``): ``kst ARGS SHA256``, the sha256 of what the
command prints. Then, for each seed and each target of the benchmark workload pipeline-n2
(product, gaussian and ridge at n = 2, and exp(-(x1^2+x2^2))), it runs
``run_pipeline(target, 0.25, PipelineCaps(r_cap=3, seed=S))`` as that
workload does and prints three lines, ``S TARGET report SHA256``,
``S TARGET state SHA256`` and ``S TARGET outer SHA256``: the sha256 of
the report's and the state's JSON text as ``kst`` writes them (the
report with sorted keys and indent 2, the state by ``state_json_text``:
sorted keys, compact separators), and of the outer nets' float64 knot
and value bytes, family by family (each family's knots, then its
values), which no file holds whole. Then it runs
the ``kst decompose`` and ``kst assemble`` commands of the workload
cli-net-n2 with ``--seed S`` in a temporary directory and prints
``S cli-net-n2 FILE SHA256`` for each file they write: state, csv,
report and net. Last comes ``S cli-net-n2 forward SHA256``, the sha256
of the outputs that the net file's network, rebuilt as a
``ReluNetwork``, gives by ``eval_batch`` at the workload's 500 points
``default_rng(S).random((500, 2))``. ``kst`` is imported from
PYTHONPATH, so the same tool digests any checkout, its forward pass
included.

With ``--n3`` each seed ends with one more line, ``S gaussian-n3 report
SHA256``: the report of ``run_pipeline(gaussian n=3, 0.25,
PipelineCaps(k_max=2, knot_budget=1_200_000, r_cap=1, seed=S))``, whose
outer nets have 1,093,039 breakpoint knots each (about 4 s per seed).
With ``--long`` each seed ends with two more lines, ``S product-r20
report SHA256`` and ``S product-r20 state SHA256``: the report and state
of ``run_pipeline(product, 0.25, PipelineCaps(r_cap=20, seed=S))``, whose
20 rounds have depths 2, 3, 3, ..., so that a round's outer values are
carried on from the round before it 19 times (about 1.5 s per seed).

Outer lines read only the nets' arrays, so run with an older
checkout's ``src`` on PYTHONPATH this tool digests its outer nets too.

State lines differ by design between checkouts that write different
state schemas: a ``kst-decomposition/3`` state holds each round's depth
and one coefficient vector over the depth's grid vectors, in compact
JSON, where a ``kst-decomposition/2`` state held, indented, each
family's layers with their coefficients in that family's bump order,
and a ``kst-decomposition/1`` state also the bump positions, plateaus
and slopes. Report lines and the cli-net-n2 csv, report, net and
forward lines do not depend on the schema.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from kst import cli
from kst.decompose import state_json_text
from kst.params import make_params
from kst.pipeline import PipelineCaps, run_pipeline
from kst.relunet import ReluNetwork
from kst.target import builtin_target, expression_target

EPS = 0.25
TARGETS = [
    ("product", lambda: builtin_target("product", 2)),
    ("gaussian", lambda: builtin_target("gaussian", 2)),
    ("ridge", lambda: builtin_target("ridge", 2)),
    ("expression", lambda: expression_target("exp(-(x1^2+x2^2))", 2)),
]

# The arguments of cli-net-n2's two commands; {seed} and the file names
# are filled in per run.
CLI_NET_N2 = [
    ["decompose", "--n", "2", "--f", "x1*x2", "--iters", "1", "--seed", "{seed}",
     "--out-state", "{state}", "--out-csv", "{csv}"],
    ["assemble", "--decomp", "{state}", "--eps", "0.5", "--seed", "{seed}",
     "--n-random", "500", "--knot-budget", "20000", "--uniform-inner",
     "--out-report", "{report}", "--out-net", "{net}"],
]
CLI_FILES = ("state", "csv", "report", "net")
# The commands whose printed output is digested once per invocation.
CLI_STDOUT = [
    ["inner", "--n", "2", "--gamma", "10", "--k", "3"],
    ["inner", "--n", "3", "--k", "2"],
    ["params", "--n", "2"],
    ["params", "--n", "3"],
]
# The n=3 run of --n3: its name, target and caps but the seed.
N3 = ("gaussian-n3", lambda: builtin_target("gaussian", 3),
      dict(k_max=2, knot_budget=1_200_000, r_cap=1))
# The long run of --long: its name, target and caps but the seed.
LONG = ("product-r20", lambda: builtin_target("product", 2), dict(r_cap=20))
FORWARD_POINTS = 500


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(seed: int, name: str, target) -> list[str]:
    """The report, state and outer-net lines of one run_pipeline call."""
    caps = PipelineCaps(r_cap=3, seed=seed)
    asm, report, state = run_pipeline(target, EPS, caps, params=make_params(target.dim))
    return [f"{seed} {name} report {sha256_text(cli._json_text(report.to_json_dict()))}",
            f"{seed} {name} state {sha256_text(state_json_text(state))}",
            f"{seed} {name} outer {outer_sha256(asm.phi_nets)}"]


def outer_sha256(nets) -> str:
    """The sha256 of each net's knot bytes, then its value bytes, net by net."""
    sha = hashlib.sha256()
    for net in nets:
        sha.update(net.knots.tobytes())
        sha.update(net.values.tobytes())
    return sha.hexdigest()


def n3_line(seed: int) -> str:
    """The report line of the n=3 run."""
    name, make, caps = N3
    target = make()
    _, report, _ = run_pipeline(target, EPS, PipelineCaps(**caps, seed=seed),
                                params=make_params(target.dim))
    return f"{seed} {name} report {sha256_text(cli._json_text(report.to_json_dict()))}"


def long_lines(seed: int) -> list[str]:
    """The report and state lines of the long run."""
    name, make, caps = LONG
    target = make()
    _, report, state = run_pipeline(target, EPS, PipelineCaps(**caps, seed=seed),
                                    params=make_params(target.dim))
    return [f"{seed} {name} report {sha256_text(cli._json_text(report.to_json_dict()))}",
            f"{seed} {name} state {sha256_text(state_json_text(state))}"]


def stdout_lines() -> list[str]:
    """The line of each command of CLI_STDOUT: its arguments and the
    sha256 of what it prints."""
    lines = []
    for argv in CLI_STDOUT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(argv) != 0:
                raise SystemExit(f"kst {' '.join(argv)} failed")
        lines.append(f"kst {' '.join(argv)} {sha256_text(out.getvalue())}")
    return lines


def cli_lines(seed: int) -> list[str]:
    """The lines of the four files the cli-net-n2 commands write, and
    of the forward pass of the net file's network."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, key) for key in CLI_FILES}
        for command in CLI_NET_N2:
            argv = [arg.format(seed=seed, **paths) for arg in command]
            if cli.main(argv) != 0:
                raise SystemExit(f"kst {argv[0]} failed at seed {seed}")
        lines = []
        for key, path in paths.items():
            with open(path, "rb") as fh:
                lines.append(f"{seed} cli-net-n2 {key} {hashlib.sha256(fh.read()).hexdigest()}")
        out = net_from_file(paths["net"]).eval_batch(
            np.random.default_rng(seed).random((FORWARD_POINTS, 2)))
        return lines + [f"{seed} cli-net-n2 forward {hashlib.sha256(out.tobytes()).hexdigest()}"]


def net_from_file(path: str) -> ReluNetwork:
    """The network of an ``--out-net`` file; its float texts are
    17-digit decimals, so each parses to the written value."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    units, edges = doc["units"], doc["edges"]
    return ReluNetwork(units["kind"], units["layer"], np.array(units["bias"], dtype=float),
                       edges["from"], edges["to"], np.array(edges["w"], dtype=float),
                       doc["meta"]["outputs"])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="comma-separated")
    ap.add_argument("--n3", action="store_true", help="add the n=3 report line per seed")
    ap.add_argument("--long", action="store_true",
                    help="add the report and state lines of the 20-round run per seed")
    args = ap.parse_args(argv)
    for line in stdout_lines():
        print(line, flush=True)
    for seed in (int(s) for s in args.seeds.split(",")):
        for name, make in TARGETS:
            for line in digest_lines(seed, name, make()):
                print(line, flush=True)
        for line in cli_lines(seed):
            print(line, flush=True)
        if args.n3:
            print(n3_line(seed), flush=True)
        if args.long:
            for line in long_lines(seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
