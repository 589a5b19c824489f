"""sha256 digests of the reports and states run_pipeline gives on the
pipeline-n2 targets, so that two checkouts are compared bit for bit by
one diff of two outputs.

    PYTHONPATH=src python3 tools/digest.py --seeds 5,302

For each seed and each target of the benchmark workload pipeline-n2
(product, gaussian and ridge at n = 2, and exp(-(x1^2+x2^2))), it runs
``run_pipeline(target, 0.25, PipelineCaps(r_cap=3, seed=S))`` as that
workload does and prints two lines, ``S TARGET report SHA256`` and
``S TARGET state SHA256``: the sha256 of the report's and the state's
JSON text as ``kst`` writes them (sorted keys, indent 2). ``kst`` is
imported from PYTHONPATH, so the same tool digests any checkout.

State lines differ by design between checkouts that write different
state schemas: a ``kst-decomposition/2`` state holds each layer's depth
and coefficients but no bump positions, plateaus or slopes, and no
target dimension or sup-norm bound, which ``kst-decomposition/1`` states
held. Report lines do not depend on the schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from kst.decompose import state_to_json_dict
from kst.params import make_params
from kst.pipeline import PipelineCaps, run_pipeline
from kst.target import builtin_target, expression_target

EPS = 0.25
TARGETS = [
    ("product", lambda: builtin_target("product", 2)),
    ("gaussian", lambda: builtin_target("gaussian", 2)),
    ("ridge", lambda: builtin_target("ridge", 2)),
    ("expression", lambda: expression_target("exp(-(x1^2+x2^2))", 2)),
]


def sha256_json(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(seed: int, name: str, target) -> list[str]:
    """The report and state lines of one run_pipeline call."""
    caps = PipelineCaps(r_cap=3, seed=seed)
    _, report, state = run_pipeline(target, EPS, caps, params=make_params(target.dim))
    return [f"{seed} {name} report {sha256_json(report.to_json_dict())}",
            f"{seed} {name} state {sha256_json(state_to_json_dict(state))}"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="comma-separated")
    args = ap.parse_args(argv)
    for seed in (int(s) for s in args.seeds.split(",")):
        for name, make in TARGETS:
            for line in digest_lines(seed, name, make()):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
