"""Command-line surface.

Subcommands: ``params`` (constants as JSON), ``inner`` (grid sweep of
the inner function as CSV), ``decompose`` (iterative construction,
state JSON plus decay CSV), ``assemble`` (network and report from a
saved decomposition), ``experiment`` (error-versus-size table over a
list of accuracies).

Exit codes: 0 success, 2 configuration or input error, 3 enumeration
budget guard, 4 internal consistency failure. Identical configurations
and seeds produce byte-identical output files; wall-clock timings go to
stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys

from .decompose import (
    DecompositionCaps,
    init_state,
    iterate,
    state_from_json_dict,
    state_json_text,
)
from .errors import (
    BudgetError,
    ConstraintViolation,
    DomainError,
    ExpressionError,
    InternalCheckError,
)
from .inner import InnerEvaluator
from .params import f17, lambda_coeffs, make_params
from .pipeline import PipelineCaps, assemble_from_state, run_pipeline
from .relunet import json_parts
from .target import builtin_names, builtin_target, expression_target


def _remove(path: str, opened: os.stat_result) -> None:
    """Remove path if it still names the regular file opened there, never
    a link or device the output went through."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(path)):
            os.remove(path)


def _write_file(path: str, parts, binary: bool = False) -> os.stat_result:
    """Write parts to path and return the stat of the file opened. A write
    or close that fails removes the file, so a failed command leaves no
    partial output; a path whose open fails is left as it was."""
    fh = open(path, "wb") if binary else open(path, "w", encoding="utf-8", newline="\n")
    opened = os.fstat(fh.fileno())
    try:
        with fh:
            fh.writelines(parts)
    except BaseException:
        _remove(path, opened)
        raise
    return opened


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_file(path, [text])


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _resolve_target(spec: str, n: int):
    if spec in builtin_names():
        return builtin_target(spec, n)
    return expression_target(spec, n)


def _params_from_args(args):
    return make_params(
        args.n,
        m=args.m,
        gamma=args.gamma,
        delta=args.delta,
        eta=args.eta,
        lambda_depth=args.lambda_depth,
    )


def _add_param_flags(p, with_n=True):
    if with_n:
        p.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    p.add_argument("--m", type=int, default=None, help="outer count minus one")
    p.add_argument("--gamma", type=int, default=None, help="base (>= m + 2)")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--lambda-depth", type=int, default=None, dest="lambda_depth")


def cmd_params(args) -> int:
    p = _params_from_args(args)
    lam = lambda_coeffs(p)
    out = {"params": p.to_json_dict(), "lambdas": lam.to_json_dict()}
    _write_text(args.out, _json_text(out))
    return 0


def cmd_inner(args) -> int:
    p = make_params(args.n, gamma=args.gamma)
    table = InnerEvaluator(p).float_table(args.k)  # refuses k < 1 and oversized grids
    scale = p.gamma**args.k
    lines = ["d,psi"]
    lines.extend(f"{f17(i / scale)},{f17(v)}" for i, v in enumerate(table[:scale].tolist()))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_decompose(args) -> int:
    if args.iters < 0:
        raise DomainError(f"--iters must be at least 0, got {args.iters}")
    params = _params_from_args(args)
    target = _resolve_target(args.f, args.n)
    caps = DecompositionCaps(
        k_max=args.k_max,
        grid_budget=args.grid_budget,
        audit_resolution=args.audit_resolution,
        n_random=args.n_random,
        seed=args.seed,
    )
    state = init_state(target, params, caps)
    for _ in range(args.iters):
        state = iterate(state)
    lines = ["r,residual_norm,eta_power_bound"]
    for r in range(1, state.r + 1):
        lines.append(
            f"{r},{f17(state.residual_norms[r])},{f17(params.eta**r)}"
        )
    # both texts are rendered first, and a failed CSV removes the state file
    state_text, csv_text = state_json_text(state), "\n".join(lines) + "\n"
    if args.out_state:
        written = _write_file(args.out_state, [state_text])
    try:
        _write_text(args.out_csv, csv_text)
    except BaseException:
        if args.out_state:
            _remove(args.out_state, written)
        raise
    print(
        f"decomposed {args.f!r} to r={state.r}: k={list(state.k_list)} "
        f"norms={[float(f17(v)) for v in state.residual_norms]}",
        file=sys.stderr,
    )
    return 0


def cmd_assemble(args) -> int:
    with open(args.decomp, encoding="utf-8") as fh:
        state = state_from_json_dict(json.load(fh))
    caps = PipelineCaps(
        knot_budget=args.knot_budget,
        align_inner_knots=not args.uniform_inner,
        n_random=args.n_random,
        seed=args.seed,
    )
    asm, report = assemble_from_state(state, args.eps, caps)
    # the net is encoded before any output is opened, and written before
    # the report, whose failure removes it: a failure leaves no file
    if args.out_net is not None:
        net_parts = json_parts(asm.network.to_json_dict()) + [b"\n"]
        net = _write_file(args.out_net, net_parts, binary=True)
    try:
        _write_text(args.out_report, _json_text(report.to_json_dict()))
    except BaseException:
        if args.out_net is not None:
            _remove(args.out_net, net)
        raise
    timings = ", ".join(f"{k}={v:.2f}s" for k, v in report.timings.items())
    print(f"assembled: W={report.W} L={report.L} ({timings})", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    try:
        eps_list = [float(tok) for tok in args.eps_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ExpressionError(f"eps list {args.eps_list!r} is not a list of numbers") from exc
    if not eps_list:
        raise ExpressionError("empty eps list")
    params = _params_from_args(args)
    target = _resolve_target(args.f, args.n)
    caps = PipelineCaps(
        r_cap=args.r_cap,
        k_max=args.k_max,
        knot_budget=args.knot_budget,
        seed=args.seed,
        n_random=args.n_random,
    )
    lines = [
        "eps,r_target,r_used,W,L,err_f_fr_grid,err_fr_net_grid,err_f_net_grid"
    ]
    for eps in eps_list:
        _, rep, _ = run_pipeline(target, eps, caps, params=params)
        lines.append(
            ",".join(
                [
                    f17(eps),
                    str(rep.r_target),
                    str(rep.r_used),
                    str(rep.W),
                    str(rep.L),
                    f17(rep.errors_grid["f_minus_fr"]),
                    f17(rep.errors_grid["fr_minus_net"]),
                    f17(rep.errors_grid["f_minus_net"]),
                ]
            )
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kst",
        description="Constructive superposition decomposition and its ReLU "
        "network assembly, at desk scale.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print construction constants")
    _add_param_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("inner", help="inner function on a grid, as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("decompose", help="run the outer construction")
    _add_param_flags(p)
    p.add_argument("--f", required=True, help="builtin name or expression")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--grid-budget", type=int, default=10**6, dest="grid_budget")
    p.add_argument("--audit-res", type=int, default=None, dest="audit_resolution")
    p.add_argument("--n-random", type=int, default=1000, dest="n_random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-state", default=None, dest="out_state")
    p.add_argument("--out-csv", default=None, dest="out_csv")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("assemble", help="build and audit the network")
    p.add_argument("--decomp", required=True, help="saved decomposition JSON")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--knot-budget", type=int, default=10**6, dest="knot_budget")
    p.add_argument("--uniform-inner", action="store_true", dest="uniform_inner")
    p.add_argument("--n-random", type=int, default=10**4, dest="n_random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-report", default=None, dest="out_report")
    p.add_argument("--out-net", default=None, dest="out_net")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("experiment", help="error versus size over eps values")
    _add_param_flags(p)
    p.add_argument("--f", required=True)
    p.add_argument("--eps-list", required=True, dest="eps_list")
    p.add_argument("--r-cap", type=int, default=3, dest="r_cap")
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--knot-budget", type=int, default=10**6, dest="knot_budget")
    p.add_argument("--n-random", type=int, default=10**4, dest="n_random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConstraintViolation, ExpressionError, DomainError,
            OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget guard: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
