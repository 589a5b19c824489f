"""tools/digest.py prints one sha256 per kst inner and kst params
command it pins, one per run_pipeline report and state, of the JSON
text kst writes, one per file the cli-net-n2 commands write, and one
of the net file's forward pass. Checked on the cheap zero target; the
n=3 run of --n3 is run once in full, and the 20-round run of --long is
checked on the zero target only."""

import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kst import relunet
from kst.cli import _json_text, main
from kst.decompose import state_json_text
from kst.errors import BudgetError
from kst.params import make_params
from kst.pipeline import PipelineCaps, run_pipeline
from kst.target import builtin_target
from oracles import take_forward

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("digest", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_are_the_pipeline_workloads():
    tool = _load_tool()
    assert [name for name, _ in tool.TARGETS] == ["product", "gaussian", "ridge", "expression"]
    assert [make().dim for _, make in tool.TARGETS] == [2, 2, 2, 2]


def test_cli_commands_are_the_cli_net_workload():
    decompose, assemble = _load_tool().CLI_NET_N2
    assert decompose == [
        "decompose", "--n", "2", "--f", "x1*x2", "--iters", "1", "--seed", "{seed}",
        "--out-state", "{state}", "--out-csv", "{csv}"]
    assert assemble == [
        "assemble", "--decomp", "{state}", "--eps", "0.5", "--seed", "{seed}",
        "--n-random", "500", "--knot-budget", "20000", "--uniform-inner",
        "--out-report", "{report}", "--out-net", "{net}"]


def _cheap_cli(tool):
    """cli-net-n2's commands on the zero target with a small outer net."""
    decompose, assemble = tool.CLI_NET_N2
    return [[arg.replace("x1*x2", "zero") for arg in decompose],
            [arg.replace("20000", "2000") for arg in assemble]]


def test_printed_outputs_come_first(monkeypatch, capsys):
    tool = _load_tool()
    assert tool.CLI_STDOUT == [
        ["inner", "--n", "2", "--gamma", "10", "--k", "3"], ["inner", "--n", "3", "--k", "2"],
        ["params", "--n", "2"], ["params", "--n", "3"]]
    monkeypatch.setattr(tool, "TARGETS", [])
    monkeypatch.setattr(tool, "cli_lines", lambda seed: [f"{seed} cli"])
    assert tool.main(["--seeds", "5,6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4:] == ["5 cli", "6 cli"]
    # each line against the text the command prints
    for argv, line in zip(tool.CLI_STDOUT, lines):
        assert main(argv) == 0
        sha = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert line == f"kst {' '.join(argv)} {sha}"


def test_one_line_per_report_and_state(monkeypatch, capsys, tmp_path):
    tool = _load_tool()
    monkeypatch.setattr(tool, "CLI_STDOUT", [])
    monkeypatch.setattr(tool, "TARGETS", [("zero", lambda: builtin_target("zero", 2))])
    monkeypatch.setattr(tool, "CLI_NET_N2", _cheap_cli(tool))
    assert tool.main(["--seeds", "5,6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = ["state", "csv", "report", "net"]
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        f"{seed} {what}" for seed in (5, 6)
        for what in ["zero report", "zero state", "zero outer"]
        + [f"cli-net-n2 {f}" for f in files + ["forward"]]]
    # the digests of the files the commands write and of the forward pass
    for seed, cli_lines in zip((5, 6), (lines[3:8], lines[11:16])):
        paths = {f: str(tmp_path / f"{seed}-{f}") for f in files}
        for command in tool.CLI_NET_N2:
            assert main([arg.format(seed=seed, **paths) for arg in command]) == 0
        for f, line in zip(files, cli_lines):
            assert line.endswith(" " + hashlib.sha256(Path(paths[f]).read_bytes()).hexdigest())
        net = tool.net_from_file(paths["net"])
        assert net.W == json.loads(Path(paths["net"]).read_text())["meta"]["W"]
        block = relunet.FORWARD_BLOCK_ELEMENTS // max(len(net.w), len(net.layer))
        out = take_forward(net, np.random.default_rng(seed).random((500, 2)), block)
        assert cli_lines[4].endswith(" " + hashlib.sha256(out.tobytes()).hexdigest())
    # the digests of the texts kst writes and of the outer nets, seed by seed
    for seed, (report_line, state_line, outer_line) in zip((5, 6), (lines[:3], lines[8:11])):
        caps = PipelineCaps(r_cap=3, seed=seed)
        asm, report, state = run_pipeline(builtin_target("zero", 2), 0.25, caps, make_params(2))
        sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
        assert report_line.endswith(" " + sha(_json_text(report.to_json_dict())))
        assert state_line.endswith(" " + sha(state_json_text(state)))
        arrays = b"".join(net.knots.tobytes() + net.values.tobytes() for net in asm.phi_nets)
        assert outer_line.endswith(" " + hashlib.sha256(arrays).hexdigest())
    assert lines[1].split()[-1] != lines[9].split()[-1]  # the state records its seed


def test_outer_line_reads_every_knot_and_value():
    # a one-ulp change of any knot or value, or a swap of two families,
    # changes the outer digest
    tool = _load_tool()
    asm, _, _ = run_pipeline(builtin_target("product", 2), 0.5, PipelineCaps(r_cap=1, seed=5))
    nets = asm.phi_nets
    base = tool.outer_sha256(nets)
    assert base == tool.outer_sha256([replace(net) for net in nets])
    for j, field in ((0, "knots"), (len(nets) - 1, "values")):
        array = getattr(nets[j], field).copy()
        array[len(array) // 2] = np.nextafter(array[len(array) // 2], np.inf)
        changed = nets[:j] + [replace(nets[j], **{field: array})] + nets[j + 1 :]
        assert tool.outer_sha256(changed) != base
    assert tool.outer_sha256([nets[1], nets[0], *nets[2:]]) != base


def test_n3_adds_one_report_line_per_seed(monkeypatch, capsys):
    tool = _load_tool()
    name, make, caps = tool.N3
    assert name == "gaussian-n3" and make().dim == 3
    assert make().provenance == {"kind": "builtin", "name": "gaussian"}
    assert caps == dict(k_max=2, knot_budget=1_200_000, r_cap=1)
    # the same line on the cheap zero target, after each seed's other lines
    monkeypatch.setattr(tool, "CLI_STDOUT", [])
    monkeypatch.setattr(tool, "TARGETS", [])
    monkeypatch.setattr(tool, "cli_lines", lambda seed: [f"{seed} cli"])
    monkeypatch.setattr(tool, "N3", ("zero-n3", lambda: builtin_target("zero", 3), caps))
    assert tool.main(["--seeds", "5,6"]) == 0
    assert capsys.readouterr().out.splitlines() == ["5 cli", "6 cli"]
    assert tool.main(["--seeds", "5,6", "--n3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0::2] == ["5 cli", "6 cli"]
    for seed, line in zip((5, 6), lines[1::2]):
        _, report, _ = run_pipeline(builtin_target("zero", 3), 0.25,
                                    PipelineCaps(**caps, seed=seed), make_params(3))
        sha = hashlib.sha256(_json_text(report.to_json_dict()).encode()).hexdigest()
        assert line == f"{seed} zero-n3 report {sha}"


def test_long_adds_two_lines_per_seed(monkeypatch, capsys):
    tool = _load_tool()
    name, make, caps = tool.LONG
    assert name == "product-r20" and make().provenance == {"kind": "builtin", "name": "product"}
    assert caps == dict(r_cap=20)
    # the same lines on the cheap zero target, after each seed's other lines
    monkeypatch.setattr(tool, "CLI_STDOUT", [])
    monkeypatch.setattr(tool, "TARGETS", [])
    monkeypatch.setattr(tool, "cli_lines", lambda seed: [f"{seed} cli"])
    monkeypatch.setattr(tool, "LONG", ("zero-r20", lambda: builtin_target("zero", 2), caps))
    assert tool.main(["--seeds", "5,6", "--long"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0::3] == ["5 cli", "6 cli"]
    for seed, (report_line, state_line) in zip((5, 6), (lines[1:3], lines[4:6])):
        _, report, state = run_pipeline(builtin_target("zero", 2), 0.25,
                                        PipelineCaps(**caps, seed=seed), make_params(2))
        assert state.r == 20
        sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
        assert report_line == f"{seed} zero-r20 report {sha(_json_text(report.to_json_dict()))}"
        assert state_line == f"{seed} zero-r20 state {sha(state_json_text(state))}"


def test_n3_run_end_to_end():
    # the gaussian at n = 3 with the caps of --n3 (depth 2 and a knot
    # budget above its 1,093,039 breakpoints per outer net): one round
    # that meets acceptance 5, 7a and 8, on a network too large to build
    _, make, caps = _load_tool().N3
    asm, rep, state = run_pipeline(make(), 0.25, PipelineCaps(**caps, seed=5))
    p = state.params
    assert (p.n, p.m) == (3, 6)
    assert rep.k_list == [2]
    assert rep.residual_norms[1] == pytest.approx(0.8404, abs=1e-4)
    assert rep.residual_norms[1] <= p.eta == pytest.approx(0.9536, abs=1e-4)
    assert rep.errors_grid["fr_minus_net"] <= 0.25
    assert rep.errors_grid["fr_minus_net"] == pytest.approx(5.4e-8, rel=0.05)
    psi_part = p.n * (p.m + 1) * asm.psi_net.W
    phi_part = sum(net.W for net in asm.phi_nets)
    assert (psi_part, phi_part, asm.aggregation_weights) == (571_326, 22_953_849, 46)
    assert rep.W == asm.W == psi_part + phi_part + asm.aggregation_weights == 23_525_221
    assert asm.unit_count == 7_841_773 > relunet.MATERIALIZE_UNIT_CAP
    with pytest.raises(BudgetError, match="7841773 units exceeds the materialization cap"):
        asm.network
