"""tools/digest.py prints one sha256 per run_pipeline report and state,
of the JSON text kst writes. Checked on the cheap zero target."""

import hashlib
import importlib.util
from pathlib import Path

from kst.cli import _json_text
from kst.decompose import state_to_json_dict
from kst.params import make_params
from kst.pipeline import PipelineCaps, run_pipeline
from kst.target import builtin_target

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


def test_one_line_per_report_and_state(monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "TARGETS", [("zero", lambda: builtin_target("zero", 2))])
    assert tool.main(["--seeds", "5,6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "5 zero report", "5 zero state", "6 zero report", "6 zero state"]
    # the digests of the texts kst writes, seed by seed
    for seed, (report_line, state_line) in zip((5, 6), (lines[:2], lines[2:])):
        caps = PipelineCaps(r_cap=3, seed=seed)
        _, report, state = run_pipeline(builtin_target("zero", 2), 0.25, caps, make_params(2))
        sha = lambda doc: hashlib.sha256(_json_text(doc).encode()).hexdigest()
        assert report_line.endswith(" " + sha(report.to_json_dict()))
        assert state_line.endswith(" " + sha(state_to_json_dict(state)))
    assert lines[1].split()[-1] != lines[3].split()[-1]  # the state records its seed
