"""tools/bench_pairs.py keeps every series it records and summarizes each
from the last lines of its runs. Checked on synthetic last lines; no
benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(commit, wall, rate):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "rate": {"value": rate, "unit": "1/s"}}
    return {"commit": commit, "last_line": json.dumps({"correct": True, "metrics": metrics})}


def _pair(seed, parent, change):
    return {"seed": seed, "first": "parent" if seed % 2 == 0 else "change",
            "parent": _side("p1", *parent), "change": _side("c1", *change)}


def test_summarize_medians_quartiles_and_wins():
    tool = _load_tool()
    pairs = [_pair(0, (4.0, 1.0), (3.0, 2.0)), _pair(1, (5.0, 1.0), (6.0, 2.0)),
             _pair(2, (6.0, 3.0), (4.0, 1.0)), _pair(3, (7.0, 1.0), (5.0, 2.0)),
             _pair(4, (8.0, 1.0), (7.0, 2.0))]
    summary = tool.summarize(pairs, END_TO_END)
    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 6.0, "q1": 5.0, "q3": 7.0, "iqr": 2.0}
    assert wall["change"] == {"median": 5.0, "q1": 4.0, "q3": 6.0, "iqr": 2.0}
    assert (wall["change_wins"], wall["pairs"], wall["median_gain"]) == (4, 5, 1.0)
    assert wall["gain_exceeds_parent_iqr"] is False
    # higher is better: the change wins where its rate exceeds the parent's
    rate = summary["rate"]
    assert (rate["parent"]["median"], rate["change"]["median"]) == (1.0, 2.0)
    assert (rate["change_wins"], rate["median_gain"]) == (4, 1.0)
    assert rate["gain_exceeds_parent_iqr"] is True


def test_new_series_keeps_earlier_ones(tmp_path):
    tool = _load_tool()
    path = tmp_path / "BENCH_w.json"
    earlier = {"change": "c0", "parent": "p0", "seconds": 40,
               "pairs": [_pair(9, (9.0, 1.0), (8.0, 1.0))], "summary": {"kept": "verbatim"}}
    path.write_text(json.dumps({"workload": "w", "command": tool.COMMAND, "series": [earlier]}))
    doc, series = tool.open_series(str(path), "w", 30)
    pairs = [_pair(0, (4.0, 1.0), (3.0, 2.0)), _pair(1, (5.0, 1.0), (4.5, 2.0))]
    tool.add_pair(str(path), doc, series, pairs[0], END_TO_END)
    on_disk = json.loads(path.read_text())
    assert on_disk["series"][0] == earlier
    assert "summary" not in on_disk["series"][1]  # one pair has no quartiles
    tool.add_pair(str(path), doc, series, pairs[1], END_TO_END)
    on_disk = json.loads(path.read_text())
    assert len(on_disk["series"]) == 2 and on_disk["series"][0] == earlier
    new = on_disk["series"][1]
    assert (new["change"], new["parent"], new["seconds"], new["pairs"]) == ("c1", "p1", 30, pairs)
    assert new["summary"] == tool.summarize(pairs, END_TO_END)
    assert new["summary"]["wall_s"]["change_wins"] == 2


def test_first_series_makes_the_file(tmp_path):
    tool = _load_tool()
    path = tmp_path / "BENCH_w.json"
    doc, series = tool.open_series(str(path), "w", 40)
    tool.add_pair(str(path), doc, series, _pair(0, (4.0, 1.0), (3.0, 2.0)), END_TO_END)
    on_disk = json.loads(path.read_text())
    assert (on_disk["workload"], on_disk["command"]) == ("w", tool.COMMAND)
    assert [s["change"] for s in on_disk["series"]] == ["c1"]


def test_other_workload_refused(tmp_path):
    tool = _load_tool()
    path = tmp_path / "BENCH_w.json"
    path.write_text(json.dumps({"workload": "w", "command": tool.COMMAND, "series": []}))
    with pytest.raises(SystemExit, match="holds workload 'w'"):
        tool.open_series(str(path), "other", 40)
    assert json.loads(path.read_text())["series"] == []
