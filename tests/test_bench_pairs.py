"""tools/bench_pairs.py keeps every series it records, summarizes each
from the last lines of its runs and prints the summary and each
metric's no-regression verdict when the series ends, chains the
series' ratios and compiles each checkout's source first. Checked on synthetic last lines and temporary checkouts whose
runs print fixed lines; no benchmark is run."""

import importlib.util
import json
import os
import subprocess
import sys
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
    # change/parent per pair: 0.75, 1.2, 0.667, 0.714, 0.875
    assert wall["median_ratio"] == 0.75
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
    assert [p["ratio"] for p in new["pairs"]] == [{"wall_s": 0.75, "rate": 2.0},
                                                  {"wall_s": 0.9, "rate": 2.0}]


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


def _series(parent, change, walls):
    """A recorded series of pairs (parent wall, change wall), rate 1."""
    pairs = [_pair(i, (p, 1.0), (c, 1.0)) for i, (p, c) in enumerate(walls)]
    for pair in pairs:
        pair["parent"]["commit"], pair["change"]["commit"] = parent, change
    return {"change": change, "parent": parent, "seconds": 40, "pairs": pairs}


def test_chain_keeps_the_last_series_per_parent(tmp_path):
    tool = _load_tool()
    doc = {"workload": "w", "command": tool.COMMAND, "series": [
        _series("p1", "c1", [(4.0, 2.0), (4.0, 2.0), (4.0, 2.0)]),  # spanned by the next
        _series("p1", "c2", [(4.0, 1.0), (4.0, 1.2), (4.0, 0.8)]),  # ratios 0.25, 0.3, 0.2
        _series("c2", "c3", [(2.0, 1.0), (4.0, 3.0), (4.0, 2.0)]),  # ratios 0.5, 0.75, 0.5
    ]}
    chained = tool.chain(doc)
    assert list(chained) == ["wall_s", "rate"]
    count, product = chained["wall_s"]
    assert count == 2 and product == pytest.approx(0.5 * 0.25)
    assert chained["rate"] == (2, 1.0)
    path = tmp_path / "BENCH_w.json"
    path.write_text(json.dumps(doc))
    before = path.read_bytes()
    proc = subprocess.run([sys.executable, str(TOOL_PATH), "--chain", str(path)],
                          stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout.splitlines() == ["wall_s 0.125 over 2 series", "rate 1.000 over 2 series"]
    assert path.read_bytes() == before


def test_compile_sources_writes_bytecode_that_a_later_run_reads(tmp_path, monkeypatch):
    tool = _load_tool()
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    mod = pkg / "mod.py"
    mod.write_text("VALUE = 1\n")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # as PYTHONDONTWRITEBYTECODE=1
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)  # timestamp-checked bytecode
    series = {"pairs": []}
    tool.compile_sources(series, [str(tmp_path)])
    assert series == {"pairs": [], "compiled_src": True}
    assert Path(importlib.util.cache_from_source(str(mod))).is_file()
    # a source of the same size and time but another value: a run that
    # reads the bytecode sees the compiled value
    stat = mod.stat()
    mod.write_text("VALUE = 2\n")
    os.utime(mod, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tmp_path / "src"))
    proc = subprocess.run([sys.executable, "-c", "import pkg.mod; print(pkg.mod.VALUE)"],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout.strip() == "1"


def test_summary_lines_name_medians_ratio_wins_and_spread():
    tool = _load_tool()
    pairs = [_pair(0, (4.0, 1.0), (3.0, 2.0)), _pair(1, (5.0, 1.0), (6.0, 2.0)),
             _pair(2, (6.0, 3.0), (4.0, 1.0)), _pair(3, (7.0, 1.0), (5.0, 2.0)),
             _pair(4, (8.0, 1.0), (7.0, 2.0))]
    assert tool.summary_lines(tool.summarize(pairs, END_TO_END)) == [
        "wall_s: parent 6 s, change 5 s, median ratio 0.750, change won 4 of 5, "
        "gain does not exceed parent IQR",
        "rate: parent 1 1/s, change 2 1/s, median ratio 2.000, change won 4 of 5, "
        "gain exceeds parent IQR",
    ]
    assert tool.summary_lines({}) == []


def _verdicts(parent_walls, change_walls, parent_rates, change_rates):
    pairs = [_pair(i, sides[:2], sides[2:]) for i, sides in
             enumerate(zip(parent_walls, parent_rates, change_walls, change_rates))]
    summary = _load_tool().summarize(pairs, END_TO_END)
    return summary["wall_s"]["verdict"], summary["rate"]["verdict"]


STEADY = [10.0, 10.5, 11.0, 11.5, 12.0]  # median 11, IQR 1: 9% of the median
WIDE = [4.0, 6.0, 8.0, 10.0, 12.0]  # median 8, IQR 4: 50% of the median


@pytest.mark.parametrize("parent, change, want", [
    # the change's median is 9% worse, within the bound of 25%
    ((STEADY, STEADY), ([11.0, 11.5, 12.0, 12.5, 13.0], [9.0, 9.5, 10.0, 10.5, 11.0]),
     ("within bound", "within bound")),
    # 36% worse in wall time (lower is better) and 27% in rate (higher is better)
    ((STEADY, STEADY), ([14.0, 14.5, 15.0, 15.5, 16.0], [7.0, 7.5, 8.0, 8.5, 9.0]),
     ("worse", "worse")),
    # the parent spreads by more than the bound: a 12% better median and
    # a 25% worse one cannot be told from noise
    ((WIDE, WIDE), ([5.0, 6.0, 7.0, 8.0, 9.0], [4.0, 5.0, 6.0, 7.0, 8.0]),
     ("unresolved", "unresolved")),
    # unless every change run beats every parent run
    ((WIDE, WIDE), ([1.0, 1.5, 2.0, 2.5, 3.0], [13.0, 14.0, 15.0, 16.0, 17.0]),
     ("within bound", "within bound")),
])
def test_verdict_per_metric_against_its_bound(parent, change, want):
    assert _verdicts(parent[0], change[0], parent[1], change[1]) == want


def test_verdict_lines_name_each_metric_and_its_bound():
    tool = _load_tool()
    pairs = [_pair(i, (w, 1.0), (w + 5.0, 1.0)) for i, w in enumerate(STEADY)]
    assert tool.verdict_lines(tool.summarize(pairs, END_TO_END)) == [
        "wall_s: worse (bound 0.25 of the parent's median)",
        "rate: within bound (bound 0.25 of the parent's median)",
    ]
    assert tool.verdict_lines({}) == []


# A checkout's perfbench/run.py that prints a run record and a last line
# whose wall_s is WALL + seed / 100 and whose rate is 1
FAKE_RUN = """import argparse, json
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
seed = int(ap.parse_args().seed)
print(f"run: seed={seed} commit=COMMIT")
metrics = {"wall_s": {"value": WALL + seed / 100, "unit": "s"},
           "rate": {"value": 1.0, "unit": "1/s"}}
print(json.dumps({"correct": True, "metrics": metrics}))
"""


def test_series_end_prints_the_summary(tmp_path):
    for side, wall in (("parent", 2.0), ("change", 1.5)):
        checkout = tmp_path / side
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "src").mkdir()
        (checkout / "perfbench" / "run.py").write_text(
            FAKE_RUN.replace("COMMIT", side[0] + "1").replace("WALL", str(wall)))
        (checkout / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": END_TO_END, "run_seconds": 1}))
    out = tmp_path / "out"
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, str(TOOL_PATH), "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--workload", "w", "--seeds", "1,2,3"],
        cwd=out, stdout=subprocess.PIPE, text=True, check=True)
    doc = json.loads((out / "BENCH_w.json").read_text())
    tool, summary = _load_tool(), doc["series"][0]["summary"]
    assert proc.stdout.splitlines()[-4:] == tool.summary_lines(summary) + tool.verdict_lines(summary)
    assert proc.stdout.splitlines()[-4] == ("wall_s: parent 2.02 s, change 1.52 s, median ratio "
                                            "0.752, change won 3 of 3, gain exceeds parent IQR")
    assert proc.stdout.splitlines()[-2] == "wall_s: within bound (bound 0.25 of the parent's median)"
