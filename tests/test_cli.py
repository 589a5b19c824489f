import errno
import functools
import json
import os
import tempfile

import numpy as np
import pytest

import kst.cli
import kst.relunet
from kst.cli import main
from kst.decompose import family_grid, state_from_json_dict
from oracles import dag_forward, json_network, net_json_text


def run(args):
    return main(args)


class TestParamsCmd:
    def test_defaults_json(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["params", "--n", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["params"]["gamma"] == 6
        assert data["params"]["m"] == 4
        assert data["params"]["a"] == {"num": "1", "den": "30"}

    def test_n3_defaults(self, capsys):
        assert run(["params", "--n", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["params"]["gamma"] == 8
        assert data["params"]["m"] == 6

    def test_constraint_violation_exit_2(self):
        assert run(["params", "--n", "2", "--gamma", "5"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--delta", "--eta"])
@pytest.mark.parametrize(
    "command",
    [["params"], ["decompose", "--f", "zero", "--iters", "0"],
     ["experiment", "--f", "zero", "--eps-list", "0.5"]],
    ids=["params", "decompose", "experiment"],
)
def test_non_finite_contraction_exit_2(capsys, command, flag, value):
    # "--eta=-inf": as a separate word, argparse would read -inf as a flag
    assert run(command + ["--n", "2", f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert "error: constraint violated: " in err and "Traceback" not in err


class TestInnerCmd:
    def test_level_three_rows(self, tmp_path):
        out = tmp_path / "psi.csv"
        assert run(["inner", "--n", "2", "--gamma", "10", "--k", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,psi"
        assert len(lines) == 1001

    def test_level_one_identity(self, tmp_path):
        out = tmp_path / "psi.csv"
        assert run(["inner", "--n", "2", "--gamma", "10", "--k", "1", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            d, v = line.split(",")
            assert d == v

    def test_budget_exit_3(self):
        assert run(["inner", "--n", "2", "--gamma", "10", "--k", "8"]) == 3


class TestDecomposeCmd:
    def test_zero_target(self, tmp_path):
        csv = tmp_path / "decay.csv"
        state = tmp_path / "state.json"
        code = run(
            ["decompose", "--n", "2", "--f", "zero", "--iters", "2",
             "--out-csv", str(csv), "--out-state", str(state)]
        )
        assert code == 0
        rows = csv.read_text().splitlines()
        assert rows[0] == "r,residual_norm,eta_power_bound"
        assert len(rows) == 3
        for row in rows[1:]:
            assert float(row.split(",")[1]) == 0.0
        d = json.loads(state.read_text())
        assert d["k_list"] == [1, 1]
        assert [set(c) for c in d["coeff"]] == [{"0"}, {"0"}]

    def test_product_one_iteration_bound(self, tmp_path):
        csv = tmp_path / "decay.csv"
        code = run(
            ["decompose", "--n", "2", "--f", "x1*x2", "--iters", "1",
             "--out-csv", str(csv)]
        )
        assert code == 0
        _, norm, bound = csv.read_text().splitlines()[1].split(",")
        assert float(norm) <= float(bound)

    def test_variable_out_of_range_exit_2(self, tmp_path):
        code = run(["decompose", "--n", "2", "--f", "x3", "--iters", "1",
                    "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--audit-res", "0"], ["--audit-res", "-3"], ["--n-random", "-1"], ["--iters", "-1"],
         ["--seed", "-1"], ["--k-max", "0"], ["--k-max", "-1"], ["--grid-budget", "0"],
         ["--grid-budget", "-5"]],
    )
    def test_bad_option_exit_2(self, tmp_path, capsys, flags):
        args = ["decompose", "--n", "2", "--f", "zero", "--iters", "1",
                "--out-csv", str(tmp_path / "x.csv")]
        assert run(args + flags) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "under-file", "mid-write"])
    @pytest.mark.parametrize("flag", ["--out-state", "--out-csv"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch, flag, where):
        bad = _unwritable(tmp_path, where, monkeypatch)
        code = run(["decompose", "--n", "2", "--f", "zero", "--iters", "0", flag, str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert not bad.is_file()


class _DiskFull:
    """A file whose first write stores half its data and then fails, as
    on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def writelines(self, parts):
        part = next(iter(parts))
        self._fh.write(part[: len(part) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, data):
        self.writelines([data])

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _unwritable(tmp_path, where, monkeypatch):
    """A directory, a path under a regular file, or a path that opens
    but whose write fails midway."""
    if where == "directory":
        return tmp_path
    if where == "mid-write":
        path = tmp_path / "out"

        def disk_full_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            return _DiskFull(fh) if os.fspath(file) == str(path) else fh

        monkeypatch.setattr(kst.cli, "open", disk_full_open, raising=False)
        return path
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "out"


@pytest.fixture(scope="module")
def saved_state(tmp_path_factory):
    d = tmp_path_factory.mktemp("assemble")
    path = d / "state.json"
    assert run(
        ["decompose", "--n", "2", "--f", "x1*x2", "--iters", "1",
         "--out-state", str(path), "--out-csv", str(d / "decay.csv")]
    ) == 0
    return path


def _edit_coeff(d, i, text, l=0):
    """d with coefficient i of round l set to text."""
    c = d["coeff"][l]
    return d | {"coeff": d["coeff"][:l] + [c[:i] + [text] + c[i + 1:]] + d["coeff"][l + 1:]}


def _schema_v2(d):
    """d in the layout of the previous schema: the round count r, and per
    family j its layers, each with its depth and coefficients."""
    layers = [{"k": k, "coeff": c} for k, c in zip(d["k_list"], d["coeff"])]
    return {key: v for key, v in d.items() if key != "coeff"} | {
        "schema": "kst-decomposition/2", "r": len(layers),
        "outer": [{"j": j, "layers": layers} for j in range(int(d["params"]["m"]) + 1)]}


@functools.cache
def _zero_two_rounds() -> str:
    """The state file of ``kst decompose --f zero --iters 2``, whose
    families hold two depth-1 layers each."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "state.json")
        assert run(["decompose", "--n", "2", "--f", "zero", "--iters", "2",
                    "--out-state", path, "--out-csv", os.path.join(d, "decay.csv")]) == 0
        with open(path, encoding="utf-8") as fh:
            return fh.read()


class TestAssembleCmd:
    def test_report_and_triangle(self, saved_state, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(
            ["assemble", "--decomp", str(saved_state), "--eps", "0.5",
             "--n-random", "500", "--out-report", str(report_path)]
        )
        assert code == 0
        rep = json.loads(report_path.read_text())
        grid = {k: float(v) for k, v in rep["errors_grid"].items()}
        assert grid["f_minus_net"] <= grid["f_minus_fr"] + grid["fr_minus_net"] + 1e-12
        assert grid["fr_minus_net"] <= 0.25

    def test_missing_file_exit_2(self, tmp_path):
        code = run(["assemble", "--decomp", str(tmp_path / "nope.json"), "--eps", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("what", ["directory", "not-utf8"])
    def test_unreadable_state_exit_2(self, tmp_path, capsys, what):
        decomp = tmp_path
        if what == "not-utf8":
            decomp = tmp_path / "latin1.json"
            decomp.write_bytes('{"schema": "é"}'.encode("latin-1"))
        assert run(["assemble", "--decomp", str(decomp), "--eps", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["directory", "under-file", "mid-write"])
    @pytest.mark.parametrize("flag", ["--out-report", "--out-net"])
    def test_unwritable_output_exit_2(self, saved_state, tmp_path, capsys, monkeypatch,
                                      flag, where):
        # the other output's path is writable, but neither file is left
        bad = _unwritable(tmp_path, where, monkeypatch)
        other = tmp_path / "other.json"
        code = run(["assemble", "--decomp", str(saved_state), "--eps", "0.5",
                    "--n-random", "200", "--knot-budget", "6000", "--uniform-inner",
                    flag, str(bad),
                    {"--out-report": "--out-net", "--out-net": "--out-report"}[flag], str(other)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert not bad.is_file() and not other.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: [d],
            lambda d: {k: v for k, v in d.items() if k != "params"},
            lambda d: d | {"k_list": ["2"]},
            lambda d: d | {"k_warnings": [0]},
            lambda d: d | {"caps": d["caps"] | {"seed": 1.5}},
            lambda d: d | {"target": {"provenance": {"kind": "builtin"}}},
            lambda d: d | {"coeff": [[{}]]},
            lambda d: d | {"residual_norms": ["one"]},
            lambda d: d | {"residual_norms": ["nan"] + d["residual_norms"][1:]},
            lambda d: d | {"coeff": [d["coeff"][0][:-1]]},
            lambda d: d | {"k_list": d["k_list"] * 2},
            lambda d: d | {"k_warnings": []},
            lambda d: d | {"residual_norms": d["residual_norms"][:1]},
            lambda d: d | {"k_list": [d["k_list"][0] + 1]},
            lambda d: _edit_coeff(d, 0, "inf"),
            lambda d: d | {"schema": "kst-decomposition/1"},
            lambda d: d | {"target": {"provenance": {"kind": "zzz", "text": "x1"}}},
            lambda d: d | {"caps": d["caps"] | {"audit_resolution": 0}},
            lambda d: d | {"caps": d["caps"] | {"audit_resolution": -3}},
            lambda d: d | {"caps": d["caps"] | {"seed": -1}},
            lambda d: d | {"caps": d["caps"] | {"k_max": 0}},
            lambda d: _edit_coeff(d, 0, "\u0660"),
            lambda d: d | {"residual_norms": [" 1_0 "] + d["residual_norms"][1:]},
        ],
        ids=["list", "no-params", "k-list-string", "warning-int", "seed-float",
             "no-builtin-name", "bump-keys", "norm-text", "norm-nan",
             "bump-missing", "r-count", "warnings-count", "norms-count", "k-list-depth",
             "coeff-inf", "schema-v1", "provenance-kind",
             "audit-res-zero", "audit-res-negative", "seed-negative", "k-max-zero",
             "coeff-arabic-indic-zero", "norm-underscore-padded"],
    )
    def test_malformed_state_exit_2(self, saved_state, tmp_path, capsys, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(saved_state.read_text()))))
        code = run(["assemble", "--decomp", str(bad), "--eps", "0.5"])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--n-random", "0"], ["--n-random", "-1"], ["--seed", "-1"],
                  ["--knot-budget", "0"], ["--knot-budget", "-5"]]
    )
    def test_bad_option_exit_2(self, saved_state, capsys, flags):
        code = run(["assemble", "--decomp", str(saved_state), "--eps", "0.5"] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    def test_overreach_names_bump(self, tmp_path, capsys):
        # depth-1 supports overlap: some bumps reach past their next
        # neighbour, and a nonzero coefficient on one of them is refused,
        # named by its round and grid vector; at depth 1 the family shift
        # is empty, so every family sorts the 7**2 vectors alike
        d = json.loads(_zero_two_rounds())
        grid = family_grid(state_from_json_dict(d), 0, 1)
        reach = grid.hi[:-2] > grid.lo[2:]
        c = int(grid.order[np.flatnonzero(reach)[0]])
        ok = int(grid.order[np.flatnonzero(~reach)[0]])
        assert grid.reach.tolist() == grid.order[np.flatnonzero(reach)].tolist()
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(_edit_coeff(d, ok, "0.25", l=1)))
        assert run(["assemble", "--decomp", str(good), "--eps", "0.5"]) == 0
        bad.write_text(json.dumps(_edit_coeff(d, c, "0.25", l=1)))
        capsys.readouterr()
        assert run(["assemble", "--decomp", str(bad), "--eps", "0.5"]) == 2
        assert (f"state.coeff[1][{c}], grid vector {divmod(c, 7)}, is nonzero on a depth-1 "
                f"bump of family 0 that reaches past the next bump" in capsys.readouterr().err)

    @pytest.mark.parametrize(
        "edit, place",
        [(_schema_v2, "unrecognized decomposition schema 'kst-decomposition/2'"),
         (lambda d: d | {"coeff": d["coeff"] * 2},
          "state.coeff has 2 entries for the 1 rounds of state.k_list"),
         (lambda d: d | {"coeff": [d["coeff"][0] + ["0"]]},
          "state.coeff[0] has 1370 coefficients, not (gamma**k + 1)**n at k = state.k_list[0] = 2")],
        ids=["schema-v2", "coeff-rounds", "coeff-count"])
    def test_malformed_rounds_name_place(self, saved_state, tmp_path, capsys, edit, place):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(saved_state.read_text()))))
        assert run(["assemble", "--decomp", str(bad), "--eps", "0.5"]) == 2
        assert f"error: {place}" in capsys.readouterr().err

    @pytest.mark.parametrize("caps, reason", [({"k_max": 1}, "k <= k_max (depth 2, k_max 1)"),
                                              ({"grid_budget": 1000}, "depth-2 grid size")],
                             ids=["above-k-max", "over-grid-budget"])
    def test_refused_depth_names_layer(self, saved_state, tmp_path, capsys, caps, reason):
        # the one round is at depth 2, on a grid of 37**2 points
        d = json.loads(saved_state.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d | {"caps": d["caps"] | caps}))
        assert run(["assemble", "--decomp", str(bad), "--eps", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "error: state.k_list[0] holds a depth the caps refuse" in err
        assert reason in err

    @pytest.mark.parametrize(
        "flags, what",
        [([], "staircase knot count 17625 exceeds the knot budget"),
         (["--uniform-inner"], "breakpoint count 5475 exceeds the knot budget")],
        ids=["staircase", "breakpoints"])
    def test_knot_budget_exit_3(self, saved_state, capsys, flags, what):
        code = run(["assemble", "--decomp", str(saved_state), "--eps", "0.5",
                    "--knot-budget", "100"] + flags)
        assert code == 3
        assert f"budget guard: {what}" in capsys.readouterr().err

    def test_materialization_cap_exit_3(self, saved_state, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kst.relunet, "MATERIALIZE_UNIT_CAP", 1000)
        net = tmp_path / "net.json"
        code = run(["assemble", "--decomp", str(saved_state), "--eps", "0.5",
                    "--n-random", "200", "--out-net", str(net)])
        assert code == 3
        assert "budget guard: " in capsys.readouterr().err
        assert not net.exists()

    def test_net_file_matches_network(self, saved_state, tmp_path, monkeypatch):
        built = {}
        original = kst.cli.assemble_from_state

        def keep(*args, **kwargs):
            built["asm"], _ = out = original(*args, **kwargs)
            return out

        monkeypatch.setattr(kst.cli, "assemble_from_state", keep)
        report, net = tmp_path / "report.json", tmp_path / "net.json"
        code = run(
            ["assemble", "--decomp", str(saved_state), "--eps", "0.5",
             "--n-random", "200", "--knot-budget", "6000", "--uniform-inner",
             "--out-report", str(report), "--out-net", str(net)]
        )
        assert code == 0
        rep = json.loads(report.read_text())
        doc = json.loads(net.read_text())
        units, edges = doc["units"], doc["edges"]
        nonzero_bias = sum(float(b) != 0.0 for b in units["bias"])
        assert doc["meta"]["W"] == rep["W"] == len(edges["w"]) + nonzero_bias
        assert doc["meta"]["L"] == rep["L"] == max(units["layer"])
        pts = np.random.default_rng(3).random((100, 2))
        from_file = dag_forward(json_network(doc), pts)
        asm = built["asm"]
        assert net.read_bytes() == net_json_text(asm.network).encode()
        # .17g strings round-trip every float, so the file is the network
        assert np.array_equal(from_file, dag_forward(asm.network, pts))
        # outer hinge weights reach 5.6e4, and sums of thousands of such
        # terms leave ~2e-9 of rounding against the interpolant form
        assert np.max(np.abs(from_file[:, 0] - asm.eval_batch(pts))) <= 1e-8


class TestExperimentCmd:
    def test_three_eps_rows_monotone_w(self, tmp_path):
        out = tmp_path / "exp.csv"
        code = run(
            ["experiment", "--n", "2", "--f", "x1*x2",
             "--eps-list", "0.5,0.25,0.125", "--r-cap", "1",
             "--n-random", "200", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 4
        ws = [int(r.split(",")[3]) for r in rows[1:]]
        assert ws[0] <= ws[1] <= ws[2]
        for r in rows[1:]:
            eps = float(r.split(",")[0])
            assert float(r.split(",")[6]) <= eps / 2

    @pytest.mark.parametrize(
        "flags",
        [["--eps-list", " "], ["--eps-list", "abc"], ["--eps-list", "0.5", "--r-cap", "-1"]],
        ids=["empty", "not-a-number", "r-cap-negative"],
    )
    def test_empty_eps_list_exit_2(self, tmp_path, capsys, flags):
        code = run(["experiment", "--n", "2", "--f", "zero",
                    "--out", str(tmp_path / "x.csv")] + flags)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        files = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            state = d / "state.json"
            decay = d / "decay.csv"
            report = d / "report.json"
            net = d / "net.json"
            assert run(
                ["decompose", "--n", "2", "--f", "x1*x2", "--iters", "1",
                 "--seed", "7", "--out-state", str(state), "--out-csv", str(decay)]
            ) == 0
            assert run(
                ["assemble", "--decomp", str(state), "--eps", "0.5",
                 "--seed", "7", "--n-random", "300", "--knot-budget", "20000",
                 "--uniform-inner",
                 "--out-report", str(report), "--out-net", str(net)]
            ) == 0
            files[tag] = tuple(
                p.read_bytes() for p in (state, decay, report, net)
            )
        assert files["a"] == files["b"]
