import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvpriv
from tvpriv import (Channel, Mechanism, Pmf, avg_tv_leakage, compose,
                    mutual_information)
from tvpriv import cli, regions
from tvpriv.cli import main
from tvpriv.suites import fixture_path

H_THIRD = 0.9182958340544896
LOG2_3 = 1.584962500721156

BINARY = str(fixture_path("binary_y_source.json"))
UNIFORM3 = str(fixture_path("uniform3_source.json"))


def run(args):
    return main(args)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSolve:
    def test_binary_point(self, tmp_path):
        out = tmp_path / "sol.json"
        code = run(["solve", BINARY, "--utility", "mi",
                    "--epsilon", str(1 / 15), "--out", str(out)])
        assert code == 0
        doc = read_json(out)
        assert doc["utility"] == pytest.approx(0.459148, abs=1e-6)
        assert doc["epsilon_clamped"] == pytest.approx(1 / 15, abs=1e-12)
        assert doc["achieved_t"] <= doc["epsilon_clamped"] + 1e-8
        cols = np.array(doc["mechanism"]["p_u_given_y"])
        assert np.allclose(cols.sum(axis=0), 1.0, atol=1e-9)

    def test_budget_clamped_to_saturation(self, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["solve", BINARY, "--utility", "mi", "--epsilon", "1.0",
                    "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["epsilon_requested"] == 1.0
        assert doc["epsilon_clamped"] == pytest.approx(2 / 15, abs=1e-9)
        assert doc["utility"] == pytest.approx(0.918296, abs=1e-6)

    def test_bad_column_sum_names_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "p_y": [0.5, 0.5],
            "P_x_given_y": [[0.5, 0.5], [0.4, 0.5]],
        }))
        code = run(["solve", str(bad), "--utility", "mi", "--epsilon", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "column 0" in err

    @pytest.mark.parametrize("field, doc", [
        ("P_x_given_y", {"p_y": [0.5, 0.5],
                         "P_x_given_y": [[0.5, float("nan")], [0.5, 0.5]]}),
        ("p_y", {"p_y": [float("nan"), 0.5],
                 "P_x_given_y": [[0.9, 0.2], [0.1, 0.8]]}),
    ])
    def test_nan_entry_names_field(self, tmp_path, capsys, field, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # json writes the NaN literal
        code = run(["solve", str(bad), "--utility", "mi", "--epsilon", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"field '{field}'" in err
        assert "finite" in err

    def test_non_object_document_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("5")
        assert run(["solve", str(bad), "--utility", "mi",
                    "--epsilon", "0.1"]) == 2
        assert run(["measure", BINARY, "--mechanism", str(bad)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_file(self):
        assert run(["solve", "/nonexistent.json", "--utility", "mi",
                    "--epsilon", "0.1"]) == 2

    def test_nan_epsilon_names_flag(self, capsys):
        assert run(["solve", BINARY, "--utility", "mi", "--epsilon", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--epsilon" in err

    def test_mmse_without_y_values(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text(json.dumps({
            "p_y": [0.4, 0.6],
            "P_x_given_y": [[0.9, 0.2], [0.1, 0.8]],
        }))
        assert run(["solve", str(src), "--utility", "mmse",
                    "--epsilon", "0.1"]) == 2

    def test_nan_y_value_rejected(self, tmp_path, capsys):
        src = tmp_path / "src.json"
        # json writes the NaN literal, which json.load reads back
        src.write_text(json.dumps({
            "p_y": [0.4, 0.6],
            "P_x_given_y": [[0.9, 0.2], [0.1, 0.8]],
            "y_values": [1.0, float("nan")],
        }))
        assert run(["solve", str(src), "--utility", "mmse",
                    "--epsilon", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "field 'y_values'" in err
        assert "finite" in err

    @pytest.mark.parametrize("field", ["p_y", "P_x_given_y", "y_values"])
    def test_non_numeric_field_named(self, tmp_path, capsys, field):
        doc = {"p_y": [0.4, 0.6], "P_x_given_y": [[0.9, 0.2], [0.1, 0.8]]}
        doc[field] = {"a": 1}
        src = tmp_path / "src.json"
        src.write_text(json.dumps(doc))
        assert run(["solve", str(src), "--utility", "mi",
                    "--epsilon", "0.1"]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("y_values, reason", [
        ("ab", "could not convert"),
        ([1.0, 2.0, 3.0], "length"),
        ([2.0, 2.0], "distinct"),
    ])
    def test_bad_y_values_name_field(self, tmp_path, capsys, y_values, reason):
        src = tmp_path / "src.json"
        src.write_text(json.dumps({
            "p_y": [0.4, 0.6],
            "P_x_given_y": [[0.9, 0.2], [0.1, 0.8]],
            "y_values": y_values,
        }))
        assert run(["solve", str(src), "--utility", "mmse",
                    "--epsilon", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "field 'y_values'" in err
        assert reason in err


class TestImportCost:
    # importing numpy.ma adds about 15 ms to each CLI process;
    # nothing on the source-loading or solve path should pull it in
    @pytest.mark.parametrize("snippet", [
        "import numpy as np\n"
        "from tvpriv import Channel, JointSource, Pmf\n"
        "JointSource(Pmf(np.array([0.5, 0.5])), Channel(np.eye(2)),\n"
        "            y_values=np.array([1.0, 0.0]))",
        "from tvpriv.cli import main\n"
        f"main(['solve', {UNIFORM3!r}, '--utility', 'mmse', '--epsilon', '0.05'])",
    ], ids=["joint_source", "cli_solve"])
    def test_numpy_ma_not_imported(self, snippet):
        code = snippet + "\nimport sys\nassert 'numpy.ma' not in sys.modules"
        src_dir = str(Path(tvpriv.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestCurve:
    def test_uniform3_mi_saturates(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["curve", UNIFORM3, "--utility", "mi", "--grid", "21",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epsilon,utility,achieved_t"
        assert len(lines) == 22
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == pytest.approx(LOG2_3, abs=1e-8)
        eps = [float(l.split(",")[0]) for l in lines[1:]]
        assert all(b > a for a, b in zip(eps, eps[1:]))

    def test_binary_perr_prior_mode_first(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["curve", BINARY, "--utility", "perr", "--grid", "11",
                    "--out", str(out)]) == 0
        first = out.read_text().strip().splitlines()[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1 / 3, abs=1e-8)

    def test_grid_too_small(self):
        assert run(["curve", BINARY, "--utility", "mi", "--grid", "1"]) == 2


class TestMeasure:
    def test_identity_release(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["measure", BINARY, "--identity", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["t_leakage"] == pytest.approx(0.133333, abs=1e-6)
        assert doc["mutual_info_bits"] == pytest.approx(0.063923, abs=1e-6)
        # ordering of the bound chain
        assert doc["bound_mi_lower"] <= doc["mutual_info_bits"] + 1e-8
        assert doc["mutual_info_bits"] <= doc["maximal_leakage_bits"] + 1e-8
        assert doc["maximal_leakage_bits"] <= doc["bound_ml_upper"] + 1e-8
        assert doc["bound_ml_lower"] <= doc["maximal_leakage_bits"] + 1e-8
        for key in ("slack_mi_lower", "slack_ml_upper", "slack_ml_lower"):
            assert doc[key] >= -1e-8

    def test_constant_mechanism_all_zero(self, tmp_path):
        mech = tmp_path / "mech.json"
        mech.write_text(json.dumps({
            "p_u_given_y": [[0.5, 0.5], [0.5, 0.5]],
        }))
        out = tmp_path / "rep.json"
        assert run(["measure", BINARY, "--mechanism", str(mech),
                    "--out", str(out)]) == 0
        doc = read_json(out)
        for key in ("t_leakage", "mutual_info_bits", "maximal_leakage_bits",
                    "max_info_leakage_bits"):
            assert doc[key] == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self, tmp_path):
        mech = tmp_path / "mech.json"
        mech.write_text(json.dumps({"p_u_given_y": [[1.0, 0.0, 0.0],
                                                    [0.0, 1.0, 1.0]]}))
        assert run(["measure", BINARY, "--mechanism", str(mech)]) == 2

    @pytest.mark.parametrize("doc, field, reason", [
        ({"p_u_given_y": {"a": 1}}, "p_u_given_y", "not 'dict'"),
        ({"p_u_given_y": "ab"}, "p_u_given_y", "could not convert"),
        ({"p_u_given_y": [[1.0, 0.0], [0.0]]}, "p_u_given_y", "inhomogeneous"),
        ({"p_u_given_y": [[0.5, 0.5], [0.6, 0.5]]}, "p_u_given_y", "sums to"),
        ({"p_u_given_y": [[1.0, 0.0], [0.0, 1.0]], "u_labels": [1.0]},
         "u_labels", "length"),
        ({"p_u_given_y": [[1.0, 0.0], [0.0, 1.0]], "u_labels": {"a": 1}},
         "u_labels", "not 'dict'"),
        ({"p_u_given_y": [[1.0, 0.0], [0.0, 1.0]], "u_labels": "ab"},
         "u_labels", "could not convert"),
        ({"mechanism": 5}, "mechanism", "JSON object"),
        ({"mechanism": "p_u_given_y"}, "mechanism", "JSON object"),
    ], ids=["matrix_dict", "matrix_string", "matrix_ragged", "matrix_sum",
            "labels_length", "labels_dict", "labels_string", "mechanism_int",
            "mechanism_string"])
    def test_bad_mechanism_field_named(self, tmp_path, capsys, doc, field,
                                       reason):
        mech = tmp_path / "mech.json"
        mech.write_text(json.dumps(doc))
        assert run(["measure", BINARY, "--mechanism", str(mech)]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}'" in err
        assert reason in err

    def test_mechanism_labels_loaded(self, tmp_path):
        mech = tmp_path / "mech.json"
        mech.write_text(json.dumps({"p_u_given_y": [[1.0, 0.0], [0.0, 1.0]],
                                    "u_labels": [2.0, -1.0]}))
        loaded = cli.load_mechanism(str(mech), 2)
        assert np.array_equal(loaded.u_labels, [2.0, -1.0])


def assert_same_structure(got, want, path="doc"):
    """Equal keys, lengths and order; numbers equal within 1e-12."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_same_structure(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_structure(g, w, f"{path}[{i}]")
    else:
        assert got == pytest.approx(want, abs=1e-12, rel=0), path


class TestRegionsCommand:
    # the support-point order fixes the LP's column order, hence Bland's
    # tie-breaks and the solve output; the committed dumps pin that order
    @pytest.mark.parametrize("name", ["binary_y_source", "uniform3_source"])
    def test_matches_committed_dump(self, tmp_path, name):
        out = tmp_path / "reg.json"
        assert run(["regions", str(fixture_path(f"{name}.json")),
                    "--out", str(out)]) == 0
        want = read_json(Path(__file__).parent / "data" / f"regions_{name}.json")
        assert_same_structure(read_json(out), want)

    def test_each_region_enumerated_once(self, tmp_path, monkeypatch):
        calls = []
        original = regions.region_extreme_points

        def counted(region):
            calls.append(region.sign_pattern)
            return original(region)

        monkeypatch.setattr(regions, "region_extreme_points", counted)
        monkeypatch.setattr(cli, "region_extreme_points", counted)
        out = tmp_path / "reg.json"
        assert run(["regions", BINARY, "--out", str(out)]) == 0
        patterns = [r["sign_pattern"] for r in read_json(out)["regions"]]
        assert len(patterns) == 8
        assert [list(p) for p in calls] == patterns

    def test_uniform3_dump(self, tmp_path):
        out = tmp_path / "reg.json"
        assert run(["regions", UNIFORM3, "--out", str(out)]) == 0
        doc = read_json(out)
        assert len(doc["regions"]) == 4
        seg = [r for r in doc["regions"] if r["sign_pattern"] == [1, 1]][0]
        pts = [tuple(np.round(p, 9)) for p in seg["extreme_points"]]
        assert (0.0, 1.0, 0.0) in pts
        assert (0.5, 0.0, 0.5) in pts
        assert len(doc["spoints"]) == 4

    def test_binary_spoints(self, tmp_path):
        out = tmp_path / "reg.json"
        assert run(["regions", BINARY, "--out", str(out)]) == 0
        doc = read_json(out)
        assert len(doc["spoints"]) == 3

    def test_independent_source_vertices(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text(json.dumps({
            "p_y": [0.25, 0.35, 0.4],
            "P_x_given_y": [[0.6, 0.6, 0.6], [0.4, 0.4, 0.4]],
        }))
        out = tmp_path / "reg.json"
        assert run(["regions", str(src), "--out", str(out)]) == 0
        doc = read_json(out)
        pts = sorted(tuple(p) for p in
                     (s["point"] for s in doc["spoints"]))
        assert pts == sorted(tuple(v) for v in np.eye(3).tolist())

    def test_cap_exceeded_warns_exponential(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        src = tmp_path / "src.json"
        matrix = rng.dirichlet(np.ones(21), size=2).T
        src.write_text(json.dumps({
            "p_y": [0.5, 0.5],
            "P_x_given_y": matrix.tolist(),
        }))
        assert run(["regions", str(src)]) == 2
        assert "grows exponentially" in capsys.readouterr().err


STDOUT_DATA = Path(__file__).parent / "data" / "stdout"
PINNED_COMMANDS = [
    *((f"solve_{u}_{e}.json", ["solve", "--utility", u, "--epsilon", e])
      for u in ("mi", "mmse", "perr") for e in ("0.03", "0.05")),
    *((f"curve_{u}_51.csv", ["curve", "--utility", u, "--grid", "51"])
      for u in ("mi", "mmse", "perr")),
    ("measure_identity.json", ["measure", "--identity"]),
    *((f"threat_identity_{c}.json", ["threat", "--identity", "--cost", c])
      for c in ("brier", "log_loss")),
]


def parse_csv(text):
    header, *rows = text.splitlines()
    return [header.split(",")] + [[float(v) for v in row.split(",")] for row in rows]


class TestCommittedStdout:
    # stdout of each command on both fixtures, committed from an earlier
    # build; keys, order and row counts must match, numbers within 1e-12
    @pytest.mark.parametrize("name", ["binary_y_source", "uniform3_source"])
    @pytest.mark.parametrize("dump, args", PINNED_COMMANDS,
                             ids=[d for d, _ in PINNED_COMMANDS])
    def test_matches_committed_stdout(self, capsys, name, dump, args):
        command, *flags = args
        assert run([command, str(fixture_path(f"{name}.json")), *flags]) == 0
        got = capsys.readouterr().out
        want = (STDOUT_DATA / name / dump).read_text(encoding="utf-8")
        if dump.endswith(".csv"):
            assert_same_structure(parse_csv(got), parse_csv(want))
        else:
            assert_same_structure(json.loads(got), json.loads(want))


class TestThreatCommand:
    def test_log_loss_identity(self, tmp_path):
        out = tmp_path / "threat.json"
        assert run(["threat", BINARY, "--identity", "--cost", "log_loss",
                    "--out", str(out)]) == 0
        doc = read_json(out)
        assert abs(doc["mi_identity_gap"]) <= 1e-9
        assert doc["bound_4lt"] is None

    def test_brier_identity(self, tmp_path):
        out = tmp_path / "threat.json"
        assert run(["threat", BINARY, "--identity", "--cost", "brier",
                    "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["delta_c"] >= 0.0
        assert doc["slack"] >= -1e-8


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert run(["verify", "--suite", "all", "--instances", "60",
                    "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for name in ("bounds", "markov", "threats", "lp"):
            assert f"suite {name}: PASS" in out
        assert "min slack" in out

    def test_single_suite(self, capsys):
        assert run(["verify", "--suite", "bounds", "--instances", "40"]) == 0
        assert "suite bounds: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_rejected(self, capsys, instances):
        assert run(["verify", "--instances", instances]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--instances" in err


class TestRoundTripAndDeterminism:
    def test_solve_then_measure_reproduces(self, tmp_path):
        sol_path = tmp_path / "sol.json"
        assert run(["solve", BINARY, "--utility", "mi",
                    "--epsilon", "0.05", "--out", str(sol_path)]) == 0
        doc = read_json(sol_path)
        rep_path = tmp_path / "rep.json"
        assert run(["measure", BINARY, "--mechanism", str(sol_path),
                    "--out", str(rep_path)]) == 0
        rep = read_json(rep_path)
        assert rep["t_leakage"] == pytest.approx(doc["achieved_t"], abs=1e-8)
        # utility recomputed from the emitted mechanism
        from tvpriv import JointSource
        src = JointSource(Pmf(np.array([1 / 3, 2 / 3])),
                          Channel(np.array([[0.5, 0.3], [0.3, 0.2],
                                            [0.2, 0.5]])))
        mech = Mechanism(Channel(np.array(doc["mechanism"]["p_u_given_y"])))
        p_u, _, p_y_given_u = compose(mech, src)
        mi = mutual_information(p_u, p_y_given_u, src.p_y)
        assert mi == pytest.approx(doc["utility"], abs=1e-8)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["solve", UNIFORM3, "--utility", "perr",
                        "--epsilon", "0.1", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        for path in (c, d):
            assert run(["curve", BINARY, "--utility", "mi", "--grid", "9",
                        "--out", str(path)]) == 0
        assert c.read_bytes() == d.read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["solve", BINARY, "--utility", "mi",
                    "--epsilon", str(1 / 15), "--out", str(out)]) == 0
        text = out.read_text()
        assert "0.459147917027" in text
