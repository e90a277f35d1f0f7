"""CLI behaviour, exercised in process through main(argv).

Exit codes are the contract: 0 pass, 1 fail (or a library error),
2 unreadable input.  One subprocess smoke test checks the console
script wiring: it loads the `[project.scripts]` target named in
pyproject.toml in a fresh interpreter, the way a generated wrapper
does, so no install is needed.  A second one runs the installed
`bryantlab` executable where there is one.  Everything else stays in
process for speed.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bryantlab
from bryantlab.cli import main
from bryantlab.connection import PathLoop, model_end_field
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly

ONE = LaurentPoly.one()
Z = LaurentPoly.z()

# det = 1 but det A' = -1: special yet nowhere null
SHEARED = LaurentMatrix(ONE, Z, Z, ONE + LaurentPoly.monomial(2))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestVerify:
    def test_catalog_frame_passes(self, capsys):
        code, data, _ = run_json(capsys, "verify", "horosphere")
        assert code == 0
        assert data["is_bryant"] is True

    def test_sheared_frame_fails(self, capsys, frame_file):
        path = frame_file("sheared.json", SHEARED)
        code, data, _ = run_json(capsys, "verify", path)
        assert code == 1
        assert data["is_special"] is True
        assert data["is_bryant"] is False
        assert data["null_residual"] == {
            "terms": [{"exp": 0, "re": "-1", "im": "0"}]}

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and "input error" in err

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-frame")
        assert code == 2 and "no-such-frame" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "horosphere", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["is_bryant"] is True

    def test_bad_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSurface:
    def test_horosphere_summary(self, capsys):
        code, data, _ = run_json(capsys, "surface", "horosphere",
                                 "--n", "10", "--radius", "1")
        assert code == 0
        assert data["vertices"] == 100
        assert data["faces"] == 81
        assert data["flagged"] == []
        assert data["mean_abs_H_minus_1"] <= 1e-4
        assert data["max_abs_H_minus_1"] <= 1e-4

    def test_branch_point_is_flagged(self, capsys):
        # odd n puts a sample on the degenerate point z = 0
        code, data, _ = run_json(capsys, "surface", "cusp-degree2",
                                 "--n", "5", "--radius", "1")
        assert code == 0
        flagged = data["flagged"]
        assert any(f["error"] == "DegenerateMetric" and f["z"] == [0.0, 0.0]
                   for f in flagged)

    def test_obj_export(self, tmp_path, capsys):
        target = tmp_path / "mesh.obj"
        code, out, _ = run(capsys, "surface", "horosphere", "--n", "4",
                           "--format", "obj", "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 16
        assert sum(1 for l in lines if l.startswith("f ")) == 9
        # the summary still lands on stdout
        assert json.loads(out)["vertices"] == 16

    def test_single_sample_grid(self, capsys):
        code, data, _ = run_json(capsys, "surface", "horosphere", "--n", "1")
        assert code == 0
        assert data["vertices"] == 1 and data["faces"] == 0

    def test_obj_to_stdout_summary_to_stderr(self, capsys):
        code, out, err = run(capsys, "surface", "horosphere", "--n", "3",
                             "--format", "obj")
        assert code == 0
        assert out.startswith("v ") or "\nv " in out
        assert json.loads(err)["vertices"] == 9

    @pytest.mark.parametrize("flags", [
        ("--step", "0"), ("--step", "-1"), ("--step", "nan"),
        ("--radius", "inf"), ("--radius", "0"), ("--center", "nan", "0"),
        ("--n", "0"),
    ])
    def test_invalid_grid_is_input_error(self, capsys, flags):
        code, out, err = run(capsys, "surface", "horosphere", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ")


@pytest.fixture
def loop_file(write_json):
    def _write(name, loops):
        payload = {"loops": [lp.to_json() for lp in loops]}
        return write_json(name, payload)
    return _write


class TestHolonomy:
    def test_quarter_weight_passes(self, capsys, write_json, loop_file):
        field = write_json("quarter.json", model_end_field(Fraction(1, 4)).to_json())
        loops = loop_file("loops.json", [PathLoop.circle(0j, 1.0)])
        code, data, _ = run_json(capsys, "holonomy", field, loops)
        assert code == 0
        assert data["verdict"] == "passes"
        assert data["abelian"] is True
        m = data["matrices"][0]
        assert abs(m[0][0][1] - 1.0) < 1e-8  # upper-left entry is i

    def test_imaginary_weight_fails(self, capsys, write_json, loop_file):
        alpha = GaussianRational(Fraction(0), Fraction(1))
        field = write_json("imag.json", model_end_field(alpha).to_json())
        loops = loop_file("loops.json", [PathLoop.circle(0j, 1.0)])
        code, data, _ = run_json(capsys, "holonomy", field, loops)
        assert code == 1
        assert data["verdict"] == "fails"
        assert data["unitary_defects"][0] > 100

    def test_single_loop_without_wrapper(self, capsys, write_json):
        field = write_json("zero.json", model_end_field(Fraction(0)).to_json())
        loop = write_json("one_loop.json", PathLoop.circle(0j, 1.0).to_json())
        code, data, _ = run_json(capsys, "holonomy", field, loop)
        assert code == 0 and len(data["matrices"]) == 1

    def test_bad_loop_kind(self, capsys, write_json):
        field = write_json("zero.json", model_end_field(Fraction(0)).to_json())
        data = PathLoop.circle(0j, 1.0).to_json()
        data["segments"][0]["kind"] = "spiral"
        loops = write_json("bad.json", data)
        code, _, err = run(capsys, "holonomy", field, loops)
        assert code == 2 and "loop file" in err

    def test_pole_on_path_is_library_error(self, capsys, write_json, loop_file):
        field = write_json("half.json", model_end_field(Fraction(1, 2)).to_json())
        loops = loop_file("tiny.json", [PathLoop.circle(0j, 1e-5)])
        code, _, err = run(capsys, "holonomy", field, loops)
        assert code == 1 and "PoleTooClose" in err


class TestEnd:
    def test_horosphere_half_fails(self, capsys):
        code, data, _ = run_json(capsys, "end", "1/2", "horosphere")
        assert code == 1
        assert data["stareq_pass"] is False
        assert data["r2_matches_omega"] is True

    def test_horosphere_weightless_passes(self, capsys):
        code, data, _ = run_json(capsys, "end", "0", "horosphere")
        assert code == 0
        assert data["stareq_pass"] is True

    def test_bad_weight_string(self, capsys):
        code, _, err = run(capsys, "end", "one-half", "horosphere")
        assert code == 2 and "bad weight" in err

    def test_out_of_range_weight(self, capsys):
        code, _, err = run(capsys, "end", "3/2", "horosphere")
        assert code == 2 and "bad weight" in err

    def test_diagonal_frame_polo_passes(self, capsys, frame_file):
        diag = LaurentMatrix.diagonal(Z, LaurentPoly.monomial(-1))
        path = frame_file("diag.json", diag)
        code, data, _ = run_json(capsys, "end", "1/2", path)
        assert code == 1  # r2 = -1/4, so the defining equation fails
        assert data["order_n"] == 1
        assert data["polo_bound"]["passes"] is True
        assert data["stareq_pass"] is False


class TestStability:
    def stability_payload(self, degree, matches):
        return {
            "genus": 0,
            "points": [{"label": "p0", "weight": "1/2"}],
            "candidates": [{"degree": degree, "matches": matches}],
        }

    def test_stable(self, capsys, write_json):
        path = write_json("stable.json", self.stability_payload(0, [False]))
        code, data, _ = run_json(capsys, "stability", path)
        assert code == 0
        assert data["verdict"] == "stable"
        assert data["margins"] == [[1, 4]]

    def test_unstable(self, capsys, write_json):
        path = write_json("unstable.json", self.stability_payload(0, [True]))
        code, data, _ = run_json(capsys, "stability", path)
        assert code == 1
        assert data["verdict"] == "unstable" and data["witness"] == 0

    def test_semistable_exits_one(self, capsys, write_json):
        payload = {"genus": 0, "points": [],
                   "candidates": [{"degree": 0, "matches": []}]}
        path = write_json("semi.json", payload)
        code, data, _ = run_json(capsys, "stability", path)
        assert code == 1
        assert data["verdict"] == "semistable"

    def test_missing_keys(self, capsys, write_json):
        path = write_json("broken.json", {"genus": 0})
        code, _, err = run(capsys, "stability", path)
        assert code == 2 and "stability file" in err

    def test_enumerate_degree_sweep(self, capsys, write_json):
        # two half weights: deg 0 through both flags has par = +1/2
        payload = {"genus": 0,
                   "points": [{"label": "p0", "weight": "1/2"},
                              {"label": "p1", "weight": "1/2"}]}
        path = write_json("enum.json", payload)
        code, data, _ = run_json(capsys, "stability", path,
                                 "--enumerate", "-2", "0")
        assert code == 1
        assert data["verdict"] == "unstable"
        assert data["witness"] == 5  # deg 0, on flags
        assert len(data["margins"]) == 6

    def test_enumerate_no_points_dedupes(self, capsys, write_json):
        path = write_json("plain.json", {"genus": 1, "points": []})
        code, data, _ = run_json(capsys, "stability", path,
                                 "--enumerate", "-3", "-1")
        assert code == 0
        assert data["verdict"] == "stable"
        assert len(data["margins"]) == 3

    def test_enumerate_empty_range(self, capsys, write_json):
        path = write_json("plain.json", {"genus": 0, "points": []})
        code, _, err = run(capsys, "stability", path, "--enumerate", "2", "1")
        assert code == 2 and "degree range" in err


class TestBounds:
    def test_json_report(self, capsys):
        code, data, _ = run_json(capsys, "bounds", "0", "3", "3")
        assert code == 0
        assert data["dim_moduli_lower"] == 3
        assert data["hypothesis_met"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "bounds", "2", "5", "0", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[0] == "genus"
        assert row.split(",")[-1] == "False"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bounds.json"
        code, out, _ = run(capsys, "bounds", "1", "8", "1",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["required_d"] == 5


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# what a generated console-script wrapper does with its entry point
WRAPPER = ("import importlib.metadata, sys; "
           "sys.exit(importlib.metadata.EntryPoint("
           "'bryantlab', sys.argv.pop(1), 'console_scripts').load()())")


def test_console_script_smoke():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bryantlab"]
    src = str(Path(bryantlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, target, "verify", "horosphere"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["is_bryant"] is True


@pytest.mark.skipif(shutil.which("bryantlab") is None,
                    reason="no installed bryantlab executable on PATH")
def test_installed_console_script():
    proc = subprocess.run(["bryantlab", "verify", "horosphere"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["is_bryant"] is True
