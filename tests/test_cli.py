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
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import bryantlab
from bryantlab import hyperbolic
from bryantlab.cli import _build_parser, main
from bryantlab.connection import PathLoop, model_end_field, simple_pole_field
from bryantlab.errors import DegenerateMetric, NotRepresentable, PoleAtZero
from bryantlab.frames import Annulus, BryantFrame, catalog
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

    def test_undecodable_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"matrix": "\xff\xfe"}')
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == "" and "input error" in err

    def test_integer_beyond_the_digit_limit_is_read(self, tmp_path, capsys):
        # 10^4999 as a JSON integer: 5000 digits, past Python's default
        # int/str limit of 4300, which main lifts and then restores
        limit = sys.get_int_max_str_digits()
        big = tmp_path / "big.json"
        one = '{"terms": [{"exp": 0, "re": "1", "im": "0"}]}'
        big.write_text(
            '{"matrix": [[{"terms": [{"exp": 0, "re": 1' + "0" * 4999
            + ', "im": 0}]}, {"terms": []}], [{"terms": []}, ' + one + "]]}")
        code, data, err = run_json(capsys, "verify", str(big))
        assert code == 1 and err == ""
        assert data["is_special"] is False
        assert data["det_residual"] == {
            "terms": [{"exp": 0, "re": "9" * 4999, "im": "0"}]}
        assert sys.get_int_max_str_digits() == limit

    def test_residual_beyond_the_digit_limit_is_written(self, capsys, frame_file):
        # 2201-digit entries, so det - 1 = 10^4400 - 1 has 4400 digits
        big = LaurentPoly.constant(10 ** 2200)
        path = frame_file("big.json", LaurentMatrix(big, Z, LaurentPoly.zero(), big))
        code, data, err = run_json(capsys, "verify", path)
        assert code == 1 and err == ""
        assert data["det_residual"] == {
            "terms": [{"exp": 0, "re": "9" * 4400, "im": "0"}]}

    def test_fractional_exponent_is_input_error(self, capsys, write_json):
        data = {"matrix": LaurentMatrix(ONE, Z, LaurentPoly.zero(), ONE).to_json()}
        data["matrix"][0][1]["terms"][0]["exp"] = 1.5
        code, out, err = run(capsys, "verify", write_json("half.json", data))
        assert code == 2 and out == "" and "an exponent must be an integer" in err

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


@pytest.mark.parametrize("argv", [
    "verify horosphere --step -5",
    "end 0 horosphere --rtol 1",
    "bounds 0 3 3 --format obj",
    "surface horosphere --format csv",
    "surface horosphere --rtol 1",
    "holonomy f.json l.json --rtol 1",
])
def test_flag_the_subcommand_does_not_read_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
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
        ("--n", "0"), ("--radius", "1e308", "--n", "3"),
    ])
    def test_invalid_grid_is_input_error(self, capsys, flags):
        code, out, err = run(capsys, "surface", "horosphere", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ")

    @pytest.mark.parametrize("exponent, kept", [(200, 0), (100, 4), (-200, 4)])
    def test_beyond_double_range_is_flagged(self, capsys, frame_file,
                                            exponent, kept):
        # [[1, 10^e·z], [0, 1]] is a Bryant frame whose immersion (e = 200)
        # or first fundamental form (e = 100) leaves the double range, or
        # whose normal's scale underflows it (e = -200)
        path = frame_file("large.json", LaurentMatrix(
            ONE, LaurentPoly({1: Fraction(10) ** exponent}), LaurentPoly.zero(), ONE))
        code, data, _ = run_json(capsys, "surface", path, "--n", "2")
        assert code == 0
        assert [f["error"] for f in data["flagged"]] == ["NotRepresentable"] * 4
        assert data["vertices"] == kept

    @pytest.mark.parametrize("domain", [
        {"r_min": True, "r_max": "2"}, {"r_min": "0.5", "r_max": None},
        {"r_min": 0, "r_max": 10 ** 400},
    ])
    def test_non_number_domain_is_input_error(self, capsys, frame_file, domain):
        path = frame_file("domain.json", LaurentMatrix.identity(), domain=domain)
        code, out, err = run(capsys, "surface", path, "--n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ")

    def test_non_finite_domain_is_input_error(self, capsys, frame_file):
        path = frame_file("nan_domain.json", LaurentMatrix.identity(),
                          domain={"r_min": math.nan, "r_max": math.nan})
        code, out, err = run(capsys, "surface", path, "--n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ")


# [[1, 0], [c, 1]]·[[1, p], [0, 1]] with a double pole in p: a Bryant frame
_C = LaurentPoly.constant(GaussianRational(Fraction(1, 2), Fraction(1, 3)))
_P = LaurentPoly({-2: Fraction(1, 3), -1: GaussianRational(1, 2), 1: 2})
POLE_FRAME = LaurentMatrix(ONE, _P, _C, ONE + _C * _P)

# (frame, domain, center, radius, n, step); catalog frames are by name
SURFACE_CASES = {
    **{name: (name, None, (0.3, -0.2), 1.0, 4, 1e-4)
       for name in ("affine-null", "cusp-degree2", "horosphere", "lower-shear")},
    # the middle point is one step right of 0: its stencil reaches the pole
    "stencil on the pole": (POLE_FRAME, None, (2.0 ** -9, 0.0), 0.5, 3, 2.0 ** -9),
    "vertex on the pole": (POLE_FRAME, None, (0.0, 0.0), 1.0, 3, 1e-4),
    "outside the annulus": (POLE_FRAME, {"r_min": 0.5, "r_max": 2.0},
                            (0.0, 0.0), 1.0, 4, 1e-4),
    **{f"shear 10^{e}": (LaurentMatrix(ONE, LaurentPoly({1: Fraction(10) ** e}),
                                      LaurentPoly.zero(), ONE),
                         None, (0.0, 0.0), 1.0, 2, 1e-4)
       for e in (200, 100, -200)},
    "cusp branch point": ("cusp-degree2", None, (0.0, 0.0), 1.0, 5, 1e-4),
}


class TestSurfaceMatchesLibrary:
    """Each OBJ vertex is immerse's point and each sample is
    mean_curvature's H, or the name of the error it raises."""

    @pytest.mark.parametrize("label", SURFACE_CASES)
    def test_report(self, capsys, frame_file, label):
        matrix, domain, center, radius, n, step = SURFACE_CASES[label]
        if isinstance(matrix, str):
            spec, frame = matrix, catalog(matrix)
        else:
            spec = frame_file("frame.json", matrix, domain=domain)
            frame = BryantFrame(matrix, Annulus.from_json(domain) if domain
                                else Annulus())
        code, out, err = run(capsys, "surface", spec,
                             "--center", repr(center[0]), repr(center[1]),
                             "--radius", repr(radius), "--n", str(n),
                             "--step", repr(step), "--format", "obj")
        assert code == 0
        points = hyperbolic.GridSpec(complex(*center), radius, n).points()
        want_vertices, want_samples = [], []
        for z in points:
            try:
                x, y, w = hyperbolic.immerse(frame, z).poincare()
                want_vertices.append(f"v {x:.17g} {y:.17g} {w:.17g}")
            except (ValueError, PoleAtZero, NotRepresentable):
                pass
            try:
                want = {"H": hyperbolic.mean_curvature(frame, z, step).H.hex()}
            except (DegenerateMetric, PoleAtZero, NotRepresentable) as exc:
                want = {"error": type(exc).__name__}
            want_samples.append({"z": [z.real, z.imag], **want})
        assert [l for l in out.splitlines() if l.startswith("v ")] == want_vertices
        got = json.loads(err)["samples"]
        for s in got:
            if "H" in s:
                s["H"] = s["H"].hex()
        assert got == want_samples

    @pytest.mark.parametrize("argv, n", [
        (["cusp-degree2", "--n", "6"], 6),
        # a step of 2^-9 leaves k to each point's own mantissa, so the
        # grid needs several Horner tables
        (["affine-null", "--n", "4", "--center", "0.3", "-0.2",
          "--step", repr(2.0 ** -9)], 4),
    ])
    def test_one_stencil_per_grid_point(self, capsys, monkeypatch, argv, n):
        embedded, tabled = [], []

        def counted(fn, calls, key):
            def wrapper(*args, **kw):
                out = fn(*args, **kw)
                calls.append(key(args, out))
                return out
            return wrapper

        monkeypatch.setattr(hyperbolic, "_embeddings", counted(
            hyperbolic._embeddings, embedded, lambda args, out: out[0]))
        monkeypatch.setattr(hyperbolic, "_horner_table", counted(
            hyperbolic._horner_table, tabled, lambda args, out: args[1]))
        code, _, _ = run(capsys, "surface", *argv)
        assert code == 0
        assert len(embedded) == n * n
        assert sorted(tabled) == sorted(set(embedded))


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

    def test_coefficient_beyond_double_is_one_line(self, capsys, write_json,
                                                   loop_file):
        field = write_json("huge.json",
                           model_end_field(Fraction(10 ** 400)).to_json())
        loops = loop_file("loops.json", [PathLoop.circle(0j, 1.0)])
        code, out, err = run(capsys, "holonomy", field, loops)
        assert code == 1 and out == ""
        assert err.startswith("NotRepresentable: -1000") and err.count("\n") == 1

    @pytest.mark.parametrize("den", [
        {0: 1, 1: 5 * 10 ** 300, 2: Fraction(7, 10 ** 50)},   # a root near -7e349
        {0: 5 * 10 ** 300, 1: Fraction(7, 10 ** 50)},
    ], ids=["degree-2", "degree-1"])
    def test_den_root_beyond_double_is_one_line(self, capsys, write_json, loop_file, den):
        # these exited 2 with "math range error" and 0 with a pole at -inf
        field = write_json("far.json", {
            "numerator": LaurentMatrix.diagonal(ONE, -ONE).to_json(),
            "denominator": LaurentPoly(den).to_json()})
        loops = loop_file("loops.json", [PathLoop.circle(0j, 1.0)])
        code, out, err = run(capsys, "holonomy", field, loops)
        assert code == 1 and out == ""
        assert err.startswith("NotRepresentable: ") and err.count("\n") == 1

    def test_bad_loop_kind(self, capsys, write_json):
        field = write_json("zero.json", model_end_field(Fraction(0)).to_json())
        data = PathLoop.circle(0j, 1.0).to_json()
        data["segments"][0]["kind"] = "spiral"
        loops = write_json("bad.json", data)
        code, _, err = run(capsys, "holonomy", field, loops)
        assert code == 2 and "loop file" in err

    def test_empty_loop_list_is_input_error(self, capsys, write_json):
        field = write_json("quarter.json", model_end_field(Fraction(1, 4)).to_json())
        loops = write_json("loops.json", {"loops": []})
        code, out, err = run(capsys, "holonomy", field, loops)
        assert code == 2 and out == "" and "loop file" in err

    @pytest.mark.parametrize("flags", [
        ("--atol", "nan"), ("--atol", "-1"), ("--atol", "0"),
        ("--su2-tol", "-1"), ("--pole-clearance", "nan"),
    ])
    def test_invalid_control_is_input_error(self, capsys, write_json,
                                            loop_file, flags):
        field = write_json("quarter.json", model_end_field(Fraction(1, 4)).to_json())
        loops = loop_file("loops.json", [PathLoop.circle(0j, 1.0)])
        code, out, err = run(capsys, "holonomy", field, loops, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ")

    @pytest.mark.parametrize("segments", [
        [{"kind": "arc", "center": [0.0, 0.0], "radius": math.nan,
          "angle0": 0.0, "angle1": 2 * math.pi}],
        [{"kind": "line", "start": [1.0, 0.0], "end": [math.inf, 0.0]},
         {"kind": "line", "start": [math.inf, 0.0], "end": [1.0, 0.0]}],
    ], ids=["nan-radius", "line-to-infinity"])
    def test_non_finite_loop_is_input_error(self, capsys, write_json, segments):
        # json writes these as the NaN and Infinity literals
        field = write_json("quarter.json", model_end_field(Fraction(1, 4)).to_json())
        loops = write_json("loop.json", {"base": [1.0, 0.0], "segments": segments})
        code, out, err = run(capsys, "holonomy", field, loops)
        assert code == 2
        assert out == ""
        assert "loop file" in err

    @pytest.mark.parametrize("changes", [
        {"radius": True}, {"center": ["0"]}, {"base": [True, False]},
        {"radius": "1", "base": ["1", "0"]},
    ], ids=["bool-radius", "string-center", "bool-base", "string-radius"])
    def test_non_number_in_loop_is_input_error(self, capsys, write_json, changes):
        field = write_json("quarter.json", model_end_field(Fraction(1, 4)).to_json())
        arc = {"kind": "arc", "center": [0.0, 0.0], "radius": 1.0,
               "angle0": 0.0, "angle1": 2 * math.pi}
        data = {"base": changes.pop("base", [1.0, 0.0]),
                "segments": [{**arc, **changes}]}
        loops = write_json("loop.json", data)
        code, out, err = run(capsys, "holonomy", field, loops)
        assert code == 2
        assert out == ""
        assert "loop file" in err

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_arc_radius_is_input_error(self, capsys, write_json,
                                                   radius):
        field = write_json("quarter.json", model_end_field(Fraction(1, 4)).to_json())
        loops = write_json("loop.json", {
            "base": [radius, 0.0],
            "segments": [{"kind": "arc", "center": [0.0, 0.0], "radius": radius,
                          "angle0": 0.0, "angle1": 2 * math.pi}]})
        code, out, err = run(capsys, "holonomy", field, loops)
        assert code == 2
        assert out == ""
        assert "loop file" in err

    def test_pole_on_path_is_library_error(self, capsys, write_json, loop_file):
        field = write_json("half.json", model_end_field(Fraction(1, 2)).to_json())
        loops = loop_file("tiny.json", [PathLoop.circle(0j, 1e-5)])
        code, _, err = run(capsys, "holonomy", field, loops)
        assert code == 1 and "PoleTooClose" in err

    @staticmethod
    def _there_and_back(a, b):
        return {"base": [a.real, a.imag], "segments": [
            {"kind": "line", "start": [p.real, p.imag], "end": [q.real, q.imag]}
            for p, q in ((a, b), (b, a))]}

    @pytest.mark.parametrize("loop, codes", [
        # |b - a|² overflows in LineSegment.min_distance
        (_there_and_back(complex(-1e300, -0.5), complex(1.7e308, 1e150)), (1,)),
        # |b - a| itself overflows: the loop has no length
        (_there_and_back(0.5 + 0j, complex(1.7e308, 1.7e308)), (2,)),
        # the distance from the circle's centre to either pole overflows
        ({"base": [1.7e308, 1.7e308], "segments": [
            {"kind": "arc", "center": [1.7e308, 1.7e308], "radius": 5e-324,
             "angle0": 0.0, "angle1": 2 * math.pi}]}, (1,)),
    ], ids=["line-square", "line-length", "far-circle"])
    def test_loop_near_the_double_range_is_one_line(self, capsys, write_json,
                                                     loop, codes):
        # the bench's two-pole field; each loop used to end in an OverflowError
        q = Fraction(1, 4)
        g0 = LaurentMatrix.diagonal(LaurentPoly.constant(-q), LaurentPoly.constant(q))
        g1 = LaurentMatrix(LaurentPoly.zero(), LaurentPoly.constant(-q),
                           LaurentPoly.constant(-q), LaurentPoly.zero())
        field = write_json("two_pole.json", simple_pole_field([(0, g0), (1, g1)]).to_json())
        loops = write_json("loop.json", loop)
        code, out, err = run(capsys, "holonomy", field, loops)
        assert code in codes and out == "" and err.count("\n") == 1
        assert err.startswith("input error: " if code == 2 else "ToleranceNotMet: ")


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

    def test_matches_not_covering_points(self, capsys, write_json):
        path = write_json("short.json", self.stability_payload(0, [True, False]))
        code, out, err = run(capsys, "stability", path)
        assert code == 2 and out == ""
        assert err.startswith("input error") and path in err

    @pytest.mark.parametrize("key, value", [
        ("genus", 1.7), ("genus", True), ("genus", 0.0), ("degree", True),
        ("degree", 0.5), ("weight", 0.5), ("weight", True),
    ])
    def test_inexact_numbers_rejected(self, capsys, write_json, key, value):
        payload = self.stability_payload(0, [False])
        target = {"genus": payload, "degree": payload["candidates"][0],
                  "weight": payload["points"][0]}[key]
        target[key] = value
        path = write_json("inexact.json", payload)
        code, out, err = run(capsys, "stability", path)
        assert code == 2 and out == "" and "stability file" in err


    @pytest.mark.parametrize("matches", [["false"], [0], [1], ["true"], [None]])
    def test_a_match_must_be_a_json_bool(self, capsys, write_json, matches):
        # bool("false") is True: a string or a number read as a hit once made
        # a stable file "unstable"
        path = write_json("matches.json", self.stability_payload(0, matches))
        code, out, err = run(capsys, "stability", path)
        assert code == 2 and out == ""
        assert "stability file" in err and path in err and "true or false" in err


def _zero_denominator(data):
    """data with its first coefficient's real part replaced by "1/0"."""
    text = json.dumps(data)
    i = text.index('"re": "') + len('"re": "')
    return json.loads(text[:i] + "1/0" + text[text.index('"', i):])


@pytest.mark.parametrize("kind", ["verify", "end", "surface", "holonomy",
                                  "stability"])
def test_zero_denominator_is_input_error(capsys, write_json, loop_file, kind):
    # Fraction("1/0") raises ZeroDivisionError, which must not escape the CLI
    frame = _zero_denominator({"matrix": SHEARED.to_json()})
    if kind == "holonomy":
        field = _zero_denominator(model_end_field(Fraction(1, 4)).to_json())
        argv = [write_json("field.json", field),
                loop_file("loops.json", [PathLoop.circle(0j, 1.0)])]
    elif kind == "stability":
        argv = [write_json("weights.json", {
            "genus": 0, "points": [{"label": "p0", "weight": "1/0"}],
            "candidates": [{"degree": 0, "matches": [False]}]})]
    else:
        argv = [write_json("frame.json", frame)]
        argv = ["1/2"] + argv if kind == "end" else argv
    code, out, err = run(capsys, kind, *argv)
    assert code == 2 and out == "" and err.startswith("input error")


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

    @pytest.mark.parametrize("argv", [("-1", "3", "3"), ("0", "3", "-2")])
    def test_negative_counts_are_input_errors(self, capsys, argv):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 2 and out == ""
        assert err.startswith("input error") and ">= 0" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bounds.json"
        code, out, _ = run(capsys, "bounds", "1", "8", "1",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["required_d"] == 5


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


def test_readme_examples_parse():
    examples = [shlex.split(line.strip())[1:]
                for line in README.read_text().splitlines()
                if line.strip().startswith("bryantlab ")]
    assert len(examples) >= 10
    parser = _build_parser()
    for argv in examples:
        parser.parse_args(argv)


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) >= 2
    for _, code in blocks:
        exec(compile(textwrap.dedent(code), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("genus,degree,point_count,")


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
