"""Command-line front end.

Subcommands wrap the library one-to-one: verify (symbolic frame checks),
surface (OBJ export plus a curvature summary), holonomy (transport each
loop of a loop file around a Higgs field and report its SU(2) and
commutator defects), end (singular-end report), stability, bounds.

Exit codes: 0 the check passed (or the report was produced), 1 the check
failed or a library error was raised, 2 the input could not be parsed.
Each subcommand takes only the flags it reads; a NumericControls field is a
flag of the subcommands that use it.  NumericControls and GridSpec check
their own values, and a bad one exits 2 before any work starts.  Every
subcommand runs single-threaded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction

from . import connection, ends, frames, hyperbolic, parabolic
from .defaults import DEFAULTS, NumericControls
from .errors import BryantLabError
from .series import LaurentMatrix, canonical_dumps

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _controls(args: argparse.Namespace) -> NumericControls:
    """DEFAULTS overridden by the control flags this subcommand defines."""
    given = {f.name: getattr(args, f.name) for f in fields(NumericControls)
             if hasattr(args, f.name)}
    try:
        return DEFAULTS.with_(**given)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, kind: str, build):
    """build(data) on the JSON read from path; data that build rejects is
    an InputError naming the file and its kind."""
    data = _read_json(path)
    try:
        return build(data)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"{path} is not a {kind} file: {exc}") from exc


def _frame_from_json(data) -> tuple[LaurentMatrix, frames.Annulus]:
    matrix = LaurentMatrix.from_json(data["matrix"])
    return matrix, (frames.Annulus.from_json(data["domain"])
                    if data.get("domain") is not None else frames.Annulus())


def _load_matrix(spec: str) -> tuple[LaurentMatrix, frames.Annulus]:
    """A frame file path, or a catalog name for the built-in frames."""
    if not os.path.exists(spec):
        if spec in frames.CATALOG_NAMES:
            f = frames.catalog(spec)
            return f.matrix, f.domain
        raise InputError(f"{spec!r} is neither a file nor one of {frames.CATALOG_NAMES}")
    return _load(spec, "frame", _frame_from_json)


def _loops_from_json(data) -> list[connection.PathLoop]:
    entries = data["loops"] if isinstance(data, dict) and "loops" in data else [data]
    if not entries:
        raise ValueError("the loop list is empty")
    return [connection.PathLoop.from_json(e) for e in entries]


def _emit(text: str, out: str | None):
    if out:
        # not pathlib: a Path interns its parts, and interning short-lived
        # names makes the interpreter rebuild its interned-string table
        # every few thousand calls, a transient ~0.8 MB of peak RSS
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    matrix, _ = _load_matrix(args.frame)
    report = frames.check_bryant(matrix)
    _emit(canonical_dumps(report.to_json()), args.out)
    return EXIT_PASS if report.is_bryant else EXIT_FAIL


def cmd_surface(args) -> int:
    controls = _controls(args)
    try:
        grid = hyperbolic.GridSpec(center=complex(*args.center),
                                   radius=args.radius, n=args.n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    matrix, domain = _load_matrix(args.frame)
    frame = frames.BryantFrame(matrix, domain)
    mesh = hyperbolic.sample_mesh(frame, grid, controls.step)
    samples = [{"z": [z.real, z.imag],
                **({"H": s.H} if isinstance(s, hyperbolic.CurvatureSample)
                   else {"error": type(s).__name__})}
               for z, s in zip(grid.points(), mesh.samples)]
    values = [s["H"] for s in samples if "H" in s]
    summary = {
        "vertices": mesh.valid_vertex_count,
        "faces": len(mesh.faces),
        "samples": samples,
        "flagged": [s for s in samples if "error" in s],
        "mean_abs_H_minus_1": (sum(abs(h - 1) for h in values) / len(values)
                               if values else None),
        "max_abs_H_minus_1": (max(abs(h - 1) for h in values)
                              if values else None),
    }
    if args.format == "obj":
        _emit(mesh.to_obj(), args.out)
        stream = sys.stdout if args.out else sys.stderr
        stream.write(canonical_dumps(summary))
    else:
        _emit(canonical_dumps(summary), args.out)
    return EXIT_PASS


def cmd_holonomy(args) -> int:
    controls = _controls(args)
    theta = _load(args.field, "Higgs field", connection.HiggsField.from_json)
    loops = _load(args.loops, "loop", _loops_from_json)
    report = connection.holonomy(theta, loops, controls)
    _emit(canonical_dumps(report.to_json()), args.out)
    return EXIT_PASS if report.passes else EXIT_FAIL


def cmd_end(args) -> int:
    try:
        alpha = Fraction(args.alpha)
        end = ends.SingularEnd(alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad weight {args.alpha!r}: {exc}") from exc
    matrix, _ = _load_matrix(args.frame)
    report = ends.end_report(end, matrix)
    _emit(canonical_dumps(report), args.out)
    return EXIT_PASS if report["stareq_pass"] else EXIT_FAIL


def _enumerated_candidates(lo: int, hi: int, n_points: int):
    """Degree sweep with the two uniform match patterns (split bundles)."""
    if lo > hi:
        raise InputError(f"empty degree range {lo}..{hi}")
    out = []
    for k in range(lo, hi + 1):
        out.append(parabolic.SubbundleCandidate(
            degree=k, matches=(False,) * n_points, label=f"deg {k}, off flags"))
        if n_points:
            out.append(parabolic.SubbundleCandidate(
                degree=k, matches=(True,) * n_points, label=f"deg {k}, on flags"))
    return out


def _exact(x, kind):
    """kind(x) for a JSON value that is exact: a float or a bool is not."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"expected an exact number, got {x!r}")
    return kind(x)


def cmd_stability(args) -> int:
    def flag(m):   # a match is a JSON bool: "false" or 0 in its place is bad input
        if type(m) is not bool:
            raise ValueError(f"a match must be true or false, got {m!r}")
        return m
    def verdict(data):   # in _load: a match list that misses a marked point is bad input
        pd = parabolic.ParabolicData(
            genus=_exact(data["genus"], int),
            points=tuple(parabolic.MarkedPoint(p["label"], _exact(p["weight"], Fraction))
                         for p in data["points"]))
        candidates = (_enumerated_candidates(*args.enumerate_range, pd.point_count)
                      if args.enumerate_range is not None else
                      [parabolic.SubbundleCandidate(
                          _exact(c["degree"], int), tuple(map(flag, c["matches"])),
                          str(c.get("label", ""))) for c in data["candidates"]])
        return parabolic.stability_verdict(pd, candidates)

    report = _load(args.data, "stability", verdict)
    _emit(canonical_dumps(report.to_json()), args.out)
    return EXIT_PASS if report.stable else EXIT_FAIL


def cmd_bounds(args) -> int:
    try:
        report = parabolic.existence_bounds(args.genus, args.degree, args.points)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.format == "csv":
        _emit(parabolic.bounds_csv([report]), args.out)
    else:
        _emit(canonical_dumps(report.to_json()), args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------

def _control_flags(p: argparse.ArgumentParser, *names: str):
    """One flag per named NumericControls field, defaulting to DEFAULTS."""
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=float,
                       default=getattr(DEFAULTS, name))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bryantlab",
        description="Bryant frames, cmc-1 surfaces, and their period problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="write the report here")
        p.set_defaults(fn=fn)
        return p

    p = command("verify", cmd_verify, "symbolic det A = 1 and det A' = 0 checks")
    p.add_argument("frame", help="frame JSON file or catalog name")

    p = command("surface", cmd_surface, "sample a mesh and report curvature")
    p.add_argument("frame")
    p.add_argument("--center", type=float, nargs=2, default=(0.0, 0.0))
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--format", choices=("json", "obj"), default="json")
    _control_flags(p, "step")

    p = command("holonomy", cmd_holonomy,
                "transport the loop generators and test SU(2)")
    p.add_argument("field", help="Higgs field JSON file")
    p.add_argument("loops", help="loop file (single loop or {'loops': [...]})")
    _control_flags(p, "atol", "su2_tol", "pole_clearance")

    p = command("end", cmd_end, "singular-end report for a frame")
    p.add_argument("alpha", help="weight in [0, 1), e.g. 1/2")
    p.add_argument("frame")

    p = command("stability", cmd_stability,
                "parabolic stability over a candidate list")
    p.add_argument("data", help="stability JSON file")
    p.add_argument("--enumerate", dest="enumerate_range", type=int, nargs=2,
                   metavar=("LO", "HI"), default=None,
                   help="ignore the file's candidates and sweep subbundle "
                        "degrees LO..HI with both uniform match patterns")

    p = command("bounds", cmd_bounds, "existence dimension counts")
    p.add_argument("genus", type=int)
    p.add_argument("degree", type=int)
    p.add_argument("points", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact integers of any length are read and printed: lift Python's
    # int/str digit limit for the command, and restore the caller's
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except BryantLabError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_FAIL
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
