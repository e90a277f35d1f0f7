"""Command-line front end.

Subcommands wrap the library one-to-one: verify (symbolic frame checks),
surface (OBJ export plus a curvature summary), holonomy (connection.holonomy
with commutators over a loop file), end (singular-end report), stability,
bounds.

Exit codes: 0 the check passed (or the report was produced), 1 the check
failed or a library error was raised, 2 the input could not be parsed.
Numeric controls all have flags.  Every subcommand runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path as FilePath

from . import connection, ends, frames, hyperbolic, parabolic
from .defaults import DEFAULTS, NumericControls
from .errors import BryantLabError, DegenerateMetric, PoleAtZero
from .series import LaurentMatrix, canonical_dumps

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _controls(args: argparse.Namespace) -> NumericControls:
    return DEFAULTS.with_(step=args.step, rtol=args.rtol, atol=args.atol,
                          su2_tol=args.su2_tol,
                          pole_clearance=args.pole_clearance)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix(spec: str) -> tuple[LaurentMatrix, frames.Annulus]:
    """A frame file path, or a catalog name for the built-in frames."""
    if not FilePath(spec).exists():
        if spec in frames.CATALOG_NAMES:
            f = frames.catalog(spec)
            return f.matrix, f.domain
        raise InputError(f"{spec!r} is neither a file nor one of {frames.CATALOG_NAMES}")
    data = _read_json(spec)
    try:
        matrix = LaurentMatrix.from_json(data["matrix"])
        domain = (frames.Annulus.from_json(data["domain"])
                  if data.get("domain") is not None else frames.Annulus())
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{spec} is not a frame file: {exc}") from exc
    return matrix, domain


def _load_higgs(path: str) -> connection.HiggsField:
    data = _read_json(path)
    try:
        return connection.HiggsField.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a Higgs field file: {exc}") from exc


def _load_loops(path: str) -> list[connection.PathLoop]:
    data = _read_json(path)
    entries = data["loops"] if isinstance(data, dict) and "loops" in data else [data]
    try:
        return [connection.PathLoop.from_json(e) for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a loop file: {exc}") from exc


def _emit(text: str, out: str | None):
    if out:
        FilePath(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    matrix, _ = _load_matrix(args.frame)
    report = frames.check_bryant(matrix)
    _emit(canonical_dumps(report.to_json()), args.out)
    return EXIT_PASS if report.is_bryant else EXIT_FAIL


def _check_grid(args):
    if not (math.isfinite(args.step) and args.step > 0):
        raise InputError(f"--step must be positive and finite, got {args.step!r}")
    if not (math.isfinite(args.radius) and args.radius > 0):
        raise InputError(f"--radius must be positive and finite, got {args.radius!r}")
    if not all(math.isfinite(c) for c in args.center):
        raise InputError(f"--center must be finite, got {list(args.center)!r}")
    if args.n < 1:
        raise InputError(f"--n must be at least 1, got {args.n}")


def cmd_surface(args) -> int:
    _check_grid(args)
    matrix, domain = _load_matrix(args.frame)
    frame = frames.BryantFrame(matrix, domain)
    grid = hyperbolic.GridSpec(center=complex(args.center[0], args.center[1]),
                               radius=args.radius, n=args.n)
    mesh = hyperbolic.sample_mesh(frame, grid)
    controls = _controls(args)

    def sample(z: complex):
        try:
            s = hyperbolic.mean_curvature(frame, z, step=controls.step)
            return {"z": [z.real, z.imag], "H": s.H}
        except (DegenerateMetric, PoleAtZero) as exc:
            return {"z": [z.real, z.imag], "error": type(exc).__name__}

    samples = [sample(z) for z in grid.points()]
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
    theta = _load_higgs(args.field)
    loops = _load_loops(args.loops)
    report = connection.holonomy(theta, loops, _controls(args), commutators=True)
    _emit(canonical_dumps(report.to_json()), args.out)
    return EXIT_PASS if report.passes else EXIT_FAIL


def cmd_end(args) -> int:
    try:
        alpha = Fraction(args.alpha)
        end = ends.SingularEnd(alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad weight {args.alpha!r}: {exc}") from exc
    matrix, _ = _load_matrix(args.frame)
    pair = ends.MeromorphicFramePair.from_matrix(matrix)
    report = ends.end_report(end, pair)
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


def cmd_stability(args) -> int:
    data = _read_json(args.data)
    try:
        pd = parabolic.ParabolicData(
            genus=int(data["genus"]),
            points=tuple(parabolic.MarkedPoint(p["label"], Fraction(p["weight"]))
                         for p in data["points"]))
        if args.enumerate_range is not None:
            candidates = _enumerated_candidates(*args.enumerate_range,
                                                pd.point_count)
        else:
            candidates = [parabolic.SubbundleCandidate(
                degree=int(c["degree"]), matches=tuple(bool(m) for m in c["matches"]),
                label=str(c.get("label", "")))
                for c in data["candidates"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.data} is not a stability file: {exc}") from exc
    report = parabolic.stability_verdict(pd, candidates)
    _emit(canonical_dumps(report.to_json()), args.out)
    return EXIT_PASS if report.stable else EXIT_FAIL


def cmd_bounds(args) -> int:
    report = parabolic.existence_bounds(args.genus, args.degree, args.points)
    if args.format == "csv":
        _emit(parabolic.bounds_csv([report]), args.out)
    else:
        _emit(canonical_dumps(report.to_json()), args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--step", type=float, default=DEFAULTS.step,
                        help="finite-difference step for curvature")
    shared.add_argument("--rtol", type=float, default=DEFAULTS.rtol)
    shared.add_argument("--atol", type=float, default=DEFAULTS.atol)
    shared.add_argument("--su2-tol", dest="su2_tol", type=float,
                        default=DEFAULTS.su2_tol)
    shared.add_argument("--pole-clearance", dest="pole_clearance", type=float,
                        default=DEFAULTS.pole_clearance)
    shared.add_argument("--out", default=None, help="write the report here")
    shared.add_argument("--format", choices=("json", "obj", "csv"),
                        default="json")

    parser = argparse.ArgumentParser(
        prog="bryantlab",
        description="Bryant frames, cmc-1 surfaces, and their period problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[shared],
                       help="symbolic det A = 1 and det A' = 0 checks")
    p.add_argument("frame", help="frame JSON file or catalog name")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("surface", parents=[shared],
                       help="sample a mesh and report curvature")
    p.add_argument("frame")
    p.add_argument("--center", type=float, nargs=2, default=(0.0, 0.0))
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("holonomy", parents=[shared],
                       help="transport the loop generators and test SU(2)")
    p.add_argument("field", help="Higgs field JSON file")
    p.add_argument("loops", help="loop file (single loop or {'loops': [...]})")
    p.set_defaults(fn=cmd_holonomy)

    p = sub.add_parser("end", parents=[shared],
                       help="singular-end report for a frame")
    p.add_argument("alpha", help="weight in [0, 1), e.g. 1/2")
    p.add_argument("frame")
    p.set_defaults(fn=cmd_end)

    p = sub.add_parser("stability", parents=[shared],
                       help="parabolic stability over a candidate list")
    p.add_argument("data", help="stability JSON file")
    p.add_argument("--enumerate", dest="enumerate_range", type=int, nargs=2,
                   metavar=("LO", "HI"), default=None,
                   help="ignore the file's candidates and sweep subbundle "
                        "degrees LO..HI with both uniform match patterns")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("bounds", parents=[shared],
                       help="existence dimension counts")
    p.add_argument("genus", type=int)
    p.add_argument("degree", type=int)
    p.add_argument("points", type=int)
    p.set_defaults(fn=cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except BryantLabError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
