"""Golden outputs: every seed-7 and seed-8 bench job gives the committed bytes.

``bench/workloads.build`` makes 122 jobs for seeds 7 and 8: 26 ``surface``,
14 ``holonomy`` and 82 ``exact``.  This test rebuilds them in a temporary
directory, runs each in process, and compares it with its entry in
``golden_outputs.json``.  An entry holds the exit code, the sha256 of the
captured stdout and stderr, and the sha256 of the report file the job
wrote.  Every CLI job of a workload writes the same ``--out`` file, so the
report is read right after its job.  The six ``exact.null_field`` jobs
call the library and write no report; their returned value is hashed as
canonical JSON.  For ``holonomy`` the entry also keeps each matrix entry
as ``float.hex``, so that a mismatch names its largest |Δ|.

A change that moves outputs on purpose regenerates the manifest in the
same commit and lists each changed entry, with its largest |Δ|:

    PYTHONPATH=src python tests/test_golden_outputs.py

The manifest records the Python and numpy versions it was made with.  A
mismatch fails the test on any build.  Where the running versions differ
from the recorded ones, the failure message says so, because then the
difference may come from the build rather than the code.  No job calls
numpy or LAPACK: the package runs on the standard library, so outputs are
plain float arithmetic, and the only root the jobs find (the second pole of
the two-pole field) comes from the degree-1 closed form -c_0/c_1.  The
numpy version stays in the record because ``bench/workloads.py``, which
writes the bench's own inputs before any job runs, imports numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_outputs.json")
SEEDS = (7, 8)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(value) -> bytes:
    """A library job's return value as sorted-key JSON."""
    def plain(x):
        if hasattr(x, "to_json"):
            return x.to_json()
        if isinstance(x, (tuple, list)):
            return [plain(v) for v in x]
        return x
    return json.dumps(plain(value), sort_keys=True).encode()


def _hex_matrices(report: bytes) -> list:
    return [[[[float.hex(float(x)) for x in entry] for entry in row] for row in m]
            for m in json.loads(report)["matrices"]]


def run_jobs(workdir: Path) -> list[dict]:
    """Run the seed-7 and seed-8 jobs of every workload under workdir; one
    entry per job, in build order."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    entries = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            wd = workdir / f"{workload}-{seed}"
            wd.mkdir()
            for index, job in enumerate(workloads.build(workload, seed, str(wd))):
                for old in wd.glob("*_out*"):   # every report file's name
                    old.unlink()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    value = job.run()
                entry = {"workload": workload, "seed": seed, "index": index,
                         "kind": job.kind, "label": job.label,
                         "stdout": _sha(out.getvalue().encode()),
                         "stderr": _sha(err.getvalue().encode())}
                reports = list(wd.glob("*_out*"))
                if isinstance(value, int):
                    (report,) = reports
                    data = report.read_bytes()
                    entry.update(exit=value, report=_sha(data))
                    if workload == "holonomy":
                        entry["matrices"] = _hex_matrices(data)
                else:
                    assert not reports, f"{job.kind} [{job.label}] wrote {reports}"
                    entry.update(exit=None, value=_sha(_canonical(value)))
                entries.append(entry)
    return entries


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _largest_delta(a: list, b: list) -> float:
    """The largest |Δ| between two holonomy reports' matrix entries."""
    def values(ms):
        return [complex(float.fromhex(re), float.fromhex(im))
                for m in ms for row in m for re, im in row]
    va, vb = values(a), values(b)
    if len(va) != len(vb):
        return float("inf")
    return max((abs(x - y) for x, y in zip(va, vb)), default=0.0)


def test_bench_jobs_give_the_golden_outputs(tmp_path):
    golden = json.loads(MANIFEST.read_text())
    got = run_jobs(tmp_path)
    assert len(got) == len(golden["jobs"]) == 122
    problems = []
    for want, have in zip(golden["jobs"], got):
        name = f"{want['workload']} seed {want['seed']} #{want['index']} [{want['label']}]"
        changed = sorted(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
        if not changed:
            continue
        line = f"{name}: {', '.join(changed)} differ"
        if "matrices" in changed and "matrices" in want and "matrices" in have:
            line += f", largest |Δ| {_largest_delta(want['matrices'], have['matrices']):.3e}"
        problems.append(line)
    if problems and golden["versions"] != _versions():
        problems.append(f"the manifest was made with {golden['versions']}, "
                        f"this build is {_versions()}")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        jobs = run_jobs(Path(tmp))
    MANIFEST.write_text(json.dumps({"versions": _versions(), "jobs": jobs},
                                   indent=1) + "\n")
    print(f"wrote {len(jobs)} entries to {MANIFEST}")
