"""Spans around the public functions of each bryantlab module.

The wrappers are installed from here, only for traced rounds, and
removed afterwards; ``src/`` is not edited.  A span records name, start,
end, parent span and job id; spans stay in memory and are written when
the run ends.  A layer's self time is its span's duration minus the
duration of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from time import perf_counter

from bryantlab import cli, connection, ends, frames, hyperbolic, parabolic, series

# (owner, attribute, span name); owners are modules or classes
TRACED = (
    (cli, "main", "cli.main"),
    (frames, "check_bryant", "frames.check_bryant"),
    (series.LaurentPoly, "__mul__", "series.LaurentPoly.__mul__"),
    (series.LaurentMatrix, "eval_exact", "series.LaurentMatrix.eval_exact"),
    (series.LaurentMatrix, "evaluate", "series.LaurentMatrix.evaluate"),
    (hyperbolic, "mean_curvature", "hyperbolic.mean_curvature"),
    (hyperbolic, "sample_mesh", "hyperbolic.sample_mesh"),
    (connection.HiggsField, "value", "connection.HiggsField.value"),
    (connection, "parallel_transport", "connection.parallel_transport"),
    (connection, "report_from_matrices", "connection.report_from_matrices"),
    (connection, "higgs_from_frame", "connection.higgs_from_frame"),
    (connection, "ktuy_check", "connection.ktuy_check"),
    (connection, "det_higgs", "connection.det_higgs"),
    (connection, "cousin_data", "connection.cousin_data"),
    (ends, "end_report", "ends.end_report"),
    (parabolic, "stability_verdict", "parabolic.stability_verdict"),
    (parabolic, "existence_bounds", "parabolic.existence_bounds"),
)

SPAN_NAMES = tuple(name for _, _, name in TRACED)
JOB_SPAN = "job"


class Tracer:
    """Span recorder for one benchmark run.

    Jobs run one at a time (the CLI's pool has one worker, and the main
    thread waits on it), so a single stack gives every span its parent.
    """

    def __init__(self):
        # name, start, end, parent index (-1 for none), job id
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self._job = -1
        self._originals: list[tuple[object, str, object]] = []

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, name: str, start: float, end: float):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self._job)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx, name, start, perf_counter())

        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("wrappers are already installed")
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def run_job(self, job_id: int, fn):
        """Run fn under a root span for the job; returns fn's value."""
        self._job = job_id
        idx = self._enter()
        start = perf_counter()
        try:
            return fn()
        finally:
            self._exit(idx, JOB_SPAN, start, perf_counter())
            self._job = -1

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name over all recorded spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def write(self, path: str):
        """All spans as gzipped JSON rows [name, start, end, parent, job]."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))
