"""Run one patchmux CLI command with its layer calls timed from outside.

    python3 perfbench/traced_cli.py PEAK_FILE SPANS_JSON RUN_ID PARENT_ID -- <patchmux args>

The program is not edited. Before ``patchmux.cli.main`` runs, the public
library names it calls are replaced by wrappers that record one span per
call: name, run id, parent span, start and end on the monotonic clock
shared by every process on the host (``time.perf_counter`` on Linux),
process CPU time, and a few counts taken from the call's arguments or
result. Spans are kept in memory and written to SPANS_JSON once, after
``main`` returns and every wrapped name has been restored. The process
exits with ``main``'s exit code and records its peak RSS in PEAK_FILE, as
``cli_entry.py`` does.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from cli_entry import peak_rss_kb, record_peak_at_exit


def _peak_rss_mb() -> float:
    return peak_rss_kb() / 1024.0


def _file_bytes(path) -> int:
    return os.path.getsize(path)


class Tracer:
    """Collects spans for one process; span ids are unique per process."""

    def __init__(self, run_id: str, parent: str | None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[str | None] = [parent]
        self._next = 0

    def wrap(self, name: str, fn, counts=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``counts(args, kwargs, result)`` returns a dict of counts for the span.
        """

        def traced(*args, **kwargs):
            span_id = f"{os.getpid()}.{self._next}"
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            rss0 = _peak_rss_mb()
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                self._stack.pop()
                attrs = {"rss_growth_mb": _peak_rss_mb() - rss0}
                if counts is not None and returned:
                    attrs.update(counts(args, kwargs, result))
                self.spans.append(
                    {
                        "name": name,
                        "run": self.run_id,
                        "id": span_id,
                        "parent": parent,
                        "start": t0,
                        "end": t1,
                        "cpu_s": cpu1 - cpu0,
                        "attrs": attrs,
                    }
                )

        return traced


def _targets(cli, gap_analysis):
    """(owner, attribute, span name, counts) for every wrapped library call."""
    return [
        (
            cli,
            "run_simulation",
            "montecarlo.run_simulation",
            lambda a, k, r: {
                "shots": r.shots,
                "kept": r.kept,
                "workers": k.get("workers", 1),
            },
        ),
        (
            cli,
            "write_records_jsonl",
            "montecarlo.write_records_jsonl",
            lambda a, k, r: {"bytes": _file_bytes(a[1]), "records": r},
        ),
        (
            gap_analysis.RecordSet,
            "from_jsonl",
            "gap_analysis.from_jsonl",
            lambda a, k, r: {"records": len(r), "n_attempts": r.n_attempts},
        ),
        (
            gap_analysis.RecordSet,
            "from_csv",
            "gap_analysis.from_csv",
            lambda a, k, r: {"records": len(r), "n_attempts": r.n_attempts},
        ),
        (
            cli,
            "sweep",
            "gap_analysis.sweep",
            lambda a, k, r: {"grid_points": len(r.points)},
        ),
        (cli, "extrapolate_tail", "gap_analysis.extrapolate_tail", None),
        (
            cli,
            "write_curve_csv",
            "gap_analysis.write_curve_csv",
            lambda a, k, r: {"bytes": _file_bytes(a[1])},
        ),
        (cli, "find_crossing", "gap_analysis.find_crossing", None),
    ]


def run_traced(argv: list[str], spans_path: Path, run_id: str, parent: str | None) -> int:
    from patchmux import cli, gap_analysis

    tracer = Tracer(run_id, parent)
    saved = []
    try:
        for owner, attr, name, counts in _targets(cli, gap_analysis):
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                # bind to the class now, so the wrapper is a plain function
                wrapped = staticmethod(tracer.wrap(name, getattr(owner, attr), counts))
            else:
                wrapped = tracer.wrap(name, raw, counts)
            setattr(owner, attr, wrapped)
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
    for owner, attr, raw in saved:
        if vars(owner)[attr] is not raw:
            raise RuntimeError(f"{attr} was not restored")
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


def main() -> int:
    if len(sys.argv) < 6 or sys.argv[5] != "--":
        print(
            "usage: traced_cli.py PEAK_FILE SPANS_JSON RUN_ID PARENT_ID -- <patchmux args>",
            file=sys.stderr,
        )
        return 2
    peak_file, spans_path, run_id, parent = sys.argv[1:5]
    record_peak_at_exit(peak_file)
    return run_traced(sys.argv[6:], Path(spans_path), run_id, parent or None)


if __name__ == "__main__":
    raise SystemExit(main())
