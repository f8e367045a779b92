"""Run the patchmux CLI as its console script does, and record the process's peak RSS.

    python3 perfbench/cli_entry.py PEAK_FILE <patchmux args>

On exit, PEAK_FILE receives the peak resident set size in kB since this
process started the interpreter (``VmHWM`` of /proc/self/status).
``ru_maxrss`` from wait4 or getrusage is no use here: Linux carries the
parent's peak RSS into a child across fork and exec, so it would report the
benchmark's own memory whenever that is larger.
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def record_peak_at_exit(path: str) -> None:
    atexit.register(lambda: Path(path).write_text(str(peak_rss_kb()), encoding="ascii"))


if __name__ == "__main__":
    record_peak_at_exit(sys.argv.pop(1))
    from patchmux.cli import entry

    entry()
