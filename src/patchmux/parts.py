"""Work split by usable CPU: the fork helper of the record I/O and the sampler.

``_write_in_parts`` writes the bytes of parts 0 .. n-1 in order: this process
produces part 0, and each later part runs in a forked child that spools its
bytes to an unlinked temporary file and then sends them back through a pipe;
only this process writes the output, and it does a failed child's part
itself. ``_map_in_parts`` maps a function over parts the same way, keeping
part 0's result as it is and taking each later part's as a pickle, which its
child holds in memory: the pickle is one block already made.
``gap_analysis`` reads and writes record files through them, ``curves``
writes curve files, and ``montecarlo`` folds a run's shot ranges. The module
loads no numpy, so no layer needs another to split its work.
"""

from __future__ import annotations

import io
import os
import pickle
import shutil
import tempfile
import threading

# A forked part's bytes are copied to and from its pipe this many at a time,
# so neither process holds a whole part.
_PIPE_CHUNK = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where the platform does not say."""
    try:
        return max(0, os.sysconf("SC_PHYS_PAGES")) * max(0, os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return 0


# Fork, not spawn: a spawned child imports numpy and patchmux again (~0.25 s,
# more than a part takes).
class _Child:
    """A forked process producing the bytes of one part, and its pipe."""

    def __init__(self, produce, part: int, others: list["_Child"], spool: bool) -> None:
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            status = 1
            try:  # never returns: a child must not run the CLI's rest or atexit
                os.close(read_fd)
                for other in others:
                    other.pipe.close()
                # the whole part first: streaming while this process still
                # produces part 0 would block the child on a full pipe
                with open(write_fd, "wb") as pipe:
                    if spool:
                        with tempfile.TemporaryFile() as held:
                            held.writelines(produce(part))
                            pipe.write(held.tell().to_bytes(8, "little"))
                            held.seek(0)
                            shutil.copyfileobj(held, pipe, _PIPE_CHUNK)
                    else:
                        blocks = list(produce(part))
                        pipe.write(sum(map(len, blocks)).to_bytes(8, "little"))
                        pipe.writelines(blocks)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")
        self.status: int | None = None

    def copy_to(self, out) -> bool:
        """Copy the part into ``out`` in ``_PIPE_CHUNK`` pieces; whether it
        arrived whole from a child that exited 0."""
        size = self.pipe.read(8)
        left = int.from_bytes(size, "little")
        while left and (chunk := self.pipe.read(min(left, _PIPE_CHUNK))):
            out.write(chunk)
            left -= len(chunk)
        return self.wait() == 0 and len(size) == 8 and left == 0

    def wait(self) -> int:
        self.pipe.close()  # a child still writing then fails, and exits
        if self.status is None:
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status


def _write_in_parts(out, produce, count: int, spool: bool = True) -> None:
    """Write the bytes of ``produce(0)``, ..., ``produce(count - 1)`` to the
    binary stream ``out``, in order.

    With two or more parts, where the platform can fork and this process runs
    one thread (a fork copies no other thread, and would copy the locks they
    hold), parts 1 on are produced in forked children while this process
    produces part 0. A child spools its part's blocks to a temporary file, or
    holds them in memory where ``spool`` is false. A child that cannot start,
    cannot spool, exits non-zero or sends a short stream costs only time:
    ``out`` is cut back to where its part began and the part is produced here.
    """
    children: list[_Child] = []
    if count >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        try:
            for part in range(1, count):
                children.append(_Child(produce, part, children, spool))
        except OSError:  # no pipe or process to be had: the rest run here
            pass
    try:
        for part in range(count):
            start = out.tell()
            if not (0 < part <= len(children) and children[part - 1].copy_to(out)):
                out.seek(start)
                out.truncate()
                out.writelines(produce(part))
    finally:
        for child in children:
            child.wait()


def _map_in_parts(fn, count: int) -> list:
    """``[fn(0), ..., fn(count - 1)]``: part 0 here and the others in forked
    children where ``_write_in_parts`` forks. Part 0's result is kept as it
    is; each later part's crosses as a pickle, whose buffer is freed as this
    returns."""
    first = []

    def produce(part: int) -> list[bytes]:
        if part:
            return [pickle.dumps(fn(part))]
        first.append(fn(0))
        return []

    out = io.BytesIO()
    _write_in_parts(out, produce, count, spool=False)
    out.seek(0)
    return first + [pickle.load(out) for _ in range(count - 1)]
