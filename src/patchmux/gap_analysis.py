"""Gap-threshold acceptance sweeps over per-shot records.

Each kept shot carries a confidence gap (a non-negative scalar from the
downstream decoder, consumed here as data) and a correct/error flag. A
``RecordSet`` holds them as numpy columns. A sweep at threshold G keeps the
records with gap >= G; each row of the resulting ``SweepCurve`` holds the
kept correct and error counts, the expected attempts per kept shot
A(G) = n_attempts / kept and the error fraction among kept shots p_L(G).
Both are NaN-sentinelled when nothing survives a threshold; an empty kept
set never reports a zero error rate. A tail fit adds rows of the same type,
flagged ``extrapolated``, whose error count is the fitted estimate.

Record files (JSONL, or CSV for ingestion) and curve CSVs are read and
written a fixed block of lines or rows at a time: a block is parsed or
formatted in one batch, so only the numpy columns grow with the file. A
block that fails any check is read again record by record, which names the
first bad record as a line-by-line reader would. A leading UTF-8 byte order
mark is skipped; one anywhere else is a record error.

Large files are read and written on every usable CPU, by one fork helper
(``_write_in_parts``): this process handles part 0, and each later part runs
in a forked child that sends its bytes back through a pipe; only this
process writes the output, and it does a failed child's part itself. A
record file whose body holds at least two ``_PART_BYTES`` is cut into byte
ranges that each end just after a ``\n`` byte, one per CPU, each parsed by
the same block functions (and quote-free ``number,flag`` CSV text without
the csv module). A range returns its columns or declines; any decline reads
the whole file again with the serial reader, so outputs and error messages
do not depend on the split. A record set or curve of at least two
``_PART_ROWS`` rows is cut into row ranges, one per CPU, each formatted by
the writer's one block formatter, so the bytes do not depend on the split.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import re
import threading
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

UNDEFINED = math.nan

RECORD_FIELDS = {"gap", "correct", "attempts_consumed"}

# Record and curve files are read and written this many lines (or CSV rows)
# at a time, so the Python objects alive at once do not grow with the file.
_IO_BLOCK = 4096

# A file whose body holds at least two parts of this many bytes is read in
# line-aligned byte ranges, one per usable CPU.
_PART_BYTES = 1 << 19

# Record and curve sets of at least two parts of this many rows are written
# in parts, one per usable CPU.
_PART_ROWS = 1 << 14

# A forked part's bytes are copied from its pipe this many at a time, so the
# writing process never holds a whole part.
_PIPE_CHUNK = 1 << 16

_INT64_MAX = int(np.iinfo(np.int64).max)

_CSV_FLAGS = {"true": True, "1": True, "false": False, "0": False}


class RecordFormatError(ValueError):
    """Malformed record stream; message carries the record number."""


def _gaps_in_range(gaps: np.ndarray) -> bool:
    return bool(np.all(gaps >= 0.0) and np.all(np.isfinite(gaps)))


def _checked_gap(rec_no: int, gap) -> float:
    """``gap`` as a float, or the range error naming its record."""
    try:
        value = float(gap)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not 0.0 <= value < math.inf:  # also rejects NaN
        raise RecordFormatError(f"record {rec_no}: gap {gap!r} out of range")
    return value


def _jsonl_record(rec_no: int, line: str) -> tuple[float, bool, int | None]:
    """Parse and check one non-blank JSONL line: (gap, correct, attempts_consumed).

    Every record error message of the JSONL reader comes from here.
    """
    try:
        obj = json.loads(line)
    # JSONDecodeError, an integer of too many digits, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise RecordFormatError(f"record {rec_no}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise RecordFormatError(f"record {rec_no}: expected an object")
    unknown = set(obj) - RECORD_FIELDS
    if unknown:
        raise RecordFormatError(f"record {rec_no}: unknown fields {sorted(unknown)}")
    if "gap" not in obj or "correct" not in obj:
        raise RecordFormatError(f"record {rec_no}: missing 'gap' or 'correct'")
    gap = obj["gap"]
    flag = obj["correct"]
    if not isinstance(gap, (int, float)) or isinstance(gap, bool):
        raise RecordFormatError(f"record {rec_no}: gap must be a number")
    if not isinstance(flag, bool):
        raise RecordFormatError(f"record {rec_no}: correct must be a boolean")
    value = _checked_gap(rec_no, gap)
    if "attempts_consumed" not in obj:
        return value, flag, None
    ac = obj["attempts_consumed"]
    if not isinstance(ac, int) or isinstance(ac, bool) or ac < 1:
        raise RecordFormatError(f"record {rec_no}: attempts_consumed must be a positive integer")
    if ac > _INT64_MAX:
        raise RecordFormatError(f"record {rec_no}: attempts_consumed exceeds {_INT64_MAX}")
    return value, flag, ac


def _checked_jsonl_block(lines: list[str], first_no: int, consumed: int):
    """Read a block record by record, raising the first record's error.

    Returns (gaps, correct, records with attempts_consumed, running total of
    attempts_consumed), the same as ``_jsonl_block``.
    """
    gaps: list[float] = []
    flags: list[bool] = []
    with_consumed = 0
    for rec_no, line in enumerate(lines, start=first_no):
        line = line.strip()
        if not line:
            continue
        gap, flag, ac = _jsonl_record(rec_no, line)
        gaps.append(gap)
        flags.append(flag)
        if ac is not None:
            with_consumed += 1
            consumed += ac
            if consumed > _INT64_MAX:
                raise RecordFormatError(
                    f"record {rec_no}: attempts_consumed total exceeds {_INT64_MAX}"
                )
    return np.array(gaps, dtype=np.float64), np.array(flags, dtype=bool), with_consumed, consumed


def _jsonl_block(lines: list[str], consumed: int):
    """Parse a block with one ``json.loads``; None when any check fails.

    The block is accepted only if every non-blank line ends in ``}`` and the
    joined array holds one object per line, every object a flat record whose
    keys and value types pass. A string running across a join would hold the
    joining comma, and no record key does, so none does; each line then ends
    at the close of a top-level object, and with as many objects as lines,
    each line was exactly one object, as a line-by-line parse would find.
    """
    texts = [text for text in map(str.strip, lines) if text]
    try:
        objs = json.loads("[" + ",".join(texts) + "]")
    except (ValueError, RecursionError):  # the array nests each line one level deeper
        return None
    if (
        len(objs) != len(texts)
        or not all(text[-1] == "}" for text in texts)
        or not set(map(type, objs)) <= {dict}
        or not set().union(*objs) <= RECORD_FIELDS
    ):
        return None
    gaps = [obj.get("gap") for obj in objs]
    flags = [obj.get("correct") for obj in objs]
    acs = [obj["attempts_consumed"] for obj in objs if "attempts_consumed" in obj]
    if (
        not set(map(type, gaps)) <= {int, float}
        or not set(map(type, flags)) <= {bool}
        or not set(map(type, acs)) <= {int}
    ):
        return None
    try:
        gap_column = np.array(gaps, dtype=np.float64)
        ac_column = np.array(acs, dtype=np.int64)
    except OverflowError:
        return None
    if not _gaps_in_range(gap_column) or not np.all(ac_column >= 1):
        return None
    consumed += sum(acs)  # Python ints: a total past int64 is caught, not wrapped
    if consumed > _INT64_MAX:
        return None
    return gap_column, np.array(flags, dtype=bool), len(acs), consumed


def _csv_record(rec_no: int, row: list[str]) -> tuple[float, bool]:
    """Check one non-blank CSV row; every CSV record error message comes from here."""
    if len(row) != 2:
        raise RecordFormatError(f"record {rec_no}: expected 2 columns")
    try:
        gap = float(row[0])
    except ValueError:
        raise RecordFormatError(f"record {rec_no}: bad gap {row[0]!r}") from None
    flag = _CSV_FLAGS.get(row[1].strip().lower())
    if flag is None:
        raise RecordFormatError(f"record {rec_no}: bad flag {row[1]!r}")
    return _checked_gap(rec_no, gap), flag


def _csv_rows(reader, count: int, path, first_no: int) -> list[list[str]]:
    """The next ``count`` rows; a row the csv module cannot split (a cell past
    its field limit, say) is an error naming the file and the record, with the
    header as record 0."""
    rows: list[list[str]] = []
    try:
        rows.extend(islice(reader, count))  # keeps the rows before a bad one
    except csv.Error as exc:
        raise RecordFormatError(f"{path}: record {first_no + len(rows)}: {exc}") from None
    return rows


def _is_blank(row: list[str]) -> bool:
    return not any(map(str.strip, row))


def _checked_csv_block(rows: list[list[str]], first_no: int):
    """Read a block row by row, raising the first row's error."""
    checked = [
        _csv_record(rec_no, row)
        for rec_no, row in enumerate(rows, start=first_no)
        if not _is_blank(row)
    ]
    gaps = np.array([gap for gap, _ in checked], dtype=np.float64)
    return gaps, np.array([flag for _, flag in checked], dtype=bool)


def _csv_block(rows: list[list[str]]):
    """Convert a block column by column; None when any check fails."""
    rows = [row for row in rows if not _is_blank(row)]
    if not set(map(len, rows)) <= {2}:
        return None
    gap_texts, flag_texts = zip(*rows) if rows else ((), ())
    try:
        gaps = np.fromiter(map(float, gap_texts), np.float64, len(rows))
        flags = np.fromiter(
            map(_CSV_FLAGS.__getitem__, map(str.lower, map(str.strip, flag_texts))),
            bool,
            len(rows),
        )
    except (ValueError, KeyError):
        return None
    if not _gaps_in_range(gaps):
        return None
    return gaps, flags


class _Columns:
    """Gap and flag columns that grow by doubling as blocks are appended."""

    def __init__(self) -> None:
        self.gaps = np.empty(0, dtype=np.float64)
        self.correct = np.empty(0, dtype=bool)
        self.size = 0

    def append(self, gaps: np.ndarray, correct: np.ndarray) -> None:
        end = self.size + gaps.size
        if end > self.gaps.size:
            capacity = max(end, 2 * self.gaps.size)
            self.gaps.resize(capacity, refcheck=False)
            self.correct.resize(capacity, refcheck=False)
        self.gaps[self.size : end] = gaps
        self.correct[self.size : end] = correct
        self.size = end

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        self.gaps.resize(self.size, refcheck=False)
        self.correct.resize(self.size, refcheck=False)
        return self.gaps, self.correct


def _read_jsonl(path) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Gaps, flags, records with attempts_consumed and their total, read
    block by block; the only source of JSONL record errors."""
    columns = _Columns()
    with_consumed = consumed = 0
    line_no = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        while lines := list(islice(fh, _IO_BLOCK)):
            block = _jsonl_block(lines, consumed) or _checked_jsonl_block(
                lines, line_no + 1, consumed
            )
            gaps, correct, block_consumed, consumed = block
            columns.append(gaps, correct)
            with_consumed += block_consumed
            line_no += len(lines)
    return *columns.arrays(), with_consumed, consumed


def _check_csv_header(header: list[list[str]]) -> None:
    if not header or [h.strip().lower() for h in header[0]] != ["gap", "correct"]:
        raise RecordFormatError("expected CSV header 'gap,correct'")


def _read_csv(path) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Gaps and flags, read block by block (and two zeros, as ``_read_jsonl``
    gives); the only source of CSV record errors."""
    columns = _Columns()
    row_no = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        _check_csv_header(_csv_rows(reader, 1, path, 0))
        while rows := _csv_rows(reader, _IO_BLOCK, path, row_no + 1):
            columns.append(*(_csv_block(rows) or _checked_csv_block(rows, row_no + 1)))
            row_no += len(rows)
    return *columns.arrays(), 0, 0


# Split reading. A range is parsed by the block functions above and either
# returns its columns or declines (None); any decline makes the caller read
# the whole file serially, so record errors and their numbers always come
# from the serial readers.

# Quote-free "number,flag" rows, each ending in a \n, a \r\n or the text, with
# no blank or spaced cell: csv.reader splits each at its one comma, so the
# cells are cut out of the block's text in bulk.
_PLAIN_CELL = 64
_PLAIN_CSV_ROWS = re.compile(
    r"(?:[0-9.eE+-]{1,%d},(?:true|false|1|0)(?:\r?\n|\Z))*" % _PLAIN_CELL
)


def _plain_csv_block(text: str):
    """Columns of text that ``_PLAIN_CSV_ROWS`` matches; None on a bad gap."""
    cells = text.replace("\r", "").replace("\n", ",").split(",")
    n = len(cells) // 2  # a final line end leaves one empty cell over
    try:
        gaps = np.fromiter(map(float, cells[0 : 2 * n : 2]), np.float64, n)
    except ValueError:
        return None
    if not _gaps_in_range(gaps):
        return None
    return gaps, np.fromiter(map(_CSV_FLAGS.__getitem__, cells[1 : 2 * n : 2]), bool, n)


def _range_csv_block(lines: list[str]):
    """A block of CSV lines from a range, as ``_csv_block`` converts it; None
    when it holds a quote, since a quoted cell may hold a line end that a cut
    splits, or when a check fails."""
    text = "".join(lines)
    if '"' in text:
        return None
    # the plain pattern's cells fit any field limit of the csv module's above it
    if csv.field_size_limit() >= _PLAIN_CELL and _PLAIN_CSV_ROWS.fullmatch(text):
        return _plain_csv_block(text)
    return _csv_block(list(csv.reader(lines)))


class _ByteRange(io.RawIOBase):
    """Bytes ``start`` up to ``end`` of a file, as a raw stream."""

    def __init__(self, path, start: int, end: int) -> None:
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _read_range(path, is_csv: bool, start: int, end: int):
    """(gaps, correct, records with attempts_consumed, their total) of one
    byte range, streamed in blocks of lines in the serial reader's newline
    mode, or None to decline."""
    columns = _Columns()
    with_consumed = consumed = 0
    raw = io.BufferedReader(_ByteRange(path, start, end))
    encoding = "utf-8-sig" if start == 0 else "utf-8"  # only a file's start holds a BOM
    try:
        with io.TextIOWrapper(raw, encoding=encoding, newline="" if is_csv else None) as fh:
            while lines := list(islice(fh, _IO_BLOCK)):
                block = _range_csv_block(lines) if is_csv else _jsonl_block(lines, consumed)
                if block is None:
                    return None
                columns.append(block[0], block[1])
                if not is_csv:
                    with_consumed += block[2]
                    consumed = block[3]
    except (UnicodeDecodeError, csv.Error):
        return None
    return *columns.arrays(), with_consumed, consumed


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Work split by usable CPU. Part 0 runs in this process and every later part
# in a forked child, which sends its bytes back through a pipe; only this
# process writes the output. Fork, not spawn: a spawned child imports numpy
# and patchmux again (~0.25 s, more than a part takes).
class _Child:
    """A forked process producing the bytes of one part, and its pipe."""

    def __init__(self, produce, part: int, others: list["_Child"]) -> None:
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
                data = b"".join(produce(part))
                with open(write_fd, "wb") as pipe:
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
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


def _write_in_parts(out, produce, count: int) -> None:
    """Write the bytes of ``produce(0)``, ..., ``produce(count - 1)`` to the
    binary stream ``out``, in order.

    With two or more parts, where the platform can fork and this process runs
    one thread (a fork copies no other thread, and would copy the locks they
    hold), parts 1 on are produced in forked children while this process
    produces part 0. A child that cannot start, exits non-zero or sends a
    short stream costs only time: ``out`` is cut back to where its part began
    and the part is produced here.
    """
    children: list[_Child] = []
    if count >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        try:
            for part in range(1, count):
                children.append(_Child(produce, part, children))
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


def _write_rows(path, head: bytes, text, rows: int) -> None:
    """Write ``head``, then ``text(start, stop)`` (bytes, a block of rows at a
    time) for rows 0 to ``rows``: in parts, one per usable CPU, when they
    come to at least two of ``_PART_ROWS``."""
    parts = max(1, min(_usable_cpus(), rows // _PART_ROWS))
    cuts = [rows * part // parts for part in range(parts + 1)]
    with open(path, "wb") as fh:
        fh.write(head)
        _write_in_parts(fh, lambda part: text(cuts[part], cuts[part + 1]), parts)


def _csv_body_start(path) -> int | None:
    r"""Byte offset just past the header's text-mode line, or None where the
    header needs the serial reader (a quote, bad text, or not 'gap,correct').

    The line ends at the first line end csv.reader would see: ``\n``,
    ``\r\n`` or a lone ``\r``.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
    lone_cr = head.find(b"\r")
    if lone_cr >= 0 and head[lone_cr + 1 : lone_cr + 2] != b"\n":
        head = head[: lone_cr + 1]
    try:
        text = head.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    if '"' in text:
        return None
    try:
        _check_csv_header([text.rstrip("\r\n").split(",")])
    except RecordFormatError:
        return None
    return len(head)


def _byte_ranges(path, start: int) -> list[tuple[int, int]]:
    r"""Ranges from ``start`` to the end of the file, one per part, each cut
    just after a ``\n`` byte; none when the body is below two parts."""
    with open(path, "rb") as fh:
        end = fh.seek(0, io.SEEK_END)
        if end - start < 2 * _PART_BYTES:
            return []
        parts = min(_usable_cpus(), (end - start) // _PART_BYTES)
        cuts = [start]
        for i in range(1, parts):
            fh.seek(max(cuts[-1], start + (end - start) * i // parts) - 1)
            fh.readline()  # to just past the next \n
            cuts.append(fh.tell())
    cuts.append(end)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _parse_ranges(path, is_csv: bool, ranges: list[tuple[int, int]]) -> list:
    """``_read_range`` of each range, range 0 here and the others in forked
    children where ``_write_in_parts`` forks; each result crosses as a pickle."""
    out = io.BytesIO()
    _write_in_parts(
        out, lambda part: [pickle.dumps(_read_range(path, is_csv, *ranges[part]))], len(ranges)
    )
    out.seek(0)
    return [pickle.load(out) for _ in ranges]


def _read_split(path, is_csv: bool):
    """What the serial reader returns, read in line-aligned byte ranges;
    None when the file is small or a range declines."""
    start = _csv_body_start(path) if is_csv else 0
    ranges = [] if start is None else _byte_ranges(path, start)
    if not ranges:
        return None
    parts = _parse_ranges(path, is_csv, ranges)
    if None in parts:
        return None
    consumed = sum(part[3] for part in parts)
    if consumed > _INT64_MAX:
        return None
    return (
        np.concatenate([part[0] for part in parts]),
        np.concatenate([part[1] for part in parts]),
        sum(part[2] for part in parts),
        consumed,
    )


class RecordSet:
    """Kept-shot records as columns, plus the total attempt count they came from.

    ``n_attempts`` counts every shot, including the ones discarded before
    producing a record, so A(0) = n_attempts / len(records). ``shot_index``,
    when known, is the attempt number of each kept shot.
    """

    # set by from_jsonl when n_attempts is the sum of attempts_consumed, which
    # leaves out the shots after the last kept one
    attempts_summed = False

    def __init__(
        self,
        gaps: np.ndarray,
        correct: np.ndarray,
        n_attempts: int,
        shot_index: np.ndarray | None = None,
    ):
        gaps = np.asarray(gaps, dtype=np.float64)
        correct = np.asarray(correct, dtype=bool)
        if gaps.ndim != 1 or correct.shape != gaps.shape:
            raise ValueError("gaps and correct must be 1-D arrays of equal length")
        if gaps.size and not _gaps_in_range(gaps):
            raise ValueError("gaps must be finite and >= 0")
        if n_attempts < 1:
            raise ValueError("n_attempts must be at least 1")
        if gaps.size > n_attempts:
            raise ValueError(
                f"{gaps.size} records cannot come from {n_attempts} attempts"
            )
        if shot_index is not None:
            shot_index = np.asarray(shot_index, dtype=np.int64)
            if shot_index.shape != gaps.shape:
                raise ValueError("shot_index must have one entry per record")
            if shot_index.size and (
                shot_index[0] < 0
                or shot_index[-1] >= n_attempts
                or np.any(np.diff(shot_index) <= 0)
            ):
                raise ValueError(
                    f"shot_index must be strictly increasing within 0..{n_attempts - 1}"
                )
        self.gaps = gaps
        self.correct = correct
        self.n_attempts = int(n_attempts)
        self.shot_index = shot_index

    def __len__(self) -> int:
        return int(self.gaps.size)

    @classmethod
    def from_jsonl(cls, path: str | Path, n_attempts: int | None = None) -> "RecordSet":
        """Read one JSON object per line: {"gap", "correct", "attempts_consumed"}.

        ``attempts_consumed`` is optional per record; when present on every
        record its sum is the default attempt total (it excludes any trailing
        attempts after the last kept shot, so pass ``n_attempts`` when known).
        Records are numbered by line, blank lines included.
        """
        gaps, correct, with_consumed, consumed = _read_split(path, False) or _read_jsonl(path)
        summed = n_attempts is None and 0 < with_consumed == gaps.size
        if summed:
            n_attempts = consumed
        elif n_attempts is None:
            n_attempts = max(1, gaps.size)
        records = RecordSet(gaps, correct, n_attempts)
        records.attempts_summed = summed
        return records

    @classmethod
    def from_csv(cls, path: str | Path, n_attempts: int | None = None) -> "RecordSet":
        """Read the CSV variant with header ``gap,correct``.

        The CSV form carries kept records only; without ``n_attempts`` the
        attempt total defaults to the record count. Rows of blank cells are
        skipped but still numbered.
        """
        gaps, correct, _, _ = _read_split(path, True) or _read_csv(path)
        return RecordSet(gaps, correct, max(1, gaps.size) if n_attempts is None else n_attempts)

    def to_jsonl(self, path: str | Path) -> None:
        """Write one JSON object per record, as ``from_jsonl`` reads them.

        ``attempts_consumed`` counts the shots since the previous kept shot,
        this one included, so the set needs its ``shot_index``. The text is
        what ``json.dumps`` gives: a finite float prints as its ``repr``.
        """
        if self.shot_index is None:
            raise ValueError("attempts_consumed needs the records' shot_index")
        consumed = np.diff(self.shot_index, prepend=-1)

        def text(start: int, stop: int):
            for block in range(start, stop, _IO_BLOCK):
                rows = slice(block, min(block + _IO_BLOCK, stop))
                yield "".join(
                    [
                        f'{{"gap": {g!r}, "correct": {"true" if c else "false"}, '
                        f'"attempts_consumed": {a}}}\n'
                        for g, c, a in zip(
                            self.gaps[rows].tolist(),
                            self.correct[rows].tolist(),
                            consumed[rows].tolist(),
                        )
                    ]
                ).encode()

        _write_rows(path, b"", text, len(self))


CURVE_DTYPE = np.dtype(
    [
        ("threshold", np.float64),
        ("kept_correct", np.float64),  # a count, or the fit on extrapolated rows
        ("kept_error", np.float64),
        ("attempts", np.float64),  # NaN when nothing is kept
        ("logical_error", np.float64),  # NaN when nothing is kept
        ("extrapolated", bool),
    ]
)


def curve_rows(threshold, kept_correct, kept_error, n_attempts: int, extrapolated=False):
    """Curve rows with A(G) and p_L(G) derived from the (possibly fitted) counts."""
    rows = np.recarray(np.shape(threshold), dtype=CURVE_DTYPE)
    rows.threshold = threshold
    rows.kept_correct = kept_correct
    rows.kept_error = kept_error
    kept = rows.kept_correct + rows.kept_error
    # a fitted count can be so small that A(G) overflows to inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows.attempts = np.where(kept > 0, n_attempts / kept, UNDEFINED)
        rows.logical_error = np.where(kept > 0, rows.kept_error / kept, UNDEFINED)
    rows.extrapolated = extrapolated
    return rows


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """One row per threshold, as a record array with the ``CURVE_DTYPE`` fields."""

    points: np.recarray
    n_attempts: int
    extrapolated_from: float | None = None

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=CURVE_DTYPE).view(np.recarray)
        if points.ndim != 1 or np.any(np.diff(points.threshold) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "points", points)

    def with_tail(self, tail: "TailExtrapolation") -> "SweepCurve":
        """Replace the rows beyond the fit anchor by the fitted extension."""
        observed = self.points[self.points.threshold <= tail.anchor_threshold]
        return SweepCurve(
            points=np.concatenate([observed, tail.points]),
            n_attempts=self.n_attempts,
            extrapolated_from=tail.anchor_threshold,
        )


def default_thresholds(*record_sets: RecordSet) -> np.ndarray:
    """Zero plus every distinct gap of the record sets: the exact step positions."""
    values = np.unique(np.concatenate([[0.0], *(rs.gaps for rs in record_sets)]))
    return values + 0.0  # + 0.0 turns a -0.0 gap into 0.0


def sweep(record_set: RecordSet, thresholds: Sequence[float] | None = None) -> SweepCurve:
    """Exact counts of surviving correct/error records at each threshold."""
    if thresholds is None:
        thresholds = default_thresholds(record_set)
    ts = np.asarray(thresholds, dtype=np.float64)
    correct_gaps = np.sort(record_set.gaps[record_set.correct])
    error_gaps = np.sort(record_set.gaps[~record_set.correct])
    # gap >= G keeps the record; ties at the threshold are kept
    kept_correct = correct_gaps.size - np.searchsorted(correct_gaps, ts, side="left")
    kept_error = error_gaps.size - np.searchsorted(error_gaps, ts, side="left")
    return SweepCurve(
        points=curve_rows(ts, kept_correct, kept_error, record_set.n_attempts),
        n_attempts=record_set.n_attempts,
    )


@dataclass(frozen=True)
class Crossing:
    threshold: float
    bracket: tuple[float, float]


def find_crossing(curve_a: SweepCurve, curve_b: SweepCurve) -> Crossing | None:
    """Smallest threshold where the two error-rate curves change order.

    Both curves must be sampled on the same grid. A strict sign flip between
    adjacent defined points is located by linear interpolation; an exact tie
    flanked by opposite signs is reported at the tie's own threshold.
    Undefined (NaN) points break brackets; no flip means no result.
    """
    a, b = curve_a.points, curve_b.points
    if not np.array_equal(a.threshold, b.threshold):
        raise ValueError("curves must share one threshold grid")
    ts = a.threshold.tolist()
    diffs = (a.logical_error - b.logical_error).tolist()

    def sign(x: float) -> int:
        return 0 if x == 0 else (1 if x > 0 else -1)

    pending_zero: float | None = None  # first threshold of a touch run
    prev_sign: int | None = None  # last nonzero sign on an unbroken run
    prev_idx: int | None = None
    for i, d in enumerate(diffs):
        if math.isnan(d):
            pending_zero = None
            prev_sign = None
            prev_idx = None
            continue
        s = sign(d)
        if s == 0:
            if prev_sign is not None and pending_zero is None:
                pending_zero = ts[i]
            continue
        if prev_sign is not None:
            if s != prev_sign:
                if pending_zero is not None:
                    return Crossing(threshold=pending_zero, bracket=(pending_zero, pending_zero))
                if prev_idx == i - 1:
                    d0, d1 = diffs[prev_idx], d
                    t0, t1 = ts[prev_idx], ts[i]
                    g_star = t0 + (t1 - t0) * abs(d0) / (abs(d0) + abs(d1))
                    return Crossing(threshold=g_star, bracket=(t0, t1))
                # run was interrupted by zeros that turned out not to start
                # at a recorded threshold; fall through and restart
            pending_zero = None
        prev_sign = s
        prev_idx = i
    return None


@dataclass(frozen=True, eq=False)
class TailExtrapolation:
    """Log-linear extension of the error-survival counts.

    The decay rate and its band come from this fit alone; they are an
    estimate produced by the sweep tooling, not an observed count.
    ``points`` are curve rows beyond the anchor whose ``kept_error`` is the
    fit; ``error_low`` and ``error_high`` hold its band, row by row.
    """

    slope: float
    slope_stderr: float
    intercept: float
    anchor_threshold: float
    fit_thresholds: tuple[float, ...]
    points: np.recarray
    error_low: np.ndarray
    error_high: np.ndarray

    @property
    def rate(self) -> float:
        """Exponential decay rate of the error tail (−slope)."""
        return -self.slope


def extrapolate_tail(
    curve: SweepCurve, fit_window: tuple[float, float]
) -> TailExtrapolation | None:
    """Fit ln(kept_error) over a threshold window and extend it rightward.

    Needs at least three window points with a surviving error count;
    otherwise returns None. Extension points are produced at the curve's own
    thresholds beyond the window, with a band from the slope's standard
    error anchored at the last fitted threshold.
    """
    lo, hi = fit_window
    p = curve.points
    in_fit = (lo <= p.threshold) & (p.threshold <= hi) & ~p.extrapolated & (p.kept_error >= 1)
    if np.count_nonzero(in_fit) < 3:
        return None
    xs = p.threshold[in_fit]
    ys = np.log(p.kept_error[in_fit])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (intercept + slope * xs)
    dof = xs.size - 2
    denom = float(np.sum((xs - xs.mean()) ** 2))
    if dof > 0 and denom > 0:
        stderr = math.sqrt(float(np.sum(resid**2)) / dof / denom)
    else:
        stderr = 0.0

    anchor = float(xs[-1])
    anchor_log = intercept + slope * anchor
    beyond = p[p.threshold > anchor]
    dg = beyond.threshold - anchor
    # math.exp, not np.exp: numpy's SIMD exp can differ from libm in the last
    # bit, and the fit is written out at ten significant digits
    fit = np.fromiter(map(math.exp, (anchor_log + slope * dg).tolist()), np.float64, dg.size)
    low = np.exp(anchor_log + (slope - stderr) * dg)
    high = np.exp(anchor_log + (slope + stderr) * dg)
    return TailExtrapolation(
        slope=float(slope),
        slope_stderr=float(stderr),
        intercept=float(intercept),
        anchor_threshold=anchor,
        fit_thresholds=tuple(xs.tolist()),
        points=curve_rows(
            beyond.threshold, beyond.kept_correct, fit, curve.n_attempts, extrapolated=True
        ),
        error_low=np.minimum(low, high),
        error_high=np.maximum(low, high),
    )


CURVE_CSV_HEADER = ["G", "kept_correct", "kept_error", "attempts", "logical_error", "extrapolated"]

# csv.writer's row terminator; %.10g writes "nan", "inf" and "-0" as they are
_CURVE_CSV_ROW = "%.10g,%.10g,%.10g,%.10g,%.10g,%s\r\n"


def write_curve_csv(curve: SweepCurve, path: str | Path) -> None:
    """Emit the plot-data CSV; extrapolated rows carry the fitted error count
    and are flagged in the last column."""

    def text(start: int, stop: int):
        for block in range(start, stop, _IO_BLOCK):
            p = curve.points[block : min(block + _IO_BLOCK, stop)]
            columns = [p[name].tolist() for name in CURVE_DTYPE.names[:-1]]
            flags = ["true" if flag else "false" for flag in p.extrapolated.tolist()]
            yield "".join([_CURVE_CSV_ROW % row for row in zip(*columns, flags)]).encode()

    _write_rows(path, (",".join(CURVE_CSV_HEADER) + "\r\n").encode(), text, len(curve.points))
