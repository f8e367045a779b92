"""Kept-shot records: the ``RecordSet`` columns and their files.

Each kept shot carries a confidence gap (a non-negative scalar from the
downstream decoder, consumed here as data) and a correct/error flag. A
``RecordSet`` holds them as numpy columns; ``curves`` sweeps them into
threshold curves.

Record files (JSONL, or CSV for ingestion) are read in byte ranges that each
end just after a ``\n`` byte: one range per usable CPU where the body holds
at least two ``_PART_BYTES``, else one. A range is read about ``_BYTE_BLOCK``
bytes at a time: a block of the writer's JSONL lines or of plain
``number,flag`` CSV rows is checked and parsed from its bytes (counts, flags
and integer gaps of at most 15 digits, ``N`` or JSONL ``N.0``, from digit
columns; other gaps by one ``json.loads`` or a ``float`` a row). Any other
block, valid or not, makes its range decline, and any decline reads the
whole file again with ``_read_checked``, one record at a time. It alone
reports record errors, naming the first bad record as a line-by-line reader
would, so outputs and messages do not depend on the split. A leading UTF-8
byte order mark is skipped; one anywhere else is a record error.

A sweep, and an empirical escape pool, need only the count of each (gap,
correct) pair, so every read folds each parsed block into one (gap, correct,
count) row per distinct pair (``_Pairs``), in key order; ``_read_checked``
folds its blocks of records the same way. A range keeps merging while its
rows are at most half the records it has read; past that (distinct
continuous gaps pass it at their first block) it expands its rows and keeps
one row a record, in no order. If any range did, the other ranges' rows are
expanded too; else they are merged again.

Record sets, and the curves of ``curves``, are written by ``_write_rows`` a
fixed block of rows at a time, so only the numpy columns grow with the
file, and on every usable CPU, by the fork helper of ``parts``
(``_write_in_parts``), which ``montecarlo``'s workers share. A set of at
least two ``_PART_ROWS`` rows is cut into row ranges, one per CPU, each
formatted by the writer's one block formatter, so the bytes do not depend
on the split. Byte ranges are read by the same helper, through
``_map_in_parts``.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .parts import _map_in_parts, _usable_cpus, _write_in_parts

RECORD_FIELDS = {"gap", "correct", "attempts_consumed"}

# Record files are read and written this many lines at a time, so the Python
# objects alive at once do not grow with the file.
_IO_BLOCK = 4096

# A file whose body holds at least two parts of this many bytes is read in
# line-aligned byte ranges, one per usable CPU.
_PART_BYTES = 1 << 19

# Record and curve sets of at least two parts of this many rows are written
# in parts, one per usable CPU.
_PART_ROWS = 1 << 14

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


def _jsonl_fields(rec_no: int, obj) -> tuple[float, bool, int | None]:
    """(gap, correct, attempts_consumed) of one parsed JSONL line, or the error
    naming its record: every check after parsing."""
    if not isinstance(obj, dict):
        raise RecordFormatError(f"record {rec_no}: expected an object")
    if not RECORD_FIELDS.issuperset(obj):  # builds no set for a valid record
        unknown = sorted(set(obj) - RECORD_FIELDS)
        raise RecordFormatError(f"record {rec_no}: unknown fields {unknown}")
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


def _is_blank(row: list[str]) -> bool:
    return not any(map(str.strip, row))


def _pair_keys(gaps: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """One key per (gap, correct) that sorts by gap, then flag: a non-negative
    float's bits order as its value. The shift drops the sign bit, so a gap
    of -0.0 is keyed as 0.0."""
    return gaps.view(np.uint64) << np.uint64(1) | correct


def _distinct(keys: np.ndarray, count: np.ndarray | None = None):
    """The sorted distinct keys, each with its number of rows (or the sum of
    their ``count``)."""
    if count is None:
        keys, count = np.sort(keys), np.ones(keys.size, np.int64)
    else:  # a stable sort merges the sorted runs it is given in one pass
        order = keys.argsort(kind="stable")
        keys, count = keys[order], count[order]
    new = np.ones(keys.size, bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    return keys[starts], np.add.reduceat(count, starts)


def _pairs(keys: np.ndarray, count: np.ndarray):
    """The (gaps, correct, count) rows of distinct pair keys."""
    return (keys >> np.uint64(1)).view(np.float64), (keys & np.uint64(1)).astype(bool), count


class _Pairs:
    """A read's rows, folded a block at a time: merged (gap, correct, count)
    rows, one per distinct pair in key order, while they are at most half the
    records appended (a merged row costs about 17 bytes and a record row 9).
    Past that, or from a first block of distinct pairs, it holds one row a
    record: the merged rows expanded in key order, then each later block as
    appended, joined once in ``arrays``."""

    def __init__(self) -> None:
        self.keys = np.empty(0, np.uint64)
        self.count = np.empty(0, np.int64)
        self.records = 0
        self.blocks: list[tuple[np.ndarray, np.ndarray]] | None = None

    def append(self, gaps, correct) -> None:
        # a first block of distinct pairs is told by a set, not a sort, so a
        # file of continuous gaps never pages in numpy's uint64 sort and
        # search code (about 0.5 MB of RSS); numpy scalars, one at a time,
        # not a list of the block
        first = self.blocks is None and not self.records
        if first and 2 * len(set(zip(gaps, correct))) > len(gaps):
            self.blocks = []
        if self.blocks is not None:
            self.blocks.append((gaps, correct))
            return
        self._merge(*_distinct(_pair_keys(gaps, correct)), len(gaps))
        if 2 * self.keys.size > self.records:
            self.blocks = self._record_blocks()

    def _merge(self, keys: np.ndarray, count: np.ndarray, records: int) -> None:
        """Add sorted distinct ``keys`` with their ``count``, ``records`` in all."""
        at = np.searchsorted(self.keys, keys)
        if at.size and at[-1] < self.keys.size and np.array_equal(self.keys[at], keys):
            self.count[at] += count  # no new pair: the common case
        else:
            self.keys, self.count = _distinct(
                np.concatenate([self.keys, keys]), np.concatenate([self.count, count])
            )
        self.records += records

    def _record_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The rows as blocks of records; merged rows expand in key order."""
        if self.blocks is not None:
            return self.blocks
        gaps, correct, count = _pairs(self.keys, self.count)
        return [(np.repeat(gaps, count), np.repeat(correct, count))]

    def join(self, other: "_Pairs") -> None:
        """Fold in the rows of a later part: merged again where both parts
        are merged, else both as records."""
        if self.blocks is None and other.blocks is None:
            self._merge(other.keys, other.count, other.records)
        else:
            self.blocks = self._record_blocks() + other._record_blocks()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Gaps, flags and counts: the merged rows, or one row a record and no counts."""
        if self.blocks is None:
            return _pairs(self.keys, self.count)
        gaps, correct = map(np.concatenate, zip(*self.blocks))
        return gaps, correct, None


def _check_csv_header(row: list[str] | None) -> None:
    if row is None or [h.strip().lower() for h in row] != ["gap", "correct"]:
        raise RecordFormatError("expected CSV header 'gap,correct'")


def _read_checked(path, is_csv: bool):
    """The rows (``_Pairs``), the records with attempts_consumed and their
    total (two zeros for CSV), read in text mode one record at a time, so an
    error names the first bad record; the only source of record errors.
    Records are numbered by line (JSONL) or row (CSV, the header being record
    0), blank included.
    Bytes that are not UTF-8 anywhere raise UnicodeDecodeError before any."""
    with open(path, "rb") as fh:
        for _ in codecs.iterdecode(iter(lambda: fh.read(_BYTE_BLOCK), b""), "utf-8"):
            pass
    rows = _Pairs()
    gaps: list[float] = []
    flags: list[bool] = []
    with_consumed = consumed = 0
    rec_no = -1 if is_csv else 0  # the number before the first record
    try:
        with open(path, "r", encoding="utf-8-sig", newline="" if is_csv else None) as fh:
            for rec_no, line in enumerate(csv.reader(fh) if is_csv else fh, rec_no + 1):
                if rec_no == 0:  # a CSV's header
                    _check_csv_header(line)
                    continue
                if is_csv:
                    if _is_blank(line):
                        continue
                    gap, flag = _csv_record(rec_no, line)
                else:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                    # JSONDecodeError, an integer of too many digits, or nesting past the stack
                    except (ValueError, RecursionError) as exc:
                        raise RecordFormatError(f"record {rec_no}: invalid JSON: {exc}") from None
                    gap, flag, ac = _jsonl_fields(rec_no, obj)
                    if ac is not None:
                        with_consumed += 1
                        consumed += ac
                        if consumed > _INT64_MAX:
                            raise RecordFormatError(
                                f"record {rec_no}: attempts_consumed total exceeds {_INT64_MAX}"
                            )
                gaps.append(gap)
                flags.append(flag)
                if len(gaps) == _IO_BLOCK:  # arrays: _Pairs views the gaps as uint64
                    rows.append(np.array(gaps, np.float64), np.array(flags, bool))
                    gaps, flags = [], []
    except csv.Error as exc:  # a row the csv module cannot split: a cell past its field limit, say
        raise RecordFormatError(f"{path}: record {rec_no + 1}: {exc}") from None
    if rec_no < 0:  # a CSV without a header
        _check_csv_header(None)
    rows.append(np.array(gaps, np.float64), np.array(flags, bool))
    return rows, with_consumed, consumed


# Range reading: a range returns its rows or declines (None); any decline
# makes the caller read the whole file with ``_read_checked``, so record
# errors and their numbers always come from it.

_BYTE_BLOCK = 1 << 16  # small: a CSV block of non-integer gaps makes two Python objects a row

# The writer's line is {"gap": G, "correct": B, "attempts_consumed": N}\n: two
# commas, 17 bytes apart when B is true and 18 when false, then the \n. The 40
# bytes from 17 before the second comma are one of the two middle keys (a false
# line's first comma is the byte before its key).
_GAP_KEY = b'{"gap": '
_COUNT_KEY = b', "attempts_consumed": '
_MIDDLE_KEYS = np.array(
    [b', "correct": true' + _COUNT_KEY, b' "correct": false' + _COUNT_KEY], "V40"
)

# A plain CSV row is a gap of at most _PLAIN_CELL bytes, which fits any field
# limit of the csv module's above that, a comma, a flag and a \n or \r\n.
_PLAIN_CELL = 64
_PLAIN_BYTES = b"0123456789.eE+-,\ntruefals"  # any other byte declines
# A plain flag is known by its first byte, which gives its length (-1: no flag
# starts so) and, for true and false, the four bytes that end it.
_FLAG_SIZE = np.full(256, -1)
_FLAG_SIZE[list(b"tf10")] = [4, 5, 1, 1]
_FLAG_TAIL = np.zeros(256, "<u4")
_FLAG_TAIL[list(b"tf")] = np.frombuffer(b"truealse", "<u4")


def _line_marks(raw: bytes, pattern: bytes):
    r"""The block's bytes and its comma and ``\n`` offsets, one row a mark of
    ``pattern``; None unless it ends in a ``\n`` and each line's marks are ``pattern``."""
    data = np.frombuffer(raw, np.uint8)
    marks = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    lines = marks.size // len(pattern)
    if not raw.endswith(b"\n") or data[marks].tobytes() != pattern * lines:
        return None
    return data, marks.reshape(lines, len(pattern)).T


def _total(counts: np.ndarray) -> int:
    """The sum of non-negative int64 ``counts`` as a Python int, which cannot wrap."""
    fits = counts.size == 0 or counts.max() <= _INT64_MAX // counts.size
    return int(counts.sum()) if fits else sum(counts.tolist())


def _digits(data, begin, end, most: int, dtype):
    """The numbers ``data[begin:end]``, one a row, as ``dtype``; None unless each
    is 1 to ``most`` digits. Read from right-aligned digit columns: a column
    left of a shorter number is masked, and clipped before the block, so no index wraps."""
    width = end - begin
    widest = int(width.max())
    if widest > most or width.min() < 1:
        return None
    columns = np.arange(widest)[:, None] + (end - widest)  # one row per digit place
    digits = (data.take(columns, mode="clip") - np.uint8(ord("0"))) * (columns >= begin)
    if digits.max() > 9:
        return None
    # an integer product calls no BLAS, and at most 18 digits fit in int64
    return (np.power(10, np.arange(widest - 1, -1, -1), dtype=np.int64) @ digits).astype(dtype)


def _jsonl_bytes(raw: bytes, consumed: int):
    """(gaps, flags, records with attempts_consumed, the attempt total with
    ``consumed``) of a block of the writer's lines, read from its bytes; None
    unless every line has the writer's skeleton and its values pass."""
    whole = raw.startswith(_GAP_KEY) and raw.endswith(b"}\n")  # the first and last line
    lines = whole and raw.isascii() and b"\r" not in raw and _line_marks(raw, b",,\n")
    if not lines:
        return None
    data, (first, second, ends) = lines
    begin = np.concatenate(([0], ends[:-1] + 1)) + len(_GAP_KEY)  # each gap's text
    width = first - begin
    flag, digits_at = second - first - 17, second + len(_COUNT_KEY)  # flag: 0 true, 1 false
    if not 0 <= flag.min() <= flag.max() <= 1 or width.min() < 1:
        return None
    # attempts_consumed: 1-18 digits (they fit in int64) up to the brace, no leading zero
    counts = _digits(data, digits_at, ends - 1, 18, np.int64)
    if counts is None or np.any(data[digits_at] == ord("0")):
        return None
    # the keys, gathered now that every line is known to be long enough for them
    keys = np.ndarray((data.size - 39,), "V40", raw, 0, (1,))[second - 17].tobytes()
    joins = np.ndarray((data.size - 9,), "V10", raw, 0, (1,))[ends[:-1] - 1].tobytes()
    if keys != _MIDDLE_KEYS.take(flag).tobytes() or joins != (b"}\n" + _GAP_KEY) * (ends.size - 1):
        return None
    consumed += _total(counts)
    gaps = None
    if width.max() <= 17:  # room for 15 digits and ".0": maybe integers
        end = first - 2 * ((data[first - 2] == ord(".")) & (data[first - 1] == ord("0")))
        if not np.any((data[begin] == ord("0")) & (end - begin > 1)):  # JSON has no leading zeros
            gaps = _digits(data, begin, end, 15, np.float64)  # 15 digits are exact in float64
    if gaps is None:  # each gap's text with the comma after it, joined into one JSON array
        size = width + 1
        at = np.cumsum(size) - size
        spans = data[np.repeat(begin - at, size) + np.arange(at[-1] + size[-1])].tobytes()
        try:
            gaps = json.loads("[%s]" % spans[:-1].decode())  # str: no encoding to guess
            gaps = np.array(gaps, np.float64) if set(map(type, gaps)) <= {int, float} else None
        except (ValueError, RecursionError, OverflowError):
            return None
        if gaps is None or gaps.size != first.size or not _gaps_in_range(gaps):
            return None
    return None if consumed > _INT64_MAX else (gaps, flag == 0, first.size, consumed)


def _csv_bytes(raw: bytes, consumed: int):
    """``_jsonl_bytes``' tuple for a block of plain ``number,flag`` rows, read
    from their bytes; None for any other block or a bad gap."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")  # csv.reader ends a row at either
    plain = not raw.translate(None, _PLAIN_BYTES) and csv.field_size_limit() >= _PLAIN_CELL
    lines = plain and _line_marks(raw, b",\n")
    if not lines:
        return None
    data, (commas, ends) = lines
    starts = np.concatenate(([0], ends[:-1] + 1))
    flags = data[commas + 1]
    if np.any(_FLAG_SIZE.take(flags) != ends - commas - 1):
        return None
    long = flags > ord("1")  # true and false; a flag 1 or 0 is its first byte
    tails = np.ndarray((data.size - 3,), "<u4", raw, 0, (1,))[ends[long] - 4]
    if np.any(tails != _FLAG_TAIL.take(flags[long])) or np.any(commas - starts > _PLAIN_CELL):
        return None
    gaps = _digits(data, starts, commas, 15, np.float64)  # 15 digits are exact in float64
    if gaps is None:  # not all integers: cut into cells
        cells = raw.replace(b"\n", b",").split(b",")
        try:  # an empty gap cell, or a flag letter in one, fails here
            gaps = np.fromiter(map(float, cells[0 : 2 * commas.size : 2]), np.float64, commas.size)
        except ValueError:
            return None
        if not _gaps_in_range(gaps):
            return None
    return gaps, (flags == ord("t")) | (flags == ord("1")), 0, consumed


def _read_range(path, is_csv: bool, start: int, end: int):
    r"""What ``_read_checked`` returns, of one byte range, read about
    ``_BYTE_BLOCK`` bytes at a time, each block cut just after a ``\n`` (one
    is added after a last line without it) and parsed by a byte kernel; None
    to decline where a kernel does."""
    rows = _Pairs()
    with_consumed = consumed = 0
    parse_bytes = _csv_bytes if is_csv else _jsonl_bytes
    with open(path, "rb") as fh:
        if start > 0 or fh.read(3) != codecs.BOM_UTF8:  # only a file's start holds a BOM
            fh.seek(start)
        while (left := end - fh.tell()) > 0 and (raw := fh.read(min(_BYTE_BLOCK, left))):
            if not raw.endswith(b"\n"):
                raw += fh.readline(left - len(raw))
            if not raw.endswith(b"\n"):  # the file's last line, without its line end
                raw += b"\n"
            block = parse_bytes(raw, consumed)
            if block is None:
                return None
            rows.append(block[0], block[1])
            with_consumed, consumed = with_consumed + block[2], block[3]
    return rows, with_consumed, consumed


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
    r"""Byte offset just past the header's text-mode line, or None where
    ``_read_checked`` must read the header: bad text, not 'gap,correct', or
    a line strict csv parsing rejects (a quoted cell holding a line end).

    The line ends at the first line end csv.reader would see: ``\n``,
    ``\r\n`` or a lone ``\r``.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
    lone_cr = head.find(b"\r")
    if lone_cr >= 0 and head[lone_cr + 1 : lone_cr + 2] != b"\n":
        head = head[: lone_cr + 1]
    try:
        _check_csv_header(next(csv.reader([head.decode("utf-8-sig")], strict=True), None))
    except (UnicodeDecodeError, csv.Error, RecordFormatError):
        return None
    return len(head)


def _byte_ranges(path, start: int) -> list[tuple[int, int]]:
    r"""Ranges from ``start`` to the end of the file, one per part, each cut
    just after a ``\n`` byte; one when the body is below two parts."""
    with open(path, "rb") as fh:
        end = fh.seek(0, io.SEEK_END)
        parts = max(1, min(_usable_cpus(), (end - start) // _PART_BYTES))
        cuts = [start]
        for i in range(1, parts):
            fh.seek(max(cuts[-1], start + (end - start) * i // parts) - 1)
            fh.readline()  # to just past the next \n
            cuts.append(fh.tell())
    cuts.append(end)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b] or [(start, end)]


def _read_records(path, is_csv: bool):
    """What ``_read_checked`` returns, read in line-aligned byte ranges, whose
    rows are joined in order; read by ``_read_checked`` instead where the CSV
    header or a range declines."""
    start = _csv_body_start(path) if is_csv else 0
    ranges = None if start is None else _byte_ranges(path, start)
    parts = None if ranges is None else _map_in_parts(
        lambda part: _read_range(path, is_csv, *ranges[part]), len(ranges)
    )
    if parts is None or None in parts:
        return _read_checked(path, is_csv)
    rows, with_consumed, consumed = zip(*parts)
    if sum(consumed) > _INT64_MAX:
        return _read_checked(path, is_csv)
    for later in rows[1:]:
        rows[0].join(later)
    return rows[0], sum(with_consumed), sum(consumed)


def _records(gaps: np.ndarray, count: np.ndarray | None) -> int:
    """The records that rows stand for: one a row, or their summed ``count``."""
    return gaps.size if count is None else _total(count)


class RecordSet:
    """Kept-shot records as columns, plus the total attempt count they came from.

    ``n_attempts`` counts every shot, including the ones discarded before
    producing a record, so A(0) = n_attempts / len(records). ``shot_index``,
    when known, is the attempt number of each kept shot.

    With ``count``, each row stands for that many records of its gap and
    flag: a read of records that repeat pairs (integer gaps do) holds one row
    per distinct pair, so its memory does not grow with the records. A read
    keeps no record order, with counts or without. ``len`` is always the
    number of records, not of rows.
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
        count: np.ndarray | None = None,
    ):
        gaps = np.asarray(gaps, dtype=np.float64)
        correct = np.asarray(correct, dtype=bool)
        if gaps.ndim != 1 or correct.shape != gaps.shape:
            raise ValueError("gaps and correct must be 1-D arrays of equal length")
        if gaps.size and not _gaps_in_range(gaps):
            raise ValueError("gaps must be finite and >= 0")
        if count is not None:
            count = np.asarray(count, dtype=np.int64)
            if count.shape != gaps.shape:
                raise ValueError("count must have one entry per row")
            if count.size and count.min() < 1:
                raise ValueError("count must be at least 1 on every row")
        if n_attempts < 1:
            raise ValueError("n_attempts must be at least 1")
        records = _records(gaps, count)
        if records > n_attempts:
            raise ValueError(f"{records} records cannot come from {n_attempts} attempts")
        if shot_index is not None:
            shot_index = np.asarray(shot_index, dtype=np.int64)
            if count is not None or shot_index.shape != gaps.shape:
                raise ValueError("shot_index must have one entry per record")
            if shot_index.size and (
                shot_index[0] < 0
                or shot_index[-1] >= n_attempts
                or np.any(shot_index[1:] <= shot_index[:-1])  # a byte a record
            ):
                raise ValueError(
                    f"shot_index must be strictly increasing within 0..{n_attempts - 1}"
                )
        self.gaps = gaps
        self.correct = correct
        self.count = count
        self.n_attempts = int(n_attempts)
        self.shot_index = shot_index
        self._records = records

    def __len__(self) -> int:
        return self._records

    @classmethod
    def from_jsonl(cls, path: str | Path, n_attempts: int | None = None) -> "RecordSet":
        """Read one JSON object per line: {"gap", "correct", "attempts_consumed"}.

        ``attempts_consumed`` is optional per record; when present on every
        record its sum is the default attempt total (it excludes any trailing
        attempts after the last kept shot, so pass ``n_attempts`` when known).
        An ``n_attempts`` below the attempts the records account for is a
        ValueError naming the file. Records are numbered by line, blank lines
        included.

        The rows are (gap, correct, count) rows, one per distinct pair,
        wherever the records repeat pairs enough to save memory (integer gaps
        do); else, as for distinct continuous gaps, one row a record, with no
        ``count``. Either way they keep no record order.
        """
        return _read_record_set(path, False, n_attempts)

    @classmethod
    def from_csv(cls, path: str | Path, n_attempts: int | None = None) -> "RecordSet":
        """Read the CSV variant with header ``gap,correct``.

        The CSV form carries kept records only; without ``n_attempts`` the
        attempt total defaults to the record count. Rows of blank cells are
        skipped but still numbered. Rows are as for ``from_jsonl``.
        """
        return _read_record_set(path, True, n_attempts)

    def to_jsonl(self, path: str | Path) -> None:
        """Write one JSON object per record, as ``from_jsonl`` reads them.

        ``attempts_consumed`` counts the shots since the previous kept shot,
        this one included, so the set needs its ``shot_index``; it is taken
        a block of records at a time, from the block's indices and the one
        before it. The text is what ``json.dumps`` gives: a finite float
        prints as its ``repr``.
        """
        shot_index = self.shot_index
        if shot_index is None:
            raise ValueError("attempts_consumed needs the records' shot_index")

        def text(start: int, stop: int):
            for block in range(start, stop, _IO_BLOCK):
                rows = slice(block, min(block + _IO_BLOCK, stop))
                before = shot_index[block - 1] if block else -1
                yield "".join(
                    [
                        f'{{"gap": {g!r}, "correct": {"true" if c else "false"}, '
                        f'"attempts_consumed": {a}}}\n'
                        for g, c, a in zip(
                            self.gaps[rows].tolist(),
                            self.correct[rows].tolist(),
                            np.diff(shot_index[rows], prepend=before).tolist(),
                        )
                    ]
                ).encode()

        _write_rows(path, b"", text, len(self))


def _read_record_set(path, is_csv: bool, n_attempts: int | None) -> RecordSet:
    """The body of ``RecordSet.from_jsonl`` and ``from_csv``. A CSV record
    carries no ``attempts_consumed``, so its total defaults to the records."""
    rows, with_consumed, consumed = _read_records(path, is_csv)
    gaps, correct, count = rows.arrays()
    records = _records(gaps, count)
    # a record without attempts_consumed took at least its own attempt
    least = consumed + records - with_consumed
    if with_consumed and n_attempts is not None and n_attempts < least:
        raise ValueError(
            f"{path}: n_attempts {n_attempts} is below the {least} attempts "
            "its records consumed"
        )
    summed = n_attempts is None and 0 < with_consumed == records
    if summed:
        n_attempts = consumed
    elif n_attempts is None:
        n_attempts = max(1, records)
    record_set = RecordSet(gaps, correct, n_attempts, count=count)
    record_set.attempts_summed = summed
    return record_set
