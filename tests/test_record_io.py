"""Record and curve text I/O is read and written in blocks of lines or rows.

Every test runs at block sizes 1, 3 and the default, so records sit on both
sides of block boundaries. The per-line reference code below is the format
as first written (one ``json.dumps``/``json.loads`` per record, one
``csv.writer`` row per curve point); the block code must match it exactly.
"""

import atexit
import codecs
import csv
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from patchmux import gap_analysis
from patchmux.cli import main
from patchmux.gap_analysis import (
    CURVE_CSV_HEADER,
    RecordFormatError,
    RecordSet,
    SweepCurve,
    TailExtrapolation,
    sweep,
    write_curve_csv,
)

DEFAULT_BLOCK = gap_analysis._IO_BLOCK

GAPS = [0.0, 1.0, 0.1, 1e-320, 1e22, 3.25, 7.0, 123456.789, 2.5e-7, 40.0, 0.5]
CORRECT = [True, False, True, True, False, True, True, False, True, True, False]
SHOT_INDEX = [0, 1, 4, 5, 9, 10, 11, 20, 21, 22, 30]


@pytest.fixture(params=[1, 3, DEFAULT_BLOCK], ids=lambda n: f"block{n}")
def block(request, monkeypatch):
    monkeypatch.setattr(gap_analysis, "_IO_BLOCK", request.param)
    return request.param


def reference_jsonl(gaps, correct, shot_index) -> str:
    consumed = np.diff(shot_index, prepend=-1).tolist()
    return "".join(
        json.dumps({"gap": g, "correct": c, "attempts_consumed": a}) + "\n"
        for g, c, a in zip(gaps, correct, consumed)
    )


def reference_curve_csv(curve, path, tail=None) -> None:
    def num(value):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        return format(value, ".10g")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_CSV_HEADER)
        for row in curve.rows(tail=tail).tolist():
            writer.writerow([*map(num, row[:-1]), "true" if row[-1] else "false"])


def write_lines(path, lines, end="\n"):
    path.write_text("\n".join(lines) + end, encoding="utf-8")


def test_jsonl_writer_matches_json_dumps(tmp_path, block):
    records = RecordSet(GAPS, CORRECT, n_attempts=31, shot_index=SHOT_INDEX)
    path = tmp_path / "records.jsonl"
    records.to_jsonl(path)
    assert path.read_text(encoding="utf-8") == reference_jsonl(GAPS, CORRECT, SHOT_INDEX)


def test_jsonl_writer_needs_shot_index(tmp_path):
    with pytest.raises(ValueError, match="shot_index"):
        RecordSet(GAPS, CORRECT, n_attempts=31).to_jsonl(tmp_path / "records.jsonl")


def test_jsonl_round_trip_with_blank_lines(tmp_path, block):
    lines = reference_jsonl(GAPS, CORRECT, SHOT_INDEX).splitlines()
    lines[2:2] = ["", "   "]
    lines.append("")
    path = tmp_path / "records.jsonl"
    write_lines(path, lines)
    rs = RecordSet.from_jsonl(path)
    assert rs.gaps.tolist() == GAPS
    assert rs.correct.tolist() == CORRECT
    assert rs.n_attempts == SHOT_INDEX[-1] + 1


def test_jsonl_integer_gaps_and_partial_attempts(tmp_path, block):
    lines = [
        '{"gap": 3, "correct": true, "attempts_consumed": 2}',
        '{"gap": -0, "correct": false}',
        '{"gap": 2.5, "correct": true, "attempts_consumed": 4}',
        '{"correct": false, "gap": 12}',
    ]
    path = tmp_path / "records.jsonl"
    write_lines(path, lines, end="")  # no trailing newline
    rs = RecordSet.from_jsonl(path)
    assert rs.gaps.tolist() == [3.0, 0.0, 2.5, 12.0]
    assert rs.correct.tolist() == [True, False, True, False]
    assert rs.n_attempts == 4  # not every record carries attempts_consumed


@pytest.mark.parametrize("text", ["", "\n", "\n  \n\n"])
def test_jsonl_without_records(tmp_path, block, text):
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    rs = RecordSet.from_jsonl(path)
    assert len(rs) == 0 and rs.n_attempts == 1
    assert RecordSet.from_jsonl(path, n_attempts=5).n_attempts == 5


def test_jsonl_error_names_the_line_in_a_later_block(tmp_path, block):
    good = '{"gap": 1.5, "correct": true}'
    lines = [good, "", good, good, "", good, good, good, good, '{"gap": 2, "correct": "yes"}']
    path = tmp_path / "records.jsonl"
    write_lines(path, lines)
    with pytest.raises(RecordFormatError, match=r"^record 10: correct must be a boolean$"):
        RecordSet.from_jsonl(path)


JSONL_BAD = [
    (
        '{"gap": 1, "correct": true}, {"gap": 2, "correct": true}',
        r"^record 5: invalid JSON: Extra data",
    ),
    ('{"gap": 1, "correct": true}, {"gap": 2', r"^record 5: invalid JSON"),
    ('{"gap": NaN, "correct": true}', r"^record 5: gap nan out of range$"),
    ('{"gap": Infinity, "correct": true}', r"^record 5: gap inf out of range$"),
    ('{"gap": -Infinity, "correct": true}', r"^record 5: gap -inf out of range$"),
    ('{"gap": -2, "correct": true}', r"^record 5: gap -2 out of range$"),
    ('{"gap": 1, "correct": true, "extra": 1}', r"^record 5: unknown fields \['extra'\]$"),
    ('{"gap": 1}', r"^record 5: missing 'gap' or 'correct'$"),
    ('{"gap": true, "correct": true}', r"^record 5: gap must be a number$"),
    ('[1]', r"^record 5: expected an object$"),
    # past the interpreter's digit limit json.loads raises a plain ValueError
    ('{"gap": 1' + "0" * 5000 + ', "correct": true}', r"^record 5: (invalid JSON|gap 10+ out)"),
    ("[" * 100000 + "]" * 100000, r"^record 5: invalid JSON: maximum recursion depth exceeded"),
    (
        '{"gap": 1, "correct": true, "attempts_consumed": 0}',
        r"^record 5: attempts_consumed must be a positive integer$",
    ),
]


@pytest.mark.parametrize("bad, message", JSONL_BAD)
def test_jsonl_bad_record_after_good_ones(tmp_path, block, bad, message):
    good = '{"gap": 1.5, "correct": true, "attempts_consumed": 1}'
    path = tmp_path / "records.jsonl"
    write_lines(path, [good, good, "", good, bad, good])
    with pytest.raises(RecordFormatError, match=message):
        RecordSet.from_jsonl(path)


def test_jsonl_line_split_inside_an_object_is_invalid(tmp_path, block):
    # joined with commas these two lines parse as two records; read line by
    # line, the first is not one JSON value
    path = tmp_path / "records.jsonl"
    write_lines(path, ['{"gap": 1, "correct": true}, {"gap": 2', '"correct": true}'])
    with pytest.raises(RecordFormatError, match=r"^record 1: invalid JSON"):
        RecordSet.from_jsonl(path)


def test_jsonl_oversized_integers_name_their_record(tmp_path, block):
    good = '{"gap": 1.5, "correct": true, "attempts_consumed": 1}'
    huge = "9" * 400
    path = tmp_path / "records.jsonl"
    write_lines(path, [good, good, f'{{"gap": 1.0, "correct": true, "attempts_consumed": {huge}}}'])
    with pytest.raises(
        RecordFormatError, match=r"^record 3: attempts_consumed exceeds 9223372036854775807$"
    ):
        RecordSet.from_jsonl(path)

    write_lines(path, [good, f'{{"gap": {huge}, "correct": true}}'])
    with pytest.raises(RecordFormatError, match=rf"^record 2: gap {huge} out of range$"):
        RecordSet.from_jsonl(path)

    half = 2**62
    write_lines(
        path,
        [good] * 4 + [f'{{"gap": 1.0, "correct": true, "attempts_consumed": {half}}}'] * 2,
    )
    with pytest.raises(
        RecordFormatError, match=r"^record 6: attempts_consumed total exceeds 9223372036854775807$"
    ):
        RecordSet.from_jsonl(path)

    # 18-digit counts, read from the bytes: ten of them in one block pass int64
    nines = "9" * 18
    write_lines(path, [f'{{"gap": 1.0, "correct": true, "attempts_consumed": {nines}}}'] * 10)
    with pytest.raises(
        RecordFormatError, match=r"^record 10: attempts_consumed total exceeds 9223372036854775807$"
    ):
        RecordSet.from_jsonl(path)


def test_jsonl_largest_attempt_total_is_accepted(tmp_path, block):
    top = np.iinfo(np.int64).max
    path = tmp_path / "records.jsonl"
    write_lines(
        path,
        [
            '{"gap": 1.0, "correct": true, "attempts_consumed": 1}',
            f'{{"gap": 2.0, "correct": false, "attempts_consumed": {top - 1}}}',
        ],
    )
    assert RecordSet.from_jsonl(path).n_attempts == top


def test_csv_round_trip_with_blank_rows(tmp_path, block):
    rows = ["gap,correct", "1.5,true", "", " , ", ",", "2,0", "1e-3, TRUE ", "  ", "0,false", "7,1"]
    path = tmp_path / "records.csv"
    write_lines(path, rows, end="")  # no trailing newline
    rs = RecordSet.from_csv(path)
    assert rs.gaps.tolist() == [1.5, 2.0, 1e-3, 0.0, 7.0]
    assert rs.correct.tolist() == [True, False, True, False, True]
    assert rs.n_attempts == 5


@pytest.mark.parametrize("text", ["", "gap,correct\n", "gap,correct\n\n,\n"])
def test_csv_without_records(tmp_path, block, text):
    path = tmp_path / "records.csv"
    path.write_text(text)
    if not text:
        with pytest.raises(RecordFormatError, match="expected CSV header"):
            RecordSet.from_csv(path)
        return
    rs = RecordSet.from_csv(path)
    assert len(rs) == 0 and rs.n_attempts == 1


CSV_BAD = [
    ("2,yes", r"^record 7: bad flag 'yes'$"),
    ("abc,true", r"^record 7: bad gap 'abc'$"),
    ("1,true,3", r"^record 7: expected 2 columns$"),
    ("nan,true", r"^record 7: gap nan out of range$"),
    ("inf,false", r"^record 7: gap inf out of range$"),
    ("-1,false", r"^record 7: gap -1.0 out of range$"),
]


@pytest.mark.parametrize("bad, message", CSV_BAD)
def test_csv_bad_row_in_a_later_block(tmp_path, block, bad, message):
    rows = ["gap,correct", "1,true", "", "2,false", " , ", "3,true", "4,true", bad, "5,true"]
    path = tmp_path / "records.csv"
    write_lines(path, rows)
    with pytest.raises(RecordFormatError, match=message):
        RecordSet.from_csv(path)


@pytest.mark.parametrize("row, number", [(4, 4), (0, 0)], ids=["record", "header"])
def test_csv_cell_past_the_field_limit_names_file_and_record(tmp_path, block, row, number):
    rows = ["gap,correct", "1,true", "", "2,false", "3,true", "5,true"]
    rows[row] = '"' + "1" * 200_000 + '",' + rows[row].split(",")[1]
    path = tmp_path / "records.csv"
    write_lines(path, rows)
    with pytest.raises(RecordFormatError) as info:
        RecordSet.from_csv(path)
    assert str(info.value) == (
        f"{path}: record {number}: field larger than field limit ({csv.field_size_limit()})"
    )


def test_readers_agree_across_block_sizes(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    gaps = np.round(rng.exponential(20.0, 1000), 3).tolist()
    correct = (rng.random(1000) > 0.1).tolist()
    shot_index = np.cumsum(rng.integers(1, 4, 1000)).tolist()
    jsonl = tmp_path / "records.jsonl"
    jsonl.write_text(reference_jsonl(gaps, correct, shot_index))
    table = tmp_path / "records.csv"
    write_lines(table, ["gap,correct", *(f"{g!r},{c}" for g, c in zip(gaps, correct))])
    for size in (1, 3, 7, 4096):
        monkeypatch.setattr(gap_analysis, "_IO_BLOCK", size)
        for rs, n_attempts in (
            (RecordSet.from_jsonl(jsonl), shot_index[-1] + 1),
            (RecordSet.from_csv(table), 1000),
        ):
            assert rs.gaps.tolist() == gaps
            assert rs.correct.tolist() == correct
            assert rs.n_attempts == n_attempts


def test_curve_writer_matches_csv_writer(tmp_path, block):
    thresholds = [-0.0, 0.5, 1.0, 2.0, 3.0, 1e22]
    kept_correct = [5.0, 4.0, 0.0, 0.0, 0.0, 0.0]
    kept_error = [2.0, 1.0, 1.0, 1.0, 0.0, 0.0]
    # fitted from G=2 on: about 8.5e-321 there, so A(G) is inf, then 0 and 0
    fit = TailExtrapolation(slope=-737.0, slope_stderr=0.0, intercept=737.0, anchor_threshold=1.0)
    curve = SweepCurve(thresholds, kept_correct, kept_error, n_attempts=9)
    rows = curve.rows(tail=fit)
    assert rows.extrapolated.tolist() == [False] * 3 + [True] * 3
    assert 0 < rows.kept_error[3] < 1e-320 and math.isinf(rows.attempts[3])
    assert math.isnan(rows.attempts[4]) and math.isnan(rows.attempts[5])
    assert curve.kept_error.tolist() == kept_error  # the curve keeps the observed counts
    path, reference = tmp_path / "curve.csv", tmp_path / "reference.csv"
    write_curve_csv(curve, path, fit)
    reference_curve_csv(curve, reference, fit)
    assert path.read_bytes() == reference.read_bytes()
    header = b"G,kept_correct,kept_error,attempts,logical_error,extrapolated\r\n"
    assert path.read_bytes().startswith(header + b"-0,")


def test_empty_curve_writes_the_header_only(tmp_path, block):
    curve = SweepCurve([], [], [], n_attempts=1)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert path.read_bytes() == b"G,kept_correct,kept_error,attempts,logical_error,extrapolated\r\n"


# Split reading. A file whose body holds at least two parts is cut into
# line-aligned byte ranges, one per usable CPU, parsed by forked workers. With
# parts of 40 bytes even these small files are split. The reference is a read
# by ``_read_checked`` alone, one record at a time, which every declined read
# falls back to.

TINY_PART = 40
REAL_READ_RANGE = gap_analysis._read_range


@pytest.fixture(params=[2, 3], ids=lambda n: f"cpus{n}")
def cpus(request):
    return request.param


def reader_for(path):
    return RecordSet.from_csv if path.suffix == ".csv" else RecordSet.from_jsonl


def pairs_of(gaps, correct, count=None) -> list:
    """Each record's (gap, flag), sorted, as a read keeps no record order and
    a merged row keeps a gap of -0.0 as 0.0."""
    if count is not None:
        gaps, correct = np.repeat(gaps, count), np.repeat(correct, count)
    return sorted(zip((np.asarray(gaps, np.float64) + 0.0).tolist(), np.asarray(correct).tolist()))


def outcome(path):
    """What a read gives: its records (``pairs_of``), ``len``, the totals and
    the bytes of its default-grid curve; or its exception."""
    try:
        rs = reader_for(path)(path)
    except Exception as exc:
        return type(exc), str(exc)
    curve = path.parent / "outcome_curve.csv"
    write_curve_csv(sweep(rs), curve)
    records = pairs_of(rs.gaps, rs.correct, rs.count)
    return records, len(rs), rs.n_attempts, rs.attempts_summed, curve.read_bytes()


def read_checked_only(path, is_csv):
    """``_read_records`` by ``_read_checked`` alone."""
    return gap_analysis._read_checked(path, is_csv)


def serial_outcome(path, monkeypatch, read=outcome):
    """``read(path)`` with every record file read by ``_read_checked`` alone."""
    with monkeypatch.context() as patch:
        patch.setattr(gap_analysis, "_read_records", read_checked_only)
        return read(path)


def checked_calls(monkeypatch) -> list:
    """Spy on ``_read_checked``: the paths it reads, in order."""
    calls = []
    real = gap_analysis._read_checked
    monkeypatch.setattr(
        gap_analysis, "_read_checked", lambda path, *args: calls.append(path) or real(path, *args)
    )
    return calls


# The byte kernels' layouts, line by line: the JSONL writer's (any gap text
# without a comma, whose value the kernel checks) and a plain CSV row.
WRITER_LINE = re.compile(
    rb'\{"gap": [^,\r\n]+, "correct": (?:true|false), "attempts_consumed": [1-9][0-9]{0,17}\}'
)
PLAIN_ROW = re.compile(rb"[0-9.eE+-]{1,64},(?:true|false|1|0)")


def kernel_layout(path) -> bool:
    """Whether every line of the file's body is in its format's kernel layout,
    after a line end is added to a last line without one: a JSONL writer's
    line ending in ``\\n``, or a plain CSV row ending in ``\\n`` or
    ``\\r\\n`` (after a header the range reader takes). Valid text in a
    kernel layout is parsed from its bytes; any other text declines."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        start = gap_analysis._csv_body_start(path)
        if start is None:
            return False
        body, line = data[start:], PLAIN_ROW
    else:
        body, line = data.removeprefix(codecs.BOM_UTF8), WRITER_LINE
    if body and not body.endswith(b"\n"):
        body += b"\n"
    if line is PLAIN_ROW:
        body = body.replace(b"\r\n", b"\n")
    return all(map(line.fullmatch, body.split(b"\n")[:-1]))


def split_outcome(path, monkeypatch, cpus, read=outcome):
    """(``read(path)``, whether the read declined to ``_read_checked``) with
    the file cut in tiny parts."""
    monkeypatch.setattr(gap_analysis, "_PART_BYTES", TINY_PART)
    monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: cpus)
    calls = checked_calls(monkeypatch)
    return read(path), bool(calls)


def assert_split_matches_serial(path, monkeypatch, cpus) -> bool:
    """Split and serial reads agree; returns whether the split read declined."""
    expected = serial_outcome(path, monkeypatch)
    got, declined = split_outcome(path, monkeypatch, cpus)
    assert got == expected
    return declined


def lines_text(lines, end="\n"):
    return "\n".join(lines) + end


def fixture_files():
    """The text of every reader fixture above, by name."""
    good_jsonl = '{"gap": 1.5, "correct": true, "attempts_consumed": 1}'
    blanks = reference_jsonl(GAPS, CORRECT, SHOT_INDEX).splitlines()
    blanks[2:2] = ["", "   "]
    huge = "9" * 400
    files = {
        "blank_lines.jsonl": lines_text(blanks + [""]),
        "partial_attempts.jsonl": lines_text(
            [
                '{"gap": 3, "correct": true, "attempts_consumed": 2}',
                '{"gap": -0, "correct": false}',
                '{"gap": 2.5, "correct": true, "attempts_consumed": 4}',
                '{"correct": false, "gap": 12}',
            ],
            end="",
        ),
        "later_block.jsonl": lines_text(
            ['{"gap": 1.5, "correct": true}', ""] + ['{"gap": 1.5, "correct": true}'] * 7
            + ['{"gap": 2, "correct": "yes"}']
        ),
        "split_object.jsonl": lines_text(
            ['{"gap": 1, "correct": true}, {"gap": 2', '"correct": true}']
        ),
        "huge_attempts.jsonl": lines_text(
            [good_jsonl] * 2 + [f'{{"gap": 1.0, "correct": true, "attempts_consumed": {huge}}}']
        ),
        "huge_gap.jsonl": lines_text([good_jsonl, f'{{"gap": {huge}, "correct": true}}']),
        "total_past_int64.jsonl": lines_text(
            [good_jsonl] * 4 + [f'{{"gap": 1.0, "correct": true, "attempts_consumed": {2**62}}}'] * 2
        ),
        "largest_total.jsonl": lines_text(
            [
                '{"gap": 1.0, "correct": true, "attempts_consumed": 1}',
                f'{{"gap": 2.0, "correct": false, "attempts_consumed": {2**63 - 2}}}',
            ]
        ),
        "blank_rows.csv": lines_text(
            ["gap,correct", "1.5,true", "", " , ", ",", "2,0", "1e-3, TRUE ", "  ", "0,false", "7,1"],
            end="",
        ),
    }
    for i, text in enumerate(["", "\n", "\n  \n\n"]):
        files[f"empty{i}.jsonl"] = text
    for i, text in enumerate(["", "gap,correct\n", "gap,correct\n\n,\n"]):
        files[f"empty{i}.csv"] = text
    for i, (bad, _) in enumerate(JSONL_BAD):
        files[f"bad{i}.jsonl"] = lines_text([good_jsonl, good_jsonl, "", good_jsonl, bad, good_jsonl])
    for i, (bad, _) in enumerate(CSV_BAD):
        files[f"bad{i}.csv"] = lines_text(
            ["gap,correct", "1,true", "", "2,false", " , ", "3,true", "4,true", bad, "5,true"]
        )
    for row in (4, 0):
        rows = ["gap,correct", "1,true", "", "2,false", "3,true", "5,true"]
        rows[row] = '"' + "1" * 200_000 + '",' + rows[row].split(",")[1]
        files[f"field_limit{row}.csv"] = lines_text(rows)
    # unquoted, so only the field limit tells it from a valid gap of 1
    files["field_limit_unquoted.csv"] = lines_text(["gap,correct"] + ["0" * 200_000 + "1,true"] * 3)
    rng = np.random.default_rng(3)
    gaps = np.round(rng.exponential(20.0, 1000), 3).tolist()
    correct = (rng.random(1000) > 0.1).tolist()
    files["agree.jsonl"] = reference_jsonl(gaps, correct, np.cumsum(rng.integers(1, 4, 1000)))
    files["agree.csv"] = lines_text(["gap,correct", *(f"{g!r},{c}" for g, c in zip(gaps, correct))])
    # the same rows with the flags in lower case, a plain CSV that the byte kernel reads
    files["plain.csv"] = files["agree.csv"].replace("True", "true").replace("False", "false")
    # few distinct (gap, flag) pairs, which a read folds into merged rows
    ints = rng.integers(0, 5, 600).astype(float).tolist()
    flags = (rng.random(600) > 0.2).tolist()
    files["integers.jsonl"] = reference_jsonl(ints, flags, np.cumsum(rng.integers(1, 4, 600)))
    int_rows = (f"{g:.0f},{c}" for g, c in zip(ints, flags))
    files["integers.csv"] = lines_text(["gap,correct", *int_rows])
    zeros = rng.choice(["0", "-0", "0.0", "-0.0", "1"], 60).tolist()
    files["zeros.jsonl"] = lines_text(
        f'{{"gap": {g}, "correct": {str(c).lower()}}}' for g, c in zip(zeros, flags)
    )
    files["zeros.csv"] = lines_text(["gap,correct", *(f"{g},{c}" for g, c in zip(zeros, flags))])
    # integer records first, then distinct gaps from 2.5 on, which the last
    # ranges (and, on one CPU, the whole read) keep one row a record
    mixed = ints[:300] + [2.5] + np.round(rng.exponential(20.0, 400) + 3, 6).tolist()
    files["mixed.jsonl"] = reference_jsonl(mixed, flags + flags[:101], np.arange(701) * 2)
    # valid, with text after a closing quote, which only a strict csv parse
    # refuses: its block is split as ``_read_checked`` splits it, so the read
    # takes ranges and merges
    files["declined.csv"] = lines_text(
        ["gap,correct", *["1,true", "2,false"] * 10, '"1" ,true', "3,0"]
    )
    # valid, with a quoted gap cell of 800 line ends that every block and
    # range cut of the tests here splits, so the read declines
    files["cut_cell.csv"] = lines_text(
        ["gap,correct", "1,true", "2,false", '"3' + " \n" * 800 + '",true', "4,0"]
    )
    return files


FIXTURE_FILES = fixture_files()


@pytest.mark.parametrize("name", sorted(FIXTURE_FILES))
def test_split_read_of_every_fixture_matches_serial(tmp_path, monkeypatch, cpus, name):
    path = tmp_path / name
    path.write_text(FIXTURE_FILES[name], encoding="utf-8")
    assert_split_matches_serial(path, monkeypatch, cpus)


MERGED_FIXTURES = {"integers.jsonl", "integers.csv", "zeros.jsonl", "zeros.csv", "declined.csv"}


@pytest.mark.parametrize("name", sorted(FIXTURE_FILES))
@pytest.mark.parametrize("cpus", [1, 2, 3], ids=lambda n: f"cpus{n}")
def test_every_fixture_read_in_small_blocks_holds_the_serial_records(
    tmp_path, monkeypatch, cpus, name
):
    # blocks of about 20 lines, so a range folds several
    monkeypatch.setattr(gap_analysis, "_BYTE_BLOCK", 1024)
    path = tmp_path / name
    path.write_text(FIXTURE_FILES[name], encoding="utf-8")
    expected = serial_outcome(path, monkeypatch)
    got, declined = split_outcome(path, monkeypatch, cpus)
    assert got == expected
    raises = got[0] is RecordFormatError
    assert declined == (raises or not kernel_layout(path))
    if not raises:  # a declined read folds as a range does
        sorts = []  # a first block of distinct pairs turns to records unsorted
        real = gap_analysis._distinct
        monkeypatch.setattr(gap_analysis, "_distinct", lambda *a: sorts.append(a) or real(*a))
        rs = reader_for(path)(path)
        assert name != "agree.jsonl" or sorts == []
        folded = rs.count is not None and rs.gaps.size > 0  # an empty read holds no rows
        assert folded == (name in MERGED_FIXTURES)
        assert not folded or rs.gaps.size < len(rs) / 2
        assert rs.count is None or not np.signbit(rs.gaps).any()  # -0.0 kept as 0.0


def traced_peak(read):
    """The peak of memory that Python and numpy allocate during ``read()``."""
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_read_of_integer_gaps_does_not_grow_with_the_records(tmp_path, monkeypatch):
    monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(16)
    gaps = np.floor(rng.exponential(20.0, 100_000)).astype(np.int64).tolist()
    flags = np.where(rng.random(100_000) > 0.1, "true", "false").tolist()
    text = "".join(
        f'{{"gap": {g}.0, "correct": {c}, "attempts_consumed": 1}}\n' for g, c in zip(gaps, flags)
    )
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    small.write_text(text)
    large.write_text(text * 4)
    assert RecordSet.from_jsonl(large).count is not None
    bound = 1.25 * traced_peak(lambda: RecordSet.from_jsonl(small))
    # a read of one row a record holds 9 bytes a record: 3.6 MB more here
    assert traced_peak(lambda: RecordSet.from_jsonl(large)) <= bound


LINE_ENDS = ["\n", "\r\n", "\r"]


def valid_jsonl(rng) -> str:
    """Valid records with mixed line ends, blank lines and field layouts."""
    consumed = rng.choice(["all", "none", "some"])
    lines = []
    while len(lines) < 12 or sum(map(len, lines)) < 200:
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", "  ", "\t"])))
            continue
        gap = rng.choice(["0", "-0", "3", "2.5", "1e-3", "7E2", "0.1", "123456.789", "1e22"])
        fields = [f'"gap": {gap}', f'"correct": {rng.choice(["true", "false"])}']
        if consumed == "all" or (consumed == "some" and rng.random() < 0.5):
            fields.append(f'"attempts_consumed": {rng.integers(1, 5)}')
        rng.shuffle(fields)
        lines.append("{" + str(rng.choice([", ", ","])).join(fields) + "}")
    return "".join(line + str(rng.choice(LINE_ENDS)) for line in lines)


def valid_csv(rng) -> str:
    """Valid rows with mixed line ends, blank rows, spacing and flag spellings;
    some files quote cells, a newline inside one among them."""
    quoted = rng.random() < 0.3
    rows = [str(rng.choice(["gap,correct", " Gap , CORRECT", "gap,correct "]))]
    while len(rows) < 12 or sum(map(len, rows)) < 120:
        pick = rng.random()
        if pick < 0.1:
            rows.append(str(rng.choice(["", " , ", ","])))
        elif quoted and pick < 0.25:
            rows.append(str(rng.choice(['"1.5",true', '"2\n",false', '3,"1"', '"4\r\n\n",0'])))
        else:
            gap = rng.choice(["0", "3", "2.5", "1e-3", " 4 ", "-0", "7E2", "0.25"])
            flag = rng.choice(["true", "false", "1", "0", " TRUE ", "False"])
            rows.append(f"{gap},{flag}")
    return "".join(row + str(rng.choice(LINE_ENDS)) for row in rows)


def writer_jsonl(rng) -> str:
    """Records in the JSONL writer's layout, which the byte kernel parses."""
    lines = []
    while len(lines) < 12 or sum(map(len, lines)) < 200:
        gap = rng.choice(["0", "-0", "3", "2.5", "1e-3", "7E2", "0.1", "123456.789", "1e22"])
        flag, consumed = rng.choice(["true", "false"]), rng.integers(1, 5)
        lines.append(f'{{"gap": {gap}, "correct": {flag}, "attempts_consumed": {consumed}}}')
    return "".join(line + "\n" for line in lines)


def plain_csv(rng) -> str:
    """Plain ``number,flag`` rows under a plain header, which the byte kernel parses."""
    end = str(rng.choice(["\n", "\r\n"]))
    rows = ["gap,correct"]
    while len(rows) < 12 or sum(map(len, rows)) < 120:
        gap = rng.choice(["0", "3", "2.5", "1e-3", "-0", "7E2", "0.25", "1e22"])
        rows.append(f"{gap},{rng.choice(['true', 'false', '1', '0'])}")
    return "".join(row + end for row in rows)


# (seed, generator) by format: the mixed files decline to _read_checked, the
# kernel-layout files are parsed in ranges
GENERATED = {
    ".jsonl": [(20, valid_jsonl), (21, writer_jsonl)],
    ".csv": [(20, valid_csv), (21, plain_csv)],
}


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_split_read_of_generated_valid_files_matches_serial(tmp_path, monkeypatch, suffix):
    # valid files only: a bad record makes the split read decline, which
    # would hide a range that parsed wrongly
    ranged = 0
    for seed, make in GENERATED[suffix]:
        rng = np.random.default_rng(seed)
        for i in range(40):
            text = make(rng)
            if rng.random() < 0.3:
                text = text.rstrip("\r\n")  # no line end after the last record
            if rng.random() < 0.2:
                text = "\ufeff" + text
            path = tmp_path / f"{make.__name__}{i}{suffix}"
            path.write_text(text, encoding="utf-8", newline="")
            declined = assert_split_matches_serial(path, monkeypatch, cpus=2 + i % 2)
            assert declined == (not kernel_layout(path)), text
            ranged += not declined
    assert ranged > 0  # some file was parsed in ranges, not only by _read_checked


def test_a_header_ending_in_a_lone_cr_keeps_the_first_record(tmp_path, monkeypatch, cpus):
    # the body starts after the header's text-mode line, not after the first
    # \n byte, which here ends the first record
    path = tmp_path / "records.csv"
    path.write_bytes(b"gap,correct\r" + b"".join(b"%d,true\n" % i for i in range(40)))
    assert not assert_split_matches_serial(path, monkeypatch, cpus)
    assert len(RecordSet.from_csv(path)) == 40


def test_a_header_only_csv_reads_no_records(tmp_path, monkeypatch, cpus):
    path = tmp_path / "records.csv"
    path.write_text("gap,correct" + " " * 100 + "\r\n")
    assert_split_matches_serial(path, monkeypatch, cpus)
    assert len(RecordSet.from_csv(path)) == 0


def test_a_quoted_newline_across_a_cut_declines(tmp_path, monkeypatch):
    rows = ["gap,correct"] + ["1,true"] * 6 + ['"2' + "\n" * 40 + '",false'] + ["3,false"] * 6
    path = tmp_path / "records.csv"
    write_lines(path, rows)
    monkeypatch.setattr(gap_analysis, "_PART_BYTES", TINY_PART)
    monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: 2)
    text = path.read_bytes()
    cut = gap_analysis._byte_ranges(path, len(b"gap,correct\n"))[1][0]
    assert text.index(b'"') < cut < text.rindex(b'"')  # the cut splits the quoted cell
    assert assert_split_matches_serial(path, monkeypatch, cpus=2)
    rs = RecordSet.from_csv(path)
    assert pairs_of(rs.gaps, rs.correct, rs.count) == pairs_of(
        [1.0] * 6 + [2.0] + [3.0] * 6, [True] * 6 + [False] * 7
    )


SMALL_LAYOUTS = ["writer.jsonl", "sorted.jsonl", "plain.csv", "spaced.csv", "quote_all.csv"]


def small_valid_files(tmp_path) -> dict:
    """Valid record files of under 1 MiB, so one range each, by layout: the
    JSONL writer's, sorted keys without spaces, plain CSV, CSV with a space
    before each cell and flags spelled True and False, and CSV with every
    cell quoted, the header too."""
    rng = np.random.default_rng(8)
    n = 3000
    gaps = rng.exponential(20.0, n)
    correct = rng.random(n) > 0.1
    records = RecordSet(gaps, correct, 3 * n, np.cumsum(rng.integers(1, 4, n)) - 1)
    paths = {name: tmp_path / name for name in SMALL_LAYOUTS}
    records.to_jsonl(paths["writer.jsonl"])
    paths["sorted.jsonl"].write_text(
        "".join(
            json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n"
            for line in paths["writer.jsonl"].read_text().splitlines()
        )
    )
    rows = list(zip(gaps.tolist(), correct.tolist()))
    write_lines(paths["plain.csv"], ["gap,correct", *(f"{g!r},{str(c).lower()}" for g, c in rows)])
    write_lines(paths["spaced.csv"], ["gap, correct", *(f"{g!r}, {c}" for g, c in rows)])
    with open(paths["quote_all.csv"], "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([("gap", "correct"), *rows])
    return paths


@pytest.mark.parametrize("name", SMALL_LAYOUTS)
@pytest.mark.parametrize("cpus", [1, 2], ids=lambda n: f"cpus{n}")
def test_a_small_valid_file_is_read_in_ranges(tmp_path, monkeypatch, cpus, name):
    path = small_valid_files(tmp_path)[name]
    assert path.stat().st_size < 2 * gap_analysis._PART_BYTES
    expected = serial_outcome(path, monkeypatch)
    assert len(expected[0]) == 3000
    monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: cpus)
    calls = checked_calls(monkeypatch)
    assert outcome(path) == expected
    assert calls == ([] if kernel_layout(path) else [path])


def test_a_header_spanning_lines_reads_through_read_checked(tmp_path, monkeypatch):
    path = tmp_path / "records.csv"
    write_lines(path, ['"gap\n",correct', "1.5,true", "2,false"])
    calls = checked_calls(monkeypatch)
    rs = RecordSet.from_csv(path)
    assert rs.gaps.tolist() == [1.5, 2.0] and rs.correct.tolist() == [True, False]
    assert calls == [path]


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_a_csv_error_names_the_first_bad_row(tmp_path, monkeypatch, capsys, split):
    # a bad gap at record 3, then a cell past the csv module's field limit
    # at record 6: the first is named, as a line-by-line reader would
    rows = ["gap,correct", "1,true", "2,false", "x,true", "4,true", "5,true"]
    path = tmp_path / "records.csv"
    write_lines(path, rows + ['"' + "1" * 200_000 + '",true', "7,true"])
    message = "record 3: bad gap 'x'"
    if split:
        monkeypatch.setattr(gap_analysis, "_PART_BYTES", TINY_PART)
        monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: 2)
        assert len(gap_analysis._byte_ranges(path, len(b"gap,correct\n"))) == 2
    else:
        monkeypatch.setattr(gap_analysis, "_read_records", read_checked_only)
    with pytest.raises(RecordFormatError) as info:
        RecordSet.from_csv(path)
    assert str(info.value) == message
    code, out, err, _ = gap_sweep_outcome(path, capsys)
    assert (code, out, err) == (3, "", f"input format error: {message}\n")


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_a_bad_byte_in_the_last_range_raises_as_serial(tmp_path, monkeypatch, cpus, suffix):
    row = b'{"gap": 1, "correct": true}\n' if suffix == ".jsonl" else b"1,true\n"
    head = b"gap,correct\n" if suffix == ".csv" else b""
    path = tmp_path / f"records{suffix}"
    path.write_bytes(head + row * 20 + b"2\xff,true\n")
    assert_split_matches_serial(path, monkeypatch, cpus)
    with pytest.raises(UnicodeDecodeError):
        reader_for(path)(path)


def test_an_attempt_total_past_int64_across_ranges_raises_as_serial(tmp_path, monkeypatch, cpus):
    big = '{"gap": 1.0, "correct": true, "attempts_consumed": %s}' % ("9" * 18)
    small = '{"gap": 1.0, "correct": true, "attempts_consumed": 1}'
    # five of the largest counts the byte kernel reads per range: each range's
    # total fits in int64, the sum of two does not
    path = tmp_path / "records.jsonl"
    write_lines(path, ([big] * 5 + [small] * 3) * cpus)
    monkeypatch.setattr(gap_analysis, "_PART_BYTES", TINY_PART)
    monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: cpus)
    ranges = gap_analysis._byte_ranges(path, 0)
    assert len(ranges) == cpus
    assert all(REAL_READ_RANGE(path, False, a, b)[2] == 5 * (10**18 - 1) + 3 for a, b in ranges)
    got = split_outcome(path, monkeypatch, cpus)[0]
    assert got == serial_outcome(path, monkeypatch)
    assert got[0] is RecordFormatError and "attempts_consumed total exceeds" in got[1]


def read_range_in_worker(path, is_csv, start, end, *args):
    """``_read_range`` that notes the process it ran in."""
    with open(path.parent / "pids", "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return REAL_READ_RANGE(path, is_csv, start, end, *args)


def range_pids(path):
    return (path.parent / "pids").read_text().split()


def test_ranges_are_parsed_here_and_in_forked_children(tmp_path, monkeypatch, cpus):
    path = tmp_path / "records.csv"
    path.write_text(FIXTURE_FILES["plain.csv"])
    monkeypatch.setattr(gap_analysis, "_read_range", read_range_in_worker)
    expected = serial_outcome(path, monkeypatch)
    assert split_outcome(path, monkeypatch, cpus) == (expected, False)
    pids = range_pids(path)
    assert len(set(pids)) == cpus and pids.count(str(os.getpid())) == 1


REAL_FORK = os.fork


def fork_then(child_action):
    """``os.fork`` whose child runs ``child_action`` first (and exits 99 if
    it raises, so a child never returns into the test run)."""

    def fork():
        pid = REAL_FORK()
        if pid == 0:
            try:
                child_action()
            except BaseException:
                os._exit(99)
        return pid

    return fork


def exit_at_once():
    os._exit(3)


def fail_to_format():
    # the child's text blocks, and its range reads, then raise
    gap_analysis._IO_BLOCK = 0
    gap_analysis._read_range = None


def fail_but_exit_zero():
    fail_to_format()
    real_exit = os._exit
    os._exit = lambda status: real_exit(0)


class ShortPipe:
    """A pipe file that passes on only the first half of each write."""

    def __init__(self, fd, mode):
        self.file = open(fd, mode)

    def write(self, data):
        return self.file.write(data if len(data) == 8 else data[: len(data) // 2])

    def writelines(self, blocks):
        for data in blocks:
            self.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def stream_short():
    gap_analysis.open = ShortPipe


CHILD_FAILURES = [exit_at_once, fail_to_format, fail_but_exit_zero, stream_short]


# distinct continuous gaps, read one row a record, and integer gaps, read as
# merged rows
FORK_FIXTURES = ["agree.jsonl", "integers.jsonl"]


@pytest.mark.parametrize("name", FORK_FIXTURES)
@pytest.mark.parametrize("failure", CHILD_FAILURES, ids=lambda f: f.__name__)
def test_a_failed_child_range_is_read_here(tmp_path, monkeypatch, cpus, failure, name):
    path = tmp_path / "records.jsonl"
    path.write_text(FIXTURE_FILES[name])
    expected = serial_outcome(path, monkeypatch)
    monkeypatch.setattr(os, "fork", fork_then(failure))
    monkeypatch.setattr(gap_analysis, "_read_range", read_range_in_worker)
    assert split_outcome(path, monkeypatch, cpus) == (expected, False)
    assert range_pids(path).count(str(os.getpid())) == cpus


def failing_call(*args, **kwargs):
    raise OSError("cannot start")


@pytest.mark.parametrize("name", FORK_FIXTURES)
@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_child_that_cannot_start_leaves_its_range_here(tmp_path, monkeypatch, cpus, call, name):
    monkeypatch.setattr(os, call, failing_call)
    monkeypatch.setattr(gap_analysis, "_read_range", read_range_in_worker)
    path = tmp_path / "records.jsonl"
    path.write_text(FIXTURE_FILES[name])
    expected = serial_outcome(path, monkeypatch)
    assert split_outcome(path, monkeypatch, cpus) == (expected, False)
    assert range_pids(path) == [str(os.getpid())] * cpus


def forbidden_fork():
    raise AssertionError("a child was forked")


def test_no_fork_while_another_thread_runs(tmp_path, monkeypatch):
    path = tmp_path / "records.csv"
    path.write_text(FIXTURE_FILES["plain.csv"])
    expected = serial_outcome(path, monkeypatch)
    written = serial_writes(tmp_path, monkeypatch, 23)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert split_outcome(path, monkeypatch, 2) == (expected, False)
        assert split_writes(tmp_path, monkeypatch, 23, 2) == written
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_no_fork_where_the_platform_cannot(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    path.write_text(FIXTURE_FILES["agree.jsonl"])
    written = serial_writes(tmp_path, monkeypatch, 23)
    monkeypatch.delattr(os, "fork")
    assert split_outcome(path, monkeypatch, 2) == (serial_outcome(path, monkeypatch), False)
    assert split_writes(tmp_path, monkeypatch, 23, 2) == written


@pytest.mark.parametrize(
    "parts,child,pickled_here",
    [(1, None, 0), (2, None, 0), (2, exit_at_once, 1)],
    ids=["one part", "two parts", "a failed child"],
)
def test_only_later_parts_are_pickled_here(monkeypatch, parts, child, pickled_here):
    # part 0's result is kept as it is; a later part is pickled in its child,
    # or here when its child failed and the part is done again here
    pickled = []
    real_dumps = pickle.dumps

    def dumps(obj, *args, **kwargs):
        pickled.append(obj)
        return real_dumps(obj, *args, **kwargs)

    forked = []
    real_fork = fork_then(child) if child else REAL_FORK

    def fork():
        pid = real_fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(pickle, "dumps", dumps)
    monkeypatch.setattr(os, "fork", fork)
    got = gap_analysis._map_in_parts(lambda part: np.arange(3 * part, 3 * part + 3), parts)
    assert [a.tolist() for a in got] == [[3 * p, 3 * p + 1, 3 * p + 2] for p in range(parts)]
    assert len(forked) == parts - 1
    assert [a.tolist() for a in pickled] == [[3, 4, 5]] * pickled_here


def test_each_reader_calls_only_itself(tmp_path, monkeypatch):
    # perfbench times each reader as a span of its own: a CSV read must not
    # count as a JSONL read, nor the other way round
    calls = []
    for name in ("from_jsonl", "from_csv"):

        def spy(cls, *args, _name=name, _read=getattr(RecordSet, name).__func__, **kwargs):
            calls.append(_name)
            return _read(cls, *args, **kwargs)

        monkeypatch.setattr(RecordSet, name, classmethod(spy))
    (tmp_path / "r.csv").write_text("gap,correct\n1.0,true\n")
    (tmp_path / "r.jsonl").write_text('{"gap": 1.0, "correct": true}\n')
    assert len(RecordSet.from_csv(tmp_path / "r.csv")) == 1
    assert len(RecordSet.from_jsonl(tmp_path / "r.jsonl")) == 1
    assert calls == ["from_csv", "from_jsonl"]


# A UTF-8 byte order mark (Excel's "CSV UTF-8") may start a record file; one
# anywhere else stays an error.

BOM_FILES = {
    "records.jsonl": [
        f'{{"gap": {i}.0, "correct": {"true" if i % 3 else "false"}, "attempts_consumed": 1}}'
        for i in range(20)
    ],
    "records.csv": ["gap,correct"] + [f"{i},{'true' if i % 3 else 'false'}" for i in range(20)],
}


@pytest.mark.parametrize("name", sorted(BOM_FILES))
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_a_leading_bom_is_read_past(tmp_path, monkeypatch, name, split):
    plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
    for path, prefix in ((plain, ""), (marked, "\ufeff")):
        path.parent.mkdir()
        path.write_text(prefix + lines_text(BOM_FILES[name]), encoding="utf-8")
    expected = serial_outcome(plain, monkeypatch)
    assert len(expected[0]) == 20
    if split:
        assert split_outcome(marked, monkeypatch, 2) == (expected, False)
    else:
        assert serial_outcome(marked, monkeypatch) == expected


@pytest.mark.parametrize(
    "name, message",
    [
        ("records.jsonl", r"^record 3: invalid JSON: Unexpected UTF-8 BOM"),
        ("records.csv", r"^record 2: bad gap '\\ufeff1'$"),
    ],
)
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_a_bom_after_the_start_is_an_error(tmp_path, monkeypatch, name, message, split):
    lines = list(BOM_FILES[name])
    lines[2] = "\ufeff" + lines[2]
    path = tmp_path / name
    path.write_text(lines_text(lines), encoding="utf-8")
    if split:
        monkeypatch.setattr(gap_analysis, "_PART_BYTES", TINY_PART)
        monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: 2)
    with pytest.raises(RecordFormatError, match=message):
        reader_for(path)(path)


@pytest.mark.parametrize("name", sorted(BOM_FILES))
def test_a_bom_that_starts_a_later_range_is_an_error(tmp_path, monkeypatch, name):
    monkeypatch.setattr(gap_analysis, "_PART_BYTES", TINY_PART)
    monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: 2)
    path = tmp_path / name
    text = lines_text(BOM_FILES[name])
    path.write_text(text, encoding="utf-8")
    body = len("gap,correct\n") if name.endswith(".csv") else 0
    cut = gap_analysis._byte_ranges(path, body)[1][0]
    path.write_text(text[:cut] + "\ufeff" + text[cut:], encoding="utf-8")
    assert gap_analysis._byte_ranges(path, body)[1][0] == cut
    expected = serial_outcome(path, monkeypatch)
    assert expected[0] is RecordFormatError
    assert split_outcome(path, monkeypatch, 2) == (expected, True)


def test_a_lowered_field_limit_holds_for_plain_rows(tmp_path, monkeypatch, cpus):
    path = tmp_path / "records.csv"
    write_lines(path, ["gap,correct"] + ["12345.6789,true"] * 20)
    limit = csv.field_size_limit(8)
    try:
        assert_split_matches_serial(path, monkeypatch, cpus)
        with pytest.raises(RecordFormatError, match="field larger than field limit"):
            RecordSet.from_csv(path)
    finally:
        csv.field_size_limit(limit)


# Byte kernels. A range is read a block of bytes at a time: a block of the
# writer's JSONL lines or of plain "number,flag" CSV rows is parsed from its
# bytes, and any other block declines. Each case below is read by
# ``_read_checked`` and by the range reader, which must agree: the same
# columns and totals, or a decline where ``_read_checked`` raises or the text
# is in no kernel layout. With blocks
# of KERNEL_BLOCK bytes the changed line sits mid-range, with whole blocks of
# canonical lines before and after it.

KERNEL_BLOCK = 160


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(gap_analysis, "_BYTE_BLOCK", KERNEL_BLOCK)


# integer gaps as the default gap kind gives them, a short one first and one
# of 15 digits, the most read from digit columns
INTEGER_GAPS = [0.0, 1.0, 7.0, 12.0, 40.0, 3.0, 123456.0, 2.0, 10.0, 999999999999999.0, 5.0, 100.0]


def canonical_lines(suffix, integer=False) -> list[bytes]:
    """Lines as the JSONL writer or a plain CSV writer gives them, each with
    its \\n; a CSV file's header is its first line. Integer gaps are written
    ``N.0`` in JSONL, as the writer does, and ``N`` in CSV."""
    gaps = [0.0, 1.0, 0.1, 1e-320, 1e22, 3.25, 7.0, 123456.789, 2.5e-7, 40.0, 0.5, 12.0] * 2
    gaps = INTEGER_GAPS * 2 if integer else gaps
    correct = [i % 3 != 1 for i in range(len(gaps))]
    if suffix == ".csv":
        texts = [f"{g:.0f}" if integer else repr(g) for g in gaps]
        rows = [f"{g},{flag}" for g, flag in zip(texts, ["true", "false", "1", "0"] * 6)]
        return [f"{row}\n".encode() for row in ["gap,correct", *rows]]
    shot_index = np.cumsum([1, 12, 1, 3, 123456789, 1, 1, 2, 40, 1, 1, 5] * 2) - 1
    return reference_jsonl(gaps, correct, shot_index).encode().splitlines(keepends=True)


def columns_of(read):
    """The records (``pairs_of``) and totals a reader returns, None where it
    declines, or "raises"."""
    try:
        got = read()
    except (RecordFormatError, UnicodeDecodeError):
        return "raises"
    if got is None:
        return None
    # a block kept as records owns its columns: a view would keep the
    # block's parse temporaries, or its raw bytes, alive until the join
    assert all(column.base is None for block in got[0].blocks or () for column in block)
    return pairs_of(*got[0].arrays()), *got[1:]


def assert_range_agrees_with_serial(path):
    """The range reader over the whole body gives ``_read_checked``'s columns
    and totals, and declines exactly where ``_read_checked`` raises or the
    text is not in a kernel layout."""
    is_csv = path.suffix == ".csv"
    serial = columns_of(lambda: gap_analysis._read_checked(path, is_csv))
    start = gap_analysis._csv_body_start(path) if is_csv else 0
    size = path.stat().st_size
    got = columns_of(lambda: gap_analysis._read_range(path, is_csv, start, size))
    assert (got is None) == (serial == "raises" or not kernel_layout(path))
    assert got is None or got == serial


MUTATIONS = [bytes([c]) for c in b'09.e-+ \t,"}{\rtfn\x80\0'] + [codecs.BOM_UTF8]


def mutated(lines, offset, byte, before):
    """The lines with the middle line's byte at ``offset`` replaced by, or
    preceded by, ``byte``."""
    lines = list(lines)
    line = lines[len(lines) // 2]
    lines[len(lines) // 2] = line[:offset] + byte + line[offset + (0 if before else 1) :]
    return b"".join(lines)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_every_one_byte_change_of_a_line_reads_as_serial(tmp_path, small_blocks, suffix):
    lines = canonical_lines(suffix)
    path = tmp_path / f"records{suffix}"
    path.write_bytes(b"".join(lines))
    assert_range_agrees_with_serial(path)
    for offset in range(len(lines[len(lines) // 2])):
        for byte in MUTATIONS:
            for before in (False, True):
                path.write_bytes(mutated(lines, offset, byte, before))
                assert_range_agrees_with_serial(path)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_sampled_one_byte_changes_split_read_as_serial(tmp_path, small_blocks, monkeypatch, suffix):
    rng = np.random.default_rng(11)
    lines = canonical_lines(suffix)
    path = tmp_path / f"records{suffix}"
    for i in range(24):
        offset = int(rng.integers(len(lines[len(lines) // 2])))
        byte = MUTATIONS[int(rng.integers(len(MUTATIONS)))]
        path.write_bytes(mutated(lines, offset, byte, bool(rng.integers(2))))
        assert_split_matches_serial(path, monkeypatch, cpus=1 + i % 3)


def jsonl_line(gap="2.5", flag="true", consumed="3"):
    return f'{{"gap": {gap}, "correct": {flag}, "attempts_consumed": {consumed}}}'


def with_middle_line(suffix, line: str, end="\n", integer=False) -> bytes:
    lines = canonical_lines(suffix, integer)
    lines[len(lines) // 2] = line.encode() + end.encode()
    return b"".join(lines)


def with_line_ends(suffix, end: str) -> bytes:
    return b"".join(line.replace(b"\n", end.encode()) for line in canonical_lines(suffix))


JSONL_GAPS = ["01.5", "1.", ".5", "-0", "-0.0", "1e400", "1e-400", "1E2", "NaN", "Infinity",
              "-Infinity", "true", "null", '"1.5"', '"a,b"', "[1]", "{}", " 2 ", "\t2", "-2",
              "9" * 400, "1" + "0" * 5000, "2 3", "", "\x001", "1\x00"]
JSONL_COUNTS = ["0", "01", "-1", "1.0", "1e3", " 4", "+4", "9" * 18, "1" + "0" * 18,
                str(2**63 - 1), str(2**63), "9" * 400]
BIG_COUNT = jsonl_line(consumed="9" * 18)

JSONL_CASES = {
    **{f"gap {gap!r}": with_middle_line(".jsonl", jsonl_line(gap=gap)) for gap in JSONL_GAPS},
    **{
        f"attempts_consumed {count[:24]!r}": with_middle_line(".jsonl", jsonl_line(consumed=count))
        for count in JSONL_COUNTS
    },
    "total past int64": "".join(f"{BIG_COUNT}\n" for _ in range(12)).encode(),
    "crlf": with_line_ends(".jsonl", "\r\n"),
    "lone cr": with_middle_line(".jsonl", jsonl_line(), end="\r"),
    "blank lines": with_middle_line(".jsonl", "\n  \n" + jsonl_line()),
    "no last line end": b"".join(canonical_lines(".jsonl")).rstrip(b"\n"),
    "a last line without a comma or line end": b"".join(canonical_lines(".jsonl")) + b'{"gap": 1}',
    "reordered keys": b"".join(
        json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")).encode() + b"\n"
        for line in canonical_lines(".jsonl")
    ),
    "duplicate key": with_middle_line(".jsonl", '{"gap": 1, ' + jsonl_line()[1:]),
    "no attempts_consumed": with_middle_line(".jsonl", '{"gap": 2.5, "correct": false}'),
    "flag True": with_middle_line(".jsonl", jsonl_line(flag="True")),
    # valid JSON whose commas are 19 bytes apart
    "flag false, a space": with_middle_line(".jsonl", jsonl_line(flag="false ")),
    "flag true, two spaces": with_middle_line(".jsonl", jsonl_line(flag="true  ")),
    "two records": with_middle_line(".jsonl", jsonl_line() + ", " + jsonl_line()),
}

CSV_CASES = {
    **{
        f"gap {gap[:24]!r}": with_middle_line(".csv", f"{gap},true")
        for gap in ["01.5", "1.", ".5", "-0", "1e400", "1e-400", "NaN", "Infinity", "inf",
                    "true", "1_0", " 1", "1 ", "-2", "", "0" * 63 + "1", "0" * 64 + "1"]
    },
    **{
        f"flag {flag!r}": with_middle_line(".csv", f"2.5,{flag}")
        for flag in ["TRUE", " true", "true ", "False", "2", "yes", "1.0", "", "tru"]
    },
    "crlf": with_line_ends(".csv", "\r\n"),
    "lone cr": with_middle_line(".csv", "2.5,true", end="\r"),
    "blank rows": with_middle_line(".csv", "\n , \n,\n2.5,true"),
    "no last line end": b"".join(canonical_lines(".csv")).rstrip(b"\n"),
    "a last line without a comma or line end": b"".join(canonical_lines(".csv")) + b"7",
    "quoted cell": with_middle_line(".csv", '"2.5",true'),
    "three cells": with_middle_line(".csv", "2.5,true,1"),
    "nul byte": with_middle_line(".csv", "2.5\0,true"),
}

# Integer gap text (JSONL 0 or [1-9]\d{0,14}, each with or without ".0"; CSV
# \d{1,15}) is read from digit columns; any other text in a block, the changed
# line among canonical integer lines here, keeps the json.loads or float path.
# 9007199254740993 is 2**53 + 1; a float64 dot product of the digits of
# 97689186037540745 or 4602522718947464391 can round away from float()
INTEGER_JSONL_GAPS = ["0", "0.0", "100", "00.0", "01.0", "1.00", "1.", ".0", "-0.0", "1e3", "2.5",
                      "1" * 15 + ".0", "9007199254740993.0", "97689186037540745",
                      "4602522718947464391.0"]
INTEGER_CSV_GAPS = ["0", "000", "017", "+1", "-0", "2.5", "9" * 15, "9007199254740993",
                    "4602522718947464391"]
# and each byte of true and false changed to another byte a plain row may hold
INTEGER_CSV_FLAGS = ["tru", "truee", "fals", "t", "10", ""] + [
    flag[:i] + ("s" if flag[i] == "e" else "e") + flag[i + 1 :]
    for flag in ("true", "false")
    for i in range(len(flag))
]


def short_row_then_15_digits(suffix) -> bytes:
    """A first row with a one-digit gap, then one of 15 digits: the first
    row's digit columns start before the block."""
    if suffix == ".csv":
        return b"gap,correct\n1,true\n" + b"9" * 15 + b",false\n"
    return (jsonl_line(gap="1.0") + "\n" + jsonl_line(gap="9" * 15 + ".0") + "\n").encode()


INTEGER_CASES = {
    **{
        (".jsonl", f"integer gap {gap[:24]!r}"): with_middle_line(
            ".jsonl", jsonl_line(gap=gap), integer=True
        )
        for gap in INTEGER_JSONL_GAPS
    },
    **{
        (".csv", f"integer gap {gap!r}"): with_middle_line(".csv", f"{gap},true", integer=True)
        for gap in INTEGER_CSV_GAPS
    },
    **{
        (".csv", f"integer flag {flag!r}"): with_middle_line(".csv", f"12,{flag}", integer=True)
        for flag in INTEGER_CSV_FLAGS
    },
    (".csv", "integer flag '' crlf"): with_middle_line(".csv", "12,", end="\r\n", integer=True),
    **{
        (suffix, "short row then 15 digits"): short_row_then_15_digits(suffix)
        for suffix in (".jsonl", ".csv")
    },
}

NAMED_CASES = {
    **{(".jsonl", name): text for name, text in JSONL_CASES.items()},
    **{(".csv", name): text for name, text in CSV_CASES.items()},
    **INTEGER_CASES,
}


@pytest.mark.parametrize("suffix, name", sorted(NAMED_CASES))
def test_named_cases_read_as_serial(tmp_path, small_blocks, suffix, name):
    path = tmp_path / f"records{suffix}"
    path.write_bytes(NAMED_CASES[suffix, name])
    assert_range_agrees_with_serial(path)


def gap_sweep_outcome(path, capsys):
    """Exit code, stdout, stderr and output files of a one-input gap-sweep."""
    out, cfg = path.parent / "out", path.parent / "sweep.json"
    shutil.rmtree(out, ignore_errors=True)
    cfg.write_text("{}")
    code = main(["gap-sweep", "--config", str(cfg), "--records", str(path), "--out", str(out)])
    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, *capsys.readouterr(), outputs


@pytest.mark.parametrize("suffix, name", sorted(NAMED_CASES))
def test_named_cases_through_the_cli_match_serial(
    tmp_path, small_blocks, monkeypatch, capsys, suffix, name
):
    path = tmp_path / f"records{suffix}"
    path.write_bytes(NAMED_CASES[suffix, name])
    expected = serial_outcome(path, monkeypatch, lambda p: gap_sweep_outcome(p, capsys))
    monkeypatch.setattr(gap_analysis, "_PART_BYTES", TINY_PART)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: cpus)
        assert gap_sweep_outcome(path, capsys) == expected


def kernel_parses(monkeypatch) -> list:
    """Spy on both byte kernels: whether each block they were given parsed."""
    parsed = []
    for name in ("_jsonl_bytes", "_csv_bytes"):

        def spy(*args, _real=getattr(gap_analysis, name)):
            block = _real(*args)
            parsed.append(block is not None)
            return block

        monkeypatch.setattr(gap_analysis, name, spy)
    return parsed


@pytest.mark.parametrize("last_end", [True, False], ids=["ended", "unended"])
@pytest.mark.parametrize("suffix, end", [(".jsonl", "\n"), (".csv", "\n"), (".csv", "\r\n")])
def test_canonical_blocks_are_read_from_their_bytes(
    tmp_path, small_blocks, monkeypatch, suffix, end, last_end
):
    # a last line without its line end is parsed by the kernel too
    path = tmp_path / f"records{suffix}"
    text = with_line_ends(suffix, end)
    path.write_bytes(text if last_end else text.removesuffix(end.encode()))
    parsed = kernel_parses(monkeypatch)
    assert_range_agrees_with_serial(path)
    assert len(parsed) > 1 and all(parsed)


def test_a_writer_file_reads_through_the_byte_kernel(tmp_path, monkeypatch):
    # written by the JSONL writer, then read at the default block size
    rng = np.random.default_rng(5)
    n = 20_000
    gaps = rng.exponential(20.0, n)
    gaps[::7] = np.floor(gaps[::7])
    records = RecordSet(gaps, rng.random(n) > 0.1, 5 * n, np.cumsum(rng.integers(1, 6, n)) - 1)
    path = tmp_path / "records.jsonl"
    records.to_jsonl(path)
    parsed = kernel_parses(monkeypatch)
    rows, with_consumed, consumed = gap_analysis._read_range(path, False, 0, path.stat().st_size)
    assert len(parsed) > 1 and all(parsed)
    got = rows.arrays()  # distinct pairs at the first block: one row a record, as parsed
    assert got[0].tolist() == gaps.tolist() and got[1].tolist() == records.correct.tolist()
    assert (got[2], with_consumed, consumed) == (None, n, int(records.shot_index[-1]) + 1)


def rejecting(check, gap: float):
    """``check`` that also rejects records of ``gap``."""

    def checked(rec_no, record):
        value, *rest = check(rec_no, record)
        if value == gap:
            raise RecordFormatError(f"record {rec_no}: gap {gap!r} rejected")
        return (value, *rest)

    return checked


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_a_rule_added_to_the_serial_checks_names_its_record(tmp_path, monkeypatch, suffix):
    # sorted keys and ' TRUE ' flags, which the byte kernels decline
    gaps = [1.5, 2.0, 7.25, 3.0]
    is_csv = suffix == ".csv"
    path = tmp_path / f"records{suffix}"
    if is_csv:
        write_lines(path, ["gap,correct", *(f"{g!r}, TRUE " for g in gaps)])
    else:
        records = [{"gap": g, "correct": True, "attempts_consumed": 2} for g in gaps]
        write_lines(path, [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records])
    monkeypatch.setattr(gap_analysis, "_jsonl_fields", rejecting(gap_analysis._jsonl_fields, 7.25))
    monkeypatch.setattr(gap_analysis, "_csv_record", rejecting(gap_analysis._csv_record, 7.25))
    with pytest.raises(RecordFormatError, match=r"^record 3: gap 7\.25 rejected$"):
        gap_analysis._read_checked(path, is_csv)


def spy_on_text_parser(monkeypatch, suffix) -> list:
    """Note each call ``gap_analysis`` makes to the gap text parser of the
    format: ``json.loads`` for JSONL, ``float`` for CSV (JSONL code also reads
    ``float`` as a type, so it is left alone there)."""
    calls = []
    if suffix == ".csv":
        spy = lambda text: calls.append(text) or float(text)  # noqa: E731
        monkeypatch.setattr(gap_analysis, "float", spy, raising=False)
    else:
        loads = json.loads
        spy = types.SimpleNamespace(loads=lambda text: calls.append(text) or loads(text))
        monkeypatch.setattr(gap_analysis, "json", spy)
    return calls


def integer_files(tmp_path) -> dict:
    """Integer-gap files: the JSONL writer's, a %d CSV of the same records,
    canonical integer lines and a short row before one of 15 digits."""
    rng = np.random.default_rng(8)
    n = 20_000
    gaps = np.floor(rng.exponential(20.0, n))
    gaps[::97] = 10**15 - 1
    records = RecordSet(gaps, rng.random(n) > 0.1, 5 * n, np.cumsum(rng.integers(1, 6, n)) - 1)
    records.to_jsonl(tmp_path / "writer.jsonl")
    flags = np.where(records.correct, "true", "false")
    rows = "".join(f"{g:.0f},{c}\n" for g, c in zip(gaps.tolist(), flags.tolist()))
    (tmp_path / "writer.csv").write_text("gap,correct\n" + rows)
    for suffix in (".jsonl", ".csv"):
        (tmp_path / f"canonical{suffix}").write_bytes(b"".join(canonical_lines(suffix, True)))
        (tmp_path / f"short{suffix}").write_bytes(short_row_then_15_digits(suffix))
    return {path.name: path for path in sorted(tmp_path.iterdir())}


@pytest.mark.parametrize("block", [KERNEL_BLOCK, gap_analysis._BYTE_BLOCK], ids=["small", "full"])
def test_integer_blocks_call_neither_json_loads_nor_float(tmp_path, monkeypatch, block):
    monkeypatch.setattr(gap_analysis, "_BYTE_BLOCK", block)
    for path in integer_files(tmp_path).values():
        is_csv = path.suffix == ".csv"
        serial = columns_of(lambda: gap_analysis._read_checked(path, is_csv))
        body = (gap_analysis._csv_body_start(path) if is_csv else 0, path.stat().st_size)
        with monkeypatch.context() as patch:
            calls = spy_on_text_parser(patch, path.suffix)
            got = columns_of(lambda: gap_analysis._read_range(path, is_csv, *body))
        assert (path.name, got, calls) == (path.name, serial, [])


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_a_half_integer_gap_takes_the_text_parser(tmp_path, small_blocks, monkeypatch, suffix):
    path = tmp_path / f"records{suffix}"
    path.write_bytes(INTEGER_CASES[suffix, "integer gap '2.5'"])
    calls = spy_on_text_parser(monkeypatch, suffix)
    assert_range_agrees_with_serial(path)
    assert any("2.5" in str(text) for text in calls)


# A file that is not UTF-8 says so, wherever the bad byte sits after a bad record.
@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
@pytest.mark.parametrize("distance", [1, 1000])
def test_a_non_utf8_byte_wins_over_an_earlier_bad_record(tmp_path, capsys, suffix, distance):
    if suffix == ".csv":
        head, bad, good, last = b"gap,correct\n", b"1,yes\n", b"12345.5,true\n", b"2\xff,true\n"
    else:
        head, bad = b"", b'{"gap": 1, "correct": "yes"}\n'
        good, last = b'{"gap": 1.0, "correct": true}\n', b'{"gap": 2\xff}\n'
    path = tmp_path / f"records{suffix}"
    path.write_bytes(head + bad + good * (distance - 1) + last)
    code, out, err, _ = gap_sweep_outcome(path, capsys)
    assert (code, out, err) == (3, "", f"input format error: {path}: not UTF-8 text\n")


# Split writing. Record and curve sets of at least two parts of _PART_ROWS
# rows are written in parts, one per usable CPU: part 0 here, each later part
# formatted whole in a forked child and streamed back. With parts of 2 rows
# even these small sets are split; the bytes never change.

WRITE_GAPS = [0.0, 5e-324, 1e308, 3.0, 7.0, 0.1, 2.5e-7, 123456.789, 1e22, 40.0, 0.5, 1.0]


def sets_to_write(rows):
    """A record set, a curve of ``rows`` rows and a tail fit for it: edge
    gaps, integral gaps, curve rows with NaN and inf, and extrapolated rows."""
    pick = np.arange(rows) % len(WRITE_GAPS)
    records = RecordSet(
        np.array(WRITE_GAPS)[pick],
        pick % 3 > 0,
        n_attempts=3 * rows + 1,
        shot_index=3 * np.arange(rows) + pick % 3,
    )
    kept_error = np.array([2.0, 0.0, 1e-320, 1.0])[np.arange(rows) % 4]
    # rows from 2 * rows // 3 on are extrapolated
    fit = TailExtrapolation(
        slope=-1.5, slope_stderr=0.1, intercept=2.0, anchor_threshold=(2 * rows // 3 - 1) * 0.5
    )
    curve = SweepCurve(np.arange(rows) * 0.5, np.arange(rows) % 3 * 1.0, kept_error, n_attempts=9)
    return records, curve, fit


def written_bytes(tmp_path, rows):
    records, curve, fit = sets_to_write(rows)
    records.to_jsonl(tmp_path / "out.jsonl")
    write_curve_csv(curve, tmp_path / "out.csv", fit)
    return (tmp_path / "out.jsonl").read_bytes(), (tmp_path / "out.csv").read_bytes()


def serial_writes(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(gap_analysis, "_PART_ROWS", 1 << 60)
    return written_bytes(tmp_path, rows)


def split_writes(tmp_path, monkeypatch, rows, cpus):
    monkeypatch.setattr(gap_analysis, "_PART_ROWS", 2)
    monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: cpus)
    return written_bytes(tmp_path, rows)


def count_forks(monkeypatch, fork=os.fork):
    """Patch ``os.fork`` to note each child this process forks."""
    children = []

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children


@pytest.mark.parametrize("rows", [0, 1, 3, 11, 23])
@pytest.mark.parametrize("cpus", [1, 2, 3], ids=lambda n: f"cpus{n}")
def test_split_writes_match_serial(tmp_path, monkeypatch, block, cpus, rows):
    records, curve, fit = sets_to_write(rows)
    reference = tmp_path / "reference.csv"
    reference_curve_csv(curve, reference, fit)
    gaps, correct = records.gaps.tolist(), records.correct.tolist()
    expected = serial_writes(tmp_path, monkeypatch, rows)
    assert expected == (
        reference_jsonl(gaps, correct, records.shot_index).encode(),
        reference.read_bytes(),
    )
    children = count_forks(monkeypatch)
    assert split_writes(tmp_path, monkeypatch, rows, cpus) == expected
    assert len(children) == 2 * (max(1, min(cpus, rows // 2)) - 1)


@pytest.mark.parametrize("failure", CHILD_FAILURES, ids=lambda f: f.__name__)
def test_a_failed_child_part_is_written_here(tmp_path, monkeypatch, cpus, failure):
    expected = serial_writes(tmp_path, monkeypatch, 23)
    children = count_forks(monkeypatch, fork_then(failure))
    assert split_writes(tmp_path, monkeypatch, 23, cpus) == expected
    assert len(children) == 2 * (cpus - 1)


def fork_failing_after(count):
    calls = []

    def fork():
        calls.append(None)
        if len(calls) > count:
            raise OSError("cannot start")
        return REAL_FORK()

    return fork


@pytest.mark.parametrize(
    "call, make_failure",
    [
        ("fork", lambda: failing_call),
        ("pipe", lambda: failing_call),
        ("fork", lambda: fork_failing_after(1)),
    ],
    ids=["fork", "pipe", "second_fork"],
)
def test_a_child_that_cannot_start_leaves_its_part_here(tmp_path, monkeypatch, call, make_failure):
    expected = serial_writes(tmp_path, monkeypatch, 23)
    monkeypatch.setattr(os, call, make_failure())
    assert split_writes(tmp_path, monkeypatch, 23, 3) == expected


CHILD_EXIT_SCRIPT = """
import atexit, os, sys
from patchmux import gap_analysis
from patchmux.gap_analysis import RecordSet

atexit.register(print, "exit handler ran")
gap_analysis._PART_ROWS = 2
gap_analysis._usable_cpus = lambda: 3
records = RecordSet([1.5] * 12, [True] * 12, 12, shot_index=range(12))
records.to_jsonl(sys.argv[1])
fork = os.fork

def failing_fork():
    pid = fork()
    if pid == 0:
        gap_analysis._IO_BLOCK = 0  # formatting in the child raises
    return pid

os.fork = failing_fork
records.to_jsonl(sys.argv[2])
print("written")
"""


def test_children_leave_without_running_the_rest_or_exit_handlers(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gap_analysis.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", CHILD_EXIT_SCRIPT, tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "written\nexit handler ran\n"
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.jsonl").read_text().count("\n") == 12
