"""Record and curve text I/O is read and written in blocks of lines or rows.

Every test runs at block sizes 1, 3 and the default, so records sit on both
sides of block boundaries. The per-line reference code below is the format
as first written (one ``json.dumps``/``json.loads`` per record, one
``csv.writer`` row per curve point); the block code must match it exactly.
"""

import csv
import json
import math

import numpy as np
import pytest

from patchmux import gap_analysis
from patchmux.gap_analysis import (
    CURVE_CSV_HEADER,
    RecordFormatError,
    RecordSet,
    SweepCurve,
    curve_rows,
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


def reference_curve_csv(curve, path) -> None:
    def num(value):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        return format(value, ".10g")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_CSV_HEADER)
        for row in curve.points.tolist():
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


@pytest.mark.parametrize(
    "bad, message",
    [
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
    ],
)
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


@pytest.mark.parametrize(
    "bad, message",
    [
        ("2,yes", r"^record 7: bad flag 'yes'$"),
        ("abc,true", r"^record 7: bad gap 'abc'$"),
        ("1,true,3", r"^record 7: expected 2 columns$"),
        ("nan,true", r"^record 7: gap nan out of range$"),
        ("inf,false", r"^record 7: gap inf out of range$"),
        ("-1,false", r"^record 7: gap -1.0 out of range$"),
    ],
)
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
    kept_error = [2.0, 1.0, 1.0, 1e-320, 0.0, 0.0]
    rows = curve_rows(thresholds, kept_correct, kept_error, n_attempts=9)
    rows.extrapolated[3] = True
    curve = SweepCurve(points=rows, n_attempts=9)
    assert math.isinf(curve.points.attempts[3]) and math.isnan(curve.points.attempts[4])
    path, reference = tmp_path / "curve.csv", tmp_path / "reference.csv"
    write_curve_csv(curve, path)
    reference_curve_csv(curve, reference)
    assert path.read_bytes() == reference.read_bytes()
    header = b"G,kept_correct,kept_error,attempts,logical_error,extrapolated\r\n"
    assert path.read_bytes().startswith(header + b"-0,")


def test_empty_curve_writes_the_header_only(tmp_path, block):
    curve = SweepCurve(points=curve_rows([], [], [], n_attempts=1), n_attempts=1)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert path.read_bytes() == b"G,kept_correct,kept_error,attempts,logical_error,extrapolated\r\n"
