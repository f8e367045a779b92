import csv
import json
import math

import numpy as np
import pytest

from patchmux.gap_analysis import (
    CurvePoint,
    RecordFormatError,
    RecordSet,
    ShotRecord,
    SweepCurve,
    cumulative_fractions,
    default_thresholds,
    extrapolate_tail,
    find_crossing,
    sweep,
    write_curve_csv,
)

THREE_RECORDS = RecordSet.from_records(
    [ShotRecord(10.0, True), ShotRecord(5.0, False), ShotRecord(20.0, True)],
    n_attempts=6,
)


def brute_force_counts(records, threshold):
    kc = sum(1 for r in records if r.correct and r.gap >= threshold)
    ke = sum(1 for r in records if not r.correct and r.gap >= threshold)
    return kc, ke


def test_shot_record_validation():
    with pytest.raises(ValueError):
        ShotRecord(-1.0, True)
    with pytest.raises(ValueError):
        ShotRecord(math.inf, True)


def test_record_set_validation():
    with pytest.raises(ValueError):
        RecordSet(np.array([1.0, 2.0]), np.array([True, False]), n_attempts=1)
    with pytest.raises(ValueError):
        RecordSet(np.array([]), np.array([], dtype=bool), n_attempts=0)
    with pytest.raises(ValueError):
        RecordSet(np.array([-3.0]), np.array([True]), n_attempts=5)


def test_three_record_example():
    curve = sweep(THREE_RECORDS, [0.0, 7.0])
    at0, at7 = curve.points
    assert (at0.kept_correct, at0.kept_error) == (2, 1)
    assert at0.attempts == 2.0
    assert at0.logical_error == pytest.approx(1 / 3)
    assert (at7.kept_correct, at7.kept_error) == (2, 0)
    assert at7.attempts == 3.0
    assert at7.logical_error == 0.0


def test_zero_threshold_keeps_everything():
    curve = sweep(THREE_RECORDS, [0.0])
    point = curve.points[0]
    assert point.kept_correct + point.kept_error == len(THREE_RECORDS)
    assert point.attempts == THREE_RECORDS.n_attempts / len(THREE_RECORDS)


def test_threshold_beyond_max_gap_is_undefined_not_zero():
    curve = sweep(THREE_RECORDS, [0.0, 25.0])
    tail = curve.points[-1]
    assert tail.kept_correct == 0 and tail.kept_error == 0
    assert math.isnan(tail.attempts)
    assert math.isnan(tail.logical_error)


def test_ties_at_threshold_are_kept():
    curve = sweep(THREE_RECORDS, [10.0])
    assert curve.points[0].kept_correct == 2  # the gap-10 record survives G=10


def test_default_thresholds_are_zero_plus_observed():
    assert default_thresholds(THREE_RECORDS) == (0.0, 5.0, 10.0, 20.0)
    other = RecordSet.from_records([ShotRecord(0.0, True), ShotRecord(7.5, False)], 2)
    assert default_thresholds(THREE_RECORDS, other) == (0.0, 5.0, 7.5, 10.0, 20.0)


def test_empty_record_set_sweeps_to_undefined():
    empty = RecordSet.from_records([], n_attempts=1)
    curve = sweep(empty)
    assert len(curve.points) == 1
    assert math.isnan(curve.points[0].logical_error)


def test_unsorted_thresholds_rejected():
    with pytest.raises(ValueError):
        sweep(THREE_RECORDS, [5.0, 1.0])
    with pytest.raises(ValueError):
        sweep(THREE_RECORDS, [1.0, 1.0])


def test_sweep_matches_brute_force_recount():
    rng = np.random.default_rng(67)
    for _ in range(300):
        n = int(rng.integers(1, 21))
        records = [
            ShotRecord(float(rng.integers(0, 40)), bool(rng.integers(0, 2)))
            for _ in range(n)
        ]
        rs = RecordSet.from_records(records, n_attempts=n + int(rng.integers(0, 30)))
        curve = sweep(rs)
        prev_attempts = 0.0
        prev_kept = math.inf
        for point in curve.points:
            kc, ke = brute_force_counts(records, point.threshold)
            assert (point.kept_correct, point.kept_error) == (kc, ke)
            kept = kc + ke
            if kept:
                assert point.attempts == rs.n_attempts / kept
                assert point.attempts >= prev_attempts
                prev_attempts = point.attempts
            else:
                assert math.isnan(point.logical_error)
            assert kept <= prev_kept
            prev_kept = kept


def test_cumulative_fractions_three_record_example():
    curves = cumulative_fractions(THREE_RECORDS, [0.0, 7.0])
    assert curves.correct == (2 / 6, 2 / 6)
    assert curves.error == (1 / 6, 0.0)


def test_cumulative_fractions_all_correct():
    rs = RecordSet.from_records([ShotRecord(3.0, True), ShotRecord(9.0, True)], 10)
    curves = cumulative_fractions(rs)
    assert all(e == 0.0 for e in curves.error)
    assert curves.correct[0] == 2 / 10


def test_fraction_normalization_identity():
    rng = np.random.default_rng(71)
    records = [
        ShotRecord(float(rng.random() * 30), bool(rng.integers(0, 2))) for _ in range(50)
    ]
    rs = RecordSet.from_records(records, n_attempts=80)
    curve = sweep(rs)
    curves = cumulative_fractions(rs)
    for point, c_frac, e_frac in zip(curve.points, curves.correct, curves.error):
        kept = point.kept_correct + point.kept_error
        assert c_frac + e_frac == pytest.approx(kept / rs.n_attempts, abs=1e-12)


def synthetic_curve(thresholds, p_l_values):
    points = tuple(
        CurvePoint(
            threshold=g,
            kept_correct=100,
            kept_error=10,
            attempts=1.0,
            logical_error=p,
        )
        for g, p in zip(thresholds, p_l_values)
    )
    return SweepCurve(points=points, n_attempts=1000)


def test_crossing_of_linear_curves_by_interpolation():
    # p_a(G) = 0.2 - 0.002 G meets p_b = 0.1 at exactly G = 50
    grid = [0.0, 20.0, 48.0, 52.0, 80.0]
    curve_a = synthetic_curve(grid, [0.2 - 0.002 * g for g in grid])
    curve_b = synthetic_curve(grid, [0.1] * len(grid))
    crossing = find_crossing(curve_a, curve_b)
    assert crossing is not None
    assert crossing.threshold == pytest.approx(50.0, abs=1e-9)
    assert crossing.bracket == (48.0, 52.0)


def test_crossing_at_exact_grid_point():
    grid = [0.0, 25.0, 50.0, 75.0]
    curve_a = synthetic_curve(grid, [0.2 - 0.002 * g for g in grid])
    curve_b = synthetic_curve(grid, [0.1] * len(grid))
    crossing = find_crossing(curve_a, curve_b)
    assert crossing is not None
    assert crossing.threshold == 50.0


def test_identical_curves_have_no_crossing():
    grid = [0.0, 10.0, 20.0]
    curve = synthetic_curve(grid, [0.1, 0.1, 0.1])
    assert find_crossing(curve, curve) is None


def test_touch_without_flip_is_not_a_crossing():
    grid = [0.0, 10.0, 20.0]
    curve_a = synthetic_curve(grid, [0.2, 0.1, 0.2])
    curve_b = synthetic_curve(grid, [0.1] * 3)
    assert find_crossing(curve_a, curve_b) is None


def test_undefined_points_break_brackets():
    grid = [0.0, 10.0, 20.0]
    curve_a = synthetic_curve(grid, [0.2, math.nan, 0.05])
    curve_b = synthetic_curve(grid, [0.1] * 3)
    assert find_crossing(curve_a, curve_b) is None


def test_crossing_requires_shared_grid():
    a = synthetic_curve([0.0, 1.0], [0.2, 0.1])
    b = synthetic_curve([0.0, 2.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        find_crossing(a, b)


def test_tail_fit_recovers_exponential_rate():
    rng = np.random.default_rng(73)
    rate = 0.23
    n = 100_000
    gaps = rng.exponential(1 / rate, size=n)
    rs = RecordSet(gaps, np.zeros(n, dtype=bool), n_attempts=n)
    grid = [float(g) for g in np.linspace(0.0, 25.0, 60)]
    curve = sweep(rs, grid)
    fit = extrapolate_tail(curve, (0.0, 12.0))
    assert fit is not None
    assert fit.rate == pytest.approx(rate, rel=0.02)
    assert fit.points  # extends beyond the window
    for tp in fit.points:
        assert tp.error_low <= tp.error_fit <= tp.error_high


def test_tail_fit_needs_three_error_points():
    # a single error record gives only two error-bearing grid points
    rs = RecordSet.from_records(
        [ShotRecord(2.0, False), ShotRecord(5.0, True)], n_attempts=4
    )
    assert extrapolate_tail(sweep(rs), (0.0, 5.0)) is None
    # no error records at all
    all_correct = RecordSet.from_records(
        [ShotRecord(float(g), True) for g in range(6)], n_attempts=10
    )
    assert extrapolate_tail(sweep(all_correct), (0.0, 5.0)) is None


def test_tail_fit_flat_when_counts_constant():
    points = tuple(
        CurvePoint(threshold=float(g), kept_correct=50, kept_error=8, attempts=2.0,
                   logical_error=8 / 58)
        for g in range(5)
    )
    extended = points + (
        CurvePoint(threshold=10.0, kept_correct=40, kept_error=0, attempts=25.0,
                   logical_error=0.0),
    )
    curve = SweepCurve(points=extended, n_attempts=1000)
    fit = extrapolate_tail(curve, (0.0, 4.0))
    assert fit is not None
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.points[0].error_fit == pytest.approx(8.0, rel=1e-9)


def test_with_tail_merges_fit_into_curve():
    rng = np.random.default_rng(79)
    gaps = rng.exponential(5.0, size=20_000)
    rs = RecordSet(gaps, np.zeros(20_000, dtype=bool), n_attempts=20_000)
    grid = [float(g) for g in range(0, 40, 2)]
    curve = sweep(rs, grid)
    fit = extrapolate_tail(curve, (0.0, 20.0))
    merged = curve.with_tail(fit)
    assert merged.extrapolated_from == 20.0
    assert merged.thresholds == curve.thresholds
    for point in merged.points:
        assert point.extrapolated == (point.threshold > 20.0)


def test_parallel_threshold_ranges_merge_to_sequential_sweep():
    # disjoint grid halves swept separately concatenate to the full sweep
    grid = default_thresholds(THREE_RECORDS)
    full = sweep(THREE_RECORDS, grid)
    split = 2
    left = sweep(THREE_RECORDS, grid[:split])
    right = sweep(THREE_RECORDS, grid[split:])
    assert left.points + right.points == full.points


def test_curve_csv_format(tmp_path):
    curve = sweep(THREE_RECORDS, [0.0, 7.0, 25.0])
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["G", "kept_correct", "kept_error", "attempts", "logical_error", "extrapolated"]
    assert rows[1] == ["0", "2", "1", "2", "0.3333333333", "false"]
    assert rows[3][3] == "nan"  # undefined attempts rendered as text sentinel


def test_jsonl_ingestion_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"gap": 1.0, "correct": true}\n{"gap": "x", "correct": true}\n')
    with pytest.raises(RecordFormatError) as err:
        RecordSet.from_jsonl(path)
    assert "record 2" in str(err.value)

    path.write_text('{"gap": 1.0, "correct": true, "extra": 1}\n')
    with pytest.raises(RecordFormatError) as err:
        RecordSet.from_jsonl(path)
    assert "unknown fields" in str(err.value)

    path.write_text('{"gap": 1.0}\n')
    with pytest.raises(RecordFormatError):
        RecordSet.from_jsonl(path)

    path.write_text('{"gap": 1.0, "correct": 1}\n')
    with pytest.raises(RecordFormatError):
        RecordSet.from_jsonl(path)


def test_jsonl_ingestion_attempt_totals(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = [
        json.dumps({"gap": 3.0, "correct": True, "attempts_consumed": 4}),
        json.dumps({"gap": 1.0, "correct": False, "attempts_consumed": 2}),
    ]
    path.write_text("\n".join(lines) + "\n")
    rs = RecordSet.from_jsonl(path)
    assert rs.n_attempts == 6
    assert RecordSet.from_jsonl(path, n_attempts=10).n_attempts == 10


def test_csv_ingestion(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("gap,correct\n3.5,true\n0,false\n7,1\n")
    rs = RecordSet.from_csv(path)
    assert len(rs) == 3
    assert rs.n_attempts == 3
    assert list(rs.correct) == [True, False, True]

    path.write_text("delta,correct\n1,true\n")
    with pytest.raises(RecordFormatError):
        RecordSet.from_csv(path)

    path.write_text("gap,correct\n1,maybe\n")
    with pytest.raises(RecordFormatError) as err:
        RecordSet.from_csv(path)
    assert "record 1" in str(err.value)
