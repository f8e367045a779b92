import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from patchmux import gap_analysis
from patchmux.gap_analysis import (
    Crossing,
    RecordFormatError,
    RecordSet,
    SweepCurve,
    TailExtrapolation,
    default_thresholds,
    extrapolate_tail,
    find_crossing,
    sweep,
    write_curve_csv,
)

THREE_RECORDS = RecordSet([10.0, 5.0, 20.0], [True, False, True], n_attempts=6)


def record_set(records, n_attempts):
    """A RecordSet from (gap, correct) pairs."""
    gaps = np.array([g for g, _ in records], dtype=np.float64)
    correct = np.array([c for _, c in records], dtype=bool)
    return RecordSet(gaps, correct, n_attempts)


def brute_force_counts(records, threshold):
    kc = sum(1 for g, c in records if c and g >= threshold)
    ke = sum(1 for g, c in records if not c and g >= threshold)
    return kc, ke


def test_record_set_validation():
    with pytest.raises(ValueError):
        RecordSet(np.array([1.0, 2.0]), np.array([True, False]), n_attempts=1)
    with pytest.raises(ValueError):
        RecordSet(np.array([]), np.array([], dtype=bool), n_attempts=0)
    for bad_gap in (-3.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            RecordSet(np.array([bad_gap]), np.array([True]), n_attempts=5)
    with pytest.raises(ValueError):
        RecordSet(np.array([1.0, 2.0]), np.array([True]), n_attempts=5)


def test_record_set_shot_index_validation():
    gaps, correct = [1.0, 2.0, 3.0], [True, False, True]
    rs = RecordSet(gaps, correct, n_attempts=5, shot_index=[0, 2, 4])
    assert rs.shot_index.tolist() == [0, 2, 4]
    assert RecordSet(gaps, correct, n_attempts=5).shot_index is None
    assert len(RecordSet([], [], n_attempts=1, shot_index=[])) == 0
    for bad in ([0, 2], [0, 2, 2], [2, 1, 3], [-1, 2, 4], [0, 2, 5]):
        with pytest.raises(ValueError):
            RecordSet(gaps, correct, n_attempts=5, shot_index=bad)


def test_record_set_count_validation():
    rs = RecordSet([1.0, 2.0], [True, False], n_attempts=5, count=[2, 3])
    assert len(rs) == 5 and rs.count.dtype == np.int64
    assert len(RecordSet([], [], n_attempts=1, count=[])) == 0
    for count in ([0, 3], [2, -1], [2], [[2, 3]]):  # below 1, or not one per row
        with pytest.raises(ValueError):
            RecordSet([1.0, 2.0], [True, False], n_attempts=10, count=count)
    with pytest.raises(ValueError, match="6 records cannot come from 5 attempts"):
        RecordSet([1.0, 2.0], [True, False], n_attempts=5, count=[3, 3])
    with pytest.raises(ValueError):  # rows of counted records have no shot
        RecordSet([1.0, 2.0], [True, False], n_attempts=5, count=[1, 1], shot_index=[0, 1])


def test_three_record_example():
    curve = sweep(THREE_RECORDS, [0.0, 7.0])
    at0, at7 = curve.rows()
    assert (at0.kept_correct, at0.kept_error) == (2, 1)
    assert at0.attempts == 2.0
    assert at0.logical_error == pytest.approx(1 / 3)
    assert (at7.kept_correct, at7.kept_error) == (2, 0)
    assert at7.attempts == 3.0
    assert at7.logical_error == 0.0


def test_zero_threshold_keeps_everything():
    curve = sweep(THREE_RECORDS, [0.0])
    point = curve.rows()[0]
    assert point.kept_correct + point.kept_error == len(THREE_RECORDS)
    assert point.attempts == THREE_RECORDS.n_attempts / len(THREE_RECORDS)


def test_threshold_beyond_max_gap_is_undefined_not_zero():
    curve = sweep(THREE_RECORDS, [0.0, 25.0])
    tail = curve.rows()[-1]
    assert tail.kept_correct == 0 and tail.kept_error == 0
    assert math.isnan(tail.attempts)
    assert math.isnan(tail.logical_error)


def test_ties_at_threshold_are_kept():
    curve = sweep(THREE_RECORDS, [10.0])
    assert curve.rows()[0].kept_correct == 2  # the gap-10 record survives G=10


def test_default_thresholds_are_zero_plus_observed():
    assert default_thresholds(THREE_RECORDS).tolist() == [0.0, 5.0, 10.0, 20.0]
    other = RecordSet([0.0, 7.5], [True, False], 2)
    assert default_thresholds(THREE_RECORDS, other).tolist() == [0.0, 5.0, 7.5, 10.0, 20.0]


def test_empty_record_set_sweeps_to_undefined():
    empty = RecordSet([], [], n_attempts=1)
    curve = sweep(empty)
    assert len(curve.rows()) == 1
    assert math.isnan(curve.rows()[0].logical_error)


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
            (float(rng.integers(0, 40)), bool(rng.integers(0, 2))) for _ in range(n)
        ]
        rs = record_set(records, n_attempts=n + int(rng.integers(0, 30)))
        curve = sweep(rs)
        # the same records as counted rows, in shuffled order, sweep the same
        pairs, count = np.unique(records, axis=0, return_counts=True)
        order = rng.permutation(count.size)
        counted = RecordSet(pairs[order, 0], pairs[order, 1] > 0, rs.n_attempts, count=count[order])
        assert len(counted) == n
        counted_curve = sweep(counted, curve.threshold)
        assert counted_curve.kept_correct.tolist() == curve.kept_correct.tolist()
        assert counted_curve.kept_error.tolist() == curve.kept_error.tolist()
        prev_attempts = 0.0
        prev_kept = math.inf
        for point in curve.rows():
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


def synthetic_curve(thresholds, p_l_values):
    """1000 kept records per threshold, round(1000 p) of them errors; none where p is NaN."""
    kept_error = [0 if math.isnan(p) else round(1000 * p) for p in p_l_values]
    kept_correct = [0 if math.isnan(p) else 1000 - e for p, e in zip(p_l_values, kept_error)]
    return SweepCurve(thresholds, kept_correct, kept_error, n_attempts=10_000)


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


def reference_crossing(curve_a, curve_b):
    """The grid walk find_crossing replaced, over Python lists of the grid."""
    ts = curve_a.threshold.tolist()
    diffs = (curve_a.rows().logical_error - curve_b.rows().logical_error).tolist()

    def sign(x: float) -> int:
        return 0 if x == 0 else (1 if x > 0 else -1)

    pending_zero = None  # first threshold of a touch run
    prev_sign = None  # last nonzero sign on an unbroken run
    prev_idx = None
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
            pending_zero = None
        prev_sign = s
        prev_idx = i
    return None


def random_count_curve(rng, grid, runs):
    """Counts in 0..2, so logical errors tie often and are NaN where nothing
    is kept; ``runs`` copies a random earlier row forward, making long runs
    of equal differences that can reach across blocks."""
    counts = rng.integers(0, 3, size=(2, grid.size)).astype(float)
    for _ in range(runs):
        start = int(rng.integers(0, grid.size))
        stop = min(grid.size, start + int(rng.integers(1, 40)))
        counts[:, start:stop] = counts[:, start : start + 1]
    return SweepCurve(grid, counts[0], counts[1], n_attempts=10)


@pytest.mark.parametrize("block", [1, 2, 7, 4096], ids=lambda b: f"block{b}")
def test_crossing_matches_the_grid_walk_on_random_curves(monkeypatch, block):
    monkeypatch.setattr(gap_analysis, "_IO_BLOCK", block)
    rng = np.random.default_rng(block)
    found = {"interpolated": 0, "tie": 0, "none": 0}
    for trial in range(300):
        size = int(rng.integers(1, 40 if trial % 2 else 200))
        grid = np.cumsum(rng.random(size) + 0.01)
        runs = int(rng.integers(0, 8))
        a = random_count_curve(rng, grid, runs)
        b = random_count_curve(rng, grid, runs)
        if trial % 3 == 0:  # equal rows, so zero runs
            same = rng.random(size) < 0.7
            b = SweepCurve(grid, a.kept_correct, np.where(same, a.kept_error, b.kept_error), 10)
        expected = reference_crossing(a, b)
        got = find_crossing(a, b)
        assert got == expected
        if expected is None:
            found["none"] += 1
        else:
            found["tie" if expected.bracket[0] == expected.bracket[1] else "interpolated"] += 1
    assert min(found.values()) > 20, found


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
    beyond = curve.rows(tail=fit)
    beyond = beyond[beyond.extrapolated]
    assert len(beyond)  # extends beyond the window
    assert np.all(beyond.threshold > fit.anchor_threshold)


def test_tail_fit_needs_three_error_points():
    # a single error record gives only two error-bearing grid points
    rs = RecordSet([2.0, 5.0], [False, True], n_attempts=4)
    assert extrapolate_tail(sweep(rs), (0.0, 5.0)) is None
    # no error records at all
    all_correct = RecordSet([float(g) for g in range(6)], [True] * 6, n_attempts=10)
    assert extrapolate_tail(sweep(all_correct), (0.0, 5.0)) is None


def test_tail_fit_flat_when_counts_constant():
    curve = SweepCurve(
        [0.0, 1.0, 2.0, 3.0, 4.0, 10.0], [50] * 5 + [40], [8] * 5 + [0], n_attempts=1000
    )
    fit = extrapolate_tail(curve, (0.0, 4.0))
    assert fit is not None
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    extended = curve.rows(tail=fit)[-1]
    assert extended.extrapolated
    assert extended.kept_error == pytest.approx(8.0, rel=1e-9)
    assert extended.attempts == pytest.approx(1000 / 48, rel=1e-9)


def test_rows_with_a_tail_read_the_fit_past_its_anchor():
    rng = np.random.default_rng(79)
    gaps = rng.exponential(5.0, size=20_000)
    rs = RecordSet(gaps, np.zeros(20_000, dtype=bool), n_attempts=20_000)
    grid = [float(g) for g in range(0, 40, 2)]
    curve = sweep(rs, grid)
    fit = extrapolate_tail(curve, (0.0, 20.0))
    assert fit.anchor_threshold == 20.0
    observed_error = curve.kept_error.copy()
    rows, observed = curve.rows(tail=fit), curve.rows()
    # the fit changes the rows, not the curve's own columns
    assert np.array_equal(curve.kept_error, observed_error)
    assert np.array_equal(rows.threshold, observed.threshold)
    assert np.array_equal(rows.extrapolated, rows.threshold > 20.0)
    assert np.array_equal(rows[:11], observed[:11])
    beyond = rows[rows.extrapolated]
    fitted = [
        math.exp(fit.intercept + fit.slope * 20.0 + fit.slope * (g - 20.0))
        for g in beyond.threshold
    ]
    assert beyond.kept_error.tolist() == fitted
    assert np.array_equal(beyond.kept_correct, observed.kept_correct[-len(beyond):])
    # a block of rows reads the same fit as the whole curve
    assert np.array_equal(curve.rows(9, 14, fit), rows[9:14])


def test_fitted_rows_with_no_observed_count_stay_defined():
    # a fitted error count far below one must still give finite rows
    curve = SweepCurve([50.0], [0.0], [0.0], n_attempts=46_000)
    fit = TailExtrapolation(
        slope=0.0, slope_stderr=0.0, intercept=math.log(2e-104), anchor_threshold=0.0
    )
    rows = curve.rows(tail=fit)
    assert rows.extrapolated[0] and rows.kept_error[0] == pytest.approx(2e-104, rel=1e-12)
    assert rows.attempts[0] == pytest.approx(2.3e108, rel=1e-12)
    assert rows.logical_error[0] == 1.0
    # only an exact zero leaves the row undefined: e**-800 underflows to it
    rows = curve.rows(tail=TailExtrapolation(0.0, 0.0, -800.0, 0.0))
    assert rows.extrapolated[0] and rows.kept_error[0] == 0.0
    assert math.isnan(rows.attempts[0]) and math.isnan(rows.logical_error[0])


def test_curve_csv_writes_the_merged_tail(tmp_path):
    rs = RecordSet([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 9.0], [False] * 6 + [True], n_attempts=10)
    curve = sweep(rs, [0.0, 1.0, 2.0, 4.0, 12.0])
    fit = extrapolate_tail(curve, (0.0, 2.0))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path, fit)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["extrapolated"] for r in rows] == ["false"] * 3 + ["true"] * 2
    assert rows[3]["kept_correct"] == "1" and rows[4]["kept_correct"] == "0"
    assert rows[4]["logical_error"] == "1"


def test_parallel_threshold_ranges_merge_to_sequential_sweep():
    # disjoint grid halves swept separately concatenate to the full sweep
    grid = default_thresholds(THREE_RECORDS)
    full = sweep(THREE_RECORDS, grid)
    split = 2
    left = sweep(THREE_RECORDS, grid[:split])
    right = sweep(THREE_RECORDS, grid[split:])
    assert np.array_equal(np.concatenate([left.rows(), right.rows()]), full.rows())


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


def test_curve_path_keeps_each_column_once(tmp_path):
    # default grid -> sweep -> tail fit -> curve CSV over 2e5 continuous gaps
    # (one grid row per record) peaked at 168 traced bytes per grid row when
    # the sweep, the tail and the merge each built a 41-byte row array; the
    # three count columns and the fit's least-squares workspace stay well
    # under half of that
    n = 200_000
    rng = np.random.default_rng(2024)
    correct = rng.random(n) >= 0.05
    gaps = np.where(correct, rng.exponential(20.0, n), rng.exponential(4.0, n))
    records = RecordSet(gaps, correct, n_attempts=2 * n)
    tracemalloc.start()
    try:
        grid = default_thresholds(records)
        curve = sweep(records, grid)
        tail = extrapolate_tail(curve, (2, 20))
        write_curve_csv(curve, tmp_path / "curve.csv", tail)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.size == n + 1
    assert peak / grid.size <= 84
