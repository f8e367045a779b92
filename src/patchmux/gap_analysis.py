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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

UNDEFINED = math.nan

RECORD_FIELDS = {"gap", "correct", "attempts_consumed"}


class RecordFormatError(ValueError):
    """Malformed record stream; message carries the record number."""


class RecordSet:
    """Kept-shot records as columns, plus the total attempt count they came from.

    ``n_attempts`` counts every shot, including the ones discarded before
    producing a record, so A(0) = n_attempts / len(records). ``shot_index``,
    when known, is the attempt number of each kept shot.
    """

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
        if gaps.size and (not np.all(gaps >= 0.0) or not np.all(np.isfinite(gaps))):
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
        """
        gaps: list[float] = []
        correct: list[bool] = []
        consumed: list[int] = []
        with open(path, "r", encoding="utf-8") as fh:
            for rec_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RecordFormatError(f"record {rec_no}: invalid JSON: {exc}") from None
                if not isinstance(obj, dict):
                    raise RecordFormatError(f"record {rec_no}: expected an object")
                unknown = set(obj) - RECORD_FIELDS
                if unknown:
                    raise RecordFormatError(
                        f"record {rec_no}: unknown fields {sorted(unknown)}"
                    )
                if "gap" not in obj or "correct" not in obj:
                    raise RecordFormatError(
                        f"record {rec_no}: missing 'gap' or 'correct'"
                    )
                gap = obj["gap"]
                flag = obj["correct"]
                if not isinstance(gap, (int, float)) or isinstance(gap, bool):
                    raise RecordFormatError(f"record {rec_no}: gap must be a number")
                if not isinstance(flag, bool):
                    raise RecordFormatError(f"record {rec_no}: correct must be a boolean")
                if gap < 0 or math.isnan(gap) or math.isinf(gap):
                    raise RecordFormatError(f"record {rec_no}: gap {gap!r} out of range")
                gaps.append(float(gap))
                correct.append(flag)
                if "attempts_consumed" in obj:
                    ac = obj["attempts_consumed"]
                    if not isinstance(ac, int) or isinstance(ac, bool) or ac < 1:
                        raise RecordFormatError(
                            f"record {rec_no}: attempts_consumed must be a positive integer"
                        )
                    consumed.append(ac)
        if n_attempts is None:
            if consumed and len(consumed) == len(gaps):
                n_attempts = sum(consumed)
            else:
                n_attempts = max(1, len(gaps))
        return cls(
            np.array(gaps, dtype=np.float64),
            np.array(correct, dtype=bool),
            n_attempts,
        )

    @classmethod
    def from_csv(cls, path: str | Path, n_attempts: int | None = None) -> "RecordSet":
        """Read the CSV variant with header ``gap,correct``.

        The CSV form carries kept records only; without ``n_attempts`` the
        attempt total defaults to the record count.
        """
        gaps: list[float] = []
        correct: list[bool] = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header] != ["gap", "correct"]:
                raise RecordFormatError("expected CSV header 'gap,correct'")
            for rec_no, rowv in enumerate(reader, start=1):
                if not rowv or all(not c.strip() for c in rowv):
                    continue
                if len(rowv) != 2:
                    raise RecordFormatError(f"record {rec_no}: expected 2 columns")
                try:
                    gap = float(rowv[0])
                except ValueError:
                    raise RecordFormatError(
                        f"record {rec_no}: bad gap {rowv[0]!r}"
                    ) from None
                flag_text = rowv[1].strip().lower()
                if flag_text in ("true", "1"):
                    flag = True
                elif flag_text in ("false", "0"):
                    flag = False
                else:
                    raise RecordFormatError(f"record {rec_no}: bad flag {rowv[1]!r}")
                if gap < 0 or math.isnan(gap) or math.isinf(gap):
                    raise RecordFormatError(f"record {rec_no}: gap {gap!r} out of range")
                gaps.append(gap)
                correct.append(flag)
        if n_attempts is None:
            n_attempts = max(1, len(gaps))
        return cls(
            np.array(gaps, dtype=np.float64),
            np.array(correct, dtype=bool),
            n_attempts,
        )


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
    with np.errstate(divide="ignore", invalid="ignore"):
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


_CSV_BLOCK = 1 << 16

CURVE_CSV_HEADER = ["G", "kept_correct", "kept_error", "attempts", "logical_error", "extrapolated"]


def _csv_num(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    return format(value, ".10g")


def write_curve_csv(curve: SweepCurve, path: str | Path) -> None:
    """Emit the plot-data CSV; extrapolated rows carry the fitted error count
    and are flagged in the last column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_CSV_HEADER)
        for start in range(0, len(curve.points), _CSV_BLOCK):  # bounds the Python copies
            p = curve.points[start : start + _CSV_BLOCK]
            numbers = [p[name].tolist() for name in CURVE_DTYPE.names[:-1]]
            writer.writerows(
                [*map(_csv_num, row), "true" if flag else "false"]
                for *row, flag in zip(*numbers, p.extrapolated.tolist())
            )
