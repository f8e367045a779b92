"""Gap-threshold acceptance sweeps over per-shot records.

Each kept shot carries a confidence gap (a non-negative scalar from the
downstream decoder, consumed here as data) and a correct/error flag. A
sweep at threshold G keeps the records with gap >= G and reports the
expected attempts per kept shot A(G) = n_attempts / kept and the error
fraction among kept shots p_L(G). Both are NaN-sentinelled when nothing
survives a threshold; an empty kept set never reports a zero error rate.
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

SOURCE_INGESTED = "ingested"
SOURCE_SYNTHETIC = "synthetic"

RECORD_FIELDS = {"gap", "correct", "attempts_consumed"}


class RecordFormatError(ValueError):
    """Malformed record stream; message carries the record number."""


def is_defined(value: float) -> bool:
    return not math.isnan(value)


@dataclass(frozen=True)
class ShotRecord:
    """One kept shot: its confidence gap and whether the output was correct."""

    gap: float
    correct: bool
    source: str = SOURCE_SYNTHETIC

    def __post_init__(self) -> None:
        if not (self.gap >= 0.0) or math.isinf(self.gap):
            raise ValueError(f"gap must be finite and >= 0, got {self.gap!r}")


class RecordSet:
    """Kept-shot records plus the total attempt count they came from.

    ``n_attempts`` counts every shot, including the ones discarded before
    producing a record, so A(0) = n_attempts / len(records).
    """

    def __init__(
        self,
        gaps: np.ndarray,
        correct: np.ndarray,
        n_attempts: int,
        source: str = SOURCE_SYNTHETIC,
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
        self.gaps = gaps
        self.correct = correct
        self.n_attempts = int(n_attempts)
        self.source = source

    def __len__(self) -> int:
        return int(self.gaps.size)

    @classmethod
    def from_records(
        cls,
        records: Sequence[ShotRecord],
        n_attempts: int | None = None,
        source: str | None = None,
    ) -> "RecordSet":
        gaps = np.array([r.gap for r in records], dtype=np.float64)
        correct = np.array([r.correct for r in records], dtype=bool)
        if n_attempts is None:
            n_attempts = max(1, len(records))
        if source is None:
            source = records[0].source if records else SOURCE_SYNTHETIC
        return cls(gaps, correct, n_attempts, source)

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
            SOURCE_INGESTED,
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
            SOURCE_INGESTED,
        )


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    kept_correct: float  # integer count, or a fitted estimate on extrapolated points
    kept_error: float
    attempts: float  # NaN when nothing is kept
    logical_error: float  # NaN when nothing is kept
    extrapolated: bool = False


@dataclass(frozen=True)
class SweepCurve:
    points: tuple[CurvePoint, ...]
    n_attempts: int
    extrapolated_from: float | None = None

    def __post_init__(self) -> None:
        ts = self.thresholds
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(p.threshold for p in self.points)

    def with_tail(self, tail: "TailExtrapolation") -> "SweepCurve":
        """Replace the points beyond the fit anchor by the fitted extension."""
        observed = tuple(p for p in self.points if p.threshold <= tail.anchor_threshold)
        fitted = tuple(
            CurvePoint(
                threshold=tp.threshold,
                kept_correct=tp.kept_correct,
                kept_error=tp.error_fit,
                attempts=tp.attempts,
                logical_error=tp.logical_error,
                extrapolated=True,
            )
            for tp in tail.points
        )
        return SweepCurve(
            points=observed + fitted,
            n_attempts=self.n_attempts,
            extrapolated_from=tail.anchor_threshold,
        )


def default_thresholds(*record_sets: RecordSet) -> tuple[float, ...]:
    """Zero plus every distinct gap of the record sets: the exact step positions."""
    values = np.unique(np.concatenate([[0.0], *(rs.gaps for rs in record_sets)]))
    return tuple((values + 0.0).tolist())  # + 0.0 turns a -0.0 gap into 0.0


def sweep(record_set: RecordSet, thresholds: Sequence[float] | None = None) -> SweepCurve:
    """Exact counts of surviving correct/error records at each threshold."""
    if thresholds is None:
        ts = default_thresholds(record_set)
    else:
        ts = tuple(float(t) for t in thresholds)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("thresholds must be sorted strictly ascending")
    correct_gaps = np.sort(record_set.gaps[record_set.correct])
    error_gaps = np.sort(record_set.gaps[~record_set.correct])
    points = []
    for g in ts:
        # gap >= G keeps the record; ties at the threshold are kept
        kc = correct_gaps.size - np.searchsorted(correct_gaps, g, side="left")
        ke = error_gaps.size - np.searchsorted(error_gaps, g, side="left")
        kept = int(kc + ke)
        if kept:
            attempts = record_set.n_attempts / kept
            logical_error = float(ke / kept)
        else:
            attempts = UNDEFINED
            logical_error = UNDEFINED
        points.append(
            CurvePoint(
                threshold=g,
                kept_correct=int(kc),
                kept_error=int(ke),
                attempts=attempts,
                logical_error=logical_error,
            )
        )
    return SweepCurve(points=tuple(points), n_attempts=record_set.n_attempts)


@dataclass(frozen=True)
class FractionCurves:
    """Surviving correct/error fractions of all attempts, per threshold."""

    thresholds: tuple[float, ...]
    correct: tuple[float, ...]
    error: tuple[float, ...]


def cumulative_fractions(
    record_set: RecordSet, thresholds: Sequence[float] | None = None
) -> FractionCurves:
    curve = sweep(record_set, thresholds)
    n = record_set.n_attempts
    return FractionCurves(
        thresholds=curve.thresholds,
        correct=tuple(p.kept_correct / n for p in curve.points),
        error=tuple(p.kept_error / n for p in curve.points),
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
    if curve_a.thresholds != curve_b.thresholds:
        raise ValueError("curves must share one threshold grid")
    ts = curve_a.thresholds
    diffs = [
        pa.logical_error - pb.logical_error
        for pa, pb in zip(curve_a.points, curve_b.points)
    ]

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


@dataclass(frozen=True)
class TailPoint:
    threshold: float
    kept_correct: float
    error_fit: float
    error_low: float
    error_high: float
    attempts: float
    logical_error: float


@dataclass(frozen=True)
class TailExtrapolation:
    """Log-linear extension of the error-survival counts.

    The decay rate and its band come from this fit alone; they are an
    estimate produced by the sweep tooling, not an observed count.
    """

    slope: float
    slope_stderr: float
    intercept: float
    anchor_threshold: float
    fit_thresholds: tuple[float, ...]
    points: tuple[TailPoint, ...]

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
    fit_pts = [
        p
        for p in curve.points
        if lo <= p.threshold <= hi and not p.extrapolated and p.kept_error >= 1
    ]
    if len(fit_pts) < 3:
        return None
    xs = np.array([p.threshold for p in fit_pts])
    ys = np.log(np.array([p.kept_error for p in fit_pts], dtype=np.float64))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (intercept + slope * xs)
    dof = len(fit_pts) - 2
    denom = float(np.sum((xs - xs.mean()) ** 2))
    if dof > 0 and denom > 0:
        stderr = math.sqrt(float(np.sum(resid**2)) / dof / denom)
    else:
        stderr = 0.0

    anchor = float(xs[-1])
    anchor_log = intercept + slope * anchor
    points = []
    for p in curve.points:
        if p.threshold <= anchor:
            continue
        dg = p.threshold - anchor
        fit = math.exp(anchor_log + slope * dg)
        low = math.exp(anchor_log + (slope - stderr) * dg)
        high = math.exp(anchor_log + (slope + stderr) * dg)
        kept = p.kept_correct + fit
        points.append(
            TailPoint(
                threshold=p.threshold,
                kept_correct=p.kept_correct,
                error_fit=fit,
                error_low=min(low, high),
                error_high=max(low, high),
                attempts=curve.n_attempts / kept if kept > 0 else UNDEFINED,
                logical_error=fit / kept if kept > 0 else UNDEFINED,
            )
        )
    return TailExtrapolation(
        slope=float(slope),
        slope_stderr=float(stderr),
        intercept=float(intercept),
        anchor_threshold=anchor,
        fit_thresholds=tuple(float(x) for x in xs),
        points=tuple(points),
    )


CURVE_CSV_HEADER = ["G", "kept_correct", "kept_error", "attempts", "logical_error", "extrapolated"]


def _csv_num(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    return format(value, ".10g")


def write_curve_csv(curve: SweepCurve, path: str | Path, tail: TailExtrapolation | None = None) -> None:
    """Emit the plot-data CSV; extrapolated rows replace observed error counts
    with the fitted estimate and are flagged in the last column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_CSV_HEADER)
        cutoff = tail.anchor_threshold if tail is not None else None
        for p in curve.points:
            if cutoff is not None and p.threshold > cutoff:
                continue
            writer.writerow(
                [
                    _csv_num(p.threshold),
                    _csv_num(p.kept_correct),
                    _csv_num(p.kept_error),
                    _csv_num(p.attempts),
                    _csv_num(p.logical_error),
                    "true" if p.extrapolated else "false",
                ]
            )
        if tail is not None:
            for tp in tail.points:
                writer.writerow(
                    [
                        _csv_num(tp.threshold),
                        _csv_num(tp.kept_correct),
                        _csv_num(tp.error_fit),
                        _csv_num(tp.attempts),
                        _csv_num(tp.logical_error),
                        "true",
                    ]
                )
