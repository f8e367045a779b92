"""Threshold curves over kept-shot records: sweeps, tail fits and crossings.

A sweep at threshold G keeps the records of a ``gap_analysis.RecordSet``
with gap >= G; the resulting ``SweepCurve`` holds the grid and the kept
correct and error counts at each threshold, one column each, and nothing
more. Its rows add the expected attempts per kept shot
A(G) = n_attempts / kept and the error fraction among kept shots p_L(G),
derived a block of rows at a time where they are read (the curve CSV
writer, ``find_crossing``). Both are NaN-sentinelled when nothing survives
a threshold; an empty kept set never reports a zero error rate. A tail fit
is a few numbers, passed where rows are derived (``SweepCurve.rows``,
``write_curve_csv``): each row past the fit's anchor reads its error count
from the fit and is flagged ``extrapolated``; the curve's columns stay observed.

Curve files are written as record files are, by ``gap_analysis._write_rows``:
a fixed block of rows at a time, and on every usable CPU once the curve
holds at least two ``_PART_ROWS`` rows, so the bytes do not depend on the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .gap_analysis import RecordSet, _write_rows
from .parts import _physical_memory

# Curve rows are derived, compared and written this many at a time, so the
# Python objects alive at once do not grow with the grid.
_IO_BLOCK = 4096

UNDEFINED = math.nan

CURVE_DTYPE = np.dtype(
    [
        ("threshold", np.float64),
        ("kept_correct", np.float64),  # a count
        ("kept_error", np.float64),  # a count, or the fit on extrapolated rows
        ("attempts", np.float64),  # NaN when nothing is kept
        ("logical_error", np.float64),  # NaN when nothing is kept
        ("extrapolated", bool),
    ]
)


@dataclass(frozen=True)
class TailExtrapolation:
    """Log-linear fit ln(kept_error) = intercept + slope * G of the error counts.

    The decay rate and its standard error come from this fit alone; they are
    an estimate produced by the sweep tooling, not an observed count. Rows
    derived with the fit (``SweepCurve.rows(tail=...)``) read their error
    count beyond ``anchor_threshold``, the last fitted threshold, from
    ``error_at``.
    """

    slope: float
    slope_stderr: float
    intercept: float
    anchor_threshold: float

    @property
    def rate(self) -> float:
        """Exponential decay rate of the error tail (−slope)."""
        return -self.slope

    def error_at(self, thresholds: np.ndarray) -> np.ndarray:
        """The fitted error count at each threshold."""
        anchor = self.anchor_threshold
        logs = self.intercept + self.slope * anchor + self.slope * (thresholds - anchor)
        # math.exp, not np.exp: numpy's SIMD exp can differ from libm in the last
        # bit, and the fit is written out at ten significant digits
        return np.fromiter(map(math.exp, logs.tolist()), np.float64, logs.size)


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Kept correct and error counts (as floats) on a strictly increasing grid.

    Rows with A(G) and p_L(G) are derived when they are read (``rows``),
    optionally with a tail fit that replaces the error count of every row
    beyond its anchor; the columns themselves are always the observed counts.
    """

    threshold: np.ndarray
    kept_correct: np.ndarray
    kept_error: np.ndarray
    n_attempts: int

    def __post_init__(self) -> None:
        columns = {
            name: np.asarray(getattr(self, name), dtype=np.float64)
            for name in ("threshold", "kept_correct", "kept_error")
        }
        ts = columns["threshold"]
        if ts.ndim != 1 or any(column.shape != ts.shape for column in columns.values()):
            raise ValueError("curve columns must be 1-D and of equal length")
        if np.any(ts[1:] <= ts[:-1]):
            raise ValueError("thresholds must be strictly increasing")
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    def rows(
        self, start: int = 0, stop: int | None = None, tail: TailExtrapolation | None = None
    ) -> np.recarray:
        """Rows ``start`` up to ``stop`` as a ``CURVE_DTYPE`` record array,
        with A(G) and p_L(G) from the counts. With ``tail``, each row beyond
        its anchor carries the fitted error count and is flagged ``extrapolated``."""
        ts = self.threshold[start:stop]
        rows = np.recarray(ts.shape, dtype=CURVE_DTYPE)
        rows.threshold = ts
        rows.kept_correct = self.kept_correct[start:stop]
        rows.kept_error = self.kept_error[start:stop]
        rows.extrapolated = False
        if tail is not None:
            fitted = int(np.searchsorted(ts, tail.anchor_threshold, side="right"))
            rows.extrapolated[fitted:] = True
            rows.kept_error[fitted:] = tail.error_at(ts[fitted:])
        kept = rows.kept_correct + rows.kept_error
        # a fitted count can be so small that A(G) overflows to inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rows.attempts = np.where(kept > 0, self.n_attempts / kept, UNDEFINED)
            rows.logical_error = np.where(kept > 0, rows.kept_error / kept, UNDEFINED)
        return rows

    points = property(rows)  # every row; perfbench's tracer counts them with len()


def default_thresholds(*record_sets: RecordSet) -> np.ndarray:
    """Zero plus every distinct gap of the record sets: the exact step positions.

    The grid takes in one record set at a time, so only one set's gaps are
    copied at once.
    """
    grid = np.zeros(1)
    for record_set in record_sets:
        values = np.concatenate([grid, record_set.gaps])
        values += 0.0  # turns a -0.0 gap into 0.0
        values.sort()
        grid = values[np.insert(values[1:] != values[:-1], 0, True)]
    return grid


def linear_thresholds(start: float, stop: float, count: int) -> np.ndarray | None:
    """start + i * (stop - start) / (count - 1) for i in 0..count-1, bit for bit
    as Python floats give it; None unless that is finite and increasing.

    A count whose grid exceeds physical memory (which an overcommitting host
    grants, then fails to fill) or cannot be allocated raises MemoryError, or
    numpy's ValueError where it cannot be addressed, before memory is touched.
    """
    step = (stop - start) / (count - 1)
    if 0 < _physical_memory() < count * np.dtype(np.float64).itemsize:
        raise MemoryError(f"{count} thresholds exceed physical memory")
    grid = np.arange(count, dtype=np.float64)
    if grid.size != count:  # numpy wraps a count near 2**63 to an empty range
        raise ValueError(f"array of {count} thresholds is too big")
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite step fails below
        grid *= step
        grid += float(start)
    if not (np.isfinite(grid).all() and (grid[1:] > grid[:-1]).all()):
        return None
    return grid


def sweep(record_set: RecordSet, thresholds: Sequence[float] | None = None) -> SweepCurve:
    """Exact counts of surviving correct/error records at each threshold;
    rows with a ``count`` weigh that many records."""
    if thresholds is None:
        thresholds = default_thresholds(record_set)
    ts = np.asarray(thresholds, dtype=np.float64)
    counts = []
    for keep in (record_set.correct, ~record_set.correct):
        gaps = record_set.gaps[keep]
        # gap >= G keeps the record; ties at the threshold are kept
        kept = np.empty(ts.shape)
        if record_set.count is None:
            gaps.sort()
            np.subtract(gaps.size, np.searchsorted(gaps, ts, side="left"), out=kept)
        else:
            order = gaps.argsort()
            # below[i]: the records of the i lowest rows, summed as floats,
            # which are exact below 2**53 and cannot wrap
            below = np.cumsum(record_set.count[keep][order], dtype=np.float64)
            below = np.concatenate(([0.0], below))
            np.subtract(below[-1], below[np.searchsorted(gaps[order], ts, side="left")], out=kept)
        counts.append(kept)
    return SweepCurve(ts, *counts, n_attempts=record_set.n_attempts)


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

    The differences are read one ``_IO_BLOCK`` of rows at a time. Only the
    last nonzero difference of an unbroken run crosses into the next block.
    """
    if not np.array_equal(curve_a.threshold, curve_b.threshold):
        raise ValueError("curves must share one threshold grid")
    ts = curve_a.threshold
    last: tuple[int, float] | None = None  # (row, difference) of the run so far
    for start in range(0, ts.size, _IO_BLOCK):
        stop = start + _IO_BLOCK
        diffs = curve_a.rows(start, stop).logical_error - curve_b.rows(start, stop).logical_error
        undefined = np.isnan(diffs)
        at = np.flatnonzero(~undefined & (diffs != 0))
        # a pair of successive nonzero rows is unbroken when no NaN lies between
        breaks = np.cumsum(undefined)[at]
        rows, values = at + start, diffs[at]
        if last is not None:
            rows = np.insert(rows, 0, last[0])
            values = np.insert(values, 0, last[1])
            breaks = np.insert(breaks, 0, 0)
        flips = np.flatnonzero(
            (np.sign(values[1:]) != np.sign(values[:-1])) & (breaks[1:] == breaks[:-1])
        )
        if flips.size:
            first = flips[0]
            (j, i), (d0, d1) = rows[first : first + 2].tolist(), values[first : first + 2].tolist()
            if i > j + 1:  # zeros between: the tie's first threshold
                tie = float(ts[j + 1])
                return Crossing(threshold=tie, bracket=(tie, tie))
            t0, t1 = float(ts[j]), float(ts[i])
            g_star = t0 + (t1 - t0) * abs(d0) / (abs(d0) + abs(d1))
            return Crossing(threshold=g_star, bracket=(t0, t1))
        if at.size:
            last = (int(rows[-1]), float(values[-1]))
        if undefined[at[-1] + 1 if at.size else 0 :].any():  # a NaN after it breaks the run
            last = None
    return None


def extrapolate_tail(
    curve: SweepCurve, fit_window: tuple[float, float]
) -> TailExtrapolation | None:
    """Fit ln(kept_error) over a threshold window by least squares.

    Needs at least three window points with a surviving error count;
    otherwise returns None. The fit is anchored at the last fitted threshold
    and extends the curve at its own thresholds beyond it (``SweepCurve.rows``'s
    ``tail``); the slope's standard error comes with it.
    """
    lo, hi = fit_window
    ts = curve.threshold
    in_fit = (lo <= ts) & (ts <= hi) & (curve.kept_error >= 1)
    if np.count_nonzero(in_fit) < 3:
        return None
    xs = ts[in_fit]
    ys = np.log(curve.kept_error[in_fit])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (intercept + slope * xs)
    dof = xs.size - 2
    denom = float(np.sum((xs - xs.mean()) ** 2))
    if dof > 0 and denom > 0:
        stderr = math.sqrt(float(np.sum(resid**2)) / dof / denom)
    else:
        stderr = 0.0
    return TailExtrapolation(
        slope=float(slope),
        slope_stderr=float(stderr),
        intercept=float(intercept),
        anchor_threshold=float(xs[-1]),
    )


CURVE_CSV_HEADER = ["G", "kept_correct", "kept_error", "attempts", "logical_error", "extrapolated"]

# csv.writer's row terminator; %.10g writes "nan", "inf" and "-0" as they are
_CURVE_CSV_ROW = "%.10g,%.10g,%.10g,%.10g,%.10g,%s\r\n"


def write_curve_csv(
    curve: SweepCurve, path: str | Path, tail: TailExtrapolation | None = None
) -> None:
    """Emit the plot-data CSV of ``curve.rows(tail=tail)``: extrapolated rows
    carry the fitted error count and are flagged in the last column."""

    def text(start: int, stop: int):
        for block in range(start, stop, _IO_BLOCK):
            p = curve.rows(block, min(block + _IO_BLOCK, stop), tail)
            columns = [p[name].tolist() for name in CURVE_DTYPE.names[:-1]]
            flags = ["true" if flag else "false" for flag in p.extrapolated.tolist()]
            yield "".join([_CURVE_CSV_ROW % row for row in zip(*columns, flags)]).encode()

    _write_rows(path, (",".join(CURVE_CSV_HEADER) + "\r\n").encode(), text, curve.threshold.size)
