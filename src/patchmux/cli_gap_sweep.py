"""``gap-sweep``: threshold curves of record files, and the crossing of two."""

from __future__ import annotations

import sys

from . import cli
from .cli import EXIT_EMPTY, EXIT_OK, ConfigError
from .cli_common import (
    _config_errors,
    _load_config_file,
    _load_record_set,
    _out_dir,
    _read_config,
    _report,
    _require_file,
    _write_json,
    fmt6,
)

_GAP_SWEEP_CONFIG = {
    "records": [str],
    "n_attempts": (int, [(int, None)]),
    "thresholds": ([float], {"start": float, "stop": float, "count": int}),
    "tail_window": [float],
    "out": str,
}


def _threshold_grid(spec):
    """The sweep grid of a thresholds list or linear grid, checked before any
    record file is read; None for the default (zero plus every observed gap)."""
    if spec is None:
        return None
    if isinstance(spec, tuple):
        if not spec or any(b <= a for a, b in zip(spec, spec[1:])):
            raise ConfigError("thresholds list must be non-empty and strictly increasing")
        return spec
    try:
        start, stop, count = spec["start"], spec["stop"], spec["count"]
    except KeyError as exc:
        raise ConfigError(f"thresholds missing {exc}") from None
    if count < 2 or stop <= start:
        raise ConfigError("thresholds need stop > start and count >= 2")
    from .curves import linear_thresholds
    try:
        grid = linear_thresholds(start, stop, count)
    except (MemoryError, ValueError, OverflowError):  # start and stop are checked floats
        raise ConfigError(f"thresholds.count {count} is too large to build the grid") from None
    if grid is None:
        raise ConfigError("thresholds start, stop and count give no finite increasing grid")
    return grid


def cmd_gap_sweep(args) -> int:
    raw = _load_config_file(args.config)
    cfg = _read_config(raw, _GAP_SWEEP_CONFIG, "gap-sweep config")
    paths = list(args.records or []) or list(cfg.get("records", []))
    if not paths:
        raise ConfigError("gap-sweep needs at least one record file (--records)")
    files = [_require_file(p, "record file") for p in paths]

    per_input = cfg.get("n_attempts")
    if not isinstance(per_input, tuple):
        per_input = (per_input,) * len(files)
    elif len(per_input) != len(files):
        raise ConfigError("n_attempts must be an int or one entry per record file")
    tail_window = cfg.get("tail_window")
    if tail_window is not None and (len(tail_window) != 2 or tail_window[0] >= tail_window[1]):
        raise ConfigError("tail_window must be [low, high] with low < high")
    grid = _threshold_grid(cfg.get("thresholds"))

    with _config_errors():
        record_sets = [_load_record_set(path, n_att) for path, n_att in zip(files, per_input)]
    for path, rs in zip(files, record_sets):
        if rs.attempts_summed:
            print(
                f"warning: {path}: n_attempts {rs.n_attempts} is the sum of attempts_consumed, "
                "which drops the shots after the last kept one; pass the simulate "
                "report's shots as n_attempts",
                file=sys.stderr,
            )
    if grid is None:
        from .curves import default_thresholds
        grid = default_thresholds(*record_sets)
    out = _out_dir(args, cfg)

    curve_names = [f"{p.stem}_curve.csv" for p in files]
    if len(set(curve_names)) != len(curve_names):
        curve_names = [f"{i}_{name}" for i, name in enumerate(curve_names, start=1)]

    curves: list[SweepCurve] = []
    input_reports = []
    empty_inputs = 0
    for path, rs, curve_name in zip(files, record_sets, curve_names):
        curve = cli.sweep(rs, grid)
        tail = cli.extrapolate_tail(curve, tail_window) if tail_window else None
        curve_path = out / curve_name
        cli.write_curve_csv(curve, curve_path, tail)
        curves.append(curve)
        zero = curve.rows(0, 1)[0]
        entry = {
            "input": str(path),
            "records": len(rs),
            "n_attempts": rs.n_attempts,
            "curve_csv": curve_path.name,
            "attempts_at_zero": zero.attempts,
            "logical_error_at_zero": zero.logical_error,
        }
        if tail_window:
            if tail is None:
                entry["tail"] = "insufficient error counts in window"
            else:
                entry["tail"] = {
                    "rate": tail.rate,
                    "slope_stderr": tail.slope_stderr,
                    "anchor_threshold": tail.anchor_threshold,
                }
        if len(rs) == 0:
            empty_inputs += 1
            print(f"warning: {path} holds no records; curve is all-undefined")
        input_reports.append(entry)
        print(
            f"{path.name}: {len(rs)} records over {rs.n_attempts} attempts "
            f"-> {curve_path.name}"
        )

    results: dict = {"inputs": input_reports, "thresholds": len(grid)}
    if len(curves) == 2:
        crossing = cli.find_crossing(curves[0], curves[1])
        if crossing is None:
            results["crossing"] = None
            print("no crossing between the two curves")
        else:
            results["crossing"] = {
                "threshold": crossing.threshold,
                "bracket": list(crossing.bracket),
            }
            print(f"curves cross at threshold {fmt6(crossing.threshold)}")

    effective = {
        "records": [str(p) for p in files],
        "n_attempts": raw.get("n_attempts"),
        "thresholds": raw.get("thresholds"),
        "tail_window": tail_window,
    }
    _write_json(out / "gap_report.json", _report("gap-sweep", effective, results))
    print(f"wrote {out / 'gap_report.json'}")
    return EXIT_EMPTY if empty_inputs == len(files) else EXIT_OK
