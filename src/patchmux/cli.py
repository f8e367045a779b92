"""Batch command-line surface tying the library together.

Four subcommands: ``analytic`` recomputes discard/attempt tables,
``simulate`` runs the seeded shot sampler, ``gap-sweep`` turns record files
into threshold curves (plus a crossing report for two inputs), and
``layout`` validates or packs patch layouts. Each imports only the layers it
runs (``analytic``: analytics; ``simulate``: montecarlo, analytics, and
``gap_analysis`` only for records or a pool; ``gap-sweep``: gap_analysis,
once its config is checked; ``layout``: geometry, layout_io), so
``import patchmux.cli`` loads no numpy, nor does ``analytic`` or ``layout``.

Configuration is a single JSON document per run; command-line flags
override individual entries. One table per command gives each key's JSON
type, and one reader checks them all: an unknown key or a wrong-typed value
(a numeric string, a bool for a number, 1.7 for an integer, NaN or
Infinity anywhere) is a configuration error naming the dotted key, and
``null`` means absent.
``--format`` exists on ``analytic`` only. The only environment variable
honored is PATCHMUX_OUT (output directory override). Reports embed their
effective configuration and its hash, carry no timestamps, and render
numbers at six significant digits, so reruns are byte-identical.

Exit codes: 0 success, 2 configuration error (bad config/paths/values),
3 input format error (unparseable or non-UTF-8 CSV/JSONL/layout text),
4 empty-result warning (nothing kept, packed, or swept).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_EMPTY = 4


class ConfigError(Exception):
    pass


class InputFormatError(Exception):
    """An input file is malformed."""


# ---------------------------------------------------------------------------
# rendering


def fmt6(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return format(value, ".6g")


def _jsonify(obj):
    """Round floats to six significant digits; map inf/nan to strings."""
    if isinstance(obj, float):
        return float(fmt6(obj)) if math.isfinite(obj) else fmt6(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(effective_config: dict) -> str:
    # hashlib's SHA-256 where hashlib is loaded (numpy.random loads it for
    # simulate), else CPython's built-in one: importing hashlib maps OpenSSL's
    # libcrypto, about 3 MB of RSS that would set the peak of gap-sweep,
    # analytic and layout. Any SHA-256 gives the same bytes.
    if "hashlib" in sys.modules:
        sha256 = sys.modules["hashlib"].sha256
    else:
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # CPython 3.8-3.11
            except ImportError:
                from hashlib import sha256
    return sha256(_canonical_json(effective_config).encode("utf-8")).hexdigest()


def _report(command: str, effective_config: dict, results: dict, seed=None) -> dict:
    cfg = _jsonify(effective_config)
    return {
        "command": command,
        "provenance": {
            "tool": "patchmux",
            "tool_version": __version__,
            "config_hash": _config_hash(cfg),
            "seed": seed,
        },
        "config": cfg,
        "results": _jsonify(results),
    }


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# config schema
#
# A table maps each allowed key to its JSON type: bool, int, float or str;
# [T] for a list of T (read as a tuple); a nested table for an object; a
# tuple of alternatives, where None admits null.

_GAP_CONFIG = {"kind": str, "rate": float, "value": float}

_ANALYTIC_CONFIG = {"preset": str, "input_csv": str, "out": str}

_SIMULATE_CONFIG = {
    "preset": str,
    "k": int,
    "n_shots": int,
    "seed": int,
    "failure": {
        "kind": str,
        "per_site_fail": [float],
        "calibrate_discard": float,
        "c": float,
        "table": [float],
    },
    "escape": {
        "kind": str,
        "q": float,
        "keep_prob": float,
        "gap_correct": _GAP_CONFIG,
        "gap_error": _GAP_CONFIG,
        "pool_path": str,
    },
    "labels": {"d1": int, "p": float, "d2": int, "r1": int, "r2": int},
    "records": bool,
    "out": str,
}

_GAP_SWEEP_CONFIG = {
    "records": [str],
    "n_attempts": (int, [(int, None)]),
    "thresholds": ([float], {"start": float, "stop": float, "count": int}),
    "tail_window": [float],
    "out": str,
}

_LAYOUT_CONFIG = {"preset": str, "file": str, "stage": str, "mode": str, "k_max": int, "out": str}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_JSON_TYPES = {  # spec -> (name in messages, test of a JSON value)
    None: ("null", lambda v: v is None),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer())),
    float: ("a finite float", lambda v: _is_number(v) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list", lambda v: isinstance(v, list)),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


def _read_value(value, spec, key: str):
    alternatives = spec if isinstance(spec, tuple) else (spec,)
    types = [_JSON_TYPES[type(a) if isinstance(a, (list, dict)) else a] for a in alternatives]
    for alt, (_, fits) in zip(alternatives, types):
        if fits(value):
            break
    else:
        raise ConfigError(f"{key} must be {' or '.join(name for name, _ in types)}")
    if isinstance(alt, dict):
        return _read_config(value, alt, key, key + ".")
    if isinstance(alt, list):
        return tuple(_read_value(v, alt[0], f"{key}[{i}]") for i, v in enumerate(value))
    return alt(value) if alt in (int, float) else value


def _read_config(raw: dict, table: dict, context: str, prefix: str = "") -> dict:
    """Check ``raw`` against ``table``; return its non-null values converted."""
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    return {
        key: _read_value(value, table[key], prefix + key)
        for key, value in raw.items()
        if value is not None
    }


@contextmanager
def _config_errors():
    """Report the library's rejection of a config value as a config error."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# config plumbing


def _without_nulls(value):
    """``value`` without the null entries of its objects, at any depth; a list
    keeps its nulls, which stand for a position (``n_attempts``)."""
    if isinstance(value, dict):
        return {key: _without_nulls(v) for key, v in value.items() if v is not None}
    return value


def _load_config_file(path: str | None) -> dict:
    """The config document as written, without the null entries of its objects."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return _without_nulls(cfg)


def _out_dir(args, cfg: dict) -> Path:
    if args.out is not None:
        out = args.out
    elif os.environ.get("PATCHMUX_OUT"):
        out = os.environ["PATCHMUX_OUT"]
    else:
        out = cfg.get("out", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require_file(path_text: str, what: str) -> Path:
    p = Path(path_text)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path_text}")
    return p


def _read_file(read, path: Path, *args):
    """Run a file reader; bytes that are not UTF-8 are an input format error."""
    try:
        return read(path, *args)
    except UnicodeDecodeError:
        raise InputFormatError(f"{path}: not UTF-8 text") from None


def _load_record_set(path: Path, n_attempts: int | None = None) -> RecordSet:
    from .gap_analysis import RecordFormatError, RecordSet
    read = RecordSet.from_csv if path.suffix.lower() == ".csv" else RecordSet.from_jsonl
    try:
        return _read_file(read, path, n_attempts)
    except RecordFormatError as exc:
        raise InputFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# analytic


# The table's columns in order, each mapped to the field it reads: first the
# input CSV's (an AttemptRow field each), then the results (AttemptRowResult).
_ROW_COLUMNS = {
    "d1": "d1",
    "p": "p",
    "D1": "discard_single",
    "D4": "discard_multi",
    "A1": "attempts_single",
    "A4": "attempts_multi",
    "rho": "reduction_pct",
}
_RESULT_COLUMNS = {
    "A1_calc": "attempts_single",
    "A4_calc": "attempts_multi",
    "rho_calc": "reduction_pct",
    "D4_estimate": "multi_discard_estimate",
    "D4_residual": "multi_discard_residual",
    "consistent": "consistent",
    "error": "error",
}


def _analytic_column(name: str) -> str:
    """An exact column name, else the column that matches it ignoring case."""
    if name in _ROW_COLUMNS:
        return name
    for column in _ROW_COLUMNS:
        if column.lower() == name.lower():
            return column
    raise InputFormatError(f"line 1: unknown column {name!r}")


def _read_analytic_csv(path: Path) -> list[AttemptRow]:
    from .analytics import AttemptRow
    rows: list[AttemptRow] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # a leading BOM is skipped
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return rows
        names = [h.strip() for h in header]
        columns = [_analytic_column(name) for name in names]
        for i, column in enumerate(columns):
            if column in columns[:i]:
                raise InputFormatError(f"line 1: column {column!r} is named twice")
        for line_no, cells in enumerate(reader, start=2):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) != len(names):
                raise InputFormatError(
                    f"line {line_no}: expected {len(names)} cells, got {len(cells)}"
                )
            fields: dict[str, float] = {}  # an empty cell leaves its field None
            for name, column, cell in zip(names, columns, cells):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise InputFormatError(
                        f"line {line_no}: non-numeric cell {cell!r} in column {name}"
                    ) from None
                if column != "d1" and not math.isfinite(value):
                    raise InputFormatError(
                        f"line {line_no}: non-finite cell {cell!r} in column {name}"
                    )
                fields[_ROW_COLUMNS[column]] = value
            d1 = fields.get("d1")
            if d1 is not None:
                if not d1.is_integer():
                    raise InputFormatError(f"line {line_no}: d1 must be an integer, got {d1!r}")
                fields["d1"] = int(d1)
            rows.append(AttemptRow(**fields))
    return rows


def _table_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else fmt6(value)


def _analytic_csv_text(results) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow([*_ROW_COLUMNS, *_RESULT_COLUMNS])
    for res in results:
        values = [getattr(res.row, field) for field in _ROW_COLUMNS.values()]
        values += [getattr(res, field) for field in _RESULT_COLUMNS.values()]
        writer.writerow(map(_table_cell, values))
    return text.getvalue()


def cmd_analytic(args) -> int:
    from .analytics import reproduce_table
    from .presets import ANALYTIC_PRESETS

    cfg = _read_config(_load_config_file(args.config), _ANALYTIC_CONFIG, "analytic config")
    preset = args.preset or cfg.get("preset")
    input_csv = cfg.get("input_csv")
    if preset is not None and preset not in ANALYTIC_PRESETS:
        raise ConfigError(
            f"unknown analytic preset {preset!r}; have {sorted(ANALYTIC_PRESETS)}"
        )
    if preset is None and input_csv is None:
        raise ConfigError("analytic needs a preset or an input_csv")
    if input_csv is not None:
        rows = _read_file(_read_analytic_csv, _require_file(input_csv, "input CSV"))
        source = input_csv
    else:
        rows = list(ANALYTIC_PRESETS[preset])
        source = f"preset:{preset}"

    results = reproduce_table(rows)
    out = _out_dir(args, cfg)
    effective = {"preset": preset, "input_csv": input_csv}
    report = _report(
        "analytic",
        effective,
        {
            "source": source,
            "rows": [
                {
                    "d1": r.row.d1,
                    "p": r.row.p,
                    **{field: getattr(r, field) for field in _RESULT_COLUMNS.values()},
                }
                for r in results
            ],
            "all_consistent": all(r.consistent for r in results),
        },
    )
    csv_text = _analytic_csv_text(results)
    _write_json(out / "analytic_report.json", report)
    (out / "analytic_table.csv").write_text(csv_text, encoding="utf-8")

    for r in results:
        if r.error:
            print(f"d1={r.row.d1} p={r.row.p}: ERROR {r.error}")
        else:
            flag = "ok" if r.consistent else "MISMATCH"
            print(
                f"d1={r.row.d1} p={r.row.p}: A_single={fmt6(r.attempts_single)} "
                f"A_multi={fmt6(r.attempts_multi)} reduction={fmt6(r.reduction_pct)}% [{flag}]"
            )
    if args.format == "csv":
        sys.stdout.write(csv_text)
    print(f"wrote {out / 'analytic_report.json'} and {out / 'analytic_table.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


# The keys each kind of a config object reads besides ``kind``, keyed by the
# object's name in messages; the first kind is the default. A key that its
# kind does not read is a config error, never silently dropped.
_KIND_READS = {
    "failure kind": {"independent": (), "common_mode": ("c",), "explicit_joint": ("table",)},
    "escape model": {
        "always_keep": ("gap_correct",),
        "bernoulli": ("q", "keep_prob", "gap_correct", "gap_error"),
        "empirical": ("keep_prob", "pool_path"),
    },
    "gap distribution": {
        "discrete_exponential": ("rate",),
        "exponential": ("rate",),
        "constant": ("value",),
    },
}


def _kind(obj: dict, name: str, key: str, also: tuple[str, ...] = ()) -> str:
    """The kind of the config object at ``key``, once it sets only keys that
    kind reads (and ``also``)."""
    kinds = _KIND_READS[name]
    kind = obj.get("kind", next(iter(kinds)))
    if kind not in kinds:
        raise ConfigError(f"unknown {name} {kind!r}")
    unread = sorted(set(obj) - {"kind", *kinds[kind], *also})
    if unread:
        with_also = "".join(f" with {k}" for k in also)
        dotted = ", ".join(f"{key}.{k}" for k in unread)
        raise ConfigError(f"{key} kind {kind!r}{with_also} does not read {dotted}")
    return kind


def _failure_model(failure: dict, k: int | None) -> FailureModel:
    from .analytics import CommonMode, ExplicitJoint, FailureModel
    rates_key = "per_site_fail" if "per_site_fail" in failure else "calibrate_discard"
    kind = _kind(failure, "failure kind", "failure", (rates_key,))
    if "per_site_fail" in failure:
        rates = failure["per_site_fail"]
        if k is not None and len(rates) != k:
            raise ConfigError(f"per_site_fail has {len(rates)} sites but k={k}")
    elif "calibrate_discard" in failure:
        if k is None:
            raise ConfigError("calibrate_discard needs an explicit k")
        try:  # a k past the index range raises OverflowError, a config error too
            rates = (failure["calibrate_discard"],) * k
        except MemoryError:
            raise ConfigError(f"k={k} sites are too many to allocate") from None
    else:
        raise ConfigError("failure needs per_site_fail or calibrate_discard")
    if kind == "independent":
        return FailureModel(per_site_fail=rates)
    if kind == "common_mode":
        if "c" not in failure:
            raise ConfigError("common_mode failure needs c")
        return FailureModel(per_site_fail=rates, correlation=CommonMode(failure["c"]))
    if "table" not in failure:
        raise ConfigError("explicit_joint failure needs table")
    return FailureModel(per_site_fail=rates, correlation=ExplicitJoint(failure["table"]))


def _escape_model(escape: dict) -> EscapeModel:
    from .montecarlo import EscapeModel, GapDistribution
    kind = _kind(escape, "escape model", "escape")
    fields = {key: value for key, value in escape.items() if key not in ("kind", "pool_path")}
    for key in ("gap_correct", "gap_error"):
        if key in escape:
            gap_kind = _kind(escape[key], "gap distribution", f"escape.{key}")
            fields[key] = GapDistribution(**{**escape[key], "kind": gap_kind})
    if kind == "empirical":
        if "pool_path" not in escape:
            raise ConfigError("empirical escape model needs pool_path")
        fields["pool"] = _load_record_set(_require_file(escape["pool_path"], "escape pool"))
    return EscapeModel(**fields)


# perfbench's traced run wraps these two names in this module: the first is
# a pure forwarder, which ROADMAP item 14 deletes once perfbench reads a sidecar.
def run_simulation(*args, **kwargs):
    from .montecarlo import run_simulation
    return run_simulation(*args, **kwargs)


def write_records_jsonl(summary, path) -> int:
    """One JSON object per kept shot; returns the number of records written."""
    summary.records.to_jsonl(path)
    return len(summary.records)


def _inverse(value: float) -> float:
    return 1.0 / value if value else math.inf


def _closed_form_results(config: SimConfig, summary) -> dict:
    """The configured model's closed form, and the run's distance from it:
    the binomial standard error and z of the observed discard and kept
    fraction (z null where the error is 0), and the attempts' 95% interval,
    Wilson's on the kept fraction, inverted."""
    from .analytics import joint_all_fail_probability, wilson_interval

    discard = joint_all_fail_probability(config.failure_model)
    kept_fraction = (1.0 - discard) * config.escape_model.keep_prob
    n = summary.shots
    results = {
        "closed_form_discard": discard,
        "closed_form_kept_fraction": kept_fraction,
        "closed_form_attempts": _inverse(kept_fraction),
    }
    for name, rate, count in (
        ("discard", discard, summary.early_discards),
        ("kept_fraction", kept_fraction, summary.kept),
    ):
        stderr = math.sqrt(rate * (1.0 - rate) / n)
        results[f"{name}_stderr"] = stderr
        results[f"{name}_z"] = (count / n - rate) / stderr if stderr else None
    low, high = wilson_interval(summary.kept, n)
    results["attempts_interval_95"] = [_inverse(high), _inverse(low)]
    return results


def cmd_simulate(args) -> int:
    from .montecarlo import LAYOUT_VERSION, SimConfig

    if args.workers < 1:
        raise ConfigError("workers must be at least 1")
    raw = _load_config_file(args.config)
    cfg = _read_config(raw, _SIMULATE_CONFIG, "simulate config")

    preset_name = args.preset or cfg.get("preset")
    if preset_name is not None:
        from .presets import simulation_presets

        presets = simulation_presets()
        if preset_name not in presets:
            raise ConfigError(
                f"unknown simulate preset {preset_name!r}; have {sorted(presets)}"
            )
        raw = {**presets[preset_name], **raw}
        cfg = _read_config(raw, _SIMULATE_CONFIG, "simulate config")

    if "failure" not in cfg:
        raise ConfigError("simulate needs a failure model (or a preset)")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    n_shots = cfg.get("n_shots", 100_000)
    want_records = cfg.get("records", False)
    raw_labels = raw.get("labels", {})
    with _config_errors():
        failure = _failure_model(cfg["failure"], cfg.get("k"))
        sim_config = SimConfig(
            failure_model=failure,
            n_shots=n_shots,
            seed=seed,
            escape_model=_escape_model(cfg.get("escape", {})),
            collect_records=want_records,
        )
    # d1, p and r1 ride along as written, an absent or null r1 as d1; d2 and
    # r2 as integers
    d1, r1, read = raw_labels.get("d1"), raw_labels.get("r1"), cfg.get("labels", {})
    labels = {
        "d1": d1,
        "d2": read.get("d2", 15),
        "r1": d1 if r1 is None else r1,
        "r2": read.get("r2", 5),
        "p": raw_labels.get("p"),
    }

    out = _out_dir(args, cfg)  # fail on an unwritable target before simulating
    summary = run_simulation(sim_config, workers=args.workers)
    effective = {
        "preset": preset_name,
        "k": failure.k,
        "n_shots": n_shots,
        "seed": seed,
        "failure": raw.get("failure"),
        "escape": raw.get("escape", {}),
        "labels": raw_labels,
        "records": want_records,
    }
    results = {
        "shots": summary.shots,
        "early_discards": summary.early_discards,
        "kept": summary.kept,
        "empirical_discard": summary.empirical_discard,
        "empirical_attempts": summary.empirical_attempts,
        "site_survival_histogram": list(summary.site_survival_histogram),
        "labels": labels,
        "warnings": list(summary.warnings),
        **_closed_form_results(sim_config, summary),
    }
    records_path = None
    if want_records:
        records_path = out / "records.jsonl"
        results["records_written"] = write_records_jsonl(summary, records_path)
    report = _report("simulate", effective, results, seed=seed)
    report["provenance"]["layout_version"] = LAYOUT_VERSION  # how the seed becomes draws
    _write_json(out / "sim_summary.json", report)

    print(
        f"shots={summary.shots} early_discards={summary.early_discards} "
        f"kept={summary.kept} empirical_discard={fmt6(summary.empirical_discard)} "
        f"empirical_attempts={fmt6(summary.empirical_attempts)}"
    )
    z = results["discard_z"]
    print(
        f"closed_form_discard={fmt6(results['closed_form_discard'])} "
        f"discard_z={'null' if z is None else fmt6(z)} closed_form_attempts="
        f"{fmt6(results['closed_form_attempts'])} attempts_interval_95="
        f"[{', '.join(map(fmt6, results['attempts_interval_95']))}]"
    )
    for warning in summary.warnings:
        print(f"warning: {warning}")
    print(f"wrote {out / 'sim_summary.json'}" + (f" and {records_path}" if records_path else ""))
    return EXIT_EMPTY if summary.kept == 0 else EXIT_OK


# ---------------------------------------------------------------------------
# gap-sweep


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
    from .gap_analysis import linear_thresholds
    try:
        grid = linear_thresholds(start, stop, count)
    except (MemoryError, ValueError, OverflowError):  # start and stop are checked floats
        raise ConfigError(f"thresholds.count {count} is too large to build the grid") from None
    if grid is None:
        raise ConfigError("thresholds start, stop and count give no finite increasing grid")
    return grid


# perfbench's traced run wraps these four names in this module too: pure
# forwarders, so that ``gap_analysis`` (and numpy) loads only when one is
# called. They go with ``run_simulation``'s once perfbench reads a sidecar.
def sweep(*args, **kwargs):
    from .gap_analysis import sweep
    return sweep(*args, **kwargs)


def extrapolate_tail(*args, **kwargs):
    from .gap_analysis import extrapolate_tail
    return extrapolate_tail(*args, **kwargs)


def write_curve_csv(*args, **kwargs):
    from .gap_analysis import write_curve_csv
    return write_curve_csv(*args, **kwargs)


def find_crossing(*args, **kwargs):
    from .gap_analysis import find_crossing
    return find_crossing(*args, **kwargs)


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
        from .gap_analysis import default_thresholds
        grid = default_thresholds(*record_sets)
    out = _out_dir(args, cfg)

    curve_names = [f"{p.stem}_curve.csv" for p in files]
    if len(set(curve_names)) != len(curve_names):
        curve_names = [f"{i}_{name}" for i, name in enumerate(curve_names, start=1)]

    curves: list[SweepCurve] = []
    input_reports = []
    empty_inputs = 0
    for path, rs, curve_name in zip(files, record_sets, curve_names):
        curve = sweep(rs, grid)
        tail = extrapolate_tail(curve, tail_window) if tail_window else None
        curve_path = out / curve_name
        write_curve_csv(curve, curve_path, tail)
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
        crossing = find_crossing(curves[0], curves[1])
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


# ---------------------------------------------------------------------------
# layout


def _load_layout(path: Path):
    from .layout_io import LayoutParseError, load_layout_file

    try:
        return load_layout_file(path)
    except LayoutParseError as exc:
        raise InputFormatError(str(exc)) from None


def cmd_layout(args) -> int:
    # the layout modules load only for this command, to keep every other one's start short
    from .geometry import Stage, pack_sites
    from .layout_io import ascii_map, canonical_document, layout_report

    raw = _load_config_file(args.config)
    cfg = _read_config(raw, _LAYOUT_CONFIG, "layout config")
    preset = args.preset or cfg.get("preset")
    file_path = cfg.get("file")
    if preset is None and file_path is None:
        preset = "canonical"
    if preset is not None and preset != "canonical":
        raise ConfigError(f"unknown layout preset {preset!r}; have ['canonical']")
    mode = cfg.get("mode", "validate")
    if mode not in ("validate", "pack"):
        raise ConfigError(f"mode must be 'validate' or 'pack', got {mode!r}")

    with _config_errors():
        stage = Stage.parse(cfg.get("stage", "cultivation"))
        if file_path is not None:
            doc = _read_file(_load_layout, _require_file(file_path, "layout file"))
            source = file_path
        else:
            doc = canonical_document()
            source = "preset:canonical"
        if mode == "pack":
            if doc.patch is None:
                raise ConfigError("pack mode needs a patch stanza")
            layout = pack_sites(doc.patch, doc.footprint_spec(stage), cfg.get("k_max", 4))
        else:
            layout = doc.to_layout(stage)
            if not layout.sites:
                raise ConfigError("layout defines no sites to validate")

    out = _out_dir(args, cfg)
    empty = mode == "pack" and not layout.sites
    if empty:
        print("warning: no feasible placement for this footprint")
    report_body = layout_report(layout)
    if mode == "pack":
        report_body["placements"] = len(layout.sites)

    effective = {
        "preset": preset,
        "file": file_path,
        "stage": stage.value,
        "mode": mode,
        "k_max": raw.get("k_max"),
    }
    report = _report("layout", effective, {"source": source, "layout": report_body})
    map_text = ascii_map(layout) + "\n"
    _write_json(out / "layout_report.json", report)
    (out / "layout_map.txt").write_text(map_text, encoding="utf-8")

    if "containment_ok" in report_body:
        print(
            f"sites={report_body['site_count']} containment_ok={report_body['containment_ok']} "
            f"nonoverlap_ok={report_body['nonoverlap_ok']} idle_count={report_body['idle_count']}"
        )
    else:
        print(f"sites={report_body['site_count']} idle_count={report_body['idle_count']}")
    print(f"wrote {out / 'layout_report.json'} and {out / 'layout_map.txt'}")
    return EXIT_EMPTY if empty else EXIT_OK


# ---------------------------------------------------------------------------
# entry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchmux",
        description="Yield analytics, layout checks and seeded simulation "
        "for multiplexed in-patch cultivation.",
        epilog="Exit codes: 0 success; 2 configuration error; "
        "3 input format error; 4 empty-result warning.",
    )
    parser.add_argument("--version", action="version", version=f"patchmux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON configuration document")
        p.add_argument("--out", metavar="DIR", help="output directory (default '.')")

    p_an = sub.add_parser("analytic", help="recompute discard/attempt tables")
    common(p_an)
    p_an.add_argument("--preset", metavar="NAME", help="built-in table: table2 or table3")
    p_an.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="'csv' also prints the table on stdout",
    )
    p_an.set_defaults(func=cmd_analytic)

    p_sim = sub.add_parser("simulate", help="run the seeded shot sampler")
    common(p_sim)
    p_sim.add_argument("--preset", metavar="NAME", help="calibrated setup, e.g. d3-p0.0005")
    p_sim.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    p_sim.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes, at most the usable CPUs (never changes results)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_gap = sub.add_parser("gap-sweep", help="threshold sweeps over record files")
    common(p_gap)
    p_gap.add_argument(
        "--records",
        action="append",
        metavar="PATH",
        help="record file (.jsonl or .csv); repeat for crossing mode",
    )
    p_gap.set_defaults(func=cmd_gap_sweep)

    p_lay = sub.add_parser("layout", help="validate or pack a patch layout")
    common(p_lay)
    p_lay.add_argument("--preset", metavar="NAME", help="built-in layout: canonical")
    p_lay.set_defaults(func=cmd_layout)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputFormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
