"""``analytic``: recompute the discard/attempt tables from a preset or an input CSV."""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path

from .analytics import AttemptRow, reproduce_table
from .cli import EXIT_OK, ConfigError, InputFormatError
from .cli_common import (
    _load_config_file,
    _out_dir,
    _read_config,
    _read_file,
    _report,
    _require_file,
    _write_json,
    fmt6,
)
from .presets import ANALYTIC_PRESETS

_ANALYTIC_CONFIG = {"preset": str, "input_csv": str, "out": str}

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
