"""``layout``: validate or pack a patch layout."""

from __future__ import annotations

from pathlib import Path

from .cli import EXIT_EMPTY, EXIT_OK, ConfigError, InputFormatError
from .cli_common import (
    _config_errors,
    _load_config_file,
    _out_dir,
    _read_config,
    _read_file,
    _report,
    _require_file,
    _write_json,
)
from .geometry import Stage, pack_sites
from .layout_io import (
    LayoutParseError,
    ascii_map,
    canonical_document,
    layout_report,
    load_layout_file,
)

_LAYOUT_CONFIG = {"preset": str, "file": str, "stage": str, "mode": str, "k_max": int, "out": str}


def _load_layout(path: Path):
    try:
        return load_layout_file(path)
    except LayoutParseError as exc:
        raise InputFormatError(str(exc)) from None


def cmd_layout(args) -> int:
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
