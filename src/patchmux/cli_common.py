"""What every command shares: report rendering, the config reader and file plumbing.

Configuration is a single JSON document per run; command-line flags
override individual entries. One table per command (in its ``cli_*``
module) gives each key's JSON type, and one reader here checks them all:
an unknown key or a wrong-typed value (a numeric string, a bool for a
number, 1.7 for an integer, NaN or Infinity anywhere) is a configuration
error naming the dotted key, and ``null`` means absent. The only
environment variable honored is PATCHMUX_OUT (output directory override).
Reports embed their effective configuration and its hash, carry no
timestamps, and render numbers at six significant digits, so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .cli import ConfigError, InputFormatError

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
    # simulate, without OpenSSL: see cli_simulate._import_numpy_random), else
    # CPython's built-in one: importing hashlib maps OpenSSL's libcrypto,
    # about 3 MB of RSS that would set the peak of gap-sweep, analytic and
    # layout. Any SHA-256 gives the same bytes.
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
