"""``simulate``: run the seeded shot sampler and report it against its closed form."""

from __future__ import annotations

import math
import sys

from . import cli
from .analytics import (
    CommonMode,
    ExplicitJoint,
    FailureModel,
    joint_all_fail_probability,
    wilson_interval,
)
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
from .montecarlo import LAYOUT_VERSION, EscapeModel, GapDistribution, SimConfig

_GAP_CONFIG = {"kind": str, "rate": float, "value": float}

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


def _import_numpy_random() -> None:
    """Import ``numpy.random`` with OpenSSL's ``_hashlib`` hidden.

    numpy.random imports ``secrets``, which imports ``hmac`` and ``hashlib``:
    with ``_hashlib`` unimportable they fall back to CPython's built-in
    digests, and OpenSSL's libcrypto, about 3 MB of RSS, is never mapped.
    Nothing in simulate needs OpenSSL. Skipped where either module is
    already loaded; the mask lasts for this one import, so a later
    ``import _hashlib`` works.
    """
    if "_hashlib" in sys.modules or "numpy.random" in sys.modules:
        return
    sys.modules["_hashlib"] = None
    try:
        import numpy.random  # noqa: F401
    finally:
        del sys.modules["_hashlib"]


def _inverse(value: float) -> float:
    return 1.0 / value if value else math.inf


def _closed_form_results(config: SimConfig, summary) -> dict:
    """The configured model's closed form, and the run's distance from it:
    the binomial standard error and z of the observed discard and kept
    fraction (z null where the error is 0), and the attempts' 95% interval,
    Wilson's on the kept fraction, inverted."""
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
    _import_numpy_random()
    summary = cli.run_simulation(sim_config, workers=args.workers)
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
        results["records_written"] = cli.write_records_jsonl(summary, records_path)
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
