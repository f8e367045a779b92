"""The CLI's config contract: wrong-typed values are config errors, undecodable
inputs are one-line errors, and a report's config block reproduces the report."""

import hashlib
import importlib.util
import json
import math
import os
import sys

import numpy as np
import pytest

from patchmux import curves, gap_analysis, parts
from patchmux.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_OK, main
from patchmux.cli_common import _canonical_json, _config_hash
from patchmux.cli_gap_sweep import _threshold_grid

# Every config key of every command, with its JSON type. Written out here on
# purpose rather than read from the CLI, so a key the CLI stops checking
# fails this test.
KEYS = {
    "analytic": {"preset": "str", "input_csv": "str", "out": "str"},
    "simulate": {
        "preset": "str",
        "k": "int",
        "n_shots": "int",
        "seed": "int",
        "failure": "object",
        "failure.kind": "str",
        "failure.per_site_fail": "list[float]",
        "failure.calibrate_discard": "float",
        "failure.c": "float",
        "failure.table": "list[float]",
        "escape": "object",
        "escape.kind": "str",
        "escape.q": "float",
        "escape.keep_prob": "float",
        "escape.gap_correct": "object",
        "escape.gap_correct.kind": "str",
        "escape.gap_correct.rate": "float",
        "escape.gap_correct.value": "float",
        "escape.gap_error": "object",
        "escape.gap_error.kind": "str",
        "escape.gap_error.rate": "float",
        "escape.gap_error.value": "float",
        "escape.pool_path": "str",
        "labels": "object",
        "labels.d1": "int",
        "labels.p": "float",
        "labels.d2": "int",
        "labels.r1": "int",
        "labels.r2": "int",
        "records": "bool",
        "out": "str",
    },
    "gap-sweep": {
        "records": "list[str]",
        "n_attempts": "int or list[int or null]",
        "thresholds": "list[float] or object",
        "thresholds.start": "float",
        "thresholds.stop": "float",
        "thresholds.count": "int",
        "tail_window": "list[float]",
        "out": "str",
    },
    "layout": {
        "preset": "str",
        "file": "str",
        "stage": "str",
        "mode": "str",
        "k_max": "int",
        "out": "str",
    },
}

OBJ = {"x": 1}
WRONG = {
    "bool": [1, 0.5, "true", "false", [True], OBJ],
    "int": [True, 1.5, "1", "abc", [1], OBJ, math.nan, math.inf],
    "float": [True, "0.5", "x", [0.5], OBJ, math.nan, math.inf, -math.inf],
    "str": [True, 1, 0.5, ["a"], OBJ],
    "object": [True, 1, 0.5, "a", [1]],
    "list[float]": [True, 1, 0.5, "a", OBJ, ["a"], [True], [[0.5]], [0.5, math.nan]],
    "list[int]": [True, 1, "a", OBJ, ["a"], [1.5], [True]],
    "list[str]": [True, 1, "a.jsonl", OBJ, [1], [True], [None]],
    "int or list[int or null]": [True, 0.5, "1", OBJ, ["a"], [1.5], [True]],
    "list[float] or object": [True, 1, 0.5, "a", ["a"], [True], [0, math.nan, 3]],
}

BASE = {
    "analytic": {"preset": "table2"},
    "simulate": {
        "k": 2,
        "n_shots": 10,
        "failure": {"kind": "independent", "calibrate_discard": 0.5},
    },
    "gap-sweep": {},
    "layout": {},
}


def _set(cfg: dict, dotted: str, value) -> dict:
    cfg = json.loads(json.dumps(cfg))
    *parents, leaf = dotted.split(".")
    node = cfg
    for key in parents:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[leaf] = value
    return cfg


FUZZ_CASES = [
    (command, key, value)
    for command, keys in KEYS.items()
    for key, kind in keys.items()
    for value in WRONG[kind]
]


@pytest.mark.parametrize(
    "command,key,value",
    FUZZ_CASES,
    ids=[f"{c}-{k}-{json.dumps(v)}" for c, k, v in FUZZ_CASES],
)
def test_wrong_typed_value_is_one_config_error(tmp_path, capsys, command, key, value):
    records = tmp_path / "r.jsonl"
    records.write_text('{"gap": 1.0, "correct": true}\n')
    base = dict(BASE[command])
    if command == "gap-sweep" and key != "records":
        base["records"] = [str(records)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_set(base, key, value)))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    assert "Traceback" not in err


UNDECODABLE = [
    ("config", "cfg.json", EXIT_CONFIG),
    ("jsonl records", "r.jsonl", EXIT_FORMAT),
    ("csv records", "r.csv", EXIT_FORMAT),
    ("layout", "layout.txt", EXIT_FORMAT),
    ("analytic csv", "rows.csv", EXIT_FORMAT),
]


@pytest.mark.parametrize("what,name,expected", UNDECODABLE, ids=[u[0] for u in UNDECODABLE])
def test_non_utf8_input_is_one_line_error(tmp_path, capsys, what, name, expected):
    bad = tmp_path / name
    bad.write_bytes(b"\xff" + b"gap,correct\n")
    out = ["--out", str(tmp_path / "out")]
    if what == "config":
        argv = ["simulate", "--config", str(bad)]
    elif what.endswith("records"):
        argv = ["gap-sweep", "--records", str(bad)]
    else:
        key = "file" if what == "layout" else "input_csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: str(bad)}))
        argv = [what.split()[0], "--config", str(cfg)]
    assert main(argv + out) == expected
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    if expected == EXIT_FORMAT:
        assert lines[0].startswith("input format error: ") and str(bad) in lines[0]


def _round_trip(tmp_path, argv, report_name):
    """Run ``argv``, feed its report's config block back, return both reports."""
    first = tmp_path / "first"
    assert main(argv + ["--out", str(first)]) == EXIT_OK
    report = json.loads((first / report_name).read_text())
    cfg = tmp_path / "embedded.json"
    cfg.write_text(json.dumps(report["config"]))
    second = tmp_path / "second"
    assert main([argv[0], "--config", str(cfg), "--out", str(second)]) == EXIT_OK
    return (first / report_name).read_bytes(), (second / report_name).read_bytes()


def test_simulate_config_block_reproduces_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_shots": 3000, "escape": {"kind": "bernoulli", "q": 0.1}}))
    argv = ["simulate", "--preset", "d3-p0.002", "--seed", "7", "--config", str(cfg)]
    first, second = _round_trip(tmp_path, argv, "sim_summary.json")
    assert first == second


def test_gap_sweep_config_block_reproduces_report(tmp_path):
    records = tmp_path / "r.jsonl"
    records.write_text(
        "".join(json.dumps({"gap": float(g), "correct": g % 3 > 0}) + "\n" for g in range(12))
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_attempts": 30, "tail_window": [0, 6]}))
    argv = ["gap-sweep", "--records", str(records), "--config", str(cfg)]
    first, second = _round_trip(tmp_path, argv, "gap_report.json")
    assert first == second


def test_layout_config_block_reproduces_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "pack", "k_max": 3}))
    first, second = _round_trip(tmp_path, ["layout", "--config", str(cfg)], "layout_report.json")
    assert first == second


def test_analytic_config_block_reproduces_report(tmp_path):
    first, second = _round_trip(
        tmp_path, ["analytic", "--preset", "table3"], "analytic_report.json"
    )
    assert first == second


def test_config_block_and_hash_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fixture.jsonl").write_text(
        '{"gap": 10.0, "correct": true, "attempts_consumed": 2}\n'
        '{"gap": 5.0, "correct": false, "attempts_consumed": 3}\n'
        '{"gap": 20.0, "correct": true, "attempts_consumed": 1}\n'
    )
    sim = {
        "k": 4,
        "n_shots": 2000,
        "seed": 5,
        "failure": {"kind": "independent", "calibrate_discard": 0.4903},
        "escape": {
            "kind": "bernoulli",
            "q": 0.05,
            "gap_correct": {"kind": "exponential", "rate": 0.05},
        },
        "labels": {"d1": 3, "p": 0.002},
        "records": True,
    }
    gap = {
        "records": ["fixture.jsonl"],
        "n_attempts": 8,
        "thresholds": [0, 5, 10],
        "tail_window": [0, 20],
    }
    (tmp_path / "sim.json").write_text(json.dumps(sim))
    (tmp_path / "gap.json").write_text(json.dumps(gap))
    assert main(["simulate", "--config", "sim.json", "--out", "s"]) == EXIT_OK
    assert main(["gap-sweep", "--config", "gap.json", "--out", "g"]) == EXIT_OK
    sim_report = json.loads((tmp_path / "s" / "sim_summary.json").read_text())
    gap_report = json.loads((tmp_path / "g" / "gap_report.json").read_text())
    assert sim_report["config"] == {**sim, "preset": None}
    assert sim_report["provenance"]["config_hash"] == (
        "a2afe59fcd1fd7707b6598b75ecdf486b22af0e77b67501d0d90b6c0f95c5121"
    )
    assert gap_report["config"] == {**gap, "tail_window": [0.0, 20.0]}
    assert json.dumps(gap_report["config"]["tail_window"]) == "[0.0, 20.0]"
    assert gap_report["provenance"]["config_hash"] == (
        "f214672dc972a3e86753b3cd926856e4605a57a255ec77ce2df31714efd94680"
    )


HASHED = {
    "simulate": {
        "k": 4,
        "n_shots": 2000,
        "seed": 5,
        "failure": {"kind": "independent", "calibrate_discard": 0.4903},
        "escape": {"kind": "bernoulli", "q": 0.05},
        "records": True,
    },
    "gap-sweep": {"records": ["r.jsonl"], "n_attempts": 8, "tail_window": [0.0, 20.0]},
    "empty": {},
    "non_ascii_label": {"k": 2, "labels": {"name": "d=3 \u03c8 caf\u00e9 \U0001d53c"}},
}


@pytest.mark.parametrize("digest", ["loaded_hashlib", "builtin", "hashlib_fallback"])
@pytest.mark.parametrize("name", sorted(HASHED))
def test_config_hash_is_hashlib_sha256_of_the_canonical_json(monkeypatch, name, digest):
    calls = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(a) or real(*a))
    if digest != "loaded_hashlib":  # hashlib not loaded yet
        monkeypatch.delitem(sys.modules, "hashlib")
    if digest == "hashlib_fallback":  # neither built-in module can be imported
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
    builtin = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
    cfg = HASHED[name]
    assert _config_hash(cfg) == real(_canonical_json(cfg).encode("utf-8")).hexdigest()
    # a loaded hashlib's own SHA-256 is taken; hashlib is imported only where
    # no built-in SHA-256 can be
    assert len(calls) == (digest == "loaded_hashlib")
    assert ("hashlib" in sys.modules) == (digest != "builtin" or not builtin)


def test_nulls_are_absent_and_integral_floats_are_integers(tmp_path):
    plain = {"k": 2, "n_shots": 2000, "failure": {"calibrate_discard": 0.5}}
    loose = {**plain, "n_shots": 2e3, "seed": None, "stage_split": None}
    reports = []
    for name, cfg in (("plain", plain), ("loose", loose)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / name)]) == EXIT_OK
        reports.append(json.loads((tmp_path / name / "sim_summary.json").read_text()))
    assert reports[0] == reports[1]


def _assert_null_is_absent(tmp_path, key):
    """A simulate config with ``key`` null writes the report of one without it."""
    plain = {"k": 4, "n_shots": 2000, "failure": {"calibrate_discard": 0.5}}
    for name, cfg in (("plain", plain), ("null", {**plain, key: None})):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(tmp_path / f"{name}.json")]
        assert main(argv + ["--out", str(tmp_path / name)]) == EXIT_OK
    summary = "sim_summary.json"
    assert (tmp_path / "plain" / summary).read_bytes() == (tmp_path / "null" / summary).read_bytes()


def _assert_unknown_key(tmp_path, capsys, key, value):
    """A simulate config that sets ``key`` exits 2 with one line and writes nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE["simulate"], key: value}))
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: unknown simulate config keys: [{key!r}]"
    ]
    assert not (tmp_path / "out").exists()


def test_selection_priority_is_an_unknown_key(tmp_path, capsys):
    # the lowest-index survivor is always forwarded; a null stays absent
    _assert_null_is_absent(tmp_path, "selection_priority")
    _assert_unknown_key(tmp_path, capsys, "selection_priority", [1, 2, 3, 4])


@pytest.mark.parametrize(
    "value", WRONG["list[int]"], ids=[json.dumps(v) for v in WRONG["list[int]"]]
)
def test_every_selection_priority_value_is_an_unknown_key(tmp_path, capsys, value):
    # the key is gone, so its former type errors are unknown-key errors now
    _assert_unknown_key(tmp_path, capsys, "selection_priority", value)


def test_stage_split_is_an_unknown_key(tmp_path, capsys):
    # each site makes one early-stage test, so no key splits it into an
    # injection and a cultivation test; a null stays absent
    _assert_null_is_absent(tmp_path, "stage_split")
    split = {"injection_fail": [0.3, 0.3], "cultivation_fail": [0.2857142857142857] * 2}
    _assert_unknown_key(tmp_path, capsys, "stage_split", split)


STAGE_SPLIT_CASES = [
    (key, value)
    for key, kind in (
        ("stage_split", "object"),
        ("stage_split.injection_fail", "list[float]"),
        ("stage_split.cultivation_fail", "list[float]"),
    )
    for value in WRONG[kind]
]


@pytest.mark.parametrize(
    "key,value", STAGE_SPLIT_CASES, ids=[f"{k}-{json.dumps(v)}" for k, v in STAGE_SPLIT_CASES]
)
def test_every_stage_split_value_is_an_unknown_key(tmp_path, capsys, key, value):
    # the key is gone, so its former type errors, nested ones too, are
    # unknown-key errors now
    split = _set({}, key, value)["stage_split"]
    _assert_unknown_key(tmp_path, capsys, "stage_split", split)


def _tiny_gap_rate(rate: float, records: bool) -> dict:
    escape = {"kind": "bernoulli", "q": 0.1, "gap_correct": {"rate": rate}}
    failure = {"calibrate_discard": 0.5}
    return {"k": 4, "n_shots": 1000, "records": records, "failure": failure, "escape": escape}


@pytest.mark.parametrize(
    "cfg",
    [
        {"k": 1, "failure": {"calibrate_discard": 10**400}},
        {"k": 10**30, "failure": {"calibrate_discard": 0.5}},
        # 8 * 10**14 bytes of site rates: refused at once, before memory is touched
        {"k": 10**14, "failure": {"kind": "independent", "calibrate_discard": 0.5}, "n_shots": 10},
        _tiny_gap_rate(1e-320, records=True),
        _tiny_gap_rate(1e-320, records=False),
        # 17 bytes a shot of record columns, 1.7 * 10**16 in all: refused at once
        {"k": 4, "n_shots": 10**15, "records": True, "failure": {"calibrate_discard": 0.4903}},
    ],
    ids=[
        "float-key-beyond-double",
        "k-beyond-index",
        "k-beyond-memory",
        "gap-overflow-records",
        "gap-overflow",
        "records-beyond-memory",
    ],
)
def test_out_of_range_number_is_one_config_error(tmp_path, capsys, cfg):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not out.exists()  # refused before the output directory is made
    assert cfg.get("n_shots", 0) < 10**15 or "n_shots=1000000000000000" in lines[0]


def test_a_tiny_gap_rate_with_finite_gaps_runs(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_gap_rate(1e-306, records=True)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
    records = gap_analysis.RecordSet.from_jsonl(tmp_path / "records.jsonl")
    assert records.correct.any()
    assert np.isfinite(records.gaps).all() and records.gaps.max() > 1e300


# a linear grid of finite numbers can still overflow or fail to increase
BAD_GRIDS = [
    {"start": -1e308, "stop": 1e308, "count": 3},
    {"start": -1e308, "stop": 1.7e308, "count": 3},
    {"start": 1, "stop": 1.000000000000001, "count": 100},
]


@pytest.mark.parametrize("grid", BAD_GRIDS, ids=[json.dumps(g) for g in BAD_GRIDS])
def test_linear_grid_must_be_finite_and_increasing(tmp_path, capsys, grid):
    records = tmp_path / "r.jsonl"
    records.write_text('{"gap": 1.0, "correct": true}\n')
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"records": [str(records)], "thresholds": grid}))
    code = main(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert lines == ["config error: thresholds start, stop and count give no finite increasing grid"]


# each of these counts is refused before memory is touched: 10**15 floats
# cannot be allocated, 2**62 cannot be addressed, 2**63 - 1 wraps numpy's
# range length to an empty range, and 10**400 has no float step
@pytest.mark.parametrize(
    "count", [10**15, 2**62, 2**63 - 1, 10**400], ids=["1e15", "2^62", "2^63-1", "1e400"]
)
def test_a_grid_too_large_to_build_is_one_config_error_before_records_are_read(
    tmp_path, capsys, count
):
    records = tmp_path / "r.jsonl"
    records.write_text("not a record\n")  # reading it would exit 3
    cfg = tmp_path / "cfg.json"
    grid = {"start": 0, "stop": 1, "count": count}
    cfg.write_text(json.dumps({"records": [str(records)], "thresholds": grid}))
    code = main(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: thresholds.count {count} is too large to build the grid"
    ]
    assert not (tmp_path / "out").exists()


def refuse_to_allocate(*args, **kwargs):
    raise AssertionError("the grid was allocated")


# Under memory overcommit numpy grants a grid the host cannot back (10**10
# floats are 80 GB), and filling it gets the process killed; a count past
# physical memory is refused before anything is allocated. The memory probe
# is made small here, and nothing is ever allocated.
@pytest.mark.parametrize(
    "memory, count", [(8000, 1001), (2**33, 10**10)], ids=["8kB-1001", "8GB-1e10"]
)
def test_a_grid_past_physical_memory_is_one_config_error_before_it_is_built(
    tmp_path, capsys, monkeypatch, memory, count
):
    monkeypatch.setattr(curves, "_physical_memory", lambda: memory)
    monkeypatch.setattr(np, "arange", refuse_to_allocate)
    records = tmp_path / "r.jsonl"
    records.write_text("not a record\n")  # reading it would exit 3
    cfg = tmp_path / "cfg.json"
    grid = {"start": 0, "stop": 1, "count": count}
    cfg.write_text(json.dumps({"records": [str(records)], "thresholds": grid}))
    code = main(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: thresholds.count {count} is too large to build the grid"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("memory", [8000, 0], ids=["fits", "unknown"])
def test_a_grid_within_physical_memory_is_built(monkeypatch, memory):
    # 1000 floats fill 8000 bytes exactly; a host that does not say how much
    # memory it has bounds nothing
    monkeypatch.setattr(curves, "_physical_memory", lambda: memory)
    assert _threshold_grid({"start": 0.0, "stop": 999.0, "count": 1000}).tolist() == list(
        map(float, range(1000))
    )


def test_physical_memory_is_read_where_the_platform_says():
    memory = parts._physical_memory()
    if hasattr(os, "sysconf") and "SC_PHYS_PAGES" in os.sysconf_names:
        assert memory > 0
    else:
        assert memory == 0


LINEAR_GRIDS = [
    {"start": 0.0, "stop": 20.0, "count": 41},
    {"start": 0.1, "stop": 0.3, "count": 7},
    {"start": -3.7, "stop": 1e6, "count": 1001},
    {"start": 1, "stop": 7, "count": 4},
    {"start": -2, "stop": 0, "count": 3},
    {"start": 5e-324, "stop": 1e-300, "count": 9},
    {"start": -1e300, "stop": 1e300, "count": 5},
    {"start": 1e15, "stop": 1e15 + 3, "count": 4},
]


@pytest.mark.parametrize("spec", LINEAR_GRIDS, ids=[json.dumps(g) for g in LINEAR_GRIDS])
def test_linear_grid_is_the_python_float_grid_bit_for_bit(spec):
    start, stop, count = spec["start"], spec["stop"], spec["count"]
    step = (stop - start) / (count - 1)
    expected = tuple(start + i * step for i in range(count))
    grid = _threshold_grid(spec)
    assert isinstance(grid, np.ndarray) and grid.dtype == np.float64
    assert grid.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


def test_n_attempts_below_the_consumed_attempts_is_one_config_error(tmp_path, capsys):
    records = tmp_path / "r.jsonl"
    records.write_text(
        '{"gap": 1.0, "correct": true, "attempts_consumed": 4}\n'
        '{"gap": 2.0, "correct": false, "attempts_consumed": 6}\n'
    )
    cfg = tmp_path / "cfg.json"
    for n_attempts, code in ((5, EXIT_CONFIG), (9, EXIT_CONFIG), (10, EXIT_OK)):
        cfg.write_text(json.dumps({"records": [str(records)], "n_attempts": n_attempts}))
        assert main(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        lines = capsys.readouterr().err.splitlines()
        if code == EXIT_CONFIG:
            assert lines == [
                f"config error: {records}: n_attempts {n_attempts} is below the 10 "
                "attempts its records consumed"
            ]
    # a record without attempts_consumed still took one attempt
    records.write_text(
        '{"gap": 1.0, "correct": true, "attempts_consumed": 4}\n{"gap": 2.0, "correct": false}\n'
    )
    cfg.write_text(json.dumps({"records": [str(records)], "n_attempts": 4}))
    assert main(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "below the 5 attempts" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_one_config_error(tmp_path, capsys, workers):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": 2, "n_shots": 10, "failure": {"calibrate_discard": 0.5}}))
    code = main(
        ["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--workers", workers]
    )
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["config error: workers must be at least 1"]
    assert not (tmp_path / "out").exists()


RATES = {"calibrate_discard": 0.5}
UNREAD = {  # a simulate config part -> the one line it exits 2 with
    "always_keep-fields-of-other-kinds": (
        {
            "escape": {
                "kind": "always_keep",
                "keep_prob": 0.1,
                "q": 0.5,
                "pool_path": "/nonexistent.jsonl",
            }
        },
        "escape kind 'always_keep' does not read escape.keep_prob, escape.pool_path, escape.q",
    ),
    "default-kind-keep_prob": (
        {"escape": {"keep_prob": 0.5}},
        "escape kind 'always_keep' does not read escape.keep_prob",
    ),
    "always_keep-gap_error": (
        {"escape": {"kind": "always_keep", "gap_error": {"rate": 0.1}}},
        "escape kind 'always_keep' does not read escape.gap_error",
    ),
    "bernoulli-pool_path": (
        {"escape": {"kind": "bernoulli", "q": 0.1, "pool_path": "pool.jsonl"}},
        "escape kind 'bernoulli' does not read escape.pool_path",
    ),
    "empirical-q-and-gaps": (
        {"escape": {"kind": "empirical", "pool_path": "p.jsonl", "q": 0.1, "gap_correct": {}}},
        "escape kind 'empirical' does not read escape.gap_correct, escape.q",
    ),
    "independent-c": (
        {"failure": {"kind": "independent", "c": 0.1, **RATES}},
        "failure kind 'independent' with calibrate_discard does not read failure.c",
    ),
    "independent-table": (
        {"failure": {"table": [0.5, 0.5], **RATES}},
        "failure kind 'independent' with calibrate_discard does not read failure.table",
    ),
    "common_mode-table": (
        {"failure": {"kind": "common_mode", "c": 0.1, "table": [0.5, 0.5], **RATES}},
        "failure kind 'common_mode' with calibrate_discard does not read failure.table",
    ),
    "explicit_joint-c": (
        {"failure": {"kind": "explicit_joint", "c": 0.1, "table": [0.25] * 4, **RATES}},
        "failure kind 'explicit_joint' with calibrate_discard does not read failure.c",
    ),
    "per_site_fail-and-calibrate_discard": (
        {"k": 4, "failure": {"per_site_fail": [0.1] * 4, "calibrate_discard": 0.9}},
        "failure kind 'independent' with per_site_fail does not read failure.calibrate_discard",
    ),
    "constant-gap-rate": (
        {"escape": {"kind": "bernoulli", "gap_correct": {"kind": "constant", "rate": 0.1}}},
        "escape.gap_correct kind 'constant' does not read escape.gap_correct.rate",
    ),
    "exponential-gap-value": (
        {"escape": {"kind": "bernoulli", "gap_error": {"kind": "exponential", "value": 1.0}}},
        "escape.gap_error kind 'exponential' does not read escape.gap_error.value",
    ),
    "discrete_exponential-gap-value": (
        {"escape": {"gap_correct": {"value": 1.0, "rate": 0.1}}},
        "escape.gap_correct kind 'discrete_exponential' does not read escape.gap_correct.value",
    ),
    "unknown-escape-kind": ({"escape": {"kind": "sometimes"}}, "unknown escape model 'sometimes'"),
    "unknown-failure-kind": (
        {"failure": {"kind": "pairwise", **RATES}},
        "unknown failure kind 'pairwise'",
    ),
    "unknown-gap-kind": (
        {"escape": {"gap_correct": {"kind": "triangular"}}},
        "unknown gap distribution 'triangular'",
    ),
}


@pytest.mark.parametrize("part,line", UNREAD.values(), ids=list(UNREAD))
def test_a_key_its_kind_does_not_read_is_one_config_error(tmp_path, capsys, part, line):
    # no value is silently dropped: a key of the failure, escape or gap
    # object that its kind does not read exits 2 before anything is made
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE["simulate"], **part}))
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]
    assert not (tmp_path / "out").exists()


def test_a_null_key_its_kind_does_not_read_stays_absent(tmp_path):
    # the kind check reads the config as read, where null means absent
    base = {"k": 4, "n_shots": 2000, "records": True, "failure": {"calibrate_discard": 0.5}}
    nulls = {"keep_prob": None, "q": None, "gap_error": None, "pool_path": None}
    outputs = []
    for name, escape in (("plain", {}), ("null", nulls)):
        escape = {"kind": "always_keep", **escape}
        (tmp_path / f"{name}.json").write_text(json.dumps({**base, "escape": escape}))
        argv = ["simulate", "--config", str(tmp_path / f"{name}.json")]
        assert main(argv + ["--out", str(tmp_path / name)]) == EXIT_OK
        report = json.loads((tmp_path / name / "sim_summary.json").read_text())
        outputs.append((report["results"], (tmp_path / name / "records.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]


BERNOULLI = {"kind": "bernoulli", "q": 0.05}
NESTED_NULLS = {  # (config, the same config with null entries)
    "failure and escape": (
        {"failure": {"calibrate_discard": 0.5}, "escape": {"kind": "always_keep"}},
        {
            "failure": {"calibrate_discard": 0.5, "c": None},
            "escape": {"kind": "always_keep", "q": None},
        },
    ),
    "gap object": (
        {"escape": {**BERNOULLI, "gap_error": {"kind": "exponential"}}},
        {"escape": {**BERNOULLI, "gap_error": {"kind": "exponential", "value": None}}},
    ),
}


@pytest.mark.parametrize("plain,nulls", NESTED_NULLS.values(), ids=list(NESTED_NULLS))
def test_a_nested_null_is_absent_from_the_report(tmp_path, plain, nulls):
    # null means absent at any depth, so the report's config block and its
    # hash are those of the config without the null entries
    base = {"k": 4, "n_shots": 2000, "failure": {"calibrate_discard": 0.5}}
    for name, part in (("plain", plain), ("null", nulls)):
        (tmp_path / f"{name}.json").write_text(json.dumps({**base, **part}))
        argv = ["simulate", "--config", str(tmp_path / f"{name}.json")]
        assert main(argv + ["--out", str(tmp_path / name)]) == EXIT_OK
    summary = "sim_summary.json"
    assert (tmp_path / "plain" / summary).read_bytes() == (tmp_path / "null" / summary).read_bytes()
