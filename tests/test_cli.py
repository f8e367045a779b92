import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import patchmux
from patchmux import gap_analysis
from patchmux.cli import EXIT_CONFIG, EXIT_EMPTY, EXIT_FORMAT, EXIT_OK, main
from patchmux.cli_common import fmt6


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def test_analytic_preset_table2(tmp_path, capsys):
    assert run_cli("analytic", "--preset", "table2", "--out", str(tmp_path)) == EXIT_OK
    report = read_json(tmp_path / "analytic_report.json")
    assert report["command"] == "analytic"
    assert report["results"]["all_consistent"] is True
    assert len(report["results"]["rows"]) == 6
    assert "config_hash" in report["provenance"]
    out = capsys.readouterr().out
    assert "MISMATCH" not in out


def test_analytic_preset_table3(tmp_path):
    assert run_cli("analytic", "--preset", "table3", "--out", str(tmp_path)) == EXIT_OK
    rows = read_json(tmp_path / "analytic_report.json")["results"]["rows"]
    reductions = [r["reduction_pct"] for r in rows]
    expected = [16.87, 30.44, 49.04, 55.69, 70.72, 78.69]
    assert reductions == pytest.approx(expected, abs=0.01)


def test_analytic_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("analytic", "--preset", "table2", "--out", str(out_a))
    run_cli("analytic", "--preset", "table2", "--out", str(out_b))
    assert (out_a / "analytic_report.json").read_bytes() == (
        out_b / "analytic_report.json"
    ).read_bytes()
    assert (out_a / "analytic_table.csv").read_bytes() == (
        out_b / "analytic_table.csv"
    ).read_bytes()


def test_analytic_csv_input_with_saturated_row(tmp_path):
    src = tmp_path / "rows.csv"
    src.write_text("d1,p,D1,D4\n3,0.002,1.0,0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_csv": str(src)}))
    assert run_cli("analytic", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    table = (tmp_path / "analytic_table.csv").read_text()
    assert "inf" in table
    report = read_json(tmp_path / "analytic_report.json")
    assert report["results"]["rows"][0]["attempts_single"] == "inf"


def test_analytic_empty_csv_is_success(tmp_path):
    src = tmp_path / "rows.csv"
    src.write_text("d1,p,D1,D4\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_csv": str(src)}))
    assert run_cli("analytic", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    assert read_json(tmp_path / "analytic_report.json")["results"]["rows"] == []


def test_analytic_row_error_does_not_stop_table(tmp_path):
    src = tmp_path / "rows.csv"
    src.write_text("D1,D4\n1.7,0.5\n0.5,0.0625\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_csv": str(src)}))
    assert run_cli("analytic", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    rows = read_json(tmp_path / "analytic_report.json")["results"]["rows"]
    assert rows[0]["error"] is not None
    assert rows[1]["error"] is None
    # the error holds a comma, so its cell is quoted and every row keeps 14 cells
    with open(tmp_path / "analytic_table.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert [len(cells) for cells in table] == [14, 14, 14]
    assert table[1][-1] == rows[0]["error"] and "," in rows[0]["error"]
    assert table[2][-1] == ""


def test_analytic_malformed_csv_is_format_error(tmp_path, capsys):
    src = tmp_path / "rows.csv"
    src.write_text("D1,D4\noops,0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_csv": str(src)}))
    assert run_cli("analytic", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_FORMAT
    assert "line 2" in capsys.readouterr().err


def test_analytic_unknown_column_is_format_error(tmp_path):
    src = tmp_path / "rows.csv"
    src.write_text("D1,bogus\n0.5,0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_csv": str(src)}))
    assert run_cli("analytic", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_FORMAT


def _analytic_rows(tmp_path, text):
    src = tmp_path / "rows.csv"
    src.write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_csv": str(src)}))
    code = run_cli("analytic", "--config", str(cfg), "--out", str(tmp_path))
    return code, read_json(tmp_path / "analytic_report.json")["results"]["rows"] if code == EXIT_OK else None


def test_analytic_csv_reads_d1_and_D1_as_two_columns(tmp_path):
    code, rows = _analytic_rows(tmp_path, "d1,p,D1,D4\n3,0.002,0.5,0.0625\n")
    assert code == EXIT_OK
    assert (rows[0]["d1"], rows[0]["attempts_single"], rows[0]["error"]) == (3, 2.0, None)
    code, rows = _analytic_rows(tmp_path, "D1,d1,D4\n0.5,3,0.1\n")
    assert code == EXIT_OK
    assert (rows[0]["d1"], rows[0]["attempts_single"], rows[0]["error"]) == (3, 2.0, None)
    # names that are not exact still match ignoring case
    code, rows = _analytic_rows(tmp_path, "P,d4,D1\n0.002,0.0625,0.5\n")
    assert code == EXIT_OK
    assert (rows[0]["p"], rows[0]["attempts_multi"]) == (0.002, 1.06667)


@pytest.mark.parametrize(
    "text,message",
    [
        ("p,P\n0.1,0.2\n", "line 1: column 'p' is named twice"),
        ("D1,d4,D4\n0.5,0.1,0.1\n", "line 1: column 'D4' is named twice"),
        ("d1,D1\n3.5,0.5\n", "line 2: d1 must be an integer"),
        ("d1,D1\nnan,0.5\n", "line 2: d1 must be an integer"),
        ("d1,D1\ninf,0.5\n", "line 2: d1 must be an integer"),
        ("d1,p,A1,A4\n3,0.001,nan,1.2\n", "line 2: non-finite cell 'nan' in column A1"),
        ("D1,D4\n0.5,0.1\n-Infinity,0.1\n", "line 3: non-finite cell '-Infinity' in column D1"),
        ("p,d4,D1\n0.002,inf,0.5\n", "line 2: non-finite cell 'inf' in column d4"),
        ("rho,A1,A4\n NaN ,1.5,1.1\n", "line 2: non-finite cell 'NaN' in column rho"),
        ("p,D1,D4\n1e999,0.5,0.1\n", "line 2: non-finite cell '1e999' in column p"),
    ],
)
def test_analytic_csv_column_errors_are_one_line(tmp_path, capsys, text, message):
    code, _ = _analytic_rows(tmp_path, text)
    assert code == EXIT_FORMAT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and message in lines[0]


def test_unknown_preset_is_config_error(tmp_path, capsys):
    assert run_cli("analytic", "--preset", "nope", "--out", str(tmp_path)) == EXIT_CONFIG
    assert "unknown analytic preset" in capsys.readouterr().err


def test_unknown_config_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run_cli("simulate", "--config", str(cfg)) == EXIT_CONFIG


def test_missing_config_file_is_config_error(tmp_path):
    assert run_cli("analytic", "--config", str(tmp_path / "absent.json")) == EXIT_CONFIG


# d1, p and r1 are reported as written, an absent or null r1 as d1; d2 and
# r2 as integers, 15 and 5 when absent
@pytest.mark.parametrize(
    "written,labels",
    [
        (None, '{"d1": 3, "d2": 15, "p": 0.002, "r1": 3, "r2": 5}'),
        ('{"d1": 3, "p": 2e-3, "r1": 4}', '{"d1": 3, "d2": 15, "p": 0.002, "r1": 4, "r2": 5}'),
        ('{"d1": 5, "p": 0.001, "r1": null}', '{"d1": 5, "d2": 15, "p": 0.001, "r1": 5, "r2": 5}'),
        ('{"d1": 3.0, "d2": 11.0, "r2": 7}', '{"d1": 3.0, "d2": 11, "p": null, "r1": 3.0, "r2": 7}'),
    ],
    ids=["preset", "explicit_r1", "null_r1", "integer_d2_r2"],
)
def test_simulate_preset_and_labels(tmp_path, written, labels):
    argv = ["simulate", "--preset", "d3-p0.002", "--seed", "7", "--out", str(tmp_path / "out")]
    if written is not None:  # the config's labels replace the preset's
        (tmp_path / "sim.json").write_text(f'{{"n_shots": 2000, "labels": {written}}}')
        argv += ["--config", str(tmp_path / "sim.json")]
    assert run_cli(*argv) == EXIT_OK
    report = read_json(tmp_path / "out" / "sim_summary.json")
    assert report["provenance"]["seed"] == 7
    assert json.dumps(report["results"]["labels"]) == labels  # values and their types
    assert report["results"]["shots"] == (100000 if written is None else 2000)


def test_simulate_worker_count_does_not_change_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 20000,
                "seed": 11,
                "failure": {"kind": "independent", "calibrate_discard": 0.49},
                "escape": {"kind": "bernoulli", "q": 0.2},
                "records": True,
            }
        )
    )
    payloads = []
    for workers, sub in (("1", "w1"), ("4", "w4")):
        out = tmp_path / sub
        assert (
            run_cli(
                "simulate", "--config", str(cfg), "--workers", workers, "--out", str(out)
            )
            == EXIT_OK
        )
        payloads.append(
            (out / "sim_summary.json").read_bytes()
            + (out / "records.jsonl").read_bytes()
        )
    assert payloads[0] == payloads[1]


def test_simulate_nothing_kept_warns_with_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 100,
                "seed": 1,
                "failure": {"kind": "independent", "calibrate_discard": 1.0},
            }
        )
    )
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_EMPTY
    report = read_json(tmp_path / "sim_summary.json")
    assert report["results"]["empirical_attempts"] == "inf"
    assert report["results"]["warnings"]
    # every site fails: no kept fraction to retry toward, and no spread to divide by
    results = report["results"]
    assert results["closed_form_discard"] == 1.0 and results["closed_form_attempts"] == "inf"
    assert results["discard_stderr"] == 0.0 and results["discard_z"] is None
    assert results["kept_fraction_stderr"] == 0.0 and results["kept_fraction_z"] is None
    low, high = results["attempts_interval_95"]
    assert 1 < low < math.inf and high == "inf"
    # the law has one live cell, which holds every shot
    assert results["closed_form_site_survival_histogram"] == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert results["site_survival_chi2"] == 0 and results["site_survival_dof"] == 0


def test_simulate_one_live_cell_has_no_chi_square_spread(tmp_path):
    # three sites always fail and one never does: exactly one survives
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"n_shots": 500, "seed": 8, "failure": {"per_site_fail": [1, 1, 1, 0]}})
    )
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    results = read_json(tmp_path / "sim_summary.json")["results"]
    assert results["site_survival_histogram"] == [0, 500, 0, 0, 0]
    assert results["closed_form_site_survival_histogram"] == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert results["site_survival_chi2"] == 0 and results["site_survival_dof"] == 0


def test_simulate_reports_z_against_its_closed_form(tmp_path):
    # keep_prob below 1, so the kept fraction is not one minus the discard
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 20000,
                "seed": 11,
                "failure": {"kind": "independent", "calibrate_discard": 0.4903},
                "escape": {"kind": "bernoulli", "q": 0.05, "keep_prob": 0.8},
            }
        )
    )
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    results = read_json(tmp_path / "sim_summary.json")["results"]
    shots, kept = results["shots"], results["kept"]
    discard = 0.4903**4
    kept_fraction = (1 - discard) * 0.8
    assert results["closed_form_discard"] == float(fmt6(discard))
    assert results["closed_form_kept_fraction"] == float(fmt6(kept_fraction))
    assert results["closed_form_attempts"] == float(fmt6(1 / kept_fraction))
    for name, rate, count in (
        ("discard", discard, results["early_discards"]),
        ("kept_fraction", kept_fraction, kept),
    ):
        stderr = math.sqrt(rate * (1 - rate) / shots)
        assert results[f"{name}_stderr"] == float(fmt6(stderr))
        assert results[f"{name}_z"] == float(fmt6((count / shots - rate) / stderr))
    # the binomial law of four sites and Pearson's statistic over its cells
    law = [math.comb(4, s) * 0.5097**s * 0.4903 ** (4 - s) for s in range(5)]
    assert results["closed_form_site_survival_histogram"] == pytest.approx(law, rel=1e-5)
    observed = results["site_survival_histogram"]
    chi2 = sum((c - shots * p) ** 2 / (shots * p) for c, p in zip(observed, law))
    assert results["site_survival_chi2"] == pytest.approx(chi2, rel=1e-5)
    assert results["site_survival_dof"] == 4
    # Wilson's interval on kept / shots, inverted, holds the observed attempts
    low, high = results["attempts_interval_95"]
    assert low < shots / kept < high
    p, z = kept / shots, 1.959963984540054
    centre = (p + z * z / (2 * shots)) / (1 + z * z / shots)
    half = z * math.sqrt(p * (1 - p) / shots + z * z / (4 * shots * shots)) / (1 + z * z / shots)
    assert [low, high] == [float(fmt6(1 / (centre + half))), float(fmt6(1 / (centre - half)))]


def test_simulate_draws_from_a_pool_file_of_repeated_records(tmp_path):
    # a pool that a read folds into two rows; draws take records by rank
    pool = tmp_path / "pool.jsonl"
    pool.write_text('{"gap": 3, "correct": true}\n' * 60 + '{"gap": 8, "correct": false}\n' * 40)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 2000,
                "seed": 3,
                "records": True,
                "failure": {"kind": "independent", "calibrate_discard": 0.49},
                "escape": {"kind": "empirical", "pool_path": str(pool)},
            }
        )
    )
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_OK
    records = map(json.loads, (tmp_path / "out" / "records.jsonl").read_text().splitlines())
    assert {(r["gap"], r["correct"]) for r in records} == {(3.0, True), (8.0, False)}


def pool_lines(seed: int = 4) -> list[str]:
    """Writer-layout pool lines: repeated integer pairs out of (gap, flag)
    order, then distinct continuous gaps, so a read merges its first blocks
    and then expands them to records."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, 6, 300).astype(float).tolist() + (rng.random(300) * 50).tolist()
    flags = (rng.random(600) < 0.7).tolist()
    return [
        f'{{"gap": {g!r}, "correct": {"true" if c else "false"}, "attempts_consumed": {i % 3 + 1}}}\n'
        for i, (g, c) in enumerate(zip(gaps, flags))
    ]


def simulate_from_pool(tmp_path, pool: Path, name: str) -> bytes:
    """The records.jsonl of a records-on simulate drawing from ``pool``."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 3000,
                "seed": 5,
                "records": True,
                "failure": {"kind": "independent", "calibrate_discard": 0.49},
                "escape": {"kind": "empirical", "pool_path": str(pool), "keep_prob": 0.9},
            }
        )
    )
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / name)) == EXIT_OK
    return (tmp_path / name / "records.jsonl").read_bytes()


def test_a_shuffled_pool_file_writes_the_same_records(tmp_path):
    lines = pool_lines()
    pool, shuffled = tmp_path / "pool.jsonl", tmp_path / "shuffled.jsonl"
    pool.write_text("".join(lines))
    order = np.random.default_rng(9).permutation(len(lines))
    shuffled.write_text("".join(lines[i] for i in order))
    expected = simulate_from_pool(tmp_path, pool, "pool")
    assert simulate_from_pool(tmp_path, shuffled, "shuffled") == expected
    # draws are records of the pool, a gap of -0.0 counted as 0.0
    drawn = {(r["gap"], r["correct"]) for r in map(json.loads, expected.decode().splitlines())}
    assert drawn <= {(json.loads(x)["gap"] + 0.0, json.loads(x)["correct"]) for x in lines}


@pytest.mark.parametrize("cpus", [1, 2, 3], ids=lambda n: f"cpus{n}")
def test_a_pool_read_in_any_split_writes_the_same_records(tmp_path, monkeypatch, cpus):
    # blocks of about 16 lines and parts of 40 bytes: the ranges of repeated
    # pairs merge and the later ones keep records, so the rows a read returns
    # come in an order set by the cuts
    pool = tmp_path / "pool.jsonl"
    pool.write_text("".join(pool_lines()))
    expected = simulate_from_pool(tmp_path, pool, "serial")
    monkeypatch.setattr(gap_analysis, "_BYTE_BLOCK", 1024)
    monkeypatch.setattr(gap_analysis, "_PART_BYTES", 40)
    monkeypatch.setattr(gap_analysis, "_usable_cpus", lambda: cpus)
    read = gap_analysis.RecordSet.from_jsonl(pool)
    assert read.count is None and len(read) == 600  # merged, then expanded to records
    assert simulate_from_pool(tmp_path, pool, f"cpus{cpus}") == expected


def test_simulate_requires_a_model(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_shots": 10}))
    assert run_cli("simulate", "--config", str(cfg)) == EXIT_CONFIG


def test_simulate_k_mismatch_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"k": 3, "failure": {"kind": "independent", "per_site_fail": [0.1, 0.2]}}
        )
    )
    assert run_cli("simulate", "--config", str(cfg)) == EXIT_CONFIG


def _write_fixture_records(path):
    lines = [
        json.dumps({"gap": 10.0, "correct": True, "attempts_consumed": 2}),
        json.dumps({"gap": 5.0, "correct": False, "attempts_consumed": 3}),
        json.dumps({"gap": 20.0, "correct": True, "attempts_consumed": 1}),
    ]
    path.write_text("\n".join(lines) + "\n")


def test_gap_sweep_fixture_recount(tmp_path):
    records = tmp_path / "fixture.jsonl"
    _write_fixture_records(records)
    assert (
        run_cli("gap-sweep", "--records", str(records), "--out", str(tmp_path))
        == EXIT_OK
    )
    with open(tmp_path / "fixture_curve.csv") as fh:
        rows = {r["G"]: r for r in csv.DictReader(fh)}
    # n_attempts = 6 from the consumed counts; G=0 keeps all three records
    assert rows["0"]["attempts"] == "2"
    assert float(rows["0"]["logical_error"]) == pytest.approx(1 / 3)
    assert rows["10"]["kept_error"] == "0"
    assert rows["10"]["attempts"] == "3"


def test_gap_sweep_single_point_grid(tmp_path):
    records = tmp_path / "fixture.jsonl"
    _write_fixture_records(records)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"records": [str(records)], "thresholds": [0.0]}))
    assert run_cli("gap-sweep", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    with open(tmp_path / "fixture_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["kept_correct"] == "2" and rows[0]["kept_error"] == "1"


def test_gap_sweep_crossing_two_inputs(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    # curve a: errors concentrated at small gaps, so its error rate collapses
    # once G passes them; curve b: a mid-gap error that lingers
    a_records = [(1.0, False), (1.0, False), (2.0, True), (3.0, True)]
    b_records = [(1.0, True), (2.0, False), (3.0, True), (4.0, True)]
    a.write_text(
        "\n".join(json.dumps({"gap": g, "correct": c}) for g, c in a_records) + "\n"
    )
    b.write_text(
        "\n".join(json.dumps({"gap": g, "correct": c}) for g, c in b_records) + "\n"
    )
    assert (
        run_cli(
            "gap-sweep",
            "--records",
            str(a),
            "--records",
            str(b),
            "--out",
            str(tmp_path),
        )
        == EXIT_OK
    )
    report = read_json(tmp_path / "gap_report.json")
    crossing = report["results"]["crossing"]
    # on grid (0, 1, 2, 3, 4): p_a = (1/2, 1/2, 0, 0, nan) and
    # p_b = (1/4, 1/4, 1/3, 0, 0); the difference flips between G=1 and G=2,
    # interpolating to 1 + 0.25 / (0.25 + 1/3)
    assert crossing is not None
    assert crossing["threshold"] == pytest.approx(1.42857, abs=1e-4)


def test_gap_sweep_n_attempts_override(tmp_path):
    records = tmp_path / "fixture.jsonl"
    _write_fixture_records(records)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"records": [str(records)], "n_attempts": 12, "thresholds": [0.0]})
    )
    assert run_cli("gap-sweep", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    with open(tmp_path / "fixture_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["attempts"] == "4"  # 12 attempts / 3 kept


def test_gap_sweep_warns_when_it_sums_attempts_consumed(tmp_path, capsys):
    records = tmp_path / "fixture.jsonl"
    _write_fixture_records(records)
    inferred, given = tmp_path / "inferred", tmp_path / "given"
    assert run_cli("gap-sweep", "--records", str(records), "--out", str(inferred)) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"warning: {records}: n_attempts 6 is the sum of attempts_consumed")
    assert "pass the simulate report's shots as n_attempts" in err[0]
    # the warning changes no output file: the curve equals a run given the same total
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"records": [str(records)], "n_attempts": 6}))
    assert run_cli("gap-sweep", "--config", str(cfg), "--out", str(given)) == EXIT_OK
    assert capsys.readouterr().err == ""
    curve = "fixture_curve.csv"
    assert (inferred / curve).read_bytes() == (given / curve).read_bytes()


@pytest.mark.parametrize("n_attempts", [12, [12]], ids=["int", "list"])
def test_gap_sweep_is_silent_when_n_attempts_is_given(tmp_path, capsys, n_attempts):
    records = tmp_path / "fixture.jsonl"
    _write_fixture_records(records)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"records": [str(records)], "n_attempts": n_attempts}))
    assert run_cli("gap-sweep", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_gap_sweep_empty_records_warns(tmp_path, capsys):
    records = tmp_path / "empty.jsonl"
    records.write_text("")
    assert (
        run_cli("gap-sweep", "--records", str(records), "--out", str(tmp_path))
        == EXIT_EMPTY
    )
    assert "no records" in capsys.readouterr().out


def test_gap_sweep_schema_violation_is_format_error(tmp_path, capsys):
    records = tmp_path / "bad.jsonl"
    records.write_text('{"gap": 1.0, "correct": true}\n{"gap": -2, "correct": true}\n')
    assert (
        run_cli("gap-sweep", "--records", str(records), "--out", str(tmp_path))
        == EXIT_FORMAT
    )
    assert "record 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "records, message",
    [
        (
            '{"gap": 1.0, "correct": true, "attempts_consumed": 1}\n'
            f'{{"gap": 1.0, "correct": true, "attempts_consumed": {"9" * 400}}}\n',
            "record 2: attempts_consumed exceeds 9223372036854775807",
        ),
        (
            f'{{"gap": 1.0, "correct": true, "attempts_consumed": {2**62}}}\n' * 2,
            "record 2: attempts_consumed total exceeds 9223372036854775807",
        ),
        (
            f'{{"gap": 1.0, "correct": true}}\n{{"gap": {"9" * 400}, "correct": true}}\n',
            f"record 2: gap {'9' * 400} out of range",
        ),
    ],
    ids=["attempts_consumed", "attempts_total", "integer_gap"],
)
def test_gap_sweep_oversized_integers_are_format_errors(tmp_path, capsys, records, message):
    path = tmp_path / "big.jsonl"
    path.write_text(records)
    assert run_cli("gap-sweep", "--records", str(path), "--out", str(tmp_path)) == EXIT_FORMAT
    assert capsys.readouterr().err == f"input format error: {message}\n"


def test_gap_sweep_oversized_csv_cell_is_one_format_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text('gap,correct\n1,true\n"' + "1" * 200_000 + '",true\n')
    assert run_cli("gap-sweep", "--records", str(path), "--out", str(tmp_path)) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"input format error: {path}: record 2: field larger than field limit"
        f" ({csv.field_size_limit()})"
    ]


def test_gap_sweep_reads_a_csv_with_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a BOM
    path = tmp_path / "excel.csv"
    path.write_text("\ufeffgap,correct\r\n1,true\r\n2,false\r\n", encoding="utf-8")
    assert run_cli("gap-sweep", "--records", str(path), "--out", str(tmp_path)) == EXIT_OK
    assert read_json(tmp_path / "gap_report.json")["results"]["inputs"][0]["records"] == 2


def test_gap_sweep_missing_file_is_config_error(tmp_path):
    assert (
        run_cli("gap-sweep", "--records", str(tmp_path / "none.jsonl")) == EXIT_CONFIG
    )


def test_gap_sweep_tail_window(tmp_path):
    records = tmp_path / "tail.jsonl"
    lines = [
        json.dumps({"gap": float(g), "correct": False})
        for g in (0, 0, 0, 0, 1, 1, 2, 2, 3, 4)
    ]
    records.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "records": [str(records)],
                "thresholds": [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0],
                "tail_window": [0.0, 4.0],
            }
        )
    )
    assert run_cli("gap-sweep", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    with open(tmp_path / "tail_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    flagged = [r for r in rows if r["extrapolated"] == "true"]
    assert {r["G"] for r in flagged} == {"6", "8"}
    report = read_json(tmp_path / "gap_report.json")
    assert "rate" in report["results"]["inputs"][0]["tail"]


@pytest.mark.parametrize("window", [[20, 2], [5, 5]])
def test_gap_sweep_rejects_a_reversed_or_empty_tail_window(tmp_path, capsys, window):
    records = tmp_path / "bad.jsonl"
    records.write_text("not json\n")  # would exit 3 if it were read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"records": [str(records)], "tail_window": window}))
    assert run_cli("gap-sweep", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: tail_window must be [low, high] with low < high\n"
    )
    assert not (tmp_path / "gap_report.json").exists()


def test_layout_canonical_validation(tmp_path):
    assert run_cli("layout", "--out", str(tmp_path)) == EXIT_OK
    report = read_json(tmp_path / "layout_report.json")
    body = report["results"]["layout"]
    assert body["containment_ok"] and body["nonoverlap_ok"]
    assert body["idle_count"] == 241
    art = (tmp_path / "layout_map.txt").read_text()
    assert art.count(".") == 241


def test_layout_injection_stage(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stage": "injection"}))
    assert run_cli("layout", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    body = read_json(tmp_path / "layout_report.json")["results"]["layout"]
    assert body["idle_count"] == 357


def test_layout_pack_mode(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "pack", "k_max": 4}))
    assert run_cli("layout", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    body = read_json(tmp_path / "layout_report.json")["results"]["layout"]
    assert body["placements"] == 4
    assert body["nonoverlap_ok"]


def test_layout_overlapping_fixture_reports_collisions(tmp_path):
    layout_file = tmp_path / "bad_layout.txt"
    layout_file.write_text(
        "[patch]\n"
        + "\n".join(f"{x} {y}" for x in range(6) for y in range(6))
        + "\n[footprint cultivation]\n0 0\n1 0\n0 1\n"
        + "[site R0 0 0]\n[site R0 0 0]\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"file": str(layout_file)}))
    assert run_cli("layout", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
    body = read_json(tmp_path / "layout_report.json")["results"]["layout"]
    assert body["nonoverlap_ok"] is False
    overlap = [v for v in body["violations"] if v["kind"] == "overlap"]
    assert sorted(map(tuple, overlap[0]["cells"])) == [(0, 0), (0, 1), (1, 0)]


def test_layout_parse_error_is_format_error(tmp_path, capsys):
    layout_file = tmp_path / "broken.txt"
    layout_file.write_text("[patch]\n0 zero\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"file": str(layout_file)}))
    assert run_cli("layout", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_FORMAT
    assert capsys.readouterr().err == "input format error: line 2: non-integer cell '0 zero'\n"


def test_layout_pack_infeasible_is_empty_result(tmp_path):
    layout_file = tmp_path / "tiny.txt"
    layout_file.write_text("[patch]\n0 0\n\n[footprint cultivation]\n0 0\n1 0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"file": str(layout_file), "mode": "pack", "k_max": 2}))
    assert run_cli("layout", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_EMPTY


def test_an_empty_footprint_stanza_is_a_config_error(tmp_path, capsys):
    layout_file = tmp_path / "empty.txt"
    layout_file.write_text("[patch]\n0 0\n1 0\n\n[footprint cultivation]\n\n[site R0 0 0]\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"file": str(layout_file)}))
    assert run_cli("layout", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: cultivation footprint has no cells\n"


@pytest.mark.parametrize("command", ["analytic", "layout"])
def test_an_input_file_may_start_with_a_bom(tmp_path, command):
    # as Excel's "CSV UTF-8" export writes: the same results and table or map
    if command == "analytic":
        key, text, artifact = "input_csv", "d1,p,D1,D4\n3,0.002,0.5,0.2\n", "analytic_table.csv"
    else:
        key, artifact = "file", "layout_map.txt"
        text = (Path(patchmux.__file__).parent / "data" / "canonical_layout.txt").read_text()
    outputs = []
    for name, prefix in (("plain", ""), ("marked", "\ufeff")):
        run = tmp_path / name
        run.mkdir()
        (run / "input").write_text(prefix + text, encoding="utf-8")
        (run / "cfg.json").write_text(json.dumps({key: str(run / "input")}))
        argv = ["--config", str(run / "cfg.json"), "--out", str(run / "out")]
        assert run_cli(command, *argv) == EXIT_OK
        results = read_json(run / "out" / f"{command}_report.json")["results"]
        assert results.pop("source") == str(run / "input")
        outputs.append((results, (run / "out" / artifact).read_bytes()))
    assert outputs[1] == outputs[0]


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "via_env"
    monkeypatch.setenv("PATCHMUX_OUT", str(target))
    assert run_cli("analytic", "--preset", "table2") == EXIT_OK
    assert (target / "analytic_report.json").is_file()


def test_simulate_records_feed_gap_sweep_through_files(tmp_path):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 30000,
                "seed": 55,
                "failure": {"kind": "independent", "calibrate_discard": 0.52},
                "escape": {"kind": "bernoulli", "q": 0.1},
                "records": True,
            }
        )
    )
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(sim_out)) == EXIT_OK
    summary = read_json(sim_out / "sim_summary.json")

    sweep_cfg = tmp_path / "gap.json"
    sweep_cfg.write_text(
        json.dumps(
            {
                "records": [str(sim_out / "records.jsonl")],
                "n_attempts": summary["results"]["shots"],
                "thresholds": [0.0],
            }
        )
    )
    sweep_out = tmp_path / "swp"
    assert run_cli("gap-sweep", "--config", str(sweep_cfg), "--out", str(sweep_out)) == EXIT_OK
    with open(sweep_out / "records_curve.csv") as fh:
        row = next(csv.DictReader(fh))
    kept = summary["results"]["kept"]
    assert int(row["kept_correct"]) + int(row["kept_error"]) == kept
    # curve CSV carries 10 significant digits
    assert float(row["attempts"]) == pytest.approx(
        summary["results"]["shots"] / kept, rel=1e-9
    )


def test_rerun_with_embedded_config_reproduces_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 5000,
                "seed": 21,
                "failure": {"kind": "independent", "calibrate_discard": 0.3},
            }
        )
    )
    out_a = tmp_path / "a"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out_a)) == EXIT_OK
    report = read_json(out_a / "sim_summary.json")
    # rebuild a config file from the embedded effective config
    embedded = {
        k: v
        for k, v in report["config"].items()
        if v is not None and k not in ("records",)
    }
    cfg_b = tmp_path / "cfg_b.json"
    cfg_b.write_text(json.dumps(embedded))
    out_b = tmp_path / "b"
    assert run_cli("simulate", "--config", str(cfg_b), "--out", str(out_b)) == EXIT_OK
    assert (out_a / "sim_summary.json").read_bytes() == (
        out_b / "sim_summary.json"
    ).read_bytes()


def test_cli_import_loads_no_layout_or_process_pool_modules():
    code = (
        "import sys, patchmux.cli; "
        "print(sorted(m for m in sys.modules if m in {"
        "'patchmux.geometry', 'patchmux.layout_io', 'patchmux.presets', "
        "'multiprocessing', 'concurrent.futures.process'}))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(patchmux.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("command", ["analytic", "simulate", "gap-sweep", "layout"])
def test_a_config_error_exits_2_when_run_as_a_module(tmp_path, command):
    # ``python -m patchmux.cli`` runs the CLI as __main__; a command's config
    # error is still caught and reported
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(patchmux.__file__))}
    absent = tmp_path / "absent.json"
    out = subprocess.run(
        [sys.executable, "-m", "patchmux.cli", command, "--config", str(absent)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stderr) == (2, f"config error: config file not found: {absent}\n")
