"""Smoke tests of the benchmark: every metric is printed and every output check runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import traced_cli  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_lists_every_workload():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_reported(name, trace, kind):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "fail_ratio" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    argv = [sys.executable, "perfbench/run.py", "--workload", "sim_chain", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _one_chain(cls, tmp_path):
    workload = cls(5, True, tmp_path)
    workload.prepare()
    bench = run.Bench(workload, tmp_path)
    chain = bench.run_chain(0, traced=False)
    assert not bench.failed_ops
    return workload, bench, chain


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc["results"])
    path.write_text(json.dumps(doc))


def test_sim_chain_checks_catch_tampering(tmp_path):
    workload, _, chain = _one_chain(workloads.SimChain, tmp_path)
    simulate, sweep = workload.chain(chain.out)
    out = chain.out
    assert simulate.check(out) == [] and sweep.check(out) == []

    with open(out / "sim" / "records.jsonl", "a") as fh:
        fh.write('{"gap": 1.0, "correct": true, "attempts_consumed": 1}\n')
    assert simulate.check(out) and sweep.check(out)

    _edit_json(out / "sim" / "sim_summary.json", lambda r: r.update(early_discards=r["early_discards"] + 1))
    assert any("early_discards" in p for p in simulate.check(out))

    _edit_json(out / "sim" / "sim_summary.json", lambda r: r.update(early_discards=0, kept=r["shots"]))
    assert any("sigma" in p for p in simulate.check(out))

    curve = out / "sweep" / "records_curve.csv"
    curve.write_text("".join(curve.read_text().splitlines(keepends=True)[:-1]))
    assert any("rows" in p for p in sweep.check(out))


def test_crossing_check_uses_independent_recount(tmp_path):
    workload, _, chain = _one_chain(workloads.CrossingPair, tmp_path)
    (step,) = workload.chain(chain.out)
    assert workload.crossing is not None
    report = chain.out / "sweep" / "gap_report.json"
    _edit_json(report, lambda r: r["crossing"].update(bracket=[0.0, 1.0]))
    assert any("crossing" in p for p in step.check(chain.out))
    _edit_json(report, lambda r: r.update(crossing=None))
    assert any("crossing" in p for p in step.check(chain.out))


def test_rerun_mismatch_fails_the_operation(tmp_path):
    _, bench, first = _one_chain(workloads.SamplerScale, tmp_path)
    second = bench.run_chain(1, traced=False)
    bench.rerun_check([first, second])
    assert not bench.failed_ops
    second.digests = {k: "0" * 64 for k in second.digests}
    bench.rerun_check([first, second])
    assert bench.failed_ops == {second.first_op}


def test_first_order_change():
    import numpy as np

    grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert workloads.first_order_change(grid, np.array([0.3, 0.1, -0.1, -0.2, 0.0])) == (1.5, (1.0, 2.0))
    assert workloads.first_order_change(grid, np.array([0.3, 0.0, 0.0, -0.2, 0.1])) == (1.0, (1.0, 1.0))
    assert workloads.first_order_change(grid, np.array([0.3, np.nan, -0.1, -0.2, np.nan])) is None


def test_self_times():
    def span(i, parent, start, end):
        return {"id": i, "parent": parent, "start": start, "end": end}

    spans = [span("a", None, 0.0, 10.0), span("b", "a", 1.0, 4.0), span("c", "a", 3.0, 6.0),
             span("d", "b", 1.5, 2.0)]
    assert run.self_times(spans) == {"a": 5.0, "b": 2.5, "c": 3.0, "d": 0.5}


def test_traced_cli_restores_every_name(tmp_path):
    from patchmux import cli, gap_analysis

    records = tmp_path / "r.csv"
    records.write_text("gap,correct\n1,true\n2,false\n3,true\n")
    before = {attr: vars(owner)[attr] for owner, attr, _, _ in traced_cli._targets(cli, gap_analysis)}
    spans_path = tmp_path / "spans.json"
    code = traced_cli.run_traced(["gap-sweep", "--records", str(records), "--out", str(tmp_path)],
                                 spans_path, "run", "parent")
    assert code == 0
    after = {attr: vars(owner)[attr] for owner, attr, _, _ in traced_cli._targets(cli, gap_analysis)}
    assert after == before
    spans = json.loads(spans_path.read_text())
    names = {s["name"] for s in spans}
    assert {"cli.main", "gap_analysis.from_csv", "gap_analysis.sweep", "gap_analysis.write_curve_csv"} <= names
    main = next(s for s in spans if s["name"] == "cli.main")
    assert main["parent"] == "parent"
    assert all(s["parent"] == main["id"] for s in spans if s is not main)
    assert next(s for s in spans if s["name"] == "gap_analysis.from_csv")["attrs"]["records"] == 3
