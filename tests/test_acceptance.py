"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import json
import math
import time

import numpy as np

from patchmux.analytics import (
    CommonMode,
    ExplicitJoint,
    FailureModel,
    attempt_reduction,
    attempts_interval,
    expected_attempts,
    iid_multiplex_discard,
    joint_all_fail_probability,
    multiplex_pass_probability,
    printed_match,
    product_joint_table,
    reduction_interval,
)
from patchmux.cli import main as cli_main
from patchmux.gap_analysis import RecordSet, SweepCurve, find_crossing, sweep
from patchmux.geometry import PatchLayout, Rotation, Stage, rotate_footprint, validate_layout
from patchmux.layout_io import canonical_layout
from patchmux.montecarlo import SimConfig, run_simulation
from patchmux.presets import EARLY_STAGE_TABLE, FULL_CYCLE_TABLE


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")
            return result

        return wrapper

    return decorate


@criterion(1, "early-stage table arithmetic reproduced within rounding")
def test_criterion_1_early_stage_table():
    start = time.perf_counter()
    for row in EARLY_STAGE_TABLE:
        assert printed_match(row.attempts_single, attempts_interval(row.discard_single))
        assert printed_match(row.attempts_multi, attempts_interval(row.discard_multi))
        assert printed_match(
            row.reduction_pct,
            reduction_interval(row.discard_single, row.discard_multi),
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "full-cycle reduction percentages reproduced to 0.01 points")
def test_criterion_2_full_cycle_table():
    start = time.perf_counter()
    printed = [16.87, 30.44, 49.04, 55.69, 70.72, 78.69]
    for row, expected in zip(FULL_CYCLE_TABLE, printed):
        computed = attempt_reduction(row.attempts_single, row.attempts_multi)
        assert abs(computed - expected) <= 0.01, (row, computed)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(3, "independent-site estimate matches and lower-bounds measurements")
def test_criterion_3_independent_site_estimate():
    estimate = iid_multiplex_discard(0.1560, 4)
    assert abs(estimate - 5.92e-4) <= 5e-7
    assert f"{estimate:.2%}" == "0.06%"
    for row in EARLY_STAGE_TABLE:
        assert iid_multiplex_discard(row.discard_single, 4) <= row.discard_multi


@criterion(4, "million-shot runs agree with closed forms within 4 sigma")
def test_criterion_4_monte_carlo_agreement():
    start = time.perf_counter()
    n = 1_000_000
    for i, row in enumerate(EARLY_STAGE_TABLE):
        d_all = row.discard_single**4
        config = SimConfig(
            failure_model=FailureModel.identical(row.discard_single, 4),
            n_shots=n,
            seed=1000 + i,
            collect_records=False,
        )
        summary = run_simulation(config, chunk_size=1 << 18)
        sigma_d = math.sqrt(d_all * (1 - d_all) / n)
        assert abs(summary.empirical_discard - d_all) <= 4 * sigma_d, row
        sigma_a = math.sqrt(d_all / ((1 - d_all) ** 3 * n))
        assert abs(summary.empirical_attempts - expected_attempts(d_all)) <= 4 * sigma_a, row
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(5, "common-mode degeneracies: c=0 is independent, c=1 is one site")
def test_criterion_5_common_mode_degeneracies():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        rates = tuple(float(x) for x in rng.random(4))
        zero_c = multiplex_pass_probability(FailureModel(rates, CommonMode(0.0)))
        independent = multiplex_pass_probability(FailureModel(rates))
        assert abs(zero_c - independent) <= 1e-12
    d = 0.55
    fully = FailureModel.identical(d, 4, CommonMode(1.0))
    assert joint_all_fail_probability(fully) == d
    n = 100_000
    summary = run_simulation(
        SimConfig(failure_model=fully, n_shots=n, seed=512, collect_records=False)
    )
    assert abs(summary.empirical_discard - d) <= 4 * math.sqrt(d * (1 - d) / n)


@criterion(6, "explicit joint product tables reproduce independent results")
def test_criterion_6_joint_table_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        rates = tuple(float(x) for x in rng.random(k))
        joint = FailureModel(rates, ExplicitJoint(product_joint_table(rates)))
        plain = FailureModel(rates)
        assert abs(
            multiplex_pass_probability(joint) - multiplex_pass_probability(plain)
        ) <= 1e-12


@criterion(7, "sweeps equal brute-force recounts; sentinels never fabricate zeros")
def test_criterion_7_sweep_recount_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        n_rec = int(rng.integers(0, 21))
        records = [
            (float(rng.integers(0, 30)), bool(rng.integers(0, 2))) for _ in range(n_rec)
        ]
        gaps = np.array([g for g, _ in records], dtype=np.float64)
        correct = np.array([c for _, c in records], dtype=bool)
        rs = RecordSet(gaps, correct, n_attempts=n_rec + int(rng.integers(1, 20)))
        curve = sweep(rs)
        previous_attempts = 0.0
        for point in curve.rows():
            kc = sum(1 for g, c in records if c and g >= point.threshold)
            ke = sum(1 for g, c in records if not c and g >= point.threshold)
            assert (point.kept_correct, point.kept_error) == (kc, ke)
            if kc + ke:
                assert point.attempts == rs.n_attempts / (kc + ke)
                assert point.attempts >= previous_attempts
                previous_attempts = point.attempts
                assert point.logical_error == ke / (kc + ke)
            else:
                assert math.isnan(point.logical_error), "empty kept set must be undefined"
                assert math.isnan(point.attempts)


@criterion(8, "canonical geometry: idle counts and rotation group behavior")
def test_criterion_8_geometry_suite():
    cultivation = canonical_layout(Stage.CULTIVATION)
    report = validate_layout(cultivation)
    assert report.ok and report.idle_count == 241
    injection = canonical_layout(Stage.INJECTION)
    report = validate_layout(injection)
    assert report.ok and report.idle_count == 357
    single = PatchLayout(injection.patch, injection.sites[:1], Stage.INJECTION)
    assert validate_layout(single).idle_count == 429

    rng = np.random.default_rng(99)
    for _ in range(100):
        w, h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        mask = rng.random((w, h)) < 0.5
        cells = {(x, y) for x in range(w) for y in range(h) if mask[x, y]} or {(0, 0)}
        x0 = min(c[0] for c in cells)
        y0 = min(c[1] for c in cells)
        from patchmux.geometry import CellSet

        shape = CellSet.of((x - x0, y - y0) for x, y in cells)
        turned = shape
        for _ in range(4):
            turned = rotate_footprint(turned, Rotation.R90)
            assert len(turned) == len(shape)
        assert turned == shape


@criterion(9, "simulate output is byte-identical across 1, 4 and 16 workers")
def test_criterion_9_worker_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 50_000,
                "seed": 9,
                "failure": {"kind": "independent", "calibrate_discard": 0.4903},
                "escape": {"kind": "bernoulli", "q": 0.15},
                "records": True,
            }
        )
    )
    payloads = []
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}"
        code = cli_main(
            [
                "simulate",
                "--config",
                str(cfg_path),
                "--workers",
                str(workers),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payloads.append(
            (
                (out / "sim_summary.json").read_bytes(),
                (out / "records.jsonl").read_bytes(),
            )
        )
    assert payloads[0] == payloads[1] == payloads[2]


@criterion(10, "crossing detector validated on the synthetic intersection fixture")
def test_criterion_10_crossing_oracle():
    # Reference crossing thresholds require the upstream per-shot decoder
    # data, which this artifact does not ship; the detector is validated on a
    # fixture whose intersection is known analytically (50 exactly).
    def curve(grid, values):
        # 1000 kept records per threshold, round(1000 p) of them errors
        kept_error = [round(1000 * v) for v in values]
        return SweepCurve(
            grid, [1000 - e for e in kept_error], kept_error, n_attempts=10_000
        )

    for grid in ([0.0, 20.0, 48.0, 52.0, 80.0], [0.0, 25.0, 50.0, 75.0]):
        sloped = curve(grid, [0.2 - 0.002 * g for g in grid])
        flat = curve(grid, [0.1] * len(grid))
        crossing = find_crossing(sloped, flat)
        assert crossing is not None
        assert abs(crossing.threshold - 50.0) <= 1e-9
    assert find_crossing(flat, flat) is None
    print(
        "[NOTE] criterion 10: reference crossing values are reproducible only "
        "from ingested upstream per-shot data"
    )
