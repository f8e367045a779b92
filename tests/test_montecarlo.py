import json
import math

import numpy as np
import pytest
from scipy import stats

from patchmux.analytics import (
    CommonMode,
    ExplicitJoint,
    FailureModel,
    ModelError,
    joint_all_fail_probability,
    product_joint_table,
)
from patchmux.gap_analysis import RecordSet, sweep
from patchmux.montecarlo import (
    EscapeModel,
    GapDistribution,
    SimConfig,
    StageSplit,
    calibrate_from_table,
    run_simulation,
    sample_shot,
    write_records_jsonl,
)
from patchmux.pipeline import SelectionRule


def summaries_equal(a, b) -> bool:
    if (
        a.shots != b.shots
        or a.early_discards != b.early_discards
        or a.kept != b.kept
        or a.site_survival_histogram != b.site_survival_histogram
        or a.empirical_discard != b.empirical_discard
        or a.empirical_attempts != b.empirical_attempts
    ):
        return False
    if (a.records is None) != (b.records is None):
        return False
    if a.records is not None:
        return (
            np.array_equal(a.records.shot_index, b.records.shot_index)
            and np.array_equal(a.records.gaps, b.records.gaps)
            and np.array_equal(a.records.correct, b.records.correct)
            and a.records.n_attempts == b.records.n_attempts
        )
    return True


def discard_sigma(d_all: float, n: int) -> float:
    return math.sqrt(d_all * (1 - d_all) / n)


def attempts_sigma(d_all: float, n: int) -> float:
    # delta method on A = n_shots / kept
    return math.sqrt(d_all / ((1 - d_all) ** 3 * n))


def test_identical_configs_reproduce_bit_identically():
    cfg = SimConfig(failure_model=calibrate_from_table(0.3, 4), n_shots=40_000, seed=99)
    assert summaries_equal(run_simulation(cfg), run_simulation(cfg))


def test_chunking_and_workers_do_not_change_results():
    cfg = SimConfig(failure_model=calibrate_from_table(0.49, 4), n_shots=30_000, seed=5)
    base = run_simulation(cfg, workers=1, chunk_size=30_000)
    for workers, chunk in ((1, 977), (4, 4096), (16, 333)):
        assert summaries_equal(base, run_simulation(cfg, workers=workers, chunk_size=chunk))


def test_sample_shot_is_pure():
    cfg = SimConfig(
        failure_model=calibrate_from_table(0.4, 4),
        n_shots=1000,
        seed=1234,
        escape_model=EscapeModel.bernoulli_error(0.2),
    )
    for idx in (0, 17, 999):
        a_out, a_rec = sample_shot(idx, cfg)
        b_out, b_rec = sample_shot(idx, cfg)
        assert a_out == b_out
        assert a_rec == b_rec


def test_sample_shot_agrees_with_vectorized_run():
    cfg = SimConfig(
        failure_model=FailureModel(per_site_fail=(0.2, 0.5, 0.7, 0.35)),
        n_shots=3000,
        seed=777,
        escape_model=EscapeModel.bernoulli_error(0.3, keep_prob=0.9),
    )
    summary = run_simulation(cfg, chunk_size=1024)
    kept_by_shot = {
        int(i): (float(g), bool(c))
        for i, g, c in zip(
            summary.records.shot_index, summary.records.gaps, summary.records.correct
        )
    }
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, cfg.n_shots, size=200):
        outcome, record = sample_shot(int(idx), cfg)
        if record is None:
            assert int(idx) not in kept_by_shot
        else:
            assert record == kept_by_shot[int(idx)]
            assert outcome.escape_kept is True


@pytest.mark.parametrize(
    "failure,escape",
    [
        (FailureModel.identical(0.5, 4, CommonMode(0.4)), EscapeModel.always_keep()),
        (
            FailureModel(
                per_site_fail=(0.3, 0.6, 0.2),
                correlation=ExplicitJoint(product_joint_table((0.3, 0.6, 0.2))),
            ),
            EscapeModel.bernoulli_error(0.4, keep_prob=0.7),
        ),
        (
            FailureModel(per_site_fail=(0.5, 0.5)),
            EscapeModel.empirical(RecordSet([1.0, 4.0], [True, False], n_attempts=2)),
        ),
    ],
)
def test_scalar_and_vector_paths_agree_across_models(failure, escape):
    cfg = SimConfig(failure_model=failure, n_shots=400, seed=314, escape_model=escape)
    summary = run_simulation(cfg, chunk_size=64)
    kept_by_shot = {
        int(i): (float(g), bool(c))
        for i, g, c in zip(
            summary.records.shot_index, summary.records.gaps, summary.records.correct
        )
    }
    discards = 0
    for idx in range(cfg.n_shots):
        outcome, record = sample_shot(idx, cfg)
        if outcome.discarded:
            discards += 1
        if record is None:
            assert idx not in kept_by_shot
        else:
            assert record == kept_by_shot[idx]
    assert discards == summary.early_discards


def test_never_failing_model_is_exact():
    cfg = SimConfig(failure_model=calibrate_from_table(0.0, 4), n_shots=5000, seed=3)
    summary = run_simulation(cfg)
    assert summary.empirical_discard == 0.0
    assert summary.empirical_attempts == 1.0
    assert summary.site_survival_histogram == (0, 0, 0, 0, 5000)


def test_always_failing_model_reports_infinite_attempts():
    cfg = SimConfig(failure_model=calibrate_from_table(1.0, 4), n_shots=2000, seed=3)
    summary = run_simulation(cfg)
    assert summary.early_discards == 2000
    assert summary.empirical_attempts == math.inf
    assert summary.warnings


def test_degenerate_rates_pin_the_candidate():
    cfg = SimConfig(
        failure_model=FailureModel(per_site_fail=(1.0, 1.0, 1.0, 0.0)),
        n_shots=500,
        seed=8,
    )
    summary = run_simulation(cfg)
    assert summary.site_survival_histogram == (0, 500, 0, 0, 0)
    outcome, _ = sample_shot(7, cfg)
    assert outcome.candidates.members == {4}
    assert outcome.selected == 4


def test_common_mode_fully_correlated_sites_share_fate():
    cfg = SimConfig(
        failure_model=FailureModel.identical(0.45, 4, CommonMode(1.0)),
        n_shots=20_000,
        seed=21,
    )
    summary = run_simulation(cfg)
    hist = summary.site_survival_histogram
    assert hist[1] == hist[2] == hist[3] == 0  # candidate sets are empty or full
    d_all = 0.45
    assert abs(summary.empirical_discard - d_all) <= 4 * discard_sigma(d_all, 20_000)


def test_candidate_size_histogram_is_binomial():
    d = 0.49
    n = 100_000
    cfg = SimConfig(failure_model=calibrate_from_table(d, 4), n_shots=n, seed=35)
    summary = run_simulation(cfg)
    expected = np.array(
        [stats.binom.pmf(s, 4, 1 - d) * n for s in range(5)]
    )
    observed = np.array(summary.site_survival_histogram, dtype=float)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < stats.chi2.ppf(1 - 1e-3, df=4)


@pytest.mark.parametrize(
    "model",
    [
        FailureModel(per_site_fail=(0.3, 0.6, 0.8, 0.2)),
        FailureModel.identical(0.55, 4, CommonMode(0.37)),
        FailureModel(
            per_site_fail=(0.25, 0.5, 0.75),
            correlation=ExplicitJoint(product_joint_table((0.25, 0.5, 0.75))),
        ),
    ],
)
def test_empirical_discard_matches_closed_form(model):
    n = 200_000
    cfg = SimConfig(failure_model=model, n_shots=n, seed=61)
    summary = run_simulation(cfg)
    d_all = joint_all_fail_probability(model)
    assert abs(summary.empirical_discard - d_all) <= 4 * discard_sigma(d_all, n)
    assert abs(summary.empirical_attempts - 1 / (1 - d_all)) <= 4 * attempts_sigma(d_all, n)


def test_correlated_joint_table_beyond_product_form():
    # explicit mixture of a comonotone table and the product table; marginals
    # stay at d, the all-fail mass is c*d + (1-c)*d**k
    d, c, k = 0.6, 0.5, 3
    product = product_joint_table((d,) * k)
    table = [(1 - c) * p for p in product]
    table[0] += c * (1 - d)
    table[-1] += c * d
    model = FailureModel((d,) * k, ExplicitJoint(tuple(table)))
    expected_all_fail = c * d + (1 - c) * d**k
    assert joint_all_fail_probability(model) == pytest.approx(expected_all_fail, abs=1e-12)
    n = 150_000
    summary = run_simulation(SimConfig(failure_model=model, n_shots=n, seed=77))
    assert abs(summary.empirical_discard - expected_all_fail) <= 4 * discard_sigma(
        expected_all_fail, n
    )


@pytest.mark.parametrize("d,printed_attempts", [(0.1560, 1.1849), (0.2873, 1.4031)])
def test_single_site_geometric_attempts(d, printed_attempts):
    n = 1_000_000
    cfg = SimConfig(
        failure_model=calibrate_from_table(d, 1), n_shots=n, seed=91, collect_records=False
    )
    summary = run_simulation(cfg)
    assert abs(summary.empirical_attempts - 1 / (1 - d)) <= 4 * attempts_sigma(d, n)
    assert abs(summary.empirical_attempts - printed_attempts) <= 3 * attempts_sigma(d, n)


def test_calibrate_from_table():
    model = calibrate_from_table(0.5931)
    assert model.k == 4
    assert model.per_site_fail == (0.5931,) * 4


def test_bernoulli_escape_error_fraction():
    q = 0.3
    cfg = SimConfig(
        failure_model=calibrate_from_table(0.2, 4),
        n_shots=100_000,
        seed=13,
        escape_model=EscapeModel.bernoulli_error(q),
    )
    summary = run_simulation(cfg)
    errors = int((~summary.records.correct).sum())
    kept = summary.kept
    assert abs(errors / kept - q) <= 4 * math.sqrt(q * (1 - q) / kept)
    assert summary.kept == summary.shots - summary.early_discards  # keep_prob 1


def test_keep_probability_rejects_shots_after_selection():
    cfg = SimConfig(
        failure_model=calibrate_from_table(0.0, 2),
        n_shots=50_000,
        seed=17,
        escape_model=EscapeModel.bernoulli_error(0.0, keep_prob=0.8),
    )
    summary = run_simulation(cfg)
    assert summary.early_discards == 0
    assert abs(summary.kept / summary.shots - 0.8) <= 4 * math.sqrt(0.8 * 0.2 / 50_000)


def test_empirical_escape_resamples_pool_values():
    pool = RecordSet([2.0, 5.0, 11.0], [True, False, True], n_attempts=3)
    cfg = SimConfig(
        failure_model=calibrate_from_table(0.1, 4),
        n_shots=5000,
        seed=19,
        escape_model=EscapeModel.empirical(pool),
    )
    summary = run_simulation(cfg)
    assert set(np.unique(summary.records.gaps)) <= {2.0, 5.0, 11.0}
    # flags must ride along with their gaps
    for gap, correct in zip(summary.records.gaps, summary.records.correct):
        assert correct == (gap != 5.0)


def test_records_jsonl_round_trip(tmp_path):
    cfg = SimConfig(
        failure_model=calibrate_from_table(0.45, 4),
        n_shots=20_000,
        seed=23,
        escape_model=EscapeModel.bernoulli_error(0.25),
    )
    summary = run_simulation(cfg)
    path = tmp_path / "records.jsonl"
    written = write_records_jsonl(summary, path)
    assert written == summary.kept
    loaded = RecordSet.from_jsonl(path)
    assert len(loaded) == summary.kept
    assert np.array_equal(loaded.gaps, summary.records.gaps)
    assert np.array_equal(loaded.correct, summary.records.correct)
    # attempt bookkeeping: consumed counts cover everything up to the last keep
    assert summary.records.n_attempts == summary.shots
    assert loaded.n_attempts == summary.records.shot_index[-1] + 1 <= summary.shots
    consumed = [json.loads(line)["attempts_consumed"] for line in path.read_text().splitlines()]
    assert consumed == np.diff(summary.records.shot_index, prepend=-1).tolist()


def test_record_set_reproduces_empirical_attempts_exactly():
    cfg = SimConfig(
        failure_model=calibrate_from_table(0.55, 4),
        n_shots=30_000,
        seed=29,
        escape_model=EscapeModel.bernoulli_error(0.2),
    )
    summary = run_simulation(cfg)
    curve = sweep(summary.records, [0.0])
    assert curve.points[0].attempts == summary.empirical_attempts


def test_stage_split_must_recombine():
    model = calibrate_from_table(0.28, 2)
    with pytest.raises(ModelError):
        SimConfig(
            failure_model=model,
            n_shots=10,
            seed=1,
            stage_split=StageSplit((0.1, 0.1), (0.1, 0.1)),
        )
    split = StageSplit((0.1, 0.1), (0.2, 0.2))  # 0.1 + 0.9*0.2 = 0.28
    cfg = SimConfig(failure_model=model, n_shots=100_000, seed=37, stage_split=split)
    summary = run_simulation(cfg)
    d_all = 0.28**2
    assert abs(summary.empirical_discard - d_all) <= 4 * discard_sigma(d_all, 100_000)
    outcome, _ = sample_shot(11, cfg)
    # split runs must still produce canonical indicator vectors
    assert all(c <= i for i, c in zip(outcome.indicators.inj, outcome.indicators.cult))


def test_stage_split_requires_independent_sites():
    with pytest.raises(ModelError):
        SimConfig(
            failure_model=FailureModel.identical(0.28, 2, CommonMode(0.5)),
            n_shots=10,
            seed=1,
            stage_split=StageSplit((0.1, 0.1), (0.2, 0.2)),
        )


def test_selection_rule_feeds_sample_shot():
    cfg = SimConfig(
        failure_model=calibrate_from_table(0.0, 4),
        n_shots=10,
        seed=41,
        selection_rule=SelectionRule.fixed_priority((3, 1, 2, 4)),
    )
    outcome, _ = sample_shot(0, cfg)
    assert outcome.selected == 3


def test_gap_distribution_validation():
    with pytest.raises(ModelError):
        GapDistribution("triangular")
    with pytest.raises(ModelError):
        GapDistribution("exponential", rate=0.0)
    with pytest.raises(ModelError):
        EscapeModel(kind="bernoulli", q=1.5)
    with pytest.raises(ModelError):
        EscapeModel(kind="empirical")


def test_config_validation():
    model = calibrate_from_table(0.5, 4)
    with pytest.raises(ValueError):
        SimConfig(failure_model=model, n_shots=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(failure_model=model, n_shots=10, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(
            failure_model=model,
            n_shots=10,
            seed=1,
            selection_rule=SelectionRule.fixed_priority((2, 1)),
        )
