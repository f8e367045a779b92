import io
import json
import math
import os
import threading
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from patchmux import gap_analysis, montecarlo
from patchmux.analytics import (
    CommonMode,
    ExplicitJoint,
    FailureModel,
    ModelError,
    joint_all_fail_probability,
    product_joint_table,
)
from patchmux.cli import write_records_jsonl
from patchmux.gap_analysis import RecordSet, sweep
from patchmux.montecarlo import EscapeModel, GapDistribution, SimConfig, run_simulation


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
    cfg = SimConfig(failure_model=FailureModel.identical(0.3, 4), n_shots=40_000, seed=99)
    assert summaries_equal(run_simulation(cfg), run_simulation(cfg))


def run_in_blocks(monkeypatch, cfg, workers, block):
    """``run_simulation`` on ``workers`` with ``block``-shot blocks."""
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    return run_simulation(cfg, workers=workers)


def test_block_size_and_workers_do_not_change_results(monkeypatch):
    cfg = SimConfig(failure_model=FailureModel.identical(0.49, 4), n_shots=30_000, seed=5)
    base = run_simulation(cfg, workers=1)
    for workers, block in ((1, 977), (4, 4096), (16, 333)):
        assert summaries_equal(base, run_in_blocks(monkeypatch, cfg, workers, block))


def test_a_joint_selector_crosses_worker_boundaries(monkeypatch):
    # the explicit-joint selector reads whole words of slot 0, so blocks and
    # workers must cut that stream at the same shots as the site words
    rates = (0.4903,) * 4
    cfg = SimConfig(
        failure_model=FailureModel(rates, ExplicitJoint(product_joint_table(rates))),
        n_shots=30_000,
        seed=5,
    )
    base = run_simulation(cfg, workers=1)
    for workers, block in ((1, 977), (2, 4096), (4, 333)):
        assert summaries_equal(base, run_in_blocks(monkeypatch, cfg, workers, block))


def test_never_failing_model_is_exact():
    cfg = SimConfig(failure_model=FailureModel.identical(0.0, 4), n_shots=5000, seed=3)
    summary = run_simulation(cfg)
    assert summary.empirical_discard == 0.0
    assert summary.empirical_attempts == 1.0
    assert summary.site_survival_histogram == (0, 0, 0, 0, 5000)


def test_always_failing_model_reports_infinite_attempts():
    cfg = SimConfig(failure_model=FailureModel.identical(1.0, 4), n_shots=2000, seed=3)
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
    cfg = SimConfig(failure_model=FailureModel.identical(d, 4), n_shots=n, seed=35)
    summary = run_simulation(cfg)
    expected = np.array(
        [stats.binom.pmf(s, 4, 1 - d) * n for s in range(5)]
    )
    observed = np.array(summary.site_survival_histogram, dtype=float)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < stats.chi2.ppf(1 - 1e-3, df=4)


COVERAGE_D1 = 0.4903
COVERAGE_MODELS = {
    "independent": FailureModel.identical(COVERAGE_D1, 4),
    "common_mode": FailureModel.identical(COVERAGE_D1, 4, CommonMode(0.0181)),
    "explicit_joint": FailureModel.identical(
        COVERAGE_D1, 4, ExplicitJoint(product_joint_table((COVERAGE_D1,) * 4))
    ),
}


def share_beyond_two_sigma(observed: np.ndarray, expected, n: int) -> float:
    """The share of runs whose binomial rate lies more than two standard
    errors from ``expected`` (a rate, or one rate per column)."""
    z = (observed - expected) / np.sqrt(expected * (1 - expected) / n)
    return float(np.mean(np.abs(z) > 2))


def two_sigma_limits(trials: int) -> tuple[float, float]:
    """The 99.9% binomial limits on the share of ``trials`` normal z with |z| > 2."""
    nominal = 2 * stats.norm.sf(2.0)
    return tuple(bound / trials for bound in stats.binom.interval(0.999, trials, nominal))


@pytest.mark.parametrize("name", COVERAGE_MODELS)
def test_seeded_runs_cover_the_closed_form(name):
    # each seed's discard and kept fraction are binomial rates, so |z| > 2
    # for 4.55% of seeds; the share over 200 seeds stays within binomial
    # limits of that, and leaves them when the closed form is 5% off
    model, seeds, n, keep_prob = COVERAGE_MODELS[name], 200, 20_000, 0.7
    escape = EscapeModel(q=0.05, keep_prob=keep_prob)
    discard, kept = np.empty(seeds), np.empty(seeds)
    for seed in range(seeds):
        config = SimConfig(model, n, seed, escape_model=escape, collect_records=False)
        summary = run_simulation(config)
        discard[seed], kept[seed] = summary.empirical_discard, summary.kept / n
    low, high = two_sigma_limits(seeds)
    d_all = joint_all_fail_probability(model)
    for observed, expected in ((discard, d_all), (kept, (1 - d_all) * keep_prob)):
        assert low <= share_beyond_two_sigma(observed, expected, n) <= high
        assert share_beyond_two_sigma(observed, 1.05 * expected, n) > high


CURVE_THRESHOLDS = [0.0, 2.5, 6.0, 12.0, 20.0]
CURVE_ESCAPES = {
    kind: EscapeModel(
        q=0.2,
        keep_prob=0.7,
        gap_correct=GapDistribution(kind, rate=0.1, value=7.0),
        gap_error=GapDistribution(kind, rate=0.2, value=2.5),  # a constant gap at a threshold
    )
    for kind in ("exponential", "discrete_exponential", "constant")
}
CURVE_ESCAPES["pool"] = EscapeModel(
    keep_prob=0.7,
    pool=RecordSet(
        [0.0, 1.0, 2.5, 4.0, 6.0, 9.0, 15.0, 30.0],
        [True, False, True, False, True, True, False, True],
        n_attempts=40,
        count=[3, 4, 2, 5, 6, 1, 3, 4],
    ),
)


def curve_cells(curve) -> np.ndarray:
    """Records of each class in [G_j, G_j+1) and in [G_last, inf): a curve's
    column increments, which given N are cells of one multinomial."""
    return np.concatenate([-np.diff(c, append=0.0) for c in (curve.kept_correct, curve.kept_error)])


@pytest.mark.parametrize("kind", ["exponential", "discrete_exponential", "constant"])
def test_gap_survival_is_the_tail_of_the_inverse_cdf(kind):
    # P(gap >= g) against the share of gaps >= g that the inverse CDF makes
    # of 10**5 evenly spaced uniforms, at and between integer thresholds
    dist = GapDistribution(kind, rate=0.3, value=2.0)
    u = (np.arange(100_000) + 0.5) / 100_000
    gaps = dist.from_exponential(-np.log1p(-u))
    g = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 7.0, 15.0])
    share = (gaps[:, None] >= g).mean(axis=0)
    assert np.allclose(dist.survival(g), share, rtol=0, atol=1e-5)


@pytest.mark.parametrize("name", CURVE_ESCAPES)
def test_seeded_curves_cover_the_expected_curve(name):
    # each seed's records between consecutive thresholds are binomial cells
    # of its N shots, so |z| > 2 for 4.55% of cells; the share over seeds
    # and cells stays within binomial limits of that, and leaves them when
    # the gap rates are 5% off
    escape, seeds, n = CURVE_ESCAPES[name], 100, 20_000
    model = COVERAGE_MODELS["independent"]
    runs = (run_simulation(SimConfig(model, n, seed, escape)) for seed in range(seeds))
    observed = np.array([curve_cells(sweep(run.records, CURVE_THRESHOLDS)) for run in runs])
    config = SimConfig(model, n, 0, escape, collect_records=False)
    expected = curve_cells(montecarlo.expected_curve(config, CURVE_THRESHOLDS)) / n
    empty = expected == 0  # cells no gap reaches (constant gaps) stay empty
    assert not observed[:, empty].any()
    low, high = two_sigma_limits(seeds * int((~empty).sum()))
    rates = observed[:, ~empty] / n
    assert low <= share_beyond_two_sigma(rates, expected[~empty], n) <= high
    if name in ("exponential", "discrete_exponential"):
        off = replace(
            escape,
            gap_correct=replace(escape.gap_correct, rate=1.05 * escape.gap_correct.rate),
            gap_error=replace(escape.gap_error, rate=1.05 * escape.gap_error.rate),
        )
        off_curve = montecarlo.expected_curve(replace(config, escape_model=off), CURVE_THRESHOLDS)
        expected_off = curve_cells(off_curve) / n
        assert share_beyond_two_sigma(rates, expected_off[~empty], n) > high


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
        failure_model=FailureModel.identical(d, 1), n_shots=n, seed=91, collect_records=False
    )
    summary = run_simulation(cfg)
    assert abs(summary.empirical_attempts - 1 / (1 - d)) <= 4 * attempts_sigma(d, n)
    assert abs(summary.empirical_attempts - printed_attempts) <= 3 * attempts_sigma(d, n)


def test_bernoulli_escape_error_fraction():
    q = 0.3
    cfg = SimConfig(
        failure_model=FailureModel.identical(0.2, 4),
        n_shots=100_000,
        seed=13,
        escape_model=EscapeModel(q=q),
    )
    summary = run_simulation(cfg)
    errors = int((~summary.records.correct).sum())
    kept = summary.kept
    assert abs(errors / kept - q) <= 4 * math.sqrt(q * (1 - q) / kept)
    assert summary.kept == summary.shots - summary.early_discards  # keep_prob 1


def test_keep_probability_rejects_shots_after_selection():
    cfg = SimConfig(
        failure_model=FailureModel.identical(0.0, 2),
        n_shots=50_000,
        seed=17,
        escape_model=EscapeModel(q=0.0, keep_prob=0.8),
    )
    summary = run_simulation(cfg)
    assert summary.early_discards == 0
    assert abs(summary.kept / summary.shots - 0.8) <= 4 * math.sqrt(0.8 * 0.2 / 50_000)


def test_empirical_escape_resamples_pool_values():
    pool = RecordSet([2.0, 5.0, 11.0], [True, False, True], n_attempts=3)
    cfg = SimConfig(
        failure_model=FailureModel.identical(0.1, 4),
        n_shots=5000,
        seed=19,
        escape_model=EscapeModel(pool=pool),
    )
    summary = run_simulation(cfg)
    assert set(np.unique(summary.records.gaps)) <= {2.0, 5.0, 11.0}
    # flags must ride along with their gaps
    for gap, correct in zip(summary.records.gaps, summary.records.correct):
        assert correct == (gap != 5.0)


def pool_run(pool):
    """Shot indices, gap bits and flags of the records a run draws from ``pool``."""
    cfg = SimConfig(
        failure_model=FailureModel.identical(0.3, 2),
        n_shots=3000,
        seed=19,
        escape_model=EscapeModel(pool=pool),
    )
    records = run_simulation(cfg).records
    return records.shot_index.tolist(), records.gaps.view(np.uint64).tolist(), records.correct.tolist()


def test_a_counted_pool_draws_as_its_records_in_gap_and_flag_order():
    # a draw takes the record of its rank in (gap, flag) order, -0.0 as 0.0,
    # so a pool's rows, their counts and their order do not matter
    counted = RecordSet(
        [4.0, 1.0, 4.0, 0.0, -0.0], [False, True, True, True, False], n_attempts=12,
        count=[3, 1, 2, 4, 2],
    )
    pairs = [(0.0, False)] * 2 + [(0.0, True)] * 4 + [(1.0, True)] + [(4.0, False)] * 3
    pairs += [(4.0, True)] * 2
    expanded = RecordSet(*zip(*pairs), n_attempts=12)
    expected = pool_run(expanded)
    assert pool_run(counted) == expected
    # the same records shuffled, with the (0.0, false) ones written as -0.0
    order = np.random.default_rng(2).permutation(len(pairs))
    shuffled = [(-0.0 if pairs[i] == (0.0, False) else pairs[i][0], pairs[i][1]) for i in order]
    assert pool_run(RecordSet(*zip(*shuffled), n_attempts=12)) == expected
    gaps = np.array(expected[1], np.uint64).view(np.float64)
    assert set(zip(gaps.tolist(), expected[2])) == set(pairs) and not np.signbit(gaps).any()


def record_pairs(record_set):
    """Each record's (gap, correct), sorted: a read keeps no record order."""
    count = 1 if record_set.count is None else record_set.count
    gaps, correct = np.repeat(record_set.gaps, count), np.repeat(record_set.correct, count)
    return sorted(zip(gaps.tolist(), correct.tolist()))


def test_records_jsonl_round_trip(tmp_path):
    cfg = SimConfig(
        failure_model=FailureModel.identical(0.45, 4),
        n_shots=20_000,
        seed=23,
        escape_model=EscapeModel(q=0.25),
    )
    summary = run_simulation(cfg)
    path = tmp_path / "records.jsonl"
    written = write_records_jsonl(summary, path)
    assert written == summary.kept
    loaded = RecordSet.from_jsonl(path)
    assert len(loaded) == summary.kept
    assert loaded.count is not None  # integer gaps read as merged rows
    assert record_pairs(loaded) == record_pairs(summary.records)
    # attempt bookkeeping: consumed counts cover everything up to the last keep
    assert summary.records.n_attempts == summary.shots
    assert loaded.n_attempts == summary.records.shot_index[-1] + 1 <= summary.shots
    consumed = [json.loads(line)["attempts_consumed"] for line in path.read_text().splitlines()]
    assert consumed == np.diff(summary.records.shot_index, prepend=-1).tolist()


def test_record_set_reproduces_empirical_attempts_exactly():
    cfg = SimConfig(
        failure_model=FailureModel.identical(0.55, 4),
        n_shots=30_000,
        seed=29,
        escape_model=EscapeModel(q=0.2),
    )
    summary = run_simulation(cfg)
    curve = sweep(summary.records, [0.0])
    assert curve.rows()[0].attempts == summary.empirical_attempts


def test_gap_distribution_validation():
    with pytest.raises(ModelError):
        GapDistribution("triangular")
    with pytest.raises(ModelError):
        GapDistribution("exponential", rate=0.0)
    with pytest.raises(ModelError):  # the gap of the largest draw overflows
        GapDistribution("discrete_exponential", rate=1e-320)
    with pytest.raises(ModelError):
        EscapeModel(q=1.5)
    with pytest.raises(ModelError):
        EscapeModel(pool=RecordSet([], [], n_attempts=1))
    # a pool gives each output's gap and class, so it takes no q or gap law
    pool = RecordSet([1.0], [True], n_attempts=1)
    for fields in ({"q": 0.1}, {"gap_correct": GapDistribution("exponential", rate=0.05)}):
        with pytest.raises(ModelError):
            EscapeModel(pool=pool, **fields)
    EscapeModel(pool=pool, keep_prob=0.5, gap_error=montecarlo.DEFAULT_ERROR_GAP)


def test_config_validation():
    model = FailureModel.identical(0.5, 4)
    with pytest.raises(ValueError):
        SimConfig(failure_model=model, n_shots=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(failure_model=model, n_shots=10, seed=-1)


# ---------------------------------------------------------------------------
# the kernel reads raw Philox words under draw layout v3; everything below
# pins it to a float kernel over the same streams

TIES = 2**32  # the tie stream of quarter q of packed slot s is slot 2**32 + 4 s + q
LOW_37 = np.uint64(2**37 - 1)


def draw_columns(config):
    """Where each draw column of the float kernel comes from under v3.

    Columns are numbered as ``reference_fold`` reads them: 0 selector,
    1 shared fate, 2..k+1 sites, k+2 keep, k+3 error class, k+4 gap. Returns
    ({column: (packed slot, quarter)}, {column: whole slot}), from the slot
    table of the montecarlo docstring. Column 0 is the explicit-joint
    selector (whole words) or the common-mode selector.
    """
    k = config.k
    packed = {1: (2, 1), k + 2: (3, 0), k + 3: (3, 1)}
    for j in range(k):
        packed[2 + j] = (4 + j // 4, j % 4)
    whole = {k + 4: 1}
    if isinstance(config.failure_model.correlation, ExplicitJoint):
        whole[0] = 0
    else:
        packed[0] = (2, 0)
    return packed, whole


def reference_gaps(dist, u):
    if dist.kind == "constant":
        return np.full(u.shape, dist.value, dtype=np.float64)
    x = -np.log1p(-u) / dist.rate
    return np.floor(x) if dist.kind == "discrete_exponential" else x


def stream(seed, slot, n):
    return np.random.Philox(key=seed + (slot << 64)).random_raw(n)


def reference_run(config):
    """The float kernel over draw layout v3, every tie stream drawn in full.

    A packed column is u = (d * 2**37 + e) / 2**53 with d the quarter
    (w >> 16q) & 0xFFFF of its slot's word and e the top 37 bits of its tie
    stream's word, for every shot; a whole column is ``Generator.random`` on
    its slot's stream. Returns what ``reference_fold`` returns.
    """
    n, seed = config.n_shots, config.seed
    packed, whole = draw_columns(config)
    u = np.zeros((n, config.k + 5))
    for column, (slot, q) in packed.items():
        d = (stream(seed, slot, n) >> np.uint64(16 * q)) & np.uint64(0xFFFF)
        e = stream(seed, TIES + 4 * slot + q, n) >> np.uint64(27)
        u[:, column] = ((d << np.uint64(37)) + e) * 2.0**-53
    for column, slot in whole.items():
        u[:, column] = np.random.Generator(np.random.Philox(key=seed + (slot << 64))).random(n)
    return reference_fold(config, u)


def reference_fold(config, u):
    """The float kernel's fold over the uniforms ``u``, one row per shot."""
    k, n = config.k, u.shape[0]
    model = config.failure_model
    corr = model.correlation
    rates = np.asarray(model.per_site_fail, dtype=np.float64)
    site_u = u[:, 2 : 2 + k]
    if isinstance(corr, CommonMode):
        shared = u[:, 0] < corr.c
        shared_pass = u[:, 1] >= rates.mean()
        chi = np.where(shared[:, None], shared_pass[:, None], site_u >= rates)
    elif isinstance(corr, ExplicitJoint):
        cdf = np.cumsum(np.asarray(corr.table, dtype=np.float64))
        outcome = np.minimum(np.searchsorted(cdf, u[:, 0], side="right"), 2**k - 1)
        chi = ((outcome[:, None] >> np.arange(k)) & 1) == 0
    else:
        chi = site_u >= rates
    sizes = chi.sum(axis=1)

    esc = config.escape_model
    g = u[:, k + 4]
    keep = u[:, k + 2] < esc.keep_prob
    if esc.pool is None:
        erroneous = u[:, k + 3] < esc.q
        gaps = np.where(
            erroneous, reference_gaps(esc.gap_error, g), reference_gaps(esc.gap_correct, g)
        )
        correct = ~erroneous
    else:
        # the pool's records sorted by Python over (gap, correct), -0.0 as 0.0,
        # each row expanded to its count here: no kernel code orders them
        pool = esc.pool
        count = [1] * pool.gaps.size if pool.count is None else pool.count.tolist()
        rows = zip((pool.gaps + 0.0).tolist(), pool.correct.tolist(), count)
        records = sorted((gap, flag) for gap, flag, n in rows for _ in range(n))
        idx = np.minimum((g * len(records)).astype(np.int64), len(records) - 1)
        gaps = np.array([gap for gap, _ in records])[idx]
        correct = np.array([flag for _, flag in records])[idx]
    kept = (sizes > 0) & keep
    histogram = tuple(int(c) for c in np.bincount(sizes, minlength=k + 1))
    return histogram, int((sizes == 0).sum()), np.nonzero(kept)[0], gaps[kept], correct[kept]


def repacked_words(config, h):
    """A word source serving the 53-bit integers ``h[i, column]`` as v3 words.

    A whole word carries h in its top 53 bits, a quarter its top 16 bits, and
    the quarter's tie word its low 37 bits in the top 37, so the kernel
    decides every test on h. A read of a tie stream of no column fails.
    """
    packed, whole = draw_columns(config)
    at_quarter = {where: column for column, where in packed.items()}
    at_whole = {slot: column for column, slot in whole.items()}

    def words(seed, slot, start, n):
        rows = h[start : start + n]
        if slot in at_whole:
            return rows[:, at_whole[slot]] << np.uint64(11)
        if slot >= TIES:
            column = at_quarter[divmod(slot - TIES, 4)]
            return (rows[:, column] & LOW_37) << np.uint64(27)
        w = np.zeros(rows.shape[0], dtype=np.uint64)
        for q in range(4):
            if (slot, q) in at_quarter:
                w |= (rows[:, at_quarter[slot, q]] >> np.uint64(37)) << np.uint64(16 * q)
        return w

    return words


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4097, 65_534])
def test_slot_words_give_the_generator_floats(start):
    # shot i reads word i of the slot's stream, whatever the start's offset
    # inside Philox's four-word counter step
    for seed, slot in ((11, 0), (11, 5), (montecarlo.MAX_SEED, 12), (3, TIES + 17)):
        words = montecarlo._slot_words(seed, slot, start, 4099)
        u = np.random.Generator(np.random.Philox(key=seed + (slot << 64))).random(start + 4099)
        assert np.array_equal(montecarlo._floats(words), u[start:])


def test_slot_keys_are_distinct_at_the_edges():
    # the key seed + (slot << 64) puts the seed in the low word and the slot
    # in the high word, so the largest seed on slot 0 is not seed 0 on slot 1
    last = montecarlo._slot_words(montecarlo.MAX_SEED, 0, 0, 64)
    first = montecarlo._slot_words(0, 1, 0, 64)
    assert not np.array_equal(last, first)
    for seed, slot in ((montecarlo.MAX_SEED, 0), (0, 1), (0, TIES + 23)):
        key = np.random.Philox(key=seed + (slot << 64)).state["state"]["key"]
        assert key.tolist() == [seed, slot]
    # slot 0 of seed s is the v1 stream of Philox(key=s), read word by word
    assert np.array_equal(last, np.random.Philox(key=montecarlo.MAX_SEED).random_raw(64))


def expected_ties(seed, slot, thresholds, n):
    """(tie slot, shot) of every quarter of ``slot`` whose 16 bits equal its
    threshold's top bits, for thresholds whose low 37 bits leave e to decide."""
    words = stream(seed, slot, n)
    ties = set()
    for q, t in enumerate(thresholds):
        hi, lo = t >> 37, t & (2**37 - 1)
        if lo:
            shots = np.flatnonzero(((words >> np.uint64(16 * q)) & np.uint64(0xFFFF)) == hi)
            ties |= {(TIES + 4 * slot + q, int(i)) for i in shots}
    return ties


def test_a_run_generates_only_the_slots_its_model_reads(monkeypatch):
    calls = []
    words = montecarlo._slot_words

    def spy(seed, slot, start, n):
        calls.append((slot, start, n))
        return words(seed, slot, start, n)

    def read():
        blocks = {slot for slot, _, n in calls if slot < TIES}
        ties = {(slot, start) for slot, start, n in calls if slot >= TIES and n == 1}
        assert len(ties) == sum(slot >= TIES for slot, _, _ in calls)  # one word a tie
        calls.clear()
        return blocks, ties

    monkeypatch.setattr(montecarlo, "_slot_words", spy)
    n, seed = 300_000, 3
    model = FailureModel.identical(0.49, 4)
    escape = EscapeModel(q=0.05)  # keep_prob 1 reads no keep quarter
    cfg = SimConfig(failure_model=model, n_shots=n, seed=seed, escape_model=escape)
    site_ties = expected_ties(seed, 4, [montecarlo._threshold(0.49)] * 4, n)
    assert len(site_ties) > 5  # about 18 at this shot count
    # k=4 records off: one packed word a shot, tie words at tied shots only
    run_simulation(replace(cfg, collect_records=False))
    assert read() == ({4}, site_ties)
    # records: the gap stream and the escape word, whose error-class quarter
    # ties too; the error class is drawn for the whole block
    error_ties = expected_ties(seed, 3, [2**53, montecarlo._threshold(0.05)], n)
    run_simulation(cfg)
    assert read() == ({1, 3, 4}, site_ties | error_ties)
    # with q = 0 every output is correct, so no error class is drawn, and
    # keep_prob 1 rejects nothing: no escape word is read
    run_simulation(replace(cfg, escape_model=EscapeModel(q=0.0, keep_prob=1.0)))
    assert read() == ({1, 4}, site_ties)
    # an escape that can reject reads the keep quarter, also without records
    keep_ties = expected_ties(seed, 3, [montecarlo._threshold(0.7), 2**53], n)
    assert keep_ties
    rejecting = replace(cfg, escape_model=EscapeModel(q=0.05, keep_prob=0.7))
    run_simulation(replace(rejecting, collect_records=False))
    assert read() == ({3, 4}, site_ties | keep_ties)
    run_simulation(rejecting)
    assert read() == ({1, 3, 4}, site_ties | keep_ties | error_ties)


@pytest.mark.parametrize(
    "r", [0.0, 1.0, 0.4903, 0.5, 1e-300, 5e-324, 2.0**-53, 3 * 2.0**-54, 1 - 2.0**-53, -0.1, 1.5]
)
def test_integer_threshold_decides_the_float_test(r):
    t = montecarlo._threshold(r)
    top = 2**53 - 1
    for h in {0, 1, t - 1, t, t + 1, top - 1, top}:
        if 0 <= h <= top:
            u = h * 2.0**-53
            assert (h >= t) == (u >= r)
            assert (h < t) == (u < r)


def test_nan_rate_never_passes_a_site():
    assert montecarlo._threshold(math.nan) == 2**53  # h >= 2**53 never holds, like u >= nan


@pytest.mark.parametrize("seed", [0, montecarlo.MAX_SEED])
def test_each_quarter_decides_u_at_least_r_exactly(monkeypatch, seed):
    # h one below, at and one above each threshold: where d equals the
    # threshold's top 16 bits, e is t_lo - 1, t_lo or t_lo + 1 of the
    # quarter's own tie stream; t = 2**53 (rate 1, NaN) has no 16-bit top,
    # so it never passes and reads no tie
    start = 1000
    reads = []
    for slot, rates in ((4, [0.0, 2.0**-53, 0.4903, 1 - 2.0**-53]), (9, [1.0, math.nan, 0.5])):
        t = [montecarlo._threshold(r) for r in rates]
        near = {v + d for v in t + [0, 2**53 - 1] for d in (-1, 0, 1)}
        near = sorted(v for v in near if 0 <= v < 2**53)
        h = np.column_stack([np.roll(np.array(near, dtype=np.uint64), q) for q in range(4)])
        words = np.zeros(len(near), dtype=np.uint64)
        for q in range(4):
            words |= (h[:, q] >> np.uint64(37)) << np.uint64(16 * q)
        tie_streams = {TIES + 4 * slot + q: (h[:, q] & LOW_37) << np.uint64(27) for q in range(4)}

        def ties(word_seed, tie_slot, at, n):
            assert word_seed == seed
            reads.append(tie_slot)
            return tie_streams[tie_slot][at - start : at - start + n]

        monkeypatch.setattr(montecarlo, "_slot_words", ties)
        tests = montecarlo._tests(slot, t, len(near))
        passed = montecarlo._passes(tests, seed, start, words)
        for q, r in enumerate(rates):
            assert passed[q::4].tolist() == (h[:, q] * 2.0**-53 >= r).tolist(), r
        # quarters are taken from the words' values, whatever their byte order
        swapped = words.astype(words.dtype.newbyteorder())
        assert np.array_equal(montecarlo._passes(tests, seed, start, swapped), passed)
    # t_lo = 0 (rates 0 and 0.5) passes every tie unread; only rates 2**-53,
    # 0.4903 and 1 - 2**-53 leave e to decide
    assert set(reads) == {TIES + 16 + q for q in (1, 2, 3)}


FAILURES = {
    "independent": lambda: FailureModel(per_site_fail=(0.3, 0.6, 0.8, 0.2)),
    "common_mode": lambda: FailureModel.identical(0.55, 4, CommonMode(0.37)),
    "explicit_joint": lambda: FailureModel(
        per_site_fail=(0.25, 0.5, 0.75),
        correlation=ExplicitJoint(product_joint_table((0.25, 0.5, 0.75))),
    ),
    # two sites whose fates are correlated: P(both fail) = 0.3, not 0.4 * 0.5
    "correlated_joint": lambda: FailureModel(
        per_site_fail=(0.4, 0.5), correlation=ExplicitJoint((0.4, 0.1, 0.2, 0.3))
    ),
}
ESCAPES = {
    "always_keep": lambda: EscapeModel(gap_correct=GapDistribution("exponential", rate=0.1)),
    "bernoulli": lambda: EscapeModel(
        q=0.3, keep_prob=0.7, gap_error=GapDistribution("constant", value=1.5)
    ),
    "empirical": lambda: EscapeModel(
        keep_prob=0.9,
        pool=RecordSet([2.0, 5.0, 11.0, 0.25], [True, False, True, False], n_attempts=4),
    ),
}


def sim_config(failure_name, escape_name, n_shots, seed, collect_records=True):
    return SimConfig(
        failure_model=FAILURES[failure_name](),
        n_shots=n_shots,
        seed=seed,
        escape_model=ESCAPES[escape_name](),
        collect_records=collect_records,
    )


def assert_matches_reference(summary, expected):
    histogram, early, shot_index, gaps, correct = expected
    assert summary.site_survival_histogram == histogram
    assert summary.early_discards == early
    assert summary.kept == shot_index.size
    if summary.records is not None:
        assert np.array_equal(summary.records.shot_index, shot_index)
        assert np.array_equal(summary.records.gaps, gaps)
        assert np.array_equal(summary.records.correct, correct)


DEFAULT_BLOCK = montecarlo._BLOCK


@pytest.mark.parametrize("block", [DEFAULT_BLOCK, 977, 97, 1], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("escape_name", list(ESCAPES))
@pytest.mark.parametrize("failure_name", list(FAILURES))
def test_records_on_and_off_match_the_float_kernel(
    monkeypatch, failure_name, escape_name, block
):
    expected = reference_run(sim_config(failure_name, escape_name, 1000, seed=4242))
    for collect in (True, False):
        cfg = sim_config(failure_name, escape_name, 1000, seed=4242, collect_records=collect)
        for workers in (1, 2):
            summary = run_in_blocks(monkeypatch, cfg, workers, block)
            assert (summary.records is not None) == collect
            assert_matches_reference(summary, expected)


EXTREMES = np.array([0, 1, 2**53 - 1], dtype=np.uint64)


def tied_words(config, rng, edges, extreme_rows):
    """53-bit integers for every draw column, often at a column's edge values.

    A test column's h is t - 1, t or t + 1 (see column_thresholds) on 10% of
    rows and on every row of ``edges``. Every column, whole-word ones
    included, is also 0, 1 or 2**53 - 1 on 5% of rows and on every row of
    ``extreme_rows``, so u = 0 and u = 1 - 2**-53 reach the gap transform,
    the empirical-pool index clamp and the explicit-joint CDF clamp.
    """
    n = config.n_shots
    h = rng.integers(0, 2**53, size=(n, config.k + 5), dtype=np.uint64)
    for column, t in column_thresholds(config).items():
        near = np.array([v for v in (t - 1, t, t + 1) if 0 <= v < 2**53], dtype=np.uint64)
        h[:, column] = np.where(rng.random(n) < 0.1, rng.choice(near, n), h[:, column])
        h[edges, column] = rng.choice(near, len(edges))
    for column in range(h.shape[1]):
        h[:, column] = np.where(rng.random(n) < 0.05, rng.choice(EXTREMES, n), h[:, column])
        h[extreme_rows, column] = rng.choice(EXTREMES, len(extreme_rows))
    return h


def column_thresholds(config):
    """ceil(r * 2**53) of the rate each test column compares (see draw_columns)."""
    k = config.k
    model = config.failure_model
    esc = config.escape_model
    rates = {1: float(np.mean(model.per_site_fail)), k + 2: esc.keep_prob, k + 3: esc.q}
    if isinstance(model.correlation, CommonMode):
        rates[0] = model.correlation.c
    for j in range(k):
        rates[2 + j] = model.per_site_fail[j]
    return {column: montecarlo._threshold(r) for column, r in rates.items()}


@pytest.mark.parametrize("block", [DEFAULT_BLOCK, 977, 97], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("escape_name", list(ESCAPES))
@pytest.mark.parametrize("failure_name", list(FAILURES))
def test_tied_words_at_every_threshold_match_the_float_kernel(
    monkeypatch, failure_name, escape_name, block
):
    # Each test column's h is often one below, at or one above its threshold,
    # and always at block edges: there d equals the threshold's top 16 bits
    # and e is t_lo - 1, t_lo or t_lo + 1, so a flipped tie comparison, an
    # off-by-one threshold, a wrong quarter or another test's tie stream
    # would show. Every column, gap and joint selector included, also takes
    # 0, 1 and 2**53 - 1, some of them next to the edges. Column ``c`` of h
    # is served as v3 words (repacked_words).
    n = 2000
    cfg = sim_config(failure_name, escape_name, n, seed=1)
    edges = [i for i in (0, block - 1, block, 976, 977, 1953, 1954, n - 1) if i < n]
    extreme_rows = [i for i in (1, block - 2, block + 1, 975, 978, 1952, n - 2) if i < n]
    h = tied_words(cfg, np.random.default_rng(5), edges, extreme_rows)
    monkeypatch.setattr(montecarlo, "_slot_words", repacked_words(cfg, h))
    expected = reference_fold(cfg, h * 2.0**-53)
    for collect in (True, False):
        for workers in (1, 2):
            summary = run_in_blocks(
                monkeypatch, replace(cfg, collect_records=collect), workers, block
            )
            assert_matches_reference(summary, expected)


def test_default_blocks_match_the_float_kernel():
    # more shots than one default block, so the run splits into blocks
    cfg = sim_config("common_mode", "bernoulli", 70_000, seed=99)
    expected = reference_run(cfg)
    assert_matches_reference(run_simulation(cfg, workers=2), expected)
    off = run_simulation(replace(cfg, collect_records=False), workers=2)
    assert_matches_reference(off, expected)


@pytest.mark.parametrize(
    "failure,escape,n_shots,seed,block",
    [
        (
            FailureModel(per_site_fail=(0.2, 0.5, 0.7, 0.35)),
            EscapeModel(q=0.3, keep_prob=0.9),
            3000,
            777,
            1024,
        ),
        # shot i reads word i of each stream, so blocks starting at multiples
        # of 977 (1 mod 4) start at each position inside Philox's four-word
        # counter step; the largest seed fills the key's low word
        (
            FailureModel(per_site_fail=(0.2, 0.5, 0.7, 0.35)),
            EscapeModel(q=0.3, keep_prob=0.9),
            5000,
            2**64 - 1,
            977,
        ),
        (FailureModel.identical(0.5, 4, CommonMode(0.4)), EscapeModel(), 400, 314, 64),
        (
            FailureModel(
                per_site_fail=(0.3, 0.6, 0.2),
                correlation=ExplicitJoint(product_joint_table((0.3, 0.6, 0.2))),
            ),
            EscapeModel(q=0.4, keep_prob=0.7),
            400,
            314,
            64,
        ),
        (
            FailureModel(per_site_fail=(0.5, 0.5)),
            EscapeModel(pool=RecordSet([1.0, 4.0], [True, False], n_attempts=2)),
            400,
            314,
            64,
        ),
        (
            FailureModel(per_site_fail=(0.5, 0.5)),
            EscapeModel(
                pool=RecordSet([4.0, 1.0, -0.0], [True, False, True], n_attempts=6, count=[3, 2, 1]),
            ),
            400,
            314,
            64,
        ),
    ],
    ids=[
        "independent",
        "every_word_offset",
        "common_mode",
        "explicit_joint",
        "empirical_pool",
        "counted_pool",
    ],
)
def test_small_models_match_the_float_kernel(
    monkeypatch, failure, escape, n_shots, seed, block
):
    # every kept shot's index, gap and class, and the early discards: the
    # shots the float kernel finds with no surviving site
    cfg = SimConfig(failure_model=failure, n_shots=n_shots, seed=seed, escape_model=escape)
    expected = reference_run(cfg)
    for collect in (True, False):
        cfg = replace(cfg, collect_records=collect)
        summary = run_in_blocks(monkeypatch, cfg, 2, block)
        assert_matches_reference(summary, expected)


SIX_SITES = (0.3, 0.6, 0.8, 0.2, 0.5, 0.45)


@pytest.mark.parametrize(
    "failure",
    [
        FailureModel(per_site_fail=SIX_SITES),
        FailureModel(SIX_SITES, CommonMode(0.37)),
        FailureModel(SIX_SITES, ExplicitJoint(product_joint_table(SIX_SITES))),
    ],
    ids=["independent", "common_mode", "explicit_joint"],
)
def test_more_than_four_sites_span_two_packed_words(monkeypatch, failure):
    # sites 5 and 6 sit in quarters 0 and 1 of a second word per role, whose
    # quarters 2 and 3 belong to no site; the joint model's 64 outcomes reach
    # the second site word through its flat columns instead
    cfg = SimConfig(
        failure_model=failure,
        n_shots=3000,
        seed=31,
        escape_model=EscapeModel(q=0.3, keep_prob=0.7),
    )
    for workers, block in ((1, DEFAULT_BLOCK), (2, 977)):
        summary = run_in_blocks(monkeypatch, cfg, workers, block)
        assert_matches_reference(summary, reference_run(cfg))
    # the same with every test column often tied at its threshold, and every
    # column often at 0, 1 or 2**53 - 1
    h = tied_words(cfg, np.random.default_rng(8), [0, 976, 977, 2999], [1, 975, 978, 2998])
    monkeypatch.setattr(montecarlo, "_slot_words", repacked_words(cfg, h))
    expected = reference_fold(cfg, h * 2.0**-53)
    for workers, block in ((1, DEFAULT_BLOCK), (2, 977)):
        assert_matches_reference(run_in_blocks(monkeypatch, cfg, workers, block), expected)


def test_a_joint_table_short_of_one_clamps_the_top_uniform(monkeypatch):
    # a table summing to 1 - 5e-13, inside the sum tolerance, leaves
    # u = 1 - 2**-53 past the CDF's end; it takes the all-fail outcome
    table = list(product_joint_table((0.25, 0.5, 0.75)))
    table[-1] -= 5e-13
    cfg = SimConfig(
        failure_model=FailureModel((0.25, 0.5, 0.75), ExplicitJoint(tuple(table))),
        n_shots=3000,
        seed=33,
        escape_model=EscapeModel(gap_correct=GapDistribution("exponential", rate=0.1)),
    )
    h = tied_words(cfg, np.random.default_rng(9), [], [0, 976, 977, 2999])
    assert (h[:, 0] == 2**53 - 1).sum() > 10
    monkeypatch.setattr(montecarlo, "_slot_words", repacked_words(cfg, h))
    expected = reference_fold(cfg, h * 2.0**-53)
    for workers, block in ((1, DEFAULT_BLOCK), (2, 977)):
        assert_matches_reference(run_in_blocks(monkeypatch, cfg, workers, block), expected)


@pytest.mark.parametrize("k", [1, 4, 7, 8, 12, 15])
def test_histogram_counts_every_size(k):
    # one counting pass per count, checked against np.bincount
    sizes = np.random.default_rng(k).binomial(k, 0.4, 5000).astype(np.uint32)
    histogram = montecarlo._histogram(sizes, k)
    assert histogram.tolist() == np.bincount(sizes, minlength=k + 1).tolist()


def test_nine_sites_match_the_float_kernel(monkeypatch):
    cfg = SimConfig(
        failure_model=FailureModel(per_site_fail=SIX_SITES + (0.1, 0.9, 0.35)),
        n_shots=3000,
        seed=32,
        escape_model=EscapeModel(q=0.3, keep_prob=0.7),
    )
    expected = reference_run(cfg)
    for workers, block in ((1, DEFAULT_BLOCK), (2, 977)):
        assert_matches_reference(run_in_blocks(monkeypatch, cfg, workers, block), expected)


@pytest.mark.parametrize("collect", [True, False], ids=["records_on", "records_off"])
def test_rates_of_zero_and_one_give_exact_counts(monkeypatch, collect):
    n = 3000

    def run(failure, escape=None):
        cfg = SimConfig(
            failure_model=failure,
            n_shots=n,
            seed=57,
            escape_model=escape or EscapeModel(),
            collect_records=collect,
        )
        summary = run_in_blocks(monkeypatch, cfg, 2, 977)
        assert_matches_reference(summary, reference_run(replace(cfg, collect_records=True)))
        return summary

    # site rates: sites 1 and 3 always survive, sites 2 and 4 never do
    s = run(FailureModel(per_site_fail=(0.0, 1.0, 0.0, 1.0)))
    assert (s.site_survival_histogram, s.early_discards, s.kept) == ((0, 0, n, 0, 0), 0, n)
    s = run(FailureModel(per_site_fail=(1.0,) * 4))
    assert (s.site_survival_histogram, s.kept) == ((n, 0, 0, 0, 0), 0)
    s = run(FailureModel(per_site_fail=(0.0, 1.0)))
    assert s.site_survival_histogram == (0, n, 0)

    model = FailureModel.identical(0.45, 4)
    assert run(model, EscapeModel(q=0.2, keep_prob=0.0)).kept == 0
    s = run(model, EscapeModel(q=0.2, keep_prob=1.0))
    assert s.kept == n - s.early_discards
    for q in (0.0, 1.0):
        s = run(model, EscapeModel(q=q))
        assert s.kept == n - s.early_discards
        if collect:
            assert s.records.correct.tolist() == [q == 0.0] * s.kept

    # common mode: c = 0 is the independent model, c = 1 gives every site one fate
    rates = (0.3, 0.6, 0.8, 0.2)
    independent = run(FailureModel(per_site_fail=rates))
    assert summaries_equal(run(FailureModel(rates, CommonMode(0.0))), independent)
    s = run(FailureModel(rates, CommonMode(1.0)))
    assert s.site_survival_histogram[1:4] == (0, 0, 0)
    assert abs(s.empirical_discard - 0.475) <= 4 * discard_sigma(0.475, n)
    for d, histogram in ((0.0, (0, 0, 0, 0, n)), (1.0, (n, 0, 0, 0, 0))):
        s = run(FailureModel.identical(d, 4, CommonMode(1.0)))
        assert s.site_survival_histogram == histogram


# every set of surviving sites of four sites, and of a lone site
SURVIVOR_SETS = [tuple((m >> i) & 1 for i in range(4)) for m in range(16)] + [(0,), (1,)]


@pytest.mark.parametrize(
    "alive", SURVIVOR_SETS, ids=lambda alive: "alive" + "".join(map(str, alive))
)
def test_a_shot_is_kept_when_some_site_survives_and_escape_keeps_it(monkeypatch, alive):
    # rate 0 keeps a site and rate 1 kills it on every shot, so every shot's
    # surviving sites are exactly ``alive``
    cfg = SimConfig(
        failure_model=FailureModel(per_site_fail=tuple(1.0 - a for a in alive)),
        n_shots=400,
        seed=53,
        escape_model=EscapeModel(q=0.3, keep_prob=0.7),
    )
    n, k, live = cfg.n_shots, len(alive), sum(alive)
    summary = run_in_blocks(monkeypatch, cfg, 2, 97)
    assert_matches_reference(summary, reference_run(cfg))
    assert summary.site_survival_histogram == tuple(n * (c == live) for c in range(k + 1))
    assert summary.early_discards == (0 if live else n)
    if not live:
        assert summary.kept == 0 and summary.warnings
        return
    # the escape stage rejects some shots, and which shots it keeps, with
    # their gaps and classes, does not depend on which sites survive
    assert 0 < summary.kept < n
    every_site = run_simulation(replace(cfg, failure_model=FailureModel.identical(0.0, k)))
    assert np.array_equal(summary.records.shot_index, every_site.records.shot_index)
    assert np.array_equal(summary.records.gaps, every_site.records.gaps)
    assert np.array_equal(summary.records.correct, every_site.records.correct)


# Workers. The blocks are cut into runs of consecutive blocks, one per
# process up to the usable CPUs: the first is folded here and each later one
# in a forked child (``gap_analysis._map_in_parts``), whose folds come back as
# a pickle. A child that fails costs only time: its part is folded here.

REAL_FORK = os.fork
WORKER_SHOTS = 5000


def worker_config(collect_records=True):
    return sim_config(
        "common_mode", "bernoulli", WORKER_SHOTS, seed=11, collect_records=collect_records
    )


def count_forks(monkeypatch, child_action=None):
    """Patch ``os.fork`` to note each child this process forks; a child runs
    ``child_action`` first (and exits 99 if it raises, so that it never
    returns into the test run)."""
    children = []

    def fork():
        pid = REAL_FORK()
        if pid == 0 and child_action is not None:
            try:
                child_action()
            except BaseException:
                os._exit(99)
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return children


def blocks_folded_here(monkeypatch):
    """Patch ``_fold_block`` to note the start of each block this process folds."""
    starts = []
    fold = montecarlo._fold_block

    def spy(plan, start, count):
        starts.append(start)
        return fold(plan, start, count)

    monkeypatch.setattr(montecarlo, "_fold_block", spy)
    return starts


@pytest.mark.parametrize("workers", [1, 2, 16, 10**6])
@pytest.mark.parametrize("cpus", [1, 2, 3], ids=lambda n: f"cpus{n}")
@pytest.mark.parametrize("block", [977, 2500, WORKER_SHOTS])  # 6, 2 and 1 blocks
def test_a_run_forks_a_child_for_each_part_after_the_first(monkeypatch, block, cpus, workers):
    cfg = worker_config()
    expected = run_simulation(cfg)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    children = count_forks(monkeypatch)
    assert summaries_equal(run_in_blocks(monkeypatch, cfg, workers, block), expected)
    assert len(children) == min(workers, cpus, -(-WORKER_SHOTS // block)) - 1
    assert len(children) < cpus


def exit_at_once():
    os._exit(3)


def fail_to_fold():
    montecarlo._fold_block = None


def fail_but_exit_zero():
    fail_to_fold()
    real_exit = os._exit
    os._exit = lambda status: real_exit(0)


class ShortPipe:
    """A pipe file that passes on only the first half of each write."""

    def __init__(self, fd, mode):
        self.file = open(fd, mode)

    def write(self, data):
        return self.file.write(data if len(data) == 8 else data[: len(data) // 2])

    def writelines(self, blocks):
        for data in blocks:
            self.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def stream_short():
    gap_analysis.open = ShortPipe


@pytest.mark.parametrize("collect", [True, False], ids=["records", "counts"])
@pytest.mark.parametrize(
    "failure", [exit_at_once, fail_to_fold, fail_but_exit_zero, stream_short],
    ids=lambda f: f.__name__,
)
def test_a_failed_child_part_is_folded_here(monkeypatch, failure, collect):
    cfg = worker_config(collect)
    expected = run_simulation(cfg)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    children = count_forks(monkeypatch, failure)
    here = blocks_folded_here(monkeypatch)
    assert summaries_equal(run_in_blocks(monkeypatch, cfg, 3, 977), expected)
    assert len(children) == 2
    assert here == list(range(0, WORKER_SHOTS, 977))


def failing_call(*args, **kwargs):
    raise OSError("cannot start")


@pytest.mark.parametrize("collect", [True, False], ids=["records", "counts"])
@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_child_that_cannot_start_leaves_its_part_here(monkeypatch, call, collect):
    cfg = worker_config(collect)
    expected = run_simulation(cfg)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, call, failing_call)
    here = blocks_folded_here(monkeypatch)
    assert summaries_equal(run_in_blocks(monkeypatch, cfg, 3, 977), expected)
    assert here == list(range(0, WORKER_SHOTS, 977))


def forbidden_fork():
    raise AssertionError("a child was forked")


@pytest.mark.parametrize("collect", [True, False], ids=["records", "counts"])
def test_no_worker_is_forked_while_another_thread_runs(monkeypatch, collect):
    cfg = worker_config(collect)
    expected = run_simulation(cfg)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert summaries_equal(run_in_blocks(monkeypatch, cfg, 3, 977), expected)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_the_pickled_parts_are_freed_before_the_merge(monkeypatch):
    # the buffer of the children's pickles must not live on while ``_merge``
    # copies the kept shots' columns, or a records run on two workers peaks
    # at one more copy of its records
    buffers = []

    class TrackedBytesIO(io.BytesIO):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(weakref.ref(self))

    tracked_io = types.SimpleNamespace(**{**vars(io), "BytesIO": TrackedBytesIO})
    monkeypatch.setattr(gap_analysis, "io", tracked_io)
    live_at_merge = []
    merge = montecarlo._merge

    def spy(folds):
        live_at_merge.append(sum(ref() is not None for ref in buffers))
        return merge(folds)

    monkeypatch.setattr(montecarlo, "_merge", spy)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    cfg = worker_config()
    expected = run_simulation(cfg)
    live_at_merge.clear()
    buffers.clear()
    children = count_forks(monkeypatch)
    assert summaries_equal(run_in_blocks(monkeypatch, cfg, 2, 977), expected)
    assert len(children) == 1 and len(buffers) == 1
    # the run merges the two parts' folds once, after the buffer is gone
    assert live_at_merge == [0]
