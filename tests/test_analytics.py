import itertools
import math

import numpy as np
import pytest
from scipy import stats

from patchmux.analytics import (
    AttemptRow,
    CommonMode,
    ExplicitJoint,
    FailureModel,
    ModelError,
    attempt_reduction,
    attempts_interval,
    expected_attempts,
    expected_histogram,
    fit_common_mode_weight,
    iid_multiplex_discard,
    joint_all_fail_probability,
    multiplex_pass_probability,
    printed_match,
    product_joint_table,
    reduction_interval,
    reproduce_table,
    wilson_interval,
)
from patchmux.presets import EARLY_STAGE_TABLE, FULL_CYCLE_TABLE


def brute_force_pass_probability(per_site_fail):
    """Independent oracle: enumerate all 2**k outcomes."""
    k = len(per_site_fail)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=k):
        prob = 1.0
        for fail_bit, d in zip(bits, per_site_fail):
            prob *= d if fail_bit else 1.0 - d
        if not all(bits):  # at least one site survived
            total += prob
    return total


def test_expected_attempts_edges():
    assert expected_attempts(0.0) == 1.0
    assert expected_attempts(1.0) == math.inf


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
def test_expected_attempts_domain(bad):
    with pytest.raises(ValueError):
        expected_attempts(bad)


@pytest.mark.parametrize(
    "discard,printed",
    [(0.4903, 1.9620), (0.8344, 6.0397), (0.9720, 35.7590)],
)
def test_expected_attempts_matches_printed_values(discard, printed):
    # printed inputs carry 4 decimals; the printed attempts must sit inside
    # the interval that input rounding allows
    assert printed_match(printed, attempts_interval(discard))


def test_expected_attempts_strictly_increasing():
    rng = np.random.default_rng(31)
    d = np.sort(rng.random(100) * 0.999)
    values = [expected_attempts(float(x)) for x in d]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_iid_multiplex_discard_values():
    assert iid_multiplex_discard(0.1560, 4) == 0.1560 * 0.1560 * 0.1560 * 0.1560
    assert iid_multiplex_discard(0.1560, 4) == pytest.approx(5.92e-4, abs=5e-7)
    assert iid_multiplex_discard(0.37, 1) == 0.37
    assert iid_multiplex_discard(0.4903, 4) == pytest.approx(0.05779, abs=5e-6)


def test_iid_multiplex_discard_domain():
    with pytest.raises(ValueError):
        iid_multiplex_discard(0.5, 0)
    with pytest.raises(ValueError):
        iid_multiplex_discard(1.2, 2)


def test_multiplexing_never_hurts_attempts():
    rng = np.random.default_rng(37)
    for _ in range(200):
        d = float(rng.random() * 0.9999)
        k = int(rng.integers(1, 9))
        single = expected_attempts(d)
        multi = expected_attempts(iid_multiplex_discard(d, k))
        assert multi <= single
        if d > 0.0 and k > 1:
            assert multi < single


def test_pass_probability_against_enumeration():
    model = FailureModel(per_site_fail=(0.1, 0.2, 0.3, 0.4))
    assert multiplex_pass_probability(model) == pytest.approx(0.9976, abs=1e-12)
    rng = np.random.default_rng(41)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        rates = tuple(float(x) for x in rng.random(k))
        model = FailureModel(per_site_fail=rates)
        assert multiplex_pass_probability(model) == pytest.approx(
            brute_force_pass_probability(rates), abs=1e-12
        )


def test_common_mode_degenerates_to_independent_at_zero():
    rng = np.random.default_rng(43)
    for _ in range(50):
        rates = tuple(float(x) for x in rng.random(4))
        a = multiplex_pass_probability(FailureModel(rates, CommonMode(0.0)))
        b = multiplex_pass_probability(FailureModel(rates))
        assert abs(a - b) <= 1e-12


def test_common_mode_fully_correlated_identical_sites():
    model = FailureModel.identical(0.3, 4, CommonMode(1.0))
    assert multiplex_pass_probability(model) == pytest.approx(0.7, abs=1e-15)
    assert joint_all_fail_probability(model) == pytest.approx(0.3, abs=1e-15)


def test_common_mode_all_fail_monotone_in_c():
    rng = np.random.default_rng(47)
    rates = tuple(float(x) for x in rng.random(4))
    values = [
        joint_all_fail_probability(FailureModel(rates, CommonMode(c)))
        for c in np.linspace(0.0, 1.0, 21)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def enumerated_histogram(table) -> list[float]:
    """A joint table's 2**k fail patterns folded by popcount: the sum of the
    patterns with s surviving sites at s."""
    k = len(table).bit_length() - 1
    law = [0.0] * (k + 1)
    for m, p in enumerate(table):
        law[k - bin(m).count("1")] += p
    return law


HISTOGRAM_RATES = {
    "distinct": (0.13, 0.62, 0.4903, 0.97),
    "identical": (0.4903,) * 4,
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", HISTOGRAM_RATES)
def test_expected_histogram_is_the_enumerated_law(kind, k):
    rates = HISTOGRAM_RATES[kind][:k]
    independent = enumerated_histogram(product_joint_table(rates))
    mean = math.fsum(rates) / k
    shared = [mean] + [0.0] * (k - 1) + [1.0 - mean]
    laws = {
        "independent": (FailureModel(rates), independent),
        "table": (FailureModel(rates, ExplicitJoint(product_joint_table(rates))), independent),
        "c=0": (FailureModel(rates, CommonMode(0.0)), independent),
        "c=1": (FailureModel(rates, CommonMode(1.0)), shared),
        "c=0.37": (
            FailureModel(rates, CommonMode(0.37)),
            [0.37 * s + 0.63 * p for s, p in zip(shared, independent)],
        ),
    }
    for name, (model, want) in laws.items():
        got = expected_histogram(model)
        assert len(got) == k + 1
        assert got == pytest.approx(want, abs=1e-15), name
        assert abs(math.fsum(got) - 1.0) <= 1e-12, name
    assert expected_histogram(laws["c=1"][0]) == tuple(shared)


@pytest.mark.parametrize("row", EARLY_STAGE_TABLE, ids=lambda row: f"d{row.d1}-p{row.p:g}")
def test_all_fail_cell_is_the_old_expression_bit_for_bit(row):
    # cell 0 of the law stays the product, the common-mode mixture and the
    # table's last entry; d**k and exp(k log d) differ from the product in
    # the last bit at some of these rates
    rates, c = (row.discard_single,) * 4, 0.0181
    product = math.prod(rates)
    table = product_joint_table(rates)
    assert expected_histogram(FailureModel(rates))[0] == product
    mixed = FailureModel(rates, CommonMode(c))
    assert expected_histogram(mixed)[0] == c * (math.fsum(rates) / 4) + (1.0 - c) * product
    assert expected_histogram(FailureModel(rates, ExplicitJoint(table)))[0] == table[-1]
    for model in (FailureModel(rates), mixed):
        assert joint_all_fail_probability(model) == expected_histogram(model)[0]


@pytest.mark.parametrize(
    "rates,cell", [((0.0,) * 4, 4), ((1.0,) * 4, 0), ((1.0, 1.0, 1.0, 0.0), 1)]
)
def test_certain_sites_put_the_law_on_one_cell(rates, cell):
    # identical rates of 0 or 1 take no log(d) or log1p(-d), which would raise
    assert expected_histogram(FailureModel(rates)) == tuple(float(s == cell) for s in range(5))


def test_large_identical_law_is_linear_in_k():
    # 16,384 identical sites take the binomial path, in milliseconds; the
    # site-by-site recursion would take seconds
    law = expected_histogram(FailureModel.identical(0.4903, 16_384))
    assert len(law) == 16_385 and abs(math.fsum(law) - 1.0) <= 1e-11
    assert law[0] == math.prod((0.4903,) * 16_384)


def test_explicit_joint_product_table_equals_independent():
    rng = np.random.default_rng(53)
    for k in (2, 3, 4, 7, 10):
        rates = tuple(float(x) for x in rng.random(k))
        joint = FailureModel(rates, ExplicitJoint(product_joint_table(rates)))
        assert abs(
            multiplex_pass_probability(joint)
            - multiplex_pass_probability(FailureModel(rates))
        ) <= 1e-12


def test_explicit_joint_validation():
    rates = (0.5, 0.5)
    good = product_joint_table(rates)
    FailureModel(rates, ExplicitJoint(good))
    with pytest.raises(ModelError):
        FailureModel(rates, ExplicitJoint(good[:3]))  # wrong length
    bad_sum = (0.3, 0.3, 0.3, 0.3)
    with pytest.raises(ModelError):
        FailureModel(rates, ExplicitJoint(bad_sum))
    bad_marginal = (0.5, 0.25, 0.0, 0.25)  # sums to 1, marginals off
    with pytest.raises(ModelError):
        FailureModel(rates, ExplicitJoint(bad_marginal))


def test_failure_model_domain():
    with pytest.raises(ModelError):
        FailureModel(per_site_fail=())
    with pytest.raises(ModelError):
        FailureModel(per_site_fail=(1.3,))
    with pytest.raises(ModelError):
        FailureModel(per_site_fail=(0.5,), correlation=CommonMode(-0.1))


def test_attempt_reduction_examples():
    assert attempt_reduction(1.9620, 1.0702) == pytest.approx(45.46, abs=0.01)
    assert attempt_reduction(364.7853, 77.7446) == pytest.approx(78.69, abs=0.01)
    assert attempt_reduction(3.3, 3.3) == 0.0


def test_attempt_reduction_identity():
    rng = np.random.default_rng(59)
    for _ in range(100):
        a = 1.0 + float(rng.random()) * 50
        b = 1.0 + float(rng.random()) * 50
        assert attempt_reduction(a, b) == pytest.approx((1 - b / a) * 100, rel=1e-12)


def test_attempt_reduction_domain():
    with pytest.raises(ValueError):
        attempt_reduction(0.5, 1.2)


def test_reproduce_early_stage_table():
    results = reproduce_table(list(EARLY_STAGE_TABLE))
    assert all(r.error is None for r in results)
    assert all(r.consistent for r in results)
    last = results[-1]  # the high-rate corner: printed 35.7590 vs exact 35.7143
    assert last.attempts_single == pytest.approx(35.7143, abs=1e-3)
    assert printed_match(35.7590, attempts_interval(0.9720))
    assert printed_match(72.91, reduction_interval(0.9720, 0.8968))


def test_reproduce_table_reports_estimate_and_residual():
    results = reproduce_table(list(EARLY_STAGE_TABLE))
    # measured multi-site discards sit at or above the independent estimate
    for res in results:
        assert res.multi_discard_estimate == pytest.approx(
            res.row.discard_single**4, rel=1e-12
        )
        assert res.multi_discard_residual >= 0.0
    mid = results[2]  # measured 6.56% vs estimate 5.78%
    assert mid.multi_discard_residual == pytest.approx(0.0656 - 0.4903**4, abs=1e-12)


def test_fit_common_mode_weight_round_trip():
    c = fit_common_mode_weight(0.4903, 0.0656, 4)
    assert 0.0 < c < 0.05
    model = FailureModel.identical(0.4903, 4, CommonMode(c))
    assert joint_all_fail_probability(model) == pytest.approx(0.0656, abs=1e-12)
    with pytest.raises(ModelError):
        fit_common_mode_weight(0.4903, 0.01, 4)  # below the independent floor
    with pytest.raises(ModelError):
        fit_common_mode_weight(0.4903, 0.6, 4)  # above the single-site rate
    with pytest.raises(ModelError):
        fit_common_mode_weight(0.5, 0.5, 1)  # k=1 has no span to fit


def test_reproduce_full_cycle_table():
    results = reproduce_table(list(FULL_CYCLE_TABLE))
    expected = [16.87, 30.44, 49.04, 55.69, 70.72, 78.69]
    for res, rho in zip(results, expected):
        assert res.consistent
        assert res.reduction_pct == pytest.approx(rho, abs=0.01)


def test_reproduce_table_zero_discard_row():
    row = AttemptRow(discard_single=0.0, discard_multi=0.3)
    (res,) = reproduce_table([row])
    assert res.attempts_single == 1.0
    assert res.reduction_pct == pytest.approx((1 - (1 / 0.7)) * 100)


def test_reproduce_table_saturated_row_gives_inf():
    (res,) = reproduce_table([AttemptRow(discard_single=1.0, discard_multi=0.5)])
    assert res.attempts_single == math.inf
    assert res.reduction_pct == 100.0


def test_reproduce_table_row_errors_do_not_stop_the_table():
    rows = [
        AttemptRow(discard_single=1.7, discard_multi=0.5),
        AttemptRow(discard_single=0.5, discard_multi=0.0625),
        AttemptRow(),  # nothing to compute
    ]
    results = reproduce_table(rows)
    assert results[0].error is not None
    assert results[1].error is None and results[1].consistent
    assert results[2].error is not None


@pytest.mark.parametrize("kept, shots", [(0, 1), (1, 1), (0, 10), (3, 10), (10, 10), (5, 7), (94151, 10**5)])
def test_wilson_interval_matches_scipy(kept, shots):
    expected = stats.binomtest(kept, shots).proportion_ci(0.95, "wilson")
    low, high = wilson_interval(kept, shots)
    assert (low, high) == pytest.approx((expected.low, expected.high), rel=1e-12, abs=1e-15)
    assert (low == 0.0) == (kept == 0) and (high == 1.0) == (kept == shots)
