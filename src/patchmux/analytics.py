"""Closed-form yield arithmetic for multi-site postselected trials.

The primitives: a trial is discarded with probability D, retries are
geometric so the expected number of attempts per accepted output is
1/(1 - D), and running k sites in parallel turns the per-shot discard into
the probability that every site fails at once. For independent sites that
joint probability is the plain product; a common-mode mixture and an
explicit joint table cover correlated failures.

Printed reference values are reproduced with an interval check that
propagates the rounding of their fixed-precision inputs, so a table row is
flagged only when it disagrees beyond what rounding can explain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


class ModelError(ValueError):
    """A failure model violates its own constraints."""


def _check_probability(value: float, name: str) -> None:
    if not (0.0 <= value <= 1.0) or math.isnan(value):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def expected_attempts(discard: float) -> float:
    """Geometric-retry expectation 1/(1 - discard); +inf when discard is 1."""
    _check_probability(discard, "discard")
    if discard == 1.0:
        return INF
    return 1.0 / (1.0 - discard)


def iid_multiplex_discard(single_site_discard: float, k: int) -> float:
    """Per-shot discard when all of k identical independent sites must fail."""
    _check_probability(single_site_discard, "single_site_discard")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"site count k must be a positive integer, got {k!r}")
    return single_site_discard**k


def attempt_reduction(baseline_attempts: float, multiplexed_attempts: float) -> float:
    """Relative reduction in expected attempts, in percent.

    Negative when multiplexing costs more attempts than the baseline.
    """
    if baseline_attempts < 1.0 or multiplexed_attempts < 1.0:
        raise ValueError("expected attempts cannot be below 1")
    return (1.0 - multiplexed_attempts / baseline_attempts) * 100.0


# ---------------------------------------------------------------------------
# failure models


@dataclass(frozen=True)
class Independent:
    """Site failures are independent draws at the per-site rates."""


@dataclass(frozen=True)
class CommonMode:
    """Two-component mixture: with probability c all sites share one draw.

    The shared draw fails with the arithmetic mean of the per-site rates;
    with probability 1 - c the sites draw independently. c=0 degenerates to
    Independent, c=1 with identical rates makes the k sites behave as one.
    """

    c: float


@dataclass(frozen=True)
class ExplicitJoint:
    """Full joint distribution over the 2**k fail patterns.

    Pattern index m sets bit (i-1) when site i fails; index 2**k - 1 is the
    all-fail outcome. The table must sum to 1 and its single-site marginals
    must match the model's per-site rates.
    """

    table: tuple[float, ...]


Correlation = Independent | CommonMode | ExplicitJoint

JOINT_SUM_TOL = 1e-12
JOINT_MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class FailureModel:
    """Per-site early-stage failure rates plus their correlation structure."""

    per_site_fail: tuple[float, ...]
    correlation: Correlation = Independent()

    def __post_init__(self) -> None:
        if not self.per_site_fail:
            raise ModelError("need at least one site")
        for i, d in enumerate(self.per_site_fail, start=1):
            if not (0.0 <= d <= 1.0) or math.isnan(d):
                raise ModelError(f"site {i} failure rate {d!r} outside [0, 1]")
        if isinstance(self.correlation, CommonMode):
            c = self.correlation.c
            if not (0.0 <= c <= 1.0):
                raise ModelError(f"common-mode weight {c!r} outside [0, 1]")
        elif isinstance(self.correlation, ExplicitJoint):
            self._check_joint(self.correlation.table)

    def _check_joint(self, table: tuple[float, ...]) -> None:
        k = self.k
        if len(table) != 2**k:
            raise ModelError(f"joint table needs 2**{k} entries, got {len(table)}")
        if any(p < 0 for p in table):
            raise ModelError("joint table has negative entries")
        total = math.fsum(table)
        if abs(total - 1.0) > JOINT_SUM_TOL:
            raise ModelError(f"joint table sums to {total!r}, expected 1")
        for i in range(k):
            marginal = math.fsum(p for m, p in enumerate(table) if m >> i & 1)
            if abs(marginal - self.per_site_fail[i]) > JOINT_MARGINAL_TOL:
                raise ModelError(
                    f"site {i + 1} marginal {marginal!r} != rate "
                    f"{self.per_site_fail[i]!r}"
                )

    @property
    def k(self) -> int:
        return len(self.per_site_fail)

    @classmethod
    def identical(cls, discard: float, k: int, correlation: Correlation = Independent()):
        return cls(per_site_fail=(discard,) * k, correlation=correlation)


def product_joint_table(per_site_fail: tuple[float, ...] | list[float]) -> tuple[float, ...]:
    """Joint table of independent sites, for building ExplicitJoint models."""
    k = len(per_site_fail)
    table = []
    for m in range(2**k):
        p = 1.0
        for i in range(k):
            p *= per_site_fail[i] if m >> i & 1 else 1.0 - per_site_fail[i]
        table.append(p)
    return tuple(table)


def joint_all_fail_probability(model: FailureModel) -> float:
    """Probability that every site fails in the same shot."""
    product = math.prod(model.per_site_fail)
    corr = model.correlation
    if isinstance(corr, Independent):
        return product
    if isinstance(corr, CommonMode):
        mean = math.fsum(model.per_site_fail) / model.k
        return corr.c * mean + (1.0 - corr.c) * product
    return corr.table[2**model.k - 1]


def fit_common_mode_weight(
    single_site_discard: float, measured_multi_discard: float, k: int
) -> float:
    """Common-mode weight that reproduces a measured k-site discard.

    Solves c * D + (1 - c) * D**k = measured for identical sites. A
    measurement below the independent product or above the single-site rate
    has no common-mode representation and raises ModelError.
    """
    _check_probability(single_site_discard, "single_site_discard")
    _check_probability(measured_multi_discard, "measured_multi_discard")
    independent = iid_multiplex_discard(single_site_discard, k)
    span = single_site_discard - independent
    if span <= 0.0:
        raise ModelError("degenerate rates: k-site and single-site discard coincide")
    c = (measured_multi_discard - independent) / span
    if not (0.0 <= c <= 1.0):
        raise ModelError(
            f"measured discard {measured_multi_discard!r} lies outside the "
            f"common-mode range [{independent!r}, {single_site_discard!r}]"
        )
    return c


def multiplex_pass_probability(model: FailureModel) -> float:
    """Probability that at least one site survives the early stages."""
    return 1.0 - joint_all_fail_probability(model)


# ---------------------------------------------------------------------------
# printed-table reproduction

PRINTED_INPUT_HALF_ULP = 5e-5  # reference tables print 4 decimal digits
PRINTED_REL_TOL = 5e-4


def attempts_interval(
    discard: float, half_ulp: float = PRINTED_INPUT_HALF_ULP
) -> tuple[float, float]:
    """Range of 1/(1 - D') over the rounding box of a printed discard value."""
    lo = expected_attempts(max(0.0, discard - half_ulp))
    hi = expected_attempts(min(1.0, discard + half_ulp))
    return lo, hi


def reduction_interval(
    discard_single: float,
    discard_multi: float,
    half_ulp: float = PRINTED_INPUT_HALF_ULP,
) -> tuple[float, float]:
    """Range of the reduction percentage over both inputs' rounding boxes."""
    a1_lo, a1_hi = attempts_interval(discard_single, half_ulp)
    a4_lo, a4_hi = attempts_interval(discard_multi, half_ulp)
    return attempt_reduction(a1_lo, a4_hi), attempt_reduction(a1_hi, a4_lo)


def printed_match(
    printed: float, interval: tuple[float, float], rel_tol: float = PRINTED_REL_TOL
) -> bool:
    """Does a printed value agree with an interval up to relative slack?"""
    lo, hi = interval
    slack = rel_tol * abs(printed)
    return lo - slack <= printed <= hi + slack


@dataclass(frozen=True)
class AttemptRow:
    """One input row: labels plus whichever discard/attempt columns exist."""

    d1: int | None = None
    p: float | None = None
    discard_single: float | None = None
    discard_multi: float | None = None
    attempts_single: float | None = None
    attempts_multi: float | None = None
    reduction_pct: float | None = None


@dataclass(frozen=True)
class AttemptRowResult:
    row: AttemptRow
    consistent: bool
    attempts_single: float | None = None
    attempts_multi: float | None = None
    reduction_pct: float | None = None
    # independent-site estimate of the multi-site discard and how far the
    # measured value sits above it (no cause is asserted for the residual)
    multi_discard_estimate: float | None = None
    multi_discard_residual: float | None = None
    error: str | None = None


def _recompute_side(
    discard: float | None, attempts_ref: float | None
) -> tuple[float | None, bool]:
    """(computed attempts, reference agrees)."""
    if discard is not None:
        computed = expected_attempts(discard)
        if attempts_ref is None:
            return computed, True
        return computed, printed_match(attempts_ref, attempts_interval(discard))
    return attempts_ref, True


def reproduce_table(rows: list[AttemptRow], k: int = 4) -> list[AttemptRowResult]:
    """Recompute attempts and reductions row by row, flagging disagreements.

    A malformed row yields a result with ``error`` set; remaining rows are
    still processed. The ``consistent`` flag means every reference column in
    the row is explained by its inputs up to printing precision (attempts via
    the rounding interval, reductions within 0.01 percentage points when
    derived from attempts directly). When both discard columns are present
    the independent k-site estimate and its residual against the measured
    value are reported alongside.
    """
    results: list[AttemptRowResult] = []
    for row in rows:
        try:
            a1, a1_ok = _recompute_side(row.discard_single, row.attempts_single)
            a4, a4_ok = _recompute_side(row.discard_multi, row.attempts_multi)
            if a1 is None or a4 is None:
                raise ValueError("row lacks both discard and attempts on one side")
            if a1 == INF:
                rho = 100.0 if a4 != INF else math.nan
            else:
                rho = attempt_reduction(a1, a4)
            rho_ok = True
            if row.reduction_pct is not None:
                if row.discard_single is not None and row.discard_multi is not None:
                    rho_ok = printed_match(
                        row.reduction_pct,
                        reduction_interval(row.discard_single, row.discard_multi),
                    )
                else:
                    rho_ok = abs(rho - row.reduction_pct) <= 0.01
            estimate = None
            residual = None
            if row.discard_single is not None and row.discard_multi is not None:
                estimate = iid_multiplex_discard(row.discard_single, k)
                residual = row.discard_multi - estimate
            results.append(
                AttemptRowResult(
                    row=row,
                    attempts_single=a1,
                    attempts_multi=a4,
                    reduction_pct=rho,
                    consistent=a1_ok and a4_ok and rho_ok,
                    multi_discard_estimate=estimate,
                    multi_discard_residual=residual,
                )
            )
        except (ValueError, ModelError) as exc:
            results.append(AttemptRowResult(row=row, consistent=False, error=str(exc)))
    return results
