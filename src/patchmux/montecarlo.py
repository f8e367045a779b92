"""Seeded shot sampling over a failure model, with a pluggable escape stage.

Determinism contract: every shot owns a fixed window of a counter-based
stream of 64-bit words keyed by the master seed (Philox; shot i uses words
[i*stride, (i+1)*stride)). Results are therefore a pure fold over shots in
index order, and chunking or thread count cannot change any output bit.

Per-shot draw layout (k sites, stride padded to a multiple of 4):

    0           correlation selector (common-mode mixture / joint outcome)
    1           shared common-mode fate
    2 .. k+1    per-site early-stage draws (injection when split)
    k+2 .. 2k+1 per-site cultivation draws (two-stage split only)
    2k+2        escape keep draw
    2k+3        escape error-class draw
    2k+4        gap draw (also the empirical-pool index)

Slots not used by a given model are simply ignored; the layout never moves.

Words are drawn raw. A draw w stands for the uniform u = (w >> 11) * 2**-53,
the double ``Generator.random`` makes from the same word, but floats are made
only where a model reads one: the gap, the empirical-pool index and the
explicit-joint selector, and the first two only for kept shots. Every other
test, ``u >= r`` or ``u < r``, is the exact integer comparison of w >> 11
with ceil(r * 2**53). A chunk is folded in blocks of ``_BLOCK`` shots, and a
run without records keeps only counts, so it holds O(chunk) memory whatever
its shot count.

Kept shots come back as one ``gap_analysis.RecordSet`` whose attempt total
is the shot count and whose ``shot_index`` column gives each kept shot's
index, so the sweep tools read a run's records without conversion, and
``write_records_jsonl`` writes them with ``RecordSet.to_jsonl`` in blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import CommonMode, ExplicitJoint, FailureModel, Independent, ModelError
from .gap_analysis import RecordSet
from .pipeline import SelectionRule, SiteIndicators, complete_shot

MAX_SEED = 2**64 - 1
DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class GapDistribution:
    """Named distribution of synthetic confidence gaps, drawn by inverse CDF."""

    kind: str  # "exponential" | "discrete_exponential" | "constant"
    rate: float = 1.0
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("exponential", "discrete_exponential", "constant"):
            raise ModelError(f"unknown gap distribution {self.kind!r}")
        if self.kind != "constant" and self.rate <= 0:
            raise ModelError("gap distribution rate must be positive")
        if self.kind == "constant" and self.value < 0:
            raise ModelError("constant gap must be >= 0")

    def from_exponential(self, e: np.ndarray) -> np.ndarray:
        """Gaps from unit-exponential variates ``e = -log1p(-u)`` (inverse CDF)."""
        if self.kind == "constant":
            return np.full(np.shape(e), self.value, dtype=np.float64)
        x = e / self.rate
        return np.floor(x) if self.kind == "discrete_exponential" else x


DEFAULT_CORRECT_GAP = GapDistribution("discrete_exponential", rate=0.05)
DEFAULT_ERROR_GAP = GapDistribution("discrete_exponential", rate=0.25)

ESCAPE_KINDS = ("always_keep", "bernoulli", "empirical")


@dataclass(frozen=True)
class EscapeModel:
    """Stand-in for the out-of-scope escape circuit and decoder.

    ``always_keep`` accepts every forwarded candidate as correct (isolates
    the early-stage statistics); ``bernoulli`` keeps with probability
    ``keep_prob`` and marks kept outputs erroneous with probability ``q``,
    drawing gaps from per-class distributions; ``empirical`` resamples
    (gap, correct) pairs from a provided pool.
    """

    kind: str = "always_keep"
    q: float = 0.0
    keep_prob: float = 1.0
    gap_correct: GapDistribution = DEFAULT_CORRECT_GAP
    gap_error: GapDistribution = DEFAULT_ERROR_GAP
    pool_gaps: tuple[float, ...] = ()
    pool_correct: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ESCAPE_KINDS:
            raise ModelError(f"unknown escape model {self.kind!r}")
        if not (0.0 <= self.q <= 1.0):
            raise ModelError(f"error probability q={self.q!r} outside [0, 1]")
        if not (0.0 <= self.keep_prob <= 1.0):
            raise ModelError(f"keep_prob={self.keep_prob!r} outside [0, 1]")
        if self.kind == "empirical":
            if not self.pool_gaps:
                raise ModelError("empirical escape model needs a non-empty pool")
            if len(self.pool_gaps) != len(self.pool_correct):
                raise ModelError("pool gaps and flags differ in length")
            if any(g < 0 or math.isnan(g) or math.isinf(g) for g in self.pool_gaps):
                raise ModelError("pool gaps must be finite and >= 0")

    @classmethod
    def always_keep(cls, gap: GapDistribution = DEFAULT_CORRECT_GAP) -> "EscapeModel":
        return cls(kind="always_keep", gap_correct=gap)

    @classmethod
    def bernoulli_error(
        cls,
        q: float,
        keep_prob: float = 1.0,
        gap_correct: GapDistribution = DEFAULT_CORRECT_GAP,
        gap_error: GapDistribution = DEFAULT_ERROR_GAP,
    ) -> "EscapeModel":
        return cls(
            kind="bernoulli",
            q=q,
            keep_prob=keep_prob,
            gap_correct=gap_correct,
            gap_error=gap_error,
        )

    @classmethod
    def empirical(cls, records: RecordSet, keep_prob: float = 1.0) -> "EscapeModel":
        return cls(
            kind="empirical",
            keep_prob=keep_prob,
            pool_gaps=tuple(records.gaps.tolist()),
            pool_correct=tuple(records.correct.tolist()),
        )


@dataclass(frozen=True)
class StageSplit:
    """Optional decomposition of the early failure into its two stages.

    ``cultivation_fail`` is conditional on passing injection; the combined
    rate must reproduce the failure model's per-site rates.
    """

    injection_fail: tuple[float, ...]
    cultivation_fail: tuple[float, ...]

    def combined(self) -> tuple[float, ...]:
        return tuple(
            di + (1.0 - di) * dc
            for di, dc in zip(self.injection_fail, self.cultivation_fail)
        )


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on (labels ride along verbatim)."""

    failure_model: FailureModel
    n_shots: int
    seed: int
    escape_model: EscapeModel = field(default_factory=EscapeModel.always_keep)
    selection_rule: SelectionRule = field(default_factory=SelectionRule.lowest_index)
    stage_split: StageSplit | None = None
    collect_records: bool = True
    d1_label: int | None = None
    p_label: float | None = None
    d2_label: int = 15
    r1_label: int | None = None
    r2_label: int = 5

    def __post_init__(self) -> None:
        if self.n_shots < 1:
            raise ValueError("n_shots must be at least 1")
        if not (0 <= self.seed <= MAX_SEED):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.selection_rule.priority is not None and len(
            self.selection_rule.priority
        ) != self.k:
            raise ValueError("selection priority length must equal the site count")
        if self.stage_split is not None:
            if not isinstance(self.failure_model.correlation, Independent):
                raise ModelError("stage split is only defined for independent sites")
            if len(self.stage_split.injection_fail) != self.k or len(
                self.stage_split.cultivation_fail
            ) != self.k:
                raise ModelError("stage split vectors must cover every site")
            for i, (combined, rate) in enumerate(
                zip(self.stage_split.combined(), self.failure_model.per_site_fail),
                start=1,
            ):
                if abs(combined - rate) > 1e-9:
                    raise ModelError(
                        f"site {i}: split combines to {combined!r}, model says {rate!r}"
                    )

    @property
    def k(self) -> int:
        return self.failure_model.k

    def labels(self) -> dict:
        return {
            "d1": self.d1_label,
            "d2": self.d2_label,
            "r1": self.r1_label if self.r1_label is not None else self.d1_label,
            "r2": self.r2_label,
            "p": self.p_label,
        }


@dataclass(eq=False)
class SimSummary:
    """Fold of one run: counts, ratios, histogram, and the kept-shot records.

    ``records`` covers all ``shots`` attempts and carries each kept shot's
    index; it is None when the run did not collect records.
    """

    shots: int
    early_discards: int
    kept: int
    empirical_discard: float
    empirical_attempts: float
    site_survival_histogram: tuple[int, ...]
    records: RecordSet | None
    warnings: tuple[str, ...]
    labels: dict


def _stride(k: int) -> int:
    base = 2 * k + 5
    return base + (-base) % 4  # counter blocks are 4 draws wide


_UNIT = 1 << 53  # a draw is u = h / 2**53 for the 53-bit integer h = w >> 11


def _threshold(r: float) -> int:
    """ceil(r * 2**53) clipped to [0, 2**53], so ``u >= r`` exactly when h >= it.

    r * 2**53 is exact for every double, so the integer test decides
    ``u >= r`` (and its negation ``u < r``) with no rounding. A NaN rate maps
    to 2**53, where ``u >= r`` never holds, as with floats; ``u < r`` tests
    only see rates validated into [0, 1].
    """
    r = float(r)
    if r <= 0.0:
        return 0
    if r < 1.0:
        return math.ceil(r * _UNIT)
    return _UNIT


def _thresholds(rates) -> np.ndarray:
    return np.array([_threshold(r) for r in rates], dtype=np.uint64)


def _floats(h: np.ndarray) -> np.ndarray:
    """The uniforms ``Generator.random`` makes from the same words, bit for bit."""
    return h * (1.0 / _UNIT)


@dataclass(frozen=True, eq=False)
class _Plan:
    """Per-run constants of the kernel: integer thresholds, joint CDF, pool."""

    config: SimConfig
    stride: int
    pass_at: np.ndarray | None  # site passes when h >= pass_at (split: injection)
    cult_pass_at: np.ndarray | None  # two-stage split: cultivation passes
    shared_below: np.uint64  # common mode: the sites share one fate when h < it
    shared_pass_at: np.uint64  # common mode: the shared fate passes when h >= it
    joint_cdf: np.ndarray | None  # explicit joint: cumulative outcome table
    keep_below: np.uint64  # escape keeps when h < keep_below
    error_below: np.uint64  # bernoulli escape: a kept output is an error when h < it
    pool_gaps: np.ndarray | None
    pool_correct: np.ndarray | None


def _plan(config: SimConfig) -> _Plan:
    corr = config.failure_model.correlation
    esc = config.escape_model
    split = config.stage_split
    rates = np.asarray(config.failure_model.per_site_fail, dtype=np.float64)
    common = isinstance(corr, CommonMode)
    joint = isinstance(corr, ExplicitJoint)
    empirical = esc.kind == "empirical"
    if split is not None:
        pass_at = _thresholds(split.injection_fail)
    else:
        pass_at = None if joint else _thresholds(rates)
    return _Plan(
        config=config,
        stride=_stride(config.k),
        pass_at=pass_at,
        cult_pass_at=_thresholds(split.cultivation_fail) if split is not None else None,
        shared_below=np.uint64(_threshold(corr.c) if common else 0),
        shared_pass_at=np.uint64(_threshold(rates.mean()) if common else 0),
        joint_cdf=np.cumsum(np.asarray(corr.table, dtype=np.float64)) if joint else None,
        keep_below=np.uint64(_threshold(esc.keep_prob)),
        error_below=np.uint64(_threshold(esc.q)),
        pool_gaps=np.asarray(esc.pool_gaps, dtype=np.float64) if empirical else None,
        pool_correct=np.asarray(esc.pool_correct, dtype=bool) if empirical else None,
    )


def _philox(seed: int, start_shot: int, stride: int) -> np.random.Philox:
    """The counter stream positioned at the first word of ``start_shot``."""
    bits = np.random.Philox(key=seed)
    bits.advance(start_shot * stride // 4)
    return bits


def _draws(bits: np.random.Philox, n_shots: int, stride: int) -> np.ndarray:
    """h = w >> 11 of the next n_shots windows of raw words, shape (n, stride)."""
    h = bits.random_raw(n_shots * stride).reshape(n_shots, stride)
    h >>= np.uint64(11)
    return h


def _survival_bits(h: np.ndarray, plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """(injection-pass, cultivation-pass) booleans of shape (n, k).

    Cultivation passing implies injection passing, so the second array alone
    says which sites survived.
    """
    k = plan.config.k
    site = h[:, 2 : 2 + k]
    if plan.cult_pass_at is not None:
        inj = site >= plan.pass_at
        return inj, inj & (h[:, 2 + k : 2 + 2 * k] >= plan.cult_pass_at)
    if plan.joint_cdf is not None:
        outcome = np.minimum(
            np.searchsorted(plan.joint_cdf, _floats(h[:, 0]), side="right"), 2**k - 1
        )
        chi = ((outcome[:, None] >> np.arange(k)) & 1) == 0
    elif isinstance(plan.config.failure_model.correlation, CommonMode):
        shared = h[:, 0] < plan.shared_below
        shared_pass = h[:, 1] >= plan.shared_pass_at
        chi = np.where(shared[:, None], shared_pass[:, None], site >= plan.pass_at)
    else:
        chi = site >= plan.pass_at
    return chi, chi


def _site_counts(chi: np.ndarray) -> np.ndarray:
    """Surviving sites per row, summed column by column in the smallest dtype."""
    counts = np.zeros(chi.shape[0], dtype=np.min_scalar_type(chi.shape[1]))
    for column in chi.T:
        counts += column
    return counts


def _kept(h: np.ndarray, candidate: np.ndarray, plan: _Plan) -> np.ndarray:
    """Rows with a candidate that the escape stage keeps."""
    if plan.config.escape_model.kind == "always_keep":
        return candidate
    return candidate & (h[:, 2 * plan.config.k + 2] < plan.keep_below)


def _escape_draws(
    h: np.ndarray, rows: np.ndarray, plan: _Plan
) -> tuple[np.ndarray, np.ndarray]:
    """(gap, correct) of the given rows; floats are made for these rows only."""
    k = plan.config.k
    esc = plan.config.escape_model
    u = _floats(h[rows, 2 * k + 4])
    if esc.kind == "empirical":
        size = plan.pool_gaps.size
        idx = np.minimum((u * size).astype(np.int64), size - 1)
        return plan.pool_gaps[idx], plan.pool_correct[idx]
    e = -np.log1p(-u)  # one unit-exponential variate per row, shared by both classes
    if esc.kind == "always_keep":
        return esc.gap_correct.from_exponential(e), np.ones(rows.size, dtype=bool)
    erroneous = h[rows, 2 * k + 3] < plan.error_below
    gaps = np.where(
        erroneous, esc.gap_error.from_exponential(e), esc.gap_correct.from_exponential(e)
    )
    return gaps, ~erroneous


# Shots folded at once inside a chunk: a block's words (8192 * stride * 8
# bytes, 1 MiB at k=4) stay in cache across the passes over them.
_BLOCK = 8192


@dataclass(eq=False)
class _Fold:
    """Counts over a run of shots; the kept shots' columns only with records."""

    histogram: np.ndarray
    kept: int
    kept_shot_index: np.ndarray | None = None
    kept_gaps: np.ndarray | None = None
    kept_correct: np.ndarray | None = None


def _merge(folds: list[_Fold]) -> _Fold:
    """Folds of consecutive shot runs, in shot order, as one."""
    merged = _Fold(sum(f.histogram for f in folds), sum(f.kept for f in folds))
    if folds[0].kept_shot_index is not None:
        merged.kept_shot_index = np.concatenate([f.kept_shot_index for f in folds])
        merged.kept_gaps = np.concatenate([f.kept_gaps for f in folds])
        merged.kept_correct = np.concatenate([f.kept_correct for f in folds])
    return merged


def _fold_block(plan: _Plan, bits: np.random.Philox, start: int, count: int) -> _Fold:
    h = _draws(bits, count, plan.stride)
    _, survived = _survival_bits(h, plan)
    sizes = _site_counts(survived)
    histogram = np.bincount(sizes, minlength=plan.config.k + 1)
    kept = _kept(h, sizes > 0, plan)
    if not plan.config.collect_records:
        return _Fold(histogram, int(np.count_nonzero(kept)))
    rows = np.flatnonzero(kept)
    gaps, correct = _escape_draws(h, rows, plan)
    return _Fold(histogram, int(rows.size), rows + start, gaps, correct)


def _process_chunk(plan: _Plan, start: int, count: int) -> _Fold:
    bits = _philox(plan.config.seed, start, plan.stride)
    end = start + count
    return _merge(
        [_fold_block(plan, bits, s, min(_BLOCK, end - s)) for s in range(start, end, _BLOCK)]
    )


def run_simulation(
    config: SimConfig, workers: int = 1, chunk_size: int = DEFAULT_CHUNK
) -> SimSummary:
    """Sample every shot and fold the results in shot-index order.

    ``workers`` and ``chunk_size`` are execution knobs only; any combination
    produces identical output for the same config.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    n = config.n_shots
    plan = _plan(config)
    starts = [(s, min(chunk_size, n - s)) for s in range(0, n, chunk_size)]

    if workers == 1 or len(starts) == 1:
        folds = [_process_chunk(plan, s, m) for s, m in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            folds = list(pool.map(lambda sm: _process_chunk(plan, *sm), starts))

    total = _merge(folds)
    early_discards = int(total.histogram[0])
    kept = total.kept

    warnings: tuple[str, ...] = ()
    if kept:
        attempts = n / kept
    else:
        attempts = math.inf
        warnings = ("no shot was kept; expected attempts are infinite",)

    records = None
    if config.collect_records:
        records = RecordSet(
            gaps=total.kept_gaps,
            correct=total.kept_correct,
            n_attempts=n,
            shot_index=total.kept_shot_index,
        )

    return SimSummary(
        shots=n,
        early_discards=early_discards,
        kept=kept,
        empirical_discard=early_discards / n,
        empirical_attempts=attempts,
        site_survival_histogram=tuple(int(c) for c in total.histogram),
        records=records,
        warnings=warnings,
        labels=config.labels(),
    )


def sample_shot(shot_index: int, config: SimConfig):
    """Resolve a single shot; a pure function of (seed, shot_index, config).

    Returns (ShotOutcome, (gap, correct) | None); the pair is present exactly
    when the shot was kept.
    """
    if not (0 <= shot_index < config.n_shots):
        raise ValueError(f"shot_index {shot_index} outside 0..{config.n_shots - 1}")
    plan = _plan(config)
    h = _draws(_philox(config.seed, shot_index, plan.stride), 1, plan.stride)
    inj, cult = _survival_bits(h, plan)
    indicators = SiteIndicators(
        inj=tuple(int(b) for b in inj[0]), cult=tuple(int(b) for b in cult[0])
    )
    if not any(indicators.survival):
        return complete_shot(indicators, config.selection_rule, None), None
    keep = bool(_kept(h, np.ones(1, dtype=bool), plan)[0])
    outcome = complete_shot(indicators, config.selection_rule, keep)
    if not outcome.escape_kept:
        return outcome, None
    gaps, correct = _escape_draws(h, np.zeros(1, dtype=np.intp), plan)
    return outcome, (float(gaps[0]), bool(correct[0]))


def calibrate_from_table(discard_single: float, k: int = 4) -> FailureModel:
    """Independent model with every site at a tabulated single-site discard."""
    return FailureModel.identical(discard_single, k)


def write_records_jsonl(summary: SimSummary, path: str | Path) -> int:
    """One JSON object per kept shot (``RecordSet.to_jsonl``); returns the
    number of records written.
    """
    if summary.records is None:
        raise ValueError("run was configured without record collection")
    summary.records.to_jsonl(path)
    return len(summary.records)
