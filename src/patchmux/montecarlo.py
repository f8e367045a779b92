"""Seeded shot sampling over a failure model, with a pluggable escape stage.

Determinism contract: every shot owns a fixed window of a counter-based
uniform stream keyed by the master seed (Philox; shot i uses draws
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
    """Named sampler for synthetic confidence gaps (inverse-CDF driven)."""

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

    def sample(self, u):
        """Map uniforms in [0, 1) to gap values; works on scalars and arrays."""
        if self.kind == "constant":
            if np.isscalar(u):
                return float(self.value)
            return np.full_like(np.asarray(u, dtype=np.float64), self.value)
        x = -np.log1p(-np.asarray(u, dtype=np.float64)) / self.rate
        if self.kind == "discrete_exponential":
            x = np.floor(x)
        return float(x) if np.isscalar(u) else x


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


def _uniform_block(seed: int, start_shot: int, n_shots: int, k: int) -> np.ndarray:
    stride = _stride(k)
    bits = np.random.Philox(key=seed)
    bits.advance(start_shot * stride // 4)
    return np.random.Generator(bits).random((n_shots, stride))


def _survival_bits(u: np.ndarray, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(injection-pass, cultivation-pass) booleans of shape (n, k)."""
    k = config.k
    model = config.failure_model
    rates = np.asarray(model.per_site_fail, dtype=np.float64)
    site_u = u[:, 2 : 2 + k]

    if config.stage_split is not None:
        inj_rates = np.asarray(config.stage_split.injection_fail)
        cult_rates = np.asarray(config.stage_split.cultivation_fail)
        inj = site_u >= inj_rates
        cult = inj & (u[:, 2 + k : 2 + 2 * k] >= cult_rates)
        return inj, cult

    corr = model.correlation
    if isinstance(corr, Independent):
        chi = site_u >= rates
    elif isinstance(corr, CommonMode):
        independent = site_u >= rates
        shared = u[:, 0] < corr.c
        shared_pass = u[:, 1] >= rates.mean()
        chi = np.where(shared[:, None], shared_pass[:, None], independent)
    else:
        assert isinstance(corr, ExplicitJoint)
        cdf = np.cumsum(np.asarray(corr.table, dtype=np.float64))
        outcome = np.minimum(
            np.searchsorted(cdf, u[:, 0], side="right"), 2**k - 1
        )
        fail_bits = (outcome[:, None] >> np.arange(k)) & 1
        chi = fail_bits == 0
    return chi, chi


def _escape_draws(
    u: np.ndarray, config: SimConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keep, correct, gap) for every row; meaningful only where a site survived."""
    k = config.k
    esc = config.escape_model
    n = u.shape[0]
    col_keep, col_cls, col_gap = 2 * k + 2, 2 * k + 3, 2 * k + 4

    if esc.kind == "always_keep":
        keep = np.ones(n, dtype=bool)
        correct = np.ones(n, dtype=bool)
        gaps = esc.gap_correct.sample(u[:, col_gap])
    elif esc.kind == "bernoulli":
        keep = u[:, col_keep] < esc.keep_prob
        erroneous = u[:, col_cls] < esc.q
        gaps = np.where(
            erroneous,
            esc.gap_error.sample(u[:, col_gap]),
            esc.gap_correct.sample(u[:, col_gap]),
        )
        correct = ~erroneous
    else:
        keep = u[:, col_keep] < esc.keep_prob
        pool_gaps = np.asarray(esc.pool_gaps, dtype=np.float64)
        pool_correct = np.asarray(esc.pool_correct, dtype=bool)
        idx = np.minimum(
            (u[:, col_gap] * pool_gaps.size).astype(np.int64), pool_gaps.size - 1
        )
        gaps = pool_gaps[idx]
        correct = pool_correct[idx]
    return keep, correct, np.asarray(gaps, dtype=np.float64)


@dataclass(eq=False)
class _ChunkFold:
    histogram: np.ndarray
    early_discards: int
    kept_shot_index: np.ndarray
    kept_gaps: np.ndarray
    kept_correct: np.ndarray


def _process_chunk(config: SimConfig, start: int, count: int) -> _ChunkFold:
    u = _uniform_block(config.seed, start, count, config.k)
    inj, cult = _survival_bits(u, config)
    chi = inj & cult
    sizes = chi.sum(axis=1)
    has_candidate = sizes > 0
    keep, correct, gaps = _escape_draws(u, config)
    kept = has_candidate & keep
    local = np.nonzero(kept)[0]
    return _ChunkFold(
        histogram=np.bincount(sizes, minlength=config.k + 1),
        early_discards=int((~has_candidate).sum()),
        kept_shot_index=local + start,
        kept_gaps=gaps[kept],
        kept_correct=correct[kept],
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
    starts = [(s, min(chunk_size, n - s)) for s in range(0, n, chunk_size)]

    if workers == 1 or len(starts) == 1:
        folds = [_process_chunk(config, s, m) for s, m in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            folds = list(pool.map(lambda sm: _process_chunk(config, *sm), starts))

    histogram = np.zeros(config.k + 1, dtype=np.int64)
    early_discards = 0
    for f in folds:
        histogram += f.histogram
        early_discards += f.early_discards
    kept_idx = np.concatenate([f.kept_shot_index for f in folds])
    kept = int(kept_idx.size)

    warnings: tuple[str, ...] = ()
    if kept:
        attempts = n / kept
    else:
        attempts = math.inf
        warnings = ("no shot was kept; expected attempts are infinite",)

    records = None
    if config.collect_records:
        records = RecordSet(
            gaps=np.concatenate([f.kept_gaps for f in folds]),
            correct=np.concatenate([f.kept_correct for f in folds]),
            n_attempts=n,
            shot_index=kept_idx,
        )

    return SimSummary(
        shots=n,
        early_discards=early_discards,
        kept=kept,
        empirical_discard=early_discards / n,
        empirical_attempts=attempts,
        site_survival_histogram=tuple(int(c) for c in histogram),
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
    u = _uniform_block(config.seed, shot_index, 1, config.k)
    inj, cult = _survival_bits(u, config)
    indicators = SiteIndicators(
        inj=tuple(int(b) for b in inj[0]), cult=tuple(int(b) for b in cult[0])
    )
    if any(indicators.survival):
        keep, correct, gaps = _escape_draws(u, config)
        outcome = complete_shot(indicators, config.selection_rule, bool(keep[0]))
        if outcome.escape_kept:
            return outcome, (float(gaps[0]), bool(correct[0]))
        return outcome, None
    return complete_shot(indicators, config.selection_rule, None), None


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
