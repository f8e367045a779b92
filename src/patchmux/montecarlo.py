"""Seeded shot sampling over a failure model, with a pluggable escape stage.

Determinism contract (draw layout v2, ``LAYOUT_VERSION``): every draw slot
of the table below owns its own counter-based stream of 64-bit words,
Philox keyed by ``seed + (slot << 64)``, and shot i reads word i of each
stream (``_slot_words``). The key is injective in (seed, slot) for every
seed up to ``MAX_SEED``. Results are therefore a pure fold over shots in
index order, and chunking, block size, thread count or collecting records
cannot change any output bit.

Draw slots (k sites):

    0           correlation selector (common-mode mixture / joint outcome)
    1           shared common-mode fate
    2 .. k+1    per-site early-stage draws (injection when split)
    k+2 .. 2k+1 per-site cultivation draws (two-stage split only)
    2k+2        escape keep draw
    2k+3        escape error-class draw
    2k+4        gap draw (also the empirical-pool index)

A slot's number depends only on k, never on the model, and a run generates
only the streams its model reads: the keep slot only when the escape stage
can reject, the error-class and gap slots only for records.

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
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import CommonMode, ExplicitJoint, FailureModel, Independent, ModelError
from .gap_analysis import RecordSet
from .pipeline import SelectionRule, SiteIndicators, complete_shot

MAX_SEED = 2**64 - 1
DEFAULT_CHUNK = 1 << 16
LAYOUT_VERSION = 2  # the draw layout of the module docstring; simulate reports carry it


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
    pool: RecordSet | None = None  # empirical only; its constructor checked the columns

    def __post_init__(self) -> None:
        if self.kind not in ESCAPE_KINDS:
            raise ModelError(f"unknown escape model {self.kind!r}")
        if not (0.0 <= self.q <= 1.0):
            raise ModelError(f"error probability q={self.q!r} outside [0, 1]")
        if not (0.0 <= self.keep_prob <= 1.0):
            raise ModelError(f"keep_prob={self.keep_prob!r} outside [0, 1]")
        if self.kind == "empirical" and (self.pool is None or len(self.pool) == 0):
            raise ModelError("empirical escape model needs a non-empty pool")

    @property
    def pool_gaps(self) -> np.ndarray:
        """The pool's gap column, without a copy (empty without a pool)."""
        return self.pool.gaps if self.pool is not None else np.empty(0)

    @property
    def pool_correct(self) -> np.ndarray:
        """The pool's correct-flag column, without a copy (empty without a pool)."""
        return self.pool.correct if self.pool is not None else np.empty(0, dtype=bool)

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
        return cls(kind="empirical", keep_prob=keep_prob, pool=records)


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


_UNIT = 1 << 53  # a draw is u = h / 2**53 for the 53-bit integer h = w >> 11


# Re-keying a generator by setting its ``state`` costs about a sixth of
# building ``Philox(key=...)``, which draws a SeedSequence even when given a
# key. Each thread keeps its own generator; one is never shared across threads.
_thread_bits = threading.local()
_WORD = (1 << 64) - 1


def _slot_words(seed: int, slot: int, start: int, n: int) -> np.ndarray:
    """h = w >> 11 of words ``start .. start+n-1`` of the stream keyed (seed, slot).

    Philox makes four words per counter step and steps its counter before
    making them, so the counter is set to ``start // 4``: the next four words
    are those of the step that holds word ``start``, and the ones before
    ``start`` are dropped.
    """
    bits = getattr(_thread_bits, "philox", None)
    if bits is None:
        bits = _thread_bits.philox = np.random.Philox(0)
    key = seed + (slot << 64)
    step = start // 4
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": [step & _WORD, step >> 64, 0, 0], "key": [key & _WORD, key >> 64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits.random_raw(start % 4)
    h = bits.random_raw(n)
    h >>= np.uint64(11)
    return h


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
    """Per-run constants of the kernel: integer thresholds and the joint CDF."""

    config: SimConfig
    pass_at: np.ndarray | None  # site passes when h >= pass_at (split: injection)
    cult_pass_at: np.ndarray | None  # two-stage split: cultivation passes
    shared_below: np.uint64  # common mode: the sites share one fate when h < it
    shared_pass_at: np.uint64  # common mode: the shared fate passes when h >= it
    joint_cdf: np.ndarray | None  # explicit joint: cumulative outcome table
    keep_below: np.uint64  # escape keeps when h < keep_below (2**53: always)
    error_below: np.uint64  # bernoulli escape: a kept output is an error when h < it


def _plan(config: SimConfig) -> _Plan:
    corr = config.failure_model.correlation
    esc = config.escape_model
    split = config.stage_split
    rates = np.asarray(config.failure_model.per_site_fail, dtype=np.float64)
    common = isinstance(corr, CommonMode)
    joint = isinstance(corr, ExplicitJoint)
    if split is not None:
        pass_at = _thresholds(split.injection_fail)
    else:
        pass_at = None if joint else _thresholds(rates)
    return _Plan(
        config=config,
        pass_at=pass_at,
        cult_pass_at=_thresholds(split.cultivation_fail) if split is not None else None,
        shared_below=np.uint64(_threshold(corr.c) if common else 0),
        shared_pass_at=np.uint64(_threshold(rates.mean()) if common else 0),
        joint_cdf=np.cumsum(np.asarray(corr.table, dtype=np.float64)) if joint else None,
        keep_below=np.uint64(
            _UNIT if esc.kind == "always_keep" else _threshold(esc.keep_prob)
        ),
        error_below=np.uint64(_threshold(esc.q)),
    )


def _survival_bits(plan: _Plan, draw) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(injection-pass, cultivation-pass) boolean columns, one per site.

    ``draw(slot)`` returns the h column of one slot for the shots at hand, and
    is called only for the slots the model reads. Cultivation passing implies
    injection passing, so the second list alone says which sites survived.
    """
    k = plan.config.k
    if plan.joint_cdf is not None:
        outcome = np.minimum(
            np.searchsorted(plan.joint_cdf, _floats(draw(0)), side="right"), 2**k - 1
        )
        chi = [((outcome >> j) & 1) == 0 for j in range(k)]
        return chi, chi
    inj = [draw(2 + j) >= t for j, t in enumerate(plan.pass_at)]
    if plan.cult_pass_at is not None:
        return inj, [
            passed & (draw(k + 2 + j) >= t)
            for j, (passed, t) in enumerate(zip(inj, plan.cult_pass_at))
        ]
    if plan.shared_below:  # common mode with c > 0; c = 0 is the independent model
        shared = draw(0) < plan.shared_below
        shared_pass = shared & (draw(1) >= plan.shared_pass_at)
        inj = [(passed & ~shared) | shared_pass for passed in inj]
    return inj, inj


def _site_counts(chi: list[np.ndarray]) -> np.ndarray:
    """Surviving sites per shot, summed column by column in the smallest dtype."""
    counts = np.zeros(chi[0].size, dtype=np.min_scalar_type(len(chi)))
    for column in chi:
        counts += column
    return counts


def _kept(plan: _Plan, draw, candidate: np.ndarray) -> np.ndarray:
    """Shots with a candidate that the escape stage keeps.

    A stage that keeps every candidate (``always_keep``, or ``keep_prob`` 1)
    reads no keep words: h < 2**53 holds for every word.
    """
    if plan.keep_below == _UNIT:
        return candidate
    return candidate & (draw(2 * plan.config.k + 2) < plan.keep_below)


def _escape_draws(plan: _Plan, draw, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gap, correct) of the given shots; floats are made for these shots only."""
    k = plan.config.k
    esc = plan.config.escape_model
    u = _floats(draw(2 * k + 4)[rows])
    if esc.kind == "empirical":
        size = len(esc.pool)
        idx = np.minimum((u * size).astype(np.int64), size - 1)
        return esc.pool.gaps[idx], esc.pool.correct[idx]
    e = -np.log1p(-u)  # one unit-exponential variate per shot, shared by both classes
    if esc.kind == "always_keep":
        return esc.gap_correct.from_exponential(e), np.ones(rows.size, dtype=bool)
    erroneous = draw(2 * k + 3)[rows] < plan.error_below
    gaps = np.where(
        erroneous, esc.gap_error.from_exponential(e), esc.gap_correct.from_exponential(e)
    )
    return gaps, ~erroneous


# Shots folded at once. Each slot a block reads is one column of _BLOCK words
# (512 KiB), and each column costs one Philox re-keying (~5 us), so long
# columns amortise it while a block's few columns still fit in cache.
_BLOCK = 1 << 16


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


def _fold_block(plan: _Plan, start: int, count: int) -> _Fold:
    def draw(slot: int) -> np.ndarray:
        return _slot_words(plan.config.seed, slot, start, count)

    _, survived = _survival_bits(plan, draw)
    sizes = _site_counts(survived)
    histogram = np.bincount(sizes, minlength=plan.config.k + 1)
    kept = _kept(plan, draw, sizes > 0)
    if not plan.config.collect_records:
        return _Fold(histogram, int(np.count_nonzero(kept)))
    rows = np.flatnonzero(kept)
    gaps, correct = _escape_draws(plan, draw, rows)
    return _Fold(histogram, int(rows.size), rows + start, gaps, correct)


def _process_chunk(plan: _Plan, start: int, count: int) -> _Fold:
    end = start + count
    return _merge(
        [_fold_block(plan, s, min(_BLOCK, end - s)) for s in range(start, end, _BLOCK)]
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
        from concurrent.futures import ThreadPoolExecutor

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

    def draw(slot: int) -> np.ndarray:
        return _slot_words(config.seed, slot, shot_index, 1)

    inj, cult = _survival_bits(plan, draw)
    indicators = SiteIndicators(
        inj=tuple(int(c[0]) for c in inj), cult=tuple(int(c[0]) for c in cult)
    )
    if not any(indicators.survival):
        return complete_shot(indicators, config.selection_rule, None), None
    keep = bool(_kept(plan, draw, np.ones(1, dtype=bool))[0])
    outcome = complete_shot(indicators, config.selection_rule, keep)
    if not outcome.escape_kept:
        return outcome, None
    gaps, correct = _escape_draws(plan, draw, np.zeros(1, dtype=np.intp))
    return outcome, (float(gaps[0]), bool(correct[0]))


def write_records_jsonl(summary: SimSummary, path: str | Path) -> int:
    """One JSON object per kept shot (``RecordSet.to_jsonl``); returns the
    number of records written.
    """
    if summary.records is None:
        raise ValueError("run was configured without record collection")
    summary.records.to_jsonl(path)
    return len(summary.records)
