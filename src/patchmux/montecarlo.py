"""Seeded shot sampling over a failure model, with a pluggable escape stage.

Determinism contract (draw layout v3, ``LAYOUT_VERSION``): every draw slot
of the table below owns its own counter-based stream of 64-bit words,
Philox keyed by ``seed + (slot << 64)``, and shot i reads word i of each
stream (``_slot_words``). The key is injective in (seed, slot) for every
seed up to ``MAX_SEED``. Results are therefore a pure fold over shots in
index order, and block size, worker count or collecting records cannot
change any output bit.

Draw slots (k sites, m = ceil(k / 4)):

    0               explicit-joint selector (whole words)
    1               gap draw, also the empirical-pool rank (whole words)
    2               common mode: selector (quarter 0), shared fate (quarter 1)
    3               escape: keep (quarter 0), error class (quarter 1)
    4 .. 3+m        site j's early-stage test: word 4 + j // 4, quarter j % 4
    4+m .. 3+2m     unused, so that no other slot's number moves
    2**32 + 4s + q  tie stream of quarter q of packed slot s

A slot's number depends only on k, never on the model, and a run generates
only the streams its model reads: the escape word only when the stage can
reject (``keep_prob`` < 1) or, with records, draws an error class (no pool
and ``q`` > 0), and the gap stream only for records.

Slots 2 .. 3+m are packed: each word holds four Bernoulli tests, and test
q of shot i reads the quarter d = (w >> 16q) & 0xFFFF of word i. A test
decides ``u >= r`` for the 53-bit uniform u = (d * 2**37 + e) / 2**53,
exactly, as the integer comparison with t = ceil(r * 2**53): d alone decides
unless it equals the top 16 bits of t, about once in 65,536 tests, and only
then is e read, the top 37 bits of word i of that test's own tie stream,
compared with the low 37 bits of t (``_passes``). ``u < r`` is its negation.
Whole words stand for u = (w >> 11) * 2**-53, the double ``Generator.random``
makes from the same word, and are made into floats only where a model reads
one: the gap and the empirical-pool rank, for kept shots only, and the
explicit-joint selector. A pool draw takes the record of rank
min(floor(u N), N - 1) of the pool's N records in (gap, flag) order, a gap
of -0.0 counting as 0.0, so its draws depend on the pool's records and not
on their order in a file or a read. Fed the words of layout v2 repacked
(the top 16 of its 53 bits into a test's quarter, the low 37 into its tie
stream) the kernel writes v2's outputs bit for bit. A run is folded in
blocks of ``_BLOCK`` shots, and a run without records keeps only counts, so
it holds O(block) memory whatever its shot count.

Kept shots come back as one ``gap_analysis.RecordSet`` whose attempt total
is the shot count and whose ``shot_index`` column gives each kept shot's
index, so the sweep tools read a run's records without conversion.
``gap_analysis`` is imported only where a run collects records or draws from
a pool, and ``curves`` by ``expected_curve``: a run without them loads no
record layer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .analytics import (
    CommonMode,
    ExplicitJoint,
    FailureModel,
    ModelError,
    expected_histogram,
)
from .parts import _map_in_parts, _physical_memory, _usable_cpus

MAX_SEED = 2**64 - 1
LAYOUT_VERSION = 3  # the draw layout of the module docstring; simulate reports carry it
_LARGEST_EXPONENTIAL = -math.log1p(-(1.0 - 2.0**-53))  # e at the largest uniform a draw makes
# bytes a shot of the shot index, gap and flag columns that a run with
# records sizes for every shot (``_fold_run``)
_RECORD_BYTES = 8 + 8 + 1


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
        if self.kind != "constant" and not math.isfinite(_LARGEST_EXPONENTIAL / float(self.rate)):
            raise ModelError(f"gap distribution rate {self.rate!r} is too small: gaps overflow")
        if self.kind == "constant" and self.value < 0:
            raise ModelError("constant gap must be >= 0")

    def from_exponential(self, e: np.ndarray) -> np.ndarray:
        """Gaps from unit-exponential variates ``e = -log1p(-u)`` (inverse CDF)."""
        if self.kind == "constant":
            return np.full(np.shape(e), self.value, dtype=np.float64)
        x = e / self.rate
        return np.floor(x) if self.kind == "discrete_exponential" else x

    def survival(self, g) -> np.ndarray:
        """P(gap >= g) at each threshold g, for the gaps ``from_exponential``
        makes of e ~ Exp(1): a gap e / rate is >= g exactly when e >= rate * g,
        a floored one when e >= rate * ceil(g), and every gap is >= a g <= 0."""
        g = np.asarray(g, dtype=np.float64)
        if self.kind == "constant":
            return (self.value >= g).astype(np.float64)
        if self.kind == "discrete_exponential":
            g = np.ceil(g)
        return np.exp(-self.rate * np.maximum(g, 0.0))


DEFAULT_CORRECT_GAP = GapDistribution("discrete_exponential", rate=0.05)
DEFAULT_ERROR_GAP = GapDistribution("discrete_exponential", rate=0.25)

@dataclass(frozen=True)
class EscapeModel:
    """The escape stage, a stand-in for the out-of-scope circuit and decoder.

    It keeps a forwarded candidate with probability ``keep_prob``. Without a
    ``pool``, a kept output is erroneous with probability ``q`` and draws its
    gap from its class's law (``gap_correct`` or ``gap_error``). With one, it
    is a (gap, correct) record drawn from the pool, so ``q`` and the gap laws
    stay at their defaults. The defaults keep every candidate as correct,
    which isolates the early-stage statistics. A config's ``escape.kind``
    names three settings of these fields (``cli_simulate._escape_model``):
    ``always_keep`` sets at most ``gap_correct``; ``bernoulli`` sets ``q``,
    ``keep_prob`` and the gap laws; ``empirical`` sets a pool and ``keep_prob``.
    """

    q: float = 0.0
    keep_prob: float = 1.0
    gap_correct: GapDistribution = DEFAULT_CORRECT_GAP
    gap_error: GapDistribution = DEFAULT_ERROR_GAP
    pool: RecordSet | None = None  # its constructor checked the columns

    def __post_init__(self) -> None:
        if not (0.0 <= self.q <= 1.0):
            raise ModelError(f"error probability q={self.q!r} outside [0, 1]")
        if not (0.0 <= self.keep_prob <= 1.0):
            raise ModelError(f"keep_prob={self.keep_prob!r} outside [0, 1]")
        if self.pool is None:
            return
        if len(self.pool) == 0:
            raise ModelError("an escape pool must be non-empty")
        if self.q or (self.gap_correct, self.gap_error) != (DEFAULT_CORRECT_GAP, DEFAULT_ERROR_GAP):
            raise ModelError("a pool gives each output's gap and class: set no q or gap law")


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on."""

    failure_model: FailureModel
    n_shots: int
    seed: int
    escape_model: EscapeModel = field(default_factory=EscapeModel)
    collect_records: bool = True

    def __post_init__(self) -> None:
        if self.n_shots < 1:
            raise ValueError("n_shots must be at least 1")
        if not (0 <= self.seed <= MAX_SEED):
            raise ValueError("seed must fit in 64 unsigned bits")
        # an overcommitting host grants such columns, then fails to fill them
        if self.collect_records and 0 < _physical_memory() < self.n_shots * _RECORD_BYTES:
            raise ValueError(f"n_shots={self.n_shots} with records exceeds physical memory")

    @property
    def k(self) -> int:
        return self.failure_model.k


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


_UNIT = 1 << 53  # a test decides u >= r for u = h / 2**53, h a 53-bit integer
_TIE_BITS = 37  # h = d * 2**37 + e: a 16-bit quarter d and a 37-bit tie-break e
_TIE_UNIT = 1 << _TIE_BITS
_QUARTER = 0xFFFF
_TIES = 1 << 32  # the tie stream of quarter q of packed slot s is slot _TIES + 4 s + q
_JOINT, _GAP, _COMMON, _ESCAPE, _SITES = 0, 1, 2, 3, 4  # slots of the module docstring
_BYTE_SUM = np.uint32(0x01010101)  # x * _BYTE_SUM >> 24 sums the four bytes of x


# Re-keying a generator by setting its ``state`` costs about a sixth of
# building ``Philox(key=...)``, which draws a SeedSequence even when given a
# key. Each thread keeps its own generator; one is never shared across threads.
_thread_bits = threading.local()
_WORD = (1 << 64) - 1


def _philox() -> np.random.Philox:
    """This thread's generator, built (and ``numpy.random`` imported) at first use.

    The CLI's ``simulate`` has imported ``numpy.random`` by then, with
    OpenSSL hidden (``cli_simulate._import_numpy_random``); a library caller
    imports it here the ordinary way, which maps libcrypto where hashlib has it.
    """
    bits = getattr(_thread_bits, "philox", None)
    if bits is None:
        bits = _thread_bits.philox = np.random.Philox(0)
    return bits


def _slot_words(seed: int, slot: int, start: int, n: int) -> np.ndarray:
    """Words ``start .. start+n-1`` of the stream keyed (seed, slot).

    Philox makes four words per counter step and steps its counter before
    making them, so the counter is set to ``start // 4``: the next four words
    are those of the step that holds word ``start``, and the ones before
    ``start`` are dropped.
    """
    bits = _philox()
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
    return bits.random_raw(n)


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


def _floats(words: np.ndarray) -> np.ndarray:
    """The uniforms ``Generator.random`` makes from the same words, bit for bit."""
    return (words >> np.uint64(11)) * (1.0 / _UNIT)


@dataclass(frozen=True, eq=False)
class _Tests:
    """The four tests of one packed slot: ``u >= r`` for each quarter's rate.

    With t = ceil(r * 2**53), quarter q passes when d > hi[q], or when
    d == hi[q] and the tie-break e >= lo[q]. ``hi`` is tiled to a block's
    shots, so one flat comparison covers every quarter of a block; quarters
    that share one value keep a single element, which broadcasts. A quarter
    a run does not read gets t = 2**53, which never passes and reads no tie.
    """

    slot: int
    hi: np.ndarray  # uint16 min(t >> 37, 0xFFFF) of quarter q at 4 i + q
    lo: tuple[int, ...]  # t - (hi << 37), in [0, 2**37]; 2**37 never passes


def _tests(slot: int, thresholds, block: int) -> _Tests:
    t = list(thresholds) + [_UNIT] * (4 - len(thresholds))
    hi = np.array([min(v >> _TIE_BITS, _QUARTER) for v in t], dtype=np.uint16)
    return _Tests(
        slot,
        hi[:1] if (hi == hi[0]).all() else np.tile(hi, block),
        tuple(v - (int(h) << _TIE_BITS) for v, h in zip(t, hi)),
    )


def _passes(tests: _Tests, seed: int, start: int, words: np.ndarray) -> np.ndarray:
    """``u >= r`` of every quarter of ``words``, word i being shot start + i of
    slot ``tests.slot``: one flat column with quarter q of shot i at 4 i + q.

    Viewing little-endian words as little-endian 16-bit values puts
    (w >> 16q) & 0xFFFF at 4 i + q whatever the host's byte order. Only the
    tied quarters read their tie stream, one word each.
    """
    d = np.ascontiguousarray(words, dtype="<u8").view("<u2")
    hi = tests.hi[: d.size]
    ties = np.flatnonzero(d == hi)  # before ``passed``, so one mask is alive at a time
    passed = d > hi
    for at in ties.tolist():
        shot, q = divmod(at, 4)
        lo = tests.lo[q]
        if 0 < lo < _TIE_UNIT:
            tie = _slot_words(seed, _TIES + 4 * tests.slot + q, start + shot, 1)
            passed[at] = int(tie[0]) >> (64 - _TIE_BITS) >= lo
        else:
            passed[at] = lo == 0
    return passed


class _Draws:
    """The draws of shots start .. start+count-1; each packed slot is tested once."""

    def __init__(self, seed: int, start: int, count: int) -> None:
        self.seed, self.start, self.count = seed, start, count
        self._passed: dict[int, np.ndarray] = {}

    def floats(self, slot: int, rows: np.ndarray | None = None) -> np.ndarray:
        words = _slot_words(self.seed, slot, self.start, self.count)
        return _floats(words if rows is None else words[rows])

    def passes(self, tests: _Tests) -> np.ndarray:
        passed = self._passed.get(tests.slot)
        if passed is None:
            words = _slot_words(self.seed, tests.slot, self.start, self.count)
            passed = self._passed[tests.slot] = _passes(tests, self.seed, self.start, words)
        return passed


@dataclass(frozen=True, eq=False)
class _Plan:
    """Per-run constants of the kernel: the packed tests and the joint CDF.

    Site columns are flat like the tests: one boolean column of 4 x shots
    per word of four sites, False past the last site.
    """

    config: SimConfig
    sites: tuple[_Tests, ...]  # site passes; empty for a joint model
    site_bytes: tuple[np.uint32, ...]  # per site word, the bytes of its sites set to 1
    common: _Tests | None  # c > 0: q0 passes when the sites keep their own fates,
    #                        q1 when the shared fate passes
    escape: _Tests | None  # q0 passes when the stage rejects, q1 when an output is correct
    joint_cdf: np.ndarray | None  # explicit joint: cumulative outcome table
    pool: tuple[np.ndarray, ...] | None  # a pool's gaps, flags and cumulative counts
    #                                      of the pool's distinct pairs, in (gap, flag) order


def _plan(config: SimConfig, block: int) -> _Plan:
    """The plan of folds of up to ``block`` shots; error classes only with records."""
    corr = config.failure_model.correlation
    esc = config.escape_model
    k = config.k
    rates = np.asarray(config.failure_model.per_site_fail, dtype=np.float64)
    common = isinstance(corr, CommonMode) and _threshold(corr.c) > 0
    joint = isinstance(corr, ExplicitJoint)

    words = (k + 3) // 4
    site_t = [_threshold(r) for r in rates]
    reject_at = _threshold(esc.keep_prob)
    errors = esc.pool is None and esc.q > 0 and config.collect_records
    pool = None
    if esc.pool is not None:
        from .gap_analysis import _distinct, _pair_keys, _pairs
        keys, count = _distinct(_pair_keys(esc.pool.gaps, esc.pool.correct), esc.pool.count)
        pool = (*_pairs(keys, count)[:2], np.cumsum(count))
    return _Plan(
        config=config,
        sites=()
        if joint
        else tuple(_tests(_SITES + w, site_t[4 * w : 4 * w + 4], block) for w in range(words)),
        site_bytes=tuple(
            np.array([4 * w + q < k for q in range(4)]).view(np.uint32)[0] for w in range(words)
        ),
        common=_tests(_COMMON, [_threshold(corr.c), _threshold(rates.mean())], block)
        if common
        else None,
        escape=_tests(_ESCAPE, [reject_at, _threshold(esc.q) if errors else _UNIT], block)
        if reject_at < _UNIT or errors
        else None,
        joint_cdf=np.cumsum(np.asarray(corr.table, dtype=np.float64)) if joint else None,
        pool=pool,
    )


def _survival_bits(plan: _Plan, draws: _Draws) -> list[np.ndarray]:
    """Flat boolean columns of surviving sites, one per site word.

    Only the slots the model reads are drawn.
    """
    k = plan.config.k
    if plan.joint_cdf is not None:
        outcome = np.minimum(
            np.searchsorted(plan.joint_cdf, draws.floats(_JOINT), side="right"), 2**k - 1
        )
        site = np.arange(4 * len(plan.site_bytes))
        bits = (((outcome[:, None] >> site) & 1) == 0) & (site < k)
        return [bits[:, 4 * w : 4 * w + 4].ravel() for w in range(len(plan.site_bytes))]
    chi = [draws.passes(tests) for tests in plan.sites]
    if plan.common is None:
        return chi
    common = draws.passes(plan.common)
    shared, fate = ~common[0::4], common[1::4].astype(np.uint32)
    return [
        np.where(shared, fate * used, passed.view(np.uint32)).view(bool)
        for passed, used in zip(chi, plan.site_bytes)
    ]


def _site_counts(chi: list[np.ndarray]) -> np.ndarray:
    """Surviving sites per shot: each shot's four bytes of a column summed as one word."""
    counts = chi[0].view(np.uint32) * _BYTE_SUM
    counts >>= 24
    for column in chi[1:]:
        more = column.view(np.uint32) * _BYTE_SUM
        more >>= 24
        counts += more
    return counts


def _kept(plan: _Plan, draws: _Draws, candidate: np.ndarray) -> np.ndarray:
    """Shots with a candidate that the escape stage keeps.

    A stage that keeps every candidate (``keep_prob`` 1) reads no escape
    words for it.
    """
    if plan.config.escape_model.keep_prob == 1:
        return candidate
    return candidate & ~draws.passes(plan.escape)[0::4]


def _escape_draws(plan: _Plan, draws: _Draws, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gap, correct) of the given shots; floats are made for these shots only."""
    esc = plan.config.escape_model
    u = draws.floats(_GAP, rows)
    if plan.pool is not None:  # the rank-th record in (gap, flag) order
        size = len(esc.pool)
        rank = np.minimum((u * size).astype(np.int64), size - 1)
        gaps, correct, ends = plan.pool
        row = np.searchsorted(ends, rank, side="right")
        return gaps[row], correct[row]
    e = -np.log1p(-u)  # one unit-exponential variate per shot, shared by both classes
    if esc.q == 0:
        return esc.gap_correct.from_exponential(e), np.ones(rows.size, dtype=bool)
    correct = draws.passes(plan.escape)[1::4][rows]
    gaps = np.where(
        correct, esc.gap_correct.from_exponential(e), esc.gap_error.from_exponential(e)
    )
    return gaps, correct


# Shots folded at once. A block reads one word a shot from each slot it
# tests, and each slot costs one Philox re-keying (~5 us), so long blocks
# amortise it while a block's few columns still fit in cache.
_BLOCK = 1 << 16


@dataclass(eq=False)
class _Fold:
    """Counts over a run of shots; with records, the kept shots' columns."""

    histogram: np.ndarray
    kept: int
    columns: tuple[np.ndarray, ...] | None = None  # shot index, gap, correct


def _merge(folds: list[_Fold]) -> _Fold:
    """Folds of consecutive shot runs, in shot order, as one."""
    if len(folds) == 1:
        return folds[0]
    merged = _Fold(sum(f.histogram for f in folds), sum(f.kept for f in folds))
    if folds[0].columns is not None:
        merged.columns = tuple(map(np.concatenate, zip(*(f.columns for f in folds))))
    return merged


def _histogram(sizes: np.ndarray, k: int) -> np.ndarray:
    """Shots per surviving-site count 0..k, one counting pass per count.

    Per 65,536-shot block (numpy 2.4.6, 2-vCPU host) this takes 83, 147 and
    260 us at k = 4, 8 and 15, against 146, 130 and 127 us for np.bincount,
    which first casts the sizes to intp: at most ~2 ns a shot more at k = 15.
    """
    return np.array([np.count_nonzero(sizes == c) for c in range(k + 1)])


def _fold_block(plan: _Plan, start: int, count: int) -> _Fold:
    draws = _Draws(plan.config.seed, start, count)
    sizes = _site_counts(_survival_bits(plan, draws))
    histogram = _histogram(sizes, plan.config.k)
    kept = _kept(plan, draws, sizes > 0)
    if not plan.config.collect_records:
        return _Fold(histogram, int(np.count_nonzero(kept)))
    rows = np.flatnonzero(kept)
    gaps, correct = _escape_draws(plan, draws, rows)
    return _Fold(histogram, int(rows.size), (rows + start, gaps, correct))


def _fold_run(plan: _Plan, start: int, stop: int) -> _Fold:
    """Shots start .. stop-1, folded block by block into one fold.

    Each block's kept columns are copied into columns sized for every shot
    of the run and then freed; pages past the last kept shot are never
    touched. Kept until a merge, the blocks' own columns would lie among
    their freed temporaries and keep them resident: a one-worker run of
    2x10^6 shots with records peaked at 129 MB that way, and at 98 MB this
    way (2-vCPU host, numpy 2.4).
    """
    total = _Fold(0, 0)
    columns = None
    if plan.config.collect_records:
        columns = tuple(np.empty(stop - start, dtype) for dtype in (np.int64, np.float64, bool))
    for s in range(start, stop, _BLOCK):
        fold = _fold_block(plan, s, min(_BLOCK, stop - s))
        if columns is not None:
            for column, block in zip(columns, fold.columns):
                column[total.kept : total.kept + fold.kept] = block
        total.histogram = total.histogram + fold.histogram
        total.kept += fold.kept
    if columns is not None:
        total.columns = tuple(column[: total.kept] for column in columns)
    return total


def run_simulation(config: SimConfig, workers: int = 1) -> SimSummary:
    """Sample every shot and fold the results in shot-index order.

    ``workers`` is an execution knob only; any count produces identical
    output for the same config. The shots are cut into blocks of ``_BLOCK``,
    and the blocks into ``min(workers, usable CPUs, blocks)`` runs of
    consecutive blocks, folded by ``_map_in_parts``: the first here, the
    others in forked processes. The run merges the runs' folds once.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n = config.n_shots
    plan = _plan(config, min(_BLOCK, n))
    blocks = -(-n // _BLOCK)
    parts = min(workers, _usable_cpus(), blocks)
    bounds = [min(n, _BLOCK * (blocks * part // parts)) for part in range(parts + 1)]
    _philox()  # before a fork, so that no child imports numpy.random again
    total = _merge(_map_in_parts(lambda part: _fold_run(plan, *bounds[part : part + 2]), parts))
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
        from .gap_analysis import RecordSet
        shot_index, gaps, correct = total.columns
        records = RecordSet(gaps=gaps, correct=correct, n_attempts=n, shot_index=shot_index)

    return SimSummary(
        shots=n,
        early_discards=early_discards,
        kept=kept,
        empirical_discard=early_discards / n,
        empirical_attempts=attempts,
        site_survival_histogram=tuple(int(c) for c in total.histogram),
        records=records,
        warnings=warnings,
    )


def expected(config: SimConfig) -> dict:
    """The per-shot rate of each count ``SimSummary`` holds, keyed by its
    field: the closed-form discard D, the kept fraction (1 - D) ``keep_prob``,
    and the surviving-site law, ``analytics.expected_histogram``."""
    law = expected_histogram(config.failure_model)
    return {
        "early_discards": law[0],
        "kept": (1.0 - law[0]) * config.escape_model.keep_prob,
        "site_survival_histogram": law,
    }


def expected_curve(config: SimConfig, thresholds) -> SweepCurve:
    """The curve that ``sweep(run_simulation(config).records, thresholds)``
    has in expectation, its counts as floats.

    Each of the N shots is kept with P, ``expected(config)["kept"]``. A kept
    output is correct with a gap >= G with probability (1 - q) S_c(G), and
    erroneous with one with q S_e(G), S being each class's
    ``GapDistribution.survival``. A pool's outputs are its records drawn
    evenly, so its curve is the pool's own sweep times N P / |pool|.
    """
    from .curves import SweepCurve, sweep
    esc, n = config.escape_model, config.n_shots
    kept = n * expected(config)["kept"]
    ts = np.asarray(thresholds, dtype=np.float64)
    if esc.pool is not None:
        pool = sweep(esc.pool, ts)
        scale = kept / len(esc.pool)
        return SweepCurve(ts, pool.kept_correct * scale, pool.kept_error * scale, n)
    correct = kept * (1.0 - esc.q) * esc.gap_correct.survival(ts)
    return SweepCurve(ts, correct, kept * esc.q * esc.gap_error.survival(ts), n)
