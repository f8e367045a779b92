"""The benchmark's workloads: generated inputs, the CLI chain each runs, and output checks.

Every workload derives its inputs from the benchmark seed alone. patchmux
only ever sees the configs and record files written here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

K = 4
D_SINGLE = 0.4903  # single-site discard of the d3-p0.002 preset
Q = 0.05
Z_LIMIT = 5.0


def worker_count() -> int:
    """Workers for sampler_scale: the cores this process may use, at most two."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class Step:
    """One patchmux CLI invocation of a chain.

    ``stage`` is the subcommand; ``items(out)`` counts the shots it simulated
    or the records it ingested; ``check(out)`` lists what is wrong with its
    output in the chain's output directory ``out``.
    """

    stage: str
    args: list[str]
    items: Callable[[Path], int]
    check: Callable[[Path], list[str]]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            lines += block.count(b"\n")
    return lines


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def simulate_config(seed: int, n_shots: int, records: bool) -> dict:
    return {
        "k": K,
        "n_shots": n_shots,
        "seed": seed,
        "failure": {"kind": "independent", "calibrate_discard": D_SINGLE},
        "escape": {
            "kind": "bernoulli",
            "q": Q,
            "gap_correct": {"kind": "exponential", "rate": 0.05},
            "gap_error": {"kind": "exponential", "rate": 0.25},
        },
        "labels": {"d1": 3, "p": 0.002},
        "records": records,
    }


def check_simulate(out: Path, n_shots: int, records: bool) -> list[str]:
    """Counts add up, and the discard agrees with the closed form within |z| <= 5."""
    from patchmux.analytics import FailureModel, joint_all_fail_probability

    problems: list[str] = []
    res = _read_json(out / "sim_summary.json")["results"]
    shots, early, kept = res["shots"], res["early_discards"], res["kept"]
    _expect(problems, shots == n_shots, f"shots {shots} != {n_shots}")
    _expect(problems, early + kept == shots, f"early_discards + kept = {early + kept} != {shots}")
    hist = sum(res["site_survival_histogram"])
    _expect(problems, hist == shots, f"survival histogram sums to {hist}, not {shots}")
    p = joint_all_fail_probability(FailureModel.identical(D_SINGLE, K))
    z = (early / shots - p) / math.sqrt(p * (1.0 - p) / shots)
    _expect(problems, abs(z) <= Z_LIMIT, f"empirical discard is {z:+.2f} sigma from {p:.6g}")
    if records:
        written = res.get("records_written")
        lines = count_lines(out / "records.jsonl")
        _expect(problems, written == kept, f"records_written {written} != kept {kept}")
        _expect(problems, lines == kept, f"records.jsonl has {lines} lines, kept is {kept}")
    return problems


def curve_rows(path: Path) -> int:
    return count_lines(path) - 1  # header


class Workload:
    name: str
    # output files, relative to a chain's output directory, that a rerun of
    # the first step with the same seed must reproduce byte for byte
    rerun_files: tuple[str, ...]

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.smoke = smoke
        self.work = work

    def prepare(self) -> None:
        """Write configs and inputs under ``self.work``."""

    def chain(self, out: Path) -> list[Step]:
        raise NotImplementedError

    def one_worker(self, out: Path) -> Step | None:
        """The chain's simulate step on one worker, for the worker speed-up; None if absent."""
        return None

    def trailing_shots_dropped(self, out: Path) -> int:
        """Shots the gap-sweep report leaves out of its attempt count."""
        return 0

    def cleanup(self) -> None:
        """Remove large generated inputs."""


class SimChain(Workload):
    """simulate --records, then gap-sweep over the records with a tail fit."""

    name = "sim_chain"
    rerun_files = ("sim/sim_summary.json", "sim/records.jsonl")

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.n_shots = 10_000 if smoke else 100_000

    def prepare(self) -> None:
        cfg = simulate_config(self.seed, self.n_shots, records=True)
        (self.work / "sim.json").write_text(json.dumps(cfg), encoding="utf-8")
        sweep = {"tail_window": [2, 20]}
        (self.work / "sweep.json").write_text(json.dumps(sweep), encoding="utf-8")

    def chain(self, out: Path) -> list[Step]:
        sim_out, sweep_out = out / "sim", out / "sweep"
        return [
            Step(
                "simulate",
                ["simulate", "--config", str(self.work / "sim.json"), "--out", str(sim_out)],
                lambda out: self.n_shots,
                lambda out: check_simulate(out / "sim", self.n_shots, records=True),
            ),
            Step(
                "gap-sweep",
                [
                    "gap-sweep",
                    "--config",
                    str(self.work / "sweep.json"),
                    "--records",
                    str(sim_out / "records.jsonl"),
                    "--out",
                    str(sweep_out),
                ],
                lambda out: self._report(out)["inputs"][0]["records"],
                self._check_sweep,
            ),
        ]

    def _check_sweep(self, out: Path) -> list[str]:
        problems: list[str] = []
        kept = _read_json(out / "sim" / "sim_summary.json")["results"]["kept"]
        lines = count_lines(out / "sim" / "records.jsonl")
        res = self._report(out)
        (entry,) = res["inputs"]
        read = entry["records"]
        _expect(problems, read == kept, f"gap-sweep read {read} records, simulate kept {kept}")
        _expect(problems, read == lines, f"gap-sweep read {read} records, file has {lines}")
        rows = curve_rows(out / "sweep" / entry["curve_csv"])
        grid = res["thresholds"]
        _expect(problems, rows == grid, f"curve CSV has {rows} rows for {grid} grid points")
        _expect(problems, isinstance(entry.get("tail"), dict), f"no tail fit: {entry.get('tail')!r}")
        return problems

    def trailing_shots_dropped(self, out: Path) -> int:
        (entry,) = self._report(out)["inputs"]
        return self.n_shots - entry["n_attempts"]

    @staticmethod
    def _report(out: Path) -> dict:
        return _read_json(out / "sweep" / "gap_report.json")["results"]


class SamplerScale(Workload):
    """simulate without records at 100 times the shots of sim_chain, on up to two workers."""

    name = "sampler_scale"
    rerun_files = ("sim/sim_summary.json",)

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.n_shots = 10_000 if smoke else 10_000_000

    def prepare(self) -> None:
        cfg = simulate_config(self.seed, self.n_shots, records=False)
        (self.work / "sim.json").write_text(json.dumps(cfg), encoding="utf-8")

    def _simulate(self, out: Path, workers: int) -> Step:
        return Step(
            "simulate",
            ["simulate", "--config", str(self.work / "sim.json"), "--out", str(out / "sim"),
             "--workers", str(workers)],
            lambda out: self.n_shots,
            lambda out: check_simulate(out / "sim", self.n_shots, records=False),
        )

    def chain(self, out: Path) -> list[Step]:
        return [self._simulate(out, worker_count())]

    def one_worker(self, out: Path) -> Step:
        return self._simulate(out, 1)


# The two crossing_pair inputs: (error probability q, error-gap rate). Input A
# has many errors that die off fast, input B few errors with a long tail, so
# their logical-error curves cross between G = 2 and G = 3.
CROSSING_INPUTS = ((0.2, 1.2), (0.02, 0.1))
CORRECT_GAP_RATE = 0.05


def crossing_records(rng: np.random.Generator, n_attempts: int, q: float, error_rate: float):
    """Kept-shot indices, integer gaps and correct flags for one input."""
    kept = rng.random(n_attempts) >= D_SINGLE**K
    index = np.nonzero(kept)[0]
    erroneous = rng.random(index.size) < q
    rate = np.where(erroneous, error_rate, CORRECT_GAP_RATE)
    gaps = np.floor(rng.exponential(1.0, index.size) / rate)
    return index, gaps, ~erroneous


def survivors(gaps: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Records with gap >= G at each grid point, counted by integer histogram."""
    counts = np.bincount(gaps.astype(np.int64), minlength=int(grid[-1]) + 2)
    at_or_above = np.cumsum(counts[::-1])[::-1]
    return at_or_above[grid.astype(np.int64)]


def recount_crossing(inputs: list[tuple[np.ndarray, np.ndarray]]):
    """Grid size and (threshold, bracket) of the first order change, or None.

    An independent recount of the two logical-error curves over the default
    grid (zero plus every distinct gap), for integer gaps only.
    """
    grid = np.unique(np.concatenate([[0.0]] + [g for g, _ in inputs]))
    rates = []
    for gaps, correct in inputs:
        errors = survivors(gaps[~correct], grid)
        kept = survivors(gaps, grid)
        with np.errstate(invalid="ignore", divide="ignore"):
            rates.append(np.where(kept > 0, errors / kept, np.nan))
    diff = rates[0] - rates[1]
    return grid.size, first_order_change(grid, diff)


def first_order_change(grid: np.ndarray, diff: np.ndarray):
    """Smallest threshold where the sign of ``diff`` flips.

    NaN breaks a run; a run of exact zeros between opposite signs is reported
    at the first zero; a strict flip between neighbours is interpolated.
    """
    last = None  # (index, sign) of the last nonzero point of the current run
    first_zero = None
    for i, d in enumerate(diff):
        if math.isnan(d):
            last, first_zero = None, None
        elif d == 0:
            if last is not None and first_zero is None:
                first_zero = float(grid[i])
        else:
            sign = 1 if d > 0 else -1
            if last is not None and sign != last[1]:
                if first_zero is not None:
                    return first_zero, (first_zero, first_zero)
                t0, t1, d0 = float(grid[last[0]]), float(grid[i]), diff[last[0]]
                return t0 + (t1 - t0) * abs(d0) / (abs(d0) + abs(d)), (t0, t1)
            last, first_zero = (i, sign), None
    return None


class CrossingPair(Workload):
    """Two-input gap-sweep (JSONL and CSV) with a crossing and no tail fit."""

    name = "crossing_pair"
    rerun_files = ("sweep/gap_report.json",)

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.n_attempts = 5_000 if smoke else 250_000
        self.paths = (work / "a.jsonl", work / "b.csv")

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for (q, rate), path in zip(CROSSING_INPUTS, self.paths):
            index, gaps, correct = crossing_records(rng, self.n_attempts, q, rate)
            flags = np.where(correct, "true", "false").tolist()
            ints = gaps.astype(np.int64).tolist()
            if path.suffix == ".jsonl":
                consumed = np.diff(index, prepend=-1).tolist()
                text = "".join(
                    f'{{"gap": {g}.0, "correct": {c}, "attempts_consumed": {a}}}\n'
                    for g, c, a in zip(ints, flags, consumed)
                )
            else:
                text = "gap,correct\n" + "".join(f"{g},{c}\n" for g, c in zip(ints, flags))
            path.write_text(text, encoding="utf-8")
            self.inputs.append((gaps, correct))
        self.grid_points, self.crossing = recount_crossing(self.inputs)
        cfg = {"n_attempts": self.n_attempts}
        (self.work / "sweep.json").write_text(json.dumps(cfg), encoding="utf-8")

    def chain(self, out: Path) -> list[Step]:
        args = ["gap-sweep", "--config", str(self.work / "sweep.json")]
        for path in self.paths:
            args += ["--records", str(path)]
        args += ["--out", str(out / "sweep")]
        return [
            Step(
                "gap-sweep",
                args,
                lambda out: sum(len(g) for g, _ in self.inputs),
                self._check,
            )
        ]

    def _check(self, out: Path) -> list[str]:
        problems: list[str] = []
        res = _read_json(out / "sweep" / "gap_report.json")["results"]
        grid = res["thresholds"]
        expected = self.grid_points
        _expect(problems, grid == expected, f"grid has {grid} points, recount says {expected}")
        for entry, (gaps, _), path in zip(res["inputs"], self.inputs, self.paths):
            name, read = path.name, entry["records"]
            _expect(problems, read == gaps.size, f"{name}: read {read} records, wrote {gaps.size}")
            lines = count_lines(path) - (1 if path.suffix == ".csv" else 0)  # CSV header
            _expect(problems, read == lines, f"{name}: read {read} records, file has {lines}")
            attempts = entry["n_attempts"]
            _expect(problems, attempts == self.n_attempts, f"{name}: n_attempts {attempts}")
            _expect(problems, "tail" not in entry, f"{name}: unexpected tail fit")
            rows = curve_rows(out / "sweep" / entry["curve_csv"])
            _expect(problems, rows == grid, f"{entry['curve_csv']}: {rows} rows for {grid} grid points")
        problems += self._check_crossing(res.get("crossing"))
        return problems

    def _check_crossing(self, reported) -> list[str]:
        if self.crossing is None or reported is None:
            both_none = self.crossing is reported
            return [] if both_none else [f"crossing {reported!r}, recount says {self.crossing!r}"]
        threshold, bracket = self.crossing
        same_bracket = [float(b) for b in reported["bracket"]] == list(bracket)
        close = math.isclose(reported["threshold"], threshold, rel_tol=1e-5, abs_tol=1e-9)
        if same_bracket and close:
            return []
        return [f"crossing {reported!r}, recount says {threshold:.6g} in {bracket}"]

    def cleanup(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (SimChain, CrossingPair, SamplerScale)}
