"""patchmux benchmark: drives the real CLI in fresh processes and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1} [--smoke]

NAME is sim_chain, crossing_pair, sampler_scale, or ``all`` for each in turn.
The program is imported from ``src/`` beside this directory; nothing is
installed. ``--smoke`` shrinks every input to about 10^4 shots or a few
thousand records, for the benchmark's own tests.

A closed loop with one client: the workload's chain of patchmux commands runs
again and again, each command only after the previous one has finished, until
S seconds have passed (at least once). Every command is one operation; it
fails if it exits non-zero or any check of its output fails, including that
reruns of the same seed reproduce its outputs byte for byte.

``--trace 0`` reports the end-to-end metrics as medians over the chains run:
``wall_s`` (the chain's commands, summed), ``peak_rss_mb`` (largest peak
RSS of the chain's processes, as each records it) and ``setup_s`` (a fresh interpreter
importing ``patchmux.cli``, the start cost every command pays, sampled once
per chain and at least SETUP_SAMPLES times). Both times are scaled to a
reference host speed (see HostSpeed). Stage throughputs, unscaled times and
``fail_ratio`` are printed above the result line.

``--trace 1`` runs each chain untraced and then through ``traced_cli.py``,
and reports per-layer metrics derived from the traced chain's spans, as
medians over the pairs run. All spans of the run are written to
``perfbench/work/<workload>/trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
PROCESS_TIMEOUT_S = 170.0
SETUP_SAMPLES = 7
# host_probe() time on a quiet 2-vCPU x86-64 VM at 2.1 GHz (Python 3.11, numpy 2.4)
REFERENCE_PROBE_S = 0.085

# Spans recorded by traced_cli.py, and the counts reported for each.
SPAN_NAMES = (
    "cli.main",
    "montecarlo.run_simulation",
    "montecarlo.write_records_jsonl",
    "gap_analysis.from_jsonl",
    "gap_analysis.from_csv",
    "gap_analysis.sweep",
    "gap_analysis.extrapolate_tail",
    "gap_analysis.write_curve_csv",
    "gap_analysis.find_crossing",
)
SPAN_COUNTS = {
    "montecarlo.write_records_jsonl": ("bytes",),
    "gap_analysis.from_jsonl": ("records", "rss_growth_mb"),
    "gap_analysis.from_csv": ("records", "rss_growth_mb"),
    "gap_analysis.sweep": ("grid_points", "rss_growth_mb"),
    "gap_analysis.write_curve_csv": ("bytes",),
}
LAYERS = ("cli", "montecarlo", "gap_analysis")
STAGE_RATES = {"simulate": "simulate_shots_per_s", "gap-sweep": "sweep_records_per_s"}
UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "montecarlo.kept_ratio": "ratio",
    "montecarlo.worker_speedup": "ratio",
    "gap_analysis.trailing_shots_dropped": "count",
    "trace.overhead_s": "s",
    "wall_raw_s": "s",
    "host_speed_factor": "ratio",
    "simulate_shots_per_s": "1/s",
    "sweep_records_per_s": "1/s",
}
COUNT_UNITS = {"bytes": "bytes", "records": "count", "grid_points": "count", "rss_growth_mb": "MB"}


def unit_of(metric: str) -> str:
    """Unit of a reported metric; span metrics without a count are times."""
    return UNITS.get(metric) or COUNT_UNITS.get(metric.rsplit(".", 1)[-1], "s")


@dataclass
class Proc:
    rc: int
    start: float
    end: float
    cpu_s: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_process(argv: list[str], log: Path, peak_file: Path | None = None) -> Proc:
    """Run one process to completion; its CPU time comes from wait4.

    Peak RSS is read from ``peak_file`` where the process wrote one (see
    cli_entry.py), else taken from wait4.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = usage.ru_utime + usage.ru_stime
    peak_kb = usage.ru_maxrss
    if peak_file is not None and peak_file.exists():
        peak_kb = int(peak_file.read_text(encoding="ascii"))
    return Proc(proc.returncode, start, end, cpu_s, peak_kb / 1024.0)


def setup_sample(log: Path) -> float:
    """Wall time of a fresh interpreter importing patchmux.cli."""
    p = run_process([sys.executable, "-c", "import patchmux.cli"], log)
    if p.rc != 0:
        raise RuntimeError(f"import patchmux.cli failed:\n{log.read_text(errors='replace')}")
    return p.wall_s


class HostSpeed:
    """Scales wall times to the speed of a reference host.

    On a shared host, neighbouring load slows every process by up to 40% for
    spans of seconds to minutes, and runs minutes apart differ by that much.
    A fixed task, independent of patchmux, is timed between measurements;
    each measurement is scaled by REFERENCE_PROBE_S over the mean of the
    probes just before and after it.
    """

    def __init__(self):
        self.last = host_probe()

    def factor(self) -> float:
        """Scale for whatever was measured since the previous probe."""
        now = host_probe()
        factor = REFERENCE_PROBE_S / ((self.last + now) / 2.0)
        self.last = now
        return factor


def host_probe() -> float:
    """Wall time of a fixed mix of interpreter and numpy work."""
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    np.sort(np.arange(2_000_000, dtype=np.float64)[::-1])
    return time.perf_counter() - start


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


@dataclass
class Chain:
    """One pass through a workload's commands, or a lone extra command."""

    run_id: str
    out: Path
    procs: list[Proc] = field(default_factory=list)
    rates: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    first_op: str = ""
    dropped: int = 0
    scale: float = 1.0  # host speed factor for this chain's wall time

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.maxrss_mb for p in self.procs)


class Bench:
    """Runs one workload's commands; keeps the operation tally and all spans."""

    def __init__(self, workload, work: Path):
        self.w = workload
        self.work = work
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.spans: list[dict] = []

    def _span(self, name: str, run: str, parent: str | None) -> dict:
        span = {"name": name, "run": run, "id": f"bench.{len(self.spans)}", "parent": parent,
                "start": 0.0, "end": 0.0, "cpu_s": 0.0, "attrs": {}}
        self.spans.append(span)
        return span

    def fail(self, op: str, problem: str) -> None:
        self.failed_ops.add(op)
        print(f"FAILED {op}: {problem}", file=sys.stderr)

    def run_step(self, step, chain: Chain, traced: bool, parent: str | None) -> Proc:
        """Run one command as one operation, then check its output."""
        chain.out.mkdir(parents=True, exist_ok=True)
        op = f"{chain.run_id}/{len(chain.procs)}-{step.stage}"
        log = chain.out / f"{len(chain.procs)}-{step.stage}.log"
        proc_span = self._span(f"process.{step.stage}", chain.run_id, parent)
        spans_file = log.with_suffix(".spans.json")
        peak_file = log.with_suffix(".peak")
        argv = [sys.executable, str(BENCH / "cli_entry.py"), str(peak_file)]
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(peak_file),
                    str(spans_file), chain.run_id, proc_span["id"], "--"]
        proc = run_process(argv + step.args, log, peak_file)
        proc_span.update(start=proc.start, end=proc.end, cpu_s=proc.cpu_s,
                         attrs={"maxrss_mb": proc.maxrss_mb})
        if traced and spans_file.exists():
            self.spans += json.loads(spans_file.read_text(encoding="utf-8"))
        chain.procs.append(proc)
        chain.first_op = chain.first_op or op
        self.attempted += 1
        problems = [f"exit code {proc.rc}"] if proc.rc != 0 else []
        if not problems:
            try:
                problems = step.check(chain.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"output check raised {exc!r}"]
        for problem in problems:
            self.fail(op, problem)
        if problems:
            print(log.read_text(encoding="utf-8", errors="replace")[-2000:], file=sys.stderr)
        return proc

    def run_chain(self, index: int, traced: bool) -> Chain:
        kind = "traced" if traced else "untraced"
        run_id = f"{self.w.name}-{self.w.seed}-{index}-{kind}"
        chain = Chain(run_id, self.work / f"chain{index}-{kind}")
        chain_span = self._span("chain", chain.run_id, None)
        for step in self.w.chain(chain.out):
            proc = self.run_step(step, chain, traced, chain_span["id"])
            if proc.rc != 0:
                return chain
            chain.rates[STAGE_RATES[step.stage]] = step.items(chain.out) / proc.wall_s
        chain_span.update(start=chain.procs[0].start, end=chain.procs[-1].end)
        chain.spans = [s for s in self.spans if s["run"] == chain.run_id]
        chain.dropped = self.w.trailing_shots_dropped(chain.out)
        chain.digests = self.digests(chain.out)
        return chain

    def digests(self, out: Path) -> dict[str, str]:
        return {name: file_digest(out / name) for name in self.w.rerun_files}

    def one_worker_s(self, index: int) -> float:
        """Traced run_simulation time on one worker; 0 where the workload has no such step."""
        run_id = f"{self.w.name}-{self.w.seed}-{index}-one-worker"
        chain = Chain(run_id, self.work / f"one-worker{index}")
        step = self.w.one_worker(chain.out)
        if step is None:
            return 0.0
        proc = self.run_step(step, chain, True, None)
        shutil.rmtree(chain.out, ignore_errors=True)
        if proc.rc != 0:
            return 0.0
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["run"] == run_id and s["name"] == "montecarlo.run_simulation")

    def rerun_check(self, chains: list[Chain]) -> None:
        """Every chain of this seed must reproduce the first one's output bytes.

        With a single finished chain, its first command runs once more.
        """
        done = [c for c in chains if c.digests]
        if len(done) == 1:
            rerun = Chain(f"{self.w.name}-{self.w.seed}-rerun", self.work / "rerun")
            if self.run_step(self.w.chain(rerun.out)[0], rerun, False, None).rc == 0:
                rerun.digests = self.digests(rerun.out)
                done.append(rerun)
            shutil.rmtree(rerun.out, ignore_errors=True)
        for c in done[1:]:
            for name, digest in c.digests.items():
                if digest != done[0].digests[name]:
                    self.fail(c.first_op, f"{name} differs from {done[0].run_id}")


def layer_metrics(traced: Chain, untraced: Chain, one_worker_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced chain, from its spans."""
    spans = [s for s in traced.spans if not s["id"].startswith("bench.")]
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        mine = [s for s in spans if s["name"] == name]
        m[f"{name}.s"] = sum(s["end"] - s["start"] for s in mine)
        m[f"{name}.cpu_s"] = sum(s["cpu_s"] for s in mine)
        for key in SPAN_COUNTS.get(name, ()):
            m[f"{name}.{key}"] = sum(s["attrs"].get(key, 0) for s in mine)
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].split(".")[0] == layer]
        m[f"{layer}.self_s"] = sum(selfs[s["id"]] for s in mine)
    sims = [s for s in spans if s["name"] == "montecarlo.run_simulation"]
    shots = sum(s["attrs"]["shots"] for s in sims)
    m["montecarlo.kept_ratio"] = sum(s["attrs"]["kept"] for s in sims) / shots if shots else 0.0
    sim_s = m["montecarlo.run_simulation.s"]
    m["montecarlo.worker_speedup"] = one_worker_s / sim_s if one_worker_s and sim_s else 0.0
    m["gap_analysis.trailing_shots_dropped"] = untraced.dropped
    for rate in STAGE_RATES.values():
        m[rate] = untraced.rates.get(rate, 0.0)
    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from workloads import WORKLOADS

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, smoke, work)
    bench = Bench(workload, work)
    workload.prepare()
    setup_log = work / "setup.log"
    if not trace:
        setup_sample(setup_log)  # warm-up: compiles bytecode, fills the file cache
        speed = HostSpeed()
    setup: list[float] = []

    chains: list[Chain] = []
    layers: list[dict[str, float]] = []
    t0 = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - t0 < seconds:
        pair = [bench.run_chain(index, traced=False)]
        if trace:
            pair.append(bench.run_chain(index, traced=True))
            layers.append(layer_metrics(pair[1], pair[0], bench.one_worker_s(index)))
        else:
            # one set-up sample per chain spreads them over the whole run
            setup_raw = setup_sample(setup_log)
            pair[0].scale = speed.factor()
            setup.append(setup_raw * pair[0].scale)
        for c in pair:
            shutil.rmtree(c.out, ignore_errors=True)
        chains += pair
        index += 1
    elapsed = time.perf_counter() - t0
    while not trace and len(setup) < SETUP_SAMPLES:
        setup_raw = setup_sample(setup_log)
        setup.append(setup_raw * speed.factor())
    bench.rerun_check(chains)
    workload.cleanup()

    runs = [c for c in chains if c.run_id.endswith("-untraced") and c.procs]
    if trace:
        (work / "trace.json").write_text(json.dumps(bench.spans), encoding="utf-8")
        report = {k: (statistics.median(l[k] for l in layers), len(layers)) for k in layers[0]}
    else:
        report = {
            "wall_s": (statistics.median(c.wall_s * c.scale for c in runs), len(runs)),
            "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in runs), len(runs)),
            "setup_s": (statistics.median(setup), len(setup)),
        }
    failed = len(bench.failed_ops)
    print(f"{name}: seed {seed}, {len(runs)} chain(s) in {elapsed:.1f} s, one client, closed loop"
          + (", traced" if trace else ""))
    shown = dict(report)
    if not trace:
        for rate in STAGE_RATES.values():
            values = [c.rates[rate] for c in runs if rate in c.rates]
            if values:
                shown[rate] = (statistics.median(values), len(values))
        shown["wall_raw_s"] = (statistics.median(c.wall_s for c in runs), len(runs))
        shown["host_speed_factor"] = (statistics.median(c.scale for c in runs), len(runs))
        dropped = statistics.median(c.dropped for c in runs)
        shown["gap_analysis.trailing_shots_dropped"] = (dropped, len(runs))
    for key, (value, n) in shown.items():
        print(f"  {key:42s} {value:14.6g} {unit_of(key):6s} median of {n}")
    ratio = failed / bench.attempted
    print(f"  {'fail_ratio':42s} {ratio:14.6g} {'':6s} {failed} of {bench.attempted} operations")
    return {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, (v, _) in report.items()},
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "patchmux" / "cli.py").is_file():
        print(f"patchmux sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke) for n in names
    }
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
