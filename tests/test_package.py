import ast
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import patchmux


def test_every_exported_name_resolves():
    assert [name for name in patchmux.__all__ if not hasattr(patchmux, name)] == []
    assert len(set(patchmux.__all__)) == len(patchmux.__all__)


# What each command loads. A fresh interpreter without a bytecode cache, as
# the benchmark runs each command, reports the modules of interest it holds.

LAYERS = {"patchmux.montecarlo", "patchmux.analytics"}
HASHLIB = {"hashlib", "_hashlib"}


def loaded_after(code: str, modules: set = LAYERS | HASHLIB) -> set:
    """The ``modules`` loaded after ``code`` runs in a fresh interpreter."""
    wanted = sorted(modules)
    probe = f"{code}\nimport sys\nprint(sorted(set(sys.modules).intersection({wanted!r})))"
    src = os.path.dirname(os.path.dirname(patchmux.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_sampler_closed_forms_or_openssl():
    assert loaded_after("import patchmux.cli") == set()


@pytest.mark.parametrize("command", ["gap-sweep", "analytic", "layout"])
def test_a_report_command_loads_no_openssl(tmp_path, command):
    # integer gaps, as JSONL in the writer's layout and as CSV
    (tmp_path / "r.jsonl").write_text(
        '{"gap": 1.0, "correct": true, "attempts_consumed": 1}\n'
        '{"gap": 2.0, "correct": false, "attempts_consumed": 2}\n'
    )
    (tmp_path / "r.csv").write_text("gap,correct\n1,true\n2,false\n3,true\n")
    argv = {
        "gap-sweep": ["gap-sweep", "--records", str(tmp_path / "r.jsonl"),
                      "--records", str(tmp_path / "r.csv")],
        "analytic": ["analytic", "--preset", "table2"],
        "layout": ["layout", "--preset", "canonical"],
    }[command] + ["--out", str(tmp_path / "out")]
    code = f"from patchmux.cli import main\nassert main({argv!r}) == 0"
    loaded = loaded_after(code)
    if command == "gap-sweep":  # the sweep needs neither the sampler nor the closed forms
        assert loaded & LAYERS == set()
    assert loaded & HASHLIB <= loaded_after("import numpy")


def main_exits(argv: list, code: int = 0, err: str = "") -> str:
    """Probe code that runs ``main(argv)`` and checks its exit code and stderr."""
    return (
        "import contextlib, io\nfrom patchmux.cli import main\nerr = io.StringIO()\n"
        f"with contextlib.redirect_stderr(err):\n    got = main({argv!r})\n"
        f"assert (got, err.getvalue()) == {(code, err)!r}, (got, err.getvalue())"
    )


@pytest.mark.parametrize(
    "run",
    ["import", "help", "analytic", "layout", "gap-sweep config error", "missing record file"],
)
def test_a_command_that_reads_no_records_loads_no_numpy(tmp_path, run):
    # gap_analysis, and so numpy, loads only where records are read or swept
    (tmp_path / "r.jsonl").write_text('{"gap": 1.0, "correct": true}\n')
    (tmp_path / "grid.json").write_text('{"thresholds": {"start": 0, "stop": 1, "count": 1}}')
    out = ["--out", str(tmp_path / "out")]
    sweep = ["gap-sweep", "--records"]
    code = {
        "import": "import patchmux.cli",
        "help": "from patchmux.cli import main\ntry:\n    main(['--help'])\n"
        "except SystemExit as exc:\n    code = exc.code\nassert code == 0",
        "analytic": main_exits(["analytic", "--preset", "table2", *out]),
        "layout": main_exits(["layout", "--preset", "canonical", *out]),
        "gap-sweep config error": main_exits(
            [*sweep, str(tmp_path / "r.jsonl"), "--config", str(tmp_path / "grid.json"), *out],
            2,
            "config error: thresholds need stop > start and count >= 2\n",
        ),
        "missing record file": main_exits(
            [*sweep, str(tmp_path / "absent.jsonl"), *out],
            2,
            f"config error: record file not found: {tmp_path / 'absent.jsonl'}\n",
        ),
    }[run]
    assert loaded_after(code, {"numpy", "patchmux.gap_analysis"}) == set()


@pytest.mark.parametrize("records", [False, True], ids=["records off", "records on"])
def test_simulate_loads_the_record_layer_only_for_records(tmp_path, records):
    (tmp_path / "sim.json").write_text(
        f'{{"k": 2, "n_shots": 2000, "seed": 3, "records": {str(records).lower()}, "failure":'
        ' {"kind": "independent", "calibrate_discard": 0.5}, "escape": {"kind": "bernoulli",'
        ' "q": 0.05}}'
    )
    argv = ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "out")]
    loaded = loaded_after(main_exits(argv), {"numpy", "patchmux.gap_analysis"})
    assert loaded == ({"numpy", "patchmux.gap_analysis"} if records else {"numpy"})


def test_simulate_hashes_its_report_with_the_hashlib_numpy_loaded(tmp_path):
    # numpy.random imports hashlib for the sampler, so the report's hash maps
    # no second SHA-256 module
    (tmp_path / "sim.json").write_text(
        '{"k": 2, "n_shots": 2000, "seed": 3, "failure": {"kind": "independent",'
        ' "calibrate_discard": 0.5}, "escape": {"kind": "bernoulli", "q": 0.05}}'
    )
    argv = ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "out")]
    code = f"from patchmux.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code, {"hashlib", "_sha2", "_sha256"}) == {"hashlib"}


def test_simulate_on_two_workers_loads_no_thread_pool(tmp_path):
    # three blocks, so the run is split on two usable CPUs and more; its
    # workers are forked processes, not pool threads
    (tmp_path / "sim.json").write_text(
        '{"k": 2, "n_shots": 150000, "seed": 3, "records": false, "failure": {"kind":'
        ' "independent", "calibrate_discard": 0.5}, "escape": {"kind": "bernoulli", "q": 0.05}}'
    )
    argv = ["simulate", "--config", str(tmp_path / "sim.json"), "--workers", "2",
            "--out", str(tmp_path / "out")]
    code = f"from patchmux.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code, {"concurrent.futures", "patchmux.montecarlo"}) == {
        "patchmux.montecarlo"
    }


# perfbench's traced run replaces these names in ``vars(patchmux.cli)`` with
# timed wrappers; each must stay a module-level function that the commands call.
TRACED = [
    "run_simulation",
    "write_records_jsonl",
    "sweep",
    "extrapolate_tail",
    "write_curve_csv",
    "find_crossing",
]


def test_the_names_the_tracer_wraps_are_functions_of_the_cli():
    from patchmux import cli

    assert [name for name in TRACED if not inspect.isfunction(vars(cli).get(name))] == []


def test_the_cli_run_simulation_forwards_to_the_sampler():
    from patchmux import cli, montecarlo
    from patchmux.analytics import FailureModel

    config = montecarlo.SimConfig(
        failure_model=FailureModel(per_site_fail=(0.5,) * 4),
        n_shots=2000,
        seed=3,
        escape_model=montecarlo.EscapeModel(q=0.05),
    )
    got = cli.run_simulation(config, workers=2)
    want = montecarlo.run_simulation(config, workers=2)
    assert (got.shots, got.early_discards, got.kept, got.site_survival_histogram) == (
        want.shots, want.early_discards, want.kept, want.site_survival_histogram
    )
    assert got.kept > 0
    for column in ("gaps", "correct", "shot_index"):
        assert np.array_equal(getattr(got.records, column), getattr(want.records, column))
