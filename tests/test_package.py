import ast
import importlib.util
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


def test_every_exported_name_loads_from_the_module_that_defines_it():
    # a name whose module re-imports it from its new home would still resolve
    assert set(patchmux.__all__) - {"__version__"} == set(patchmux._SOURCE)
    wrong = {
        name: getattr(patchmux, name).__module__
        for name, module in patchmux._SOURCE.items()
        if getattr(patchmux, name).__module__ != f"patchmux.{module}"
    }
    assert wrong == {}


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


COMMANDS = {f"patchmux.cli_{name}" for name in ("analytic", "simulate", "gap_sweep", "layout")}
SHARED = "patchmux.cli_common"
RECORD_LAYERS = {"patchmux.gap_analysis", "patchmux.curves"}


def test_importing_the_cli_compiles_no_command_and_no_record_layer():
    assert loaded_after("import patchmux.cli", COMMANDS | {SHARED} | RECORD_LAYERS) == set()


@pytest.mark.parametrize(
    "run, layers",
    [
        ("analytic", set()),
        ("layout", set()),
        ("simulate", set()),
        ("simulate records", {"patchmux.gap_analysis"}),
        ("gap-sweep", RECORD_LAYERS),
    ],
)
def test_a_command_loads_its_own_module_and_the_record_layers_it_runs(tmp_path, run, layers):
    command = run.split()[0]
    (tmp_path / "sim.json").write_text(
        SIM_CONFIG[:-1] + f', "records": {str(run == "simulate records").lower()}}}'
    )
    (tmp_path / "r.jsonl").write_text('{"gap": 1.0, "correct": true}\n')
    argv = [command, "--out", str(tmp_path / "out")] + {
        "analytic": ["--preset", "table2"],
        "layout": ["--preset", "canonical"],
        "simulate": ["--config", str(tmp_path / "sim.json")],
        "gap-sweep": ["--records", str(tmp_path / "r.jsonl")],
    }[command]
    loaded = loaded_after(main_exits(argv), COMMANDS | {SHARED} | RECORD_LAYERS)
    assert loaded == {f"patchmux.cli_{command.replace('-', '_')}", SHARED} | layers


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


SIM_CONFIG = (
    '{"k": 2, "n_shots": 2000, "seed": 3, "failure": {"kind": "independent",'
    ' "calibrate_discard": 0.5}, "escape": {"kind": "bernoulli", "q": 0.05}}'
)
SHA256 = {"_sha2", "_sha256"}
HAS_OPENSSL = importlib.util.find_spec("_hashlib") is not None


def simulate_probe(tmp_path, out: str, before: str = "") -> str:
    """Probe code that runs ``before``, a small records-off ``simulate`` into
    ``out``, and checks the report's hash against the loaded hashlib's."""
    (tmp_path / "sim.json").write_text(SIM_CONFIG)
    argv = ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / out)]
    return (
        f"{before}\n{main_exits(argv)}\nimport sys\nloaded = set(sys.modules)\n"
        "import hashlib, json\nfrom patchmux.cli_common import _canonical_json\n"
        f"report = json.loads(open({str(tmp_path / out / 'sim_summary.json')!r}).read())\n"
        "digest = hashlib.sha256(_canonical_json(report['config']).encode()).hexdigest()\n"
        "assert 'hashlib' in loaded and report['provenance']['config_hash'] == digest"
    )


def test_simulate_hashes_its_report_with_the_hashlib_numpy_loaded(tmp_path):
    # numpy.random imports hashlib for the sampler with OpenSSL hidden, so the
    # report's hash maps no libcrypto and no SHA-256 module of its own. numpy
    # < 2 imports numpy.random, and so OpenSSL, with numpy itself.
    openssl = loaded_after("import numpy", {"_hashlib"})
    loaded = loaded_after(simulate_probe(tmp_path, "out"), {"_hashlib", *SHA256})
    builtin = loaded_after("import sys\nsys.modules['_hashlib'] = None\nimport hashlib", SHA256)
    assert loaded == openssl | (set() if openssl else builtin)


@pytest.mark.skipif(not HAS_OPENSSL, reason="this Python has no OpenSSL hashlib")
def test_simulate_after_openssl_is_loaded_hashes_its_report_with_it(tmp_path):
    # with _hashlib imported before main, numpy.random imports hashlib the
    # ordinary way, and the report is the same bytes
    loaded_after(simulate_probe(tmp_path, "masked"))
    loaded = loaded_after(
        simulate_probe(tmp_path, "openssl", "import _hashlib")
        + "\nassert hashlib.sha256 is sys.modules['_hashlib'].openssl_sha256",
        {"_hashlib"},
    )
    assert loaded == {"_hashlib"}
    masked, openssl = (tmp_path / out / "sim_summary.json" for out in ("masked", "openssl"))
    assert openssl.read_bytes() == masked.read_bytes()


@pytest.mark.parametrize("module", ["patchmux.montecarlo", "patchmux.cli"])
def test_run_simulation_as_a_library_imports_numpy_random_the_ordinary_way(module):
    code = (
        f"from {module} import run_simulation\nfrom patchmux.montecarlo import SimConfig\n"
        "from patchmux.analytics import FailureModel\n"
        "failure = FailureModel(per_site_fail=[0.5, 0.5])\n"
        "config = SimConfig(failure_model=failure, n_shots=2000, seed=3)\n"
        "assert run_simulation(config).shots == 2000"
    )
    assert loaded_after(code, {"_hashlib"}) == ({"_hashlib"} if HAS_OPENSSL else set())


def test_openssl_imports_after_a_cli_simulate(tmp_path):
    code = simulate_probe(tmp_path, "out") + (
        "\nabc = 'ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad'"
        "\nassert hashlib.new('sha256', b'abc').hexdigest() == abc"
    )
    if HAS_OPENSSL:
        code += "\nimport _hashlib\nassert _hashlib.new('sha256', b'abc').hexdigest() == abc"
    assert loaded_after(code, {"_hashlib"}) == ({"_hashlib"} if HAS_OPENSSL else set())


def test_a_failed_numpy_random_import_leaves_openssl_importable(monkeypatch):
    from patchmux import cli_simulate

    seen = []

    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy.random":
                seen.append(sys.modules.get("_hashlib", "absent"))
                raise RuntimeError("refused")

    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    monkeypatch.delitem(sys.modules, "numpy.random", raising=False)
    monkeypatch.setattr(sys, "meta_path", [Refuse(), *sys.meta_path])
    with pytest.raises(RuntimeError, match="refused"):
        cli_simulate._import_numpy_random()
    assert seen == [None]  # masked while numpy.random imported
    assert "_hashlib" not in sys.modules


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
