"""Byte pins of the simulate -> gap-sweep chain, and of the layout and analytic
commands.

The sha256 of every file these runs write is fixed, so a refactor of the
record or curve types cannot change an output byte unnoticed. Paths are
relative to a temporary working directory, because reports echo the record
paths they read.

The pins are taken on draw layout v3 (four 16-bit tests to a word of a
packed stream, with a tie-break stream per test). The v2 and v1 pins are
kept too: fed the words of v2 (one keyed Philox stream per draw slot) or v1
(one Philox stream keyed by the seed, a 16-word window per shot at k=4),
repacked into v3's streams, the same kernel still writes every v2 and v1
byte, so each re-pin comes from the layout alone.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from patchmux import montecarlo
from patchmux.cli import EXIT_OK, _write_json, main


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _simulate(out: str, seed: int, q: float, error_rate: float, workers: str = "1") -> None:
    cfg = Path(f"{out}.json")
    cfg.write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 20000,
                "seed": seed,
                "failure": {"kind": "independent", "calibrate_discard": 0.4903},
                "escape": {"kind": "bernoulli", "q": q, "gap_error": {"rate": error_rate}},
                "records": True,
            }
        )
    )
    assert main(["simulate", "--config", str(cfg), "--out", out, "--workers", workers]) == EXIT_OK


def _gap_sweep(out: str, config: dict) -> None:
    cfg = Path(f"{out}.json")
    cfg.write_text(json.dumps(config))
    assert main(["gap-sweep", "--config", str(cfg), "--out", out]) == EXIT_OK


PINNED = {
    "sim/records.jsonl": "52b63395989cc5458896394e436ff368f176b371b2cb2bd7191bc3152c732209",
    "sim/sim_summary.json": "071416f9914ee8d712c80b9519413472cc9c3ed9e6041b99d9654ba1a375581e",
    "tail/records_curve.csv": "c163042d0829cadee28fcb6a3aeb9372812d3939b09776408c03ce0d1dff5f34",
    "tail/gap_report.json": "9cabaf3a693cd6e85905af561e939f2beedea2d63e03678de6c1813572f932df",
    "simb/records.jsonl": "7932840fa3d14aa5069c159d717fa6715eadc66923e590a0a5401710c55826bf",
    "simb/sim_summary.json": "6c0b35846c0e67c8ea9792b8fa7f0bf5d06a7c7d62484adcb97b1695c51441df",
    "pair/1_records_curve.csv": "27c988b3887091484c29a771a74fa020b5ae755828759af914fad4b3d0b4ae56",
    "pair/2_records_curve.csv": "cd4acf782ffbfcc432cbb5e0e8673a7fdfd463b457a41fd463fb0531156ed561",
    "pair/gap_report.json": "d9aa1b7dac8639d037494f30cd600f39fc598939b4702f4721bb6519af7c0842",
}

# the same files under draw layouts v2 and v1; v1 wrote no layout_version
V2_PINNED = {
    "sim/records.jsonl": "61fba84d212ec3c06723cc3ae55dda75ca9b251be59809c5afca55e25644e2e3",
    "sim/sim_summary.json": "4792e0aea919c181b8687298c053df619482c904097792584d4a08065e851681",
    "tail/records_curve.csv": "65a6f37e81f0e918f14c39bfc9e134a3dcf666b10ee5fbaef31d9147c86f82d3",
    "tail/gap_report.json": "734888bfead41718813b59900510ab6c70280f401388caa0104f7738bf93117e",
    "simb/records.jsonl": "5e01093dc3eb48456a1125148be4d8dffadae028d8b9c866dcce9ea0f1711c8a",
    "simb/sim_summary.json": "37e5871da41cae48d580c0d494b1d2abdf7f2542e6f91e36264d4afb237fec6e",
    "pair/1_records_curve.csv": "e21782b8e4bb1b2ca91af2813597a847215e9c2c69d52272ca92f391f748d6c7",
    "pair/2_records_curve.csv": "d000bdb924fb7d5a170da58aeb7c611359ba1e106ea82c1fd97e8ca4756043fc",
    "pair/gap_report.json": "c95ea866f2b1ec2fc48b0ceef83623c327336225bc604ea2252bcbb9be7e3bd8",
}

V1_PINNED = {
    "sim/records.jsonl": "dd6d06c56600fc692b7e21a81f9a74dc2114779ae079eec0541db8fd01d5f2e7",
    "sim/sim_summary.json": "529d0596be3e1111022bd30a0fe20001c926dbca2460afe3df70d973323989f4",
    "tail/records_curve.csv": "3a8f4ea5b158bc0bd3ddd5bb058cf4ef38fe1615cf5c90b8eac604324e9152e4",
    "tail/gap_report.json": "2802b02d7cfd4df07595f2603eedf1a88e872f5eaf935a4726e85b3a434b6cb8",
    "simb/records.jsonl": "b83aa94fdf3b6e03dbbcf59a501dcc3bcd9d5284f04432e7afcefa09ed1f8f58",
    "simb/sim_summary.json": "f9f10424ecb0405a6ae6fb5cd6a2772773fc80037d1ce0870df04ef64bab61d1",
    "pair/1_records_curve.csv": "07c93adfa4bdc288f540e1a5be8bc7df3abdd1b13a82d02f378d89a49a21454a",
    "pair/2_records_curve.csv": "1df19aee5930455390a7c9d4787f80c40efe3d7508886a96d74e98f153d3a7b9",
    "pair/gap_report.json": "e5854bac82c06a223fc1f2d17ca4c2881ef69bb4b5a08725640a9d32ed467e19",
}


def _run_chain() -> None:
    _simulate("sim", seed=7, q=0.05, error_rate=0.25, workers="2")
    # an explicit grid that runs past the largest gap, so the tail fit
    # extends over rows where no correct record survives
    grid = [float(g) for g in range(41)] + [60.0, 100.0, 200.0, 400.0, 1000.0]
    _gap_sweep(
        "tail",
        {"records": ["sim/records.jsonl"], "thresholds": grid, "tail_window": [2, 20]},
    )
    # the second input: fewer errors, but their gaps decay slowly, so its
    # error rate starts below the first input's and ends above it
    _simulate("simb", seed=8, q=0.02, error_rate=0.04)
    lines = Path("simb/records.jsonl").read_text().splitlines()
    rows = ["gap,correct"]
    for line in lines:
        rec = json.loads(line)
        rows.append(f"{rec['gap']!r},{'true' if rec['correct'] else 'false'}")
    Path("simb/records.csv").write_text("\n".join(rows) + "\n")
    shots_b = json.loads(Path("simb/sim_summary.json").read_text())["results"]["shots"]
    _gap_sweep(
        "pair",
        {"records": ["sim/records.jsonl", "simb/records.csv"], "n_attempts": [None, shots_b]},
    )


@pytest.fixture
def chain_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_chain()
    return tmp_path


def test_chain_output_bytes_are_pinned(chain_outputs):
    got = {name: _sha(chain_outputs / name) for name in PINNED}
    assert got == PINNED


def test_tail_rows_past_the_largest_gap_stay_finite(chain_outputs):
    with open(chain_outputs / "tail" / "records_curve.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert last["G"] == "1000" and last["extrapolated"] == "true"
    assert last["kept_correct"] == "0"
    assert 0 < float(last["kept_error"]) < 1e-90
    assert float(last["logical_error"]) == 1.0
    assert float(last["attempts"]) == pytest.approx(20000 / float(last["kept_error"]), rel=1e-9)


def test_pair_reports_a_crossing(chain_outputs):
    report = json.loads((chain_outputs / "pair" / "gap_report.json").read_text())
    crossing = report["results"]["crossing"]
    assert crossing is not None
    low, high = crossing["bracket"]
    assert low <= crossing["threshold"] <= high


# A records-off simulate of the sampler benchmark's model (k=4, D=0.4903,
# Bernoulli q=0.05, continuous exponential gaps) on two workers: the path
# that folds counts only, which the chain pins above do not reach.
RECORDS_OFF_PIN = "4bb78ee33af1760010a45cce5dfec8764e9b131d510eef09ed2149fdf88538f7"
V2_RECORDS_OFF_PIN = "f5e7fc52a5d3a595a716bfbfad3937101732650471954966819ed1d4d1c21482"
V1_RECORDS_OFF_PIN = "5ca64198b61d40b7922e9e0b23ea1d3a57d579b246cf060d65df77734cf569fc"


def _run_records_off() -> None:
    Path("off.json").write_text(
        json.dumps(
            {
                "k": 4,
                "n_shots": 200000,
                "seed": 2024,
                "failure": {"kind": "independent", "calibrate_discard": 0.4903},
                "escape": {
                    "kind": "bernoulli",
                    "q": 0.05,
                    "gap_correct": {"kind": "exponential", "rate": 0.05},
                    "gap_error": {"kind": "exponential", "rate": 0.25},
                },
                "labels": {"d1": 3, "p": 0.002},
                "records": False,
            }
        )
    )
    assert main(["simulate", "--config", "off.json", "--out", "off", "--workers", "2"]) == EXIT_OK
    assert not Path("off/records.jsonl").exists()


def test_records_off_summary_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_records_off()
    assert _sha("off/sim_summary.json") == RECORDS_OFF_PIN


def _v2_slot_words(seed, slot, start, n):
    """h = w >> 11 of words ``start .. start+n-1`` of the v2 stream of ``slot``."""
    bits = np.random.Philox(key=seed + (slot << 64))
    bits.advance(start // 4)
    bits.random_raw(start % 4)
    return bits.random_raw(n) >> np.uint64(11)


def _v1_slot_words(seed, slot, start, n):
    """Column ``slot`` of layout v1: shot i owns words [16 i, 16 i + 16) of Philox(key=seed)."""
    bits = np.random.Philox(key=seed)
    bits.advance(start * 16 // 4)
    return bits.random_raw(n * 16).reshape(n, 16)[:, slot] >> np.uint64(11)


# At k=4, the v2 slot of each v3 whole-word slot, and of each quarter of
# each v3 packed slot (module docstrings of both layouts)
V2_WHOLE = {0: 0, 1: 12}  # joint selector, gap
V2_QUARTERS = {2: (0, 1), 3: (10, 11), 4: (2, 3, 4, 5), 5: (6, 7, 8, 9)}
LOW_37 = np.uint64(2**37 - 1)


def _repacked(v2_words):
    """v3 words made from v2-slot h values: a whole word carries h in its top
    53 bits, a quarter its top 16 bits, and the quarter's tie word its low 37
    bits in the top 37, so every v3 test compares the same 53-bit h."""

    def words(seed, slot, start, n):
        if slot in V2_WHOLE:
            return v2_words(seed, V2_WHOLE[slot], start, n) << np.uint64(11)
        if slot >= montecarlo._TIES:
            packed, q = divmod(slot - montecarlo._TIES, 4)
            h = v2_words(seed, V2_QUARTERS[packed][q], start, n)
            return (h & LOW_37) << np.uint64(27)
        w = np.zeros(n, dtype=np.uint64)
        for q, v2_slot in enumerate(V2_QUARTERS[slot]):
            w |= (v2_words(seed, v2_slot, start, n) >> np.uint64(37)) << np.uint64(16 * q)
        return w

    return words


def _sha_as_layout(path: Path, version: int | None) -> str:
    """A file's sha256 once a sim_summary.json's ``layout_version`` says
    ``version``, or is dropped for None, as v1 wrote it."""
    if path.name != "sim_summary.json":
        return _sha(path)
    doc = json.loads(path.read_text())
    assert doc["provenance"]["layout_version"] == montecarlo.LAYOUT_VERSION
    if version is None:
        del doc["provenance"]["layout_version"]
    else:
        doc["provenance"]["layout_version"] = version
    relabelled = path.with_name(f"sim_summary_v{version}.json")
    _write_json(relabelled, doc)
    return _sha(relabelled)


@pytest.mark.parametrize(
    "words,version,pinned,records_off",
    [
        (_v2_slot_words, 2, V2_PINNED, V2_RECORDS_OFF_PIN),
        (_v1_slot_words, None, V1_PINNED, V1_RECORDS_OFF_PIN),
    ],
    ids=["v2", "v1"],
)
def test_v2_and_v1_words_repacked_reproduce_every_v2_and_v1_pin(
    tmp_path, monkeypatch, words, version, pinned, records_off
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(montecarlo, "_slot_words", _repacked(words))
    _run_chain()
    _run_records_off()
    got = {name: _sha_as_layout(tmp_path / name, version) for name in pinned}
    assert got == pinned
    assert _sha_as_layout(tmp_path / "off" / "sim_summary.json", version) == records_off


# Records-on runs of the escape kinds the chain does not reach: always_keep
# with exponential gaps, an empirical pool with keep_prob 0.9, and bernoulli
# with q = 0, which draws no error class. Taken before ``EscapeModel`` lost its
# ``kind`` field, so they hold each kind's outputs across that change.
ESCAPE_RUNS = {
    "keep": ({"kind": "always_keep", "gap_correct": {"kind": "exponential", "rate": 0.1}}, 11),
    "pool": ({"kind": "empirical", "pool_path": "pool.jsonl", "keep_prob": 0.9}, 12),
    "noerr": ({"kind": "bernoulli", "q": 0.0, "keep_prob": 0.8}, 13),
}
ESCAPE_PINNED = {
    "keep/records.jsonl": "ec66fe888130ba80a7aa8e95d2e1aab78c739ec95890089bd81b2ce7b0dd69a6",
    "keep/sim_summary.json": "99c4d79d991f66acc9b3569e632e95c51f6ce2d12d7a410ea6e2411573c16b6e",
    "pool/records.jsonl": "def0df85a3a0f5d3c9d366ac36fef959bf45b09f7216dab699ace7d7f7c657cc",
    "pool/sim_summary.json": "fa3accf92f783d9c57afdee2bc934f6514de5569af0441d096797132b8ca7ea9",
    "noerr/records.jsonl": "1bf2f0ef6b5ec1f13e51c69b73e207b0a90dd3dd6af306dbd5af7b65a29c1ee6",
    "noerr/sim_summary.json": "2e3eb7c0fcd53d91606a202eccb2ca06f0a8f10ff894e3c83d0c7095a0dc4bfa",
}


def test_escape_kind_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pool = (json.dumps({"gap": 0.5 * i * i, "correct": i % 3 != 0}) + "\n" for i in range(8))
    Path("pool.jsonl").write_text("".join(pool))
    for out, (escape, seed) in ESCAPE_RUNS.items():
        cfg = {
            "k": 4,
            "n_shots": 20000,
            "seed": seed,
            "failure": {"kind": "independent", "calibrate_discard": 0.4903},
            "escape": escape,
            "records": True,
        }
        Path(f"{out}.json").write_text(json.dumps(cfg))
        argv = ["simulate", "--config", f"{out}.json", "--out", out, "--workers", "2"]
        assert main(argv) == EXIT_OK
    got = {name: _sha(tmp_path / name) for name in ESCAPE_PINNED}
    assert got == ESCAPE_PINNED


# The canonical layout, validated as shipped and packed afresh (k_max 4), at
# both growth stages: the reports and the maps.
LAYOUT_PINNED = {
    "validate_cultivation/layout_report.json": "5013a7bf77c75e95809cbf9f4f7e1ab5dff2a78907db3d1f03b1d021b7951d41",
    "validate_cultivation/layout_map.txt": "bc7b4d909a2d795ee8f81077c41830c069606d121fc605c09aff4282876d858b",
    "validate_injection/layout_report.json": "7e8fac9e0008d815ca19385c9c777f9aed9c6e1b94ea77a94915a3579f4af4c0",
    "validate_injection/layout_map.txt": "61ea1d2b84a0de20656da5fc1616b0146409b28b077e68bf5434421eace6c217",
    "pack_cultivation/layout_report.json": "c3bb8a6ae0b8d784254189818bbb85f2272ab23ce09f413db3732c657491aad7",
    "pack_cultivation/layout_map.txt": "b176a7d5e190cb0c2338d7381833d916a469204e89df6592dde820ee987d8332",
    "pack_injection/layout_report.json": "15a007008f745435b527d926dd2b968e1eecc255cdadfbf35d222e11b0d714ad",
    "pack_injection/layout_map.txt": "2f705ac1db45586b970dd6435f1b9ad931909c3104f42cebb3eabe80f20e50c0",
}


def test_layout_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for mode in ("validate", "pack"):
        for stage in ("cultivation", "injection"):
            out = f"{mode}_{stage}"
            cfg = {"mode": mode, "stage": stage, **({"k_max": 4} if mode == "pack" else {})}
            Path(f"{out}.json").write_text(json.dumps(cfg))
            assert main(["layout", "--config", f"{out}.json", "--out", out]) == EXIT_OK
    got = {name: _sha(tmp_path / name) for name in LAYOUT_PINNED}
    assert got == LAYOUT_PINNED


# Both printed tables through ``analytic``: the report and the table CSV.
ANALYTIC_PINNED = {
    "table2/analytic_report.json": "2325bbe30053d810659a590bf9bd17a98472bdaaffc32047610d35c94f16897a",
    "table2/analytic_table.csv": "d05d9c854180116a224920952145278ee179d72ad1185df30cd922b12b0f9932",
    "table3/analytic_report.json": "f0a33b58e42b9bf0587cb979086c841c3a89bc82cae98c35b661669a849ea653",
    "table3/analytic_table.csv": "deda4467b38a364c14c0d3603073ef8cbe8aa3c41d1efbe74253f4f97dbb2d22",
}


def test_analytic_output_bytes_are_pinned(tmp_path):
    for preset in ("table2", "table3"):
        assert main(["analytic", "--preset", preset, "--out", str(tmp_path / preset)]) == EXIT_OK
    got = {name: _sha(tmp_path / name) for name in ANALYTIC_PINNED}
    assert got == ANALYTIC_PINNED
