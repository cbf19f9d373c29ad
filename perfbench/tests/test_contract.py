"""The benchmark's artifacts agree with each other and with its contract.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LAYERS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DICTIONARY = json.loads((BENCH / "metrics.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_the_contract_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [w["name"] for w in SPEC["workloads"]]
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    assert len(names) == len(set(names))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_has_one_dictionary_entry(kind):
    assert [e["name"] for e in SPEC[kind]] == list(DICTIONARY[kind])
    assert all(entry["meaning"] for entry in DICTIONARY[kind].values())


def test_the_layer_map_names_exactly_the_traced_layers():
    assert set(DICTIONARY["layers"]) == set(LAYERS)
    prefixes = {e["name"].split(".")[0] for e in SPEC["per_layer"] if "." in e["name"]}
    assert prefixes - {"trace", "unattributed"} == set(LAYERS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "txn_crash", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_ledger_flags_a_simulated_difference_of_one_program(tmp_path):
    result = {
        "workload": "txn_crash", "seed": 1, "seconds": 1,
        "sim": {"sim_ops_per_s": 2.5}, "sim_digest": "abc",
    }
    assert run.ledger_problems(result, "program-a", tmp_path) == []
    assert run.ledger_problems(result, "program-a", tmp_path) == []
    result["sim"] = {"sim_ops_per_s": 2.6}
    assert run.ledger_problems(result, "program-a", tmp_path)[0].startswith("determinism:")
    # A changed program may change the simulation: a fresh entry.
    assert run.ledger_problems(result, "program-b", tmp_path) == []


def test_program_digest_follows_the_sources(tmp_path, monkeypatch):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    source = tmp_path / "src" / "pkg" / "module.py"
    source.write_text("X = 1\n")
    (tmp_path / "perfbench" / "workloads.py").write_text("Y = 1\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "HERE", tmp_path / "perfbench")
    first = run.program_digest()
    assert run.program_digest() == first
    source.write_text("X = 2\n")
    assert run.program_digest() != first


def test_traced_run_reproduces_the_untraced_simulation(tmp_path):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "txn_crash", "--seed", "2",
         "--seconds", "1", "--trace", "1", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    assert details["problems"] == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [e["name"] for e in SPEC["per_layer"]]
    # The span-free time, measured on its own, is what the layers' self
    # times leave of the traced wall time.
    assert details["unattributed_us"] == details["residual_us"]
    accounted = sum(details["self_us_by_layer"].values()) + details["unattributed_us"]
    assert accounted == pytest.approx(details["traced_timed_us"], rel=1e-9)
    assert 0 <= result["metrics"]["trace.unattributed_share"]["value"] < 1
    assert (tmp_path / "ledger.json").exists()
