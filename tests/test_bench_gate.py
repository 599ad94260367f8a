"""Tests for ``tools/bench_gate.py``'s failure reporting."""

import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_gate.py"


@pytest.fixture
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missed_bar_is_a_fail_row_and_later_scenarios_run(
        gate, monkeypatch, tmp_path, capsys):
    ran = []

    def missing(smoke):
        ran.append("missing")
        return {"ops": 1, "ops_per_sec": 1.0,
                "failures": ["speedup bar missed: 1.00x (requires >=3x)"]}

    def passing(smoke):
        ran.append("passing")
        return {"ops": 1, "ops_per_sec": 1.0}

    # scenario names must exist in the committed baseline's schema check
    monkeypatch.setattr(gate, "SCENARIOS", {
        "bench_srv3_read_mix": missing,
        "bench_e1": passing,
    })
    monkeypatch.setattr(gate, "LATEST_PATH", tmp_path / "latest.json")

    assert gate.main(["--smoke"]) == 1
    assert ran == ["missing", "passing"]
    out = capsys.readouterr().out
    assert "FAIL bench_srv3_read_mix: speedup bar missed" in out
    assert "gate passed" not in out


def test_crashed_scenario_is_a_fail_row(gate, monkeypatch, tmp_path, capsys):
    def crashing(smoke):
        raise RuntimeError("boom")

    monkeypatch.setattr(gate, "SCENARIOS", {
        "bench_e1": crashing,
        "bench_s_substrates": lambda smoke: {"ops": 1, "ops_per_sec": 1.0},
    })
    monkeypatch.setattr(gate, "LATEST_PATH", tmp_path / "latest.json")

    assert gate.main(["--smoke"]) == 1
    out = capsys.readouterr().out
    assert "FAIL bench_e1: crashed: RuntimeError('boom')" in out
    assert "bench_s_substrates: 1.0 ops/s" in out


def test_failing_run_never_writes_a_baseline(gate, monkeypatch, tmp_path):
    baseline = tmp_path / "baseline.json"
    monkeypatch.setattr(gate, "BASELINE_PATH", baseline)
    monkeypatch.setattr(gate, "SCENARIOS", {
        "bench_e1": lambda smoke: {"ops": 1, "ops_per_sec": 1.0,
                                   "failures": ["bar missed"]},
    })

    assert gate.main(["--update-baseline"]) == 1
    assert not baseline.exists()
