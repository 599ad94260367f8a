"""Tests for ``tools/bench_gate.py``'s failure reporting."""

import importlib.util
import json
from dataclasses import replace
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


def test_smoke_run_enforces_the_exact_pins(gate, monkeypatch, tmp_path,
                                           capsys):
    baseline = json.loads(gate.BASELINE_PATH.read_text())
    baseline["scenarios"]["bench_e1"]["work"] += 1
    off_by_one = tmp_path / "baseline.json"
    off_by_one.write_text(json.dumps(baseline))
    monkeypatch.setattr(gate, "BASELINE_PATH", off_by_one)
    monkeypatch.setattr(gate, "LATEST_PATH", tmp_path / "latest.json")
    monkeypatch.setattr(gate, "SCENARIOS", {
        "bench_e1": gate.bench_e1_update_throughput,
    })

    assert gate.main(["--smoke"]) == 1
    assert "FAIL bench_e1: cost-model work drifted" in capsys.readouterr().out


def test_missed_srv3_bar_reads_the_same_in_cli_and_gate(
        gate, monkeypatch, tmp_path, capsys):
    import repro.queries.bench as srv3
    from repro.cli import main as cli_main
    from repro.harness import BenchReport

    real_run = srv3.run_bench_queries

    def under_the_bar(cfg):
        # a small real run whose measured speedup is then pinned low
        report = real_run(replace(cfg, n=48, m=60, requests=300,
                                  window=100, repeats=1))
        report.payload["speedup_x"] = 1.25
        return report

    monkeypatch.setattr(srv3, "run_bench_queries", under_the_bar)
    expected = BenchReport({"speedup_x": 1.25}, "")
    srv3.check_bar(expected)
    (msg,) = expected.failures

    assert cli_main(["bench-queries", "--json"]) == 1
    cli = capsys.readouterr()
    assert f"FAIL {msg}" in cli.err.splitlines()
    assert json.loads(cli.out)["failures"] == [msg]

    monkeypatch.setattr(gate, "SCENARIOS", {
        "bench_srv3_read_mix": gate.bench_srv3_read_mix,
    })
    monkeypatch.setattr(gate, "LATEST_PATH", tmp_path / "latest.json")
    assert gate.main([]) == 1
    assert f"[bench_gate] FAIL bench_srv3_read_mix: {msg}" in \
        capsys.readouterr().out.splitlines()
