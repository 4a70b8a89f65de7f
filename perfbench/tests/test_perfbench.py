"""Tests of the benchmark itself: tiny smoke runs and the correctness gate.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bitraj
import gate
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    )
    assert code == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = set(result["metrics"])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    assert names == wanted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if trace == 0:
            assert metric["value"] > 0, name


def test_same_seed_same_inputs_and_counts():
    a, b = workloads.LabReplay(5, tiny=True), workloads.LabReplay(5, tiny=True)
    for wl in (a, b):
        wl.setup()
    assert a.details()["input_digest"] == b.details()["input_digest"]
    runs = [wl.run("wide", 0)[1][0] for wl in (a, b)]
    assert workloads.counts_digest(runs[0]) == workloads.counts_digest(runs[1])
    c = workloads.LabReplay(6, tiny=True)
    c.setup()
    assert c.details()["input_digest"] != a.details()["input_digest"]


@pytest.fixture(scope="module")
def small_table():
    wl = workloads.VerifyLarge(1, tiny=True)
    wl.setup()
    work, (table, report) = wl.run(wl.cycle[0], 0)
    return table, report


def test_gate_passes_a_good_table(small_table):
    table, report = small_table
    assert gate.check_verify(report, table, [(0, 1), (3, 2)]) == []


def test_gate_flags_a_perturbed_witness(small_table):
    table, report = small_table
    bad = dataclasses.replace(report, max_causality_violation=1e-6)
    failures = gate.check_verify(bad, table, [])
    assert len(failures) == 1 and "max_causality_violation" in failures[0]
    negative = dataclasses.replace(report, min_gram_eigenvalue=-1e-6)
    assert gate.check_verify(negative, table, []) != []


def test_gate_flags_a_corrupted_entry(small_table):
    table, report = small_table
    corrupted = dataclasses.replace(table, matrix=table.matrix.copy())
    corrupted.matrix[1, 2] += 1e-9
    failures = gate.check_verify(report, corrupted, [(1, 2)])
    assert len(failures) == 1 and "direct route" in failures[0]


def test_gate_flags_cli_failures():
    good = {"ok": True, "checks": [], "results": {}}
    assert gate.check_cli_exit(0, good, "") == []
    assert gate.check_cli_exit(1, good, "boom\n") == ["exit code 1: boom"]
    assert gate.check_cli_exit(0, None, "") != []
    failed = {"ok": False, "checks": [{"name": "normalization", "pass": False}]}
    assert "normalization" in gate.check_cli_exit(0, failed, "")[0]


def test_gate_compares_key_results():
    expected = {"survival": [0.5, 0.25], "checked": 4, "surrogate_returned": True}
    assert gate.compare_results(dict(expected), expected) == []
    assert gate.compare_results({"survival": [0.5, 0.2500001], "checked": 4,
                                 "surrogate_returned": True}, expected) != []
    assert gate.compare_results({"survival": [0.5, 0.25], "checked": 5,
                                 "surrogate_returned": True}, expected) != []
    assert gate.compare_results({"survival": [0.5]}, expected) != []


def test_coverage_flags_a_biased_sampler():
    wl = workloads.LabReplay(0, tiny=True)
    wl.setup()
    _, (run_, dist, _) = wl.run("wide", 0)
    cov = gate.Coverage()
    assert cov.add(wl.wide_system, wl.wide_cs, run_, dist, op=0) == []
    assert cov.verdict() == []
    scaled = {
        seq: p * (1.5 if i % 2 else 0.5) for i, (seq, p) in enumerate(dist.probabilities.items())
    }
    skewed = dataclasses.replace(dist, probabilities=scaled)
    bad = gate.Coverage()
    bad.add(wl.wide_system, wl.wide_cs, run_, skewed, op=0)
    assert bad.verdict() != []


def test_interference_check():
    est = bitraj.lab.InterferenceEstimate(value=0.25 + 0.01, std_error=0.004)
    assert gate.check_interference(est) == []
    assert gate.check_interference(est._replace(value=0.25 + 0.02)) != []


def test_trace_self_times_cover_op_wall():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        system = bitraj.SystemSpec(dim=2, hamiltonian=np.diag([0.0, 1.0]))
        dev = workloads.basis_device(np.eye(2, dtype=complex), "Z")
        sched = bitraj.Schedule(entries=((0.5, dev), (1.0, dev)), init=bitraj.State(np.eye(2) / 2))
        root = tracer.begin_op(0)
        bitraj.property_report(bitraj.biprob_table(system, sched))
        tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert not hasattr(bitraj.biprob_table, "__wrapped__")  # uninstall restored the original
    m = tracing.layer_metrics(tracer, [])
    assert m["engine.property_report.calls"] == 1
    assert m["engine.biprob_table.calls"] == 3  # the table plus two fresh shorter ones
    assert m["engine.marginalize_pair.calls"] == 2
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["trace.uncovered_s"]
    assert total == pytest.approx(m["trace.op_wall_s"], rel=1e-9)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no bitraj sources" in proc.stderr
