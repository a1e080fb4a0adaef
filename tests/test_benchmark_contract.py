"""Smoke test of the benchmark in ``perfbench/``: one small repetition of each
workload, untraced, and one traced, through the harness's own ``iterate``;
and one run of the audit's per-part cost script, ``tests/audit_cost.py``.

It uses the benchmark read-only and shrinks only its input sizes, so a
change to a program function, option or file name that the benchmark relies
on fails here instead of in a benchmark run.
"""

import importlib
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import audit_cost

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads, "PAPER_RECORDS", 200)
    monkeypatch.setattr(workloads, "SLOW_RECORDS", 60)
    monkeypatch.setattr(workloads, "BENCH_ITEMS", 50)
    return harness, workloads


def numbers(value):
    """Every int and float inside ``value``'s dicts and lists."""
    if isinstance(value, dict):
        return [n for v in value.values() for n in numbers(v)]
    if isinstance(value, (list, tuple)):
        return [n for v in value for n in numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    return []


def one_repetition(harness, workloads, name, tmp_path, tracer=None):
    # At 200 records paper-serial's target lies within a few records of what
    # its pool can accept; seed 1 leaves a margin of 8 (seed 3 runs dry, and
    # the harness then reports a short dataset).
    seed = 1
    inputs = workloads.make_inputs(name, seed, tmp_path / "inputs")
    result = harness.iterate(name, seed, inputs, {}, tmp_path / "it",
                             tracer=tracer)
    assert result["problems"] == []
    assert all(math.isfinite(n) for n in numbers(result))
    return result


@pytest.mark.parametrize("name", ["paper-serial", "slow-backend"])
def test_workload_repetition(bench, name, tmp_path):
    harness, workloads = bench
    one_repetition(harness, workloads, name, tmp_path)


def test_traced_repetition_finds_every_hook(bench, tmp_path):
    harness, workloads = bench
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = one_repetition(harness, workloads, "paper-serial", tmp_path,
                                tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    layers, _ = tracing.layer_metrics(tracer, result["max_in_flight"])
    assert all(math.isfinite(v) for v in layers.values())
    assert layers["llm_backend.gen_calls"] > 0
    # retries are the MockChatBackend.send count less the generation and
    # judge sends: a canned backend that bypassed that hook would go negative
    assert layers["llm_backend.retries"] == 0


def test_audit_cost_script_prints_every_part():
    script = Path(audit_cost.__file__)
    proc = subprocess.run([sys.executable, str(script), "--repeats", "1"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for part in (*audit_cost.PARTS, "total"):
        found = re.search(rf"^  {re.escape(part)} +(\S+)$", proc.stdout, re.MULTILINE)
        assert found and math.isfinite(float(found[1])), (part, proc.stdout)
