"""Smoke test of the benchmark itself, with every job shrunk.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@functools.cache
def smoke_run(workload: str, trace: int) -> tuple[str, ...]:
    proc = subprocess.run(
        (sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"),
        capture_output=True, text=True, check=True, timeout=600,
    )
    return tuple(proc.stdout.splitlines())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    lines = smoke_run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    # The human-readable lines name each metric with its unit and sample count.
    printed = {line.split()[1]: line for line in lines if line.startswith(workload)}
    assert set(expected) | {"jobs", "jobs_failed"} <= set(printed)
    for name, unit in expected.items():
        assert f" {unit} " in printed[name] and re.search(r" of \d+ ", printed[name])


def test_traced_run_reaches_functions_behind_dispatch_tables():
    result = json.loads(smoke_run("tables-primes", 1)[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # Range verifiers and closed forms are called only through cli's dicts.
    assert metrics["identities.inputs_checked"] > 0
    assert metrics["identities.closed.s"] > 0
    assert metrics["divisor_sums.sigma_table.s"] > 0
    assert metrics["series.expand.calls"] == 0
    assert metrics["trace.coverage"] > 0.9


def test_tracer_restores_every_replaced_reference():
    from qconvolve import cli, identities

    before = (cli.main, dict(cli._RANGE_RUNNERS), identities.expand)
    with tracer.Tracer().installed():
        assert cli._RANGE_RUNNERS["R-positive"] is not before[1]["R-positive"]
        assert identities.expand is not before[2]
    assert (cli.main, dict(cli._RANGE_RUNNERS), identities.expand) == before


def test_wrong_reference_and_zero_checked_report_count_as_failed():
    good = workloads.expand_job([(1, 0, -1)], 5, "csv", run.WORK / "refs")
    wrong = dataclasses.replace(good, values=good.values[:-1] + (good.values[-1] + 1,))
    # prime-r2 below 2 has no inputs; the report says checked 0, passed true.
    zero = workloads.verify_job(("verify", "--identity", "prime-r2", "--max", "2"), "prime-r2", 2)
    _, attempted, errors = run.measure_end_to_end(workloads, [good, wrong, zero], 0)
    assert attempted == 3
    assert len(errors) == 2
    assert "row 5 is 7, expected 8" in errors[0]
    assert "checked no inputs" in errors[1]
