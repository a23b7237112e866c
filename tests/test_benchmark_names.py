"""The package names the benchmark under perfbench/ wraps or imports, and
the outputs its check accepts.

perfbench/tracer.py wraps functions by module and name, and
perfbench/workloads.py imports the oracles and reads their tables'
`.values`.  A deletion or rename of any of those names fails here, in the
tier-1 suite, rather than first in a benchmark run.  So does an output
change that the benchmark's check would reject: every smoke-size job runs
through cli.main in this process.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_imports_and_wraps_package_names(monkeypatch, tmp_path, capsys):
    from qconvolve import cli, series

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    # The shrunk job lists compute every reference, oracle tables included,
    # and each job's output passes the benchmark's own check.
    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs_for(workload, seed=1, cache=tmp_path, smoke=True)
        assert jobs
        for job in jobs:
            code = cli.main(list(job.argv))
            out = capsys.readouterr().out
            assert workloads.check(job, code, out) is None, job.describe()

    before = (series.expand, cli._RANGE_RUNNERS["R-positive"])
    with tracer.Tracer().installed():
        assert series.expand is not before[0]
        assert cli._RANGE_RUNNERS["R-positive"] is not before[1]
    assert (series.expand, cli._RANGE_RUNNERS["R-positive"]) == before
