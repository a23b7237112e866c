"""Benchmark of the qconvolve CLI, end to end and per layer.

    python3 perfbench/run.py --workload series-long --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from anywhere; it uses the package under `src/` of the checkout that
holds this file and, besides Python's bytecode caches, writes only under
`.perfbench/` there.

--trace 0 measures what a CLI user sees.  One client runs the workload's job
list in a closed loop, each job a fresh `python -m qconvolve ...` process,
pass after pass for --seconds, and checks every output against its
reference after the pass.  Before each pass it times fresh interpreters that
only import `qconvolve.cli` (set-up).

--trace 1 measures the layers.  It times a bare interpreter and the
`-X importtime` cost of `qconvolve.cli`, then runs the job list in this
process through `qconvolve.cli.main`, alternating an untraced pass with a
pass traced by `tracer.Tracer`, for --seconds.

Every job runs with a clean environment holding only PATH and PYTHONPATH;
in particular QCONVOLVE_THREADS is unset.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_ENV = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC)}
SETUP_SPAWNS_PER_PASS = 4
LAYER_SETUP_SPAWNS = 9
IMPORT_CLI = (sys.executable, "-c", "import qconvolve.cli")


def spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to its end; return (exit code, rusage, wall seconds)."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=CHILD_ENV, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, perf_counter() - start


def setup_seconds(argv=IMPORT_CLI) -> float:
    code, _, seconds = spawn(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return seconds


def import_seconds() -> float:
    """Cumulative `-X importtime` of qconvolve.cli, site and .pth files excluded."""
    proc = subprocess.run(
        (sys.executable, "-X", "importtime", *IMPORT_CLI[1:]),
        capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT, check=True,
    )
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "qconvolve.cli":
            return int(fields[1]) / 1e6
    raise RuntimeError("qconvolve.cli missing from -X importtime output")


def repeat_within(seconds: float, step) -> None:
    """Call step at least once, and again while the next call should end within seconds."""
    start = perf_counter()
    durations = []
    while not durations or perf_counter() - start + statistics.fmean(durations) <= seconds:
        begin = perf_counter()
        step()
        durations.append(perf_counter() - begin)


def run_pass(workloads, jobs, work: Path):
    """Run each job once as a CLI process, then check the outputs.

    Returns (seconds, CPU seconds, max-RSS MB) per job, and the errors.
    """
    samples, codes = [], []
    for index, job in enumerate(jobs):
        with open(work / f"job{index}.out", "wb") as out, open(work / f"job{index}.err", "wb") as err:
            code, usage, seconds = spawn((sys.executable, "-m", "qconvolve", *job.argv), out, err)
        codes.append(code)
        # ru_maxrss is in KiB on Linux
        samples.append((seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024))
    errors = []
    for index, (job, code) in enumerate(zip(jobs, codes)):
        error = workloads.check(job, code, (work / f"job{index}.out").read_text())
        if error:
            stderr_text = (work / f"job{index}.err").read_text().strip()[-300:]
            errors.append(f"{job.describe()}: {error}" + (f" [stderr: {stderr_text}]" if stderr_text else ""))
    return samples, errors


def measure_end_to_end(workloads, jobs, seconds):
    """Set-up and per-pass metrics of the job list run as CLI processes.

    A pass's wall, CPU and peak RSS are built from each job's median over
    the passes, so that a slow spell of the machine during one job of one
    pass does not move the whole pass.
    """
    setup_seconds()  # warm-up: writes bytecode caches, fills the page cache
    setups, passes, errors = [], [], []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:

        def one_pass():
            setups.extend(setup_seconds() for _ in range(SETUP_SPAWNS_PER_PASS))
            samples, pass_errors = run_pass(workloads, jobs, Path(work))
            passes.append(samples)
            errors.extend(pass_errors)

        repeat_within(seconds, one_pass)
    per_job = [[statistics.median(values) for values in zip(*job_samples)] for job_samples in zip(*passes)]
    medians = f"per-job medians of {len(passes)} passes"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} spawns"),
        "wall_s": (sum(job[0] for job in per_job), "s", f"sum of {medians}"),
        "cpu_s": (sum(job[1] for job in per_job), "s", f"sum of {medians}"),
        "peak_rss_mb": (max(job[2] for job in per_job), "MB", f"max of {medians}"),
    }
    return metrics, len(passes) * len(jobs), errors


def inprocess_pass(workloads, jobs):
    """Run each job through qconvolve.cli.main in this process."""
    from qconvolve import cli

    results = []
    start = perf_counter()
    for job in jobs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code
        results.append((code, out.getvalue()))
    wall = perf_counter() - start
    errors = [
        f"{job.describe()}: {error}"
        for job, (code, out) in zip(jobs, results)
        if (error := workloads.check(job, code, out))
    ]
    stdout_bytes = sum(len(out.encode()) for _, out in results)
    return wall, stdout_bytes, errors


def measure_layers(workloads, tracer_module, jobs, seconds):
    """Set-up split, untraced in-process time, and per-layer metrics of a traced pass."""
    for name in [k for k in os.environ if k.startswith("QCONVOLVE_")]:
        del os.environ[name]
    interpreter = [setup_seconds((sys.executable, "-c", "pass")) for _ in range(LAYER_SETUP_SPAWNS)]
    imports = [import_seconds() for _ in range(LAYER_SETUP_SPAWNS)]
    tracer = tracer_module.Tracer()
    untraced, ratios, layers, errors = [], [], [], []

    def one_pair():
        # Alternate which pass of a pair runs first, so warm-up favours neither.
        tracer.reset()
        for traced in (False, True) if len(untraced) % 2 == 0 else (True, False):
            if traced:
                with tracer.installed():
                    traced_wall, _, pass_errors = inprocess_pass(workloads, jobs)
            else:
                wall, stdout_bytes, pass_errors = inprocess_pass(workloads, jobs)
            errors.extend(pass_errors)
        untraced.append(wall)
        ratios.append(traced_wall / wall)
        layers.append(tracer.layer_metrics(traced_wall) | {"cli.stdout_bytes": (stdout_bytes, "bytes")})

    repeat_within(seconds, one_pair)
    samples = f"median of {len(layers)} traced passes"
    metrics = {
        "setup.interpreter_s": (statistics.median(interpreter), "s", f"median of {len(interpreter)} spawns"),
        "setup.import_s": (statistics.median(imports), "s", f"median of {len(imports)} spawns"),
        "trace.inproc_s": (statistics.median(untraced), "s", f"median of {len(untraced)} untraced passes"),
        "trace.overhead_ratio": (statistics.median(ratios), "ratio", f"median of {len(ratios)} pass pairs"),
    }
    for name, (_, unit) in layers[0].items():
        metrics[name] = (statistics.median(layer[name][0] for layer in layers), unit, samples)
    return metrics, 2 * len(untraced) * len(jobs), errors


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"python={platform.python_version()} nproc={nproc} cpu={cpu!r} commit={commit()}"


def commit() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = (git / "packed-refs").read_text()
        match = re.search(rf"^([0-9a-f]+) {re.escape(ref)}$", packed, re.M)
        return match.group(1) if match else "unknown"
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("all", "paper-defaults", "series-long", "tables-primes")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="shrink every job, to test the benchmark itself")
    args = parser.parse_args(argv)

    if not (SRC / "qconvolve" / "cli.py").is_file():
        print(f"perfbench: no qconvolve source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} {environment()}")
    result = {}
    attempted = 0
    errors = []
    for name in names:
        jobs = workloads.jobs_for(name, args.seed, WORK / "refs", smoke=args.smoke)
        print(f"# {name}: {len(jobs)} jobs")
        for job in jobs:
            print(f"#   {job.describe()}")
        if args.trace:
            metrics, count, job_errors = measure_layers(workloads, tracer, jobs, args.seconds)
        else:
            metrics, count, job_errors = measure_end_to_end(workloads, jobs, args.seconds)
        attempted += count
        errors += job_errors
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit, samples) in metrics.items():
            print(f"{name:15} {metric:28} {value:14.6g} {unit:6} {samples}")
            result[prefix + metric] = {"value": value, "unit": unit}
        print(f"{name:15} {'jobs':28} {count:14d} {'count':6} attempted")
        print(f"{name:15} {'jobs_failed':28} {len(job_errors):14d} {'count':6} wrong exit code or output")
    for error in errors:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    summary = {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": result}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
