"""Workload job lists, their references, and the output check.

A job is one `python -m qconvolve ...` invocation plus what a correct run
prints: the rows of an `expand` or `counts` table, or the identity and the
number of inputs a `verify` report must have checked.  References come from
the package's oracles (`oracle_expand`, `*_oracle`), from the closed forms,
or from counts computed here, and never from the code path the job times:
a `--method oracle` table is checked against the closed form and a
`--method closed` table against the oracle.

Importing this module imports `qconvolve`, so the package source must be on
`sys.path` first.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from random import Random

from qconvolve.counts import r_oracle, t_oracle, u_oracle
from qconvolve.identities import r2_closed, r8_closed
from qconvolve.series import Factor, FactorSet, ProductSpec, oracle_expand

WORKLOADS = ("paper-defaults", "series-long", "tables-primes")

# Every verify identity with the parameter its README default sets.  The
# full-size jobs pass no parameter, so they run at the CLI's own defaults.
README_DEFAULTS = (
    ("convolution", "--max", 300),
    ("prime-r2", "--max", 1000),
    ("prime-r4r8", "--max", 500),
    ("t2-prime", "--max", 500),
    ("t4-prime", "--max", 500),
    ("t6-prime", "--max", 500),
    ("R-positive", "--max", 100_000),
    ("master-positivity", "-N", 300),
    ("series1-positivity", "-N", 500),
    ("oracle-equivalence", "-N", 120),
)
ORACLE_EQUIVALENCE_COUNT = 100  # the CLI's default --count


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the output a correct run prints."""

    argv: tuple[str, ...]
    values: tuple[int, ...] | None = None  # expected rows of expand / counts
    identity: str | None = None  # expected report of verify
    checked: int = 0  # inputs the verify report must have checked

    def describe(self) -> str:
        return "qconvolve " + " ".join(self.argv)


def jobs_for(workload: str, seed: int, cache: Path, smoke: bool = False) -> list[Job]:
    """The job list of a workload with its references computed.

    Only series-long depends on the seed.  smoke shrinks every size about
    fiftyfold, for testing the benchmark itself.
    """
    builders = {
        "paper-defaults": _paper_defaults,
        "series-long": _series_long,
        "tables-primes": _tables_primes,
    }
    return builders[workload](seed, cache, 50 if smoke else 1)


def _size(full: int, scale: int) -> int:
    return max(full // scale, 6)


def _paper_defaults(seed: int, cache: Path, scale: int) -> list[Job]:
    jobs = []
    for identity, flag, default in README_DEFAULTS:
        size = _size(default, scale)
        argv = ("verify", "--identity", identity)
        if scale != 1:
            argv += (flag, str(size))
        jobs.append(verify_job(argv, identity, size))
    jobs += [
        expand_job([(1, 0, -1)], 5, "csv", cache),
        expand_job([(2, 0, 1), (4, 2, 2), (2, 1, -2)], 4, "json", cache),
        Job(
            ("counts", "--kind", "r", "--k", "2", "-N", "5", "--method", "oracle"),
            values=(1, *(r2_closed(n) for n in range(1, 6))),
        ),
        Job(
            ("counts", "--kind", "t", "--k", "4", "-N", "3", "--method", "closed"),
            values=t_oracle(4, 3).values,
        ),
        Job(("counts", "--kind", "u", "--k", "1", "--l", "1", "-N", "2"), values=u_oracle(1, 1, 2).values),
        Job(("verify", "--identity", "t4-prime", "--input", "3"), identity="t4-prime", checked=1),
    ]
    return jobs


def master_member(seed: int) -> list[tuple[int, int, int]]:
    """A master-family member with a=3, b=5 and two nonzero offsets, as (m, i, c).

    The seed picks the offsets and the reading; the double-product reading
    repeats the base factor once per offset.
    """
    rng = Random(seed)
    offsets = sorted(rng.sample((1, 2, 3), 2))
    reading = rng.choice(("double-product", "single-base"))
    base = 3 * (len(offsets) if reading == "double-product" else 1)
    return [(1, 0, -base)] + [(5, i, 3) for i in offsets]


def _series_long(seed: int, cache: Path, scale: int) -> list[Job]:
    jobs = []
    for order in (1000, 2000, 4000, 8000):
        size = _size(order, scale)
        argv = ("verify", "--identity", "series1-positivity", "-N", str(size))
        jobs.append(verify_job(argv, "series1-positivity", size))
    order = _size(4000, scale)
    jobs.append(expand_job([(1, 0, -1)], order, "json", cache))
    jobs.append(expand_job(master_member(seed), order, "csv", cache))
    return jobs


def _tables_primes(seed: int, cache: Path, scale: int) -> list[Job]:
    n3000, n2000 = _size(3000, scale), _size(2000, scale)

    def counts(*args: str) -> tuple[str, ...]:
        return ("counts", *args)

    jobs = [
        Job(counts("--kind", "r", "--k", "4", "-N", str(n3000)), values=r_oracle(4, n3000).values),
        Job(counts("--kind", "t", "--k", "6", "-N", str(n3000)), values=t_oracle(6, n3000).values),
        Job(
            counts("--kind", "u", "--k", "2", "--l", "3", "-N", str(n2000)),
            values=u_oracle(2, 3, n2000).values,
        ),
        Job(
            counts("--kind", "r", "--k", "8", "-N", str(n3000), "--method", "oracle"),
            values=(1, *(r8_closed(n) for n in range(1, n3000 + 1))),
        ),
        Job(
            counts("--kind", "r", "--k", "8", "-N", str(n3000), "--method", "closed"),
            values=r_oracle(8, n3000).values,
        ),
    ]
    for identity, limit in (
        ("prime-r2", 4000),
        ("prime-r4r8", 4000),
        ("t4-prime", 4000),
        ("t6-prime", 4000),
        ("convolution", 3000),
        ("R-positive", 400_000),
    ):
        size = _size(limit, scale)
        jobs.append(verify_job(("verify", "--identity", identity, "--max", str(size)), identity, size))
    return jobs


def _spec_text(factors: list[tuple[int, int, int]]) -> str:
    return ",".join(f"{m}n^{c}" if i == 0 else f"{m}n-{i}^{c}" for m, i, c in factors)


def expand_job(factors, order: int, fmt: str, cache: Path) -> Job:
    text = _spec_text(factors)
    argv = ("expand", "--spec", text, "-N", str(order))
    if fmt == "json":
        argv += ("--format", "json")
    return Job(argv, values=expand_reference(factors, order, cache))


def expand_reference(factors, order: int, cache: Path) -> tuple[int, ...]:
    """oracle_expand of the spec, stored in cache because it is slow at N=4000.

    The spec is built from its factors, not parsed, so the reference does
    not share the CLI's parser.
    """
    key = hashlib.sha256(f"{factors!r}/{order}".encode()).hexdigest()[:20]
    path = cache / f"expand-{key}.json"
    if path.exists():
        return tuple(int(v) for v in json.loads(path.read_text()))
    spec = ProductSpec([Factor(FactorSet(m, i), c) for m, i, c in factors])
    values = oracle_expand(spec, order).coeffs
    cache.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps([str(v) for v in values]))
    partial.replace(path)
    return values


# --- expected report sizes, from a sieve of this module's own ---


def _primes_below(limit: int) -> list[int]:
    flags = bytearray([1]) * max(limit, 2)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [n for n in range(limit) if flags[n]]


def expected_checked(identity: str, size: int) -> int:
    """How many inputs a verify run of the identity at this size checks.

    size is --max for range identities and -N for order identities.  The
    prime ranges exclude --max; convolution and R-positive include it.
    """
    if identity in ("convolution", "R-positive"):
        return size
    if identity in ("prime-r2", "prime-r4r8"):
        return sum(1 for p in _primes_below(size) if p != 2)
    if identity == "t2-prime":
        primes = set(_primes_below(4 * size + 1))
        return sum(1 for p in _primes_below(size) if 4 * p + 1 in primes)
    if identity == "t4-prime":
        primes = set(_primes_below(2 * size + 1))
        return sum(1 for n in range(1, size) if 2 * n + 1 in primes)
    if identity == "t6-prime":
        primes = set(_primes_below(4 * size + 3))
        return sum(1 for n in range(size) if 4 * n + 3 in primes)
    if identity == "master-positivity":
        # a in {1,2,3}, b in {2..5}, nonempty offset sets in [0, b-2], two readings
        return 3 * 2 * sum(2 ** (b - 1) - 1 for b in range(2, 6))
    if identity == "series1-positivity":
        return size + 1
    if identity == "oracle-equivalence":
        return ORACLE_EQUIVALENCE_COUNT
    raise ValueError(f"no expected count for identity {identity!r}")


def verify_job(argv: tuple[str, ...], identity: str, size: int) -> Job:
    return Job(argv, identity=identity, checked=expected_checked(identity, size))


# --- the check ---


def check(job: Job, code: int, out: str) -> str | None:
    """Why the job's run is wrong, or None when it matches the reference."""
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        if job.identity is not None:
            return _check_report(job, out)
        return _check_values(job, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_report(job: Job, out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) != 2 or lines[0] != "identity,checked,failures,passed":
        return "not a one-row verify report"
    identity, checked, failures, passed = lines[1].split(",")
    if identity != job.identity:
        return f"report is for {identity!r}, expected {job.identity!r}"
    if int(checked) == 0:
        return "report checked no inputs"
    if int(checked) != job.checked:
        return f"report checked {checked} inputs, expected {job.checked}"
    if failures != "0" or passed != "true":
        return f"report has {failures} failures, passed={passed}"
    return None


def _check_values(job: Job, out: str) -> str | None:
    if "json" in job.argv:
        doc = json.loads(out)
        values = [int(v) for v in doc["coefficients" if job.argv[0] == "expand" else "values"]]
    else:
        lines = out.splitlines()
        if not lines or lines[0] != "n,value":
            return "missing the n,value header"
        values = []
        for n, line in enumerate(lines[1:]):
            label, value = line.split(",")
            if int(label) != n:
                return f"row {n} is labelled {label}"
            values.append(int(value))
    if len(values) != len(job.values):
        return f"{len(values)} rows, expected {len(job.values)}"
    for n, (got, want) in enumerate(zip(values, job.values)):
        if got != want:
            return f"row {n} is {got}, expected {want}"
    return None
