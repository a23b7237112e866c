"""Command-line interface: output formats and exit-code contract."""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tomllib
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qconvolve
from qconvolve import cli
from qconvolve.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_values(out):
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    return [line.split(",")[1] for line in lines[1:]]


def test_expand_partition_numbers_csv(capsys):
    code, out, err = run(capsys, "expand", "--spec", "1n^-1", "-N", "5", "--format", "csv")
    assert code == 0
    assert csv_values(out) == ["1", "1", "2", "3", "5", "7"]
    assert err == ""


def test_expand_pentagonal_series(capsys):
    code, out, _ = run(capsys, "expand", "--spec", "1n^1", "-N", "2")
    assert code == 0
    assert csv_values(out) == ["1", "-1", "-1"]


def test_expand_jacobi_spec(capsys):
    code, out, _ = run(capsys, "expand", "--spec", "2n^1,4n-2^2,2n-1^-2", "-N", "4")
    assert code == 0
    assert csv_values(out) == ["1", "2", "0", "0", "2"]


def test_expand_json_matches_csv(capsys):
    code, out, _ = run(capsys, "expand", "--spec", "2n^1,2n-1^-1", "-N", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [{"m": 2, "i": 0, "c": 1}, {"m": 2, "i": 1, "c": -1}]
    assert payload["N"] == 6
    code, csv_out, _ = run(capsys, "expand", "--spec", "2n^1,2n-1^-1", "-N", "6")
    assert payload["coefficients"] == csv_values(csv_out)


def test_expand_parse_error_exit_code(capsys):
    # Grammar errors and the checks of FactorSet/Factor each name the factor.
    for factor, reason in (
        ("2x^1", "expected m[n[-i]]^c"),
        ("0n^1", "modulus must be >= 1, got 0"),
        ("3n-3^1", "offset must lie in [0, modulus), got offset=3, modulus=3"),
        ("3n-1^0", "factor exponent must be nonzero"),
    ):
        code, out, err = run(capsys, "expand", "--spec", factor, "-N", "3")
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [f"qconvolve: bad factor {factor!r}: {reason}"]


def test_expand_prints_integers_of_any_size(capsys):
    digit_limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "expand", "--spec", "1n^-1000000000000000000000000000000", "-N", "160")
    assert code == 0 and err == ""
    values = csv_values(out)
    assert len(values) == 161
    assert len(values[-1]) > digit_limit
    assert sys.get_int_max_str_digits() == digit_limit


def test_counts_oracle_table(capsys):
    code, out, _ = run(capsys, "counts", "--kind", "r", "--k", "2", "-N", "5", "--method", "oracle")
    assert code == 0
    assert csv_values(out) == ["1", "4", "4", "0", "4", "8"]


def test_counts_closed_t4(capsys):
    code, out, _ = run(capsys, "counts", "--kind", "t", "--k", "4", "-N", "3", "--method", "closed")
    assert code == 0
    assert csv_values(out) == ["1", "4", "6", "8"]


def test_counts_default_method_is_recursive(capsys):
    code, out, _ = run(capsys, "counts", "--kind", "u", "--k", "1", "--l", "1", "-N", "2")
    assert code == 0
    assert csv_values(out) == ["1", "3", "2"]


def test_counts_methods_agree(capsys):
    results = {}
    for method in ("recursive", "oracle", "closed"):
        code, out, _ = run(
            capsys, "counts", "--kind", "r", "--k", "4", "-N", "40", "--method", method
        )
        assert code == 0
        results[method] = csv_values(out)
    assert results["recursive"] == results["oracle"] == results["closed"]


def test_counts_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "counts", "--kind", "t", "--k", "2", "-N", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "t",
        "k": 2,
        "l": None,
        "N": 4,
        "method": "recursive",
        "values": ["1", "2", "1", "2", "2"],
    }


def test_counts_rejects_closed_mixed(capsys):
    code, _, err = run(
        capsys, "counts", "--kind", "u", "--k", "1", "--l", "1", "-N", "4", "--method", "closed"
    )
    assert code == 2
    assert "no closed form for kind=u" in err


def test_counts_rejects_unsupported_closed_k(capsys):
    code, _, err = run(capsys, "counts", "--kind", "r", "--k", "3", "-N", "4", "--method", "closed")
    assert code == 2
    assert "no closed form" in err


def test_counts_requires_l_for_mixed(capsys):
    code, _, err = run(capsys, "counts", "--kind", "u", "--k", "1", "-N", "4")
    assert code == 2
    code, _, err = run(capsys, "counts", "--kind", "r", "--k", "1", "--l", "2", "-N", "4")
    assert code == 2


def test_verify_passing_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "convolution", "--max", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,checked,failures,passed"
    assert lines[1] == "convolution,50,0,true"


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "series1-positivity", "-N", "50", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "identity": "series1-positivity",
        "checked": 51,
        "failures": [],
        "passed": True,
    }


def test_verify_single_input(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "prime-r2", "--input", "13", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_composite_input_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--identity", "prime-r2", "--input", "9")
    assert code == 2
    assert out == ""
    assert "not prime" in err


@pytest.mark.parametrize(
    "identity, value, message",
    [
        ("prime-r2", "9", "p = 9 is not prime"),
        ("prime-r2", "2", "p must be an odd prime, got 2"),
        ("t2-prime", "4", "p = 4 is not prime"),
        ("t2-prime", "2", "4p + 1 = 9 is not prime"),
        ("t4-prime", "4", "2n + 1 = 9 is not prime"),
        ("t6-prime", "3", "4n + 3 = 15 is not prime"),
    ],
)
def test_verify_rejected_input_prints_its_precondition(capsys, identity, value, message):
    code, out, err = run(capsys, "verify", "--identity", identity, "--input", value)
    assert (code, out, err) == (2, "", f"qconvolve: {message}\n")


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "nonsense")
    assert code == 2
    assert "unknown identity" in err


MISMATCHED_FLAGS = (
    (("series1-positivity", "--max", "10"), "takes -N"),
    (("convolution", "-N", "10"), "takes --max"),
    (("convolution", "--max", "20", "--count", "5"), "takes --max"),
    (("master-positivity", "-N", "20", "--seed", "3"), "takes -N"),
    (("prime-r2", "--input", "13", "--max", "5"), "takes --input alone"),
)


def test_verify_rejects_mismatched_range_flags(capsys):
    for argv, expected in MISMATCHED_FLAGS:
        code, out, err = run(capsys, "verify", "--identity", *argv)
        assert code == 2 and out == "" and expected in err, argv


def test_verify_reads_size_flags_through_a_wrapped_runner(capsys, monkeypatch):
    # perfbench's traced mode replaces each runner with a functools.wraps wrapper.
    runner = cli._RANGE_RUNNERS["R-positive"]

    @functools.wraps(runner)
    def traced(*args, **kwargs):
        return runner(*args, **kwargs)

    monkeypatch.setitem(cli._RANGE_RUNNERS, "R-positive", traced)
    code, out, _ = run(capsys, "verify", "--identity", "R-positive", "--max", "10")
    assert code == 0 and out.splitlines()[1] == "R-positive,10,0,true"
    assert run(capsys, "verify", "--identity", "R-positive", "-N", "5") == (
        2, "", "qconvolve: identity 'R-positive' takes --max, not -N\n"
    )


def test_verify_failure_exit_code(capsys, monkeypatch):
    # Every shipped identity holds, so stub the runner table to drive the
    # failing-report exit path.
    import qconvolve.cli as cli
    from qconvolve.identities import VerificationReport

    def failing_range(limit=300):
        report = VerificationReport("convolution", [1])
        report.expect(1, 0, 1)
        return report

    monkeypatch.setitem(cli._RANGE_RUNNERS, "convolution", failing_range)
    code, out, _ = run(capsys, "verify", "--identity", "convolution")
    assert code == 1
    assert out.strip().splitlines()[1] == "convolution,1,1,false"


def test_verify_oracle_equivalence_json_report(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "oracle-equivalence",
        "--count", "10", "-N", "40", "--seed", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 10 and payload["passed"] is True


# The README's default for every verify identity, keyed by runner keyword.
README_DEFAULTS = {
    "convolution": {"limit": 300},
    "prime-r2": {"limit": 1000},
    "prime-r4r8": {"limit": 500},
    "t2-prime": {"limit": 500},
    "t4-prime": {"limit": 500},
    "t6-prime": {"limit": 500},
    "R-positive": {"limit": 100_000},
    "master-positivity": {"order": 300},
    "series1-positivity": {"order": 500},
    "oracle-equivalence": {"order": 120, "count": 100, "seed": 0},
}


def test_verify_defaults_live_in_the_runner_signatures():
    runners = cli._RANGE_RUNNERS
    assert set(runners) == set(README_DEFAULTS) == set(cli.IDENTITIES)
    for name, runner in runners.items():
        bound = inspect.signature(runner).bind()
        bound.apply_defaults()
        sizes = {key: value for key, value in bound.arguments.items() if key in cli._SIZE_FLAGS}
        assert sizes == README_DEFAULTS[name], name
        assert set(cli._RANGE_SIZES[name]) == set(README_DEFAULTS[name]), name


def test_count_tables_map_each_method_and_kind_to_its_counts_function():
    from qconvolve import counts

    suffix = {"recursive": "table", "oracle": "oracle"}
    assert set(cli._COUNT_TABLES) == {(method, kind) for method in suffix for kind in "rtu"}
    for (method, kind), fn in cli._COUNT_TABLES.items():
        assert fn is getattr(counts, f"{kind}_{suffix[method]}"), (method, kind)


@pytest.mark.parametrize(
    "argv",
    [
        ("counts", "--kind", "r", "--k", "4", "-N", "-1"),
        ("counts", "--kind", "r", "--k", "4", "-N", "-1", "--method", "oracle"),
        ("counts", "--kind", "r", "--k", "4", "-N", "-1", "--method", "closed"),
        ("counts", "--kind", "u", "--k", "1", "--l", "1", "-N", "-1", "--method", "oracle"),
        ("expand", "--spec", "1n^-1", "-N", "-1"),
        ("verify", "--identity", "prime-r4r8", "--max", "-5"),
        ("verify", "--identity", "t6-prime", "--max", "-5"),
        ("verify", "--identity", "convolution", "--max", "-5"),
        ("verify", "--identity", "R-positive", "--max", "-5"),
        ("verify", "--identity", "master-positivity", "-N", "-1"),
        ("verify", "--identity", "series1-positivity", "-N", "-2"),
        ("verify", "--identity", "oracle-equivalence", "--count", "-1"),
        ("expand", "--spec", "2n^1,4n-2^2,2n-1^-2", "-N", "-3"),
    ],
)
def test_negative_size_is_usage_error(capsys, argv):
    (flag,) = {"-N", "--max", "--count"} & set(argv)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"qconvolve: {flag} must be >= 0, got {argv[argv.index(flag) + 1]}\n"


@pytest.mark.parametrize(
    "argv, bad",
    [
        *(
            (("counts", "--kind", kind, "--k", "0", *(("--l", "2") if kind == "u" else ()), "-N", "5",
              "--method", method), "--k 0")
            for kind in "rtu"
            for method in ("recursive", "oracle", "closed")
        ),
        (("counts", "--kind", "u", "--k", "2", "--l", "0", "-N", "5"), "--l 0"),
        (("counts", "--kind", "u", "--k", "2", "--l", "0", "-N", "5", "--method", "oracle"), "--l 0"),
        (("counts", "--kind", "t", "--k", "-3", "-N", "5"), "--k -3"),
    ],
)
def test_count_index_below_one_is_usage_error(capsys, argv, bad):
    # Named after the flag for every method, not after the library
    # function (r_table, u_oracle, ...) whose own guard would reject it.
    flag, value = bad.split()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"qconvolve: {flag} must be >= 1, got {value}\n"


@pytest.mark.parametrize(
    "argv, span",
    [
        (("--identity", "prime-r2", "--max", "2"), "--max 2"),
        (("--identity", "t4-prime", "--max", "0"), "--max 0"),
        (("--identity", "oracle-equivalence", "--count", "0"), "--count 0"),
        (("--identity", "convolution", "--max", "0"), "--max 0"),
        (("--identity", "R-positive", "--max", "0"), "--max 0"),
    ],
)
def test_verify_with_no_inputs_is_usage_error(capsys, argv, span):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"qconvolve: {argv[1]} checked no inputs for {span}\n"


def test_usage_error_on_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_installed_command_resolves_to_main():
    # pip builds the `qconvolve` command from [project.scripts]; a renamed
    # entry point would break it while every in-process test passed.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = scripts["qconvolve"].partition(":")
    assert (module, name) == ("qconvolve.cli", "main")
    assert getattr(importlib.import_module(module), name) is main


# --- every argv of a bounded grammar ends in one exit code and one document ---

# Two sizes past sys.maxsize: every flag, --count included, is sized before
# the command loops, so these fail at once (a drawn --input fails its
# primality precondition on a small factor first).
SIZES = st.one_of(st.integers(-3, 30), st.sampled_from((2**63, 2**64))).map(str)
FORMATS = st.lists(st.sampled_from(("csv", "json")), max_size=1).map(
    lambda fmt: ["--format", *fmt] if fmt else []
)
# Modulus 0, exponent 0 and an offset equal to the modulus are the invalid
# values; they come last, so that most drawn factors parse.
FACTORS = st.sampled_from((1, 2, 3, 4, 5, 6, 0)).flatmap(
    lambda m: st.builds(
        lambda i, c: f"{m}n-{i}^{c}" if i else f"{m}n^{c}",
        st.integers(0, m),
        st.sampled_from((1, -1, 2, -2, 3, -3, 4, -4, 0)),
    )
)
SPECS = st.lists(FACTORS, min_size=1, max_size=3).map(",".join)
VERIFY_FLAGS = ("--max", "-N", "--input", "--count", "--seed")


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("expand", "counts", "verify")))
    if command == "expand":
        argv = ["expand", "--spec", draw(SPECS), "-N", draw(SIZES)]
    elif command == "counts":
        kind = draw(st.sampled_from("rtu"))
        argv = ["counts", "--kind", kind, "--k", draw(SIZES), "-N", draw(SIZES)]
        if draw(st.booleans()):
            argv += ["--l", draw(SIZES)]
        argv += ["--method", draw(st.sampled_from(("recursive", "oracle", "closed")))]
    else:
        name = draw(st.sampled_from((*README_DEFAULTS, "nonsense")))
        argv = ["verify", "--identity", name]
        # One to three flags, half the time only flags the identity takes.  A
        # bare master-positivity runs its default N=300 for a second (the
        # signature test pins the bare defaults), and no identity takes four.
        takes = [cli._SIZE_FLAGS[key] for key in README_DEFAULTS.get(name, {})]
        flags = st.one_of(
            st.lists(st.sampled_from(takes or VERIFY_FLAGS), min_size=1, unique=True),
            st.lists(st.sampled_from(VERIFY_FLAGS), min_size=1, max_size=3, unique=True),
        )
        for flag in draw(flags):
            argv += [flag, draw(SIZES)]
    return argv + draw(FORMATS)


def assert_one_document(argv, out):
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    if argv[0] == "verify":
        if fmt == "json":
            assert set(json.loads(out)) == {"identity", "checked", "failures", "passed"}
        else:
            lines = out.splitlines()
            assert lines[0] == "identity,checked,failures,passed" and len(lines) == 2
            assert len(lines[1].split(",")) == 4
        return
    rows = int(argv[argv.index("-N") + 1]) + 1
    if fmt == "json":
        assert len(json.loads(out)["coefficients" if argv[0] == "expand" else "values"]) == rows
    else:
        assert len(csv_values(out)) == rows
    assert out.endswith("\n") and not out.endswith("\n\n")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cli_argv())
# The drawn --count only ever goes to identities that reject it.  The last
# exits 2 at once: the corpus list is sized before the loop.
@example(["verify", "--identity", "oracle-equivalence", "--count", "3", "-N", "5"])
@example(["verify", "--identity", "oracle-equivalence", "--count", "0", "-N", "5"])
@example(["verify", "--identity", "oracle-equivalence", "--count", str(2**64), "-N", "5"])
def test_every_argv_ends_in_one_exit_code_and_one_document(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert out.getvalue() == "", argv
    else:
        assert_one_document(argv, out.getvalue())


def run_capped(args, timeout):
    """Run python with args in a child limited to 1 GiB of address space."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(qconvolve.__file__).parents[1])}
    return subprocess.run(
        (sys.executable, *args),
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=timeout,
    )


def run_clean(args):
    """Run python with args in a child whose environment is PATH and PYTHONPATH alone."""
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(Path(qconvolve.__file__).parents[1])}
    return subprocess.run((sys.executable, *args), capture_output=True, text=True, env=env, timeout=60)


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # Every job is one process, so each pays this import before any arithmetic.
    # Compared with a bare child, so a site that imports them passes too.
    probe = "import sys{}; print(*sorted({{'dataclasses', 'inspect', 'json'}} & set(sys.modules)))"
    bare, loaded = (run_clean(("-c", probe.format(extra))) for extra in ("", ", qconvolve.cli"))
    assert bare.returncode == loaded.returncode == 0, (bare.stderr, loaded.stderr)
    assert set(loaded.stdout.split()) <= set(bare.stdout.split())
    proc = run_clean(("-m", "qconvolve", "expand", "--spec", "1n^-1", "-N", "5", "--format", "json"))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["coefficients"] == ["1", "1", "2", "3", "5", "7"]


def test_out_of_memory_exits_2_with_one_line_and_empty_stdout():
    # The capped child cannot hold 10^9 + 1 coefficients.
    argv = ("expand", "--spec", "1n^-1", "-N", "1000000000")
    proc = run_capped(("-m", "qconvolve", *argv), timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("qconvolve: ") and proc.stderr.count("\n") == 1


HUGE = str(2**64)
PAST_AN_INDEX = [
    ("expand", "--spec", "1n^1", "-N", HUGE),
    ("counts", "--kind", "r", "--k", "2", "-N", HUGE),
    ("counts", "--kind", "r", "--k", "2", "-N", HUGE, "--method", "oracle"),
    ("counts", "--kind", "t", "--k", "4", "-N", HUGE),
    ("counts", "--kind", "u", "--k", "1", "--l", "1", "-N", HUGE, "--method", "oracle"),
    *(
        ("verify", "--identity", name, "--max", HUGE)
        for name in ("convolution", "R-positive", "prime-r2", "prime-r4r8", "t2-prime")
    ),
    ("verify", "--identity", "oracle-equivalence", "-N", HUGE),
    *(("verify", "--identity", name, "--max", HUGE) for name in ("t4-prime", "t6-prime")),
    *(
        ("verify", "--identity", name, "-N", HUGE)
        for name in ("series1-positivity", "master-positivity")
    ),
    ("expand", "--spec", "1n^-1", "-N", HUGE),
    ("counts", "--kind", "t", "--k", "4", "-N", HUGE, "--method", "closed"),
    ("counts", "--kind", "r", "--k", "8", "-N", str(2**63), "--method", "closed"),
    ("verify", "--identity", "oracle-equivalence", "--count", HUGE, "-N", "5"),
]
# Below sys.maxsize: each range's prime sieve is larger than the child's cap.
SIEVE_PAST_THE_CAP = [
    ("verify", "--identity", name, "--max", str(10**12))
    for name in ("prime-r2", "prime-r4r8", "t2-prime", "t4-prime", "t6-prime")
]
# Child script: main over each argv of the JSON list in sys.argv[1], printing
# [exit code, stdout, stderr] for each.
_RUN_EACH = """
import contextlib, io, json, sys
from qconvolve.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([main(argv), out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def huge_runs():
    # One capped, timed child runs them all: a command that loops before it
    # sizes fails the test instead of hanging tier-1 or eating its memory.
    argvs = PAST_AN_INDEX + SIEVE_PAST_THE_CAP
    proc = run_capped(("-c", _RUN_EACH, json.dumps(argvs)), timeout=30)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(argvs, json.loads(proc.stdout)))


@pytest.mark.parametrize("argv", PAST_AN_INDEX)
def test_size_past_an_index_exits_2_with_one_line(huge_runs, argv):
    # Each command sizes its first list or range before it loops, so each of
    # these sizes fails at once.
    code, out, err = huge_runs[argv]
    assert code == 2
    assert out == ""
    assert err.startswith("qconvolve: ") and err.endswith(": the request is too large\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", SIEVE_PAST_THE_CAP)
def test_prime_sieve_out_of_memory_exits_2_with_one_line(huge_runs, argv):
    assert huge_runs[argv] == [2, "", "qconvolve: out of memory: the request is too large\n"]


def test_large_prime_input_is_sized_before_its_primality_test():
    # 2n + 1 = 2^62 - 57 is prime: the precondition's sieve is sized by it and
    # fails at once, where trial division up to its root would run for hours.
    argv = ("verify", "--identity", "t4-prime", "--input", "2305843009213693923")
    proc = run_capped(("-m", "qconvolve", *argv), timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "qconvolve: out of memory: the request is too large\n"
    )


def test_out_of_memory_line_is_written_after_the_command_is_freed(monkeypatch):
    # The failing command's frames, and what they hold, must be gone before
    # the handler allocates for its message.
    refs = []

    class Built:
        pass

    def command(args):
        built = Built()
        refs.append(weakref.ref(built))
        raise MemoryError

    class Stderr:
        text = ""

        def write(self, text):
            assert refs[0]() is None, "the command's frames are still alive"
            self.text += text

    stderr = Stderr()
    monkeypatch.setattr(cli, "_cmd_expand", command)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["expand", "--spec", "1n^-1", "-N", "5"]) == 2
    assert stderr.text == "qconvolve: out of memory: the request is too large\n"
