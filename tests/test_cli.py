"""Command-line interface: output formats and exit-code contract."""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    assert "closed" in err


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


def test_verify_failure_exit_code(capsys, monkeypatch):
    # Every shipped identity holds, so stub the runner table to drive the
    # failing-report exit path.
    import qconvolve.cli as cli
    from qconvolve.identities import VerificationReport

    def failing_range(limit=300):
        report = VerificationReport("convolution")
        report.mark(1)
        report.expect(1, 0, 1)
        return report

    monkeypatch.setitem(cli._RANGE_RUNNERS, "convolution", failing_range)
    code, out, _ = run(capsys, "verify", "--identity", "convolution")
    assert code == 1
    assert out.strip().splitlines()[1] == "convolution,1,1,false"


def test_verify_oracle_equivalence_with_thread_cap(capsys):
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
    ],
)
def test_negative_size_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qconvolve: ") and ">= 0" in err


@pytest.mark.parametrize(
    "argv, span",
    [
        (("--identity", "prime-r2", "--max", "2"), "--max 2"),
        (("--identity", "t4-prime", "--max", "0"), "--max 0"),
        (("--identity", "oracle-equivalence", "--count", "0"), "--count 0"),
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


# --- every argv of a bounded grammar ends in one exit code and one document ---

SIZES = st.integers(-3, 30).map(str)
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


def test_out_of_memory_exits_2_with_one_line_and_empty_stdout():
    # A child limited to 1 GiB of address space cannot hold 10^9 + 1
    # coefficients; the limit applies to that child alone.
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(qconvolve.__file__).parents[1])}
    proc = subprocess.run(
        (sys.executable, "-m", "qconvolve", "expand", "--spec", "1n^-1", "-N", "1000000000"),
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("qconvolve: ") and proc.stderr.count("\n") == 1
