"""Command-line interface: output formats and exit-code contract."""

from __future__ import annotations

import json

import pytest

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
    code, out, err = run(capsys, "expand", "--spec", "2x^1", "-N", "3")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == ["qconvolve: bad factor '2x^1': expected m[n[-i]]^c"]


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


def test_verify_rejects_mismatched_range_flags(capsys):
    code, _, err = run(capsys, "verify", "--identity", "series1-positivity", "--max", "10")
    assert code == 2 and "takes -N" in err
    code, _, err = run(capsys, "verify", "--identity", "convolution", "-N", "10")
    assert code == 2 and "takes --max" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    # Every shipped identity holds, so stub the runner table to drive the
    # failing-report exit path.
    import qconvolve.cli as cli
    from qconvolve.identities import VerificationReport

    def failing_range(limit):
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
