"""Batch command-line front end.

Three subcommands: expand (product spec to coefficients), counts
(representation-count tables), and verify (identity checks over ranges).
Data goes to stdout, diagnostics to stderr.  Each command returns its exit
code and its whole output document, and main writes the document only
after the command has returned, so a run that fails leaves stdout empty.
Exit codes: 0 success or verification passed, 1 verification failed, 2
usage or parse or precondition error (or a request too large for memory),
3 internal divisibility violation.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .counts import r_oracle, r_table, t_oracle, t_table, u_oracle, u_table
from .errors import DivisibilityViolation
from .identities import (
    r2_closed,
    r4_closed,
    r8_closed,
    t2_closed,
    t4_closed,
    t6_closed,
    verify_convolution,
    verify_master_positivity,
    verify_oracle_equivalence,
    verify_prime_r2,
    verify_prime_r2_range,
    verify_prime_r4_r8,
    verify_prime_r4_r8_range,
    verify_R_positive,
    verify_series1_positivity,
    verify_t2_prime,
    verify_t2_prime_range,
    verify_t4,
    verify_t4_range,
    verify_t6,
    verify_t6_range,
)
from .series import ProductSpec, expand

_CLOSED_FORMS = {
    ("r", 2): r2_closed,
    ("r", 4): r4_closed,
    ("r", 8): r8_closed,
    ("t", 2): t2_closed,
    ("t", 4): t4_closed,
    ("t", 6): t6_closed,
}

_SINGLE_INPUT = {
    "prime-r2": verify_prime_r2,
    "prime-r4r8": verify_prime_r4_r8,
    "t2-prime": verify_t2_prime,
    "t4-prime": verify_t4,
    "t6-prime": verify_t6,
}

# Every identity's runner; its signature names its size flags and their defaults.
_RANGE_RUNNERS = {
    "convolution": verify_convolution,
    "prime-r2": verify_prime_r2_range,
    "prime-r4r8": verify_prime_r4_r8_range,
    "t2-prime": verify_t2_prime_range,
    "t4-prime": verify_t4_range,
    "t6-prime": verify_t6_range,
    "R-positive": verify_R_positive,
    "master-positivity": verify_master_positivity,
    "series1-positivity": verify_series1_positivity,
    "oracle-equivalence": verify_oracle_equivalence,
}

IDENTITIES = sorted(_RANGE_RUNNERS)

# verify's size flags: runner keyword -> flag
_SIZE_FLAGS = {"limit": "--max", "order": "-N", "count": "--count", "seed": "--seed"}


def _values_document(values, fmt: str, meta: dict, key: str) -> str:
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n},{value}\n" for n, value in enumerate(values))
    return json.dumps({**meta, key: [str(v) for v in values]}) + "\n"


def _report_document(report, fmt: str) -> str:
    if fmt == "csv":
        return (
            "identity,checked,failures,passed\n"
            f"{report.identity},{len(report.inputs_checked)},"
            f"{len(report.failures)},{'true' if report.passed else 'false'}\n"
        )
    return json.dumps(report.to_json_dict()) + "\n"


def _cmd_expand(args) -> tuple[int, str]:
    spec = ProductSpec.parse(args.spec)
    series = expand(spec, args.order)
    meta = {**spec.to_json_dict(), "N": args.order}
    return 0, _values_document(series, args.format, meta, "coefficients")


def _closed_table(kind: str, k: int, order: int) -> list[int]:
    fn = _CLOSED_FORMS.get((kind, k))
    if fn is None:
        raise ValueError(f"no closed form for kind={kind}, k={k}")
    if kind == "r":
        return [1] + [fn(n) for n in range(1, order + 1)]
    return [fn(n) for n in range(order + 1)]


def _cmd_counts(args) -> tuple[int, str]:
    kind, k, l, order = args.kind, args.k, args.l, args.order
    if order < 0:
        raise ValueError(f"-N must be >= 0, got {order}")
    if kind == "u":
        if l is None:
            raise ValueError("kind u requires --l")
    elif l is not None:
        raise ValueError(f"--l only applies to kind u, not {kind}")
    if args.method == "closed":
        if kind == "u":
            raise ValueError("no closed form for mixed counts")
        values = _closed_table(kind, k, order)
    elif args.method == "oracle":
        values = {"r": r_oracle, "t": t_oracle}[kind](k, order) if kind != "u" else u_oracle(k, l, order)
    else:
        values = {"r": r_table, "t": t_table}[kind](k, order) if kind != "u" else u_table(k, l, order)
    meta = {"kind": kind, "k": k, "l": l, "N": order, "method": args.method}
    return 0, _values_document(values, args.format, meta, "values")


def _cmd_verify(args) -> tuple[int, str]:
    name = args.identity
    runner = _RANGE_RUNNERS.get(name)
    if runner is None:
        raise ValueError(f"unknown identity {name!r}; choose from {', '.join(IDENTITIES)}")
    given = {key: getattr(args, key) for key in _SIZE_FLAGS if getattr(args, key) is not None}
    inputs = () if args.input is None else (args.input,)
    if inputs:
        runner = _SINGLE_INPUT.get(name)
        if runner is None:
            raise ValueError(f"identity {name!r} takes a range, not --input")
    accepted = inspect.signature(runner).parameters
    extra = [flag for key, flag in _SIZE_FLAGS.items() if key in given and key not in accepted]
    if extra:
        takes = ", ".join(flag for key, flag in _SIZE_FLAGS.items() if key in accepted)
        raise ValueError(f"identity {name!r} takes {takes or '--input alone'}, not {', '.join(extra)}")
    report = runner(*inputs, **given)
    if not report.inputs_checked:
        span = " ".join(f"{_SIZE_FLAGS[key]} {value}" for key, value in given.items())
        raise ValueError(f"{name} checked no inputs for {span or 'its defaults'}")
    return (0 if report.passed else 1), _report_document(report, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qconvolve",
        description="Exact progression-product expansion, representation counts,"
        " and divisor-sum identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand a product spec into coefficients")
    p_expand.add_argument("--spec", required=True, help="e.g. '2n^1,4n-2^2,2n-1^-2'")
    p_expand.add_argument("-N", "--order", type=int, required=True, help="truncation order")
    p_expand.add_argument("--format", choices=("csv", "json"), default="csv")
    p_expand.set_defaults(func=_cmd_expand)

    p_counts = sub.add_parser("counts", help="emit a representation-count table")
    p_counts.add_argument("--kind", choices=("r", "t", "u"), required=True)
    p_counts.add_argument("--k", type=int, required=True)
    p_counts.add_argument("--l", type=int, help="triangular count for kind u")
    p_counts.add_argument("-N", "--order", type=int, required=True)
    p_counts.add_argument(
        "--method", choices=("recursive", "oracle", "closed"), default="recursive"
    )
    p_counts.add_argument("--format", choices=("csv", "json"), default="csv")
    p_counts.set_defaults(func=_cmd_counts)

    p_verify = sub.add_parser("verify", help="verify an identity over a range")
    p_verify.add_argument("--identity", required=True, metavar="NAME")
    p_verify.add_argument("--max", type=int, dest="limit", help="range limit (range identities)")
    p_verify.add_argument("-N", "--order", type=int, help="truncation order (positivity, oracle)")
    p_verify.add_argument("--input", type=int, help="check one input instead of a range")
    p_verify.add_argument("--count", type=int, help="corpus size (oracle-equivalence)")
    p_verify.add_argument("--seed", type=int, help="corpus seed (oracle-equivalence)")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Coefficients of any size print; callers in this process keep their limit.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, document = args.func(args)
    except DivisibilityViolation as exc:
        print(f"qconvolve: divisibility violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qconvolve: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Unwinding has freed what the command built, so printing can allocate.
        print("qconvolve: out of memory: the request is too large", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)
    # The only write to stdout, after the whole document is built.
    sys.stdout.write(document)
    return code


if __name__ == "__main__":
    sys.exit(main())
