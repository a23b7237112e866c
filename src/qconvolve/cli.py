"""Batch command-line front end.

Three subcommands: expand (product spec to coefficients), counts
(representation-count tables), and verify (identity checks over ranges).
Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success or
verification passed, 1 verification failed, 2 usage or parse or
precondition error, 3 internal divisibility violation.
"""

from __future__ import annotations

import argparse
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

_RANGE_DEFAULTS = {
    "convolution": 300,
    "prime-r2": 1000,
    "prime-r4r8": 500,
    "t2-prime": 500,
    "t4-prime": 500,
    "t6-prime": 500,
    "R-positive": 100_000,
}

_ORDER_DEFAULTS = {
    "master-positivity": 300,
    "series1-positivity": 500,
    "oracle-equivalence": 120,
}

_SINGLE_INPUT = {
    "prime-r2": verify_prime_r2,
    "prime-r4r8": verify_prime_r4_r8,
    "t2-prime": verify_t2_prime,
    "t4-prime": verify_t4,
    "t6-prime": verify_t6,
}

_RANGE_RUNNERS = {
    "convolution": verify_convolution,
    "prime-r2": verify_prime_r2_range,
    "prime-r4r8": verify_prime_r4_r8_range,
    "t2-prime": verify_t2_prime_range,
    "t4-prime": verify_t4_range,
    "t6-prime": verify_t6_range,
    "R-positive": verify_R_positive,
}

IDENTITIES = sorted(set(_RANGE_DEFAULTS) | set(_ORDER_DEFAULTS))


def _emit_values(values, fmt: str, meta: dict) -> None:
    if fmt == "csv":
        print("n,value")
        for n, value in enumerate(values):
            print(f"{n},{value}")
    else:
        payload = dict(meta)
        payload["values"] = [str(v) for v in values]
        print(json.dumps(payload))


def _emit_report(report, fmt: str) -> None:
    if fmt == "csv":
        print("identity,checked,failures,passed")
        print(
            f"{report.identity},{len(report.inputs_checked)},"
            f"{len(report.failures)},{'true' if report.passed else 'false'}"
        )
    else:
        print(json.dumps(report.to_json_dict()))


def _cmd_expand(args) -> int:
    spec = ProductSpec.parse(args.spec)
    series = expand(spec, args.order)
    if args.format == "csv":
        _emit_values(series, "csv", {})
    else:
        payload = spec.to_json_dict()
        payload["N"] = args.order
        payload["coefficients"] = [str(v) for v in series]
        print(json.dumps(payload))
    return 0


def _closed_table(kind: str, k: int, order: int) -> list[int]:
    fn = _CLOSED_FORMS.get((kind, k))
    if fn is None:
        raise ValueError(f"no closed form for kind={kind}, k={k}")
    if kind == "r":
        return [1] + [fn(n) for n in range(1, order + 1)]
    return [fn(n) for n in range(order + 1)]


def _cmd_counts(args) -> int:
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
        table = {"r": r_oracle, "t": t_oracle}[kind](k, order) if kind != "u" else u_oracle(k, l, order)
        values = list(table.values)
    else:
        table = {"r": r_table, "t": t_table}[kind](k, order) if kind != "u" else u_table(k, l, order)
        values = list(table.values)
    meta = {"kind": kind, "k": k, "l": l, "N": order, "method": args.method}
    _emit_values(values, args.format, meta)
    return 0


def _cmd_verify(args) -> int:
    name = args.identity
    if name not in IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; choose from {', '.join(IDENTITIES)}")
    if name in _ORDER_DEFAULTS and args.max is not None:
        raise ValueError(f"identity {name!r} takes -N, not --max")
    if name in _RANGE_DEFAULTS and args.order is not None:
        raise ValueError(f"identity {name!r} takes --max, not -N")
    if args.input is not None:
        fn = _SINGLE_INPUT.get(name)
        if fn is None:
            raise ValueError(f"identity {name!r} takes a range, not --input")
        report, span = fn(args.input), f"--input {args.input}"
    elif name in _RANGE_DEFAULTS:
        limit = args.max if args.max is not None else _RANGE_DEFAULTS[name]
        report, span = _RANGE_RUNNERS[name](limit), f"--max {limit}"
    else:
        order = args.order if args.order is not None else _ORDER_DEFAULTS[name]
        span = f"-N {order}"
        if name == "master-positivity":
            report = verify_master_positivity(order=order)
        elif name == "series1-positivity":
            report = verify_series1_positivity(order)
        else:
            report = verify_oracle_equivalence(count=args.count, order=order, seed=args.seed)
            span = f"--count {args.count}"
    if not report.inputs_checked:
        raise ValueError(f"{name} checked no inputs for {span}")
    _emit_report(report, args.format)
    return 0 if report.passed else 1


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
    p_verify.add_argument("--max", type=int, help="range limit (range identities)")
    p_verify.add_argument("-N", "--order", type=int, help="truncation order (positivity, oracle)")
    p_verify.add_argument("--input", type=int, help="check one input instead of a range")
    p_verify.add_argument("--count", type=int, default=100, help="corpus size (oracle-equivalence)")
    p_verify.add_argument("--seed", type=int, default=0, help="corpus seed (oracle-equivalence)")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivisibilityViolation as exc:
        print(f"qconvolve: divisibility violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qconvolve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
