"""Batch command-line front end, run as `python -m qconvolve` or `qconvolve`.

Three subcommands, each dispatched from tables built at import: expand
(product spec to coefficients), counts (representation-count tables), and
verify (identity checks over ranges).  -N, --max or --count below 0, or --k or
--l below 1, is a usage error.  Data goes to stdout, diagnostics to stderr.
Each command returns its exit code and its whole output document, and main
writes the document only after the command has returned, so a run that fails
leaves stdout empty.  Exit codes: 0 success or verification passed, 1
verification failed, 2 usage or parse or precondition error (or a request too
large for memory or for an index), 3 internal divisibility violation.
"""

from __future__ import annotations

import argparse
import sys

from .counts import r_oracle, r_table, t_oracle, t_table, u_oracle, u_table
from .errors import DivisibilityViolation
from .identities import _CLOSED_FORMS, _REGISTRY
from .series import ProductSpec, expand

# Size flags: runner keyword (the parsed argument's name) -> flag
_SIZE_FLAGS = {"limit": "--max", "order": "-N", "count": "--count", "seed": "--seed"}
# The least value of each bounded flag, by the parsed argument's name; --seed has none.
_LEAST = {"limit": 0, "order": 0, "count": 0, "k": 1, "l": 1}


def _size_keywords(code) -> tuple[str, ...]:
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    return tuple(key for key in names if key in _SIZE_FLAGS)


# Each identity's runner and the size keywords its signature names; defaults stay there.
_RANGE_RUNNERS = {name: runner for name, runner, _ in _REGISTRY}
_RANGE_SIZES = {name: _size_keywords(runner.__code__) for name, runner, _ in _REGISTRY}
_SINGLE_INPUT = {name: verifier for name, _, verifier in _REGISTRY if verifier is not None}

IDENTITIES = sorted(_RANGE_RUNNERS)

# (method, kind) -> count table; kind u takes l before the order
_COUNT_TABLES = {
    ("recursive", "r"): r_table, ("recursive", "t"): t_table, ("recursive", "u"): u_table,
    ("oracle", "r"): r_oracle, ("oracle", "t"): t_oracle, ("oracle", "u"): u_oracle,
}


def _values_document(values, fmt: str, meta: dict, key: str) -> str:
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n},{value}\n" for n, value in enumerate(values))
    # Here and in _report_document: only --format json pays for the import.
    import json

    return json.dumps({**meta, key: [str(v) for v in values]}) + "\n"


def _report_document(report, fmt: str) -> str:
    if fmt == "csv":
        return (
            "identity,checked,failures,passed\n"
            f"{report.identity},{len(report.inputs_checked)},"
            f"{len(report.failures)},{'true' if report.passed else 'false'}\n"
        )
    import json

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
    # Sized before the first closed form; r_k(0) = 1 has none.
    table = [1] * (order + 1)
    for n in range(kind == "r", order + 1):
        table[n] = fn(n)
    return table


def _cmd_counts(args) -> tuple[int, str]:
    kind, k, l, order = args.kind, args.k, args.l, args.order
    if kind == "u":
        if l is None:
            raise ValueError("kind u requires --l")
    elif l is not None:
        raise ValueError(f"--l only applies to kind u, not {kind}")
    if args.method == "closed":
        values = _closed_table(kind, k, order)
    else:
        table = _COUNT_TABLES[args.method, kind]
        values = table(k, l, order) if kind == "u" else table(k, order)
    meta = {"kind": kind, "k": k, "l": l, "N": order, "method": args.method}
    return 0, _values_document(values, args.format, meta, "values")


def _cmd_verify(args) -> tuple[int, str]:
    name = args.identity
    if name not in _RANGE_RUNNERS:
        raise ValueError(f"unknown identity {name!r}; choose from {', '.join(IDENTITIES)}")
    given = {key: getattr(args, key) for key in _SIZE_FLAGS if getattr(args, key) is not None}
    if args.input is None:
        runner, inputs, accepted = _RANGE_RUNNERS[name], (), _RANGE_SIZES[name]
    elif name in _SINGLE_INPUT:
        runner, inputs, accepted = _SINGLE_INPUT[name], (args.input,), ()
    else:
        raise ValueError(f"identity {name!r} takes a range, not --input")
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
    too_large = None
    try:
        # One size rule for every command, before dispatch.
        for key, least in _LEAST.items():
            if (value := getattr(args, key, None)) is not None and value < least:
                flag = _SIZE_FLAGS.get(key, f"--{key}")
                raise ValueError(f"{flag} must be >= {least}, got {value}")
        code, document = args.func(args)
    except DivisibilityViolation as exc:
        print(f"qconvolve: divisibility violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qconvolve: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        # A size past sys.maxsize overflows at its first list, before any work.
        # The line is written after this block: until the block ends, the
        # exception's traceback holds the failing frames and all they built.
        too_large = str(exc) if isinstance(exc, OverflowError) else "out of memory"
    finally:
        sys.set_int_max_str_digits(digit_limit)
    if too_large is not None:
        print(f"qconvolve: {too_large}: the request is too large", file=sys.stderr)
        return 2
    # The only write to stdout, after the whole document is built.
    sys.stdout.write(document)
    return code
