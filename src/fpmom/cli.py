"""Command-line front end.

    fpmom scalar  --rank 2 --max-order 8 --format json
    fpmom amalg   --rank 2 --max-order 12 --format csv
    fpmom xdecomp --rank 2 --power 8
    fpmom expand  --rank 2 --power 2
    fpmom verify  --rank 2 --max-order 12 --oracle both
    fpmom verify  --self-test

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error (including an --output
that cannot be written; a missing parent directory or a directory is
refused before any computation), 3 resource cap hit.
Each int flag is checked once, by its argparse type `_at_least`.
`expand` and `verify` expand powers of G in the group ring, and
--support-cap bounds their stored terms.  `verify --oracle tree` runs the
tree oracle alone and expands nothing, so it refuses --ring-max-order and
--support-cap (exit 2), and `verify --self-test` refuses those two and
--oracle.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import Iterable

from .recurrence import decomposition_of
from .ring import DEFAULT_SUPPORT_CAP, SupportCapError, generating_operator, power
from .oracle import self_test, verify
from .series import (
    FORMATS,
    amalgamated_rows,
    emit,
    scalar_series,
    write_csv,
    write_json,
    write_series,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _at_least(least: int):
    """The argparse type of every int flag: an int, at least least; anything
    else exits 2 with the flag named."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _check_output(args: argparse.Namespace) -> None:
    """Refuse an --output path that cannot be written, before any computation.

    Other write failures, such as a missing permission, still surface
    when the data is written.
    """
    path = args.output
    if not path:
        return
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.exists(parent):
        err = errno.ENOENT
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR
    else:
        return
    raise _UsageError(f"cannot write {path}: {os.strerror(err)}")


def _write_output(args: argparse.Namespace, data: bytes) -> None:
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc.strerror}")
    else:
        sys.stdout.write(data.decode("utf-8"))


def cmd_scalar(args: argparse.Namespace) -> int:
    series = scalar_series(args.rank, args.max_order)
    _write_output(args, emit(series, args.format))
    return EXIT_OK


def cmd_amalg(args: argparse.Namespace) -> int:
    rows = amalgamated_rows(args.rank, args.max_order)
    _write_output(args, write_series(args.format, args.rank, "amalgamated", args.max_order, rows))
    return EXIT_OK


def _xdecomp_payload(args: argparse.Namespace, rows: Iterable[tuple[int, str]]) -> bytes:
    if args.format == "json":
        fields = {"rank": args.rank, "power": args.power}
        text = write_json(fields, rows, names=("m", "coeff"), entries="coeffs")
    else:
        text = write_csv(rows, header="m,coefficient")
    return text.encode("utf-8")


def cmd_xdecomp(args: argparse.Namespace) -> int:
    dec = decomposition_of(args.power, args.rank)
    rows = ((m, str(c)) for m, c in dec.rows())
    _write_output(args, _xdecomp_payload(args, rows))
    if args.rank == 2 and args.power == 8:
        print(
            "note: the coefficients at lengths 2 and 0 are 958 and 2092; the values "
            "744 and 1316 seen in some published tables are arithmetic errors (word "
            "expansion confirms 958 and 2092, and tree-walk counting confirms 2092)",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    # no name holds the element, so it is freed before its text is encoded
    text = power(generating_operator(args.rank), args.power, args.support_cap).to_json()
    _write_output(args, text.encode("utf-8"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    ring_flags = (("--ring-max-order", args.ring_max_order), ("--support-cap", args.support_cap))
    if args.self_test:
        mode, ignored = "--self-test", (("--oracle", args.oracle), *ring_flags)
    elif args.oracle == "tree":
        mode, ignored = "--oracle tree", ring_flags
    else:
        ignored = ()
    for flag, value in ignored:
        _require(value is None, f"{flag} has no effect with {mode}")

    if args.self_test:
        reports = [self_test(args.rank, max(args.max_order, 2))]
    else:
        use_ring = args.oracle != "tree"
        reports = verify(
            args.rank,
            args.max_order,
            ring_max_order=args.ring_max_order if use_ring else 0,
            support_cap=args.support_cap,
        )
        if use_ring and args.rank == 1:
            print(
                "note: amalgamated check skipped at rank 1 (no canonical subgroup)",
                file=sys.stderr,
            )

    out_lines = []
    for report in reports:
        out_lines.append(json.dumps(report.to_json_dict(), separators=(",", ":")))
        print(
            f"{report.subject}: {report.verdict.upper()} "
            f"({len(report.mismatches)} mismatches)",
            file=sys.stderr,
        )
    _write_output(args, ("\n".join(out_lines) + "\n").encode("utf-8"))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _add_common(p: argparse.ArgumentParser, least_rank: int = 1) -> None:
    p.add_argument(
        "--rank", type=_at_least(least_rank), default=2, help="number of generators (default 2)"
    )
    p.add_argument("--output", help="write data to this file instead of stdout")


def _add_support_cap(p: argparse.ArgumentParser) -> None:
    text = f"maximum stored terms for expansions (default {DEFAULT_SUPPORT_CAP})"
    p.add_argument("--support-cap", type=_at_least(1), help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpmom",
        description="Exact moment series of the generating operator of a free group factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scalar", help="scalar moment series")
    _add_common(p)
    p.add_argument("--max-order", type=_at_least(1), required=True)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(func=cmd_scalar)

    # at rank 1 the canonical subgroup generator degenerates to the identity
    p = sub.add_parser("amalg", help="moment series over the canonical cyclic subgroup")
    _add_common(p, least_rank=2)
    p.add_argument("--max-order", type=_at_least(1), required=True)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(func=cmd_amalg)

    p = sub.add_parser("xdecomp", help="radial decomposition of one power")
    _add_common(p)
    p.add_argument("--power", type=_at_least(1), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_xdecomp)

    p = sub.add_parser("expand", help="brute-force word expansion of one power")
    _add_common(p)
    _add_support_cap(p)
    p.add_argument("--power", type=_at_least(0), required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="run the recurrence against the oracles")
    _add_common(p)
    _add_support_cap(p)
    p.add_argument("--max-order", type=_at_least(1), default=8)
    p.add_argument(
        "--oracle",
        choices=("tree", "both"),
        help="tree: the tree oracle alone; both (default): the ring oracle too",
    )
    p.add_argument(
        "--ring-max-order",
        type=_at_least(1),
        help="orders covered by the ring oracle (default: the per-rank budget; "
        "--oracle tree skips it)",
    )
    p.add_argument(
        "--self-test",
        action="store_true",
        help="inject one fault and confirm verification catches it (exits 1); "
        "takes none of --oracle, --ring-max-order and --support-cap",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Exact moments outgrow the interpreter's 4300-digit limit on int -> str;
    # lift it for this run only, since callers may run main in-process.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _check_output(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SupportCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
