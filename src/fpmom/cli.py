"""Command-line front end.

    fpmom scalar  --rank 2 --max-order 8 --format json
    fpmom amalg   --rank 2 --max-order 12 --format csv
    fpmom xdecomp --rank 2 --power 8
    fpmom expand  --rank 2 --power 2
    fpmom verify  --rank 2 --max-order 12 --oracle both
    fpmom verify  --self-test

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error (including an --output
that cannot be written), 3 resource cap hit.
`expand` and `verify` expand powers of G in the group ring; for them the
environment variable FPMOM_SUPPORT_CAP overrides the default term cap,
and --support-cap overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .recurrence import decomposition_of
from .ring import DEFAULT_SUPPORT_CAP, SupportCapError, generating_operator, power
from .oracle import self_test, verify
from .series import FORMATS, amalgamated_series, emit, scalar_series

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _resolve_cap(args: argparse.Namespace) -> int:
    if args.support_cap is not None:
        _require(args.support_cap >= 1, "--support-cap must be >= 1")
        return args.support_cap
    env = os.environ.get("FPMOM_SUPPORT_CAP")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise _UsageError(f"FPMOM_SUPPORT_CAP must be an integer, got {env!r}")
        _require(cap >= 1, "FPMOM_SUPPORT_CAP must be >= 1")
        return cap
    return DEFAULT_SUPPORT_CAP


def _write_output(args: argparse.Namespace, data: bytes) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc.strerror}")
    else:
        sys.stdout.write(data.decode("utf-8"))


def cmd_scalar(args: argparse.Namespace) -> int:
    _require(args.rank >= 1, "--rank must be >= 1")
    _require(args.max_order >= 1, "--max-order must be >= 1")
    series = scalar_series(args.rank, args.max_order)
    _write_output(args, emit(series, args.format))
    return EXIT_OK


def cmd_amalg(args: argparse.Namespace) -> int:
    _require(
        args.rank >= 2,
        "--rank must be >= 2 for amalgamated moments: the canonical subgroup "
        "generator degenerates to the identity at rank 1",
    )
    _require(args.max_order >= 1, "--max-order must be >= 1")
    series = amalgamated_series(args.rank, args.max_order)
    _write_output(args, emit(series, args.format))
    return EXIT_OK


def _xdecomp_payload(args: argparse.Namespace, rows: list[tuple[int, int]]) -> bytes:
    if args.format == "json":
        payload = {
            "rank": args.rank,
            "power": args.power,
            "coeffs": [{"m": m, "coeff": str(c)} for m, c in rows],
        }
        return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
    lines = ["m,coefficient"]
    lines.extend(f"{m},{c}" for m, c in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def cmd_xdecomp(args: argparse.Namespace) -> int:
    _require(args.rank >= 1, "--rank must be >= 1")
    _require(args.power >= 1, "--power must be >= 1")
    dec = decomposition_of(args.power, args.rank)
    rows = list(dec.rows())
    _write_output(args, _xdecomp_payload(args, rows))
    if args.rank == 2 and args.power == 8:
        print(
            "note: the coefficients at lengths 2 and 0 are 958 and 2092; the values "
            "744 and 1316 seen in some published tables are arithmetic errors (word "
            "expansion and tree-walk counting both confirm 958 and 2092)",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    _require(args.rank >= 1, "--rank must be >= 1")
    _require(args.power >= 0, "--power must be >= 0")
    cap = _resolve_cap(args)
    element = power(generating_operator(args.rank), args.power, support_cap=cap)
    text = json.dumps(element.to_json_dict(), separators=(",", ":")) + "\n"
    _write_output(args, text.encode("utf-8"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _require(args.rank >= 1, "--rank must be >= 1")
    _require(args.max_order >= 1, "--max-order must be >= 1")
    _require(
        args.ring_max_order is None or args.ring_max_order >= 1,
        "--ring-max-order must be >= 1 (--oracle tree skips the ring oracle)",
    )
    cap = _resolve_cap(args)

    if args.self_test:
        reports = [self_test(args.rank, max(args.max_order, 2))]
    else:
        use_ring = args.oracle in ("ring", "both")
        reports = verify(
            args.rank,
            args.max_order,
            tree=args.oracle in ("tree", "both"),
            ring_max_order=args.ring_max_order if use_ring else 0,
            support_cap=cap,
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank", type=int, default=2, help="number of generators (default 2)")
    p.add_argument("--output", help="write data to this file instead of stdout")


def _add_support_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--support-cap",
        type=int,
        default=None,
        help=f"maximum stored terms for expansions (default {DEFAULT_SUPPORT_CAP}, "
        "or FPMOM_SUPPORT_CAP)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpmom",
        description="Exact moment series of the generating operator of a free group factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scalar", help="scalar moment series")
    _add_common(p)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(func=cmd_scalar)

    p = sub.add_parser("amalg", help="moment series over the canonical cyclic subgroup")
    _add_common(p)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(func=cmd_amalg)

    p = sub.add_parser("xdecomp", help="radial decomposition of one power")
    _add_common(p)
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_xdecomp)

    p = sub.add_parser("expand", help="brute-force word expansion of one power")
    _add_common(p)
    _add_support_cap(p)
    p.add_argument("--power", type=int, required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="run the recurrence against the oracles")
    _add_common(p)
    _add_support_cap(p)
    p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--oracle", choices=("ring", "tree", "both"), default="both")
    p.add_argument(
        "--ring-max-order",
        type=int,
        default=None,
        help="orders covered by the ring oracle (default: the per-rank budget)",
    )
    p.add_argument(
        "--self-test",
        action="store_true",
        help="inject one fault and confirm verification catches it (exits 1)",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SupportCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
