"""Command-line front end.

    fpmom scalar  --rank 2 --max-order 8 --format json
    fpmom amalg   --rank 2 --max-order 12 --format csv
    fpmom xdecomp --rank 2 --power 8
    fpmom expand  --rank 2 --power 2
    fpmom verify  --rank 2 --max-order 12 --oracle both
    fpmom verify  --self-test

Data goes to stdout (or --output), diagnostics to stderr.  Every command
streams its data: the writers yield text in bounded chunks
(``fpmom.words._CHUNK`` characters at most), and `_write_output` writes
each chunk as it comes, so a run never holds its whole output; a write
that fails mid-run (a full disk, a closed pipe) can leave partial
output behind.  Exit codes: 0 success, 1 verification failure, 2 usage
error (including an --output or a stdout that cannot be written; a
missing parent directory, a directory or an empty path is refused before
any computation), 3 resource cap hit.
Each subcommand's flags are declared once, in the table `_COMMANDS`.  `main`
reads a canonical argv (a command, then each flag at most once as
``--flag value``) straight off that table, so a plain run never imports
argparse; any other argv goes to the argparse parser that `build_parser`
builds from the same table, which alone writes help, usage and errors.
Each int flag is checked once, by its type `_at_least`, on either path.
`expand` and `verify` expand powers of G in the group ring, and
--support-cap bounds their stored terms.  `verify --oracle tree` runs the
tree oracle alone and expands nothing, so it refuses --ring-max-order and
--support-cap (exit 2), and `verify --self-test` refuses those two and
--oracle.
"""

from __future__ import annotations

import atexit
import errno
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from .recurrence import (
    _ROW_GATE,
    _SCALAR_GATE,
    _exact_decimal,
    _radial_row,
    _scalar_moments,
    decomposition_of,
)
from .ring import DEFAULT_SUPPORT_CAP, SupportCapError, iter_power_classes
from .oracle import self_test, verify
from .series import (
    FORMATS,
    amalgamated_rows,
    scalar_series,
    write_csv,
    write_json,
    write_series,
)
from .words import _terms_json

if TYPE_CHECKING:
    import argparse
    import decimal

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
    """The type of every int flag: an int, at least least; anything else
    exits 2 with the flag named."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            from argparse import ArgumentTypeError

            raise ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _check_output(args: argparse.Namespace) -> None:
    """Refuse an --output path that cannot be written, before any computation.

    Other write failures, such as a missing permission, still surface
    when the data is written.
    """
    path = args.output
    if path is None:
        return
    parent = os.path.dirname(path) or os.curdir
    if not path:
        err = errno.ENOENT
    elif os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.exists(parent):
        err = errno.ENOENT
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR
    else:
        return
    raise _UsageError(f"cannot write {path}: {os.strerror(err)}")


def _write_output(
    args: argparse.Namespace, chunks: Iterable[str], context: decimal.Context | None = None
) -> None:
    """Write each chunk, as it comes, to --output or to stdout; a failed
    write exits 2 either way.  A decimal ``context`` is the current one
    while the chunks are made, so an engine that yields them runs in it."""
    if context is not None:
        from decimal import localcontext

        with localcontext(context):
            return _write_output(args, chunks)
    if args.output is None:
        out = sys.stdout
        try:
            for chunk in chunks:
                out.write(chunk)
            out.flush()
        except OSError as exc:
            _discard_at_exit(out)
            raise _UsageError(f"cannot write stdout: {exc.strerror}")
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.output}: {exc.strerror}")


def _discard_at_exit(stream: TextIO) -> None:
    """Point stream's descriptor at os.devnull when the interpreter exits.

    A failed write leaves text in stream's buffer, which the interpreter's
    flush at exit would fail on again, with a traceback.  Exit handlers
    run before that flush; until then an in-process caller of `main` keeps
    its stdout.  A stream with no descriptor is left alone.
    """
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return
    atexit.register(_point_at_devnull, fd)


def _point_at_devnull(fd: int) -> None:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def cmd_scalar(args: argparse.Namespace) -> int:
    context = _exact_decimal(args.max_order, args.rank, _SCALAR_GATE)
    if context is None:
        values = scalar_series(args.rank, args.max_order)
    else:  # the P-recurrence runs in decimal as the rows are read
        values = _scalar_moments(args.rank, args.max_order, context.create_decimal(1))
    rows = enumerate(map(str, values), 1)
    chunks = write_series(args.format, args.rank, "scalar", args.max_order, rows)
    _write_output(args, chunks, context)
    return EXIT_OK


def cmd_amalg(args: argparse.Namespace) -> int:
    rows = amalgamated_rows(args.rank, args.max_order)
    _write_output(args, write_series(args.format, args.rank, "amalgamated", args.max_order, rows))
    return EXIT_OK


def _xdecomp_payload(args: argparse.Namespace, rows: Iterable[tuple[int, str]]) -> Iterator[str]:
    if args.format == "json":
        fields = {"rank": args.rank, "power": args.power}
        return write_json(fields, rows, names=("m", "coeff"), entries="coeffs")
    return write_csv(rows, header="m,coefficient")


def _xdecomp_rows(
    power: int, rank: int, context: decimal.Context | None
) -> Iterator[tuple[int, str]]:
    """(m, c_m) of G^power, longest class first, with c_m spelled.  The
    row is built at the first read, in decimal when ``context`` is given."""
    if context is None:
        classes = decomposition_of(power, rank).classes
    else:
        classes = _radial_row(power, rank, context.create_decimal(1))
    yield from zip(range(power, -1, -2), map(str, reversed(classes)))


def cmd_xdecomp(args: argparse.Namespace) -> int:
    context = _exact_decimal(args.power, args.rank, _ROW_GATE)
    rows = _xdecomp_rows(args.power, args.rank, context)
    _write_output(args, _xdecomp_payload(args, rows), context)
    if args.rank == 2 and args.power == 8:
        print(
            "note: the coefficients at lengths 2 and 0 are 958 and 2092; the values "
            "744 and 1316 seen in some published tables are arithmetic errors (word "
            "expansion confirms 958 and 2092, and tree-walk counting confirms 2092)",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    classes = {0: [1]}  # G^0
    for _, classes in iter_power_classes(args.rank, args.power, args.support_cap):
        pass
    _write_output(args, _terms_json(args.rank, classes))
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
    _write_output(args, ["\n".join(out_lines) + "\n"])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _common(least_rank: int = 1) -> tuple:
    return (
        ("--rank", _at_least(least_rank), 2, False, "number of generators (default 2)"),
        ("--output", str, None, False, "write data to this file instead of stdout"),
    )


_SUPPORT_CAP = ("--support-cap", _at_least(1), None, False,
                f"maximum stored terms for expansions (default {DEFAULT_SUPPORT_CAP})")
_MAX_ORDER = ("--max-order", _at_least(1), None, True, None)

# Each subcommand's help and flags, in help order.  A flag is (flag, kind,
# default, required, help), where kind is an `_at_least` type, a tuple of
# choices, str, or bool for a switch; its dest is the flag's name with
# "-" as "_", as argparse spells it.  Each command runs `cmd_<command>`,
# looked up when the command is read, so a rebound name is the one called.
_COMMANDS = {
    "scalar": (
        "scalar moment series",
        (*_common(), _MAX_ORDER, ("--format", FORMATS, "json", False, None)),
    ),
    # at rank 1 the canonical subgroup generator degenerates to the identity
    "amalg": (
        "moment series over the canonical cyclic subgroup",
        (*_common(least_rank=2), _MAX_ORDER, ("--format", FORMATS, "json", False, None)),
    ),
    "xdecomp": (
        "radial decomposition of one power",
        (
            *_common(),
            ("--power", _at_least(1), None, True, None),
            ("--format", ("csv", "json"), "csv", False, None),
        ),
    ),
    "expand": (
        "brute-force word expansion of one power",
        (*_common(), _SUPPORT_CAP, ("--power", _at_least(0), None, True, None)),
    ),
    "verify": (
        "run the recurrence against the oracles",
        (
            *_common(),
            _SUPPORT_CAP,
            ("--max-order", _at_least(1), 8, False, None),
            ("--oracle", ("tree", "both"), None, False,
             "tree: the tree oracle alone; both (default): the ring oracle too"),
            ("--ring-max-order", _at_least(1), None, False,
             "orders covered by the ring oracle (default: the per-rank budget; "
             "--oracle tree skips it)"),
            ("--self-test", bool, False, False,
             "inject one fault and confirm verification catches it (exits 1); "
             "takes none of --oracle, --ring-max-order and --support-cap"),
        ),
    ),
}


def _command_func(command: str):
    return globals()[f"cmd_{command}"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`, which writes every help, usage
    and error message."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fpmom",
        description="Exact moment series of the generating operator of a free group factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag, kind, default, required, help_text in flags:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, default=default, help=help_text)
            else:
                p.add_argument(flag, type=kind, default=default, required=required, help=help_text)
        p.set_defaults(func=_command_func(command))
    return parser


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give for a canonical argv, or None.

    Canonical is a command of `_COMMANDS`, then each of its flags at most
    once, spelled in full, as two tokens ``--flag value`` with a value
    that does not start with "-" (a switch alone).  Every value goes
    through its flag's type or choices.  Anything else, a refused value
    included, gives None and is left to argparse; nothing is printed.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, flags = argv[0], _COMMANDS[argv[0]][1]
    kinds = {flag: kind for flag, kind, *_ in flags}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in kinds or flag in given:
            return None
        kind = kinds[flag]
        if kind is bool:
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        if isinstance(kind, tuple):
            if text not in kind:
                return None
            given[flag] = text
            continue
        try:
            given[flag] = kind(text)
        except Exception:  # int's ValueError or _at_least's ArgumentTypeError
            return None
    values = {"command": command}
    for flag, _, default, required, _ in flags:
        if required and flag not in given:
            return None
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values, func=_command_func(command))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_canonical(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
