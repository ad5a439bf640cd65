"""Moment rows, and one writer per output format (json, csv, tex).

All coefficients are exact; big integers are written as decimal strings
so JSON consumers never round.  Output is deterministic byte for byte.

A writer takes rows (label, cell).  A cell is either one value spelled
as a decimal string, or a Laurent polynomial as (exps, coeffs): its
exponents, ascending, and its nonzero coefficients spelled as decimals.
Writers spell only labels and exponents, each exponent's text once per
run (through ``functools.cache``).  A writer streams: it checks its
arguments at the call and returns a generator of text chunks, each at
most ``fpmom.words._CHUNK`` characters, which reads and spells the rows
only as the chunks are asked for.  A decimal cell is copied into its
row's piece; a polynomial's text, which can be long, is a piece of its
own, so it is never copied before its chunk is joined.
``scalar_series`` gives the values ``fpmom scalar`` writes below the
decimal gate of ``fpmom.recurrence``; above it the command runs the same
P-recurrence in exact decimal.
``amalgamated_rows`` feeds the writers E(G^n) straight from the classes
of the even powers, which ``iter_even_decompositions`` walks by X_1^2
(an odd row is the zero cell), spelling each coefficient once for both
h^k and h^-k, with no ``LaurentPolynomial`` on the way; ``fpmom amalg``
writes through it, and ``fpmom xdecomp`` feeds its rows to
``write_json`` and ``write_csv``.
"""

from __future__ import annotations

import json
from functools import cache
from operator import add
from typing import Iterable, Iterator, Sequence, Union

from ._version import TOOL_VERSION
from .laurent import _CSV_PREFIX, _csv_terms, _signed_sum, _tex_power
from .recurrence import _scalar_moments, iter_even_decompositions
from .words import _chunks, _require_int

__all__ = [
    "scalar_series",
    "amalgamated_rows",
    "write_json",
    "write_csv",
    "write_tex",
    "write_series",
    "FORMATS",
]

FORMATS = ("json", "csv", "tex")

_JSON_PREFIX = '{{"exp":{},"coeff":"'.format

Row = tuple[int, Union[str, tuple[Sequence[int], Sequence[str]]]]


def scalar_series(rank: int, max_order: int) -> tuple[int, ...]:
    """tr(G^n) for n = 1..max_order, from the P-recurrence of
    ``fpmom.recurrence``; entry n - 1 is order n."""
    _require_int("rank", rank, 1)
    _require_int("max_order", max_order, 1)
    return tuple(_scalar_moments(rank, max_order))


def amalgamated_rows(rank: int, max_order: int) -> Iterator[Row]:
    """The rows of E(G^n) for n = 1..max_order, straight from the even
    powers' classes.

    Row n carries E(G^n) = sum over k of c_(2N|k|) h^k, the classes of
    G^n whose length is a multiple of 2N (``amalgamated_projection``).
    An odd power has no even class, so an odd row is the zero cell and
    only G^2, G^4, ... are computed (``iter_even_decompositions``).  Each
    |k| is spelled once and serves h^k and h^-k.  The arguments are
    checked at the call; the rows come as they are read.
    """
    _require_int("rank", rank, 2)
    _require_int("max_order", max_order, 1)
    return _amalgamated_rows(rank, max_order)


def _amalgamated_rows(rank: int, max_order: int) -> Iterator[Row]:
    zero = ((), ())
    for d in iter_even_decompositions(rank, max_order):
        spelled = list(map(str, d.classes[::rank]))
        top = len(spelled) - 1
        yield d.power - 1, zero
        yield d.power, (range(-top, top + 1), spelled[:0:-1] + spelled)
    if max_order % 2:
        yield max_order, zero


def write_json(
    fields: dict[str, int | str],
    rows: Iterable[Row],
    names: tuple[str, str] = ("n", "value"),
    entries: str = "entries",
) -> Iterator[str]:
    """One line of JSON: the object ``fields``, then the list ``entries``
    holding ``{names[0]: label, names[1]: cell}`` per row.  A decimal cell
    is a JSON string, a polynomial a list of ``{"exp":k,"coeff":"c"}``.
    ``fields`` is spelled at the call, so a field JSON cannot hold raises
    there."""
    head = json.dumps(fields, separators=(",", ":"))[:-1] + ("," if fields else "")
    return _chunks(_json_pieces(f'{head}"{entries}":[', rows, *names))


def _json_pieces(opening: str, rows: Iterable[Row], label: str, value: str) -> Iterator[str]:
    prefix = cache(_JSON_PREFIX)
    yield opening
    sep = ""
    for n, cell in rows:
        head = f'{sep}{{"{label}":{n},"{value}":'
        sep = ","
        if type(cell) is str:
            yield f'{head}"{cell}"}}'
        elif cell[1]:
            exps, coeffs = cell
            yield head + "["
            yield '"},'.join(map(add, map(prefix, exps), coeffs))
            yield '"}]}'
        else:
            yield head + "[]}"
    yield "]}\n"


def write_csv(rows: Iterable[Row], header: str = "n,value") -> Iterator[str]:
    """``header``, then ``label,cell`` per row; a polynomial cell is
    ``k:c;k:c;...``, empty for zero."""
    return _chunks(_csv_pieces(rows, header))


def _csv_pieces(rows: Iterable[Row], header: str) -> Iterator[str]:
    prefix = cache(_CSV_PREFIX)
    yield header
    for n, cell in rows:
        if type(cell) is str:
            yield f"\n{n},{cell}"
        else:
            yield f"\n{n},"
            yield _csv_terms(*cell, prefix)
    yield "\n"


def write_tex(rows: Iterable[Row]) -> Iterator[str]:
    """A two-column tabular, ``$label$ & $cell$`` per row; a polynomial
    cell is its terms in h, highest power first."""
    return _chunks(_tex_pieces(rows))


def _tex_pieces(rows: Iterable[Row]) -> Iterator[str]:
    power = cache(_tex_power)
    yield "\\begin{tabular}{rl}\n\\hline\n$n$ & moment \\\\\n\\hline\n"
    for n, cell in rows:
        if type(cell) is str:
            yield f"${n}$ & ${cell}$ \\\\\n"
        else:
            yield f"${n}$ & $"
            yield _signed_sum(*cell, power)
            yield "$ \\\\\n"
    yield "\\hline\n\\end{tabular}\n"


def write_series(
    fmt: str, rank: int, kind: str, max_order: int, rows: Iterable[Row]
) -> Iterator[str]:
    """The chunks of text of a moment series' rows (orders 1..max_order)
    in one of FORMATS.  An unknown format raises at the call."""
    if fmt == "json":
        fields = {
            "rank": rank,
            "kind": kind,
            "max_order": max_order,
            "provenance": "recurrence",
            "tool_version": TOOL_VERSION,
        }
        return write_json(fields, rows)
    if fmt == "csv":
        return write_csv(rows)
    if fmt == "tex":
        return write_tex(rows)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
