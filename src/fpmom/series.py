"""Moment series containers and their serialized forms (json, csv, tex).

All coefficients are exact; big integers are emitted as decimal strings
so JSON consumers never round.  Output is deterministic byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ._version import TOOL_VERSION
from .laurent import LaurentPolynomial
from .recurrence import amalgamated_projection, iter_decompositions

__all__ = [
    "MomentSeries",
    "scalar_series",
    "amalgamated_series",
    "emit",
    "FORMATS",
]

FORMATS = ("json", "csv", "tex")


@dataclass(frozen=True)
class MomentSeries:
    """Moments of G^n for n = 1..max_order; ``values[n - 1]`` is order n.

    ``kind`` is "scalar" (integer values) or "amalgamated" (Laurent
    polynomial values).  There is at least one value, and odd orders are
    zero.
    """

    rank: int
    kind: str
    values: tuple[int | LaurentPolynomial, ...]

    def __post_init__(self):
        if self.kind not in ("scalar", "amalgamated"):
            raise ValueError(f"kind must be 'scalar' or 'amalgamated', got {self.kind!r}")
        if not self.values:
            raise ValueError("a moment series needs at least order 1")
        for n, value in enumerate(self.values, 1):
            if self.kind == "scalar":
                if not isinstance(value, int):
                    raise TypeError(f"scalar value at order {n} must be an int")
                vanishes = value == 0
            else:
                if not isinstance(value, LaurentPolynomial):
                    raise TypeError(f"amalgamated value at order {n} must be a LaurentPolynomial")
                vanishes = value.is_zero
            if n % 2 and not vanishes:
                raise ValueError(f"odd-order moment at {n} must vanish")

    @property
    def max_order(self) -> int:
        return len(self.values)

    def value(self, order: int) -> int | LaurentPolynomial:
        if not 1 <= order <= self.max_order:
            raise ValueError(f"order {order} outside 1..{self.max_order}")
        return self.values[order - 1]


def scalar_series(rank: int, max_order: int) -> MomentSeries:
    values = tuple(d.coefficient(0) for d in iter_decompositions(rank, max_order))
    return MomentSeries(rank, "scalar", values)


def amalgamated_series(rank: int, max_order: int) -> MomentSeries:
    if rank < 2:
        raise ValueError("amalgamated series need rank >= 2")
    values = tuple(amalgamated_projection(d) for d in iter_decompositions(rank, max_order))
    return MomentSeries(rank, "amalgamated", values)


def _entry_json(kind: str, value: int | LaurentPolynomial):
    if kind == "scalar":
        return str(value)
    return value.to_pairs()


def _render_json(series: MomentSeries) -> str:
    payload = {
        "rank": series.rank,
        "kind": series.kind,
        "max_order": series.max_order,
        "provenance": "recurrence",
        "tool_version": TOOL_VERSION,
        "entries": [
            {"n": n, "value": _entry_json(series.kind, v)}
            for n, v in enumerate(series.values, 1)
        ],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _render_csv(series: MomentSeries) -> str:
    lines = ["n,value"]
    for n, v in enumerate(series.values, 1):
        cell = str(v) if series.kind == "scalar" else v.to_csv_cell()
        lines.append(f"{n},{cell}")
    return "\n".join(lines) + "\n"


def _render_tex(series: MomentSeries) -> str:
    lines = [
        r"\begin{tabular}{rl}",
        r"\hline",
        r"$n$ & moment \\",
        r"\hline",
    ]
    for n, v in enumerate(series.values, 1):
        cell = str(v) if series.kind == "scalar" else v.to_tex()
        lines.append(f"${n}$ & ${cell}$ \\\\")
    lines.append(r"\hline")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def emit(series: MomentSeries, fmt: str) -> bytes:
    """Serialize a series to UTF-8 bytes in one of FORMATS."""
    if fmt == "json":
        text = _render_json(series)
    elif fmt == "csv":
        text = _render_csv(series)
    elif fmt == "tex":
        text = _render_tex(series)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return text.encode("utf-8")
