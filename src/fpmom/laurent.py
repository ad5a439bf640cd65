"""Integer Laurent polynomials in a single symbol.

Values of the conditional expectation onto a cyclic subgroup live here:
exponent k carries the coefficient of the k-th power of the subgroup
generator, and exponent 0 is the scalar part.  Zero coefficients are
never stored.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Mapping, Sequence

__all__ = ["LaurentPolynomial"]


class LaurentPolynomial:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for k, c in coeffs.items():
                if type(k) is not int or type(c) is not int:
                    raise TypeError("exponents and coefficients must be ints")
                if c:
                    data[k] = c
        self._coeffs = data

    def coefficient(self, exponent: int) -> int:
        if type(exponent) is not int:
            raise TypeError(f"exponent must be an int, got {type(exponent).__name__}")
        return self._coeffs.get(exponent, 0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def items(self) -> list[tuple[int, int]]:
        """Pairs (exponent, coefficient) sorted by exponent."""
        return sorted(self._coeffs.items())

    def shifted(self, delta: int) -> "LaurentPolynomial":
        """Multiply by the delta-th power of the symbol."""
        if type(delta) is not int:
            raise TypeError(f"delta must be an int, got {type(delta).__name__}")
        return LaurentPolynomial({k + delta: c for k, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def _spelled(self) -> tuple[list[int], list[str]]:
        """Exponents ascending, and their coefficients spelled as decimals."""
        items = self.items()
        return [k for k, _ in items], [str(c) for _, c in items]

    def __str__(self) -> str:
        return _signed_sum(*self._spelled(), _text_power)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(self.items())!r})"

    def to_tex(self) -> str:
        return _signed_sum(*self._spelled(), _tex_power)

    def to_pairs(self) -> list[dict[str, object]]:
        """JSON-ready pairs, exponents ascending, coefficients as decimal strings."""
        return [{"exp": k, "coeff": str(c)} for k, c in self.items()]

    def to_csv_cell(self) -> str:
        """Semicolon-joined ``exponent:coefficient`` pairs, exponents ascending."""
        return _csv_terms(*self._spelled(), _CSV_PREFIX)


# The one spelling of a polynomial as text, as TeX and as a CSV cell,
# shared by the methods above and the writers of ``fpmom.series``.  A
# polynomial comes as its exponents, ascending, and its nonzero
# coefficients spelled as decimals.  Each exponent's text comes from a
# function of it, which a writer wraps in ``functools.cache`` for one run
# so that it spells each exponent once.


def _text_power(k: int) -> str:
    return "" if k == 0 else ("h" if k == 1 else f"h^{k}")


def _tex_power(k: int) -> str:
    return "" if k == 0 else ("h" if k == 1 else f"h^{{{k}}}")


_CSV_PREFIX = "{}:".format


def _csv_terms(exps: Sequence[int], coeffs: Sequence[str], prefix: Callable[[int], str]) -> str:
    """``k:c;k:c;...``, empty for zero; prefix spells ``k:``."""
    return ";".join(map(add, map(prefix, exps), coeffs))


def _signed_sum(exps: Sequence[int], coeffs: Sequence[str], power: Callable[[int], str]) -> str:
    """Terms highest exponent first, joined by " + " and " - ", "0" for zero.

    power spells h^k, and "" for k = 0; a coefficient of absolute value 1
    is left out unless k = 0.  The terms are one join by " + ", on a copy
    of the coefficients with those units fixed.  No term holds a space,
    so " + -" marks exactly a negative term; "-" sorts before every digit,
    so min(coeffs) tells whether there is one.
    """
    if not coeffs:
        return "0"
    negative = min(coeffs)[0] == "-"
    coeffs = list(coeffs)
    for unit in ("1", "-1") if negative else ("1",):
        i = -1
        for _ in range(coeffs.count(unit)):
            i = coeffs.index(unit, i + 1)
            if power(exps[i]):
                coeffs[i] = unit[:-1]
    text = " + ".join(map(add, reversed(coeffs), map(power, reversed(exps))))
    return text.replace(" + -", " - ") if negative else text
