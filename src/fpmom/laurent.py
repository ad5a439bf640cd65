"""Integer Laurent polynomials in a single symbol.

Values of the conditional expectation onto a cyclic subgroup live here:
exponent k carries the coefficient of the k-th power of the subgroup
generator, and exponent 0 is the scalar part.  Zero coefficients are
never stored.
"""

from __future__ import annotations

from typing import Callable, Mapping

__all__ = ["LaurentPolynomial"]


class LaurentPolynomial:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(k, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be integers")
                if c:
                    data[k] = c
        self._coeffs = data

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    @property
    def constant_term(self) -> int:
        return self._coeffs.get(0, 0)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def items(self) -> list[tuple[int, int]]:
        """Pairs (exponent, coefficient) sorted by exponent."""
        return sorted(self._coeffs.items())

    def shifted(self, delta: int) -> "LaurentPolynomial":
        """Multiply by the delta-th power of the symbol."""
        return LaurentPolynomial({k + delta: c for k, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def _render(self, power: Callable[[int], str]) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k in sorted(self._coeffs, reverse=True):
            c = self._coeffs[k]
            base = power(k)
            if not base:
                term = str(abs(c))
            elif abs(c) == 1:
                term = base
            else:
                term = f"{abs(c)}{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self._render(lambda k: "" if k == 0 else ("h" if k == 1 else f"h^{k}"))

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(self.items())!r})"

    def to_tex(self) -> str:
        return self._render(lambda k: "" if k == 0 else ("h" if k == 1 else f"h^{{{k}}}"))

    def to_pairs(self) -> list[dict[str, object]]:
        """JSON-ready pairs, exponents ascending, coefficients as decimal strings."""
        return [{"exp": k, "coeff": str(c)} for k, c in self.items()]

    def to_csv_cell(self) -> str:
        """Semicolon-joined ``exponent:coefficient`` pairs, exponents ascending."""
        return ";".join(f"{k}:{c}" for k, c in self.items())
