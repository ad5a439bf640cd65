"""Radial-coefficient engine for powers of the generating operator.

Write X_m for the sum of all reduced words of length m in the free group
on N generators, and G = X_1 for the generating operator.  Multiplying by
X_1 moves each radial class to its neighbours:

    X_1 X_1 = X_2 + 2N e
    X_1 X_m = X_(m+1) + (2N-1) X_(m-1)   for m >= 2

If G^n = sum_m c_m X_m, exactly the classes 0 <= m <= n with m = n
(mod 2) carry a coefficient, and every one of them is positive, so G^n
is stored as the dense list [c_p, c_(p+2), ..., c_n] with p = n mod 2,
indexed by m // 2.  One multiplication by X_1 is one pass over that list:

    c'_m = c_(m-1) + (2N-1) c_(m+1)   for m >= 1,     c'_0 = 2N c_1.

Everything else is a projection of the one chain G^1, G^2, ... that
``iter_decompositions`` walks.  The scalar moment tr(G^n) is the
constant class.  The moment over the cyclic subgroup generated by the
length-2N product of all generators and their inverses reads off the
classes whose length is a multiple of 2N (``amalgamated_projection``).
No word expansion is ever needed.

A step moves each class by one, so class m of G^n can reach the
constant class of G^M only when m <= M - n.  A chain that only needs
constant classes up to order M is therefore walked under a private
horizon H >= M: at power n it keeps just the classes m <= H - n.  Every
kept coefficient is still exact, since class m of the next power reads
only classes m - 1 and m + 1 <= H - n.  H is even, so the top kept class
is exactly H - n (which has the parity of n) and no list is ever empty
up to power H; a power n with 2n <= H is kept whole.  The scalar series
and ``verify`` use H = max(M rounded up to even, 2 * ring limit), so the
powers the ring oracle expands stay whole.  The amalgamated series and
``xdecomp`` cannot use a horizon: at power n they read every class up to
n, and keeping class n at every power n <= M takes H = 2M, whose bound
2M - n >= n keeps every list whole.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

from .laurent import LaurentPolynomial
from .words import _require_int, reduced_word_count

__all__ = [
    "RadialDecomposition",
    "iter_decompositions",
    "decomposition_of",
    "scalar_moment",
    "amalgamated_projection",
    "amalgamated_moment",
]


class RadialDecomposition:
    """Coefficients of G^power over the radial classes X_m.

    ``classes[i]`` is the coefficient of X_m for m = 2i + (power mod 2),
    so the classes present are exactly 0 <= m <= power with
    m = power (mod 2).  Every coefficient is positive and the top class
    carries coefficient 1.  ``coeffs`` is a read-only class ->
    coefficient view of ``classes``.

    Decompositions come only from the chain: ``initial`` gives G^1,
    ``step`` the next power, and ``iter_decompositions`` walks both, so
    the class has no public constructor.  It is not frozen; like
    ``Word``'s int, ``classes`` is the decomposition's own storage and
    must not be mutated.  Two decompositions are equal when their rank,
    power and classes are.

    A decomposition from a chain with a horizon (see the module
    docstring) may be truncated: ``classes`` then stops at its highest
    kept class, ``coeffs`` and ``rows`` cover only the kept classes, and
    ``coefficient`` and ``mass`` raise ``ValueError`` rather than answer
    for a dropped class.
    """

    __slots__ = ("rank", "power", "classes", "_horizon")

    @classmethod
    def _of(cls, rank: int, power: int, classes: list[int], horizon: int | None):
        # The one constructor: initial, step and iter_decompositions go through it.
        d = object.__new__(cls)
        d.rank, d.power, d.classes, d._horizon = rank, power, classes, horizon
        return d

    @classmethod
    def initial(cls, rank: int) -> "RadialDecomposition":
        """G^1 = X_1."""
        _require_int("rank", rank, 1)
        return cls._of(rank, 1, [1], None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadialDecomposition):
            return NotImplemented
        return (self.rank, self.power, self.classes) == (other.rank, other.power, other.classes)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RadialDecomposition(rank={self.rank}, power={self.power}, classes={self.classes})"

    @property
    def _top(self) -> int:
        """Highest kept class: the power itself unless the list is truncated."""
        return self.power % 2 + 2 * len(self.classes) - 2

    def _require_whole(self, what: str) -> None:
        if self._top < self.power:
            raise ValueError(
                f"{what} needs every class of G^{self.power}, but classes above "
                f"{self._top} were dropped past the horizon {self._horizon}"
            )

    @property
    def coeffs(self) -> Mapping[int, int]:
        """Class length -> coefficient, built from ``classes`` on request."""
        parity = self.power % 2
        return MappingProxyType({2 * i + parity: c for i, c in enumerate(self.classes)})

    def coefficient(self, length: int) -> int:
        if 0 <= length <= self.power and (self.power - length) % 2 == 0:
            if length > self._top:
                raise ValueError(
                    f"class {length} of G^{self.power} was dropped past the horizon "
                    f"{self._horizon}"
                )
            return self.classes[length // 2]
        return 0

    def rows(self) -> Iterator[tuple[int, int]]:
        """(class length, coefficient) pairs, longest kept class first."""
        return zip(range(self._top, -1, -2), reversed(self.classes))

    def mass(self) -> int:
        """Total word count with multiplicity; equals (2N)^power."""
        self._require_whole("the mass")
        return sum(c * reduced_word_count(m, self.rank) for m, c in self.coeffs.items())

    def step(self) -> "RadialDecomposition":
        """Decomposition of the next power (one more multiplication by X_1).

        Under a horizon H the next power n keeps only the classes
        m <= H - n; once 2n > H that drops the top class, and with it the
        top-class-1 check.
        """
        c = self.classes
        n = self.power + 1
        horizon = self._horizon
        down = 2 * self.rank - 1
        # An odd power has classes 1, 3, ..., n; the next one gains the constant class.
        nxt = [(down + 1) * c[0]] if self.power % 2 else []
        nxt += [lo + down * hi for lo, hi in zip(c, c[1:])]
        if horizon is None or 2 * n <= horizon:
            nxt.append(c[-1])
            broken = nxt[-1] != 1 or min(nxt) <= 0
        elif not nxt:
            raise ValueError(f"power {n} is past the horizon {horizon}")
        else:
            broken = min(nxt) <= 0
        if broken:
            raise ValueError(f"radial step to power {n} broke the invariants")
        return RadialDecomposition._of(self.rank, n, nxt, horizon)


def _horizon_for(max_order: int, ring_limit: int = 0) -> int:
    """The horizon of a constant-only chain to max_order whose powers up
    to ring_limit are paired with ring expansions; see the module docstring."""
    return max(max_order + max_order % 2, 2 * ring_limit)


def iter_decompositions(
    rank: int, max_power: int, *, _horizon: int | None = None
) -> Iterator[RadialDecomposition]:
    """Yield the decompositions of G^1 .. G^max_power in order.

    ``_horizon`` is private to fpmom: an even H >= max_power truncates
    each power as the module docstring describes.
    """
    _require_int("rank", rank, 1)
    _require_int("max_power", max_power, 1)
    d = RadialDecomposition._of(rank, 1, [1], _horizon)
    yield d
    for _ in range(max_power - 1):
        d = d.step()
        yield d


def decomposition_of(n: int, rank: int) -> RadialDecomposition:
    """Radial decomposition of G^n."""
    _require_int("power", n, 1)
    for d in iter_decompositions(rank, n):
        pass
    return d


def scalar_moment(n: int, rank: int) -> int:
    """Trace of G^n: zero for odd n, else the constant radial coefficient."""
    _require_int("order", n, 1)
    _require_int("rank", rank, 1)
    if n % 2:
        return 0
    for d in iter_decompositions(rank, n, _horizon=n):
        pass
    return d.coefficient(0)


def _require_subgroup(rank: int) -> None:
    if rank < 2:
        raise ValueError("amalgamated moments need rank >= 2; the subgroup generator "
                         "degenerates at rank 1")


def amalgamated_projection(dec: RadialDecomposition) -> LaurentPolynomial:
    """Moment of G^n over the cyclic subgroup of the canonical length-2N word.

    A power with exponent k of the subgroup generator is a single word of
    length 2N|k|, and within a radial class every word shares one
    coefficient, so exponents k and -k both take the coefficient of class
    2N k, which sits at index N k of ``dec.classes``; exponent 0 takes the
    constant class.  Odd powers have no even classes and project to zero.
    """
    _require_subgroup(dec.rank)
    dec._require_whole("the amalgamated projection")
    coeffs: dict[int, int] = {}
    if dec.power % 2 == 0:
        for k, c in enumerate(dec.classes[:: dec.rank]):
            coeffs[k] = c
            coeffs[-k] = c
    return LaurentPolynomial(coeffs)


def amalgamated_moment(n: int, rank: int) -> LaurentPolynomial:
    """Moment of G^n over the cyclic subgroup; see ``amalgamated_projection``."""
    _require_subgroup(rank)
    _require_int("order", n, 1)
    return amalgamated_projection(decomposition_of(n, rank))
