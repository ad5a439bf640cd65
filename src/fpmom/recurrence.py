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

``step`` is that pass; no command walks it, and it stays as the
one-power reference for the even walk below.  The moment over the
cyclic subgroup generated by the length-2N product of all generators
and their inverses reads off the classes whose length is a multiple of
2N (``amalgamated_projection``).  A multiple of 2N is even, and an odd
power has no even class, so E(G^n) vanishes for odd n and the
amalgamated series needs only the even powers.
``iter_even_decompositions`` walks G^2, G^4, ... directly, one
multiplication by X_1^2 per power, from the rule

    X_1^2 X_0 = X_2 + 2N X_0
    X_1^2 X_2 = X_4 + 2q X_2 + 2Nq X_0
    X_1^2 X_m = X_(m+2) + 2q X_m + q^2 X_(m-2)   for m >= 3,

with q = 2N - 1.  On the dense list of an even power that is one pass,

    c''_0 = 2N c_0 + 2Nq c_2,
    c''_m = c_(m-2) + 2q c_m + q^2 c_(m+2)   for m >= 2,

where a class past the top counts as 0, so the new top class is the old
top carried over.  Each pass checks the invariants ``step`` checks.
No word expansion is ever needed.

A path that needs one power or only the constant classes walks no
chain.  Write c_m(n) for the coefficient of X_m in G^n.
``decomposition_of`` builds G^n in O(n) operations by the row
recurrence, for m = n - 4, n - 6, ... down to n mod 2,

    (m+3)(n-m) c_m = 2[(N-1)m^2 + N mn + (5N-4)m + (N+1)n + 2q] c_(m+2)
                     - q(m+1)(m+n+4) c_(m+4),

from c_n = 1 and c_(n-2) = 2N + (n-2)q.  The scalar moments
a_k = tr(G^2k) come from the P-recurrence, for k >= 2,

    k a_k = (((2N)^2 + 4q)k - 6q) a_(k-1) - (2N)^2 q (4k-6) a_(k-2),

from a_0 = 1 and a_1 = 2N: O(1) big-int operations per order.  Both
check that every division is exact and every value positive, as
``step`` checks its own invariants.

Number type.  The row recurrence and the P-recurrence build their seeds
from a unit ``one``, so the same code runs on int and on
``decimal.Decimal``.  CPython spells an int in decimal in time quadratic
in its digit count; a Decimal is spelled in linear time, and multiplying
it by a small int or dividing it exactly by one is linear too.  So
``fpmom.series`` runs them on Decimal for ``scalar`` and ``xdecomp`` above
a gate, chunk by chunk, in the context ``_exact_decimal`` returns: precision
``MAX_PREC``, exponents up to ``MAX_EMAX`` and down to ``MIN_EMIN``, with
``Inexact`` and ``Rounded`` trapped, so a value that would lose a digit
raises instead of being written.  The gate reads the largest value,
tr(G^n) ~ (4q)^(n/2), whose bit length is about b = (n/2) log2(4q):
spelling the n/2 values as ints costs about (n/2) b^2, and above a
constant that outweighs importing ``decimal`` (about 1.4 ms in a fresh
process) and the Decimal engine's overhead.  Timed in fresh processes,
the two paths break even near 5.5 * 10^9 bit^2 for the moments
(``_SCALAR_GATE``; order 1498 at rank 2, 1078 at rank 8) and near
4 * 10^9 for a row (``_ROW_GATE``; power 1346 at rank 2, 970 at rank 8)
at every rank from 2 to 8.  The gate is computed in ints, and
``decimal`` is imported above it only.  Every public function here, and
``verify``, computes in int.

Why both hold.  c_m(n) counts the walks of length n on the 2N-regular
tree from the root to one fixed vertex at distance m.  Let C be the
Catalan series and F(z) = z C(qz^2), so F = z + qzF^2: one step away
from the root followed by a walk that never steps back.  First returns
give W_0 = 1/(1 - 2NzF) for the walks back to the root, and cutting a
walk at its last visit to each vertex of the geodesic gives
sum_n c_m(n) z^n = W_0 F^m.  So sum_(n,m) c_m(n) z^n u^m = W_0/(1 - uF)
is algebraic, hence D-finite in z and u (Lipshitz, "D-finite
power series", J. Algebra 1989), and W_0 alone is D-finite in z
(Stanley, "Differentiably finite power series", 1980): recurrences with
polynomial coefficients exist in each index.  Here they are explicit.

* Row recurrence.  Put t = F, so z = t/(1 + qt^2) and, since
  q - 2N = -1, W_0 = (1 + qt^2)/(1 - t^2).  Lagrange inversion,
  [z^n] H(F) = [t^n] H(t) phi^(n-1) (phi - t phi') with phi = 1 + qt^2,
  gives c_m(n) = [t^(n-m)] (1 + qt^2)^n (1 - qt^2)/(1 - t^2), that is,
  with j = (n - m)/2, the ballot sum
  c_m(n) = sum_(i<=j) d_i,  d_i = q^i (binom(n, i) - binom(n, i-1)).
  The summand is hypergeometric in i: d_j/d_(j-1) =
  q(m+1)(m+n+4)/((m+3)(n-m)).  So consecutive differences of the row obey
  (m+3)(n-m)(c_m - c_(m+2)) = q(m+1)(m+n+4)(c_(m+2) - c_(m+4)), the
  first-order case of creative telescoping (Petkovsek, Wilf and
  Zeilberger, "A = B", 1996); expanding it gives the three-term form
  above, and m = n - 2 with c_(n+2) = 0 gives the start value.  The
  pass runs in the difference form: one small multiplier and one exact
  division per class.
* P-recurrence.  With s = sqrt(1 - 4qx), x = z^2, zF = (1 - s)/(2q) and
  W_0 = 2q/(q - 1 + (q+1)s), which is Kesten's return generating function
  (Kesten, "Symmetric random walks on groups", Trans. AMS 1959).
  Rationalising, V = 2(1 - (2N)^2 x) W_0 + q - 1 = (q+1)s, and
  (1 - 4qx) s' = -2qs gives the first-order equation
  (1 - 4qx)V' + 2qV = 0.  Substituting V and reading off the coefficient
  of x^(k-1) for k >= 2 gives the P-recurrence.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Iterator, Mapping

from .laurent import LaurentPolynomial
from .words import _require_int, reduced_word_count

__all__ = [
    "RadialDecomposition",
    "iter_even_decompositions",
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
    carries coefficient 1.  ``coeffs`` is a read-only class -> coefficient
    view of ``classes``; ``coeffs.get(m, 0)`` reads any class m.

    Decompositions come only from the engines: ``iter_even_decompositions``
    walks the even powers by X_1^2, ``decomposition_of`` runs the row
    recurrence, and ``step`` multiplies one by X_1, so the class has no
    public constructor.  It is not frozen; like ``Word``'s int,
    ``classes`` is the decomposition's own storage and must not be
    mutated.  Two decompositions are equal when their rank, power and
    classes are.
    """

    __slots__ = ("rank", "power", "classes")

    @classmethod
    def _of(cls, rank: int, power: int, classes: list[int]):
        # The one constructor: step, iter_even_decompositions and
        # decomposition_of go through it.
        d = object.__new__(cls)
        d.rank, d.power, d.classes = rank, power, classes
        return d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadialDecomposition):
            return NotImplemented
        return (self.rank, self.power, self.classes) == (other.rank, other.power, other.classes)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RadialDecomposition(rank={self.rank}, power={self.power}, classes={self.classes})"

    @property
    def coeffs(self) -> Mapping[int, int]:
        """Class length -> coefficient, built from ``classes`` on request."""
        parity = self.power % 2
        return MappingProxyType({2 * i + parity: c for i, c in enumerate(self.classes)})

    def mass(self) -> int:
        """Total word count with multiplicity; equals (2N)^power."""
        return sum(c * reduced_word_count(m, self.rank) for m, c in self.coeffs.items())

    def step(self) -> "RadialDecomposition":
        """Decomposition of the next power (one more multiplication by X_1)."""
        c = self.classes
        n = self.power + 1
        down = 2 * self.rank - 1
        # An odd power has classes 1, 3, ..., n; the next one gains the constant class.
        nxt = [(down + 1) * c[0]] if self.power % 2 else []
        nxt += [lo + down * hi for lo, hi in zip(c, c[1:])]
        nxt.append(c[-1])
        if nxt[-1] != 1 or min(nxt) <= 0:
            raise ValueError(f"radial step to power {n} broke the invariants")
        return RadialDecomposition._of(self.rank, n, nxt)


def iter_even_decompositions(rank: int, max_power: int) -> Iterator[RadialDecomposition]:
    """Yield the decompositions of G^2, G^4, ..., G^(2 floor(max_power/2)),
    each from the one before by one multiplication by X_1^2 (module
    docstring); none for max_power 1."""
    _require_int("rank", rank, 1)
    _require_int("max_power", max_power, 1)
    two_n, q = 2 * rank, 2 * rank - 1
    two_q, qq, lead = 2 * q, q * q, two_n * q
    c = [two_n, 1]  # G^2 = X_2 + 2N X_0
    for n in range(2, max_power + 1, 2):
        if n > 2:
            nxt = [two_n * c[0] + lead * c[1]]
            nxt += [lo + two_q * mid + qq * hi for lo, mid, hi in zip(c, c[1:], c[2:])]
            nxt.append(c[-2] + two_q * c[-1])
            nxt.append(c[-1])
            if nxt[-1] != 1 or min(nxt) <= 0:
                raise ValueError(f"X_1^2 step to power {n} broke the invariants")
            c = nxt
        yield RadialDecomposition._of(rank, n, c)


def _radial_row(n: int, rank: int, one=1) -> list:
    """``classes`` of G^n by one downward pass of the row recurrence
    (module docstring), in its difference form, in the number type of
    ``one``."""
    if n == 1:
        return [one]
    q = 2 * rank - 1
    row = [one, (2 * rank + (n - 2) * q) * one]  # c_n, c_(n-2), c_(n-4), ...
    diff = row[1] - one  # c_(m+2) - c_(m+4)
    for m in range(n - 4, -1, -2):
        diff, rest = divmod(q * (m + 1) * (m + n + 4) * diff, (m + 3) * (n - m))
        c = row[-1] + diff
        if rest or c <= 0:
            raise ValueError(f"row recurrence for G^{n} broke at class {m}")
        row.append(c)
    row.reverse()
    return row


def decomposition_of(n: int, rank: int) -> RadialDecomposition:
    """Radial decomposition of G^n, from the row recurrence; no chain is walked."""
    _require_int("power", n, 1)
    _require_int("rank", rank, 1)
    return RadialDecomposition._of(rank, n, _radial_row(n, rank))


def _scalar_moments(rank: int, max_order: int, one=1) -> Iterator:
    """Yield tr(G^1), ..., tr(G^max_order) by the P-recurrence (module
    docstring), holding two moments at a time; the even orders come in
    the number type of ``one``, the odd ones as the int 0."""
    two_n, q = 2 * rank, 2 * rank - 1
    k2 = two_n * two_n
    before, last = one, two_n * one  # a_(k-2), a_(k-1)
    for n in range(1, max_order + 1):
        k = n // 2
        if n % 2:
            yield 0
        elif k == 1:
            yield last
        else:
            a, rest = divmod(((k2 + 4 * q) * k - 6 * q) * last - k2 * q * (4 * k - 6) * before, k)
            if rest or a <= 0:
                raise ValueError(f"P-recurrence broke at order {n}")
            before, last = last, a
            yield a


# The decimal gates (module docstring), in bit^2: a row's classes are
# longer on average than the moments up to the same order, and cost one
# Decimal operation fewer each, so the row recurrence switches sooner.
_SCALAR_GATE = 5_500_000_000
_ROW_GATE = 4_000_000_000


def _exact_decimal(n: int, rank: int, gate: int):
    """None when the values up to G^n are short enough to spell as int,
    else an exact ``decimal.Context`` to run an engine in (module
    docstring); ``gate`` is the engine's, ``_SCALAR_GATE`` or ``_ROW_GATE``.

    The gate is computed in ints, and ``decimal`` is imported above it only.
    """
    k, q = n // 2, 2 * rank - 1
    bits = k * ((4 * q) ** 16).bit_length() // 16  # about k log2(4q)
    if k * bits * bits <= gate:
        return None
    import decimal

    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
    return context


def scalar_moment(n: int, rank: int) -> int:
    """Trace of G^n: zero for odd n, else a_(n/2) of the P-recurrence."""
    _require_int("order", n, 1)
    _require_int("rank", rank, 1)
    if n % 2:
        return 0
    return deque(_scalar_moments(rank, n), maxlen=1).pop()


def amalgamated_projection(dec: RadialDecomposition) -> LaurentPolynomial:
    """Moment of G^n over the cyclic subgroup of the canonical length-2N word.

    A power with exponent k of the subgroup generator is a single word of
    length 2N|k|, and within a radial class every word shares one
    coefficient, so exponents k and -k both take the coefficient of class
    2N k, which sits at index N k of ``dec.classes``; exponent 0 takes the
    constant class.  Odd powers have no even classes and project to zero.
    """
    _require_int("rank", dec.rank, 2)
    coeffs: dict[int, int] = {}
    if dec.power % 2 == 0:
        for k, c in enumerate(dec.classes[:: dec.rank]):
            coeffs[k] = c
            coeffs[-k] = c
    return LaurentPolynomial(coeffs)


def amalgamated_moment(n: int, rank: int) -> LaurentPolynomial:
    """Moment of G^n over the cyclic subgroup; see ``amalgamated_projection``."""
    _require_int("rank", rank, 2)
    _require_int("order", n, 1)
    return amalgamated_projection(decomposition_of(n, rank))
