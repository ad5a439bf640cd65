"""Exact sparse products in the integer group ring Z[F_N].

Elements are finite Z-linear combinations of reduced words with Python
int coefficients, stored as a word -> coefficient map with no zero
entries.  The module is deliberately brute force: it expands products
word by word and serves as the ground truth that the fast radial
recurrence is verified against.  Besides the constructor and
``radial_sum``, elements arise only as products (``multiply``,
``power``, ``iter_powers``); there is no additive or scalar API.

Terms are keyed by packed words, the ints that ``Word`` itself stores
(see the ``fpmom.words`` module docstring for the format), so the
product kernel appends letters by shifting ints, and sorting the keys
sorts the words.  ``Word`` stays the type of the public API: the
constructor and ``coefficient`` read a word's int, ``terms`` wraps each
int in a ``Word``, and ``to_json_dict`` spells the ints directly.

Supports of powers of the generating operator grow like (2N-1)^n, so
every expanding operation takes a term cap (default ``10**8``) and
refuses with :class:`SupportCapError` rather than exhausting memory.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

from .laurent import LaurentPolynomial
from .words import (
    Word,
    _inverse_digit,
    _letter_bits,
    _level,
    _packed_length,
    _require_int,
    _text_reader,
    format_word,
    reduced_word_count,
)

__all__ = [
    "DEFAULT_SUPPORT_CAP",
    "SupportCapError",
    "RingElement",
    "Hyperword",
    "multiply",
    "power",
    "iter_powers",
    "radial_sum",
    "generating_operator",
    "conditional_expectation",
]

DEFAULT_SUPPORT_CAP = 10**8


class SupportCapError(RuntimeError):
    """An expansion would exceed the configured number of stored terms."""

    def __init__(self, needed: int, cap: int, what: str = "expansion"):
        super().__init__(
            f"{what} needs at least {needed} terms but the support cap is {cap}; "
            "raise the cap to proceed"
        )
        self.needed = needed
        self.cap = cap


def _effective_cap(support_cap: int | None) -> int:
    if support_cap is None:
        return DEFAULT_SUPPORT_CAP
    _require_int("support_cap", support_cap, 1)
    return support_cap


def _raw(rank: int, terms: dict[int, int]) -> "RingElement":
    # Internal constructor for packed term maps already known to be valid and pruned.
    el = object.__new__(RingElement)
    el._rank = rank
    el._terms = terms
    return el


class RingElement:
    """A finitely supported integer combination of reduced words.

    Terms are keyed by packed words (see the module docstring); the
    constructor, ``coefficient`` and ``terms`` speak ``Word``.
    """

    __slots__ = ("_rank", "_terms")

    def __init__(self, rank: int, terms: Mapping[Word, int] | None = None):
        _require_int("rank", rank, 1)
        data: dict[int, int] = {}
        if terms:
            for w, c in terms.items():
                if not isinstance(w, Word):
                    raise TypeError("terms must be keyed by Word")
                if w.rank != rank:
                    raise ValueError(
                        f"word {format_word(w)!r} has rank {w.rank}, element has rank {rank}"
                    )
                if type(c) is not int:
                    raise TypeError("coefficients must be ints")
                if c:
                    data[w._packed] = c
        self._rank = rank
        self._terms = data

    @classmethod
    def one(cls, rank: int) -> "RingElement":
        """The ring unit: the identity word with coefficient 1."""
        return cls(rank, {Word.identity(rank): 1})

    @classmethod
    def monomial(cls, word: Word, coeff: int = 1) -> "RingElement":
        return cls(word.rank, {word: coeff})

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def terms(self) -> Mapping[Word, int]:
        """A read-only word -> coefficient view, built on each access."""
        rank = self._rank
        return MappingProxyType({Word._of(w, rank): c for w, c in self._terms.items()})

    @property
    def support_size(self) -> int:
        return len(self._terms)

    def coefficient(self, word: Word) -> int:
        if word.rank != self._rank:
            return 0
        return self._terms.get(word._packed, 0)

    def trace(self) -> int:
        """Canonical trace: the coefficient of the identity word."""
        return self._terms.get(0, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<RingElement rank={self._rank} support={len(self._terms)}>"

    def to_json_dict(self) -> dict:
        """Schema: {"rank": N, "terms": [{"word": ..., "coeff": "<decimal>"}, ...]}.

        Terms are sorted in canonical word order so output is reproducible.
        """
        text = _text_reader(self._rank)
        return {
            "rank": self._rank,
            "terms": [
                {"word": text(w), "coeff": str(c)} for w, c in sorted(self._terms.items())
            ],
        }


def multiply(x: RingElement, y: RingElement, support_cap: int | None = None) -> RingElement:
    """Convolution product; refuses once the accumulator outgrows the cap.

    The letters of each right-hand word are appended to each left-hand
    word one at a time; a letter cancels the last one when they are
    inverse, and once one letter stays no later letter of a reduced
    word can cancel.
    """
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} vs {y.rank}")
    cap = _effective_cap(support_cap)
    k = _letter_bits(x.rank)
    mask = (1 << k) - 1
    right = []
    for v, cv in y._terms.items():
        letters = []
        while v:
            d = v & mask
            letters.append((d, _inverse_digit(d)))
            v >>= k
        right.append((letters[::-1], cv))
    acc: dict[int, int] = {}
    get = acc.get
    for u, cu in x._terms.items():
        for letters, cv in right:
            w = u
            for d, inverse in letters:
                w = w >> k if w & mask == inverse else (w << k) | d
            c = get(w, 0) + cu * cv
            if c:
                acc[w] = c
            else:
                del acc[w]
        if len(acc) > cap:
            raise SupportCapError(len(acc), cap, "product")
    return _raw(x.rank, acc)


def power(x: RingElement, n: int, support_cap: int | None = None) -> RingElement:
    """n-th power by repeated multiplication; x**0 is the ring unit."""
    _require_int("n", n, 0)
    result = RingElement.one(x.rank)
    for _ in range(n):
        result = multiply(result, x, support_cap)
    return result


def iter_powers(
    x: RingElement, max_order: int, support_cap: int | None = None
) -> Iterator[tuple[int, RingElement]]:
    """Yield (n, x**n) for n = 1..max_order, multiplying cumulatively."""
    _require_int("max_order", max_order, 0)
    acc = RingElement.one(x.rank)
    for n in range(1, max_order + 1):
        acc = multiply(acc, x, support_cap)
        yield n, acc


def radial_sum(n: int, rank: int, support_cap: int | None = None) -> RingElement:
    """Sum of all reduced words of length n, each with coefficient 1."""
    _require_int("n", n, 0)
    _require_int("rank", rank, 1)
    cap = _effective_cap(support_cap)
    needed = reduced_word_count(n, rank)
    if needed > cap:
        raise SupportCapError(needed, cap, f"radial sum of length {n}")
    return _raw(rank, dict.fromkeys(_level(n, rank), 1))


def generating_operator(rank: int) -> RingElement:
    """Sum of the generators and their inverses (the length-1 radial sum)."""
    return radial_sum(1, rank)


class Hyperword:
    """Generator of the cyclic subgroup that the conditional expectation targets.

    The base word must be nontrivial and cyclically reduced, so its k-th
    power is the plain k-fold concatenation and has length k * len(base);
    membership in the subgroup is then decided by exact division.
    """

    __slots__ = ("_word", "_powers")

    def __init__(self, word: Word):
        if word.is_identity:
            raise ValueError("subgroup generator must not be the identity")
        if not word.is_cyclically_reduced:
            raise ValueError("subgroup generator must be cyclically reduced")
        self._word = word
        self._powers: dict[int, Word] = {0: Word.identity(word.rank), 1: word}

    @classmethod
    def canonical(cls, rank: int) -> "Hyperword":
        """g1 g2 ... gN g1^-1 g2^-1 ... gN^-1, a reduced word of length 2N.

        At rank 1 this degenerates to the identity, so rank >= 2 is required.
        """
        _require_int("rank", rank, 2)
        codes = list(range(1, rank + 1)) + [-i for i in range(1, rank + 1)]
        return cls(Word(codes, rank=rank))

    @property
    def word(self) -> Word:
        return self._word

    @property
    def rank(self) -> int:
        return self._word.rank

    def __len__(self) -> int:
        return len(self._word)

    def __repr__(self) -> str:
        return f"Hyperword({format_word(self._word)!r}, rank={self.rank})"

    def power(self, k: int) -> Word:
        cached = self._powers.get(k)
        if cached is None:
            # A cyclically reduced word's powers are plain concatenations.
            base = (self._word if k > 0 else self._word.inverse())._packed
            step = len(self._word) * _letter_bits(self.rank)
            w = 0
            for _ in range(abs(k)):
                w = (w << step) | base
            cached = self._powers[k] = Word._of(w, self.rank)
        return cached

    def exponent_of(self, w: Word) -> int | None:
        """Return k with w == base**k, or None if w is outside the subgroup."""
        n = len(w)
        if n == 0:
            return 0
        length = len(self._word)
        if n % length:
            return None
        k = n // length
        if w == self.power(k):
            return k
        if w == self.power(-k):
            return -k
        return None


def conditional_expectation(x: RingElement, h: Hyperword) -> LaurentPolynomial:
    """Project onto the cyclic subgroup generated by h.

    Keeps exactly the coefficients of powers of h; the result records the
    coefficient of h**k at exponent k (exponent 0 is the trace part).
    """
    if h.rank != x.rank:
        raise ValueError(f"rank mismatch: element {x.rank}, subgroup generator {h.rank}")
    terms = x._terms
    # longer powers of h lie outside the support
    top = _packed_length(max(terms, default=0), _letter_bits(x.rank)) // len(h)
    exponents = {h.power(e)._packed: e for e in range(-top, top + 1)}
    return LaurentPolynomial({e: terms[w] for w, e in exponents.items() if w in terms})
