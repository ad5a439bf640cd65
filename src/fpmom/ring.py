"""Exact sparse products in the integer group ring Z[F_N]: the reference.

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
sorts the words.  Every product, powers of G included, runs that one
kernel letter by letter, so the reference shares no step with
``fpmom.oracle.iter_power_classes``, the expansion it checks, and
refuses a power of G on the same caps.  ``Word`` stays the type of the
public API: the constructor and ``coefficient`` read a word's int,
``terms`` wraps each int in a ``Word``, and ``to_json`` spells the
sorted ints directly, one term at a time, sharing no code with
``expand``'s writer ``fpmom.words._terms_json``: each checks the other.

No command runs it.  Supports grow like (2N-1)^n, so every expanding
operation refuses with :class:`SupportCapError` past the term cap that
``fpmom.oracle`` defines for its expansion (default ``10**8``).
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Iterator, Mapping

from .laurent import LaurentPolynomial
from .oracle import SupportCapError, _effective_cap
from .words import (
    Word,
    _inverse_digit,
    _letter_bits,
    _level,
    _packed_length,
    _require_int,
    _speller,
    format_word,
    reduced_word_count,
    subgroup_word,
)

__all__ = [
    "RingElement",
    "multiply",
    "power",
    "iter_powers",
    "radial_sum",
    "generating_operator",
    "conditional_expectation",
]


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
        """The ring unit: the empty word, the identity, with coefficient 1."""
        return cls(rank, {Word(rank=rank): 1})

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
        if not isinstance(word, Word):
            raise TypeError(f"word must be a Word, got {type(word).__name__}")
        if word.rank != self._rank:
            raise ValueError(
                f"word {format_word(word)!r} has rank {word.rank}, element has rank {self._rank}"
            )
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

    def to_json(self) -> str:
        """The element as one line of JSON, newline included:
        {"rank":N,"terms":[{"word":"...","coeff":"<decimal>"},...]}.

        Terms are in canonical word order, the order of the sorted keys, so
        output is reproducible.  Each word is spelled on its own, with the
        rules of ``format_word``, and the terms are joined once.
        """
        rank = self._rank
        terms = self._terms
        lone, _, spell = _speller(rank)
        k = _letter_bits(rank)
        body = ",".join(
            f'{{"word":"{spell(w) if w >> k else lone[w]}","coeff":"{terms[w]}"}}'
            for w in sorted(terms)
        )
        return f'{{"rank":{rank},"terms":[{body}]}}\n'

    def to_json_dict(self) -> dict:
        """The parsed ``to_json``: {"rank": N, "terms": [{"word": ..., "coeff": ...}, ...]}."""
        return json.loads(self.to_json())


def multiply(x: RingElement, y: RingElement, support_cap: int | None = None) -> RingElement:
    """Convolution product; refuses once the accumulator outgrows the cap.

    The letters of each right-hand word are appended to each left-hand
    word one at a time; a letter cancels the last one when they are
    inverse, and once one letter stays no later letter of a reduced
    word can cancel.  A power of G times G refuses on the same caps as
    ``fpmom.oracle.iter_power_classes``: no coefficient cancels to zero,
    so the accumulator grows to the product's support, which the
    extensions never outnumber.
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


def conditional_expectation(x: RingElement) -> LaurentPolynomial:
    """Project onto the cyclic subgroup generated by ``subgroup_word(x.rank)``.

    Keeps exactly the coefficients of powers of h; the result records the
    coefficient of h**k at exponent k (exponent 0 is the trace part).
    """
    rank = x.rank
    terms = x._terms
    # longer powers of h lie outside the support
    top = _packed_length(max(terms, default=0), _letter_bits(rank)) // (2 * rank)
    exponents = {subgroup_word(rank, e)._packed: e for e in range(-top, top + 1)}
    return LaurentPolynomial({e: terms[w] for w, e in exponents.items() if w in terms})
