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
sorts the words.  Every product, powers of G included, runs that one
kernel letter by letter, so the reference shares no step with
``iter_power_classes``, the expansion it checks, and refuses a power of
G on the same caps.  ``Word`` stays the type of the public API: the
constructor and ``coefficient`` read a word's int, ``terms`` wraps each
int in a ``Word``, and ``to_json`` spells the sorted ints directly, one
term at a time.  It shares no code with ``fpmom.words._terms_json``, the
writer of the ``expand`` command, so the two spellings check each other.

``iter_power_classes``, the expansion that ``verify`` and ``expand``
run, skips elements and keys: it holds each power of G as one
coefficient list per word length, in sorted word order, and multiplies
by G with two list operations per class (``_times_g``).

Supports of powers of the generating operator grow like (2N-1)^n, so
every expanding operation takes a term cap (default ``10**8``) and
refuses with :class:`SupportCapError` rather than exhausting memory.
"""

from __future__ import annotations

import json
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
    _speller,
    format_word,
    reduced_word_count,
)

__all__ = [
    "DEFAULT_SUPPORT_CAP",
    "SupportCapError",
    "RingElement",
    "multiply",
    "power",
    "iter_powers",
    "iter_power_classes",
    "radial_sum",
    "generating_operator",
    "subgroup_word",
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
    ``iter_power_classes``: no coefficient cancels to zero, so the
    accumulator grows to the product's support, which the extensions
    never outnumber.
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


def _times_g(classes: Mapping[int, list[int]], rank: int) -> dict[int, list[int]]:
    """The classes of x G from the classes of x, shortest first.

    classes[m] lists x's coefficients on the words of length m in
    ``_level(m, rank)`` order, where a 0 is a missing word.  A word of
    length m times a letter either extends it to one of its q = 2N - 1
    children, the block i q ... i q + q - 1 below the word at index i
    (the 2N letters below the identity), or cancels its last letter and
    gives its parent.  So class m of x G is class m - 1 with each
    coefficient repeated over its block of children, plus class m + 1
    with each block of children summed onto its parent.
    """
    q = 2 * rank - 1
    product = {}
    for m in sorted({m + s for m in classes for s in (-1, 1)} - {-1}):
        low, up = classes.get(m - 1), classes.get(m + 1)
        columns = []
        if low is not None:
            width = 2 * rank if m == 1 else q  # children of each word of class m - 1
            grown = [0] * (len(low) * width)
            for t in range(width):
                grown[t::width] = low
            columns.append(grown)
        if up is None:
            product[m] = grown
            continue
        # one iterator repeated in zip: each tuple takes one block of children
        columns += [iter(up)] * (2 * rank if m == 0 else q)
        product[m] = list(map(sum, zip(*columns)))
    return product


def iter_power_classes(
    rank: int, max_order: int, support_cap: int | None = None
) -> Iterator[tuple[int, dict[int, list[int]]]]:
    """Yield (n, classes) for n = 1..max_order, where classes maps each
    word length m of G**n to its coefficients on the words of length m, in
    canonical order (``fpmom.words._level``'s); a 0 would be a missing word.

    Each power is the last times G, taken a class at a time by the group
    law (``_times_g``), with no ``RingElement`` and no assumption that a
    class is constant.  Powers of G hold every word of each class they
    reach, so the cap refuses where ``multiply`` does on the same powers:
    before a product when its extensions alone exceed the cap, and after
    it when its support does.
    """
    _require_int("rank", rank, 1)
    _require_int("max_order", max_order, 0)
    cap = _effective_cap(support_cap)
    q = 2 * rank - 1
    classes = {0: [1]}
    for n in range(1, max_order + 1):
        needed = sum(len(c) * (q if m else 2 * rank) for m, c in classes.items())
        if needed > cap:
            raise SupportCapError(needed, cap, "product")
        classes = _times_g(classes, rank)
        support = sum(map(len, classes.values()))
        if support > cap:
            raise SupportCapError(support, cap, "product")
        yield n, classes


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


def subgroup_word(rank: int, k: int = 1) -> Word:
    """h**k for h = g1 g2 ... gN g1^-1 g2^-1 ... gN^-1, the generator of the
    cyclic subgroup that ``conditional_expectation`` projects onto.

    h is reduced and cyclically reduced, so h**k is the |k|-fold
    concatenation of h, or of h^-1 when k < 0, and has length 2N|k|.  At
    rank 1 h is the identity, so rank >= 2 is required.

    >>> format_word(subgroup_word(2))
    'abAB'
    >>> format_word(subgroup_word(2, -2))
    'baBAbaBA'
    """
    _require_int("rank", rank, 2)
    if type(k) is not int:
        raise TypeError(f"k must be an int, got {type(k).__name__}")
    codes = list(range(1, rank + 1)) + [-i for i in range(1, rank + 1)]
    h = Word(codes, rank=rank)
    base = (h if k >= 0 else h.inverse())._packed
    step = 2 * rank * _letter_bits(rank)
    # base repeated |k| times: base times the repunit 1 + 2^step + 2^(2 step) + ...,
    # whose division by a divisor of a few machine words takes linear time
    repunit = ((1 << step * abs(k)) - 1) // ((1 << step) - 1)
    return Word._of(base * repunit, rank)


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
