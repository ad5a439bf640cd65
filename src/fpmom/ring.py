"""Exact sparse arithmetic in the integer group ring Z[F_N].

Elements are finite Z-linear combinations of reduced words with Python
int coefficients, stored as a word -> coefficient map with no zero
entries.  The module is deliberately brute force: it expands products
word by word and serves as the ground truth that the fast radial
recurrence is verified against.

Packed words
------------
Inside an element each reduced word is one int: its letters are packed
most significant first, k = (2N).bit_length() bits per letter, with the
digits a=1, A=2, b=3, B=4, ... (code c > 0 is 2c-1, code c < 0 is 2|c|).
The identity is 0, and no digit is 0, so

* multiplying on the right by the letter with digit d is ``w >> k`` when
  the last digit ``w & mask`` is the inverse of d, and ``(w << k) | d``
  otherwise;
* a word's length is ``ceil(w.bit_length() / k)``;
* plain int order is the canonical word order (length first, then
  a < A < b < B < ...), so sorting the ints sorts the words.

``Word`` stays the type of the public API, and the ring converts only at
its edges: the constructor and ``coefficient`` pack words; ``terms`` and
``to_json_dict`` unpack them through a prefix memo,
``spell(w) = spell(w >> k) + letter``; the conditional expectation looks
up the packed powers of h; and the radiality check in ``fpmom.oracle``
reads lengths from bit lengths.

Supports of powers of the generating operator grow like (2N-1)^n, so
every expanding operation takes a term cap (default ``10**8``) and
refuses with :class:`SupportCapError` rather than exhausting memory.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .laurent import LaurentPolynomial
from .words import Word, format_word, reduced_word_count

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
    "embed",
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
    cap = DEFAULT_SUPPORT_CAP if support_cap is None else support_cap
    if cap < 1:
        raise ValueError(f"support cap must be >= 1, got {cap}")
    return cap


# ---- packed words ----


def _letter_bits(rank: int) -> int:
    """Bits per packed letter: enough for the largest digit, 2N."""
    return (2 * rank).bit_length()


def _inverse_digit(d: int) -> int:
    return d + 1 if d & 1 else d - 1


def _pack(word: Word) -> int:
    k = _letter_bits(word.rank)
    w = 0
    for c in word.codes:
        w = (w << k) | (2 * c - 1 if c > 0 else -2 * c)
    return w


def _packed_length(w: int, k: int) -> int:
    return -(-w.bit_length() // k)


def _speller(k: int, pieces: Mapping[int, str | tuple], empty: str | tuple) -> Callable:
    """Return spell(w): the pieces of w's digits concatenated, most significant first.

    Prefixes are memoized, so spelling a support costs about one
    concatenation per word.  The memo is filled without recursion, so a
    long word cannot exhaust the stack.
    """
    mask = (1 << k) - 1
    memo = {0: empty}

    def prefix(w: int):
        s = memo.get(w)
        if s is None:
            chain = []
            while s is None:
                chain.append(w)
                w >>= k
                s = memo.get(w)
            for p in reversed(chain):
                s += pieces[p & mask]
                memo[p] = s
        return s

    def spell(w: int):
        return prefix(w >> k) + pieces[w & mask] if w else empty

    return spell


def _word_reader(rank: int) -> Callable[[int], Word]:
    """Packed word -> ``Word``."""
    pieces = {}
    for i in range(1, rank + 1):
        pieces[2 * i - 1] = (i,)
        pieces[2 * i] = (-i,)
    spell = _speller(_letter_bits(rank), pieces, ())
    return lambda w: Word._from_reduced(spell(w), rank)


def _text_reader(rank: int) -> Callable[[int], str]:
    """Packed word -> the text ``format_word`` gives for it."""
    pieces = {}
    if rank <= 26:
        for i in range(1, rank + 1):
            pieces[2 * i - 1] = chr(96 + i)
            pieces[2 * i] = chr(64 + i)
        spell = _speller(_letter_bits(rank), pieces, "")
        # the identity is "e", so the lone generator 5 is spelled "g5"
        fixed = {"": "e", "e": "g5"}

        def text(w: int) -> str:
            s = spell(w)
            return fixed.get(s, s)

        return text
    for i in range(1, rank + 1):
        pieces[2 * i - 1] = f" g{i}"
        pieces[2 * i] = f" G{i}"
    spell = _speller(_letter_bits(rank), pieces, "")
    return lambda w: spell(w)[1:] if w else "e"


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
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        data: dict[int, int] = {}
        if terms:
            for w, c in terms.items():
                if not isinstance(w, Word):
                    raise TypeError("terms must be keyed by Word")
                if w.rank != rank:
                    raise ValueError(
                        f"word {format_word(w)!r} has rank {w.rank}, element has rank {rank}"
                    )
                if not isinstance(c, int):
                    raise TypeError("coefficients must be integers")
                if c:
                    data[_pack(w)] = c
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
        word = _word_reader(self._rank)
        return MappingProxyType({word(w): c for w, c in self._terms.items()})

    @property
    def support_size(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, word: Word) -> int:
        if word.rank != self._rank:
            return 0
        return self._terms.get(_pack(word), 0)

    def trace(self) -> int:
        """Canonical trace: the coefficient of the identity word."""
        return self._terms.get(0, 0)

    def augmentation(self) -> int:
        """Sum of all coefficients (evaluation of the trivial representation)."""
        return sum(self._terms.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<RingElement rank={self._rank} support={len(self._terms)}>"

    def _merged(self, other: "RingElement", flip: int) -> "RingElement":
        if self._rank != other._rank:
            raise ValueError(f"rank mismatch: {self._rank} vs {other._rank}")
        data = dict(self._terms)
        for w, c in other._terms.items():
            s = data.get(w, 0) + flip * c
            if s:
                data[w] = s
            else:
                data.pop(w, None)
        return _raw(self._rank, data)

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._merged(other, 1)

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._merged(other, -1)

    def __neg__(self) -> "RingElement":
        return _raw(self._rank, {w: -c for w, c in self._terms.items()})

    def _scaled(self, k: int) -> "RingElement":
        if k == 0:
            return _raw(self._rank, {})
        return _raw(self._rank, {w: k * c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return multiply(self, other)
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

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
    if n < 0:
        raise ValueError(f"power must be >= 0, got {n}")
    result = RingElement.one(x.rank)
    for _ in range(n):
        result = multiply(result, x, support_cap)
    return result


def iter_powers(
    x: RingElement, max_order: int, support_cap: int | None = None
) -> Iterator[tuple[int, RingElement]]:
    """Yield (n, x**n) for n = 1..max_order, multiplying cumulatively."""
    acc = RingElement.one(x.rank)
    for n in range(1, max_order + 1):
        acc = multiply(acc, x, support_cap)
        yield n, acc


def radial_sum(n: int, rank: int, support_cap: int | None = None) -> RingElement:
    """Sum of all reduced words of length n, each with coefficient 1."""
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    cap = _effective_cap(support_cap)
    needed = reduced_word_count(n, rank)
    if needed > cap:
        raise SupportCapError(needed, cap, f"radial sum of length {n}")
    k = _letter_bits(rank)
    mask = (1 << k) - 1
    digits = range(1, 2 * rank + 1)
    # the digits that may follow each last digit (0: the empty word)
    follow = [digits] + [[e for e in digits if e != _inverse_digit(d)] for d in digits]
    level = [0]
    for _ in range(n):
        level = [(w << k) | d for w in level for d in follow[w & mask]]
    return _raw(rank, dict.fromkeys(level, 1))


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
        if rank < 2:
            raise ValueError(
                "the canonical subgroup generator degenerates to the identity at rank 1; "
                "rank >= 2 is required"
            )
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
            base = self._word if k > 0 else self._word.inverse()
            cached = Word._from_reduced(base.codes * abs(k), self.rank)
            self._powers[k] = cached
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
    k = _letter_bits(x.rank)
    terms = x._terms
    # powers of h are plain concatenations (h is cyclically reduced), so
    # the packed h^e is built by shifting; longer ones lie outside the support
    step = len(h) * k
    top = _packed_length(max(terms, default=0), k) // len(h)
    base, inverse = _pack(h.word), _pack(h.word.inverse())
    exponents = {0: 0}
    up = down = 0
    for e in range(1, top + 1):
        up = (up << step) | base
        down = (down << step) | inverse
        exponents[up] = e
        exponents[down] = -e
    return LaurentPolynomial({e: terms[w] for w, e in exponents.items() if w in terms})


def embed(poly: LaurentPolynomial, h: Hyperword) -> RingElement:
    """Send exponent k back to the word h**k; a section of the expectation."""
    return RingElement(h.rank, {h.power(k): c for k, c in poly.items()})
