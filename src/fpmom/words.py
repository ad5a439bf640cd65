"""Reduced words in the free group on N generators.

A word is a sequence of letters, and a letter is a nonzero integer code:
``+i`` stands for the i-th generator (1-based), ``-i`` for its inverse.
Every constructor applies free reduction, so any ``Word`` in circulation
is reduced; the empty word is the group identity.

Text grammar
------------
Compact form (rank <= 26): the i-th lowercase latin letter is the i-th
generator and the matching uppercase letter its inverse, concatenated
without separators (``"abAB"``).  The standalone string ``"e"`` (or the
empty string) denotes the identity.  Indexed form (any rank):
whitespace-separated tokens ``g<i>`` and ``G<i>``, e.g. ``"g1 g2 G1 G2"``.
Any digit in the input switches the parser to indexed form.

One compact-form collision exists: the single-letter word for generator 5
would print as ``"e"``, which the parser reserves for the identity, so
``format_word`` emits the indexed token ``"g5"`` for that word instead.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Iterator

__all__ = [
    "Word",
    "parse_word",
    "format_word",
    "reduced_word_count",
    "enumerate_reduced_words",
]


def _word_hash(rank: int, codes: tuple[int, ...]) -> int:
    # CPython hashes -1 like -2, so the signed codes of words that differ
    # only in the letters A and B would collide.  Such words hash the image
    # ~c instead: one-to-one, never -1, and always holding a 0, which no
    # signed code is, so it cannot meet the codes of a word without A.
    return hash((rank, codes if -1 not in codes else tuple(map(int.__invert__, codes))))


@functools.total_ordering
class Word:
    """An immutable reduced word over the generators of a free group.

    The constructor freely reduces its letter codes:

    >>> Word([1, 2, -2, 1], rank=2).codes
    (1, 1)
    >>> Word([1, -1], rank=1).is_identity
    True

    Ordering is by length first, then letter by letter with the positive
    generator sorting before its inverse (a < A < b < B < aa < ...); this
    is the order used for serialized output.
    """

    __slots__ = ("_codes", "_rank", "_hash")

    def __init__(self, letters: Iterable[int] = (), *, rank: int):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        stack: list[int] = []
        for code in letters:
            if not isinstance(code, int):
                raise TypeError(f"letter codes must be int, got {type(code).__name__}")
            if code == 0:
                raise ValueError("letter code 0 does not name a generator")
            if abs(code) > rank:
                raise ValueError(f"generator {abs(code)} is beyond rank {rank}")
            if stack and stack[-1] == -code:
                stack.pop()
            else:
                stack.append(code)
        codes = tuple(stack)
        self._codes = codes
        self._rank = rank
        self._hash = _word_hash(rank, codes)

    @classmethod
    def _from_reduced(cls, codes: tuple[int, ...], rank: int) -> "Word":
        # Fast path for callers that guarantee `codes` is already reduced.
        w = object.__new__(cls)
        w._codes = codes
        w._rank = rank
        w._hash = _word_hash(rank, codes)
        return w

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls((), rank=rank)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def codes(self) -> tuple[int, ...]:
        """Signed-integer encoding: +i for the i-th generator, -i for its inverse."""
        return self._codes

    @property
    def is_identity(self) -> bool:
        return not self._codes

    @property
    def is_cyclically_reduced(self) -> bool:
        """True if no cancellation occurs at the seam when the word is squared."""
        return len(self._codes) < 2 or self._codes[0] != -self._codes[-1]

    def __len__(self) -> int:
        return len(self._codes)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._rank == other._rank and self._codes == other._codes

    def sort_key(self) -> tuple:
        return (
            len(self._codes),
            tuple((abs(c), 0 if c > 0 else 1) for c in self._codes),
        )

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        if self._rank != other._rank:
            raise ValueError("cannot order words of different ranks")
        return self.sort_key() < other.sort_key()

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self._rank != other._rank:
            raise ValueError(f"rank mismatch: {self._rank} vs {other._rank}")
        u, v = self._codes, other._codes
        k = 0
        limit = min(len(u), len(v))
        # cancellation happens only at the junction because both factors are reduced
        while k < limit and u[-1 - k] == -v[k]:
            k += 1
        if k:
            codes = u[: len(u) - k] + v[k:]
        else:
            codes = u + v
        return Word._from_reduced(codes, self._rank)

    def inverse(self) -> "Word":
        return Word._from_reduced(tuple(-c for c in reversed(self._codes)), self._rank)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, rank={self._rank})"


_INDEXED_TOKEN = re.compile(r"([gG])([0-9]+)")


def _parse_compact_char(ch: str, rank: int) -> int:
    if "a" <= ch <= "z":
        code = ord(ch) - 96
    elif "A" <= ch <= "Z":
        code = -(ord(ch) - 64)
    else:
        raise ValueError(f"unexpected character {ch!r} in word")
    if abs(code) > rank:
        raise ValueError(f"letter {ch!r} names generator {abs(code)}, beyond rank {rank}")
    return code


def _parse_indexed_token(token: str, rank: int) -> int:
    m = _INDEXED_TOKEN.fullmatch(token)
    if m is None:
        raise ValueError(f"malformed generator token {token!r}")
    index = int(m.group(2))
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {token!r}")
    if index > rank:
        raise ValueError(f"token {token!r} names generator {index}, beyond rank {rank}")
    return index if m.group(1) == "g" else -index


def parse_word(text: str, rank: int) -> Word:
    """Parse a word in either grammar form; the result is reduced.

    >>> parse_word("abAB", 2).codes
    (1, 2, -1, -2)
    >>> parse_word("g1 g2 G1 G2", 2) == parse_word("abAB", 2)
    True
    >>> parse_word("aA", 2).is_identity
    True
    """
    s = text.strip()
    if s in ("", "e"):
        return Word.identity(rank)
    if any(ch.isdigit() for ch in s):
        codes = [_parse_indexed_token(tok, rank) for tok in s.split()]
    else:
        if len(s.split()) != 1:
            raise ValueError("compact-form words take no separators; use g<i> tokens instead")
        codes = [_parse_compact_char(ch, rank) for ch in s]
    return Word(codes, rank=rank)


def format_word(w: Word) -> str:
    """Render a word; compact form when the rank allows it, indexed otherwise.

    >>> format_word(Word([1, 2, -1, -2], rank=2))
    'abAB'
    >>> format_word(Word([], rank=2))
    'e'
    """
    if w.is_identity:
        return "e"
    if w.rank <= 26:
        text = "".join(chr(96 + c) if c > 0 else chr(64 - c) for c in w.codes)
        if text == "e":
            # lone generator 5 collides with the identity spelling
            return "g5"
        return text
    return " ".join(f"g{c}" if c > 0 else f"G{-c}" for c in w.codes)


def reduced_word_count(length: int, rank: int) -> int:
    """Number of distinct reduced words of the given length: 2N(2N-1)^(n-1) for n >= 1."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def enumerate_reduced_words(length: int, rank: int) -> Iterator[Word]:
    """Yield every reduced word of exactly the given length, in sorted order."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if length == 0:
        yield Word.identity(rank)
        return
    alphabet: list[int] = []
    for i in range(1, rank + 1):
        alphabet.extend((i, -i))
    level: list[tuple[int, ...]] = [(c,) for c in alphabet]
    for _ in range(length - 1):
        level = [t + (c,) for t in level for c in alphabet if c != -t[-1]]
    for codes in level:
        yield Word._from_reduced(codes, rank)
