"""Reduced words in the free group on N generators.

A letter is a nonzero integer code: ``+i`` stands for the i-th generator
(1-based), ``-i`` for its inverse.  Every constructor applies free
reduction, so any ``Word`` in circulation is reduced; the empty word,
``Word(rank=N)`` of length 0, is the group identity.

Packed words
------------
A ``Word`` is stored as one int, and the group ring in ``fpmom.ring``
keys its terms by the same ints.  The letters are packed most
significant first, k = (2N).bit_length() bits per letter, with the
digits a=1, A=2, b=3, B=4, ... (code c > 0 is 2c-1, code c < 0 is 2|c|).
The identity is 0, and no digit is 0, so

* multiplying on the right by the letter with digit d is ``w >> k`` when
  the last digit ``w & mask`` is the inverse of d, and ``(w << k) | d``
  otherwise;
* a word's length is ``ceil(w.bit_length() / k)``;
* plain int order is the canonical word order (length first, then
  a < A < b < B < ...), so sorting the ints sorts the words;
* the int is never -1, so ``(rank, int)`` hashes without collisions
  between short words.

Sorted, the words of one length m form one class of 2N(2N-1)^(m-1)
words, the order ``_level`` lists; ``_level_index`` gives a word's index
in it.  ``subgroup_word`` packs the paper's h**k by repeating h's int.

Spelling
--------
Compact form (rank <= 26): the i-th lowercase latin letter is the i-th
generator and the matching uppercase letter its inverse, concatenated
without separators (``"abAB"``); the identity is ``"e"``.  Indexed form
(rank > 26): space-separated tokens ``g<i>`` and ``G<i>``, e.g.
``"g1 g2 G1 G2"``.

In compact form the lone word for generator 5 would spell ``"e"``, like
the identity, so ``format_word`` writes the indexed token ``"g5"`` for it
instead; that keeps the output unambiguous, since no two words spell
alike.  ``_terms_json`` writes the classes of a power of G as JSON with
these rules, in chunks of at most ``_CHUNK`` characters (``_chunks``),
for the ``expand`` command only; ``RingElement.to_json`` spells its terms
on its own, as an independent check of it.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Word",
    "format_word",
    "reduced_word_count",
    "subgroup_word",
]


def _letter_bits(rank: int) -> int:
    """Bits per packed letter: enough for the largest digit, 2N."""
    return (2 * rank).bit_length()


def _inverse_digit(d: int) -> int:
    return d + 1 if d & 1 else d - 1


def _packed_length(w: int, k: int) -> int:
    return -(-w.bit_length() // k)


class Word:
    """An immutable reduced word over the generators of a free group.

    The constructor freely reduces its letter codes; the repr spells them:

    >>> Word([1, 2, -2, 1], rank=2)
    Word((1, 1), rank=2)
    >>> len(Word([1, -1], rank=1))
    0

    Words are unordered; the canonical order is the packed int's (module
    docstring), which ``RingElement.to_json`` sorts a support by.
    """

    __slots__ = ("_packed", "_rank")

    def __init__(self, letters: Iterable[int] = (), *, rank: int):
        _require_int("rank", rank, 1)
        k = _letter_bits(rank)
        mask = (1 << k) - 1
        w = 0
        for code in letters:
            if type(code) is not int:
                raise TypeError(f"letter codes must be int, got {type(code).__name__}")
            if code == 0:
                raise ValueError("letter code 0 does not name a generator")
            if abs(code) > rank:
                raise ValueError(f"generator {abs(code)} is beyond rank {rank}")
            d = 2 * code - 1 if code > 0 else -2 * code
            w = w >> k if w & mask == _inverse_digit(d) else (w << k) | d
        self._packed = w
        self._rank = rank

    @classmethod
    def _of(cls, packed: int, rank: int) -> "Word":
        # For callers that hold a packed reduced word.
        w = object.__new__(cls)
        w._packed = packed
        w._rank = rank
        return w

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def codes(self) -> tuple[int, ...]:
        """Signed-integer encoding: +i for the i-th generator, -i for its inverse."""
        k = _letter_bits(self._rank)
        mask = (1 << k) - 1
        w = self._packed
        codes = []
        while w:
            d = w & mask
            codes.append(d + 1 >> 1 if d & 1 else -(d >> 1))
            w >>= k
        return tuple(reversed(codes))

    def __len__(self) -> int:
        return _packed_length(self._packed, _letter_bits(self._rank))

    def __hash__(self) -> int:
        return hash((self._rank, self._packed))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._rank == other._rank and self._packed == other._packed

    def inverse(self) -> "Word":
        k = _letter_bits(self._rank)
        mask = (1 << k) - 1
        v, w = self._packed, 0
        while v:
            w = (w << k) | _inverse_digit(v & mask)
            v >>= k
        return Word._of(w, self._rank)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({self.codes!r}, rank={self._rank})"


def _speller(rank: int) -> tuple[list[str], list[str], Callable[[int], str]]:
    """Return (lone, tails, spell), the spelling rules of one rank.

    spell(w) joins the letters of the packed word w, compact when the rank
    allows it, indexed otherwise.  That is w's text unless w has at most
    one letter (w <= mask): those spell as lone[w], where the identity is
    "e" and, in compact form, generator 5 is "g5".  tails[d] is the
    separator, then the letter with digit d, so a longer word spells as
    spell(w >> k) + tails[w & mask], and a caller can spell the words of
    one length from those one letter shorter.
    """
    k = _letter_bits(rank)
    mask = (1 << k) - 1
    if rank <= 26:
        sep = ""
        pieces = ["", *(ch for i in range(rank) for ch in (chr(97 + i), chr(65 + i)))]
    else:
        sep = " "
        pieces = ["", *(f"{g}{i}" for i in range(1, rank + 1) for g in "gG")]
    lone = ["e", *pieces[1:]]
    if 5 <= rank <= 26:
        # lone generator 5 collides with the identity spelling
        lone[9] = "g5"
    tails = [sep + piece for piece in pieces]

    def spell(w: int) -> str:
        letters = []
        while w:
            letters.append(pieces[w & mask])
            w >>= k
        return sep.join(reversed(letters))

    return lone, tails, spell


def format_word(w: Word) -> str:
    """Render a word; compact form when the rank allows it, indexed otherwise.

    >>> format_word(Word([1, 2, -1, -2], rank=2))
    'abAB'
    >>> format_word(Word([], rank=2))
    'e'
    """
    lone, _, spell = _speller(w.rank)
    p = w._packed
    return spell(p) if p >> _letter_bits(w.rank) else lone[p]


def _require_int(name: str, value: object, least: int) -> None:
    """The one int rule of fpmom's public entry points: ``TypeError`` for
    anything but an int (a bool included), ``ValueError`` below least."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def reduced_word_count(length: int, rank: int) -> int:
    """Number of distinct reduced words of the given length: 2N(2N-1)^(n-1) for n >= 1."""
    _require_int("length", length, 0)
    _require_int("rank", rank, 1)
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def subgroup_word(rank: int, k: int = 1) -> Word:
    """h**k for h = g1 g2 ... gN g1^-1 g2^-1 ... gN^-1, the generator of the
    cyclic subgroup that the amalgamated moments project onto.

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


def _follow(rank: int) -> list[Sequence[int]]:
    """follow[d]: the digits, ascending, that may follow a last digit d in a
    reduced word; follow[0], after the empty word, is every digit."""
    digits = range(1, 2 * rank + 1)
    return [digits] + [[e for e in digits if e != _inverse_digit(d)] for d in digits]


def _level(length: int, rank: int) -> list[int]:
    """Every packed reduced word of the given length, in canonical order.

    In that order the children of the word at index i, its words times
    each letter that does not cancel its last one, are the indices
    i q ... i q + q - 1 of the next level, q = 2N - 1; the identity's
    children are the 2N letters.
    """
    k = _letter_bits(rank)
    mask = (1 << k) - 1
    follow = _follow(rank)
    level = [0]
    for _ in range(length):
        level = [(w << k) | d for w in level for d in follow[w & mask]]
    return level


def _level_index(w: int, rank: int) -> int:
    """The index of the packed word w in ``_level(len(w), rank)``.

    Read first letter to last, the place of digit d among the children
    of a word ending in digit e is follow[e].index(d): d - 1, less one
    when d is past the inverse of e, the one digit that may not follow e.
    """
    k = _letter_bits(rank)
    mask = (1 << k) - 1
    q = 2 * rank - 1
    index, e = 0, 0
    for shift in range(k * (_packed_length(w, k) - 1), -1, -k):
        d = w >> shift & mask
        index = index * q + d - 1 - (e > 0 and d > _inverse_digit(e))
        e = d
    return index


# The longest chunk of text a writer yields, in characters.  A chunk's
# string, and its UTF-8 copy on the way out, stay well under glibc's
# 128 KiB mmap threshold, so their buffers are reused from the heap
# instead of taking fresh pages.
_CHUNK = 1 << 15


def _chunks(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces of a text, joined in order into chunks of at most
    ``_CHUNK`` characters.

    Pieces are joined a run of ``count`` at a time, where ``count``
    doubles while the joins come out short and shrinks to aim at half a
    chunk, so no piece's length is added up in Python; a join that comes
    out too long is cut.
    """
    limit = _CHUNK
    pieces = iter(pieces)
    count = 1
    while run := list(islice(pieces, count)):
        chunk = "".join(run)
        size = len(chunk)
        if size > limit:
            yield from (chunk[i : i + limit] for i in range(0, size, limit))
        elif size:
            yield chunk
        count = max(1, min(2 * count, count * limit // (2 * size or 1)))


def _terms_json(rank: int, classes: Mapping[int, Sequence[int]]) -> Iterator[str]:
    """The JSON text of group-ring terms, newline included, in chunks of
    at most ``_CHUNK`` characters, each yielded as soon as it is ready:
    {"rank":N,"terms":[{"word":"...","coeff":"<decimal>"},...]}.

    The ``expand`` command writes the chunks.  classes maps each word
    length m, shortest first, to the coefficients of the whole class of
    length m in ``_level(m, rank)`` order, where a 0 is a missing word: the
    classes that ``fpmom.oracle.iter_power_classes`` yields.  A class
    m >= 2 with one coefficient lists, stem by stem, each stem (a word of
    length m - t) followed by every word of length t that may follow it,
    so it is spelled one join per stem from the spelled words of lengths
    m - t and t; t is the longest length whose (2N - 1)^t terms fit in a
    chunk, which keeps both lists short.  Any other class is spelled term
    by term, and its terms are joined a few hundred at a time, so their
    strings never all live at once.
    """
    return _chunks(_terms_pieces(rank, classes))


def _terms_pieces(rank: int, classes: Mapping[int, Sequence[int]]) -> Iterator[str]:
    q = 2 * rank - 1
    lone, tails, spell = _speller(rank)
    follow = _follow(rank)
    gap = tails[0]  # between two letters
    widest = max(map(len, tails)) - len(gap)  # the longest letter
    # kept[n]: the spelled words of length n, in canonical order, and their
    # last digits; only the lengths that the last whole class used are kept
    kept = {1: ([spell(d) for d in follow[0]], [*follow[0]])}

    def spelled(n: int) -> tuple[list[str], list[int]]:
        base = max(b for b in kept if b <= n)
        texts, lasts = kept[base]
        for _ in range(base, n):
            texts = [p + tails[d] for p, e in zip(texts, lasts) for d in follow[e]]
            lasts = [d for e in lasts for d in follow[e]]
        return texts, lasts

    out: list[str] = []
    comma = ""  # before the next group of terms

    def flush() -> Iterator[str]:
        nonlocal comma
        yield comma
        yield ",".join(out)
        out.clear()
        comma = ","

    yield f'{{"rank":{rank},"terms":['
    for m, coeffs in classes.items():
        if m >= 2 and coeffs.count(coeffs[0]) == len(coeffs):
            if not coeffs[0]:
                continue
            if out:
                yield from flush()
            close = f'","coeff":"{coeffs[0]}"}}'
            between = close + ',{"word":"'  # between two words of the class
            width = len(between) + m * widest + (m - 1) * len(gap)  # the widest term
            t = 1
            while t < m - 1 and q ** (t + 1) * width <= _CHUNK:
                t += 1
            stems, lasts = spelled(m - t)
            suffixes = spelled(t)
            kept = {1: kept[1], t: suffixes, m - t: (stems, lasts)}
            # after[e]: "", then the words of length t that may follow a
            # last digit e: all but the block that begins with its inverse
            texts, block = suffixes[0], q ** (t - 1)
            after = [[]] + [
                ["", *texts[:i], *texts[i + block :]]
                for i in ((_inverse_digit(e) - 1) * block for e in follow[0])
            ]
            # (between + stem + gap).join(after[e]) is between, then each
            # word the stem begins, between them too
            per = max(1, _CHUNK // (q**t * width))  # stems per chunk
            skip = len(close) + (not comma)  # the first "between" closes no term
            for a in range(0, len(stems), per):
                b = a + per
                heads = [between + p + gap for p in stems[a:b]]
                chunk = "".join(map(str.join, heads, map(after.__getitem__, lasts[a:b])))
                yield chunk[skip:] if skip else chunk
                skip = 0
            yield close
            comma = ","
            continue
        for w, c in zip(_level(m, rank), coeffs):
            if c:
                out.append(f'{{"word":"{spell(w) if m > 1 else lone[w]}","coeff":"{c}"}}')
                if len(out) >= 256:
                    yield from flush()
    if out:
        yield from flush()
    yield "]}\n"
