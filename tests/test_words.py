import itertools

import pytest
from hypothesis import given, strategies as st

from fpmom.ring import RingElement, multiply, radial_sum, subgroup_word
from fpmom.words import (
    _CHUNK,
    Word,
    _chunks,
    _level,
    _level_index,
    format_word,
    reduced_word_count,
)


def _times(u, v):
    """The product of two words, through multiply of their monomials."""
    (word,) = multiply(RingElement(u.rank, {u: 1}), RingElement(v.rank, {v: 1})).terms
    return word


def _json_order(words, rank):
    """The spellings of the distinct words in the order to_json_dict writes them."""
    payload = RingElement(rank, dict.fromkeys(words, 1)).to_json_dict()
    return [t["word"] for t in payload["terms"]]


def test_reduction_cancels_adjacent_inverses():
    assert len(Word([1, -1], rank=2)) == 0
    assert Word([1, 2, -2, 1], rank=2).codes == (1, 1)
    assert Word([1, 2, -1, -2], rank=2).codes == (1, 2, -1, -2)


def test_reduction_cascades():
    # inner cancellation exposes a new adjacent pair
    assert len(Word([1, 2, -2, -1], rank=2)) == 0
    assert len(Word([2, 1, -1, 2, -2, -2], rank=2)) == 0


def test_letter_validation():
    with pytest.raises(ValueError):
        Word([0], rank=2)
    with pytest.raises(ValueError):
        Word([3], rank=2)
    with pytest.raises(TypeError):
        Word(["a"], rank=2)
    with pytest.raises(ValueError):
        Word([], rank=0)


def test_multiply_cancels_at_junction():
    h = Word([1, 2, -1, -2], rank=2)
    assert len(_times(h, h)) == 8
    assert len(_times(h, h.inverse())) == 0
    a = Word([1], rank=2)
    assert len(_times(a, a.inverse())) == 0
    ab = Word([1, 2], rank=2)
    ba_inv = Word([-2, 1], rank=2)
    assert _times(ab, ba_inv) == Word([1, 1], rank=2)


def test_inverse():
    h = Word([1, 2, -1, -2], rank=2)
    assert h.inverse() == Word([2, 1, -2, -1], rank=2)
    assert len(Word([], rank=1).inverse()) == 0
    assert Word([1], rank=2).inverse().codes == (-1,)


def test_word_powers():
    # powers of the subgroup generator h = abAB are plain concatenations
    h = Word([1, 2, -1, -2], rank=2)
    assert subgroup_word(2) == h
    assert len(subgroup_word(2, 3)) == 12
    assert subgroup_word(2, 0) == Word(rank=2)
    assert subgroup_word(2, -1) == h.inverse()
    assert subgroup_word(2, -2) == _times(h, h).inverse()
    assert subgroup_word(3, 2).codes == (1, 2, 3, -1, -2, -3) * 2


def test_format():
    assert format_word(Word([1, 2, -1, -2], rank=2)) == "abAB"
    assert format_word(Word([], rank=2)) == "e"
    assert format_word(Word([-1, 2], rank=2)) == "Ab"
    assert format_word(Word([27], rank=30)) == "g27"
    assert format_word(Word([1, -2], rank=30)) == "g1 G2"


def test_format_identity_collision_with_generator_five():
    # compact rendering of the lone fifth generator would read "e"
    g5 = Word([5], rank=5)
    assert format_word(g5) == "g5"
    assert format_word(Word(rank=5)) == "e"
    # inside longer words the letter 'e' is a plain generator
    assert format_word(Word([7, 5], rank=7)) == "ge"


@pytest.mark.parametrize(
    "word",
    [Word(rank=3), Word([5], rank=5), subgroup_word(2, -2), Word([27, -1, 14], rank=27)],
)
def test_repr_round_trips(word):
    # the repr spells the codes, not the text, so it evaluates back to the word
    assert eval(repr(word)) == word


def test_canonical_order():
    spelled = ["e", "a", "A", "b", "B", "aa", "ab"]
    codes = [(), (1,), (-1,), (2,), (-2,), (1, 1), (1, 2)]
    assert _json_order([Word(c, rank=2) for c in reversed(codes)], 2) == spelled
    assert _json_order([Word([-1], rank=2), Word([1], rank=2)], 2) == ["a", "A"]
    assert _json_order([Word([1, 1], rank=2), Word([-2], rank=2)], 2) == ["B", "aa"]


@pytest.mark.parametrize(
    "rank,max_length", [(1, 8), (2, 6), (3, 4), (5, 3), (7, 3), (26, 2), (27, 2)]
)
def test_spelling_is_injective(rank, max_length):
    # no two words of one rank print alike: the lone "g5" against "e", the
    # last compact rank, and the first indexed one
    words = [word for m in range(max_length + 1) for word in radial_sum(m, rank).terms]
    assert len({format_word(word) for word in words}) == len(words)


def test_equality_includes_rank():
    assert Word([1], rank=2) != Word([1], rank=3)
    assert Word([1], rank=2) == Word([1], rank=2)


def test_reduced_words_hash_apart():
    # hash(-1) == hash(-2) in CPython; the inverse letters A and B must not
    # make words collide (hashing the signed codes gave these words 4,057 values)
    words = list(radial_sum(8, 2).terms)
    assert len(words) == 8748
    assert len({hash(w) for w in words}) == 8748


def test_reduced_word_count_formula():
    assert reduced_word_count(0, 2) == 1
    assert reduced_word_count(1, 2) == 4
    assert reduced_word_count(2, 2) == 12
    assert reduced_word_count(3, 2) == 36
    assert reduced_word_count(1, 1) == 2
    assert reduced_word_count(5, 1) == 2
    assert reduced_word_count(2, 3) == 30


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
def test_enumeration_matches_count(rank, length):
    words = list(radial_sum(length, rank).terms)
    assert len(words) == reduced_word_count(length, rank)
    assert len(set(words)) == len(words)
    assert all(len(w) == length for w in words)
    by_codes = sorted(words, key=lambda w: [(abs(c), c < 0) for c in w.codes])
    assert _json_order(words, rank) == [format_word(w) for w in by_codes]


def test_enumeration_is_exhaustive():
    # every raw length-3 sequence that stays length 3 under reduction is listed
    alphabet = [1, -1, 2, -2]
    raw = {
        Word(seq, rank=2)
        for seq in itertools.product(alphabet, repeat=3)
    }
    reduced_len3 = {w for w in raw if len(w) == 3}
    assert reduced_len3 == set(radial_sum(3, 2).terms)


# ---- properties ----

def _word_strategy(max_rank=4, max_len=12):
    return st.integers(1, max_rank).flatmap(
        lambda rank: st.tuples(
            st.just(rank),
            st.lists(
                st.integers(-rank, rank).filter(lambda c: c != 0),
                max_size=max_len,
            ),
        )
    )


@given(_word_strategy())
def test_reduction_idempotent(rank_codes):
    rank, codes = rank_codes
    w = Word(codes, rank=rank)
    assert Word(w.codes, rank=rank) == w


@given(_word_strategy(max_len=8), _word_strategy(max_len=8))
def test_multiplication_associative(rc1, rc2):
    rank = max(rc1[0], rc2[0])
    u = Word(rc1[1], rank=rank)
    v = Word(rc2[1], rank=rank)
    w = Word(list(reversed(rc1[1])), rank=rank)
    assert _times(_times(u, v), w) == _times(u, _times(v, w))


@given(_word_strategy())
def test_inverse_law(rank_codes):
    rank, codes = rank_codes
    w = Word(codes, rank=rank)
    assert len(_times(w, w.inverse())) == 0
    assert len(_times(w.inverse(), w)) == 0
    assert len(w.inverse()) == len(w)


@pytest.mark.parametrize("rank,k", [(2, 2_000), (25, 160)])
def test_long_word_round_trip(rank, k):
    # h^k has 8,000 letters, built as one packed int; spelling and
    # unpacking peel a letter off the whole int, so they are quadratic in
    # the length and this size keeps the test fast
    h = subgroup_word(rank, k)
    codes = h.codes
    assert len(codes) == len(h) == 8_000
    assert codes[: 2 * rank] == tuple(range(1, rank + 1)) + tuple(range(-1, -rank - 1, -1))
    assert Word(codes, rank=rank) == h
    text = format_word(h)
    assert text == format_word(subgroup_word(rank)) * k
    assert h.inverse() == subgroup_word(rank, -k)
    assert len(Word(codes + h.inverse().codes, rank=rank)) == 0


@pytest.mark.parametrize("rank, max_length", [(1, 8), (2, 6), (3, 5), (5, 4), (8, 3), (27, 2)])
def test_level_index_inverts_level(rank, max_length):
    # the index of each word of a class in _level's order, which the class
    # lists of powers of G share
    for m in range(max_length + 1):
        level = _level(m, rank)
        assert level == sorted(level)
        assert [_level_index(w, rank) for w in level] == list(range(len(level)))


@pytest.mark.parametrize(
    "sizes",
    [
        [0, 1, 2, 0],
        [5] * 40_000,
        [100] * 3000 + [30_000] * 5 + [7] * 100,
        [0, 1, 1 << 15, 1, (1 << 15) + 1, 3 << 15, 2, 1 << 16, 5, 0],
        [40, 3000, 70_000, 12] * 20,
    ],
    ids=["tiny", "many-small", "small-then-large", "around-the-bound", "mixed"],
)
def test_chunks_are_bounded_and_join_to_the_pieces(sizes):
    # none is longer than _CHUNK, and small pieces share chunks
    pieces = [chr(97 + i % 26) * n for i, n in enumerate(sizes)]
    chunks = list(_chunks(iter(pieces)))
    assert "".join(chunks) == "".join(pieces)
    assert max(map(len, chunks)) <= _CHUNK
    if max(sizes) < _CHUNK // 2:
        assert len(chunks) < len(pieces)
    assert list(_chunks([])) == []
