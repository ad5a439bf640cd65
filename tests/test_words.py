import pytest
from hypothesis import given, strategies as st

from fpmom.ring import Hyperword
from fpmom.words import (
    Word,
    enumerate_reduced_words,
    format_word,
    parse_word,
    reduced_word_count,
)


def test_reduction_cancels_adjacent_inverses():
    assert Word([1, -1], rank=2).is_identity
    assert Word([1, 2, -2, 1], rank=2).codes == (1, 1)
    assert Word([1, 2, -1, -2], rank=2).codes == (1, 2, -1, -2)


def test_reduction_cascades():
    # inner cancellation exposes a new adjacent pair
    assert Word([1, 2, -2, -1], rank=2).is_identity
    assert Word([2, 1, -1, 2, -2, -2], rank=2).is_identity


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
    h = parse_word("abAB", 2)
    assert len(h * h) == 8
    assert (h * h.inverse()).is_identity
    a = Word([1], rank=2)
    assert (a * a.inverse()).is_identity
    ab = Word([1, 2], rank=2)
    ba_inv = Word([-2, 1], rank=2)
    assert ab * ba_inv == Word([1, 1], rank=2)


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        Word([1], rank=2) * Word([1], rank=3)


def test_inverse():
    h = parse_word("abAB", 2)
    assert h.inverse() == parse_word("baBA", 2)
    assert Word([], rank=1).inverse().is_identity
    assert Word([1], rank=2).inverse().codes == (-1,)


def test_word_powers():
    # powers of a cyclically reduced word come from its Hyperword
    h = Hyperword(parse_word("abAB", 2))
    assert len(h.power(3)) == 12
    assert h.power(0) == Word.identity(2)
    assert h.power(-1) == h.word.inverse()
    assert h.power(-2) == (h.word * h.word).inverse()
    a = Hyperword(Word([1], rank=1))
    assert a.power(5).codes == (1, 1, 1, 1, 1)


def test_parse_compact():
    assert parse_word("abAB", 2).codes == (1, 2, -1, -2)
    assert parse_word("e", 2).is_identity
    assert parse_word("", 2).is_identity
    assert parse_word("aA", 2).is_identity


def test_parse_indexed():
    assert parse_word("g1 g2 G1 G2", 2) == parse_word("abAB", 2)
    assert parse_word("g27", 30).codes == (27,)
    assert parse_word("G3", 3).codes == (-3,)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_word("ab?", 2)
    with pytest.raises(ValueError):
        parse_word("c", 2)  # beyond rank
    with pytest.raises(ValueError):
        parse_word("g3", 2)
    with pytest.raises(ValueError):
        parse_word("g0", 2)
    with pytest.raises(ValueError):
        parse_word("gx 1", 2)
    with pytest.raises(ValueError):
        parse_word("ab ba", 2)  # compact form takes no separators


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
    assert parse_word(format_word(g5), 5) == g5
    # inside longer words the letter 'e' is a plain generator
    w = Word([7, 5], rank=7)
    assert format_word(w) == "ge"
    assert parse_word("ge", 7) == w


def test_canonical_order():
    words = [parse_word(s, 2) for s in ("e", "a", "A", "b", "B", "aa", "ab")]
    assert sorted(words) == words
    assert Word([1], rank=2) < Word([-1], rank=2)
    assert Word([-2], rank=2) < Word([1, 1], rank=2)
    with pytest.raises(ValueError):
        Word([1], rank=2) < Word([1], rank=3)


def test_equality_includes_rank():
    assert Word([1], rank=2) != Word([1], rank=3)
    assert Word([1], rank=2) == Word([1], rank=2)


def test_reduced_words_hash_apart():
    # hash(-1) == hash(-2) in CPython; the inverse letters A and B must not
    # make words collide (hashing the signed codes gave these words 4,057 values)
    words = list(enumerate_reduced_words(8, 2))
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
    words = list(enumerate_reduced_words(length, rank))
    assert len(words) == reduced_word_count(length, rank)
    assert len(set(words)) == len(words)
    assert all(len(w) == length for w in words)
    assert sorted(words) == words


def test_enumeration_is_exhaustive():
    # every raw length-3 sequence that stays length 3 under reduction is listed
    import itertools

    alphabet = [1, -1, 2, -2]
    raw = {
        Word(seq, rank=2)
        for seq in itertools.product(alphabet, repeat=3)
    }
    reduced_len3 = {w for w in raw if len(w) == 3}
    assert reduced_len3 == set(enumerate_reduced_words(3, 2))


def test_cyclically_reduced():
    assert parse_word("abAB", 2).is_cyclically_reduced
    assert not parse_word("abA", 2).is_cyclically_reduced
    assert Word.identity(2).is_cyclically_reduced
    assert Word([1], rank=2).is_cyclically_reduced


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


@given(_word_strategy())
def test_parse_format_round_trip(rank_codes):
    rank, codes = rank_codes
    w = Word(codes, rank=rank)
    assert parse_word(format_word(w), rank) == w


@given(_word_strategy(max_len=8), _word_strategy(max_len=8))
def test_multiplication_associative(rc1, rc2):
    rank = max(rc1[0], rc2[0])
    u = Word(rc1[1], rank=rank)
    v = Word(rc2[1], rank=rank)
    w = Word(list(reversed(rc1[1])), rank=rank)
    assert (u * v) * w == u * (v * w)


@given(_word_strategy())
def test_inverse_law(rank_codes):
    rank, codes = rank_codes
    w = Word(codes, rank=rank)
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity
    assert len(w.inverse()) == len(w)


@given(_word_strategy(max_rank=26))
def test_round_trip_indexed_form(rank_codes):
    rank, codes = rank_codes
    w = Word(codes, rank=rank)
    indexed = " ".join(f"g{c}" if c > 0 else f"G{-c}" for c in w.codes) or "e"
    assert parse_word(indexed, rank) == w
