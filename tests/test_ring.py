import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fpmom.laurent import LaurentPolynomial
from fpmom.oracle import DEFAULT_SUPPORT_CAP, SupportCapError, _times_g, iter_power_classes
from fpmom.ring import (
    RingElement,
    conditional_expectation,
    generating_operator,
    iter_powers,
    multiply,
    power,
    radial_sum,
)
import fpmom.words
from fpmom.words import Word, _level, _terms_json, format_word, reduced_word_count, subgroup_word


def _combination(*scaled):
    """The element sum(c * x) over the (c, x) pairs, built from their terms."""
    total = {}
    for c, x in scaled:
        for word, d in x.terms.items():
            total[word] = total.get(word, 0) + c * d
    return RingElement(scaled[0][1].rank, total)


def _times(u, v):
    """The product of two words, through multiply of their monomials."""
    (word,) = multiply(RingElement(u.rank, {u: 1}), RingElement(v.rank, {v: 1})).terms
    return word


def _augmentation(x):
    """The sum of the coefficients: the trivial representation."""
    return sum(x.terms.values())


def test_constructor_prunes_and_validates():
    x = RingElement(2, {Word([1], rank=2): 1, Word([2], rank=2): 0})
    assert x.support_size == 1
    assert x.coefficient(Word([1], rank=2)) == 1
    assert x.coefficient(Word([2], rank=2)) == 0
    with pytest.raises(ValueError):
        RingElement(2, {Word([1], rank=3): 1})
    with pytest.raises(TypeError):
        RingElement(2, {"a": 1})  # type: ignore[dict-item]
    with pytest.raises(ValueError):
        RingElement(0)


def test_constructor_rejects_bool_coefficients():
    # bool is an int subclass; to_json_dict would write "coeff": "True"
    with pytest.raises(TypeError):
        RingElement(2, {Word([1, 2], rank=2): True})
    with pytest.raises(TypeError):
        RingElement(2, {Word([1], rank=2): False})


def test_zero_one_monomial():
    assert RingElement(2).support_size == 0
    e = RingElement.one(2)
    assert e.trace() == 1
    assert e.support_size == 1
    m = RingElement(2, {Word([1, 2], rank=2): 3})
    assert m.coefficient(Word([1, 2], rank=2)) == 3
    assert m.rank == 2


def test_radial_sum_sizes():
    assert radial_sum(0, 2) == RingElement.one(2)
    assert radial_sum(1, 2).support_size == 4
    assert radial_sum(2, 2).support_size == 12
    assert radial_sum(3, 2).support_size == 36
    assert radial_sum(1, 3).support_size == 6
    assert all(c == 1 for c in radial_sum(3, 2).terms.values())


def test_generating_operator():
    g = generating_operator(2)
    assert g == radial_sum(1, 2)
    assert g.coefficient(Word([1], rank=2)) == 1
    assert g.coefficient(Word([-1], rank=2)) == 1
    assert g.trace() == 0


def test_length_one_square():
    # X1 * X1 = X2 + 2N e
    for rank in (1, 2, 3):
        x1 = radial_sum(1, rank)
        expected = _combination((1, radial_sum(2, rank)), (2 * rank, RingElement.one(rank)))
        assert multiply(x1, x1) == expected


def test_length_one_against_longer_class():
    # X1 * Xn = X(n+1) + (2N-1) X(n-1) for n >= 2
    for rank in (1, 2, 3):
        x1 = radial_sum(1, rank)
        for n in (2, 3, 4):
            lhs = multiply(x1, radial_sum(n, rank))
            rhs = _combination((1, radial_sum(n + 1, rank)), (2 * rank - 1, radial_sum(n - 1, rank)))
            assert lhs == rhs, (rank, n)


def test_small_powers():
    g = generating_operator(2)
    e = RingElement.one(2)
    assert power(g, 0) == e
    assert power(g, 1) == g
    assert power(g, 2) == _combination((1, radial_sum(2, 2)), (4, e))
    assert power(g, 3) == _combination((1, radial_sum(3, 2)), (7, radial_sum(1, 2)))
    with pytest.raises(ValueError):
        power(g, -1)


def test_iter_powers_matches_power():
    g = generating_operator(2)
    for n, gn in iter_powers(g, 5):
        assert gn == power(g, n)


def test_trace():
    g = generating_operator(2)
    assert power(g, 2).trace() == 4
    assert power(g, 3).trace() == 0
    assert RingElement(2).trace() == 0
    assert power(g, 4).trace() == 28


def test_augmentation():
    g = generating_operator(2)
    assert _augmentation(g) == 4
    assert _augmentation(power(g, 3)) == 64
    assert _augmentation(RingElement(2)) == 0


def test_augmentation_multiplicative():
    x = RingElement(2, {Word([1], rank=2): 2, Word([2, -1], rank=2): -3, Word([], rank=2): 1})
    y = RingElement(2, {Word([-2], rank=2): 5, Word([1, 2], rank=2): 1})
    assert _augmentation(multiply(x, y)) == _augmentation(x) * _augmentation(y)


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        multiply(generating_operator(2), generating_operator(3))


def test_support_cap_on_multiply():
    g = generating_operator(2)
    with pytest.raises(SupportCapError) as exc:
        power(g, 5, support_cap=10)
    assert exc.value.cap == 10
    # generous cap leaves the result alone
    assert power(g, 5, support_cap=10**6).support_size == 4 * 81 + 4 * 9 + 4


@pytest.mark.parametrize("rank, n, support", [(2, 5, 364), (3, 4, 781)])
def test_support_cap_boundary_on_powers(rank, n, support):
    # G's coefficients are all positive, so no term cancels to zero and a
    # product refuses exactly when its support outgrows the cap
    g = generating_operator(rank)
    assert support == sum(reduced_word_count(m, rank) for m in range(n % 2, n + 1, 2))
    assert power(g, n, support_cap=support).support_size == support
    with pytest.raises(SupportCapError) as exc:
        power(g, n, support_cap=support - 1)
    assert exc.value.cap == support - 1 and exc.value.needed >= support


def test_support_cap_counts_terms_that_only_cancellations_make():
    # ab * B and cb * B: no letter extends, both cancel to new words
    x = RingElement(3, {Word([1, 2], rank=3): 1, Word([3, 2], rank=3): 1})
    y = RingElement(3, {Word([-2], rank=3): 1})
    a, c = Word([1], rank=3), Word([3], rank=3)
    assert dict(multiply(x, y, support_cap=2).terms) == {a: 1, c: 1}
    with pytest.raises(SupportCapError):
        multiply(x, y, support_cap=1)


def test_support_cap_on_radial_sum():
    with pytest.raises(SupportCapError):
        radial_sum(30, 2)  # 4 * 3^29 words far exceeds the default cap
    with pytest.raises(SupportCapError):
        radial_sum(3, 2, support_cap=35)
    assert radial_sum(3, 2, support_cap=36).support_size == 36
    assert DEFAULT_SUPPORT_CAP == 10**8


def _exponent_of(word):
    """k with word == h**k, or None off the subgroup: a signed-code
    reference for h = g1 ... gN g1^-1 ... gN^-1."""
    h = (*range(1, word.rank + 1), *range(-1, -word.rank - 1, -1))
    k, rest = divmod(len(word), len(h))
    if rest:
        return None
    if word.codes == h * k:
        return k
    if word.codes == tuple(-c for c in reversed(h)) * k:
        return -k
    return None


def test_hyperword_canonical():
    h = subgroup_word(2)
    assert h == Word([1, 2, -1, -2], rank=2)
    assert len(h) == 4
    h3 = subgroup_word(3)
    assert h3 == Word([1, 2, 3, -1, -2, -3], rank=3)
    assert len(h3) == 6
    with pytest.raises(ValueError):
        subgroup_word(1)


def test_hyperword_powers_and_exponents():
    h = subgroup_word(2)
    assert len(subgroup_word(2, 0)) == 0
    assert subgroup_word(2, 2) == _times(h, h)
    assert subgroup_word(2, -1) == h.inverse()
    assert len(subgroup_word(2, 3)) == 12
    assert _exponent_of(Word(rank=2)) == 0
    assert _exponent_of(h) == 1
    assert _exponent_of(subgroup_word(2, -2)) == -2
    assert _exponent_of(Word([1, 2], rank=2)) is None
    assert _exponent_of(Word([1, 2, -1, -2, 1, 2, -1, -2], rank=2)) == 2
    assert _exponent_of(Word([1, 2, -1, -2, 2, 1, -2, -1], rank=2)) == 0  # cancels to the identity
    # right length, wrong word
    assert _exponent_of(Word([1, 2, -1, -2, 1, -2, -1, 2], rank=2)) is None


def test_hyperword_deep_powers():
    for k in (5000, -5000):
        big = subgroup_word(2, k)
        assert len(big) == 4 * 5000
        assert _exponent_of(big) == k
    assert subgroup_word(2, 5000) == _times(subgroup_word(2, 4999), subgroup_word(2))
    assert subgroup_word(2, -5000) == subgroup_word(2, 5000).inverse()


def test_conditional_expectation_small_powers():
    g = generating_operator(2)
    assert conditional_expectation(power(g, 2)) == LaurentPolynomial({0: 4})
    assert not conditional_expectation(power(g, 3))
    assert conditional_expectation(power(g, 4)) == LaurentPolynomial(
        {1: 1, -1: 1, 0: 28}
    )


def test_conditional_expectation_order_eight():
    g = generating_operator(2)
    assert conditional_expectation(power(g, 8)) == LaurentPolynomial(
        {2: 1, -2: 1, 1: 202, -1: 202, 0: 2092}
    )


def test_expectation_trace_consistency():
    g = generating_operator(2)
    for n, gn in iter_powers(g, 6):
        assert conditional_expectation(gn).coefficient(0) == gn.trace()


def test_expectation_of_radial_classes():
    # X_m holds exactly the h-powers with exponent +-m/(2N) when 2N | m
    for m in range(0, 13):
        got = conditional_expectation(radial_sum(m, 2))
        if m == 0:
            assert got == LaurentPolynomial({0: 1})
        elif m % 4 == 0:
            k = m // 4
            assert got == LaurentPolynomial({k: 1, -k: 1}), m
        else:
            assert not got, m
    for m in range(0, 9):
        got = conditional_expectation(radial_sum(m, 3))
        if m == 0:
            assert got == LaurentPolynomial({0: 1})
        elif m % 6 == 0:
            assert got == LaurentPolynomial({m // 6: 1, -(m // 6): 1})
        else:
            assert not got, m


def _embedded(p, rank):
    """The element with coefficient c at h**k for each term c h^k of p."""
    return RingElement(rank, {subgroup_word(rank, k): c for k, c in p.items()})


def test_embed_and_idempotence():
    # E is left inverse to sending h^k back to the word h**k
    p = LaurentPolynomial({1: 1, -1: 1, 0: 28})
    x = _embedded(p, 2)
    assert x.support_size == 3
    assert x.trace() == 28
    assert conditional_expectation(x) == p
    assert _embedded(LaurentPolynomial(), 2).support_size == 0


def _spelled_words(rank, max_length):
    """Every reduced word up to max_length, by its format_word spelling."""
    words = [word for m in range(max_length + 1) for word in radial_sum(m, rank).terms]
    by_text = {format_word(word): word for word in words}
    assert len(by_text) == len(words)
    return by_text


def _decode_element(payload, by_text):
    terms = {by_text[t["word"]]: int(t["coeff"]) for t in payload["terms"]}
    return RingElement(payload["rank"], terms)


def test_json_round_trip_and_order():
    g = generating_operator(2)
    x = power(g, 3)
    payload = x.to_json_dict()
    assert payload["rank"] == 2
    by_text = _spelled_words(2, 3)
    words = [entry["word"] for entry in payload["terms"]]
    assert words == sorted(words, key=lambda s: _order_key(by_text[s]))
    assert words[0] == "a"  # shortest class first, 'a' before its inverse
    assert all(isinstance(entry["coeff"], str) for entry in payload["terms"])
    assert _decode_element(payload, by_text) == x


def test_json_handles_big_coefficients():
    big = 10**40
    x = RingElement(2, {Word([], rank=2): big, Word([1], rank=2): -big})
    payload = x.to_json_dict()
    assert payload["terms"][0]["coeff"] == str(big)
    assert _decode_element(payload, _spelled_words(2, 1)) == x


# ---- randomized ring properties ----

_RANK = 2
_ALPHABET = [1, -1, 2, -2]


@st.composite
def elements(draw, max_support=8, max_len=3, coeff_bound=5):
    support = draw(st.integers(1, max_support))
    terms = {}
    for _ in range(support):
        codes = draw(st.lists(st.sampled_from(_ALPHABET), max_size=max_len))
        word = Word(codes, rank=_RANK)
        coeff = draw(
            st.integers(-coeff_bound, coeff_bound).filter(lambda c: c != 0)
        )
        terms[word] = terms.get(word, 0) + coeff
    return RingElement(_RANK, {k: v for k, v in terms.items() if v})


@given(elements(), elements(), elements())
@settings(max_examples=60, deadline=None)
def test_multiplication_associative(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@given(elements(), elements())
@settings(max_examples=60, deadline=None)
def test_trace_is_tracial(x, y):
    assert multiply(x, y).trace() == multiply(y, x).trace()


@given(elements())
@settings(max_examples=60, deadline=None)
def test_unit_is_neutral(x):
    e = RingElement.one(_RANK)
    assert multiply(e, x) == x
    assert multiply(x, e) == x


@given(elements())
@settings(max_examples=60, deadline=None)
def test_expectation_idempotent(x):
    p = conditional_expectation(x)
    assert conditional_expectation(_embedded(p, _RANK)) == p


@given(elements(), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_expectation_bimodule_shift(x, p, q):
    # E(h^p x h^q) = shift of E(x) by p + q
    left = RingElement(_RANK, {subgroup_word(_RANK, p): 1})
    right = RingElement(_RANK, {subgroup_word(_RANK, q): 1})
    moved = multiply(multiply(left, x), right)
    assert conditional_expectation(moved) == conditional_expectation(x).shifted(p + q)


@given(elements(), elements())
@settings(max_examples=60, deadline=None)
def test_augmentation_is_a_homomorphism(x, y):
    # a product that lost or doubled a term would break this
    assert _augmentation(multiply(x, y)) == _augmentation(x) * _augmentation(y)


# ---- packed words and the packed kernel against signed-code references ----


def _reduced(codes):
    """Free reduction with a plain signed-code stack."""
    stack = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def _spelling(codes, rank):
    """The compact spelling up to rank 26 (lone generator 5 as "g5"), indexed above."""
    if not codes:
        return "e"
    if rank <= 26:
        text = "".join(chr(96 + c) if c > 0 else chr(64 - c) for c in codes)
        return "g5" if text == "e" else text
    return " ".join(f"g{c}" if c > 0 else f"G{-c}" for c in codes)


def _order_key(word):
    """Length first, then letter by letter, each generator before its inverse."""
    return (len(word.codes), tuple((abs(c), 0 if c > 0 else 1) for c in word.codes))


# k = (2N).bit_length() bits per letter: 2 at rank 1, 4 at rank 4 (2N = 8),
# 5 at rank 8, 6 at rank 27 (indexed spelling)
_KERNEL_RANKS = (1, 2, 3, 4, 5, 6, 7, 8, 27)


def _random_codes(rng, rank, max_len):
    return [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(rng.randint(0, max_len))]


def _random_word_of(rng, rank, max_len):
    return Word(_random_codes(rng, rank, max_len), rank=rank)


def _random_terms(rng, rank, size, max_len):
    terms = {}
    for _ in range(size):
        word = _random_word_of(rng, rank, max_len)
        terms[word] = terms.get(word, 0) + rng.choice([c for c in range(-4, 5) if c])
    if rank >= 5:
        terms[Word([5], rank=rank)] = 7  # spelled "g5", not the identity's "e"
    return {word: c for word, c in terms.items() if c}


@pytest.mark.parametrize("rank", _KERNEL_RANKS)
def test_packed_word_matches_code_references(rank):
    rng = random.Random(4000 + rank)
    raw = [_random_codes(rng, rank, 9) for _ in range(300)] + [[], [rank], [-rank]]
    words = [Word(codes, rank=rank) for codes in raw]
    for codes, word in zip(raw, words):
        assert word.codes == _reduced(codes)
        assert len(word) == len(word.codes)
        assert format_word(word) == _spelling(word.codes, rank)
        assert Word(word.codes, rank=rank) == word
        assert word.inverse().codes == tuple(-c for c in reversed(word.codes))
    for u, v in zip(words, reversed(words)):
        assert _times(u, v).codes == _reduced(u.codes + v.codes)


@pytest.mark.parametrize("rank", _KERNEL_RANKS)
def test_packed_product_matches_word_product(rank):
    rng = random.Random(4100 + rank)
    for _ in range(20):
        xt = _random_terms(rng, rank, 8, 5)
        yt = _random_terms(rng, rank, 8, 5)
        expected = {}
        for u, cu in xt.items():
            for v, cv in yt.items():
                uv = _reduced(u.codes + v.codes)
                expected[uv] = expected.get(uv, 0) + cu * cv
        got = multiply(RingElement(rank, xt), RingElement(rank, yt))
        assert {word.codes: c for word, c in got.terms.items()} == {
            codes: c for codes, c in expected.items() if c
        }


@pytest.mark.parametrize("rank", _KERNEL_RANKS)
def test_one_letter_product_matches_word_product(rank):
    # the one letter-by-letter kernel on right factors of one-letter words,
    # including a sum that cancels to zero
    rng = random.Random(4150 + rank)
    letters = [c for i in range(1, rank + 1) for c in (i, -i)]
    for _ in range(20):
        xt = _random_terms(rng, rank, 10, 5)
        xt[Word(rank=rank)] = rng.choice((-3, 2))
        chosen = rng.sample(letters, rng.randint(1, len(letters)))
        yt = {Word([c], rank=rank): rng.choice((-2, -1, 1, 3)) for c in chosen}
        expected = {}
        for u, cu in xt.items():
            for v, cv in yt.items():
                uv = _reduced(u.codes + v.codes)
                expected[uv] = expected.get(uv, 0) + cu * cv
        got = multiply(RingElement(rank, xt), RingElement(rank, yt))
        assert {word.codes: c for word, c in got.terms.items()} == {
            codes: c for codes, c in expected.items() if c
        }
    # g1 * gN and (g1 gN gN) * gN^-1 both give g1 gN, and their sum is zero
    x = RingElement(rank, {Word([1], rank=rank): 1, Word([1, rank, rank], rank=rank): -1})
    y = RingElement(rank, {Word([rank], rank=rank): 1, Word([-rank], rank=rank): 1})
    got = multiply(x, y).terms
    assert dict(got) == {Word([1, -rank], rank=rank): 1, Word([1, rank, rank, rank], rank=rank): -1}
    assert 0 not in got.values()


@pytest.mark.parametrize("rank", _KERNEL_RANKS)
def test_packed_terms_round_trip_and_json_order(rank):
    rng = random.Random(4200 + rank)
    for _ in range(20):
        terms = _random_terms(rng, rank, 12, 7)
        x = RingElement(rank, terms)
        assert dict(x.terms) == terms
        assert all(type(word) is Word for word in x.terms)
        assert RingElement(rank, x.terms) == x
        for word, c in terms.items():
            assert x.coefficient(word) == c
        payload = x.to_json_dict()["terms"]
        order = sorted(terms, key=_order_key)
        assert [t["word"] for t in payload] == [_spelling(word.codes, rank) for word in order]
        assert [t["coeff"] for t in payload] == [str(terms[word]) for word in order]
        assert x.to_json() == _reference_json(rank, terms)
    assert RingElement(rank).to_json() == f'{{"rank":{rank},"terms":[]}}\n'
    assert RingElement.one(rank).to_json() == _reference_json(rank, {Word(rank=rank): 1})
    if rank > 26:
        assert RingElement(rank, {Word([1, -27], rank=rank): 1}).to_json_dict()["terms"] == [
            {"word": "g1 G27", "coeff": "1"}
        ]


def _reference_json(rank, terms):
    """The text of expand's schema for a word -> coefficient map, through json.dumps."""
    payload = {
        "rank": rank,
        "terms": [
            {"word": _spelling(word.codes, rank), "coeff": str(terms[word])}
            for word in sorted(terms, key=_order_key)
        ],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


# supports of 19,531, 7,381, 2,863 and 39,364 terms: to_json spells each
# term on its own, the writer each class one stem at a time, several chunks
# per class, and rank 5 spells generator 5 both as "g5" and as "e"
@pytest.mark.parametrize("rank, n", [(3, 6), (5, 4), (27, 2), (2, 9)])
def test_json_text_of_powers_matches_reference(rank, n):
    x = power(generating_operator(rank), n)
    text = _reference_json(rank, dict(x.terms))
    assert x.to_json() == text
    for _, classes in iter_power_classes(rank, n):
        pass
    assert "".join(_terms_json(rank, classes)) == text


# the longest class built at each rank: 5 (k = 2), 4 (k = 3), 3 (k = 4),
# 3 (k = 5) and 2 (indexed spelling)
_CLASS_LENGTHS = {1: 5, 2: 4, 5: 3, 8: 3, 27: 2}


@pytest.mark.parametrize("rank", sorted(_CLASS_LENGTHS))
def test_json_spells_whole_classes_and_other_runs_alike(rank):
    # _terms_json spells a whole class with one coefficient one stem at a
    # time and any other class term by term, and to_json spells every term
    # on its own; each class m >= 2 comes whole, whole with one term
    # changed, with one word missing, or as zeros only, which the writer
    # skips, beside the identity and the lone letters (at rank 5, "g5")
    rng = random.Random(4400 + rank)
    top = _CLASS_LENGTHS[rank]
    lengths = range(2, top + 1)
    classes = {m: list(radial_sum(m, rank).terms) for m in lengths}
    for kinds in itertools.product(("whole", "changed", "missing", "zero"), repeat=len(lengths)):
        terms = {Word(rank=rank): 7, **dict.fromkeys(radial_sum(1, rank).terms, -2)}
        for m, kind in zip(lengths, kinds):
            if kind == "zero":
                continue
            c = rng.choice((1, -3, 12345678901234567890))
            words = classes[m]
            terms.update(dict.fromkeys(words, c))
            odd = words[rng.choice((0, -1, rng.randrange(len(words))))]
            if kind == "changed":
                terms[odd] = c + 1
            elif kind == "missing":
                del terms[odd]
        text = _reference_json(rank, terms)
        assert RingElement(rank, terms).to_json() == text
        packed = {word._packed: c for word, c in terms.items()}
        lists = {m: [packed.get(w, 0) for w in _level(m, rank)] for m in range(top + 1)}
        assert "".join(_terms_json(rank, lists)) == text


@pytest.mark.parametrize("chunk", [40, 300, 5000])
@pytest.mark.parametrize("rank, n", [(1, 7), (2, 7), (5, 4), (27, 2)])
def test_json_chunks_stay_bounded_at_any_bound(monkeypatch, rank, n, chunk):
    # a small bound cuts terms, packs several stems in a chunk or takes
    # short stems, and the chunks still join to the whole text
    for _, classes in iter_power_classes(rank, n):
        pass
    terms = dict(power(generating_operator(rank), n).terms)
    monkeypatch.setattr(fpmom.words, "_CHUNK", chunk)
    chunks = list(_terms_json(rank, classes))
    text = "".join(chunks)
    assert text == _reference_json(rank, terms)
    assert max(map(len, chunks)) <= chunk
    assert len(chunks) > 1 or len(text) <= chunk


def test_coefficient_refuses_a_non_word():
    # as the constructor refuses a key that is not a Word
    g2 = power(generating_operator(2), 2)
    with pytest.raises(TypeError, match="Word"):
        g2.coefficient("e")  # type: ignore[arg-type]
    with pytest.raises(TypeError, match="Word"):
        g2.coefficient(0)  # type: ignore[arg-type]
    assert g2.coefficient(Word(rank=2)) == 4


def test_coefficient_refuses_a_word_of_another_rank():
    # as the constructor refuses it; it used to read 0
    g2 = power(generating_operator(2), 2)
    with pytest.raises(ValueError, match=r"^word 'e' has rank 3, element has rank 2$"):
        g2.coefficient(Word(rank=3))
    with pytest.raises(ValueError, match=r"^word 'aa' has rank 1, element has rank 2$"):
        g2.coefficient(Word([1, 1], rank=1))


def _element_of(classes, rank):
    """The element whose class lists, in ``_level`` order, are classes."""
    return RingElement(rank, {
        Word._of(w, rank): c
        for m, coeffs in classes.items()
        for w, c in zip(_level(m, rank), coeffs)
    })


# ranks 1, 2 and 3 reach length 5; the larger ranks stop at their last class
# of at most 8,000 words
@pytest.mark.parametrize("rank", (1, 2, 3, 5, 8, 27))
def test_class_kernel_matches_multiply_on_any_classes(rank):
    # random coefficients, zeros (missing words) and big ints included: the
    # classes of powers of G are uniform, so only input like this pins the
    # law that puts the children of word i at i q ... i q + q - 1
    rng = random.Random(4500 + rank)
    g = generating_operator(rank)
    lengths = [m for m in range(6) if reduced_word_count(m, rank) <= 8000]
    for _ in range(4):
        chosen = sorted(rng.sample(lengths, rng.randint(1, len(lengths))))
        classes = {
            m: [rng.choice((0, 0, 1, -1, 2, 7, -3, 10**20 + 3)) for _ in range(reduced_word_count(m, rank))]
            for m in chosen
        }
        got = _times_g(classes, rank)
        assert list(got) == sorted(got)
        assert all(len(coeffs) == reduced_word_count(m, rank) for m, coeffs in got.items())
        assert _element_of(got, rank) == multiply(_element_of(classes, rank), g)


@pytest.mark.parametrize("rank, n", [(1, 9), (2, 7), (3, 5), (8, 3), (27, 2)])
def test_power_classes_match_iter_powers(rank, n):
    g = generating_operator(rank)
    pairs = zip(iter_powers(g, n), iter_power_classes(rank, n))
    for (n1, gn), (n2, classes) in pairs:
        assert n1 == n2
        assert set(classes) == set(range(n1 % 2, n1 + 1, 2))
        assert _element_of(classes, rank) == gn
    assert list(iter_power_classes(rank, 0)) == []


# (rank, n, support) -> the count that iter_power_classes names when it
# refuses G**n at cap support - 1 and support - 2: the extensions of the
# last product when they exceed the cap, else its support (at even n the
# extensions miss the identity, so they number support - 1)
_CLASS_REFUSALS = {(2, 5, 364): (364, 364), (2, 6, 1093): (1093, 1092), (3, 4, 781): (781, 780)}


@pytest.mark.parametrize("rank, n, support", list(_CLASS_REFUSALS))
def test_power_classes_refuse_where_power_does(rank, n, support):
    # both refuse at the same caps, naming the same cap; the class lists
    # refuse before a product whose extensions exceed the cap and after one
    # whose support does, and multiply once its accumulator does, so the
    # counts they name may differ
    g = generating_operator(rank)
    assert power(g, n, support_cap=support).support_size == support
    *_, (_, classes) = iter_power_classes(rank, n, support_cap=support)
    assert sum(map(len, classes.values())) == support
    for cap, needed in zip((support - 1, support - 2), _CLASS_REFUSALS[rank, n, support]):
        with pytest.raises(SupportCapError) as by_power:
            power(g, n, support_cap=cap)
        with pytest.raises(SupportCapError) as by_classes:
            list(iter_power_classes(rank, n, support_cap=cap))
        assert by_power.value.cap == by_classes.value.cap == cap
        assert str(by_classes.value) == (
            f"product needs at least {needed} terms but the support cap is {cap}; "
            "raise the cap to proceed"
        )


@pytest.mark.parametrize("rank", (2, 3, 4, 8, 27))
def test_packed_expectation_matches_exponent_of(rank):
    rng = random.Random(4300 + rank)
    for _ in range(20):
        terms = _random_terms(rng, rank, 6, 4)
        for _ in range(3):
            hk = subgroup_word(rank, rng.randint(-3, 3))
            terms[hk] = terms.get(hk, 0) + rng.randint(1, 9)
        expected = {}
        for word, c in terms.items():
            k = _exponent_of(word)
            if k is not None:
                expected[k] = expected.get(k, 0) + c
        assert conditional_expectation(RingElement(rank, terms)) == LaurentPolynomial(expected)


@pytest.mark.parametrize("rank", (1, 2, 3, 5, 27))
def test_packed_radial_sum_matches_enumeration(rank):
    # reference: reduce every letter sequence of length n, keep those that stay length n
    letters = [c for i in range(1, rank + 1) for c in (i, -i)]
    for n in range(5 if rank < 27 else 3):
        reduced = (Word(seq, rank=rank) for seq in itertools.product(letters, repeat=n))
        terms = radial_sum(n, rank).terms
        assert set(terms) == {word for word in reduced if len(word) == n}
        assert set(terms.values()) == {1}
        assert len(terms) == reduced_word_count(n, rank)
