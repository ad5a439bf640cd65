import pytest
from hypothesis import given, settings, strategies as st

from fpmom.laurent import LaurentPolynomial, _signed_sum, _tex_power, _text_power


def test_zero_coefficients_dropped():
    p = LaurentPolynomial({0: 4, 1: 0, -3: 0})
    assert p == LaurentPolynomial({0: 4})
    assert p.items() == [(0, 4)]


def test_zero():
    z = LaurentPolynomial()
    assert not z
    assert z == LaurentPolynomial({})
    assert z.coefficient(0) == 0


def test_accessors():
    p = LaurentPolynomial({1: 1, -1: 1, 0: 28})
    assert p.coefficient(1) == 1
    assert p.coefficient(2) == 0
    assert p.coefficient(0) == 28
    assert p.items() == [(-1, 1), (0, 28), (1, 1)]


def test_shift():
    p = LaurentPolynomial({1: 1, -1: 1, 0: 28})
    assert p.shifted(2) == LaurentPolynomial({3: 1, 1: 1, 2: 28})
    assert p.shifted(0) == p
    assert p.shifted(3).shifted(-3) == p


def test_equality_and_hash():
    a = LaurentPolynomial({0: 4})
    b = LaurentPolynomial({0: 4, 2: 0})
    assert a == b
    assert hash(a) == hash(b)
    assert a != LaurentPolynomial({0: 5})
    assert a != 4


def test_type_validation():
    with pytest.raises(TypeError):
        LaurentPolynomial({0.5: 1})  # type: ignore[dict-item]
    with pytest.raises(TypeError):
        LaurentPolynomial({0: "4"})  # type: ignore[dict-item]


def test_str_rendering():
    assert str(LaurentPolynomial()) == "0"
    assert str(LaurentPolynomial({0: 4})) == "4"
    p = LaurentPolynomial({2: 1, 1: 202, 0: 2092, -1: 202, -2: 1})
    assert str(p) == "h^2 + 202h + 2092 + 202h^-1 + h^-2"
    assert str(LaurentPolynomial({1: -3, 0: 2})) == "-3h + 2"
    assert str(LaurentPolynomial({3: 1, 0: -1})) == "h^3 - 1"


def test_tex_rendering():
    p = LaurentPolynomial({1: 1, 0: 28, -1: 1})
    assert p.to_tex() == "h + 28 + h^{-1}"
    assert LaurentPolynomial().to_tex() == "0"


def test_pairs_round_trip():
    p = LaurentPolynomial({-2: 1, 0: 2092, 2: 1, 1: 202, -1: 202})
    pairs = p.to_pairs()
    assert pairs[0] == {"exp": -2, "coeff": "1"}
    assert LaurentPolynomial({d["exp"]: int(d["coeff"]) for d in pairs}) == p
    assert LaurentPolynomial().to_pairs() == []


def test_csv_cell_round_trip():
    p = LaurentPolynomial({0: 4})
    assert p.to_csv_cell() == "0:4"
    q = LaurentPolynomial({1: 1, -1: 1, 0: 28})
    assert q.to_csv_cell() == "-1:1;0:28;1:1"
    pairs = (chunk.split(":") for chunk in q.to_csv_cell().split(";"))
    assert LaurentPolynomial({int(k): int(c) for k, c in pairs}) == q
    assert LaurentPolynomial().to_csv_cell() == ""
    # negative exponents keep their sign distinct from the pair separator
    assert LaurentPolynomial({-3: -7}).to_csv_cell() == "-3:-7"


def _signed_sum_by_terms(exps, coeffs, power):
    """``_signed_sum`` as one loop over the terms, which it once was."""
    parts = []
    for k, c in zip(reversed(exps), reversed(coeffs)):
        negative = c[0] == "-"
        if negative:
            c = c[1:]
        base = power(k)
        term = (base if c == "1" else c + base) if base else c
        if parts:
            parts.append(("- " if negative else "+ ") + term)
        else:
            parts.append("-" + term if negative else term)
    return " ".join(parts) if parts else "0"


COEFFICIENTS = st.one_of(
    st.sampled_from(["1", "-1"]),
    st.integers(-1000, 1000).filter(bool).map(str),
    st.integers(10**40, 10**90).map(str),
    st.integers(-(10**90), -(10**40)).map(str),
)


@given(
    st.dictionaries(st.integers(-40, 40), COEFFICIENTS, max_size=30),
    st.booleans(),
    st.sampled_from([_tex_power, _text_power]),
)
@settings(max_examples=300, deadline=None)
def test_signed_sum_matches_the_term_loop(terms, positive, power):
    # all-positive cells, as amalg writes, are rare among random dictionaries
    if positive:
        terms = {k: c.lstrip("-") for k, c in terms.items()}
    exps = sorted(terms)
    coeffs = [terms[k] for k in exps]
    kept = list(coeffs)
    assert _signed_sum(exps, coeffs, power) == _signed_sum_by_terms(exps, coeffs, power)
    assert coeffs == kept

