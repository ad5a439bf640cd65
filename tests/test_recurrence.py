import pytest
from hypothesis import given, settings, strategies as st

from fpmom.laurent import LaurentPolynomial
from fpmom.recurrence import (
    RadialDecomposition,
    _horizon_for,
    amalgamated_moment,
    amalgamated_projection,
    decomposition_of,
    iter_decompositions,
    scalar_moment,
)

# (rank, max order M, ring limit) cases of the horizon tests: odd and even M,
# and ring limits 0, M // 3, M // 2 and M
HORIZON_CASES = [
    (rank, m, limit)
    for rank in (1, 2, 3, 4, 8)
    for m in range(1, 61)
    for limit in sorted({0, m // 3, m // 2, m})
]


def test_initial():
    d = RadialDecomposition.initial(2)
    assert d.power == 1
    assert dict(d.coeffs) == {1: 1}
    assert d.mass() == 4
    assert RadialDecomposition.initial(3).mass() == 6
    assert repr(d) == "RadialDecomposition(rank=2, power=1, classes=[1])"
    with pytest.raises(TypeError):
        RadialDecomposition(2, 2, {2: 1, 0: 4})  # only the chain builds decompositions


def test_single_steps():
    d = RadialDecomposition.initial(2)
    d2 = d.step()
    assert dict(d2.coeffs) == {2: 1, 0: 4}
    d3 = d2.step()
    assert dict(d3.coeffs) == {3: 1, 1: 7}
    d4 = d3.step()
    assert dict(d4.coeffs) == {4: 1, 2: 10, 0: 28}
    # the list behind .coeffs is indexed by m // 2
    assert d3.classes == [7, 1]
    assert d4.classes == [28, 10, 1]
    assert list(d4.rows()) == [(4, 1), (2, 10), (0, 28)]


def test_decompositions_rank_two():
    assert dict(decomposition_of(5, 2).coeffs) == {5: 1, 3: 13, 1: 58}
    assert dict(decomposition_of(6, 2).coeffs) == {6: 1, 4: 16, 2: 97, 0: 232}
    assert dict(decomposition_of(7, 2).coeffs) == {7: 1, 5: 19, 3: 145, 1: 523}
    assert dict(decomposition_of(8, 2).coeffs) == {
        8: 1,
        6: 22,
        4: 202,
        2: 958,
        0: 2092,
    }


def test_decompositions_other_ranks():
    assert dict(decomposition_of(2, 3).coeffs) == {2: 1, 0: 6}
    assert dict(decomposition_of(3, 3).coeffs) == {3: 1, 1: 11}
    assert dict(decomposition_of(4, 3).coeffs) == {4: 1, 2: 16, 0: 66}
    assert dict(decomposition_of(4, 1).coeffs) == {4: 1, 2: 4, 0: 6}


def test_iter_decompositions():
    powers = [d.power for d in iter_decompositions(2, 6)]
    assert powers == [1, 2, 3, 4, 5, 6]
    last = list(iter_decompositions(2, 8))[-1]
    assert last == decomposition_of(8, 2)
    assert decomposition_of(2, 2) != decomposition_of(2, 3)
    with pytest.raises(ValueError):
        list(iter_decompositions(2, 0))
    with pytest.raises(ValueError):
        decomposition_of(0, 2)


def test_horizon_keeps_kept_classes_exact():
    full = {rank: list(iter_decompositions(rank, 60)) for rank in (1, 2, 3, 4, 8)}
    for rank, m, limit in HORIZON_CASES:
        horizon = _horizon_for(m, limit)
        assert horizon % 2 == 0 and horizon >= m
        for whole, dec in zip(full[rank], iter_decompositions(rank, m, _horizon=horizon)):
            n = dec.power
            top = min(n, horizon - n)
            assert dec.classes == whole.classes[: top // 2 + 1], (rank, m, limit, n)
            assert dec.coeffs == {k: c for k, c in whole.coeffs.items() if k <= top}
            assert list(dec.rows()) == [(k, c) for k, c in whole.rows() if k <= top]
            assert dec.coefficient(n % 2) == whole.coefficient(n % 2)
            if n <= limit:  # paired with a ring expansion, so whole
                assert dec == whole and dec.mass() == (2 * rank) ** n


def test_truncated_decompositions_refuse_dropped_classes():
    chain = list(iter_decompositions(2, 10, _horizon=10))
    d7, d9, d10 = chain[6], chain[8], chain[9]
    # at power n the horizon 10 keeps the classes m <= 10 - n
    assert d7.classes == [523, 145] and d7.coeffs == {1: 523, 3: 145}
    assert list(d7.rows()) == [(3, 145), (1, 523)]
    assert d7.coefficient(3) == 145 and d7.coefficient(8) == 0
    assert list(d9.coeffs) == [1]
    assert d10.classes == [19864]
    for dec, dropped in ((d7, 5), (d7, 7), (d9, 3), (d10, 2)):
        with pytest.raises(ValueError):
            dec.coefficient(dropped)
        with pytest.raises(ValueError):
            dec.mass()
    with pytest.raises(ValueError):
        amalgamated_projection(d10)
    with pytest.raises(ValueError):
        d10.step()  # power 11 is past the horizon
    # positivity is still checked once the top class is gone
    d7.classes[0] = -d7.classes[0]
    with pytest.raises(ValueError):
        d7.step()


def test_step_checks_invariants():
    d = decomposition_of(5, 2)
    d.classes[0] = -d.classes[0]  # corrupt the constant-feeding class
    with pytest.raises(ValueError):
        d.step()
    d = decomposition_of(4, 2)
    d.classes[-1] = 2  # top class must stay 1
    with pytest.raises(ValueError):
        d.step()


def test_scalar_moments():
    assert scalar_moment(2, 2) == 4
    assert scalar_moment(4, 2) == 28
    assert scalar_moment(6, 2) == 232
    assert scalar_moment(8, 2) == 2092
    assert scalar_moment(5, 2) == 0
    assert scalar_moment(2, 1) == 2
    assert scalar_moment(4, 1) == 6
    assert scalar_moment(2, 3) == 6
    with pytest.raises(ValueError):
        scalar_moment(0, 2)


def test_amalgamated_moments_rank_two():
    assert amalgamated_moment(2, 2) == LaurentPolynomial({0: 4})
    assert amalgamated_moment(3, 2).is_zero
    assert amalgamated_moment(4, 2) == LaurentPolynomial({1: 1, -1: 1, 0: 28})
    assert amalgamated_moment(6, 2) == LaurentPolynomial({1: 16, -1: 16, 0: 232})
    assert amalgamated_moment(8, 2) == LaurentPolynomial(
        {2: 1, -2: 1, 1: 202, -1: 202, 0: 2092}
    )


def test_amalgamated_moments_rank_three():
    # subgroup generator has length 6, so only classes 0 and 6 contribute below 12
    assert amalgamated_moment(4, 3) == LaurentPolynomial({0: 66})
    assert amalgamated_moment(6, 3) == LaurentPolynomial({1: 1, -1: 1, 0: 876})
    assert amalgamated_moment(8, 3) == LaurentPolynomial({1: 36, -1: 36, 0: 12786})
    assert amalgamated_moment(5, 3).is_zero


def test_amalgamated_rejects_rank_one():
    with pytest.raises(ValueError):
        amalgamated_moment(2, 1)


def test_mass_identity():
    for rank in (1, 2, 3, 5):
        for d in iter_decompositions(rank, 25):
            assert d.mass() == (2 * rank) ** d.power


def test_structure_invariants():
    for rank in (1, 2, 3):
        for d in iter_decompositions(rank, 20):
            n = d.power
            assert d.coefficient(n) == 1
            for m, c in d.coeffs.items():
                assert 0 <= m <= n
                assert (n - m) % 2 == 0
                assert c > 0


def test_amalgamated_symmetry_and_constant_term():
    for n in range(1, 21):
        poly = amalgamated_moment(n, 2)
        for k, c in poly.items():
            assert poly.coefficient(-k) == c
        assert poly.constant_term == scalar_moment(n, 2)


def test_coefficient_table_values():
    # the chain G^1..G^8 is the table: row n is the decomposition of G^n
    table = list(iter_decompositions(2, 8))
    assert table[1].coefficient(0) == 4
    assert table[2].coefficient(1) == 7
    assert table[3].coefficient(2) == 10
    assert table[3].coefficient(0) == 28
    assert table[4].coefficient(3) == 13
    assert table[4].coefficient(1) == 58
    assert table[5].coefficient(4) == 16
    assert table[7].coefficient(6) == 22
    assert table[7].coefficient(4) == 202
    t3 = list(iter_decompositions(3, 3))
    assert t3[1].coefficient(0) == 6
    assert t3[2].coefficient(1) == 11


def test_table_agrees_with_decompositions():
    for rank in (1, 2, 3):
        table = list(iter_decompositions(rank, 10))
        for n in range(1, 11):
            d = decomposition_of(n, rank)
            for m in range(-1, n + 2):
                assert table[n - 1].coefficient(m) == d.coefficient(m)
            assert list(table[n - 1].rows()) == sorted(d.coeffs.items(), reverse=True)


@given(st.integers(1, 6), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_stepping_preserves_invariants(rank, n):
    d = decomposition_of(n, rank)
    assert d.coefficient(n) == 1
    assert d.mass() == (2 * rank) ** n
    assert all((n - m) % 2 == 0 and c > 0 for m, c in d.coeffs.items())
