import decimal

import pytest
from hypothesis import given, settings, strategies as st

import fpmom.recurrence
from fpmom.laurent import LaurentPolynomial
from fpmom.series import scalar_series
from fpmom.recurrence import (
    RadialDecomposition,
    _radial_row,
    _scalar_moments,
    amalgamated_moment,
    decomposition_of,
    iter_even_decompositions,
    scalar_moment,
)

# ranks at which the row recurrence and the P-recurrence are pinned to the chain
ENGINE_RANKS = (1, 2, 3, 5, 8, 30)


def _chain(rank, max_power):
    """G^1 .. G^max_power, each by one ``step`` from the one before: the
    chain every faster engine is pinned to."""
    d = decomposition_of(1, rank)
    yield d
    for _ in range(max_power - 1):
        d = d.step()
        yield d


def test_initial():
    d = decomposition_of(1, 2)
    assert d.power == 1
    assert dict(d.coeffs) == {1: 1}
    assert d.mass() == 4
    assert decomposition_of(1, 3).mass() == 6
    assert repr(d) == "RadialDecomposition(rank=2, power=1, classes=[1])"
    with pytest.raises(TypeError):
        RadialDecomposition(2, 2, {2: 1, 0: 4})  # only the engines build decompositions


def test_single_steps():
    d = decomposition_of(1, 2)
    d2 = d.step()
    assert dict(d2.coeffs) == {2: 1, 0: 4}
    d3 = d2.step()
    assert dict(d3.coeffs) == {3: 1, 1: 7}
    d4 = d3.step()
    assert dict(d4.coeffs) == {4: 1, 2: 10, 0: 28}
    # the list behind .coeffs is indexed by m // 2
    assert d3.classes == [7, 1]
    assert d4.classes == [28, 10, 1]
    assert list(zip(range(4, -1, -2), reversed(d4.classes))) == [(4, 1), (2, 10), (0, 28)]


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


def test_row_recurrence_matches_the_chain():
    # every class, m = 0 included, of every power up to 120
    for rank in ENGINE_RANKS:
        for whole in _chain(rank, 120):
            assert decomposition_of(whole.power, rank) == whole, (rank, whole.power)


def test_p_recurrence_matches_the_chain():
    for rank in ENGINE_RANKS:
        constants = [d.coeffs.get(0, 0) for d in _chain(rank, 300)]
        assert list(_scalar_moments(rank, 300)) == constants, rank
        assert scalar_moment(300, rank) == constants[-1]
        assert scalar_moment(299, rank) == 0


def test_new_engines_check_exact_division_and_positivity(monkeypatch):
    # a non-physical rank drives a value to zero or below
    with pytest.raises(ValueError, match="row recurrence for G\\^4 broke at class 0"):
        _radial_row(4, 0)
    with pytest.raises(ValueError, match="P-recurrence broke at order 4"):
        list(_scalar_moments(0, 4))
    # a remainder from any division is refused
    monkeypatch.setattr(fpmom.recurrence, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(ValueError, match="row recurrence"):
        decomposition_of(6, 2)
    with pytest.raises(ValueError, match="P-recurrence"):
        scalar_moment(6, 2)


def _exact():
    """The exact decimal context the CLI runs the engines in far above the gate."""
    return fpmom.recurrence._exact_decimal(10**6, 2, fpmom.recurrence._ROW_GATE)


def test_decimal_engines_spell_what_the_int_engines_spell():
    with decimal.localcontext(_exact()) as context:
        one = context.create_decimal(1)
        for rank in ENGINE_RANKS:
            moments = list(_scalar_moments(rank, 300, one))
            assert {type(a) for a in moments[1::2]} == {decimal.Decimal}
            assert list(map(str, moments)) == list(map(str, _scalar_moments(rank, 300))), rank
            for n in (1, 2, 3, 120, 121):
                row = _radial_row(n, rank, one)
                assert {type(c) for c in row} == {decimal.Decimal}
                assert list(map(str, row)) == list(map(str, _radial_row(n, rank))), (rank, n)


def test_decimal_engines_never_round():
    # a 50-digit context holds tr(G^60) at rank 2 (31 digits) and no more
    with decimal.localcontext(_exact()) as context:
        context.prec = 50
        one = context.create_decimal(1)
        assert str(list(_scalar_moments(2, 60, one))[-1]) == str(scalar_moment(60, 2))
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            list(_scalar_moments(2, 200, one))
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            _radial_row(200, 2, one)


def test_decimal_engines_refuse_what_the_int_engines_refuse(monkeypatch):
    with decimal.localcontext(_exact()) as context:
        for one in (-1, context.create_decimal(-1)):  # a corrupted seed
            with pytest.raises(ValueError, match="^P-recurrence broke at order 4$"):
                list(_scalar_moments(2, 10, one))
            with pytest.raises(ValueError, match="^row recurrence for G\\^10 broke at class 6$"):
                _radial_row(10, 2, one)
        one = context.create_decimal(1)
        with pytest.raises(ValueError, match="^row recurrence for G\\^4 broke at class 0$"):
            _radial_row(4, 0, one)
        with pytest.raises(ValueError, match="^P-recurrence broke at order 4$"):
            list(_scalar_moments(0, 4, one))
        monkeypatch.setattr(fpmom.recurrence, "divmod", lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(ValueError, match="^row recurrence for G\\^6 broke at class 2$"):
            _radial_row(6, 2, one)
        with pytest.raises(ValueError, match="^P-recurrence broke at order 4$"):
            list(_scalar_moments(2, 6, one))


@pytest.mark.parametrize("rank", range(1, 9))
def test_even_powers_match_the_chain(rank):
    # one X_1^2 pass per power gives the chain's even powers, every class
    max_power = 200 if rank == 2 else 120
    chain = list(_chain(rank, max_power))[1::2]
    even = list(iter_even_decompositions(rank, max_power))
    assert [d.power for d in even] == list(range(2, max_power + 1, 2))
    for d, whole in zip(even, chain, strict=True):
        assert (d.rank, d.power, d.classes) == (rank, whole.power, whole.classes)
    assert [d.power for d in iter_even_decompositions(rank, max_power + 1)][-1] == max_power


def test_even_powers_start_at_two():
    assert list(iter_even_decompositions(2, 1)) == []
    assert [d.classes for d in iter_even_decompositions(2, 5)] == [[4, 1], [28, 10, 1]]
    for bad, error in ((0, ValueError), (True, TypeError)):
        with pytest.raises(error, match="max_power"):
            list(iter_even_decompositions(2, bad))
    with pytest.raises(ValueError, match="rank"):
        list(iter_even_decompositions(0, 4))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda classes: classes.__setitem__(-1, 2),  # the top class must stay 1
        lambda classes: classes.__setitem__(0, -10 * classes[0]),  # feeds the constant class
        lambda classes: classes.__setitem__(1, -10 * classes[1]),  # feeds every class near it
    ],
    ids=["top", "constant", "inner"],
)
def test_even_powers_check_invariants(corrupt):
    powers = iter_even_decompositions(2, 20)
    for _ in range(3):
        d = next(powers)  # G^6
    corrupt(d.classes)
    with pytest.raises(ValueError, match="power 8 broke the invariants"):
        next(powers)


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


def test_scalar_moment_is_the_last_series_value(monkeypatch):
    calls = []
    real = fpmom.recurrence._scalar_moments

    def counting(rank, max_order):
        calls.append(max_order)
        return real(rank, max_order)

    monkeypatch.setattr(fpmom.recurrence, "_scalar_moments", counting)
    for rank in (1, 2, 3, 8):
        series = scalar_series(rank, 200)
        for n in range(1, 201):
            calls.clear()
            assert scalar_moment(n, rank) == series[n - 1], (rank, n)
            # odd orders never run the P-recurrence
            assert calls == ([] if n % 2 else [n]), (rank, n)


def test_amalgamated_moments_rank_two():
    assert amalgamated_moment(2, 2) == LaurentPolynomial({0: 4})
    assert not amalgamated_moment(3, 2)
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
    assert not amalgamated_moment(5, 3)


def test_amalgamated_rejects_rank_one():
    with pytest.raises(ValueError):
        amalgamated_moment(2, 1)


def test_mass_identity():
    for rank in (1, 2, 3, 5):
        for d in _chain(rank, 25):
            assert d.mass() == (2 * rank) ** d.power


def test_structure_invariants():
    for rank in (1, 2, 3):
        for d in _chain(rank, 20):
            n = d.power
            assert d.coeffs.get(n, 0) == 1
            for m, c in d.coeffs.items():
                assert 0 <= m <= n
                assert (n - m) % 2 == 0
                assert c > 0


def test_amalgamated_symmetry_and_constant_term():
    for n in range(1, 21):
        poly = amalgamated_moment(n, 2)
        for k, c in poly.items():
            assert poly.coefficient(-k) == c
        assert poly.coefficient(0) == scalar_moment(n, 2)


def test_coefficient_table_values():
    # the chain G^1..G^8 is the table: row n is the decomposition of G^n
    table = list(_chain(2, 8))
    assert table[1].coeffs.get(0, 0) == 4
    assert table[2].coeffs.get(1, 0) == 7
    assert table[3].coeffs.get(2, 0) == 10
    assert table[3].coeffs.get(0, 0) == 28
    assert table[4].coeffs.get(3, 0) == 13
    assert table[4].coeffs.get(1, 0) == 58
    assert table[5].coeffs.get(4, 0) == 16
    assert table[7].coeffs.get(6, 0) == 22
    assert table[7].coeffs.get(4, 0) == 202
    t3 = list(_chain(3, 3))
    assert t3[1].coeffs.get(0, 0) == 6
    assert t3[2].coeffs.get(1, 0) == 11


def test_table_agrees_with_decompositions():
    for rank in (1, 2, 3):
        table = list(_chain(rank, 10))
        assert [d.power for d in table] == list(range(1, 11))
        for n in range(1, 11):
            d = decomposition_of(n, rank)
            assert table[n - 1] == d
            for m in range(-1, n + 2):
                assert table[n - 1].coeffs.get(m, 0) == d.coeffs.get(m, 0)
    assert decomposition_of(2, 2) != decomposition_of(2, 3)
    with pytest.raises(ValueError):
        decomposition_of(0, 2)


@given(st.integers(1, 6), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_stepping_preserves_invariants(rank, n):
    d = decomposition_of(n, rank)
    assert d.coeffs.get(n, 0) == 1
    assert d.mass() == (2 * rank) ** n
    assert all((n - m) % 2 == 0 and c > 0 for m, c in d.coeffs.items())
