"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every numeric check is exact big-int equality; stated time
bounds are asserted where the criterion carries one.
"""

import random
import time
from contextlib import contextmanager

from fpmom.laurent import LaurentPolynomial
from fpmom.oracle import (
    returning_walks,
    self_test,
    verify,
)
from fpmom.recurrence import (
    amalgamated_moment,
    decomposition_of,
    scalar_moment,
)
from fpmom.ring import (
    RingElement,
    conditional_expectation,
    generating_operator,
    iter_powers,
    multiply,
)
from fpmom.words import Word, format_word, subgroup_word


@contextmanager
def criterion(num: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {text}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {text} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_printed_table_values():
    with criterion(1, "recurrence reproduces the known rank-2 coefficient table"):
        start = time.perf_counter()
        expected = {
            (2, 0): 4,
            (3, 1): 7,
            (4, 2): 10,
            (4, 0): 28,
            (5, 3): 13,
            (5, 1): 58,
            (6, 4): 16,
            (8, 6): 22,
            (8, 4): 202,
        }
        for (n, m), value in expected.items():
            assert decomposition_of(n, 2).coeffs.get(m, 0) == value, (n, m)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_erratum_values():
    with criterion(2, "orders (8,2) and (8,0) are 958 and 2092, confirmed by both oracles"):
        start = time.perf_counter()
        dec = decomposition_of(8, 2)
        assert dec.coeffs.get(2, 0) == 958
        assert dec.coeffs.get(0, 0) == 2092
        assert dec.coeffs.get(2, 0) != 744
        assert dec.coeffs.get(0, 0) != 1316

        # ring oracle: collect the expanded power by word length
        g = generating_operator(2)
        g8 = None
        for _, gn in iter_powers(g, 8):
            g8 = gn
        by_length: dict[int, set[int]] = {}
        for word, c in g8.terms.items():
            by_length.setdefault(len(word), set()).add(c)
        assert by_length[2] == {958}
        assert by_length[0] == {2092}

        # tree oracle: returning walks give the constant coefficient
        assert returning_walks(2, 8)[8] == 2092
        assert time.perf_counter() - start < 10.0


def test_criterion_3_scalar_three_way_equivalence():
    with criterion(3, "scalar moments: recurrence == tree walks (<=60) == ring trace (<=12)"):
        start = time.perf_counter()
        counts = returning_walks(2, 60)
        for n in range(1, 61):
            assert scalar_moment(n, 2) == counts[n], n
        tree_elapsed = time.perf_counter() - start
        assert tree_elapsed < 1.0, f"tree comparison took {tree_elapsed:.2f}s"

        g = generating_operator(2)
        for n, gn in iter_powers(g, 12):
            assert gn.trace() == scalar_moment(n, 2), n
        assert time.perf_counter() - start < 60.0


def test_criterion_4_amalgamated_equivalence_rank_two():
    with criterion(4, "amalgamated moments (rank 2): recurrence == expectation for n <= 12"):
        start = time.perf_counter()
        g = generating_operator(2)
        collected = {}
        for n, gn in iter_powers(g, 12):
            collected[n] = conditional_expectation(gn)
            assert collected[n] == amalgamated_moment(n, 2), n
        assert collected[2] == LaurentPolynomial({0: 4})
        assert not collected[3]
        assert collected[4] == LaurentPolynomial({1: 1, -1: 1, 0: 28})
        assert collected[8] == LaurentPolynomial({2: 1, -2: 1, 1: 202, -1: 202, 0: 2092})
        assert time.perf_counter() - start < 60.0


def test_criterion_5_rank_three_agreement():
    with criterion(5, "rank 3: recurrence == ring oracle for n <= 8 with period-6 rule"):
        start = time.perf_counter()
        g = generating_operator(3)
        assert len(subgroup_word(3)) == 6
        for n, gn in iter_powers(g, 8):
            assert gn.trace() == scalar_moment(n, 3), n
            assert conditional_expectation(gn) == amalgamated_moment(n, 3), n
        # only multiples of 6 pick up subgroup powers
        assert dict(amalgamated_moment(4, 3).items()) == {0: 66}
        assert dict(amalgamated_moment(6, 3).items()) == {-1: 1, 0: 876, 1: 1}
        assert time.perf_counter() - start < 60.0


def test_criterion_6_odd_moments_vanish():
    with criterion(6, "odd moments vanish: recurrence to 60, oracles to 11"):
        for n in range(1, 61, 2):
            assert scalar_moment(n, 2) == 0, n
            assert not amalgamated_moment(n, 2), n
        g = generating_operator(2)
        for n, gn in iter_powers(g, 11):
            if n % 2:
                assert gn.trace() == 0, n
                assert not conditional_expectation(gn), n


def _random_word(rng: random.Random, rank: int, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    codes = []
    for _ in range(length):
        c = rng.randint(1, rank)
        codes.append(c if rng.random() < 0.5 else -c)
    return Word(codes, rank=rank)


def _random_element(rng: random.Random, rank: int) -> RingElement:
    terms: dict[Word, int] = {}
    for _ in range(rng.randint(1, 8)):
        word = _random_word(rng, rank, 3)
        coeff = rng.choice([c for c in range(-5, 6) if c])
        terms[word] = terms.get(word, 0) + coeff
    return RingElement(rank, {w: c for w, c in terms.items() if c})


def test_criterion_7_structural_suites():
    with criterion(7, "radiality, mass identity, ring axioms, word round-trips"):
        report = verify(2, 10)[2]
        assert report.passed, report.mismatches

        for rank in (2, 3, 5):
            for n in range(1, 41):
                assert decomposition_of(n, rank).mass() == (2 * rank) ** n, (rank, n)

        rng = random.Random(1729)
        for _ in range(1000):
            x = _random_element(rng, 2)
            y = _random_element(rng, 2)
            z = _random_element(rng, 2)
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
            assert multiply(x, y).trace() == multiply(y, x).trace()
            p, q = rng.randint(-2, 2), rng.randint(-2, 2)
            moved = multiply(
                multiply(RingElement(2, {subgroup_word(2, p): 1}), x),
                RingElement(2, {subgroup_word(2, q): 1}),
            )
            assert conditional_expectation(moved) == conditional_expectation(x).shifted(p + q)

        spelled: dict[tuple[int, str], Word] = {}
        for _ in range(1000):
            rank = rng.randint(1, 5)
            w = _random_word(rng, rank, 12)
            assert Word(w.codes, rank=rank) == w  # reduction is idempotent
            # distinct words of one rank spell apart
            assert spelled.setdefault((rank, format_word(w)), w) == w


def test_criterion_8_fault_injection():
    with criterion(8, "injected fault is caught with exactly one localized mismatch"):
        report = self_test(2, 8)
        assert not report.passed
        assert len(report.mismatches) == 1
        assert "order 8" in report.mismatches[0].location
        # and the clean harness still passes
        assert verify(2, 8, ring_max_order=4)[0].passed
