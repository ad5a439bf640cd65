import copy
import json
import pickle
import random
import tracemalloc

import pytest

import fpmom.oracle
import fpmom.recurrence
import fpmom.series
from fpmom.oracle import (
    DiffReport,
    Mismatch,
    _check_radial,
    _compare_tree,
    _expectation,
    brute_force_budget,
    returning_walks,
    self_test,
    verify,
)
from fpmom.recurrence import RadialDecomposition, _scalar_moments, decomposition_of
from fpmom.ring import RingElement, conditional_expectation, generating_operator, power
from fpmom.words import Word, _level, _level_index, reduced_word_count


def _returning_by_distance(rank, max_steps):
    """Reference for ``returning_walks``: count walks on the 2N-regular tree
    by length s and end distance d, one whole row per length, and read off
    d = 0.  From the root all 2N edges lead outward; from any other vertex
    one edge leads inward and 2N - 1 lead outward."""
    q = 2 * rank - 1
    row, returning = [1], [1]
    for s in range(1, max_steps + 1):
        nxt = [0] * (s + 1)
        nxt[1] = (q + 1) * row[0]
        for d in range(1, len(row)):
            nxt[d + 1] += q * row[d]
            nxt[d - 1] += row[d]
        assert sum(nxt) == (2 * rank) ** s, (rank, s)
        row = nxt
        returning.append(row[0])
    return returning


def test_returning_walks_match_the_distance_table():
    for rank in (1, 2, 3, 5, 8, 30):
        assert returning_walks(rank, 120) == _returning_by_distance(rank, 120), rank


def test_walk_counts_rank_two():
    counts = returning_walks(2, 12)
    assert counts[0::2] == [1, 4, 28, 232, 2092, 19864, 195352]
    assert counts[1::2] == [0] * 6


def test_walk_counts_other_ranks():
    assert returning_walks(3, 4)[4] == 66
    # rank 1 walks are one-dimensional: central binomial coefficients
    assert returning_walks(1, 8)[0::2] == [1, 2, 6, 20, 70]
    assert returning_walks(2, 0) == [1]
    assert returning_walks(2, 1) == [1, 0]


def test_walk_counts_validation():
    with pytest.raises(ValueError):
        returning_walks(0, 3)
    with pytest.raises(ValueError):
        returning_walks(2, -1)


def test_returning_walks_check_exact_division_and_positivity(monkeypatch):
    # a non-physical rank, let past the argument check, drives a count to zero
    monkeypatch.setattr(fpmom.oracle, "_require_int", lambda *args: None)
    with pytest.raises(ValueError, match="first-return count broke at length 2"):
        returning_walks(0, 4)
    # a remainder from the Catalan division is refused
    monkeypatch.setattr(fpmom.oracle, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(ValueError, match=r"Cat\(1\) is not an integer"):
        returning_walks(2, 4)


def test_tree_leg_holds_no_distance_table():
    # O(M) memory: the distance table that returning_walks replaced peaked at
    # 24.7 MB on this call; memory, unlike time, is deterministic
    tracemalloc.start()
    try:
        assert all(r.passed for r in verify(8, 900, ring_max_order=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_constant_only_paths_walk_no_chain(monkeypatch):
    # Step counts, not timings: scalar moments, a single power and verify,
    # with or without its ring leg, take no chain step.
    steps = []
    real_step = RadialDecomposition.step

    def counting_step(self):
        steps.append(self.power + 1)
        return real_step(self)

    monkeypatch.setattr(RadialDecomposition, "step", counting_step)
    m = 500
    assert fpmom.series.scalar_series(2, m)[m - 1] == returning_walks(2, m)[m]
    assert decomposition_of(m, 2).mass() == 4**m
    assert all(r.passed for r in verify(2, m, ring_max_order=0))
    assert steps == []
    # the ring leg checks the engines the commands ship, not the chain
    assert all(r.passed for r in verify(2, 40, ring_max_order=6))
    assert steps == []


def test_radiality_checks_the_even_walk(monkeypatch):
    # a fault in the even walk's G^6, which amalg writes, must be caught
    real_walk = fpmom.oracle.iter_even_decompositions
    walked = []

    def wrong_walk(rank, max_power):
        for d in real_walk(rank, max_power):
            walked.append(d.power)
            if d.power == 6:
                d = RadialDecomposition._of(rank, 6, [d.classes[0] + 1, *d.classes[1:]])
            yield d

    monkeypatch.setattr(fpmom.oracle, "iter_even_decompositions", wrong_walk)
    scalar, amalgamated, radiality = verify(2, 8)
    assert walked == [2, 4, 6, 8]
    assert radiality.mismatches == [
        Mismatch("order 6, length 0: radial coefficient", "233", "232"),
        Mismatch("order 6, length 0: row recurrence", "233", "232"),
    ]
    assert scalar.passed  # the trace is checked against the P-recurrence
    assert [m.location for m in amalgamated.mismatches] == ["order 6: conditional expectation"]


def test_radiality_compares_the_chain_with_the_row_recurrence(monkeypatch):
    real_row = fpmom.recurrence._radial_row

    def wrong_row(n, rank):
        row = real_row(n, rank)
        if n == 6:
            row[0] += 1
        return row

    monkeypatch.setattr(fpmom.recurrence, "_radial_row", wrong_row)
    scalar, amalgamated, radiality = verify(2, 8)
    assert scalar.passed and amalgamated.passed
    assert radiality.mismatches == [Mismatch("order 6, length 0: row recurrence", "232", "233")]


def test_verify_validation():
    with pytest.raises(ValueError):
        verify(2, 8, ring_max_order=-3)
    with pytest.raises(ValueError):
        verify(2, 0)


def test_radiality_catches_a_dropped_word(monkeypatch):
    # a power missing one word of a class is still constant on the words it
    # holds and keeps its per-length coefficients; only its support is short
    real = fpmom.oracle.iter_power_classes

    def dropping_iter_power_classes(*args, **kwargs):
        for n, classes in real(*args, **kwargs):
            if n == 4:
                classes[2][_level_index(Word([1, 2], rank=2)._packed, 2)] = 0
            yield n, classes

    monkeypatch.setattr(fpmom.oracle, "iter_power_classes", dropping_iter_power_classes)
    scalar, amalgamated, radiality = verify(2, 4)
    assert scalar.passed and amalgamated.passed
    assert radiality.mismatches == [Mismatch("order 4: support size", "121", "120")]


def test_verify_refuses_negative_ring_limit():
    # clamping -1 to 0 would drop the ring leg and still pass
    with pytest.raises(ValueError, match="ring_max_order"):
        verify(2, 4, ring_max_order=-1)
    assert len(verify(2, 4, ring_max_order=0)) == 1


def test_brute_force_budget_defaults():
    assert brute_force_budget(2) == 12
    assert brute_force_budget(3) == 8
    assert brute_force_budget(1) == 60  # rank 1 supports stay tiny


def test_verify_scalar_passes():
    report = verify(2, 8)[0]
    assert report.passed
    assert report.verdict == "pass"
    assert report.mismatches == []


def test_verify_scalar_deep_tree_only():
    report = verify(2, 60, ring_max_order=0)[0]
    assert report.passed


def test_verify_scalar_other_ranks():
    assert verify(1, 12)[0].passed
    assert verify(3, 6)[0].passed


def test_verify_amalgamated_passes():
    report = verify(2, 8)[1]
    assert report.passed
    assert "abAB" in report.subject
    assert verify(3, 6)[1].passed


def test_verify_rank_one_has_no_amalgamated_report():
    # rank 1 has no canonical subgroup, so only scalar and radiality are checked
    subjects = [r.subject for r in verify(1, 4)]
    assert subjects == [
        "scalar moments (rank 1, orders 1..4)",
        "radiality of powers (rank 1, orders 1..4)",
    ]


def test_verify_radiality_passes():
    assert verify(2, 6)[2].passed
    assert verify(3, 4)[2].passed
    assert verify(1, 6)[1].passed


def test_self_test_reports_exactly_one_mismatch():
    report = self_test(2, 8)
    assert not report.passed
    assert report.verdict == "fail"
    assert len(report.mismatches) == 1
    m = report.mismatches[0]
    assert "order 8" in m.location
    assert m.expected == "2093"
    assert m.actual == "2092"


def test_self_test_odd_max_order_targets_even_entry():
    report = self_test(2, 7)
    assert len(report.mismatches) == 1
    assert "order 6" in report.mismatches[0].location


def test_diff_report_json():
    report = DiffReport("sample")
    assert report.to_json_dict() == {
        "subject": "sample",
        "verdict": "pass",
        "mismatches": [],
    }
    report.record("somewhere", 1, 2)
    payload = report.to_json_dict()
    assert payload["verdict"] == "fail"
    assert payload["mismatches"] == [
        {"location": "somewhere", "expected": "1", "actual": "2"}
    ]
    json.dumps(payload)  # stays serializable


def test_fault_is_localized():
    # a perturbed returning-walk count must not poison the other orders
    counts = returning_walks(2, 10)
    counts[6] += 5
    report = DiffReport("scalar")
    _compare_tree(report, counts, _scalar_moments(2, 10))
    assert report.mismatches == [Mismatch("order 6: tree-walk count", "237", "232")]


def _classes(gn):
    """gn's coefficients as class lists, one per length it touches, in the
    order of ``_level``, with 0 for a missing word."""
    lengths = {len(word) for word in gn.terms}
    return {m: [gn.coefficient(Word._of(w, gn.rank)) for w in _level(m, gn.rank)]
            for m in sorted(lengths)}


def _sorted_words(gn):
    """gn's words in canonical order, read off their letter codes: length
    first, then letter by letter a < A < b < B < ..."""
    def key(word):
        codes = word.codes
        return len(codes), [2 * c - 1 if c > 0 else -2 * c for c in codes]
    return sorted(gn.terms, key=key)


def test_radiality_check_names_the_odd_word():
    g3 = power(generating_operator(2), 3)
    dec = decomposition_of(3, 2)
    report = DiffReport("radiality")
    _check_radial(report, 3, 2, _classes(g3), dec)
    assert report.passed
    terms = dict(g3.terms)
    terms[Word([-2, -2, -2], rank=2)] += 1
    _check_radial(report, 3, 2, _classes(RingElement(2, terms)), dec)
    assert [tuple(m) for m in report.mismatches] == [
        ("order 3, length 3: coefficient constancy", "uniform coefficient 1", "2 at BBB")
    ]


def _reference_check_radial(report, n, gn, dec):
    """``_check_radial`` on the words of gn, in canonical order, with each
    length read off the word's letter codes."""
    by_length = {}
    for word in _sorted_words(gn):
        m, c = len(word.codes), gn.coefficient(word)
        seen = by_length.setdefault(m, c)
        if seen != c:
            report.record(
                f"order {n}, length {m}: coefficient constancy",
                f"uniform coefficient {seen}",
                f"{c} at {word}",
            )
            return
    support = sum(reduced_word_count(m, gn.rank) for m in by_length)
    if gn.support_size != support:
        report.record(f"order {n}: support size", support, gn.support_size)
    for m in sorted(dec.coeffs.keys() | by_length.keys(), reverse=True):
        want, got = dec.coeffs.get(m, 0), by_length.get(m, 0)
        if want != got:
            report.record(f"order {n}, length {m}: radial coefficient", want, got)


def _check_both(n, gn, dec):
    """The mismatches of ``_check_radial`` on gn's class lists, which must
    equal the reference's."""
    report, reference = DiffReport("radiality"), DiffReport("radiality")
    _check_radial(report, n, gn.rank, _classes(gn), dec)
    _reference_check_radial(reference, n, gn, dec)
    assert report.mismatches == reference.mismatches
    return report.mismatches


@pytest.mark.parametrize("rank", range(1, 9))
def test_radiality_check_at_the_edges_of_the_length_table(rank):
    # the first and the last word of a class, and the identity, are the
    # edges of the class lists; the largest digit, 2N, fills all k bits of a
    # letter, so the last word has a bit length that is a multiple of k
    k = (2 * rank).bit_length()
    for n in (3, 4) if rank <= 4 else (2, 3):  # G^4 at rank 8 has 54,241 terms
        gn = power(generating_operator(rank), n)
        dec = decomposition_of(n, rank)
        report = DiffReport("radiality")
        _check_radial(report, n, rank, _classes(gn), dec)
        assert report.passed
        words = _sorted_words(gn)
        top = words[-1]
        assert len(top) == n and top._packed.bit_length() == n * k
        first = next(word for word in words if len(word) == n)
        for word in [top, first, Word(rank=rank)] if n % 2 == 0 else [top, first]:
            terms = dict(gn.terms)
            terms[word] += 1
            mismatches = _check_both(n, RingElement(rank, terms), dec)
            assert mismatches[0].location.startswith(f"order {n}, length {len(word)}: ")


@pytest.mark.parametrize("rank, n", [(2, 5), (2, 6), (3, 4)])
def test_radiality_check_names_odd_words_in_sorted_order(rank, n):
    # the word named is the first odd one in canonical order: shortest
    # class first, and within a class the first word that differs from the
    # class's first word, which may itself be the odd one out
    gn = power(generating_operator(rank), n)
    dec = decomposition_of(n, rank)
    words = _sorted_words(gn)
    by_class = {}  # the classes of two or more words, shortest first
    for word in words:
        if len(word):
            by_class.setdefault(len(word), []).append(word)
    first, *later = by_class
    assert later
    cases = [
        [by_class[later[0]][1]],
        [by_class[later[-1]][-1]],
        [by_class[later[-1]][0]],
        [by_class[first][-1], by_class[later[0]][1]],
        [by_class[max(by_class)][2], by_class[min(by_class)][-1]],
    ]
    for odd in cases:
        terms = dict(gn.terms)
        for word in odd:
            terms[word] += 1
        mismatches = _check_both(n, RingElement(rank, terms), dec)
        named = min(odd, key=words.index)
        assert mismatches[0].location == f"order {n}, length {len(named)}: coefficient constancy"


@pytest.mark.parametrize("rank, n", [(2, 5), (3, 4)])
def test_radiality_check_counts_a_missing_word(rank, n):
    # a missing word is a 0 entry in its class list, the first one included
    gn = power(generating_operator(rank), n)
    dec = decomposition_of(n, rank)
    for m in (n, n - 2):
        class_words = [word for word in _sorted_words(gn) if len(word) == m]
        for dropped in (class_words[0], class_words[-1]):
            terms = dict(gn.terms)
            del terms[dropped]
            assert [tuple(mismatch) for mismatch in _check_both(n, RingElement(rank, terms), dec)] == [
                (f"order {n}: support size", str(gn.support_size), str(gn.support_size - 1))
            ]


@pytest.mark.parametrize("rank, lengths", [(2, (0, 4, 8)), (3, (0, 2, 6))])
def test_expectation_reads_each_power_of_h_at_its_index(rank, lengths):
    # random class lists, zeros included, so every word of a class differs:
    # E must read h^k at its own index, as conditional_expectation reads it
    # off the element
    rng = random.Random(5100 + rank)
    for _ in range(5):
        classes = {m: [rng.choice((0, 1, 2, -5, 9)) for _ in range(reduced_word_count(m, rank))]
                   for m in lengths}
        element = RingElement(rank, {
            Word._of(w, rank): c for m, coeffs in classes.items()
            for w, c in zip(_level(m, rank), coeffs)
        })
        assert _expectation(rank, classes) == conditional_expectation(element)


def test_diff_report_is_a_plain_value():
    a, b = DiffReport("x"), DiffReport("x")
    a.record("here", 1, 2)
    assert b.mismatches == []  # each report has its own list
    assert a != b and a == DiffReport("x", [Mismatch("here", "1", "2")])
    assert DiffReport("x") != DiffReport("y")
    assert repr(a) == "DiffReport(subject='x', mismatches=[Mismatch(location='here', " \
        "expected='1', actual='2')])"
    with pytest.raises(TypeError):
        hash(a)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a
    match a:
        case DiffReport(subject, [Mismatch(location, _, _)]):
            assert (subject, location) == ("x", "here")
        case _:
            pytest.fail("DiffReport did not match its positional pattern")
