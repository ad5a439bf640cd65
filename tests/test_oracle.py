import json

import pytest

import fpmom.oracle
import fpmom.recurrence
import fpmom.series
from fpmom.oracle import (
    DiffReport,
    Mismatch,
    _check_radial,
    brute_force_budget,
    self_test,
    verify,
    walk_counts,
)
from fpmom.recurrence import RadialDecomposition, decomposition_of
from fpmom.ring import RingElement, generating_operator, power
from fpmom.words import parse_word


def test_walk_counts_rank_two():
    table = walk_counts(2, 12)
    assert table.returning(0) == 1
    assert table.returning(2) == 4
    assert table.returning(4) == 28
    assert table.returning(6) == 232
    assert table.returning(8) == 2092
    assert table.returning(10) == 19864
    assert table.returning(12) == 195352


def test_walk_counts_other_ranks():
    assert walk_counts(3, 4).returning(4) == 66
    # rank 1 walks are one-dimensional: central binomial coefficients
    table = walk_counts(1, 8)
    assert [table.returning(2 * k) for k in range(5)] == [1, 2, 6, 20, 70]


def test_walk_counts_row_sums():
    for rank in (1, 2, 3):
        table = walk_counts(rank, 10)
        for s in range(11):
            assert sum(table.counts[s]) == (2 * rank) ** s


def test_walk_counts_parity_and_bounds():
    table = walk_counts(2, 9)
    for s in range(10):
        for d, c in enumerate(table.counts[s]):
            if (s - d) % 2 or d > s:
                assert c == 0
    assert len(table.counts[3]) == 4  # distances 0..3 only
    assert table.counts[1][1] == 4


def test_walk_counts_validation():
    with pytest.raises(ValueError):
        walk_counts(0, 3)
    with pytest.raises(ValueError):
        walk_counts(2, -1)
    with pytest.raises(ValueError):
        walk_counts(2, 9, _horizon=8)


def test_walk_horizon_keeps_kept_rows_exact():
    # row s of a table under horizon H is the whole row cut at min(s, H - s)
    for rank in (1, 2, 3, 4, 8):
        full = walk_counts(rank, 120).counts
        for m in range(1, 61):
            for horizon in sorted({m, m + 1, m + m % 2, 3 * m // 2, 2 * m}):
                rows = walk_counts(rank, m, _horizon=horizon).counts
                assert len(rows) == m + 1
                for s, row in enumerate(rows):
                    assert row == full[s][: min(s, horizon - s) + 1], (rank, m, horizon, s)


def test_constant_only_paths_walk_no_chain(monkeypatch):
    # Step counts, not timings: scalar moments, a single power and a tree-only
    # verify take no chain step; a ring leg steps the chain to its limit only.
    steps = []
    real_step = RadialDecomposition.step

    def counting_step(self):
        steps.append(self.power + 1)
        return real_step(self)

    monkeypatch.setattr(RadialDecomposition, "step", counting_step)
    m = 500
    assert fpmom.series.scalar_series(2, m).value(m) == walk_counts(2, m).returning(m)
    assert decomposition_of(m, 2).mass() == 4**m
    assert all(r.passed for r in verify(2, m, ring_max_order=0))
    assert steps == []
    assert all(r.passed for r in verify(2, 40, ring_max_order=6))
    assert steps == [2, 3, 4, 5, 6]


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
    # with the tree oracle off, a run must check at least one ring order
    with pytest.raises(ValueError):
        verify(2, 8, tree=False, ring_max_order=0)
    with pytest.raises(ValueError):
        verify(2, 8, tree=False, ring_max_order=-3)
    with pytest.raises(ValueError):
        verify(2, 0)
    # a supplied walk table must match the run's rank and reach
    with pytest.raises(ValueError):
        verify(2, 6, ring_max_order=0, walk_table=walk_counts(3, 6))
    with pytest.raises(ValueError):
        verify(2, 8, ring_max_order=0, walk_table=walk_counts(2, 6))


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
    # a perturbed tree table must not poison the other orders
    table = walk_counts(2, 10)
    table.counts[6][0] += 5
    report = verify(2, 10, ring_max_order=0, walk_table=table)[0]
    assert len(report.mismatches) == 1
    assert "order 6" in report.mismatches[0].location


def test_radiality_check_names_the_odd_word():
    g3 = power(generating_operator(2), 3)
    dec = decomposition_of(3, 2)
    report = DiffReport("radiality")
    _check_radial(report, 3, g3, dec)
    assert report.passed
    terms = dict(g3.terms)
    terms[parse_word("BBB", 2)] += 1
    _check_radial(report, 3, RingElement(2, terms), dec)
    assert [tuple(m) for m in report.mismatches] == [
        ("order 3, length 3: coefficient constancy", "uniform coefficient 1", "2 at BBB")
    ]
