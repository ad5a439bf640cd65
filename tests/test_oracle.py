import json

import pytest

from fpmom.oracle import (
    DiffReport,
    brute_force_budget,
    self_test,
    verify,
    walk_counts,
)


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
