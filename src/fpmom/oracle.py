"""Independent checks for the radial recurrence.

Two oracles with different failure modes back the engine:

* full group-ring expansion of G^n (exact but exponential in n), and
* a dynamic program counting walks on the 2N-regular tree, where the
  distance from the root of a walk reading a word equals the word's
  reduced length, so walks returning to the root count exactly the
  identity terms of G^n.

``verify`` checks the scalar moments of the P-recurrence (see
``fpmom.recurrence``) against both oracles.  Up to the ring limit it
walks one chain of radial decompositions and expands each power of G
once, checking its trace, its conditional expectation and its radiality
from that single expansion; the radiality check also compares each of
those powers with the row recurrence.  It returns one
:class:`DiffReport` per check; ``self_test`` injects a deliberate
fault to prove that disagreements are actually detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .recurrence import (
    RadialDecomposition,
    _scalar_moments,
    amalgamated_projection,
    decomposition_of,
    iter_decompositions,
)
from .ring import (
    Hyperword,
    RingElement,
    conditional_expectation,
    generating_operator,
    iter_powers,
)
from .words import (
    Word, _letter_bits, _packed_length, _require_int, format_word, reduced_word_count
)

__all__ = [
    "Mismatch",
    "DiffReport",
    "WalkTable",
    "walk_counts",
    "brute_force_budget",
    "verify",
    "self_test",
]


class Mismatch(NamedTuple):
    location: str
    expected: str
    actual: str


@dataclass
class DiffReport:
    """Outcome of one verification run; passes when no mismatches were recorded."""

    subject: str
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def record(self, location: str, expected: object, actual: object) -> None:
        self.mismatches.append(Mismatch(location, str(expected), str(actual)))

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "verdict": self.verdict,
            "mismatches": [
                {"location": m.location, "expected": m.expected, "actual": m.actual}
                for m in self.mismatches
            ],
        }


@dataclass
class WalkTable:
    """counts[s][d]: walks of length s from the root ending at distance d.

    A table built under a horizon H holds only the distances
    d <= min(s, H - s) in row s (see ``walk_counts``).
    """

    rank: int
    max_steps: int
    counts: list[list[int]]

    def returning(self, steps: int) -> int:
        """Walks of length s that end back at the root."""
        return self.counts[steps][0]


def walk_counts(rank: int, max_steps: int, *, _horizon: int | None = None) -> WalkTable:
    """Count walks on the 2N-regular tree by length and end distance.

    From the root all 2N edges lead outward; from any other vertex one
    edge leads inward and 2N-1 lead outward.  Row sums are (2N)^s.  A
    walk of length s ends at a distance of the parity of s, so each row
    is computed over those distances only and spread into ``counts[s]``,
    whose other cells are 0.

    ``_horizon`` is private to fpmom.  Each step moves one edge, so a
    walk at distance d after s steps can be back at the root after H
    steps only when d <= H - s.  ``verify`` reads only the returning
    counts, so it passes its max order as H >= max_steps and row s keeps
    only the distances d <= H - s.  Every kept count is exact, since
    distance d of the next row reads only distances d - 1 and
    d + 1 <= H - s.
    """
    _require_int("rank", rank, 1)
    _require_int("max_steps", max_steps, 0)
    if _horizon is None:
        _horizon = 2 * max_steps  # keeps every row whole
    elif _horizon < max_steps:
        raise ValueError(f"horizon {_horizon} is below max_steps {max_steps}")
    q = 2 * rank - 1
    dense = [1]  # row s at the distances s mod 2, s mod 2 + 2, ...
    rows = [[1]]
    for s in range(1, max_steps + 1):
        parity = s % 2
        if parity:
            # distance 2i + 1 reads 2i outward and 2i + 2 inward; the root
            # has 2N = q + 1 edges out
            first = dense[0]
            dense = [q * out + back for out, back in zip(dense, dense[1:] + [0])]
            dense[0] += first
        else:
            # distance 2i reads 2i - 1 outward and 2i + 1 inward
            dense = [q * out + back for out, back in zip([0] + dense, dense + [0])]
        top = min(s, _horizon - s)
        del dense[(top - parity) // 2 + 1:]
        row = [0] * (top + 1)
        row[parity::2] = dense
        rows.append(row)
    return WalkTable(rank, max_steps, rows)


_TERM_BUDGET = 720_000
_HARD_MAX = 60


def brute_force_budget(rank: int) -> int:
    """Largest power, at most _HARD_MAX, whose dominant radial class holds
    at most _TERM_BUDGET words.

    Keeps ring-oracle runs tractable: the top class of G^n holds
    2N(2N-1)^(n-1) words, which dominates the support.
    """
    n = 1
    while n < _HARD_MAX and reduced_word_count(n + 1, rank) <= _TERM_BUDGET:
        n += 1
    return n


def verify(
    rank: int,
    max_order: int,
    *,
    tree: bool = True,
    ring_max_order: int | None = None,
    support_cap: int | None = None,
    walk_table: WalkTable | None = None,
) -> list[DiffReport]:
    """Check the recurrence against the tree walk and ring oracles in one pass.

    The scalar moments tr(G^n) come from the P-recurrence of
    ``fpmom.recurrence``.  The tree oracle checks them to max_order.  Up
    to the ring limit (ring_max_order, or by default
    ``brute_force_budget(rank)``, capped at max_order) one chain of
    decompositions G^1, G^2, ... is walked, and each decomposition is
    paired with one group-ring expansion of the same power, whose trace,
    conditional expectation and per-length coefficients are all checked
    against it; its classes are also checked against the row recurrence.
    Raises ``ValueError`` for a negative ring_max_order, when neither
    oracle would check any order, or when ``walk_table`` has another rank
    or fewer than max_order steps.

    Returns ``[scalar, amalgamated, radiality]``, without the amalgamated
    report at rank 1 (no canonical subgroup), or just ``[scalar]`` when
    the ring limit is 0.  Each subject names the orders its checks covered.
    """
    _require_int("rank", rank, 1)
    _require_int("max_order", max_order, 1)
    if walk_table is not None:
        if walk_table.rank != rank:
            raise ValueError(f"walk table has rank {walk_table.rank}, verify has rank {rank}")
        if walk_table.max_steps < max_order:
            raise ValueError(
                f"walk table covers {walk_table.max_steps} steps, verify needs {max_order}"
            )
    use_tree = tree or walk_table is not None
    if ring_max_order is None:
        ring_max_order = brute_force_budget(rank)
    else:
        _require_int("ring_max_order", ring_max_order, 0)
    ring_limit = min(ring_max_order, max_order)
    if not use_tree and ring_limit < 1:
        raise ValueError("verify needs the tree oracle or a ring limit >= 1")
    covered = max_order if use_tree else ring_limit
    scalar = DiffReport(f"scalar moments (rank {rank}, orders 1..{covered})")
    reports = [scalar]
    powers = amalgamated = radiality = None
    if ring_limit:
        powers = iter_powers(generating_operator(rank), ring_limit, support_cap)
        if rank >= 2:
            h = Hyperword.canonical(rank)
            amalgamated = DiffReport(
                f"amalgamated moments (rank {rank}, subgroup <{format_word(h.word)}>, "
                f"orders 1..{ring_limit})"
            )
            reports.append(amalgamated)
        radiality = DiffReport(f"radiality of powers (rank {rank}, orders 1..{ring_limit})")
        reports.append(radiality)

    constants = _scalar_moments(rank, covered)
    traces = []
    if ring_limit:
        for dec, (n, gn) in zip(iter_decompositions(rank, ring_limit), powers):
            traces.append(gn.trace())
            if amalgamated is not None:
                expected = conditional_expectation(gn, h)
                actual = amalgamated_projection(dec)
                if expected != actual:
                    amalgamated.record(f"order {n}: conditional expectation", expected, actual)
            _check_radial(radiality, n, gn, dec)
            _record_classes(
                radiality, n, "row recurrence", dec.coeffs, decomposition_of(n, rank).coeffs
            )

    # The scalar report lists tree-walk mismatches before group-ring ones.
    if use_tree:
        table = walk_table
        if table is None:
            table = walk_counts(rank, max_order, _horizon=max_order)
        for n, actual in enumerate(constants, 1):
            expected = table.returning(n)
            if expected != actual:
                scalar.record(f"order {n}: tree-walk count", expected, actual)
    for n, (expected, actual) in enumerate(zip(traces, constants), 1):
        if expected != actual:
            scalar.record(f"order {n}: group-ring trace", expected, actual)
    return reports


def _check_radial(
    report: DiffReport, n: int, gn: RingElement, dec: RadialDecomposition
) -> None:
    """Expanded G^n must be constant on each word-length class, and the
    per-length constants must equal the recurrence coefficients, class
    set included."""
    # Lengths come from the packed words' bit lengths; a word is unpacked
    # only to be named in a mismatch.
    k = _letter_bits(gn.rank)
    by_length: dict[int, int] = {}
    for w, c in gn._terms.items():
        m = _packed_length(w, k)
        seen = by_length.setdefault(m, c)
        if seen != c:
            report.record(
                f"order {n}, length {m}: coefficient constancy",
                f"uniform coefficient {seen}",
                f"{c} at {format_word(Word._of(w, gn.rank))}",
            )
            return
    _record_classes(report, n, "radial coefficient", dec.coeffs, by_length)


def _record_classes(
    report: DiffReport, n: int, check: str, want: Mapping[int, int], got: Mapping[int, int]
) -> None:
    """Record every length, longest first, where two class -> coefficient maps differ."""
    for m in sorted(want.keys() | got.keys(), reverse=True):
        if want.get(m, 0) != got.get(m, 0):
            report.record(f"order {n}, length {m}: {check}", want.get(m, 0), got.get(m, 0))


def self_test(rank: int = 2, max_order: int = 8) -> DiffReport:
    """Prove mismatches are detectable: perturb one walk count and re-verify.

    The returned report must fail with exactly one mismatch at the
    perturbed order; anything else means the harness itself is broken.
    """
    _require_int("max_order", max_order, 2)
    table = walk_counts(rank, max_order)
    target = max_order - (max_order % 2)
    table.counts[target][0] += 1
    report = verify(rank, max_order, ring_max_order=0, walk_table=table)[0]
    report.subject += " [self-test: one fault injected]"
    return report
