"""Independent checks for the radial recurrence.

Two oracles with different failure modes back the engine:

* full group-ring expansion of G^n (exact but exponential in n), and
* a dynamic program counting walks on the 2N-regular tree, where the
  distance from the root of a walk reading a word equals the word's
  reduced length, so walks returning to the root count exactly the
  identity terms of G^n.

The verify_* functions run the recurrence against one or both oracles
and return a :class:`DiffReport`; ``self_test`` injects a deliberate
fault to prove that disagreements are actually detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .recurrence import amalgamated_projection, iter_decompositions
from .ring import Hyperword, conditional_expectation, generating_operator, iter_powers
from .words import format_word, reduced_word_count

__all__ = [
    "Mismatch",
    "DiffReport",
    "WalkTable",
    "walk_counts",
    "brute_force_budget",
    "ring_order_limit",
    "verify_scalar",
    "verify_amalgamated",
    "verify_radiality",
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
    """counts[s][d]: walks of length s from the root ending at distance d."""

    rank: int
    max_steps: int
    counts: list[list[int]]

    def distance_count(self, steps: int, distance: int) -> int:
        if distance < 0 or distance > steps:
            return 0
        return self.counts[steps][distance]

    def returning(self, steps: int) -> int:
        """Walks of length s that end back at the root."""
        return self.counts[steps][0]


def walk_counts(rank: int, max_steps: int) -> WalkTable:
    """Count walks on the 2N-regular tree by length and end distance.

    From the root all 2N edges lead outward; from any other vertex one
    edge leads inward and 2N-1 lead outward.  Row sums are (2N)^s.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    two_n = 2 * rank
    rows = [[1]]
    for s in range(max_steps):
        prev = rows[-1]
        cur = [0] * (s + 2)
        for d, c in enumerate(prev):
            if c:
                cur[d + 1] += c * (two_n if d == 0 else two_n - 1)
                if d:
                    cur[d - 1] += c
        rows.append(cur)
    return WalkTable(rank, max_steps, rows)


def brute_force_budget(rank: int, term_budget: int = 720_000, hard_max: int = 60) -> int:
    """Largest power whose dominant radial class stays within the term budget.

    Keeps ring-oracle runs tractable: the top class of G^n holds
    2N(2N-1)^(n-1) words, which dominates the support.
    """
    n = 1
    while n < hard_max and reduced_word_count(n + 1, rank) <= term_budget:
        n += 1
    return n


def ring_order_limit(rank: int, max_order: int, ring_max_order: int | None = None) -> int:
    """Highest order a ring-oracle leg expands: ring_max_order, or by default
    the brute-force budget for the rank, capped at max_order."""
    if ring_max_order is None:
        ring_max_order = brute_force_budget(rank)
    return min(ring_max_order, max_order)


def verify_scalar(
    rank: int,
    max_order: int,
    *,
    tree: bool = True,
    ring_max_order: int | None = None,
    support_cap: int | None = None,
    walk_table: WalkTable | None = None,
) -> DiffReport:
    """Check recurrence scalar moments against the tree walk and ring oracles.

    The tree oracle covers every order up to max_order; the ring oracle
    covers orders up to ``ring_order_limit(rank, max_order, ring_max_order)``.
    The subject names the orders some oracle covered.
    """
    use_tree = tree or walk_table is not None
    ring_limit = ring_order_limit(rank, max_order, ring_max_order)
    covered = max_order if use_tree else max(ring_limit, 0)
    report = DiffReport(f"scalar moments (rank {rank}, orders 1..{covered})")
    recurrence_values = {
        d.power: d.coefficient(0) for d in iter_decompositions(rank, max_order)
    }

    if use_tree:
        table = walk_table if walk_table is not None else walk_counts(rank, max_order)
        for n in range(1, max_order + 1):
            expected = table.returning(n)
            actual = recurrence_values[n]
            if expected != actual:
                report.record(f"order {n}: tree-walk count", expected, actual)

    if ring_limit > 0:
        g = generating_operator(rank)
        for n, gn in iter_powers(g, ring_limit, support_cap):
            expected = gn.trace()
            actual = recurrence_values[n]
            if expected != actual:
                report.record(f"order {n}: group-ring trace", expected, actual)

    return report


def verify_amalgamated(
    rank: int, max_order: int, *, support_cap: int | None = None
) -> DiffReport:
    """Check recurrence subgroup moments against the expanded expectation."""
    h = Hyperword.canonical(rank)
    report = DiffReport(
        f"amalgamated moments (rank {rank}, subgroup <{format_word(h.word)}>, "
        f"orders 1..{max_order})"
    )
    g = generating_operator(rank)
    decs = iter_decompositions(rank, max_order)
    for (n, gn), dec in zip(iter_powers(g, max_order, support_cap), decs):
        expected = conditional_expectation(gn, h)
        actual = amalgamated_projection(dec)
        if expected != actual:
            report.record(f"order {n}: conditional expectation", expected, actual)
    return report


def verify_radiality(
    rank: int, max_order: int, *, support_cap: int | None = None
) -> DiffReport:
    """Expanded powers of G must be constant on each word-length class.

    Also checks that the per-length constants equal the recurrence
    coefficients, class set included.
    """
    report = DiffReport(f"radiality of powers (rank {rank}, orders 1..{max_order})")
    g = generating_operator(rank)
    decs = iter_decompositions(rank, max_order)
    for (n, gn), dec in zip(iter_powers(g, max_order, support_cap), decs):
        by_length: dict[int, int] = {}
        uniform = True
        for w, c in gn.terms.items():
            m = len(w)
            seen = by_length.setdefault(m, c)
            if seen != c:
                report.record(
                    f"order {n}, length {m}: coefficient constancy",
                    f"uniform coefficient {seen}",
                    f"{c} at {format_word(w)}",
                )
                uniform = False
                break
        if not uniform:
            continue
        if by_length != dict(dec.coeffs):
            for m in sorted(set(by_length) | set(dec.coeffs), reverse=True):
                got = by_length.get(m, 0)
                want = dec.coefficient(m)
                if got != want:
                    report.record(
                        f"order {n}, length {m}: radial coefficient", want, got
                    )
    return report


def self_test(rank: int = 2, max_order: int = 8) -> DiffReport:
    """Prove mismatches are detectable: perturb one walk count and re-verify.

    The returned report must fail with exactly one mismatch at the
    perturbed order; anything else means the harness itself is broken.
    """
    if max_order < 2:
        raise ValueError("self test needs max_order >= 2")
    table = walk_counts(rank, max_order)
    target = max_order - (max_order % 2)
    table.counts[target][0] += 1
    report = verify_scalar(
        rank, max_order, ring_max_order=0, walk_table=table
    )
    report.subject += " [self-test: one fault injected]"
    return report
