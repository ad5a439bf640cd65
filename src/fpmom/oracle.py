"""Independent checks for the radial recurrence.

Two oracles with different failure modes back the engine:

* full group-ring expansion of G^n (exact but exponential in n), and
* a dynamic program counting walks on the 2N-regular tree, where the
  distance from the root of a walk reading a word equals the word's
  reduced length, so walks returning to the root count exactly the
  identity terms of G^n.

``verify`` walks one chain of radial decompositions and expands each
power of G at most once, checking its trace, its conditional
expectation and its radiality from that single expansion.  It returns
one :class:`DiffReport` per check; ``self_test`` injects a deliberate
fault to prove that disagreements are actually detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .recurrence import RadialDecomposition, amalgamated_projection, iter_decompositions
from .ring import (
    Hyperword,
    RingElement,
    conditional_expectation,
    generating_operator,
    iter_powers,
)
from .words import format_word, reduced_word_count

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
    """counts[s][d]: walks of length s from the root ending at distance d."""

    rank: int
    max_steps: int
    counts: list[list[int]]

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

    One chain of decompositions G^1, G^2, ... is walked, to max_order
    (the tree oracle's reach) or, with the tree oracle off, to the ring
    limit: ring_max_order, or by default ``brute_force_budget(rank)``,
    capped at max_order.  Up to that limit each decomposition is paired
    with one group-ring expansion of the same power, whose trace,
    conditional expectation and per-length coefficients are all checked
    against it.  Raises
    ``ValueError`` when neither oracle would check any order, or when
    ``walk_table`` has another rank or fewer than max_order steps.

    Returns ``[scalar, amalgamated, radiality]``, without the amalgamated
    report at rank 1 (no canonical subgroup), or just ``[scalar]`` when
    the ring limit is 0.  Each subject names the orders its checks covered.
    """
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
    ring_limit = max(min(ring_max_order, max_order), 0)
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

    constants = []
    traces = []
    for dec in iter_decompositions(rank, covered):
        constants.append(dec.coefficient(0))
        if dec.power > ring_limit:
            continue
        n, gn = next(powers)
        traces.append(gn.trace())
        if amalgamated is not None:
            expected = conditional_expectation(gn, h)
            actual = amalgamated_projection(dec)
            if expected != actual:
                amalgamated.record(f"order {n}: conditional expectation", expected, actual)
        _check_radial(radiality, n, gn, dec)

    # The scalar report lists tree-walk mismatches before group-ring ones,
    # so both scalar comparisons run after the chain.
    if use_tree:
        table = walk_table if walk_table is not None else walk_counts(rank, max_order)
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
    by_length: dict[int, int] = {}
    for w, c in gn.terms.items():
        m = len(w)
        seen = by_length.setdefault(m, c)
        if seen != c:
            report.record(
                f"order {n}, length {m}: coefficient constancy",
                f"uniform coefficient {seen}",
                f"{c} at {format_word(w)}",
            )
            return
    if by_length != dict(dec.coeffs):
        for m in sorted(set(by_length) | set(dec.coeffs), reverse=True):
            got = by_length.get(m, 0)
            want = dec.coefficient(m)
            if got != want:
                report.record(f"order {n}, length {m}: radial coefficient", want, got)


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
    report = verify(rank, max_order, ring_max_order=0, walk_table=table)[0]
    report.subject += " [self-test: one fault injected]"
    return report
