"""Independent checks for the radial recurrence: both oracles and ``verify``.

Two oracles with different failure modes back the engine:

* full group-ring expansion of G^n (exact but exponential in n), one
  coefficient list per word length, times G by two list operations per
  class (``iter_power_classes``, which ``expand`` runs too), and
* a count of the walks on the 2N-regular tree that return to the root.
  The distance from the root of a walk reading a word equals the word's
  reduced length, so these walks count exactly the identity terms of G^n.

The walks are counted by first returns (Kesten, "Symmetric random walks
on groups", Trans. AMS 1959).  Write x = z^2, q = 2N - 1 and C = C(qx)
for the Catalan series at qx, so that C = 1 + qxC^2.  A first return
steps away from the root (2N ways), makes an excursion that never comes
back to the root (q ways out of each vertex it reaches, counted by C),
and steps back: R = 2NxC.  A returning walk is a sequence of first
returns, W = 1/(1 - R), and C = 1 + qxC^2 with q + 1 = 2N gives
(1 - 2NqxC)(1 - 2NxC) = 1 - (2N)^2 x, that is,

    W (1 - (2N)^2 x) = 1 - 2Nqx C(qx).

Reading off x^k gives a_k = (2N)^2 a_(k-1) - 2N Cat(k-1) q^k from
a_0 = 1, where a_k counts the returning walks of length 2k: with
2N Cat(k-1) q^k carried as one value, each order takes linear time
(``returning_walks``).  It is a different recurrence
from the P-recurrence that ``fpmom.recurrence`` derives for the same
numbers, so the check is not one recurrence written two ways.

``verify`` runs both oracles in one pass and returns one
:class:`DiffReport` per check.  Its tree leg reads the P-recurrence and
the first returns in step, so it holds a few moments at a time, not the
whole sequences, whose n-th term has O(n) bits: memory stays linear in
the order.  Up to the ring limit it expands each power of G once
(``iter_power_classes``) and checks it against the engines the commands
ship.  ``self_test`` injects a deliberate fault to prove that
disagreements are actually detected.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple

from .laurent import LaurentPolynomial
from .recurrence import (
    RadialDecomposition,
    _scalar_moments,
    amalgamated_projection,
    decomposition_of,
    iter_even_decompositions,
)
from .words import (
    Word,
    _level,
    _level_index,
    _require_int,
    format_word,
    reduced_word_count,
    subgroup_word,
)

__all__ = [
    "DEFAULT_SUPPORT_CAP",
    "SupportCapError",
    "Mismatch",
    "DiffReport",
    "returning_walks",
    "brute_force_budget",
    "iter_power_classes",
    "verify",
    "self_test",
]

DEFAULT_SUPPORT_CAP = 10**8


class SupportCapError(RuntimeError):
    """An expansion would exceed the configured number of stored terms."""

    def __init__(self, needed: int, cap: int, what: str = "expansion"):
        super().__init__(
            f"{what} needs at least {needed} terms but the support cap is {cap}; "
            "raise the cap to proceed"
        )
        self.needed = needed
        self.cap = cap


def _effective_cap(support_cap: int | None) -> int:
    if support_cap is None:
        return DEFAULT_SUPPORT_CAP
    _require_int("support_cap", support_cap, 1)
    return support_cap


class Mismatch(NamedTuple):
    location: str
    expected: str
    actual: str


class DiffReport:
    """Outcome of one verification run; passes when no mismatches were recorded.

    Two reports are equal when their subjects and mismatches are.
    """

    __slots__ = ("subject", "mismatches")
    __match_args__ = ("subject", "mismatches")

    def __init__(self, subject: str, mismatches: list[Mismatch] | None = None):
        self.subject = subject
        self.mismatches = [] if mismatches is None else mismatches

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.subject, self.mismatches) == (other.subject, other.mismatches)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DiffReport(subject={self.subject!r}, mismatches={self.mismatches!r})"

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
            "mismatches": [m._asdict() for m in self.mismatches],
        }


def returning_walks(rank: int, max_steps: int) -> list[int]:
    """Walks of length s on the 2N-regular tree that start and end at the
    root, for s = 0..max_steps, counted by first returns.

    From a_0 = 1, the count a_k of length 2k is

        a_k = (2N)^2 a_(k-1) - 2N Cat(k-1) q^k,   q = 2N - 1,

    which reads off W (1 - (2N)^2 x) = 1 - 2Nqx C(qx) for the returning
    walks W = 1/(1 - 2Nx C(qx)) (module docstring).  Cat(k) comes from
    Cat(k-1) 2(2k-1)/(k+1), beside the running product 2N Cat(k-1) q^k.
    Raises ``ValueError`` when that division is not exact or a count is
    not positive.  Odd lengths never return: 0.

    >>> returning_walks(2, 8)
    [1, 0, 4, 0, 28, 0, 232, 0, 2092]
    """
    _require_int("rank", rank, 1)
    _require_int("max_steps", max_steps, 0)
    return list(_returning_walks(rank, max_steps))


def _returning_walks(rank: int, max_steps: int) -> Iterator[int]:
    """Yield the counts of ``returning_walks``, each after its checks."""
    two_n, q = 2 * rank, 2 * rank - 1
    yield 1
    a, cat, term = 1, 1, two_n * q  # a_(k-1), Cat(k-1), 2N Cat(k-1) q^k
    for k in range(1, max_steps // 2 + 1):
        a = two_n * two_n * a - term
        if a <= 0:
            raise ValueError(f"first-return count broke at length {2 * k}")
        cat, rest = divmod(cat * (4 * k - 2), k + 1)
        if rest:
            raise ValueError(f"Catalan number Cat({k}) is not an integer")
        term = term * (q * (4 * k - 2)) // (k + 1)
        yield 0
        yield a
    if max_steps % 2:
        yield 0


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


def _times_g(classes: Mapping[int, list[int]], rank: int) -> dict[int, list[int]]:
    """The classes of x G from the classes of x, shortest first.

    classes[m] lists x's coefficients on the words of length m in
    ``_level(m, rank)`` order, where a 0 is a missing word.  A word of
    length m times a letter either extends it to one of its q = 2N - 1
    children, the block i q ... i q + q - 1 below the word at index i
    (the 2N letters below the identity), or cancels its last letter and
    gives its parent.  So class m of x G is class m - 1 with each
    coefficient repeated over its block of children, plus class m + 1
    with each block of children summed onto its parent.
    """
    q = 2 * rank - 1
    product = {}
    for m in sorted({m + s for m in classes for s in (-1, 1)} - {-1}):
        low, up = classes.get(m - 1), classes.get(m + 1)
        columns = []
        if low is not None:
            width = 2 * rank if m == 1 else q  # children of each word of class m - 1
            grown = [0] * (len(low) * width)
            for t in range(width):
                grown[t::width] = low
            columns.append(grown)
        if up is None:
            product[m] = grown
            continue
        # one iterator repeated in zip: each tuple takes one block of children
        columns += [iter(up)] * (2 * rank if m == 0 else q)
        product[m] = list(map(sum, zip(*columns)))
    return product


def iter_power_classes(
    rank: int, max_order: int, support_cap: int | None = None
) -> Iterator[tuple[int, dict[int, list[int]]]]:
    """Yield (n, classes) for n = 1..max_order, where classes maps each
    word length m of G**n to its coefficients on the words of length m, in
    canonical order (``fpmom.words._level``'s); a 0 would be a missing word.

    Each power is the last times G, taken a class at a time by the group
    law (``_times_g``), with no ``RingElement`` and no assumption that a
    class is constant.  Powers of G hold every word of each class they
    reach, so the cap refuses where the reference ``fpmom.ring.multiply``
    does on the same powers: before a product when its extensions alone
    exceed the cap, and after it when its support does.
    """
    _require_int("rank", rank, 1)
    _require_int("max_order", max_order, 0)
    cap = _effective_cap(support_cap)
    q = 2 * rank - 1
    classes = {0: [1]}
    for n in range(1, max_order + 1):
        needed = sum(len(c) * (q if m else 2 * rank) for m, c in classes.items())
        if needed > cap:
            raise SupportCapError(needed, cap, "product")
        classes = _times_g(classes, rank)
        support = sum(map(len, classes.values()))
        if support > cap:
            raise SupportCapError(support, cap, "product")
        yield n, classes


def verify(
    rank: int,
    max_order: int,
    *,
    ring_max_order: int | None = None,
    support_cap: int | None = None,
) -> list[DiffReport]:
    """Check the recurrence against the tree walk and ring oracles in one pass.

    The scalar moments tr(G^n) come from the P-recurrence of
    ``fpmom.recurrence``.  The tree oracle checks them to max_order.  Up
    to the ring limit (ring_max_order, or by default
    ``brute_force_budget(rank)``, capped at max_order) each power G^n is
    expanded once in the group ring, held as its class lists; its trace
    is checked against the P-recurrence, and its conditional expectation
    and per-length coefficients against a decomposition of G^n: the even
    walk's (``iter_even_decompositions``) for even n, the row
    recurrence's (``decomposition_of``) for odd n.  At even n the even
    walk's classes are also checked against the row recurrence.
    ring_max_order=0 runs the tree oracle alone; a negative one raises
    ``ValueError``.

    Returns ``[scalar, amalgamated, radiality]``, without the amalgamated
    report at rank 1 (no canonical subgroup), or just ``[scalar]`` when
    the ring limit is 0.  Each subject names the orders its checks covered.
    """
    _require_int("rank", rank, 1)
    _require_int("max_order", max_order, 1)
    if ring_max_order is None:
        ring_max_order = brute_force_budget(rank)
    else:
        _require_int("ring_max_order", ring_max_order, 0)
    ring_limit = min(ring_max_order, max_order)
    scalar = DiffReport(f"scalar moments (rank {rank}, orders 1..{max_order})")
    # tree-walk mismatches come first in the scalar report
    _compare_tree(scalar, _returning_walks(rank, max_order), _scalar_moments(rank, max_order))
    if not ring_limit:
        return [scalar]
    constants = list(_scalar_moments(rank, ring_limit))

    orders = f"orders 1..{ring_limit}"
    amalgamated = None
    if rank >= 2:
        h = format_word(subgroup_word(rank))
        amalgamated = DiffReport(f"amalgamated moments (rank {rank}, subgroup <{h}>, {orders})")
    radiality = DiffReport(f"radiality of powers (rank {rank}, {orders})")
    evens = iter_even_decompositions(rank, ring_limit)
    for n, classes in iter_power_classes(rank, ring_limit, support_cap):
        row = decomposition_of(n, rank)
        dec = row if n % 2 else next(evens)
        trace = classes[0][0] if 0 in classes else 0
        if trace != constants[n - 1]:
            scalar.record(f"order {n}: group-ring trace", trace, constants[n - 1])
        if amalgamated is not None:
            expected = _expectation(rank, classes)
            actual = amalgamated_projection(dec)
            if expected != actual:
                amalgamated.record(f"order {n}: conditional expectation", expected, actual)
        _check_radial(radiality, n, rank, classes, dec)
        if not n % 2:
            _record_classes(radiality, n, "row recurrence", dec.coeffs, row.coeffs)
    return [r for r in (scalar, amalgamated, radiality) if r is not None]


def _compare_tree(report: DiffReport, counts: Iterable[int], constants: Iterable[int]) -> None:
    """Record every order n where tr(G^n) differs from the returning walks
    of length n, reading both in step; ``counts`` starts at length 0."""
    for n, (count, actual) in enumerate(zip(islice(counts, 1, None), constants), 1):
        if count != actual:
            report.record(f"order {n}: tree-walk count", count, actual)


def _expectation(rank: int, classes: Mapping[int, list[int]]) -> LaurentPolynomial:
    """The conditional expectation onto <h> of a power of G, from its
    classes: the coefficient of h**e is the entry of h**e, found by its
    index, in the class of length 2N|e|."""
    two_n = 2 * rank
    top = max(classes) // two_n
    return LaurentPolynomial({
        e: classes[two_n * abs(e)][_level_index(subgroup_word(rank, e)._packed, rank)]
        for e in range(-top, top + 1)
        if two_n * abs(e) in classes
    })


def _check_radial(
    report: DiffReport,
    n: int,
    rank: int,
    classes: Mapping[int, list[int]],
    dec: RadialDecomposition,
) -> None:
    """Expanded G^n, as its class lists, must be constant on each class,
    hold every word of each class it touches (a 0 is a missing word), and
    its per-length constants must equal the recurrence coefficients,
    class set included.  The first odd word, in sorted order, is named."""
    by_length: dict[int, int] = {}
    support = present = 0
    for m in sorted(classes):
        coeffs = classes[m]
        c = coeffs[0]
        held = len(coeffs)
        if coeffs.count(c) != held:  # not one coefficient: words missing or odd
            held -= coeffs.count(0)
            c = next(filter(None, coeffs))
            for i, other in enumerate(coeffs):
                if other and other != c:
                    word = Word._of(_level(m, rank)[i], rank)
                    report.record(
                        f"order {n}, length {m}: coefficient constancy",
                        f"uniform coefficient {c}",
                        f"{other} at {format_word(word)}",
                    )
                    return
        if c:
            by_length[m] = c
            support += reduced_word_count(m, rank)
            present += held
    if present != support:
        report.record(f"order {n}: support size", support, present)
    _record_classes(report, n, "radial coefficient", dec.coeffs, by_length)


def _record_classes(
    report: DiffReport, n: int, check: str, want: Mapping[int, int], got: Mapping[int, int]
) -> None:
    """Record every length, longest first, where two class -> coefficient maps differ."""
    for m in sorted(want.keys() | got.keys(), reverse=True):
        if want.get(m, 0) != got.get(m, 0):
            report.record(f"order {n}, length {m}: {check}", want.get(m, 0), got.get(m, 0))


def self_test(rank: int = 2, max_order: int = 8) -> DiffReport:
    """Prove mismatches are detectable: perturb one returning-walk count
    and compare it with the scalar moments as ``verify`` does.

    The returned report must fail with exactly one mismatch at the
    perturbed order; anything else means the harness itself is broken.
    """
    _require_int("max_order", max_order, 2)
    counts = returning_walks(rank, max_order)
    counts[max_order - max_order % 2] += 1
    report = DiffReport(
        f"scalar moments (rank {rank}, orders 1..{max_order}) [self-test: one fault injected]"
    )
    _compare_tree(report, counts, _scalar_moments(rank, max_order))
    return report
