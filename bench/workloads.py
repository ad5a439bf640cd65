"""Seeded job mixes for the three benchmark workloads.

A workload is an endless stream of decks.  A deck is a fixed stratified
design (command x size bucket); the seed draws each job's exact order
inside its bucket, its rank and its output format, and shuffles the
deck.  Orders inside a bucket follow a seeded low-discrepancy sequence
and ranks and formats come in balanced rounds, so every deck costs
about the same and a few decks already cover each bucket evenly: a
run's quantiles depend on the code, not on how lucky the seed was.

Sizes are chosen so that one 30 s run completes well over 100 jobs,
which leaves at least ten beyond the 90th percentile.

amalg_sweep
    ``fpmom amalg`` at ranks 2-6, orders 40-200 in eight buckets,
    formats json/csv/tex.  Exercises per-order overhead of the
    amalgamated series (it rebuilds G^1..G^n for each order n) and
    LaurentPolynomial construction and rendering.  No ring work.
radial_deep
    ``scalar`` (json/csv/tex) and ``xdecomp`` (csv/json) at orders
    400-1300 and ``verify --oracle tree`` at orders 300-800, ranks 2-8,
    plus ``verify --oracle tree`` at rank 8, order 900 in every deck.
    One long big-int recurrence chain per job, the walk DP, and outputs
    near 1 MB.  Uses the recurrence the opposite way from amalg_sweep.
    No ring work.
ring_oracle
    ``verify --oracle both`` and ``expand`` over a fixed grid of
    (rank, order) pairs inside the ring budget; here the seed only sets
    the job order.  ``verify`` only reads the expansions; ``expand`` also
    serialises them.  Ring and word hashing dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Job", "WORKLOADS", "decks"]

DEADLINE_S = 20.0


@dataclass(frozen=True)
class Job:
    kind: str  # fpmom subcommand
    rank: int
    order: int  # --max-order or --power
    fmt: str = ""  # --format, where the subcommand takes one
    oracle: str = ""  # verify --oracle
    deadline_s: float = DEADLINE_S

    @property
    def argv(self) -> list[str]:
        size_flag = "--power" if self.kind in ("xdecomp", "expand") else "--max-order"
        argv = [self.kind, "--rank", str(self.rank), size_flag, str(self.order)]
        if self.fmt:
            argv += ["--format", self.fmt]
        if self.oracle:
            argv += ["--oracle", self.oracle]
        return argv


class _Cycle:
    """Draws from a fixed list in seeded shuffled rounds, keeping the mix balanced."""

    def __init__(self, rng: random.Random, items):
        self._rng = rng
        self._items = list(items)
        self._pending: list = []

    def next(self):
        if not self._pending:
            self._pending = self._items[:]
            self._rng.shuffle(self._pending)
        return self._pending.pop()


class _Spread:
    """Orders in [lo, hi) from a seeded golden-ratio sequence, evenly spread."""

    def __init__(self, rng: random.Random, lo: int, hi: int):
        self._lo, self._width = lo, hi - lo
        self._u = rng.random()

    def next(self) -> int:
        self._u = (self._u + 0.6180339887498949) % 1.0
        return self._lo + int(self._u * self._width)


def _buckets(rng: random.Random, lo: int, hi: int, width: int) -> list[_Spread]:
    return [_Spread(rng, start, start + width) for start in range(lo, hi, width)]


def _amalg_sweep(rng: random.Random) -> Iterator[list[Job]]:
    ranks = _Cycle(rng, range(2, 7))
    formats = _Cycle(rng, ("json", "csv", "tex"))
    orders = _buckets(rng, 40, 200, 20)
    while True:
        yield [Job("amalg", ranks.next(), o.next(), formats.next()) for o in orders]


# The deck's largest job, fixed so that the peak-memory job (its walk
# table holds every row up to the order) is the same in every run.
RADIAL_ANCHOR = Job("verify", 8, 900, oracle="tree")


def _radial_deep(rng: random.Random) -> Iterator[list[Job]]:
    ranks = _Cycle(rng, range(2, 9))
    series_formats = _Cycle(rng, ("json", "csv", "tex"))
    table_formats = _Cycle(rng, ("csv", "json"))
    scalar_orders = _buckets(rng, 400, 1300, 100)
    xdecomp_orders = _buckets(rng, 400, 1300, 100)
    verify_orders = _buckets(rng, 300, 800, 100)
    while True:
        deck = [Job("scalar", ranks.next(), o.next(), series_formats.next()) for o in scalar_orders]
        deck += [Job("xdecomp", ranks.next(), o.next(), table_formats.next()) for o in xdecomp_orders]
        deck += [Job("verify", ranks.next(), o.next(), oracle="tree") for o in verify_orders]
        deck.append(RADIAL_ANCHOR)
        yield deck


# (rank, order) pairs well inside the ring oracle's per-rank budget.  The
# two middle jobs of a deck, whose times set the median, take about the
# same time (verify r3/o5 and expand r2/p7), so the median is not a gap
# between two job sizes.
RING_GRID = (
    (2, 6), (2, 7), (2, 8),
    (3, 4), (3, 5), (3, 6),
    (4, 3), (4, 4), (4, 5),
    (5, 3), (5, 4),
    (6, 4),
    (8, 3), (8, 4),
)


def _ring_oracle(rng: random.Random) -> Iterator[list[Job]]:
    while True:
        deck = []
        for rank, order in RING_GRID:
            deck.append(Job("verify", rank, order, oracle="both"))
            deck.append(Job("expand", rank, order))
        yield deck


WORKLOADS = {
    "amalg_sweep": _amalg_sweep,
    "radial_deep": _radial_deep,
    "ring_oracle": _ring_oracle,
}


def decks(workload: str, seed: int) -> Iterator[list[Job]]:
    """The endless, shuffled decks of a workload; the same seed gives the same decks."""
    rng = random.Random(f"{workload}:{seed}")
    for deck in WORKLOADS[workload](rng):
        rng.shuffle(deck)
        yield deck
