"""Self-test of the benchmark: its references agree, and failures are counted.

    python3 bench/selftest.py

Runs real fpmom jobs, so it needs this repository's src/.  Mirrors
``fpmom verify --self-test``: a harness that cannot fail proves nothing,
so one corrupted output per subcommand and one job over its deadline
must each show up as a failed job and lower ok_ratio.
"""

from __future__ import annotations

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from reference import (  # noqa: E402
    Checker,
    kesten_moments,
    radial_coefficients,
    walk_row,
)
from workloads import WORKLOADS, Job, decks  # noqa: E402

TOOL_VERSION = run.check_fpmom_location()

ONE_OF_EACH = [
    Job("scalar", 3, 40, "tex"),
    Job("amalg", 2, 30, "csv"),
    Job("xdecomp", 5, 61, "json"),
    Job("verify", 2, 6, oracle="both"),
    Job("expand", 2, 5),
]


def kesten_sum(rank: int, n: int) -> int:
    """tr(G^2n) as the finite sum over first-return counts j."""
    two_n, q = 2 * rank, 2 * rank - 1
    total = 0
    for j in range(1, n + 1):
        paths, rem = divmod(j * math.comb(2 * n - j, n), 2 * n - j)
        assert rem == 0
        total += paths * two_n**j * q ** (n - j)
    return total


def corrupt_last_digit(output: bytes) -> bytes:
    i = max(output.rfind(d) for d in b"0123456789")
    return output[:i] + str((output[i] - 48 + 1) % 10).encode() + output[i + 1 :]


def ok_ratio(batch) -> float:
    return (len(batch.results) - batch.failed) / len(batch.results)


class ReferenceTest(unittest.TestCase):
    def test_kesten_recurrence_matches_finite_sum(self):
        for rank in (1, 2, 3, 7):
            values = kesten_moments(rank, 40)
            for n in range(1, 41):
                self.assertEqual(values[n], kesten_sum(rank, n), (rank, n))

    def test_distance_dp_matches_kesten_and_known_table(self):
        for rank in (2, 3, 8):
            values = kesten_moments(rank, 60)
            for n in range(2, 121, 2):
                self.assertEqual(walk_row(rank, n)[0], values[n // 2])
        self.assertEqual(radial_coefficients(2, 6, walk_row(2, 6)), {0: 232, 2: 97, 4: 16, 6: 1})
        g8 = radial_coefficients(2, 8, walk_row(2, 8))
        self.assertEqual((g8[0], g8[2]), (2092, 958))


class FailureCountingTest(unittest.TestCase):
    def run_batch(self, job_list, runner=run.run_job):
        return run.run_batch([job_list], math.inf, Checker(TOOL_VERSION), runner=runner)

    def test_clean_jobs_pass(self):
        clean = list(ONE_OF_EACH)
        for workload in WORKLOADS:
            clean += [j for j in next(decks(workload, 7)) if j.order <= 500][:3]
        batch = self.run_batch(clean)
        self.assertEqual([r.failure for r in batch.results], [None] * len(clean))
        self.assertEqual(ok_ratio(batch), 1.0)

    def test_corrupted_output_counts_as_failure(self):
        for victim in ONE_OF_EACH:
            def runner(job, mode, job_id):
                result, output = run.run_job(job, mode, job_id)
                return result, corrupt_last_digit(output) if job is victim else output

            with self.subTest(victim.kind):
                batch = self.run_batch(ONE_OF_EACH, runner)
                failed = [r.job for r in batch.results if r.failure]
                self.assertEqual(failed, [victim])
                self.assertLess(ok_ratio(batch), 1.0)

    def test_missed_deadline_counts_as_failure(self):
        slow = Job("verify", 2, 9, oracle="both", deadline_s=0.05)
        batch = self.run_batch([ONE_OF_EACH[0], slow])
        self.assertIsNone(batch.results[0].failure)
        self.assertIn("deadline", batch.results[1].failure)
        self.assertLess(ok_ratio(batch), 1.0)


if __name__ == "__main__":
    unittest.main()
