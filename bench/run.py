"""Benchmark of real fpmom CLI jobs, one fresh interpreter per job.

    python3 bench/run.py --workload amalg_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The seed draws the job mix (see
workloads.py); fpmom sees only each job's argv.  One client runs a
closed loop: the next job starts when the previous one has returned, and
decks of jobs keep starting until their summed wall time reaches
--seconds and at least 100 jobs have run (for at most twice --seconds);
the last deck is finished, so every run measures whole decks.  Each
job runs ``bench/job.py``, which calls ``fpmom.cli.main(argv)`` with stdout
captured in memory, under a deadline; a job that misses it is killed and
counts as failed, as does one with an unexpected exit code, an exception
or output bytes that differ from the bench's own reference (reference.py).

--trace 0 prints the end-to-end metrics:

    setup_s      median time from spawning an interpreter until fpmom.cli
                 is imported and build_parser() returns, over starts spread
                 through the batch (after one discarded start, so bytecode
                 is compiled)
    job_s.p50    median time inside cli.main per job
    job_s.p90    90th percentile of the same
    jobs_per_s   jobs completed per second of batch wall time (process
                 start included, output checking excluded)
    peak_rss_mb  highest peak RSS of any job process
    ok_ratio     jobs that passed / jobs attempted

--trace 1 runs the batch with spans around every layer (tracer.py), then
replays the same jobs untraced, and prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A provenance stamp precedes it, and the full result
(per-job rows included) goes to .bench_out/ under the repository root,
with the spans of a traced run beside it.  The run refuses to start when
fpmom would be imported from anywhere but this repository's src/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
JOB_PY = os.path.join(BENCH, "job.py")
SETUP_EVERY_S = 1.5  # batch wall time between two timed set-up starts
MIN_JOBS = 100  # leaves at least ten jobs beyond the 90th percentile

sys.path.insert(0, BENCH)

from reference import Checker  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Job, decks  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot measure this tree."""


@dataclass
class JobResult:
    job: Job
    rc: int | None
    job_s: float
    wall_s: float
    rss_kb: int
    failure: str | None
    trace: dict | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("FPMOM_SUPPORT_CAP", None)  # jobs run with the documented default cap
    env.pop("PYTHONPATH", None)  # job.py puts this tree's src/ first itself
    return env


def run_job(job: Job, mode: str, job_id: int) -> tuple[JobResult, bytes]:
    """Run one job in a fresh interpreter; return its result and stdout bytes."""
    cmd = [sys.executable, JOB_PY, mode, str(job_id), "--", *job.argv]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=job.deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        wall = time.monotonic() - start
        return JobResult(job, None, wall, wall, 0, f"missed the {job.deadline_s} s deadline"), b""
    wall = time.monotonic() - start
    head, _, output = out.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        reason = f"job driver exited {proc.returncode} without a report: {err[-500:]!r}"
        return JobResult(job, None, wall, wall, 0, reason), b""
    failure = None
    if header["exception"]:
        failure = "exception: " + header["exception"].strip().splitlines()[-1]
    return (
        JobResult(job, header["rc"], header["job_s"], wall, header["rss_kb"], failure,
                  header.get("trace")),
        output,
    )


def setup_start() -> float:
    """Seconds from spawning an interpreter until fpmom.cli is imported and its parser built."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, JOB_PY, "setup"], cwd=ROOT, env=_child_env(),
        capture_output=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"setup start failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout) - spawned


@dataclass
class Batch:
    results: list[JobResult]
    wall_s: float
    setup_samples: list[float]

    @property
    def failed(self) -> int:
        return sum(r.failure is not None for r in self.results)


def run_batch(decks, seconds: float, checker: Checker, mode: str = "run",
              runner=run_job, setup_every_s: float = 0.0, min_jobs: int = 0) -> Batch:
    """Run decks of jobs in a closed loop until their summed wall time reaches `seconds`.

    The deck in progress is always finished, so a batch holds whole decks.
    Decks also keep starting until `min_jobs` jobs have run, for at most
    twice `seconds`.  Output checks run between jobs, outside the summed
    wall time.  With
    `setup_every_s`, a set-up start is timed each time that much more batch
    wall time has passed, so set-up samples span the whole batch.
    """
    results: list[JobResult] = []
    setup_samples: list[float] = []
    wall = 0.0
    for deck in decks:
        if wall >= seconds and (len(results) >= min_jobs or wall >= 2 * seconds):
            break
        for job in deck:
            if setup_every_s and wall >= len(setup_samples) * setup_every_s:
                setup_samples.append(setup_start())
            result, output = runner(job, mode, len(results))
            wall += result.wall_s
            if result.failure is None:
                result.failure = checker.check(job, result.rc, output)
            results.append(result)
    by_job = {id(r.job): r for r in results}
    for job, reason in checker.finish():
        result = by_job[id(job)]
        result.failure = result.failure or reason
    return Batch(results, wall, setup_samples)


def end_to_end_metrics(batch: Batch) -> dict:
    times = [r.job_s for r in batch.results]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    attempted = len(batch.results)
    values = {
        "setup_s": (statistics.median(batch.setup_samples), "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (p90, "s"),
        "jobs_per_s": (attempted / batch.wall_s, "1/s"),
        "peak_rss_mb": (max(r.rss_kb for r in batch.results) / 1024, "MB"),
        "ok_ratio": ((attempted - batch.failed) / attempted, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def check_fpmom_location() -> str:
    """Fail unless fpmom imports from this tree's src/; return its tool version."""
    if not os.path.isfile(os.path.join(SRC, "fpmom", "__init__.py")):
        raise BenchError(f"no fpmom sources under {SRC}")
    sys.path.insert(0, SRC)
    import fpmom._version

    origin = os.path.realpath(fpmom._version.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"fpmom resolves to {origin}, outside {SRC}")
    return fpmom._version.TOOL_VERSION


def provenance(args) -> dict:
    commit = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        commit = lines[1]  # only this tree's own repository, not an enclosing one
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "fpmom"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _job_rows(batch: Batch) -> list[dict]:
    return [
        {"argv": r.job.argv, "rc": r.rc, "job_s": r.job_s, "wall_s": r.wall_s,
         "rss_kb": r.rss_kb, "failure": r.failure}
        for r in batch.results
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        checker = Checker(check_fpmom_location())
        stamp = provenance(args)
        stream = decks(args.workload, args.seed)
        record = {"provenance": stamp}
        setup_start()  # discarded: compiles bytecode and warms the file cache
        if args.trace == 0:
            batch = run_batch(
                stream, args.seconds, checker, setup_every_s=SETUP_EVERY_S, min_jobs=MIN_JOBS
            )
            metrics = end_to_end_metrics(batch)
            record["jobs"] = _job_rows(batch)
            record["setup_samples"] = batch.setup_samples
        else:
            batch = run_batch(stream, args.seconds, checker, mode="trace")
            replay = run_batch([[r.job for r in batch.results]], float("inf"), checker)
            traces = [r.trace for r in batch.results if r.trace is not None]
            traced_jobs = [r.job for r in batch.results if r.trace is not None]
            if not traces:
                raise BenchError("no traced job returned spans")
            metrics = layer_metrics(traced_jobs, traces, batch.wall_s / replay.wall_s)
            record["jobs"] = _job_rows(batch)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    failed = batch.failed
    attempted = len(batch.results)
    if args.trace:
        failed += replay.failed
        attempted += len(replay.results)
    record["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with gzip.open(os.path.join(OUT_DIR, f"spans-{tag}.jsonl.gz"), "wt") as fh:
            for trace in traces:
                for span in trace["spans"]:
                    fh.write(json.dumps(span) + "\n")

    for r in batch.results + (replay.results if args.trace else []):
        if r.failure:
            print(f"FAILED {' '.join(r.job.argv)}: {r.failure}")
    print(f"{args.workload} seed {args.seed}: {len(batch.results)} jobs, {failed} failed, "
          f"batch wall {batch.wall_s:.2f} s")
    if args.trace:
        print(f"untraced replay of the same jobs: batch wall {replay.wall_s:.2f} s")
    else:
        p90 = metrics["job_s.p90"]["value"]
        print(f"job_s samples: {len(batch.results)}, "
              f"{sum(r.job_s > p90 for r in batch.results)} beyond p90")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(stamp))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
