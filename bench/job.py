"""Run one fpmom CLI job in this fresh interpreter and report on it.

    python3 bench/job.py setup
    python3 bench/job.py run   JOB_ID -- FPMOM_ARGV...
    python3 bench/job.py trace JOB_ID -- FPMOM_ARGV...

``setup`` imports ``fpmom.cli``, builds its parser and prints the
CLOCK_MONOTONIC time at which that finished, so the caller can time the
start of a fresh interpreter.  ``run`` calls ``fpmom.cli.main(argv)``
with stdout and stderr captured in memory, then writes one JSON header
line (exit code, time inside main, peak RSS) followed by the captured
stdout bytes.  ``trace`` does the same with the bench's spans installed
and adds them to the header.

fpmom is imported from the ``src`` directory next to this one; the job
refuses to run (exit 3) if it resolves anywhere else.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXIT_WRONG_FPMOM = 3


def main() -> int:
    mode = sys.argv[1]
    sys.path.insert(0, SRC)
    import fpmom.cli

    if not os.path.realpath(fpmom.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"fpmom resolves to {fpmom.cli.__file__}, outside {SRC}", file=sys.stderr)
        return EXIT_WRONG_FPMOM
    if mode == "setup":
        fpmom.cli.build_parser()
        sys.stdout.write(repr(time.monotonic()))
        return 0

    import io
    import json
    import resource
    import traceback

    job_id, argv = int(sys.argv[2]), sys.argv[4:]
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.install(job_id)
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    rc, failure = None, None
    try:
        t0 = time.perf_counter()
        try:
            rc = fpmom.cli.main(argv)
        except Exception:
            failure = traceback.format_exc()
        job_s = time.perf_counter() - t0
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    data = out.getvalue().encode("utf-8")
    header = {
        "rc": rc,
        "job_s": job_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "exception": failure,
        "stderr": err.getvalue()[-2000:],
    }
    if tracer is not None:
        header["trace"] = tracer.finish()
    sys.stdout.buffer.write(json.dumps(header).encode("utf-8") + b"\n")
    sys.stdout.buffer.write(data)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
