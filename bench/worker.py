"""One workload process: set up, run rounds of jobs, check them, report.

Started by run.py in a fresh interpreter, one per measurement, so that
every run pays the first-call costs a CLI user pays.  ``--t0`` is the
parent's ``time.perf_counter()`` just before the spawn (the clock is
CLOCK_MONOTONIC, shared by all processes), so ``setup_s`` covers
interpreter start, ``import bgops`` and the generation of the first round.

Modes:
  setup   stop after set-up;
  run     run whole rounds until ``--seconds`` of timed jobs and at least
          100 jobs are done, or exactly ``--rounds`` rounds;
  traced  as run, with the tracer installed; spans go to ``--spans``.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_JOBS = 100


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    jobs = workloads.make_round(args.workload, args.seed, 0)
    setup_s = time.perf_counter() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(callers=[workloads])

    latencies: list[list[float]] = []
    round_s: list[float] = []
    failures: list[str] = []
    digest = None
    job_id = 0
    while True:
        outputs, lat = [], []
        round_start = time.perf_counter()
        for job in jobs:
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = job.call()
                else:
                    out, _ = tracer.run_job(job_id, job.kind, job.call)
                err = None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, exc
            lat.append(time.perf_counter() - start)
            outputs.append((out, err))
            job_id += 1
        round_s.append(time.perf_counter() - round_start)
        latencies.append(lat)

        values = []
        for job, (out, err) in zip(jobs, outputs):
            try:
                ok = err is None and job.check(out)
                values.append([job.kind, job.digest(out) if ok else None])
            except Exception as exc:  # a check that raises is a failed check
                ok, err = False, exc
            if not ok:
                reason = repr(err) if err is not None else "output check failed"
                failures.append(f"round {len(round_s) - 1} {job.kind}: {reason}")
        if digest is None:
            digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()

        done = len(round_s)
        if args.rounds is not None:
            if done >= args.rounds:
                break
        elif sum(round_s) >= args.seconds and sum(map(len, latencies)) >= MIN_JOBS:
            break
        jobs = workloads.make_round(args.workload, args.seed, done)

    if tracer is not None:
        tracer.uninstall()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "rounds": len(round_s),
                "round_s": round_s,
                "latencies": latencies,
                "failed": len(failures),
                "failures": failures[:10],
                "digest": digest,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
