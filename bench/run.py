"""bgops benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0

``--seconds`` is part of the command line the benchmark is driven with;
it defaults to ``run_seconds`` of BENCHMARK.json, and every tool here
passes that value, so both sides of a comparison measure equally long.

Each workload runs as a closed loop (one client, one thread, one process)
in fresh interpreters started from here:

* ``--trace 0``: several set-up-only processes and one measuring process;
  reports the end-to-end metrics named in BENCHMARK.json.
* ``--trace 1``: one untraced and one traced process over the same fixed
  number of rounds of the seed, so that counts repeat exactly; reports the
  per-layer metrics, derived from the span file the traced process writes
  under ``.bench_out/``.

Outputs are checked in the workload process outside the timed region.
For the default seed the digest of the first round's outputs must also
match ``bench/digests.json`` (``--record-digest`` rewrites it).  Human-
readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
SETUP_RUNS = 10  # set-up-only processes per run, besides the measuring one
DEADLINE_S = 170.0
# rounds the traced process runs; fixed so that its counts repeat exactly
TRACE_ROUNDS = {"search": 20, "fastpath": 3, "oracle": 2}


class BenchError(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float, **extra) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantiles(values: list[float]) -> tuple[float, float]:
    """(median, 90th percentile)."""
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def check_digest(args, measured: dict) -> bool:
    path = BENCH / "digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    if args.record_digest:
        recorded[args.workload] = measured["digest"]
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        return True
    if args.seed != DEFAULT_SEED:
        return True
    ok = recorded.get(args.workload) == measured["digest"]
    if not ok:
        print(f"output digest {measured['digest']} differs from the recorded one", file=sys.stderr)
    return ok


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    # set-ups before and after the measuring process, so that they sample
    # the host at two moments rather than one
    half = SETUP_RUNS // 2
    setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(half)]
    measured = run_worker(args, "run", deadline, seconds=args.seconds)
    setups += [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - half)]
    setups.append(measured["setup_s"])
    latencies = [x for lat in measured["latencies"] for x in lat]
    p50, p90 = quantiles(latencies)
    values = {
        "jobs_per_s": len(latencies) / sum(measured["round_s"]),
        "job_p50_ms": 1000 * p50,
        "job_p90_ms": 1000 * p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_kb"] / 1024,
    }
    beyond = sum(1 for x in latencies if x > p90)
    print(
        f"{args.workload}: seed {args.seed}, {measured['rounds']} rounds, "
        f"{len(latencies)} jobs in {sum(measured['round_s']):.2f} s of timed jobs; "
        f"{beyond} samples beyond p90; setup_s is the median of {len(setups)} set-ups"
    )
    return values, measured


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    import tracing

    rounds = TRACE_ROUNDS[args.workload]
    measured = run_worker(args, "run", deadline, rounds=rounds)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
    traced = run_worker(args, "traced", deadline, rounds=rounds, spans=spans_path)
    spans = json.loads(spans_path.read_text())
    untraced_s = sum(sum(lat) for lat in measured["latencies"])
    values = tracing.layer_metrics(spans, untraced_s)
    print(
        f"{args.workload}: seed {args.seed}, traced {rounds} rounds, {len(spans)} spans "
        f"in {spans_path.relative_to(ROOT)}; trace overhead is measured against the "
        f"same rounds untraced ({untraced_s:.3f} s)"
    )
    measured["failed"] += traced["failed"]
    measured["failures"] += traced["failures"]
    measured["latencies"] += traced["latencies"]
    return values, measured


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store the first round's output digest for the default seed")
    args = parser.parse_args()
    if args.record_digest and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record-digest needs --seed {DEFAULT_SEED} --trace 0")
    if not (ROOT / "src" / "bgops" / "__init__.py").is_file():
        print("error: no bgops sources under src/ next to the benchmark", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            values, measured = per_layer(args, deadline)
        else:
            values, measured = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(map(len, measured["latencies"]))
    for failure in measured["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    digest_ok = check_digest(args, measured)
    for name, metric in metrics.items():
        print(f"  {name:56s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"  {'failed_ratio':56s} {measured['failed'] / attempted:14.6g} ratio "
        f"({measured['failed']} failed of {attempted} attempted)"
    )
    result = {
        "correct": measured["failed"] == 0 and digest_ok,
        "attempted": attempted,
        "failed": measured["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
