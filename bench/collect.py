"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --runs 10 --out base.jsonl
    python3 bench/collect.py --runs 1                    # every metric once
    python3 bench/collect.py --runs 10 --root ../parent --root . \\
        --out parent.jsonl --out change.jsonl          # pairs for compare.py

Each run is ``bench/run.py`` with ``--seconds`` set to ``run_seconds`` of
BENCHMARK.json.  Seeds are ``first-seed .. first-seed + runs - 1``.  With two ``--root``
checkouts, each seed runs on both, alternating which runs first, and each
root's results go to its own ``--out`` file (JSON lines).  The summary
gives, per workload and metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, and
failed_ratio with its base.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(records: list[dict], spec: dict) -> None:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in rows)
        failed = sum(r["result"]["failed"] for r in rows)
        correct = all(r["result"]["correct"] for r in rows)
        print(f"{workload}: {len(rows)} runs, correct={correct}, failed_ratio "
              f"{failed / attempted:g} ({failed} failed of {attempted} attempted)")
        for name, metric in rows[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound:g}{'  SPREAD > bound/3' if spread > bound / 3 else ''}"
            print(f"  {name:52s} {med:12.6g} {metric['unit']:7s} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%}{note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", type=Path, default=None)
    parser.add_argument("--out", action="append", type=Path, default=None)
    args = parser.parse_args()
    roots = args.root or [ROOT]
    outs = args.out or []
    if len(roots) > 2 or (outs and len(outs) != len(roots)):
        parser.error("give one or two --root, and one --out per root if any")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    records: dict[Path, list[dict]] = {root: [] for root in roots}
    for workload in workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            order = roots if i % 2 == 0 else roots[::-1]
            for root in order:
                result = run_once(root, workload, seed, spec["run_seconds"], args.trace)
                records[root].append({"workload": workload, "seed": seed, "trace": args.trace,
                                      "result": result})
                print(f"{root}: {workload} seed {seed} done", file=sys.stderr)
    for i, root in enumerate(roots):
        if outs:
            with open(outs[i], "w", encoding="utf-8") as fh:
                for record in records[root]:
                    fh.write(json.dumps(record) + "\n")
        print(f"== {root}")
        summarise(records[root], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
