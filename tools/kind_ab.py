"""Time every job kind of a workload on two checkouts in one interpreter.

    python3 tools/kind_ab.py BASE CHANGE --workload oracle --passes 40
    python3 tools/kind_ab.py ../parent . --workload search --rounds 2 --seed 7

Each checkout's ``bench/workloads.py`` is loaded against that checkout's
``src/``: the ``bgops`` modules are purged from ``sys.modules`` between the
two loads, so each loaded workload module keeps the package it imported.
The jobs of ``--rounds`` rounds of ``--seed`` are grouped by kind; a pass
calls every job of a kind once, and a kind's time is the minimum over the
passes of the mean call time.  The two checkouts alternate which runs
first, pass by pass, so both see the same machine and the same warm
caches.  Every output is checked with the job's own check, and the digests
of the two checkouts must agree job by job.

Timing two checkouts in separate processes can read unchanged code as a
few percent slower; one interpreter holding both packages does not.  The
output is a table to read, not a result file: ``bench/collect.py`` and
``bench/compare.py`` give the verdicts.  Standard library only; run by
hand.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
import time
from pathlib import Path


def load_workloads(root: Path, name: str):
    """``root/bench/workloads.py`` as module ``name``, importing ``root/src``."""
    for mod in [m for m in sys.modules if m == "bgops" or m.startswith("bgops.")]:
        del sys.modules[mod]
    sys.path.insert(0, str(root / "src"))
    try:
        spec = importlib.util.spec_from_file_location(name, root / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses read the defining module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(root / "src"))
    return module


def jobs_by_kind(workloads, workload: str, seed: int, rounds: int) -> dict[str, list]:
    kinds: dict[str, list] = {}
    for index in range(rounds):
        for job in workloads.make_round(workload, seed, index):
            kinds.setdefault(job.kind, []).append(job)
    return kinds


def mean_call_s(jobs: list) -> float:
    total = 0.0
    for job in jobs:
        start = time.perf_counter()
        job.call()
        total += time.perf_counter() - start
    return total / len(jobs)


def outputs_agree(base_jobs: list, change_jobs: list) -> bool:
    for base, change in zip(base_jobs, change_jobs):
        out_b, out_c = base.call(), change.call()
        if not (base.check(out_b) and change.check(out_c)):
            return False
        if base.digest(out_b) != change.digest(out_c):
            return False
    return len(base_jobs) == len(change_jobs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--passes", type=int, default=40)
    args = parser.parse_args()

    trees = [
        jobs_by_kind(load_workloads(root.resolve(), f"workloads_{i}"), args.workload, args.seed,
                     args.rounds)
        for i, root in enumerate((args.base, args.change))
    ]
    if list(trees[0]) != list(trees[1]):
        raise SystemExit("the two checkouts generate different job kinds")
    kinds = sorted(trees[0])
    agree = {kind: outputs_agree(trees[0][kind], trees[1][kind]) for kind in kinds}
    best = {kind: [float("inf"), float("inf")] for kind in kinds}
    for p in range(args.passes):
        order = (0, 1) if p % 2 == 0 else (1, 0)
        for kind in kinds:
            for side in order:
                gc.collect()
                best[kind][side] = min(best[kind][side], mean_call_s(trees[side][kind]))

    print(f"{args.workload} seed {args.seed}, {args.rounds} round(s), minimum of {args.passes} "
          f"passes, ms per call")
    print(f"{'kind':28s} {'jobs':>5s} {'base':>9s} {'change':>9s} {'speed-up':>9s}  outputs")
    for kind in kinds:
        base_s, change_s = best[kind]
        print(f"{kind:28s} {len(trees[0][kind]):5d} {base_s * 1e3:9.4f} {change_s * 1e3:9.4f} "
              f"{base_s / change_s:8.3f}x  {'equal' if agree[kind] else 'DIFFER'}")
    return 0 if all(agree.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
