"""Compare two result files from collect.py, metric by metric, workload by workload.

    python3 bench/compare.py parent.jsonl change.jsonl

Runs are paired by (workload, seed).  A workload whose change has more
failed jobs than the parent, or any change run that is not correct, is
worse as a whole.  Otherwise each end-to-end metric of BENCHMARK.json,
with its direction and bound, is judged in this order:

* worse: every change run reads worse than every parent run, and the
  change's median is worse than the parent's by more than the bound;
* improved: at least 10 pairs, the change wins at least nine tenths of
  them (ties count for neither side), and the medians differ, in the
  change's favour, by more than the parent's quartile spread;
* unresolved: either side's spread (q3 - q1) / median is wider than the
  bound, unless every change run reads better than every parent run;
* worse: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
* unchanged: none of the above.

Prints one row per workload and exits with 1 when any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from collect import quartiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["seed"])] = record["result"]
    return runs


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change of the median, positive when worse)."""
    sign = 1.0 if better == "lower" else -1.0
    q1_b, med_b, q3_b = quartiles(base)
    q1_c, med_c, q3_c = quartiles(change)
    worse_by = sign * (med_c - med_b) / med_b
    if min(sign * c for c in change) > max(sign * b for b in base) and worse_by > bound:
        return "worse", worse_by
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    if (
        len(base) >= MIN_PAIRS
        and wins >= 0.9 * len(base)
        and worse_by < 0
        and abs(med_c - med_b) > q3_b - q1_b
    ):
        return "improved", worse_by
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    too_wide = (q3_b - q1_b) / med_b > bound or (q3_c - q1_c) / med_c > bound
    if too_wide and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    return "unchanged", worse_by


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        print("no (workload, seed) pair is in both files", file=sys.stderr)
        return 2

    any_worse = False
    for workload in dict.fromkeys(w for w, _ in pairs):
        seeds = [s for w, s in pairs if w == workload]
        failed = [sum(runs[(workload, s)]["failed"] for s in seeds) for runs in (parent, change)]
        incorrect = sum(not change[(workload, s)]["correct"] for s in seeds)
        if failed[1] > failed[0] or incorrect:
            any_worse = True
            print(f"{workload} [{len(seeds)} pairs]: worse (failed jobs {failed[0]} -> "
                  f"{failed[1]}; {incorrect} change runs not correct)")
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            new = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            result, worse_by = verdict(base, new, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            change_text = f"{worse_by:.1%} worse" if worse_by > 0 else f"{abs(worse_by):.1%} better"
            cells.append(
                f"{name} {result} ({statistics.median(base):.4g} -> "
                f"{statistics.median(new):.4g} {metric['unit']}, {change_text})"
            )
        print(f"{workload} [{len(seeds)} pairs]: " + "; ".join(cells))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
