"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_smoke.py      (or: python3 bench/test_smoke.py)

Runs one round of each workload, untraced and traced, and requires every
output check to pass and every per-layer metric of BENCHMARK.json to be
derived; checks the self-time arithmetic on a synthetic nested call.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(workload: str, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
           "--mode", mode, "--rounds", "1", *extra, "--t0", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    table = {}

    def inner():
        return 1

    def failing():
        raise ValueError("counted, then re-raised")

    def outer():
        try:
            table["failing"]()
        except ValueError:
            pass
        return table["inner"]() + table["inner"]()

    table["inner"] = tracer.wrap("t.inner", inner)
    table["failing"] = tracer.wrap("t.failing", failing)
    result, duration = tracer.run_job(0, "synthetic", tracer.wrap("t.outer", outer))
    assert (result, duration) == (2, 9)
    # clock: job 0..9, outer 1..8, failing 2..3, inner 4..5 and 6..7
    by_name = {}
    for sid, value in tracing.self_times(tracer.spans).items():
        name = next(s[3] for s in tracer.spans if s[0] == sid)
        by_name.setdefault(name, []).append(value)
    assert by_name == {
        "t.failing": [1],
        "t.inner": [1, 1],
        "t.outer": [7 - 3],
        tracing.JOB: [9 - 7],
    }
    # spans are recorded only while a job is open
    assert table["inner"]() == 1 and len(tracer.spans) == 5


def test_install_restores_the_library():
    import bgops
    import bgops.operations as operations

    original = operations.alpha
    tracer = tracing.Tracer()
    tracer.install()
    assert operations.alpha is not original and bgops.alpha is operations.alpha
    tracer.uninstall()
    assert operations.alpha is original and bgops.alpha is original


def test_notes_record_the_job_mix():
    import workloads

    notes = json.loads((BENCH / "notes.json").read_text())
    for w in SPEC["workloads"]:
        mix = Counter(job.kind for job in workloads.make_round(w["name"], 1, 0))
        assert notes["workloads"][w["name"]]["jobs_per_round"] == dict(mix)


def test_each_workload_runs_clean_at_one_round():
    names = [m["name"] for m in SPEC["per_layer"]]
    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    for w in SPEC["workloads"]:
        plain = worker(w["name"], "run")
        assert plain["failed"] == 0, plain["failures"]
        assert plain["rounds"] == 1 and plain["latencies"][0]

        spans_path = spans_dir / f"smoke-{w['name']}.json"
        traced = worker(w["name"], "traced", "--spans", str(spans_path))
        assert traced["failed"] == 0, traced["failures"]
        assert traced["digest"] == plain["digest"]
        spans = json.loads(spans_path.read_text())
        metrics = tracing.layer_metrics(spans, sum(plain["latencies"][0]))
        assert set(names) <= set(metrics)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
