"""What the benchmark under bench/ needs of the package, checked in milliseconds.

``bench/workloads.py`` imports the public names its jobs call, and the
tracer of ``bench/tracing.py`` wraps the functions and methods listed in
``LAYERS`` by name.  A deletion or rename of any of them would break
``bench/run.py --trace 1`` only after a long run; here it fails at once.
So would a changed signature that makes a job raise or fail its output
check: round 0 of every workload runs here, untimed, in under a second.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[spec.name]
        raise
    return module


tracing = load_bench_module("tracing")


def test_workloads_import():
    workloads = load_bench_module("workloads")
    assert callable(workloads.make_round)


@pytest.mark.parametrize(
    "layer,qualname",
    [(layer, qualname) for layer, names in tracing.LAYERS.items() for qualname in names],
)
def test_traced_name_resolves(layer, qualname):
    # the same lookups as ``Tracer.install``
    home = importlib.import_module(f"bgops.{layer}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        target = vars(getattr(home, cls_name))[attr]
    else:
        target = getattr(home, qualname)
    assert callable(target)


SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_zero_runs_and_passes_its_checks(workload):
    # what ``bench/worker.py`` does with each job, without the clock
    workloads = load_bench_module("workloads")
    failed = []
    for job in workloads.make_round(workload, 1, 0):
        try:
            out = job.call()
            if job.check(out):
                job.digest(out)
            else:
                failed.append((job.kind, "output check failed"))
        except Exception as err:  # noqa: BLE001 - report every failing job
            failed.append((job.kind, repr(err)))
    assert failed == []
