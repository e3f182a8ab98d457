"""Spans recorded from outside the library, and the per-layer metrics they give.

The tracer wraps public functions of the bgops modules (the layers) by
replacing the name in every bgops module namespace that holds it, or the
attribute on the class for methods, and puts the originals back on
``uninstall``.  Spans are kept in memory while the jobs run and written
out once at the end.  Each span is
``(id, parent id, job id, name, start, end, attrs)``; the job span of the
harness is the root of every job.  A layer's self time is the duration of
its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

LAYERS = {
    "cli": ("main",),
    "certify": ("build_certificate", "example_family", "stable_image"),
    "operations": (
        "alpha",
        "A_count",
        "coefficient_basis",
        "nontrivial_witness",
        "composite_op",
        "phi_sigma",
    ),
    "gradedalg": ("dp_multiply", "dp_coproduct", "linear_push", "su2_act", "beta_push"),
    "symhomology": ("juxta_multiply",),
    "f2core": ("SpanSolver.add", "SpanSolver.coordinates", "f2_rank_kernel", "F2Matrix.rank"),
    "oracle": (
        "FiniteGroupTable.check_laws",
        "cayley_action",
        "action_orbits",
        "bar_space",
        "transfer_chain",
        "compsum_alpha",
    ),
    "t3": ("t3_verify", "total_boundary"),
}
JOB = "harness.job"


def alpha_path(g, k) -> str:
    """The dispatch branch of ``operations.alpha`` taken for (g, k)."""
    kind = type(g).__name__
    if k == 0:
        return "k0"
    if kind == "Dihedral" or (kind == "Z2Power" and g.l == 1):
        return "rank_one"
    if kind == "Z2Power":
        return "z2power_fast"
    if kind == "Torus":
        return "torus1" if g.l == 1 else "torus_l"
    if kind == "SU2":
        return "su2"
    return "product"


# name -> attrs(args, result); attrs are what the counts are derived from
ATTRS: dict[str, Callable] = {
    "operations.alpha": lambda args, res: {"path": alpha_path(args[0], args[1])},
    "operations.coefficient_basis": lambda args, res: {"classes": len(res)},
    "operations.nontrivial_witness": lambda args, res: {"found": res.witness is not None},
    "certify.build_certificate": lambda args, res: {
        "certified": type(res).__name__ == "Certificate"
    },
    "gradedalg.dp_coproduct": lambda args, res: {"pairs": len(res)},
    "f2core.SpanSolver.add": lambda args, res: {"enlarged": bool(res)},
    "oracle.action_orbits": lambda args, res: {"orbits": len(res)},
    "oracle.bar_space": lambda args, res: {"words": len(res.words)},
}


class Tracer:
    """Span recorder; records only while a job is open."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.job: int | None = None
        self.current: int | None = None
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def run_job(self, job_id: int, kind: str, call: Callable[[], object]):
        """Run one job under a root span; returns (result, duration)."""
        sid = self._new_id()
        self.job, self.current = job_id, sid
        start = self.clock()
        try:
            result = call()
        finally:
            end = self.clock()
            self.spans.append((sid, None, job_id, JOB, start, end, {"kind": kind}))
            self.job = self.current = None
        return result, end - start

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs = ATTRS.get(name)
        clock = self.clock

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            parent, sid = self.current, self._new_id()
            self.current = sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.current = parent
                self.spans.append((sid, parent, self.job, name, start, clock(), None))
                raise
            end = clock()
            self.current = parent
            span_attrs = attrs(args, result) if attrs else None
            self.spans.append((sid, parent, self.job, name, start, end, span_attrs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, callers=()) -> None:
        """Wrap every listed function in every module namespace that imported it.

        ``callers`` are further modules, outside the package, whose imported
        names are wrapped too, so that their direct calls are traced.
        """
        homes = {layer: importlib.import_module(f"bgops.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items()) if n == "bgops" or n.startswith("bgops.")]
        modules += list(callers)
        for layer, names in LAYERS.items():
            home = homes[layer]
            for qualname in names:
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._installed.append((cls, attr, original))
                    setattr(cls, attr, self.wrap(name, original))
                    continue
                original = getattr(home, qualname)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _job, _name, start, end, _attrs in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _p, _j, _n, start, end, _a in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; ``untraced_s`` is the same jobs' untraced time."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attr_sum: dict[tuple[str, str], float] = defaultdict(float)
    child_calls: dict[tuple[str, str], int] = defaultdict(int)
    name_of = {s[0]: s[3] for s in spans}
    job_s = 0.0
    for sid, parent, _job, name, start, end, attrs in spans:
        if name == JOB:
            job_s += end - start
            continue
        calls[name] += 1
        self_s[name] += selfs[sid]
        for key, value in (attrs or {}).items():
            if key == "path":
                calls[f"{name}.path.{value}"] += 1
            else:
                attr_sum[(name, key)] += value
        if parent is not None:
            child_calls[(name_of[parent], name)] += 1

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for qualname in names:
            name = f"{layer}.{qualname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out[f"{layer}.self_share"] = _ratio(
            sum(self_s[f"{layer}.{q}"] for q in names), job_s
        )
    for path in ("k0", "rank_one", "z2power_fast", "torus1", "su2", "torus_l", "product"):
        out[f"operations.alpha.path.{path}.calls"] = calls[f"operations.alpha.path.{path}"]
    out["operations.coefficient_basis.classes"] = attr_sum[("operations.coefficient_basis", "classes")]
    searches = calls["operations.nontrivial_witness"]
    out["operations.nontrivial_witness.found_ratio"] = _ratio(
        attr_sum[("operations.nontrivial_witness", "found")], searches
    )
    out["operations.nontrivial_witness.alpha_per_search"] = _ratio(
        child_calls[("operations.nontrivial_witness", "operations.alpha")], searches
    )
    attempts = calls["certify.build_certificate"]
    out["certify.build_certificate.certified_ratio"] = _ratio(
        attr_sum[("certify.build_certificate", "certified")], attempts
    )
    out["certify.build_certificate.composites_per_attempt"] = _ratio(
        child_calls[("certify.build_certificate", "operations.composite_op")], attempts
    )
    out["gradedalg.dp_coproduct.pairs"] = attr_sum[("gradedalg.dp_coproduct", "pairs")]
    out["f2core.SpanSolver.add.enlarged_ratio"] = _ratio(
        attr_sum[("f2core.SpanSolver.add", "enlarged")], calls["f2core.SpanSolver.add"]
    )
    out["oracle.action_orbits.orbits"] = attr_sum[("oracle.action_orbits", "orbits")]
    out["oracle.bar_space.words"] = attr_sum[("oracle.bar_space", "words")]
    out["trace_overhead_ratio"] = _ratio(job_s, untraced_s) - 1.0
    return out
