"""In-memory span tracer for the ladder benchmark.

Spans are recorded from outside the package: :func:`traced_package` rebinds
the module attributes that ``run_benchmark`` and ``build_plan`` resolve at
call time, so sobolbench itself carries no tracing code.  Each span keeps
(id, name, start, end, parent, thread); spans are appended under a lock
because the thread pool records them from two workers at once.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple, Optional

# Array fields of an EvaluationPlan; their summed nbytes is the computed
# memory footprint of one plan.
PLAN_ARRAYS = ("x_a", "f_a", "f_b", "f_ab", "f_ca", "f_c")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and exact work counts for one ladder."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: Optional[int] = None

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        # Pool workers start with an empty stack: their spans are children of
        # the open root span (run_benchmark) on the submitting thread.
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = next(self._ids)
        if root:
            self._root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident())
                )

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn, counter=None):
        """``fn`` inside a span; ``counter(result)`` adds to the work counts."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, n in counter(result).items():
                    self.count(key, n)
            return result

        return traced


def _self_time(span: Span, children: dict[Optional[int], list[Span]]) -> float:
    """Span duration minus the union of its children's intervals."""
    return span.duration - _union_length(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children.get(span.id, ())
    )


def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for s, e in sorted(intervals):
        if hi is None or s > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if hi is not None:
        total += hi - lo
    return total


@contextmanager
def traced_package(tracer: Tracer, sb):
    """Rebind sobolbench's call-time lookups to traced wrappers, then restore.

    ``sb`` is the imported package.  ``harness.build`` returns the model with
    a traced ``f``, so every model evaluation of the ladder is a span.
    """
    est, har = sb.estimators, sb.harness
    build = har.build

    def traced_build(test):
        model = build(test)
        f = tracer.wrap("models.f", model.f, lambda y: {"models.f.rows": len(y)})
        return dataclasses.replace(model, f=f)

    def plan_bytes(plan):
        arrays = (getattr(plan, a) for a in PLAN_ARRAYS)
        return {"estimators.plan_bytes": sum(a.nbytes for a in arrays if a is not None)}

    patches = {
        (est, "generate_uniform"): tracer.wrap(
            "sampling.generate_uniform",
            est.generate_uniform,
            lambda u: {"sampling.generate_uniform.values": u.n * u.dims},
        ),
        (est, "transform_independent"): tracer.wrap(
            "sampling.transform", est.transform_independent
        ),
        (est, "transform_correlated_normal"): tracer.wrap(
            "sampling.transform", est.transform_correlated_normal
        ),
        (har, "build_plan"): tracer.wrap(
            "estimators.build_plan", har.build_plan, plan_bytes
        ),
        (har, "estimate_main_index"): tracer.wrap(
            "estimators.estimate_main_index", har.estimate_main_index
        ),
        (har, "build"): traced_build,
    }
    saved = {key: getattr(*key) for key in patches}
    try:
        for (module, attr), fn in patches.items():
            setattr(module, attr, fn)
        yield tracer
    finally:
        for (module, attr), fn in saved.items():
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, threads: int, nominal_evals: int) -> dict[str, float]:
    """Per-layer totals of one traced ladder."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[Optional[int], list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(_self_time(s, children) for s in by_name[name])

    (root,) = by_name["harness.run_benchmark"]
    busy = sum(c.duration for c in children[root.id])
    rows = tracer.counts["models.f.rows"]
    return {
        "sampling.generate_uniform.calls": len(by_name["sampling.generate_uniform"]),
        "sampling.generate_uniform.s": total("sampling.generate_uniform"),
        "sampling.generate_uniform.values": tracer.counts["sampling.generate_uniform.values"],
        "sampling.transform.calls": len(by_name["sampling.transform"]),
        "sampling.transform.s": total("sampling.transform"),
        "models.f.calls": len(by_name["models.f"]),
        "models.f.rows": rows,
        "models.f.s": total("models.f"),
        "models.eval_ratio": rows / nominal_evals,
        "estimators.build_plan.calls": len(by_name["estimators.build_plan"]),
        "estimators.build_plan.self_s": self_total("estimators.build_plan"),
        "estimators.plan_bytes": tracer.counts["estimators.plan_bytes"],
        "estimators.estimate_main_index.calls": len(
            by_name["estimators.estimate_main_index"]
        ),
        "estimators.estimate_main_index.s": total("estimators.estimate_main_index"),
        "harness.run_benchmark.s": root.duration,
        "harness.run_benchmark.self_s": _self_time(root, children),
        "harness.busy_share": busy / (root.duration * threads),
        "cli.write.s": total("cli.write"),
    }
