"""The benchmark tracer (perfbench/spans.py) still finds every name it rebinds.

The tracer records spans from outside the package by rebinding module
attributes that the ladder resolves at call time.  If the package renames or
drops one of them, a traced benchmark run fails or records nothing for that
layer; these tiny ladders and a standalone cell catch that in the package's
own test suite.
"""

import importlib.util
from pathlib import Path

import pytest

import sobolbench
from sobolbench import (
    BenchmarkConfig,
    EstimatorKind,
    SamplerSpec,
    cost,
    estimate_cell,
    run_benchmark,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "test,sampler,threads,f_calls",
    [
        # QMC evaluates only the top rung: K (2d + 2) calls, d = 3
        ("Ishigami", "QMC", 1, 2 * 8),
        # so does MC: K (2d + 2) calls, d = 7
        ("ParkAhn7", "MC", 2, 2 * 16),
    ],
)
def test_traced_ladder_records_every_layer(test, sampler, threads, f_calls):
    cfg = BenchmarkConfig(
        test=test, estimators=tuple(EstimatorKind), sampler=sampler,
        p_min=4, p_max=5, k=2,
    )
    plain = run_benchmark(cfg, threads=threads)

    tracer = spans.Tracer()
    with spans.traced_package(tracer, sobolbench):
        # the root span the benchmark opens around each ladder
        with tracer.span("harness.run_benchmark", root=True):
            traced = sobolbench.run_benchmark(cfg, threads=threads)
    assert traced == plain

    names = {s.name for s in tracer.spans}
    assert {
        "models.f",
        "estimators.build_plan",
        "estimators.estimate_main_index",
        "sampling.generate_uniform",
        "sampling.transform",
    } <= names
    d = sobolbench.build(test).d
    nominal = sum(
        cost(kind, d, 1 << p)[0] * cfg.k
        for kind in cfg.estimators
        for p in range(cfg.p_min, cfg.p_max + 1)
    )
    metrics = spans.layer_metrics(tracer, threads, nominal)
    assert metrics["models.f.calls"] == f_calls
    # one plan and one reduction per top-rung set, for all of its cells and
    # kinds
    assert metrics["estimators.build_plan.calls"] == cfg.k
    assert metrics["estimators.estimate_main_index.calls"] == cfg.k
    assert metrics["sampling.generate_uniform.calls"] == cfg.k
    assert metrics["estimators.plan_bytes"] > 0


def test_traced_standalone_cell_records_each_reduction():
    # a standalone cell reduces its set through the same names the ladder
    # does, so the library and CLI path stays traceable: one plan and one
    # reduction for all of its kinds
    kinds = tuple(EstimatorKind)
    model = sobolbench.build("Ishigami")
    plain = estimate_cell(model, kinds, 64, SamplerSpec("QMC"))

    tracer = spans.Tracer()
    with spans.traced_package(tracer, sobolbench):
        traced = estimate_cell(model, kinds, 64, SamplerSpec("QMC"))
    assert traced.keys() == plain.keys()
    for kind in kinds:
        assert (traced[kind] == plain[kind]).all(), kind

    names = [s.name for s in tracer.spans]
    assert names.count("estimators.build_plan") == 1
    assert names.count("estimators.estimate_main_index") == 1
