"""Every estimate against the plain-numpy reference of ``tests/reference.py``.

Golden digests say only that records did not change; these tests say that
they are right: each cell's S_i, and each ladder record's mean estimate and
RMSE, agree with the reference to rounding.
"""

import numpy as np
import pytest

from sobolbench import harness
from sobolbench.estimators import EstimatorKind, evaluation_set
from sobolbench.harness import BenchmarkConfig, estimate_cell, run_benchmark
from sobolbench.models import TEST_CASE_NAMES, build
from sobolbench.sampling import SamplerSpec

from reference import reference_indices
from test_estimators import _valid_kinds

SEED = harness.DEFAULT_MASTER_SEED
TOLERANCE = 1e-12


def _reference(model, kinds, n, spec, bin_count=None):
    """The reference's S_i of each of ``kinds`` on the (n, run) cell of ``spec``."""
    x = evaluation_set(model, kinds, n, spec).x
    want = reference_indices(model, [k.value for k in kinds], x, bin_count)
    return {kind: want[kind.value] for kind in kinds}


def _cells():
    """(model, kinds, bin count) of every case checked: each model's kinds at
    the default bins, and DLR at 8 bins on one independent and one dependent
    model."""
    for name in TEST_CASE_NAMES:
        model = build(name)
        yield model, tuple(_valid_kinds(model)), None
    for name in ("Ishigami", "DepLinear3"):
        yield build(name), (EstimatorKind.DLR,), 8


@pytest.mark.parametrize("budget", [harness._CHUNK_BYTES, 0], ids=["one-chunk", "128-row-chunks"])
def test_every_cell_matches_the_reference(monkeypatch, budget):
    # under a budget of no bytes a cell of 256 or more rows spans several
    # 128-row chunks, so the leaf sums and the kept DLR copies join them
    monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
    worst = {}
    for model, kinds, bins in _cells():
        for sampler in ("MC", "QMC"):
            for p in (6, 8, 10, 12):
                for run in range(3):
                    spec = SamplerSpec(sampler, SEED, run)
                    got = estimate_cell(model, kinds, 1 << p, spec, bins)
                    want = _reference(model, kinds, 1 << p, spec, bins)
                    for kind in kinds:
                        label = kind.value if bins is None else f"{kind.value}, {bins} bins"
                        key = model.name, sampler, label
                        err = float(np.max(np.abs(got[kind] - want[kind])))
                        worst[key] = max(worst.get(key, 0.0), err)
    table = "\n".join(
        f"  {name} {sampler} {kind}: {err:.1e}"
        for (name, sampler, kind), err in sorted(worst.items(), key=lambda kv: -kv[1])
    )
    assert max(worst.values()) <= TOLERANCE, f"worst |dS_i| per (model, sampler, kind):\n{table}"


@pytest.mark.parametrize("sampler", ["MC", "QMC"])
@pytest.mark.parametrize(
    "name,kinds",
    [("Linear4", tuple(EstimatorKind)), ("DepQuad4", (EstimatorKind.DLR,))],
    ids=["Linear4-all", "DepQuad4-dlr"],
)
def test_ladder_records_match_the_reference(name, kinds, sampler):
    # the harness's own layout: lower-rung runs as blocks of top-rung sets,
    # and each record's mean and RMSE over K, against cells drawn alone
    cfg = BenchmarkConfig(
        test=name, estimators=kinds, sampler=sampler, p_min=6, p_max=9, k=3,
        master_seed=SEED,
    )
    records = run_benchmark(cfg, threads=1)
    model = build(name)
    assert len(records) == len(kinds) * 4 * model.d
    runs = {
        n: [_reference(model, kinds, n, SamplerSpec(sampler, SEED, k)) for k in range(cfg.k)]
        for n in (1 << p for p in range(6, 10))
    }
    worst = 0.0
    for r in records:
        s = np.array([run[r.estimator][r.input - 1] for run in runs[r.n]])
        rmse = np.sqrt(np.mean((s - r.analytic) ** 2))
        worst = max(worst, abs(r.mean_estimate - s.mean()), abs(r.rmse - rmse))
    assert worst <= TOLERANCE
