"""Benchmark protocol: replicate RMSE, rate fitting, cost accounting."""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sobolbench.estimators as estimators
import sobolbench.harness as harness
from sobolbench.estimators import EstimatorKind
from sobolbench.harness import (
    BenchmarkConfig,
    ConvergenceRecord,
    cost,
    estimate_cell,
    fit_rate,
    group_records,
    resolve_threads,
    rmse_against,
    run_benchmark,
)
from sobolbench.models import TestCaseId as CaseId, build
from sobolbench.sampling import SOBOL_PERIOD, SamplerSpec

import test_acceptance

IMPROVED = (
    EstimatorKind.SK,
    EstimatorKind.OWEN,
    EstimatorKind.ORACLE,
    EstimatorKind.DLR,
)


def make_records(rmse_by_n, estimator=EstimatorKind.SK, input_index=1):
    records = []
    for n, rmse in rmse_by_n.items():
        actual, table1 = cost(estimator, 4, n)
        records.append(
            ConvergenceRecord(
                test="Linear4",
                estimator=estimator,
                sampler="QMC",
                input=input_index,
                n=n,
                n_cpu_actual=actual,
                n_cpu_table1=table1,
                rmse=rmse,
                mean_estimate=0.0,
                analytic=0.0,
                k=10,
            )
        )
    return records


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    good = BenchmarkConfig(
        test="Linear4", estimators=(EstimatorKind.SK,), sampler="QMC", p_min=8, p_max=10
    )
    assert good.k == 10 and good.fit_window == "upper"
    with pytest.raises(ValueError, match="K"):
        BenchmarkConfig(
            test="Linear4", estimators=(EstimatorKind.SK,), sampler="QMC",
            p_min=8, p_max=10, k=1,
        )
    with pytest.raises(ValueError, match="p_min"):
        BenchmarkConfig(
            test="Linear4", estimators=(EstimatorKind.SK,), sampler="QMC",
            p_min=10, p_max=8,
        )
    with pytest.raises(ValueError, match="sampler"):
        BenchmarkConfig(
            test="Linear4", estimators=(EstimatorKind.SK,), sampler="LHS",
            p_min=8, p_max=10,
        )
    with pytest.raises(ValueError, match="estimator"):
        BenchmarkConfig(test="Linear4", estimators=(), sampler="QMC", p_min=8, p_max=10)
    with pytest.raises(ValueError, match="repeated estimator 'dlr'"):
        BenchmarkConfig(
            test="Linear4", estimators=("dlr", "sk", "dlr"), sampler="QMC",
            p_min=8, p_max=10,
        )
    # a bin_override needs dlr and must split N = 2^p_min into bins of >= 2
    for estimators, bins, match in [
        (("sk",), 4, "only to the dlr"),
        (("sk", "dlr"), 1, "at least 2"),
        (("dlr",), 3, "does not divide"),
        (("dlr",), 512, "does not divide"),
        (("dlr",), 256, "N_m >= 2"),
    ]:
        with pytest.raises(ValueError, match=match):
            BenchmarkConfig(
                test="Linear4", estimators=estimators, sampler="QMC",
                p_min=8, p_max=10, bin_override=bins,
            )
    assert BenchmarkConfig(
        test="Linear4", estimators=("dlr",), sampler="QMC", p_min=8, p_max=10,
        bin_override=128,
    ).bin_override == 128
    # dlr's default schedule needs N = 2^p_min >= 4, checked by the config
    with pytest.raises(ValueError, match="requires N = 2\\^p with p >= 2, got N=2"):
        BenchmarkConfig(
            test="Linear4", estimators=("sk", "dlr"), sampler="QMC", p_min=1, p_max=4
        )
    assert BenchmarkConfig(
        test="Linear4", estimators=("sk",), sampler="QMC", p_min=1, p_max=4
    ).p_min == 1


def test_config_refuses_qmc_ladder_past_sobol_period():
    # QMC replicate k of the top rung is the Sobol' block [1 + k N, 1 + (k+1) N),
    # so K * 2^p_max points must stay below the 2^32 period; the configs are
    # only built, never run
    def config(sampler, p_max, k):
        return BenchmarkConfig(
            test="Linear4", estimators=("sk",), sampler=sampler,
            p_min=4, p_max=p_max, k=k,
        )

    assert SOBOL_PERIOD == 1 << 32
    for p_max, k in [(22, 1023), (30, 3)]:
        assert config("QMC", p_max, k).k << p_max < SOBOL_PERIOD
    for p_max, k in [(22, 1024), (22, 1100), (30, 4), (31, 2)]:
        with pytest.raises(ValueError, match="period"):
            config("QMC", p_max, k)
    # an MC ladder draws from PCG64 streams, which have no such bound
    assert config("MC", 22, 1100).k == 1100


@given(
    p_max=st.integers(63, None),
    p_min=st.integers(1, None),
    sampler=st.sampled_from(["MC", "QMC"]),
    estimators=st.sampled_from([("sk",), ("dlr",), ("sk", "dlr")]),
)
def test_config_refuses_ladder_past_array_length(p_max, p_min, sampler, estimators):
    # N = 2^p_max rows must be a numpy array length (below 2^63), so any
    # p_max past 62 is a config error, also when dlr's bin schedule would
    # be checked at an N of 2^p_min that no memory can hold
    with pytest.raises(ValueError, match="p_max must be at most 62"):
        BenchmarkConfig(
            test="Linear4", estimators=estimators, sampler=sampler,
            p_min=min(p_min, p_max), p_max=p_max,
        )
    assert BenchmarkConfig(
        test="Linear4", estimators=("dlr",), sampler="MC", p_min=62, p_max=62,
    ).p_max == 62


def test_config_coerces_names():
    # both the test case and the estimators accept plain strings
    cfg = BenchmarkConfig(
        test="Linear4", estimators=("sobol", "dlr"), sampler="QMC", p_min=8, p_max=10
    )
    assert cfg.test is CaseId("Linear4")
    assert cfg.estimators == (EstimatorKind.SOBOL, EstimatorKind.DLR)
    with pytest.raises(ValueError):
        BenchmarkConfig(
            test="Linear4", estimators=("bogus",), sampler="QMC", p_min=8, p_max=10
        )


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("SOBOLBENCH_THREADS", raising=False)
    assert resolve_threads() == 1
    assert resolve_threads(3) == 3
    monkeypatch.setenv("SOBOLBENCH_THREADS", "5")
    assert resolve_threads() == 5
    assert resolve_threads(2) == 2  # explicit argument wins
    with pytest.raises(ValueError):
        resolve_threads(0)
    for bad in ("abc", ""):
        monkeypatch.setenv("SOBOLBENCH_THREADS", bad)
        with pytest.raises(ValueError, match=f"SOBOLBENCH_THREADS.*{bad!r}"):
            resolve_threads()


# ---------------------------------------------------------------------------
# run_benchmark


def test_record_count_and_order():
    cfg = BenchmarkConfig(
        test="Linear4", estimators=(EstimatorKind.SK,), sampler="QMC",
        p_min=8, p_max=14,
    )
    records = run_benchmark(cfg)
    assert len(records) == 7 * 4
    keys = [(r.estimator.value, r.input, r.n) for r in records]
    assert keys == sorted(keys)
    assert all(r.k == 10 and r.sampler == "QMC" and r.test == "Linear4" for r in records)
    # rmse decreasing in N for every input, as a fitted trend
    for i in range(1, 5):
        fit = fit_rate([r for r in records if r.input == i], axis="N", window="full")
        assert fit.alpha > 0.0, f"input {i} does not converge"


def test_records_cost_columns():
    cfg = BenchmarkConfig(
        test="Linear4", estimators=(EstimatorKind.SOBOL, EstimatorKind.DLR),
        sampler="QMC", p_min=8, p_max=9,
    )
    for r in run_benchmark(cfg):
        actual, table1 = cost(r.estimator, 4, r.n)
        assert (r.n_cpu_actual, r.n_cpu_table1) == (actual, table1)
        assert r.analytic == pytest.approx(
            build("Linear4").analytic_main[r.input - 1]
        )


def test_thread_count_does_not_change_records():
    # QMC groups are uneven (with K = 4 top run 0 holds every cell of the
    # lowest rung), so QMC runs an odd thread count over them; MC too, over
    # its K = 4 groups of one replicate each
    for test, kinds, sampler, threads in [
        ("Ishigami", (EstimatorKind.SK, EstimatorKind.DLR), "MC", 4),
        ("ParkAhn7", tuple(EstimatorKind), "MC", 3),
        ("GFunc10A", tuple(EstimatorKind), "QMC", 3),
        ("DepQuad4", (EstimatorKind.DLR,), "QMC", 3),
    ]:
        cfg = BenchmarkConfig(
            test=test, estimators=kinds, sampler=sampler, p_min=7, p_max=9, k=4
        )
        assert run_benchmark(cfg, threads=1) == run_benchmark(cfg, threads=threads)


def test_master_seed_changes_mc_but_not_qmc():
    base = dict(
        test="Linear4", estimators=(EstimatorKind.SK,), p_min=8, p_max=8, k=3
    )
    mc_a = run_benchmark(BenchmarkConfig(sampler="MC", master_seed=1, **base))
    mc_b = run_benchmark(BenchmarkConfig(sampler="MC", master_seed=2, **base))
    assert mc_a != mc_b
    qmc_a = run_benchmark(BenchmarkConfig(sampler="QMC", master_seed=1, **base))
    qmc_b = run_benchmark(BenchmarkConfig(sampler="QMC", master_seed=2, **base))
    assert qmc_a == qmc_b  # QMC runs index blocks, not seeds


def test_dependent_model_benchmark():
    cfg = BenchmarkConfig(
        test="DepQuad4", estimators=(EstimatorKind.DLR,), sampler="QMC",
        p_min=10, p_max=12,
    )
    records = run_benchmark(cfg)
    assert len(records) == 3 * 4
    # inputs 3 and 4 are measured against an analytic value of exactly 0
    for r in records:
        if r.input in (3, 4):
            assert r.analytic == 0.0
            assert 0.0 <= r.rmse < 0.05


def test_dependent_model_rejects_direct_estimator():
    cfg = BenchmarkConfig(
        test="DepLinear3", estimators=(EstimatorKind.SK,), sampler="QMC",
        p_min=8, p_max=8,
    )
    with pytest.raises(Exception, match="independent inputs"):
        run_benchmark(cfg)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(2, 40),
    p_range=st.tuples(st.integers(1, 12), st.integers(1, 12)).map(sorted),
    sampler=st.sampled_from(["MC", "QMC"]),
)
def test_draw_groups_place_each_cell_once_in_its_top_run(k, p_range, sampler):
    # every (N, k) cell of the ladder is listed once, as rows of the top
    # run that holds it: QMC run k at N is the Sobol' block from k N, MC run
    # k at N the leading rows of top run k; each group leads with its top cell
    p_min, p_max = p_range
    cfg = BenchmarkConfig(
        test="Linear4", estimators=(EstimatorKind.SK,), sampler=sampler,
        p_min=p_min, p_max=p_max, k=k,
    )
    n_top = 1 << p_max
    groups = harness._draw_groups(cfg)
    cells = [(n, run) for group in groups for n, run, _ in group]
    assert sorted(cells) == sorted(
        (1 << p, run) for p in range(p_min, p_max + 1) for run in range(k)
    )
    assert len(groups) == k
    for top, group in enumerate(groups):
        assert group[0] == (n_top, top, 0)
        for n, run, start in group:
            assert start + n <= n_top
            if sampler == "QMC":
                assert top * n_top + start == run * n
            else:
                assert (top, start) == (run, 0)


@pytest.fixture()
def counted(monkeypatch):
    """Counts run_benchmark's model calls and records the rows of each, its
    unit-draw widths and the number of unit values each transform call maps."""
    work = {"f": 0, "rows": [], "draws": [], "transformed": []}
    draw = estimators.generate_uniform

    def counted_draw(spec, n, dims):
        work["draws"].append(dims)
        return draw(spec, n, dims)

    def counted_transform(transform):
        def counted(u, *args):
            work["transformed"].append(u.n * u.dims)
            return transform(u, *args)

        return counted

    build_model = harness.build

    def counted_build(test):
        model = build_model(test)

        def f(x):
            work["f"] += 1
            work["rows"].append(len(x))
            return model.f(x)

        return dataclasses.replace(model, f=f)

    monkeypatch.setattr(estimators, "generate_uniform", counted_draw)
    for name in ("transform_independent", "transform_correlated_normal"):
        monkeypatch.setattr(
            estimators, name, counted_transform(getattr(estimators, name))
        )
    monkeypatch.setattr(harness, "build", counted_build)
    return work


def _one_rung(test, kinds, sampler, p=6, k=2):
    return BenchmarkConfig(
        test=test, estimators=kinds, sampler=sampler, p_min=p, p_max=p, k=k
    )


@pytest.mark.parametrize("test,sampler", [("GFunc10A", "QMC"), ("ParkAhn7", "MC")])
def test_cell_evaluates_once_for_all_estimators(counted, test, sampler):
    # one 3d draw, one transform and 2d + 2 model calls per cell serve all
    # five estimators under either sampler: 22 calls on GFunc10A (d = 10;
    # 58 if each ran alone), 16 on ParkAhn7 (d = 7)
    d = build(test).d
    run_benchmark(_one_rung(test, tuple(EstimatorKind), sampler))
    assert counted["draws"] == [3 * d] * 2
    assert counted["transformed"] == [64 * 3 * d] * 2
    assert counted["f"] == 2 * (2 * d + 2)


def test_qmc_ladder_evaluates_only_its_top_rung(counted):
    # every lower-rung QMC cell reduces rows of a top-rung run, so a GFunc10A
    # ladder (d = 10, p = 4..7, K = 3) draws, transforms and evaluates only
    # its K top runs: K (2d + 2) = 66 model calls of N_top = 128 rows
    cfg = BenchmarkConfig(
        test="GFunc10A", estimators=tuple(EstimatorKind), sampler="QMC",
        p_min=4, p_max=7, k=3,
    )
    run_benchmark(cfg)
    assert counted["draws"] == [30] * 3
    assert counted["transformed"] == [128 * 30] * 3
    assert counted["rows"] == [128] * 66


def test_mc_ladder_evaluates_every_cell(counted):
    # every MC cell is the leading rows of its replicate's top-rung run, so
    # a ParkAhn7 ladder (d = 7, p = 4..7, K = 3) evaluates every cell through
    # its K top runs alone: K (2d + 2) = 48 model calls of N_top = 128 rows
    cfg = BenchmarkConfig(
        test="ParkAhn7", estimators=tuple(EstimatorKind), sampler="MC",
        p_min=4, p_max=7, k=3,
    )
    run_benchmark(cfg)
    assert counted["rows"] == [128] * 3 * 16


def test_mc_lower_cells_make_no_model_call(monkeypatch):
    # in a ParkAhn7 MC ladder (p = 4..7, K = 3) only the K top-rung sets
    # call the model, each in full before its first cell, so no cell's
    # reduction calls it; every cell's S_i equal, bit for bit, those of a
    # standalone cell that draws and evaluates its own (N, k) run
    base = build("ParkAhn7")
    calls, sets, reduced = [], [], []

    def f(x):
        calls.append(len(x))
        return base.f(x)

    def counted_set(*args):
        evaluations = estimators.evaluation_set(*args)
        sets.append(len(calls))
        return evaluations

    def counted_reduce(plan):
        s = estimators.estimate_main_index(plan)
        reduced.append((len(plan.f_a), len(calls) - sets[-1], s))
        return s

    monkeypatch.setattr(harness, "build", lambda test: dataclasses.replace(base, f=f))
    monkeypatch.setattr(harness, "evaluation_set", counted_set)
    monkeypatch.setattr(harness, "estimate_main_index", counted_reduce)
    kinds = tuple(EstimatorKind)
    cfg = BenchmarkConfig(
        test="ParkAhn7", estimators=kinds, sampler="MC", p_min=4, p_max=7, k=3
    )
    run_benchmark(cfg, threads=1)
    assert calls == [128] * 3 * 16
    # one thread reduces the groups in order, each cell's kinds in config order
    cells = [(n, k) for group in harness._draw_groups(cfg) for n, k, _ in group]
    assert sorted(cells) == [(1 << p, k) for p in range(4, 8) for k in range(3)]
    assert len(reduced) == len(cells) * len(kinds)
    monkeypatch.undo()
    for i, (n, k) in enumerate(cells):
        alone = estimate_cell(base, kinds, n, SamplerSpec("MC", cfg.master_seed, k))
        for j, kind in enumerate(kinds):
            rows, made, s = reduced[i * len(kinds) + j]
            assert (rows, made) == (n, 0), (n, k, kind)
            assert np.array_equal(s, alone[kind]), (n, k, kind)


@pytest.mark.parametrize(
    "test,kinds,width",
    [("ParkAhn7", tuple(EstimatorKind), 21), ("DepQuad4", (EstimatorKind.DLR,), 4)],
)
def test_mc_ladder_draws_each_run_once(counted, test, kinds, width):
    # an MC run's draw at N is a row prefix of its draw at N_top = 128, so
    # a ladder (p = 4..7, K = 3) draws and transforms each replicate once,
    # at the top rung: 3d = 21 columns for ParkAhn7 all-five, d = 4 for
    # DepQuad4 dlr
    cfg = BenchmarkConfig(
        test=test, estimators=kinds, sampler="MC", p_min=4, p_max=7, k=3
    )
    run_benchmark(cfg)
    assert counted["draws"] == [width] * 3
    assert counted["transformed"] == [128 * width] * 3


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("sampler", ["MC", "QMC"])
def test_refused_ladder_draws_nothing(counted, sampler, threads):
    # the pairing is refused before any replicate is drawn
    cfg = BenchmarkConfig(
        test="DepQuad4", estimators=(EstimatorKind.DLR, EstimatorKind.SOBOL),
        sampler=sampler, p_min=8, p_max=10, k=4,
    )
    with pytest.raises(estimators.IncompatibleModelError, match="independent"):
        run_benchmark(cfg, threads=threads)
    assert counted["draws"] == [] and counted["f"] == 0


@pytest.mark.parametrize(
    "kinds",
    [(EstimatorKind.ORACLE,), (EstimatorKind.DLR, EstimatorKind.ORACLE)],
    ids=["oracle", "dlr+oracle"],
)
def test_oracle_without_exact_mean_draws_nothing(counted, kinds, monkeypatch):
    # the oracle reads the model's exact mean f0, so a model without one is
    # refused before anything is drawn, by a cell and by a ladder
    model = dataclasses.replace(harness.build("Linear4"), analytic_f0=None)
    with pytest.raises(estimators.IncompatibleModelError, match="exact mean"):
        estimate_cell(model, kinds, 64, SamplerSpec(kind="MC"))
    monkeypatch.setattr(harness, "build", lambda test: model)
    cfg = BenchmarkConfig(
        test="Linear4", estimators=kinds, sampler="QMC", p_min=4, p_max=6, k=2
    )
    for threads in (1, 2):
        with pytest.raises(estimators.IncompatibleModelError, match="exact mean"):
            run_benchmark(cfg, threads=threads)
    assert counted["draws"] == [] and counted["transformed"] == []
    assert counted["f"] == 0


def test_qmc_dlr_only_draws_d_columns(counted):
    run_benchmark(_one_rung("DepQuad4", (EstimatorKind.DLR,), "QMC", p=8, k=3))
    assert counted["draws"] == [4, 4, 4]
    assert counted["transformed"] == [256 * 4] * 3
    assert counted["f"] == 3


@pytest.fixture()
def tracked(monkeypatch):
    """Every evaluation set made, and weak references to the outputs of
    each unit draw.  A set's outputs are computed before the set is made,
    so they are grouped by the draw they come from, one per set.  A plan
    holds a set's outputs but not the set, so liveness is judged by those
    references, not by the set alone."""
    live = weakref.WeakSet()
    handed_out = []
    draw, outputs = estimators.generate_uniform, estimators._outputs

    class TrackedSet(estimators.EvaluationSet):
        def __post_init__(self):
            live.add(self)

    def tracked_draw(*args):
        handed_out.append([])
        return draw(*args)

    def tracked_outputs(*args):
        out = outputs(*args)
        handed_out[-1].append(weakref.ref(out))
        return out

    monkeypatch.setattr(estimators, "EvaluationSet", TrackedSet)
    monkeypatch.setattr(estimators, "generate_uniform", tracked_draw)
    monkeypatch.setattr(estimators, "_outputs", tracked_outputs)
    return live, handed_out


def _with_sets_alive(base, handed_out, sets_alive):
    """``base`` whose f records how many sets have outputs alive at each call."""

    def f(x):
        sets_alive.append(
            sum(any(r() is not None for r in refs) for refs in handed_out)
        )
        return base.f(x)

    return dataclasses.replace(base, f=f)


def test_cell_fills_one_set_of_outputs_at_a_time(tracked):
    # an MC ParkAhn7 all-five cell fills one set (3d columns) in 2d + 2 = 16
    # model calls, and neither the set nor its outputs outlive the cell
    live, handed_out = tracked
    sets_alive = []
    model = _with_sets_alive(build("ParkAhn7"), handed_out, sets_alive)
    sampler = SamplerSpec(kind="MC", seed=7, run_index=1)
    cell = estimate_cell(model, tuple(EstimatorKind), 64, sampler)
    assert list(cell) == list(EstimatorKind)
    assert len(handed_out) == 1 and len(sets_alive) == 16
    assert max(sets_alive) == 1
    assert len(live) == 0  # the cell keeps no set
    assert all(r() is None for r in handed_out[0])  # nor any of its outputs


def test_mc_ladder_keeps_one_cell_of_outputs_alive(tracked, monkeypatch):
    # the cells of an MC replicate reduce row slices of its one top-rung
    # set, and none of its outputs outlive the run: over a ParkAhn7 ladder
    # (p = 4..6, K = 2) on one thread at most one replicate's top-rung
    # outputs are alive at any model call, so the peak is one top cell
    live, handed_out = tracked
    sets_alive = []
    model = _with_sets_alive(build("ParkAhn7"), handed_out, sets_alive)
    monkeypatch.setattr(harness, "build", lambda test: model)
    cfg = BenchmarkConfig(
        test="ParkAhn7", estimators=tuple(EstimatorKind), sampler="MC",
        p_min=4, p_max=6, k=2,
    )
    run_benchmark(cfg, threads=1)
    assert len(sets_alive) == 2 * 16
    assert max(sets_alive) == 1
    assert sum(bool(refs) for refs in handed_out) == 2  # one set per replicate
    assert len(live) == 0
    assert all(r() is None for refs in handed_out for r in refs)


def _assert_cells_match_standalone_plans(
    sampler, test="Ishigami", kinds=tuple(EstimatorKind)
):
    # every record equals the one computed from standalone cells, which
    # draw and evaluate per estimator and cell
    cfg = BenchmarkConfig(
        test=test, estimators=kinds, sampler=sampler, p_min=6, p_max=8, k=3,
    )
    model = build(test)

    def standalone(kind, n):
        block = []
        for k in range(cfg.k):
            spec = SamplerSpec(kind=sampler, seed=cfg.master_seed, run_index=k)
            block.append(estimate_cell(model, (kind,), n, spec)[kind])
        return np.array(block)

    blocks = {(k, 1 << p): standalone(k, 1 << p) for k in kinds for p in (6, 7, 8)}
    for r in run_benchmark(cfg, threads=2):
        block = blocks[(r.estimator, r.n)]
        assert r.rmse == float(rmse_against(block, model.analytic_main)[r.input - 1])
        assert r.mean_estimate == float(block.mean(axis=0)[r.input - 1])


def test_shared_cells_match_standalone_plans():
    _assert_cells_match_standalone_plans("MC")


@pytest.mark.parametrize(
    "test,kinds",
    [("ParkAhn7", tuple(EstimatorKind)), ("DepQuad4", (EstimatorKind.DLR,))],
)
def test_mc_prefix_cells_match_standalone_plans(test, kinds):
    # the lower MC cells reduce the leading rows of the top run's set
    # (N_top = 256), which gives the bits of their own draws through the
    # lognormal (ParkAhn7) and the Cholesky (DepQuad4) transforms
    _assert_cells_match_standalone_plans("MC", test, kinds)


def test_qmc_row_slice_cells_match_standalone_plans():
    # the lower cells reduce rows of the top runs (N_top = 256): cell
    # (64, k = 2) is rows 128..191 of top run 0 and cell (128, k = 2) is
    # top run 1
    _assert_cells_match_standalone_plans("QMC")


def test_rmse_against_identical_estimates():
    est = np.tile([0.3, 0.5], (10, 1))
    out = rmse_against(est, np.array([0.25, 0.75]))
    assert np.allclose(out, [0.05, 0.25], atol=1e-15)


# ---------------------------------------------------------------------------
# cost accounting


def test_cost_examples():
    assert cost(EstimatorKind.DLR, 10, 1024) == (1024, 1024)
    assert cost(EstimatorKind.OWEN, 3, 1024) == (8192, 8192)
    assert cost(EstimatorKind.SOBOL, 4, 1024) == (5120, 9216)
    assert cost(EstimatorKind.SK, 4, 1024) == (6144, 6144)
    assert cost(EstimatorKind.ORACLE, 7, 2048) == (2048 * 9, 2048 * 9)


def test_cost_actual_never_exceeds_table1():
    for kind in EstimatorKind:
        for d in (1, 3, 10):
            actual, table1 = cost(kind, d, 256)
            assert actual <= table1
            if kind is not EstimatorKind.SOBOL:
                assert actual == table1


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_line():
    records = make_records({2**p: 10.0 / 2**p for p in range(8, 16)})
    fit = fit_rate(records, axis="N", window="full")
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    assert fit.c == pytest.approx(10.0, rel=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 8 and fit.input == 1


def test_fit_rate_axis_n_cpu_shifts_prefactor():
    # same rmse values against N_CPU = 6N only moves the intercept
    records = make_records({2**p: 10.0 / 2**p for p in range(8, 16)})
    fit = fit_rate(records, axis="N_CPU", window="full")
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    assert fit.c == pytest.approx(60.0, rel=1e-10)


def test_fit_rate_upper_window():
    # slope 1 below 2^12, slope 0.5 above: the upper window sees only the tail
    vals = {}
    for p in range(8, 17):
        vals[2**p] = 10.0 / 2**p if p <= 12 else vals[2**12] * (2**12 / 2**p) ** 0.5 * 10 / 10
    records = make_records(vals)
    full = fit_rate(records, axis="N", window="full")
    upper = fit_rate(records, axis="N", window="upper")
    assert upper.n_points == 5  # last max(4, ceil(9/2)) points
    assert upper.alpha == pytest.approx(0.5, abs=1e-10)
    assert 0.5 < full.alpha < 1.0
    assert upper.window == "upper"


def test_fit_rate_drops_noise_floor_points():
    vals = {2**p: 10.0 / 2**p for p in range(8, 16)}
    vals[2**8] = 1e-16  # below the 1e-14 guard: excluded from the fit
    records = make_records(vals)
    fit = fit_rate(records, axis="N", window="full")
    assert fit.n_points == 7
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_too_few_points():
    records = make_records({2**p: 10.0 / 2**p for p in range(8, 11)})
    with pytest.raises(ValueError, match="4"):
        fit_rate(records, axis="N", window="full")


def test_fit_rate_rejects_mixed_groups():
    records = make_records({256: 0.1, 512: 0.05, 1024: 0.02, 2048: 0.01})
    records += make_records({256: 0.1}, input_index=2)
    with pytest.raises(ValueError, match="single"):
        fit_rate(records, axis="N")
    with pytest.raises(ValueError, match="axis"):
        fit_rate(records[:4], axis="logN")
    with pytest.raises(ValueError, match="window"):
        fit_rate(records[:4], axis="N", window="middle")


def test_group_records_partitions():
    cfg = BenchmarkConfig(
        test="Ishigami",
        estimators=(EstimatorKind.SK, EstimatorKind.DLR),
        sampler="QMC", p_min=8, p_max=10,
    )
    groups = group_records(run_benchmark(cfg))
    assert set(groups) == {
        (k, i) for k in (EstimatorKind.SK, EstimatorKind.DLR) for i in (1, 2, 3)
    }
    for group in groups.values():
        assert [r.n for r in group] == [256, 512, 1024]


# ---------------------------------------------------------------------------
# documented rate behavior on the additive Gaussian model


def test_sobol_mc_rate_near_half():
    # criterion 2's MC ladder (Linear4, p = 8..16, K = 40, full fit), asserted
    # per input; c2_mc_alphas is cached, so the ladder runs once per session
    for i, alpha in enumerate(test_acceptance.c2_mc_alphas(), start=1):
        assert alpha == pytest.approx(0.5, abs=0.15), f"input {i}: {alpha}"


def test_improved_qmc_rate_near_one():
    # the three direct improved formulas; the binned estimator's rate is
    # capped near 0.5 by the (1 - S_i)/N_m bin bias, so it is not asserted
    cfg = BenchmarkConfig(
        test="Linear4",
        estimators=(EstimatorKind.SK, EstimatorKind.OWEN, EstimatorKind.ORACLE),
        sampler="QMC", p_min=8, p_max=16,
    )
    groups = group_records(run_benchmark(cfg, threads=4))
    for kind in (EstimatorKind.SK, EstimatorKind.OWEN, EstimatorKind.ORACLE):
        for i in range(1, 5):
            alpha = fit_rate(groups[(kind, i)], axis="N").alpha
            assert alpha == pytest.approx(1.0, abs=0.25), f"{kind} input {i}: {alpha}"


def test_improved_formulas_dominate_small_index_input():
    # rate comparison on the p=8..13 ladder plus the always-true level check
    cfg = BenchmarkConfig(
        test="Linear4", estimators=tuple(EstimatorKind), sampler="QMC",
        p_min=8, p_max=13,
    )
    groups = group_records(run_benchmark(cfg, threads=4))
    sobol_group = groups[(EstimatorKind.SOBOL, 1)]
    sobol_alpha = fit_rate(sobol_group, axis="N").alpha
    for kind in IMPROVED:
        group = groups[(kind, 1)]
        assert fit_rate(group, axis="N").alpha >= sobol_alpha - 0.1
        # the original formula's cancellation error keeps its RMSE level
        # above every improved formula at every ladder point
        for s_rec, i_rec in zip(sobol_group, group):
            assert s_rec.rmse > i_rec.rmse
