"""Benchmark protocol: RMSE ladders, convergence-rate fits, cost accounting.

For each sample count N = 2^p on a ladder, K replicate runs are performed
(disjoint Sobol' blocks for QMC, independently seeded streams for MC).  Each
run evaluates the model once and every estimator reduces the shared
outputs.  Each run at N is a row block of a top-rung run, drawn once per
ladder (see :func:`sobolbench.sampling._replicate_layout`), so a ladder
evaluates only its top rung.  The root-mean-square error of each
estimator's S_i against the model's analytic value is recorded:

    eps_i(N) = sqrt( (1/K) * sum_k (S_i_hat[k] - S_i_analytic)^2 )

Convergence rates come from least-squares lines through (log10 axis,
log10 eps); the fitted alpha is minus the slope.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimators import (
    EstimatorKind,
    EvaluationSet,
    _check_kinds,
    build_plan,
    cost,
    estimate_main_index,
    evaluation_set,
)
from .models import InputModel, TestCaseId, build
from .sampling import SOBOL_PERIOD, SamplerSpec, _replicate_layout

__all__ = [
    "DEFAULT_MASTER_SEED",
    "THREADS_ENV_VAR",
    "BenchmarkConfig",
    "ConvergenceRecord",
    "RateFit",
    "resolve_threads",
    "estimate_cell",
    "run_benchmark",
    "rmse_against",
    "fit_rate",
    "group_records",
]

DEFAULT_MASTER_SEED = 123456789

# Number of worker threads used by run_benchmark when not passed explicitly.
THREADS_ENV_VAR = "SOBOLBENCH_THREADS"

# Points with RMSE below this are indistinguishable from machine noise
# (exact-zero analytic indices can produce them) and are dropped from fits.
MIN_FIT_RMSE = 1e-14


class _TooFewPoints(ValueError):
    """A rate fit's ladder leaves fewer than 4 usable points."""


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark run: a test case, estimators, sampler, and N ladder."""

    test: TestCaseId
    estimators: tuple[EstimatorKind, ...]
    sampler: str
    p_min: int
    p_max: int
    k: int = 10
    master_seed: int = DEFAULT_MASTER_SEED
    bin_override: Optional[int] = None
    fit_window: str = "upper"

    def __post_init__(self):
        object.__setattr__(self, "test", TestCaseId(self.test))
        SamplerSpec(self.sampler, self.master_seed)  # checks kind and seed range
        if self.p_min > self.p_max:
            raise ValueError("p_min must not exceed p_max")
        if self.p_min < 1:
            raise ValueError("p_min must be at least 1")
        if self.p_max > 62:
            raise ValueError("p_max must be at most 62 (N is an array length)")
        if self.k < 2:
            raise ValueError("K must be at least 2")
        if self.sampler == "QMC":
            # Every lower-rung run lies in a top-rung one, and the last of
            # those ends furthest into the Sobol' sequence.
            n_top = 1 << self.p_max
            end = _replicate_layout("QMC", self.k - 1, n_top, n_top)[0] + n_top
            if end > SOBOL_PERIOD:
                raise ValueError(
                    f"QMC ladder needs Sobol' indices up to {end - 1}, past the "
                    f"generator period of {SOBOL_PERIOD}"
                )
        if self.fit_window not in ("upper", "full"):
            raise ValueError(f"unknown fit window {self.fit_window!r}")
        kinds = _check_kinds(self.estimators, 1 << self.p_min, self.bin_override)
        object.__setattr__(self, "estimators", kinds)


@dataclass(frozen=True)
class ConvergenceRecord:
    """RMSE of one (estimator, input, N) cell of the ladder."""

    test: str
    estimator: EstimatorKind
    sampler: str
    input: int
    n: int
    n_cpu_actual: int
    n_cpu_table1: int
    rmse: float
    mean_estimate: float
    analytic: float
    k: int


@dataclass(frozen=True)
class RateFit:
    """Fitted rmse ~ c * axis^(-alpha) for one (estimator, input) curve."""

    input: int
    axis: str
    alpha: float
    c: float
    r2: float
    n_points: int
    window: str


def rmse_against(estimates: np.ndarray, analytic: np.ndarray) -> np.ndarray:
    """Per-input RMSE of a (K, d) block of estimates against the d references."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    ref = np.asarray(analytic, dtype=float)
    return np.sqrt(((est - ref) ** 2).mean(axis=0))


def resolve_threads(threads: Optional[int] = None) -> int:
    """Explicit argument wins; else the environment variable; else 1."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    return threads


def _estimates(
    evaluations: EvaluationSet,
    kinds: Sequence[EstimatorKind],
    bin_count: Optional[int],
) -> dict[EstimatorKind, np.ndarray]:
    """Each of ``kinds``' d estimates S_i from one set, the kinds and DLR's
    ``bin_count`` already checked; ``build_plan`` and ``estimate_main_index``
    are looked up at call time, where the benchmark's tracer rebinds them."""
    return {
        kind: estimate_main_index(build_plan(kind, evaluations, bin_count))
        for kind in kinds
    }


def estimate_cell(
    model: InputModel,
    kinds: Sequence[EstimatorKind],
    n: int,
    sampler: SamplerSpec,
    bin_count: Optional[int] = None,
) -> dict[EstimatorKind, np.ndarray]:
    """Every estimator's d main-effect estimates S_i from one (N, run) draw.

    Every kind is checked before anything is drawn (see
    :func:`sobolbench.estimators._check_kinds`).  The estimators then reduce
    one evaluation set drawn and evaluated for the cell, so each output is
    computed once for all.
    """
    kinds = _check_kinds(kinds, n, bin_count, model)
    return _estimates(evaluation_set(model, kinds, n, sampler), kinds, bin_count)


def _draw_groups(cfg: BenchmarkConfig) -> list[list[tuple[int, int, int]]]:
    """The ladder's (N, run index) cells, one group per top-rung run.

    A group lists its cells as (n, k, row), its top-rung cell first: cell
    (n, k) is the n rows from ``row`` of the top cell's evaluated set, as
    :func:`sobolbench.sampling._replicate_layout` places it.
    """
    n_top = 1 << cfg.p_max
    groups: list[list[tuple[int, int, int]]] = [[] for _ in range(cfg.k)]
    for p in range(cfg.p_max, cfg.p_min - 1, -1):
        n = 1 << p
        for k in range(cfg.k):
            _, top, row = _replicate_layout(cfg.sampler, k, n, n_top)
            groups[top].append((n, k, row))
    return groups


def _run_group(
    model: InputModel, cfg: BenchmarkConfig, cells: Sequence[tuple[int, int, int]]
) -> dict[tuple[int, int], dict[EstimatorKind, np.ndarray]]:
    """S_i estimates of every configured estimator at each cell of one group.

    The top-rung run is drawn, transformed and evaluated in full once,
    before any cell is reduced, and each cell reduces a row slice of its
    outputs (see :meth:`sobolbench.estimators.EvaluationSet.rows`) with
    DLR's bin schedule at its N.  The set is dropped on return.
    """
    n_top, top, _ = cells[0]
    spec = SamplerSpec(cfg.sampler, cfg.master_seed, top)
    evaluations = evaluation_set(model, cfg.estimators, n_top, spec)
    return {
        (n, k): _estimates(evaluations.rows(row, n), cfg.estimators, cfg.bin_override)
        for n, k, row in cells
    }


def run_benchmark(
    cfg: BenchmarkConfig, threads: Optional[int] = None
) -> list[ConvergenceRecord]:
    """All ConvergenceRecords for the config, sorted by (estimator, input, N).

    Each (N, run index) cell's outputs are evaluated once for all
    configured estimators, and once for the whole ladder; each replicate is
    drawn once, at the top rung, for its group of cells (see
    :func:`_draw_groups`), after every kind is checked against the model.
    Groups fan out over a thread pool when ``threads`` (or the
    SOBOLBENCH_THREADS variable) exceeds one; every cell is a pure function
    of its (N, run index) pair and results are merged in a fixed order, so
    the output is identical regardless of parallelism.
    """
    model = build(cfg.test)
    n_threads = resolve_threads(threads)
    _check_kinds(cfg.estimators, 1 << cfg.p_min, cfg.bin_override, model)

    groups = _draw_groups(cfg)
    results: dict[tuple[int, int], dict[EstimatorKind, np.ndarray]] = {}
    # One thread runs the groups inline: a one-worker pool gives the same
    # records but raised peak RSS by about 2 MB on a GFunc10A ladder.
    if n_threads == 1:
        for cells in groups:
            results.update(_run_group(model, cfg, cells))
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [pool.submit(_run_group, model, cfg, cells) for cells in groups]
        for fut in futures:
            results.update(fut.result())

    records = []
    for kind in cfg.estimators:
        for p in range(cfg.p_min, cfg.p_max + 1):
            n = 1 << p
            block = np.stack([results[(n, k)][kind] for k in range(cfg.k)])
            rmse = rmse_against(block, model.analytic_main)
            mean_est = block.mean(axis=0)
            actual, table1 = cost(kind, model.d, n)
            for i in range(model.d):
                records.append(
                    ConvergenceRecord(
                        test=model.name,
                        estimator=kind,
                        sampler=cfg.sampler,
                        input=i + 1,
                        n=n,
                        n_cpu_actual=actual,
                        n_cpu_table1=table1,
                        rmse=float(rmse[i]),
                        mean_estimate=float(mean_est[i]),
                        analytic=float(model.analytic_main[i]),
                        k=cfg.k,
                    )
                )
    records.sort(key=lambda r: (r.estimator.value, r.input, r.n))
    return records


def group_records(
    records: Sequence[ConvergenceRecord],
) -> dict[tuple[EstimatorKind, int], list[ConvergenceRecord]]:
    """Group a record stream by (estimator, input), each sorted by N."""
    groups: dict[tuple[EstimatorKind, int], list[ConvergenceRecord]] = {}
    for rec in records:
        groups.setdefault((rec.estimator, rec.input), []).append(rec)
    for key in groups:
        groups[key].sort(key=lambda r: r.n)
    return groups


def fit_rate(
    records: Sequence[ConvergenceRecord],
    axis: str = "N",
    window: str = "upper",
) -> RateFit:
    """Least-squares rate fit for one (estimator, input) record group.

    ``axis`` selects the abscissa: sample count N or the actual evaluation
    count N_CPU.  The default window fits the upper half of the ladder
    (largest axis values), where the asymptotic rate holds; ``window="full"``
    uses every point.  Points with rmse below 1e-14 are dropped; fewer than
    4 surviving points is an error.
    """
    if axis not in ("N", "N_CPU"):
        raise ValueError(f"unknown axis {axis!r} (use N or N_CPU)")
    if window not in ("upper", "full"):
        raise ValueError(f"unknown fit window {window!r}")
    keys = {(r.estimator, r.input) for r in records}
    if len(keys) != 1:
        raise ValueError("fit_rate expects records of a single (estimator, input)")
    (_, input_index), = keys

    pts = sorted(
        (
            (r.n if axis == "N" else r.n_cpu_actual, r.rmse)
            for r in records
            if r.rmse >= MIN_FIT_RMSE
        ),
    )
    if window == "upper":
        keep = max(4, (len(pts) + 1) // 2)
        pts = pts[-keep:]
    if len(pts) < 4:
        raise _TooFewPoints(
            f"rate fit needs at least 4 usable ladder points, got {len(pts)}"
        )
    x = np.log10([p[0] for p in pts])
    y = np.log10([p[1] for p in pts])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return RateFit(
        input=input_index,
        axis=axis,
        alpha=float(-slope),
        c=float(10.0**intercept),
        r2=r2,
        n_points=len(pts),
        window=window,
    )
