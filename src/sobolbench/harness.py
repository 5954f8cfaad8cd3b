"""Benchmark protocol: RMSE ladders, convergence-rate fits, cost accounting.

For each sample count N = 2^p on a ladder, K replicate runs are performed
(disjoint Sobol' blocks for QMC, independently seeded streams for MC).  Each
run evaluates the model once and every estimator reduces the shared
outputs.  Each run at N is a row block of a top-rung run, drawn once per
ladder (see :func:`sobolbench.sampling._replicate_layout`), so a ladder
evaluates only its top rung, and each top-rung set is reduced once for
every cell it holds.  A set is drawn, transformed, evaluated and reduced
in chunks of ``_CHUNK_ROWS`` rows, one chunk at a time, so its memory is
set by the chunk, not by N_top.  The root-mean-square error of each
estimator's S_i against the model's analytic value is recorded:

    eps_i(N) = sqrt( (1/K) * sum_k (S_i_hat[k] - S_i_analytic)^2 )

Convergence rates come from least-squares lines through (log10 axis,
log10 eps); the fitted alpha is minus the slope.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .estimators import (
    EstimatorKind,
    EvaluationPlan,
    _check_bin_count,
    _check_kinds,
    _kind_list,
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

# Rows of a set drawn, transformed, evaluated and reduced at a time: a
# power of two of at least 128 (see estimators.estimate_main_index), so a
# set's memory is set by the chunk, not by its length.  Measured on the
# ParkAhn7 MC (2 threads) and GFunc10A QMC ladders of perfbench/: 2^13
# held 7 and 4 MB less at peak but took 3-17% longer on ParkAhn7, and
# 2^12 took longer again on both; one chunk of 2^15 rows or more faults
# its pages in again (see below).
_CHUNK_ROWS = 1 << 14

# glibc's malloc hands the free top of its heap back to the system once it
# exceeds twice the largest mmapped block freed so far, and serves blocks
# above that largest size by mmap.  A chunk frees up to about 9 MB of
# arrays, over twice its largest one (the 4 MB draw), so without a larger
# block freed first every chunk faulted its pages in again: about 30,000
# minor faults and 20% of the time of a GFunc10A QMC ladder.  Freeing one
# 8 MB block raises both thresholds for the process; other allocators
# ignore it.
np.empty(1 << 20)


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
        for f in dataclasses.fields(self):
            value = _config_field(f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
        # Rules between fields come after every field's own.
        if self.p_min > self.p_max:
            raise ValueError("p_min must not exceed p_max")
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
        _check_kinds(self.estimators, 1 << self.p_min, self.bin_override)


def _config_field(name: str, value):
    """``value`` as BenchmarkConfig field ``name`` holds it, refused if the
    field can hold it in no config; rules between fields are the config's."""
    if name in ("p_min", "p_max", "k", "master_seed") or (
        name == "bin_override" and value is not None
    ):
        try:
            value = operator.index(value)
        except TypeError:
            label = "K" if name == "k" else name
            raise ValueError(f"{label} must be an integer, got {value!r}") from None
    if name == "test":
        return TestCaseId(value)
    if name == "estimators":
        return _kind_list(value)
    if name == "sampler":
        SamplerSpec(value)
    elif name == "master_seed":
        SamplerSpec("MC", value)  # checks the seed range
    elif name == "p_min" and value < 1:
        raise ValueError("p_min must be at least 1")
    elif name == "p_max" and value > 62:
        raise ValueError("p_max must be at most 62 (N is an array length)")
    elif name == "k" and value < 2:
        raise ValueError("K must be at least 2")
    elif name == "bin_override" and value is not None:
        _check_bin_count(value)
    elif name == "fit_window" and value not in ("upper", "full"):
        raise ValueError(f"unknown fit window {value!r}")
    return value


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
    """Explicit argument wins; else the environment variable; else 1.

    An explicit count must be an integer by ``operator.index``, as the
    config's integer fields must, so 2.5 is refused rather than run.
    """
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    try:
        threads = operator.index(threads)
    except TypeError:
        raise ValueError(f"thread count must be an integer, got {threads!r}") from None
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    return threads


def estimate_cell(
    model: InputModel,
    kinds: Sequence[EstimatorKind],
    n: int,
    sampler: SamplerSpec,
    bin_count: Optional[int] = None,
) -> dict[EstimatorKind, np.ndarray]:
    """Every estimator's d main-effect estimates S_i from one (N, run) draw.

    Every kind is checked before anything is drawn (see
    :func:`sobolbench.estimators._check_kinds`).  The cell's set is then
    drawn and reduced in chunks, through the same set reduction a ladder
    gives its top-rung sets, with the whole set as the one cell; so a
    standalone cell has the bits of that cell of a ladder.
    ``build_plan`` and ``estimate_main_index`` are looked up at call time,
    where the benchmark's tracer rebinds them.
    """
    kinds = _check_kinds(kinds, n, bin_count, model)
    estimates = estimate_main_index(
        _set_plans(model, kinds, n, sampler, bin_count), {n: 1}
    )
    return {kind: s[n][0] for kind, s in estimates.items()}


def _set_plans(
    model: InputModel,
    kinds: Sequence[EstimatorKind],
    n: int,
    sampler: SamplerSpec,
    bin_count: Optional[int],
) -> Iterator[EvaluationPlan]:
    """The plans of the n-point run's set, one per chunk of rows, in row order.

    Each chunk is drawn, transformed and evaluated (see
    :func:`sobolbench.estimators.evaluation_set`) only when the reduction
    asks for it.  A power-of-two run is cut into chunks of ``_CHUNK_ROWS``
    rows; a shorter run, or one of another length, is one chunk.
    """
    rows = min(n, _CHUNK_ROWS) if n & (n - 1) == 0 else n
    for start in range(0, n, rows):
        # No local holds the chunk's set, so its arrays are freed once the
        # reduction drops its plan, before the next chunk is drawn.
        yield build_plan(
            kinds, evaluation_set(model, kinds, n, sampler, start, start + rows), bin_count
        )


def _draw_groups(cfg: BenchmarkConfig) -> list[dict[int, int]]:
    """The ladder's (N, run index) cells as one ``{N: c}`` dict per top-rung run.

    Group ``top`` holds, at each N, the c runs that
    :func:`sobolbench.sampling._replicate_layout` places in top-rung run
    ``top``: under either sampler they are its first c blocks of N rows,
    in run order, and the groups in turn hold runs 0..K-1 in order.
    """
    n_top = 1 << cfg.p_max
    groups: list[dict[int, int]] = [{} for _ in range(cfg.k)]
    for p in range(cfg.p_max, cfg.p_min - 1, -1):
        n = 1 << p
        for k in range(cfg.k):
            top = _replicate_layout(cfg.sampler, k, n, n_top)[1]
            groups[top][n] = groups[top].get(n, 0) + 1
    return groups


def _run_group(
    model: InputModel, cfg: BenchmarkConfig, top: int, blocks: dict[int, int]
) -> dict[EstimatorKind, dict[int, np.ndarray]]:
    """S_i of every configured estimator at each cell of top-rung run ``top``.

    The run is drawn, transformed and evaluated once, a chunk of rows at a
    time (:func:`_set_plans`), and reduced in one call for all of its
    cells, the leading ``blocks`` of :func:`_draw_groups` (see
    :func:`sobolbench.estimators.estimate_main_index`), which gives each
    kind a (c, d) array per N.  Each chunk is dropped once it is reduced.
    """
    spec = SamplerSpec(cfg.sampler, cfg.master_seed, top)
    plans = _set_plans(model, cfg.estimators, 1 << cfg.p_max, spec, cfg.bin_override)
    return estimate_main_index(plans, blocks)


def run_benchmark(
    cfg: BenchmarkConfig, threads: Optional[int] = None
) -> list[ConvergenceRecord]:
    """All ConvergenceRecords for the config, sorted by (estimator, input, N).

    Each (N, run index) cell's outputs are evaluated once for all
    configured estimators, and once for the whole ladder; each replicate is
    drawn once, at the top rung, for its group of cells (see
    :func:`_draw_groups`), after every kind is checked against the model.
    Groups fan out over a thread pool when ``threads`` (or the
    SOBOLBENCH_THREADS variable) exceeds one.  Their results are kept in
    group order, and joining the groups' (c, d) blocks at each N gives runs
    0..K-1 in order; every cell is a pure function of its (N, run index)
    pair, so the output is identical regardless of parallelism.
    """
    model = build(cfg.test)
    n_threads = resolve_threads(threads)
    _check_kinds(cfg.estimators, 1 << cfg.p_min, cfg.bin_override, model)

    groups = _draw_groups(cfg)
    run_group = functools.partial(_run_group, model, cfg)
    # One thread runs the groups inline: a one-worker pool gives the same
    # records but raised peak RSS by about 2 MB on a GFunc10A ladder.
    if n_threads == 1:
        results = list(map(run_group, range(cfg.k), groups))
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run_group, range(cfg.k), groups))

    records = []
    for kind in cfg.estimators:
        for p in range(cfg.p_min, cfg.p_max + 1):
            n = 1 << p
            block = np.concatenate([r[kind][n] for r in results if n in r[kind]])
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
