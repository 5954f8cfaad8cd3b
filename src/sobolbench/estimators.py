"""Main-effect index estimators and the evaluation sets they reduce.

Five estimators of the partial variance D_i are provided, all dividing by a
shared estimate of the total variance D to give S_i = D_i / D:

* ``sobol``  : mean(fA * fAB_i) - mean(fA)^2            (two sample sets)
* ``sk``     : mean(fA * (fAB_i - fB))                  (two sample sets)
* ``owen``   : mean((fA - fCA_i) * (fAB_i - fB))        (three sample sets)
* ``oracle`` : mean((fA - f0) * (fAB_i - fB))           (model's exact f0)
* ``dlr``    : sort by x_i, bin, variance of bin means  (single sample set)

Model outputs live in an evaluation set: one unit point set of dimension d,
2d, or 3d, whose coordinate blocks form the base matrices A, B, C, and the
outputs at A, B, AB_i and CA_i, each evaluated the first time it is read.
One set per (N, run) cell, drawn at the widest width its estimators need
and transformed once, serves all of them under either sampler.  A shorter
run inside a longer one is a row slice of its set under QMC and a row
prefix of its draw under MC (see :func:`inner_set`).  Each
estimator is a pure reduction over the blocks of the set it reads
(:func:`sobolbench.harness.estimate_cell` runs all of a cell's estimators).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .models import InputModel
from .sampling import (
    SamplerSpec,
    UnitPointSet,
    generate_uniform,
    transform_correlated_normal,
    transform_independent,
)

__all__ = [
    "EstimatorKind",
    "BinSchedule",
    "EvaluationPlan",
    "EvaluationSet",
    "IncompatibleModelError",
    "DegenerateModelError",
    "default_bin_schedule",
    "bin_schedule",
    "eval_count",
    "evaluation_set",
    "inner_set",
    "build_plan",
    "estimate_mean_and_variance",
    "estimate_sobol_original",
    "estimate_sk",
    "estimate_owen",
    "estimate_oracle",
    "estimate_dlr",
    "estimate_main_index",
]


class EstimatorKind(Enum):
    SOBOL = "sobol"
    SK = "sk"
    OWEN = "owen"
    ORACLE = "oracle"
    DLR = "dlr"


class IncompatibleModelError(ValueError):
    """Estimator cannot be applied to the given model."""


class DegenerateModelError(ValueError):
    """Sample variance is not positive; indices are undefined."""


@dataclass(frozen=True)
class BinSchedule:
    """Partition of N sorted samples into M bins of N_m points each."""

    n: int
    m: int
    n_m: int

    def __post_init__(self):
        if self.m * self.n_m != self.n:
            raise ValueError("bin schedule must satisfy M * N_m = N")
        if self.m < 2 or self.n_m < 2:
            raise ValueError("bin schedule requires M >= 2 and N_m >= 2")


def default_bin_schedule(n: int) -> BinSchedule:
    """M = 2^ceil(p/2) bins for N = 2^p, so M ~ sqrt(N)."""
    if n < 4 or n & (n - 1) != 0:
        raise ValueError(
            f"default bin schedule requires N = 2^p with p >= 2, got N={n}; "
            "pass an explicit bin count for other N"
        )
    p = n.bit_length() - 1
    m = 1 << ((p + 1) // 2)
    return BinSchedule(n=n, m=m, n_m=n // m)


def bin_schedule(n: int, bin_count: Optional[int] = None) -> BinSchedule:
    """``bin_count`` bins of N samples, or the default schedule without one."""
    if bin_count is None:
        return default_bin_schedule(n)
    if bin_count < 2:
        raise ValueError(f"bin count {bin_count} must be at least 2")
    if n % bin_count != 0:
        raise ValueError(f"bin count {bin_count} does not divide sample count {n}")
    return BinSchedule(n=n, m=bin_count, n_m=n // bin_count)


@dataclass(frozen=True)
class EvaluationPlan:
    """The blocks of an evaluation set that one estimator reduces.

    ``f_ab[i]`` holds outputs at B with column i replaced from A (the point
    that shares coordinate i with A); ``f_ca[i]`` holds outputs at A with
    column i replaced from C (Owen's third set).  Blocks the estimator does
    not read are None.  ``bins`` is the cell's DLR bin schedule, read by
    DLR alone; ``f0`` is the model's exact mean, read by the oracle alone.
    No estimator reads outputs at C alone, so ``f_c`` is always None; it
    stays for the benchmark tracer (``perfbench/spans.py``), which reads it.
    """

    kind: EstimatorKind
    x_a: np.ndarray
    f_a: np.ndarray
    f_b: Optional[np.ndarray] = None
    f_ab: Optional[np.ndarray] = None
    f_ca: Optional[np.ndarray] = None
    f_c: Optional[np.ndarray] = None
    bins: Optional[BinSchedule] = None
    f0: Optional[float] = None


# Output blocks each estimator reduces, in evaluation order: "a" and "b" are
# the outputs at the base matrices A and B, one block of N evaluations each;
# "ab" and "ca" hold one block per input, d blocks each (see EvaluationPlan).
_OUTPUT_BLOCKS = {
    EstimatorKind.SOBOL: ("a", "ab"),
    EstimatorKind.SK: ("a", "b", "ab"),
    EstimatorKind.OWEN: ("a", "b", "ab", "ca"),
    EstimatorKind.ORACLE: ("a", "b", "ab"),
    EstimatorKind.DLR: ("a",),
}


def eval_count(kind: EstimatorKind, d: int, n: int) -> int:
    """Model evaluations of one ``kind`` run for all d inputs, alone."""
    return n * sum(d if len(b) == 2 else 1 for b in _OUTPUT_BLOCKS[kind])


def draw_width(kind: EstimatorKind, d: int) -> int:
    """Columns of the unit draw ``kind`` needs alone: d, 2d or 3d."""
    return d * len({m for block in _OUTPUT_BLOCKS[kind] for m in block})


def _base_matrices(draw: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The base matrices A, B[, C] of a run of n points, views of its draw.

    A width W is one n-point draw of ``W * d`` unit columns, laid out in
    block order: matrix j is the rows ``j * n`` to ``(j + 1) * n`` of one
    (W * n, d) array, transformed in one call.  A narrower draw of the same
    run is a row prefix of it, with the same A and B:

    * QMC: Sobol' dimensions are prefix-stable.  Matrix j is coordinate
      block j of the draw, put in block order by one copy (width above 1).
    * MC: the draw is the leading values of the run's stream in row order
      (see :mod:`sobolbench.sampling`), so, reshaped without a copy,
      matrix j is the values ``j * n * d`` onward.

    Runs nest across n too (see :func:`inner_set`).  Under QMC, run k of n
    points is the Sobol' block ``[1 + k*n, 1 + (k+1)*n)``: for a power of
    two M >= n, the rows ``k*n mod M`` onward of run ``k*n // M`` of M
    points, in every matrix and so in every output.  Under MC, run k's draw
    at n is the leading ``W * n`` rows of its draw at M, re-blocked: for
    n < M, B at n is rows of A at M: the draws nest, the outputs do not.
    """
    return tuple(draw[j : j + n] for j in range(0, len(draw), n))


def inner_set(
    outer: EvaluationSet, start: int, n: int, sampler: SamplerSpec
) -> EvaluationSet:
    """The set of run ``(n, sampler)``, from row ``start`` of ``outer``'s longer run.

    The caller vouches that the run nests there (see :func:`_base_matrices`).
    Under QMC it is a row slice of ``outer`` that shares its outputs (see
    :meth:`EvaluationSet.rows`); under MC, an unfilled set on a re-blocked
    row prefix of ``outer``'s draw (``start`` is 0) that shares no outputs.
    """
    if sampler.kind == "QMC":
        return outer.rows(start, n, sampler)
    prefix = outer.draw[: outer.dims // outer.model.d * n]
    return EvaluationSet(outer.model, n, sampler, _base_matrices(prefix, n), prefix)


class EvaluationSet:
    """Model outputs on base matrices, each computed the first time it is read.

    ``matrices`` are A, B[, C] in model space, each (n, d), the blocks of
    ``draw``, one draw of ``dims`` = d, 2d or 3d unit columns (see
    :func:`_base_matrices`; a row slice has no draw).  Outputs are keyed by
    block name: a matrix name such as ``"a"`` (shape (n,)), and ``"ab"``,
    ``"ca"`` (shape (d, n)), where block ``"xy"`` row i is the output at
    matrix y with column i taken from matrix x.  Every estimator of a cell
    reduces the cell's one set, so all of them read the same arrays.
    """

    def __init__(
        self,
        model: InputModel,
        n: int,
        sampler: SamplerSpec,
        matrices: Sequence[np.ndarray],
        draw: Optional[np.ndarray] = None,
    ):
        self.model = model
        self.n = n
        self.sampler = sampler
        self.draw = draw
        self.dims = len(matrices) * model.d
        self._x = dict(zip("abc", matrices))
        self._f: dict[str, np.ndarray] = {}
        self._source: Optional[tuple[EvaluationSet, slice]] = None

    def rows(self, start: int, n: int, sampler: SamplerSpec) -> EvaluationSet:
        """Rows ``start`` to ``start + n`` of this set, as the set of ``(n, sampler)``.

        The caller vouches that those rows are that run's draw (see
        :func:`inner_set`).  The matrices are views, and each output block
        is the row slice ``[..., start:start + n]`` of this set's block, so
        either set fills a block for both.
        """
        if start < 0 or n <= 0 or start + n > self.n:
            raise ValueError(f"rows {start}..{start + n} lie outside a set of {self.n}")
        rows = slice(start, start + n)
        part = type(self)(self.model, n, sampler, [x[rows] for x in self._x.values()])
        part._source = (self, rows)
        return part

    def x(self, matrix: str) -> np.ndarray:
        """Base matrix ``"a"``, ``"b"`` or ``"c"`` in model space (a view)."""
        if matrix not in self._x:
            raise ValueError(
                f"a {self.dims}-column draw has no matrix {matrix.upper()}"
            )
        return self._x[matrix]

    def f(self, block: str) -> np.ndarray:
        """Outputs of one block (see the class docstring)."""
        if block not in self._f:
            if self._source is not None:
                source, rows = self._source
                self._f[block] = source.f(block)[..., rows]
            elif len(block) == 1:
                self._f[block] = self.model.f(self.x(block))
            else:
                donor, base = self.x(block[0]), self.x(block[1])
                # One column-major scratch copy of the base serves all d
                # mixed matrices: column i is swapped in from the donor for
                # one call and restored after it, so f must not write to x.
                mixed = base.copy(order="F")
                out = np.empty((self.model.d, self.n))
                for i in range(self.model.d):
                    mixed[:, i] = donor[:, i]
                    out[i] = self.model.f(mixed)
                    mixed[:, i] = base[:, i]
                self._f[block] = out
        return self._f[block]


def evaluation_set(
    model: InputModel,
    kinds: Sequence[EstimatorKind],
    n: int,
    sampler: SamplerSpec,
) -> EvaluationSet:
    """One unfilled set that gives each of ``kinds`` the bits it would draw alone.

    The set views one draw at the widest width any of ``kinds`` needs.  A
    narrower draw of the run is a prefix of it (see :func:`_base_matrices`),
    so one set serves every estimator of a cell under either sampler.
    """
    d = model.d
    width = max(draw_width(kind, d) for kind in kinds) // d
    u = generate_uniform(sampler, n, width * d).values
    if sampler.kind == "QMC":
        u = u.reshape(n, width, d).swapaxes(0, 1)
    # A copy only for a QMC draw of width > 1; rebinding u frees the draw.
    u = u.reshape(width * n, d)
    rows = UnitPointSet(n=width * n, dims=d, values=u)
    if model.covariance is not None:
        x = transform_correlated_normal(rows, model.covariance)
    else:
        x = transform_independent(rows, model.marginals)
    return EvaluationSet(model, n, sampler, _base_matrices(x, n), x)


def build_plan(
    kind: EstimatorKind,
    evaluations: EvaluationSet,
    bins: Optional[BinSchedule] = None,
) -> EvaluationPlan:
    """The blocks of ``evaluations`` that ``kind`` reads, for all d inputs.

    Reading a block evaluates it if no earlier plan on the set has.  The
    caller checks that ``kind`` applies to the set's model (the oracle
    needs its exact mean) and passes DLR's bin schedule (see
    :func:`sobolbench.harness.estimate_cell`).
    """
    outputs = {b: evaluations.f(b) for b in _OUTPUT_BLOCKS[kind]}
    return EvaluationPlan(
        kind=kind,
        x_a=evaluations.x("a"),
        f_a=outputs["a"],
        f_b=outputs.get("b"),
        f_ab=outputs.get("ab"),
        f_ca=outputs.get("ca"),
        bins=bins,
        f0=evaluations.model.analytic_f0 if kind == EstimatorKind.ORACLE else None,
    )


def estimate_mean_and_variance(
    f_a: np.ndarray, f_b: Optional[np.ndarray] = None
) -> tuple[float, float]:
    """Pooled (f0_hat, D_hat) over all provided outputs.

    D_hat = mean of squares - f0_hat^2; a non-positive value aborts
    estimation since S_i = D_i / D is then undefined.
    """
    pooled = f_a if f_b is None else np.concatenate([f_a, f_b])
    if pooled.size == 0:
        raise ValueError("at least one output array must be nonempty")
    f0_hat = float(pooled.mean())
    d_hat = float((pooled**2).mean() - f0_hat**2)
    if d_hat <= 0.0:
        raise DegenerateModelError("degenerate model (zero variance)")
    return f0_hat, d_hat


def estimate_sobol_original(f_a: np.ndarray, f_ab_i: np.ndarray) -> float:
    """D_i_hat = mean(fA * fAB_i) - mean(fA)^2.

    The subtracted square of the estimated mean is the known weakness of this
    formula: for |f0| >> sqrt(D_i) the cancellation error dominates.
    """
    return float((f_a * f_ab_i).mean() - f_a.mean() ** 2)


def estimate_sk(f_a: np.ndarray, f_b: np.ndarray, f_ab_i: np.ndarray) -> float:
    """D_i_hat = mean(fA * (fAB_i - fB))."""
    return float((f_a * (f_ab_i - f_b)).mean())


def estimate_owen(
    f_a: np.ndarray, f_b: np.ndarray, f_ab_i: np.ndarray, f_ca_i: np.ndarray
) -> float:
    """D_i_hat = mean((fA - fCA_i) * (fAB_i - fB))."""
    return float(((f_a - f_ca_i) * (f_ab_i - f_b)).mean())


def estimate_oracle(
    f_a: np.ndarray, f_b: np.ndarray, f_ab_i: np.ndarray, f0: float
) -> float:
    """D_i_hat = mean((fA - f0) * (fAB_i - fB)) with f0 the exact mean."""
    return float(((f_a - f0) * (f_ab_i - f_b)).mean())


def _argsort_ties_by_index(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")``, from numpy's faster default sort.

    The default sort's order is the only one when the sorted keys strictly
    increase.  Otherwise (equal keys, say from a narrow Uniform far from
    zero, or NaN) x is sorted again stably so that ties keep sample order.
    The sorted keys are freed on return, before the caller's gather.
    """
    order = np.argsort(x)
    keys = x[order]
    if np.all(keys[1:] > keys[:-1]):
        return order
    return np.argsort(x, kind="stable")


def estimate_dlr(
    x_i_column: np.ndarray, f_a: np.ndarray, bins: BinSchedule
) -> float:
    """Double-loop-reordering estimate from a single sample set.

    Samples are ordered by the x_i coordinate (ties broken by original sample
    index, so the partition is deterministic), split into M consecutive bins
    of N_m points, and D_i_hat = (1/M) sum_j m_j^2 - f0_hat^2 with m_j the
    bin means and f0_hat the plain mean of all N outputs.
    """
    if x_i_column.shape[0] != bins.n or f_a.shape[0] != bins.n:
        raise ValueError("array length does not match the bin schedule")
    order = _argsort_ties_by_index(x_i_column)
    bin_means = f_a[order].reshape(bins.m, bins.n_m).mean(axis=1)
    return float((bin_means**2).mean() - f_a.mean() ** 2)


def estimate_main_index(plan: EvaluationPlan) -> np.ndarray:
    """The d main-effect estimates S_i of the plan's estimator, in input order.

    Every input divides by the same pooled D_hat (from fA and fB when the
    plan has a B set, else fA alone) so indices are comparable across inputs.
    Negative D_i_hat values, possible at small N for near-zero indices, are
    reported as-is.
    """
    kind = plan.kind
    _, d_hat = estimate_mean_and_variance(plan.f_a, plan.f_b)

    s = np.empty(plan.x_a.shape[1])
    for i in range(len(s)):
        if kind == EstimatorKind.SOBOL:
            d_i = estimate_sobol_original(plan.f_a, plan.f_ab[i])
        elif kind == EstimatorKind.SK:
            d_i = estimate_sk(plan.f_a, plan.f_b, plan.f_ab[i])
        elif kind == EstimatorKind.OWEN:
            d_i = estimate_owen(plan.f_a, plan.f_b, plan.f_ab[i], plan.f_ca[i])
        elif kind == EstimatorKind.ORACLE:
            d_i = estimate_oracle(plan.f_a, plan.f_b, plan.f_ab[i], plan.f0)
        elif kind == EstimatorKind.DLR:
            d_i = estimate_dlr(plan.x_a[:, i], plan.f_a, plan.bins)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown estimator kind {kind!r}")
        s[i] = d_i / d_hat
    return s
