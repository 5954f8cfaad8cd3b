"""Main-effect index estimators and their evaluation plans.

Five estimators of the partial variance D_i are provided, all dividing by a
shared estimate of the total variance D to give S_i = D_i / D:

* ``sobol``  : mean(fA * fAB_i) - mean(fA)^2            (two sample sets)
* ``sk``     : mean(fA * (fAB_i - fB))                  (two sample sets)
* ``owen``   : mean((fA - fCA_i) * (fAB_i - fB))        (three sample sets)
* ``oracle`` : mean((fA - f0) * (fAB_i - fB))           (exact mean f0)
* ``dlr``    : sort by x_i, bin, variance of bin means  (single sample set)

Model outputs live in an evaluation set: one unit point set of dimension d,
2d, or 3d, whose coordinate blocks form the base matrices A, B, C, and the
outputs at A, B, C, AB_i and CA_i, each evaluated the first time it is read.
One set per (N, run) cell, drawn at the widest width its estimators need
and transformed once, serves all of them under either sampler; under QMC
a row slice of a longer run's set serves a shorter run inside it.
A plan is one estimator's view of the blocks it reads, with the facts its
reduction needs (kind, bin schedule, the oracle's f0), so several
estimators built on one set share its evaluations and each estimator is a
pure reduction over its plan.
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
    "IndexEstimate",
    "IncompatibleModelError",
    "DegenerateModelError",
    "default_bin_schedule",
    "bin_schedule",
    "eval_count",
    "evaluation_set",
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
    """Model outputs required by one estimator for all d inputs.

    ``f_ab[i]`` holds outputs at B with column i replaced from A (the point
    that shares coordinate i with A); ``f_ca[i]`` holds outputs at A with
    column i replaced from C (Owen's third set).  ``eval_count`` equals the
    total size of all populated output arrays.  ``f0`` is the oracle's mean,
    the analytic value or else the mean of ``f_c`` (``f0_source`` says
    which); it is None for the other estimators.
    """

    kind: EstimatorKind
    n: int
    d: int
    x_a: np.ndarray
    f_a: np.ndarray
    f_b: Optional[np.ndarray] = None
    f_ab: Optional[np.ndarray] = None
    f_ca: Optional[np.ndarray] = None
    f_c: Optional[np.ndarray] = None
    bins: Optional[BinSchedule] = None
    f0_source: Optional[str] = None
    eval_count: int = 0
    f0: Optional[float] = None


# Output blocks each estimator reduces: "a", "b" and "c" are the outputs at
# the base matrices A, B and C, one block of N evaluations each; "ab" and
# "ca" hold one block per input, d blocks each (see EvaluationPlan).
_OUTPUT_BLOCKS = {
    EstimatorKind.SOBOL: ("a", "ab"),
    EstimatorKind.SK: ("a", "b", "ab"),
    EstimatorKind.OWEN: ("a", "b", "ab", "ca"),
    EstimatorKind.ORACLE: ("a", "b", "ab"),
    EstimatorKind.DLR: ("a",),
}


def _output_blocks(kind: EstimatorKind, analytic_f0: bool = True) -> tuple[str, ...]:
    """The output blocks ``kind`` reads, in evaluation order."""
    if kind == EstimatorKind.ORACLE and not analytic_f0:
        # No exact mean available: spend one extra block on estimating it.
        return _OUTPUT_BLOCKS[kind] + ("c",)
    return _OUTPUT_BLOCKS[kind]


def eval_count(kind: EstimatorKind, d: int, n: int, analytic_f0: bool = True) -> int:
    """Model evaluations of one ``kind`` run for all d inputs, alone."""
    blocks = _output_blocks(kind, analytic_f0)
    return n * sum(d if len(b) == 2 else 1 for b in blocks)


def draw_width(kind: EstimatorKind, d: int, analytic_f0: bool = True) -> int:
    """Columns of the unit draw ``kind`` needs alone: d, 2d or 3d."""
    matrices = {m for block in _output_blocks(kind, analytic_f0) for m in block}
    return d * len(matrices)


def _base_matrices(
    model: InputModel, n: int, sampler: SamplerSpec, width: int
) -> tuple[np.ndarray, ...]:
    """The base matrices A, B[, C] of one run in model space, views of one draw.

    A width W is one n-point draw of ``W * d`` unit columns, laid out in
    block order: matrix j is the rows ``j * n`` to ``(j + 1) * n`` of one
    (W * n, d) array, transformed in one call, column-major.  A narrower
    draw of the same run is a row prefix of it, with the same A and B:

    * QMC: Sobol' dimensions are prefix-stable.  Matrix j is coordinate
      block j of the draw, put in block order by one copy (width above 1).
    * MC: the draw is the leading values of the run's stream in row order
      (see :mod:`sobolbench.sampling`), so, reshaped without a copy,
      matrix j is the values ``j * n * d`` onward.

    Under QMC, run k of n points is the Sobol' block ``[1 + k*n, 1 +
    (k+1)*n)``.  For a power of two M >= n, that block is the rows
    ``k*n mod M`` onward of run ``k*n // M`` of M points, in every matrix
    and so in every output (see :meth:`EvaluationSet.rows`).  MC has no
    such nesting across n: matrix B at n is the stream values ``n * d`` to
    ``2 * n * d``, which is not a row slice of B at 2n.
    """
    d = model.d
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
    return tuple(x[j * n : (j + 1) * n] for j in range(width))


class EvaluationSet:
    """Model outputs on base matrices, each computed the first time it is read.

    ``matrices`` are A, B[, C] in model space, each (n, d), the blocks of
    one draw of ``dims`` = d, 2d or 3d unit columns (see
    :func:`_base_matrices`).  Outputs are keyed by block name: ``"a"``,
    ``"b"``, ``"c"`` (shape (n,)), and ``"ab"``, ``"ca"`` (shape (d, n)),
    where block ``"xy"`` row i is the output at matrix y with column i taken
    from matrix x.  Every estimator of a cell builds its plan on the cell's
    one set, so all of them reduce the same arrays.
    """

    def __init__(
        self,
        model: InputModel,
        n: int,
        sampler: SamplerSpec,
        matrices: Sequence[np.ndarray],
    ):
        self.model = model
        self.n = n
        self.sampler = sampler
        self.dims = len(matrices) * model.d
        self._x = dict(zip("abc", matrices))
        self._f: dict[str, np.ndarray] = {}
        self._source: Optional[tuple[EvaluationSet, slice]] = None

    def rows(self, start: int, n: int, sampler: SamplerSpec) -> EvaluationSet:
        """Rows ``start`` to ``start + n`` of this set, as the set of ``(n, sampler)``.

        The caller vouches that those rows are that run's draw (under QMC a
        run of n points lies inside a run of any longer power-of-two length,
        see :func:`_base_matrices`).  The matrices are views, and each output
        block is the row slice ``[..., start:start + n]`` of this set's
        block, so either set fills a block for both.
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
    """One unfilled set that gives ``kinds`` the bits of standalone plans.

    The set views one draw at the widest width any of ``kinds`` needs (see
    :func:`_base_matrices`).  A narrower draw of the run is a prefix of it,
    with the same A and B, so one set serves every estimator of a cell
    under either sampler.
    """
    analytic_f0 = model.analytic_f0 is not None
    width = max(draw_width(kind, model.d, analytic_f0) for kind in kinds) // model.d
    return EvaluationSet(model, n, sampler, _base_matrices(model, n, sampler, width))


def build_plan(
    model: InputModel,
    kind: EstimatorKind,
    n: int,
    sampler: SamplerSpec,
    bin_count: Optional[int] = None,
    evaluations: Optional[EvaluationSet] = None,
) -> EvaluationPlan:
    """The model outputs one estimator run reads, for all d inputs.

    The outputs come from ``evaluations`` when given (a set for the same
    model, n and sampler, shared with other estimators), else from a private
    set drawn at the width this estimator needs alone: d (DLR), 2d
    (Sobol/S-K/Oracle) or 3d (Owen, and Oracle when f0 must be
    pre-estimated).  Direct estimators reject dependent-input models; DLR
    rejects bin counts :func:`bin_schedule` refuses.
    """
    d = model.d
    if kind != EstimatorKind.DLR and model.has_dependent_inputs:
        raise IncompatibleModelError(
            f"estimator {kind.value!r} on {model.name}: "
            "direct formulas assume independent inputs"
        )
    bins = bin_schedule(n, bin_count) if kind == EstimatorKind.DLR else None

    analytic_f0 = model.analytic_f0 is not None
    if evaluations is None:
        evaluations = evaluation_set(model, (kind,), n, sampler)
    elif (
        evaluations.model is not model
        or (evaluations.n, evaluations.sampler) != (n, sampler)
    ):
        raise ValueError("evaluation set was drawn for another model, n or sampler")
    outputs = {b: evaluations.f(b) for b in _output_blocks(kind, analytic_f0)}

    f0 = f0_source = None
    if kind == EstimatorKind.ORACLE:
        if analytic_f0:
            f0, f0_source = model.analytic_f0, "analytic"
        else:
            f0, f0_source = float(outputs["c"].mean()), "estimated"
    return EvaluationPlan(
        kind=kind,
        n=n,
        d=d,
        x_a=evaluations.x("a"),
        f_a=outputs["a"],
        f_b=outputs.get("b"),
        f_ab=outputs.get("ab"),
        f_ca=outputs.get("ca"),
        f_c=outputs.get("c"),
        bins=bins,
        f0_source=f0_source,
        eval_count=eval_count(kind, d, n, analytic_f0),
        f0=f0,
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


@dataclass(frozen=True)
class IndexEstimate:
    """One estimated main-effect index (input indices are 1-based)."""

    kind: EstimatorKind
    input: int
    d_i_hat: float
    d_hat: float
    s_i_hat: float
    n: int
    eval_count_share: float
    f0_source: Optional[str] = None


def estimate_main_index(plan: EvaluationPlan) -> list[IndexEstimate]:
    """All d main-effect estimates of the plan's estimator.

    Every input divides by the same pooled D_hat (from fA and fB when the
    plan has a B set, else fA alone) so indices are comparable across inputs.
    Negative D_i_hat values, possible at small N for near-zero indices, are
    reported as-is.
    """
    kind = plan.kind
    _, d_hat = estimate_mean_and_variance(plan.f_a, plan.f_b)

    share = plan.eval_count / plan.d
    out = []
    for i in range(plan.d):
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
        out.append(
            IndexEstimate(
                kind=kind,
                input=i + 1,
                d_i_hat=d_i,
                d_hat=d_hat,
                s_i_hat=d_i / d_hat,
                n=plan.n,
                eval_count_share=share,
                f0_source=plan.f0_source,
            )
        )
    return out
