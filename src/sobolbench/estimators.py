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
outputs at A, B, AB_i and CA_i, all evaluated when the set is drawn.  One
set per (N, run) cell, drawn at the widest width its estimators need and
transformed once, serves all of them under either sampler.  A shorter run
inside a longer one is a row slice of its set, outputs included (see
:meth:`EvaluationSet.rows`).  Each estimator is a pure reduction over the
blocks of the set it reads (:func:`sobolbench.harness.estimate_cell` runs
all of a cell's estimators).

What each estimator needs is stated here alone: the blocks it reads and
so its cost (:func:`cost`), and which estimator lists, bin counts and
models it accepts (:func:`_check_kinds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .models import InputModel
from .sampling import (
    SamplerSpec,
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
    "cost",
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

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown estimator {value!r} (valid: {valid})")


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


def cost(kind: EstimatorKind, d: int, n: int) -> tuple[int, int]:
    """(actual, table1) evaluation counts for a full set of d indices.

    ``actual`` is what one ``kind`` run evaluates alone (main effects only),
    whether or not a cell shares those evaluations with other estimators.
    ``table1`` is the published convention, which for the original Sobol'
    formula budgets the joint {S_i, S_i_tot} set: N(2d+1) instead of N(d+1).
    The two differ only for that estimator.
    """
    actual = n * sum(d if len(b) == 2 else 1 for b in _OUTPUT_BLOCKS[kind])
    if kind == EstimatorKind.SOBOL:
        return actual, n * (2 * d + 1)
    return actual, actual


def _kind_list(names: Iterable[EstimatorKind | str]) -> tuple[EstimatorKind, ...]:
    """``names`` as estimator kinds, refused if empty or with a repeat."""
    kinds = tuple(EstimatorKind(name) for name in names)
    if not kinds:
        raise ValueError("at least one estimator is required")
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"repeated estimator {kind.value!r}")
    return kinds


def _check_kinds(
    names: Iterable[EstimatorKind | str],
    n: int,
    bin_count: Optional[int] = None,
    model: Optional[InputModel] = None,
) -> tuple[EstimatorKind, ...]:
    """The kinds ``names`` gives, refused unless they can share cells of N = ``n``.

    The list must be nonempty without repeats (:func:`_kind_list`); a bin
    count needs DLR, and DLR's schedule must partition ``n`` (every ladder
    N is a power of two, so a schedule that partitions the smallest N
    partitions them all).  Given a model, the direct formulas need
    independent inputs and the oracle the model's exact mean.
    """
    kinds = _kind_list(names)
    if EstimatorKind.DLR in kinds:
        bin_schedule(n, bin_count)
    elif bin_count is not None:
        raise ValueError("bin count applies only to the dlr estimator")
    if model is None:
        return kinds
    for kind in kinds:
        if kind == EstimatorKind.DLR:
            continue
        if model.has_dependent_inputs:
            raise IncompatibleModelError(
                f"estimator {kind.value!r} on {model.name}: "
                "direct formulas assume independent inputs"
            )
        if kind == EstimatorKind.ORACLE and model.analytic_f0 is None:
            raise IncompatibleModelError(
                f"estimator 'oracle' on {model.name}: needs the model's exact mean f0"
            )
    return kinds


@dataclass(frozen=True, eq=False)
class EvaluationSet:
    """Model outputs on the base matrices of one run, all computed when drawn.

    ``x`` maps each base matrix the set's blocks read, ``"a"``, ``"b"`` and
    (for Owen) ``"c"``, to A, B, C in model space, each (n, d), column
    blocks of one column-major transformed draw.
    ``f`` maps every block the set's estimators read to its outputs: a
    matrix name such as ``"a"`` (shape (n,)), and ``"ab"``, ``"ca"`` (shape
    (d, n)), where block ``"xy"`` row i is the output at matrix y with
    column i taken from matrix x.  Every estimator of a cell reduces the
    cell's one set, so all of them read the same arrays; nothing writes to
    a set once it is made.
    """

    model: InputModel
    x: dict[str, np.ndarray]
    f: dict[str, np.ndarray]

    def rows(self, start: int, n: int) -> EvaluationSet:
        """Rows ``start`` to ``start + n`` of this set, matrices and outputs as views.

        Runs nest across n in every matrix and so in every output, and the
        caller vouches that those rows are the run it reduces them as (see
        :func:`sobolbench.sampling._replicate_layout`).
        """
        total = len(self.x["a"])
        if start < 0 or n <= 0 or start + n > total:
            raise ValueError(f"rows {start}..{start + n} lie outside a set of {total}")
        rows = slice(start, start + n)
        return EvaluationSet(
            self.model,
            {m: x[rows] for m, x in self.x.items()},
            {b: f[..., rows] for b, f in self.f.items()},
        )


def _outputs(model: InputModel, x: dict[str, np.ndarray], block: str) -> np.ndarray:
    """Outputs of one block over base matrices ``x`` (see :class:`EvaluationSet`)."""
    if len(block) == 1:
        return model.f(x[block])
    donor, base = x[block[0]], x[block[1]]
    # The mixed matrices are the base itself: column i is saved, swapped in
    # from the donor for one call and restored after it, so f must not
    # write to x.
    out = np.empty((model.d, len(base)))
    saved = np.empty(len(base))
    for i in range(model.d):
        saved[:] = base[:, i]
        base[:, i] = donor[:, i]
        out[i] = model.f(base)
        base[:, i] = saved
    return out


def evaluation_set(
    model: InputModel,
    kinds: Sequence[EstimatorKind],
    n: int,
    sampler: SamplerSpec,
) -> EvaluationSet:
    """The evaluated set that gives each of ``kinds`` the bits it would draw alone.

    The run is drawn once, as ``W * d`` column-major unit columns where W is
    the number of base matrices the blocks of ``kinds`` read, and
    transformed in place in one call: matrix j is columns ``j * d`` to
    ``(j + 1) * d`` of the unit draw's own buffer.  Draws of either sampler
    are prefix-stable in their columns (see :mod:`sobolbench.sampling`), so
    a narrower draw of the run has the same A and B, and one set serves
    every estimator of a cell.  Every block any of ``kinds`` reads is
    evaluated before the set is returned.  Dependent inputs take width 1
    alone: a wider draw fails ``transform_correlated_normal``'s dims check.
    """
    d = model.d
    blocks = dict.fromkeys(b for kind in kinds for b in _OUTPUT_BLOCKS[kind])
    matrices = sorted(set("".join(blocks)))
    width = len(matrices)
    u = generate_uniform(sampler, n, width * d)
    if model.covariance is not None:
        draw = transform_correlated_normal(u, model.covariance)
    else:
        draw = transform_independent(u, model.marginals * width, u.values)
    x = {m: draw[:, j * d : (j + 1) * d] for j, m in enumerate(matrices)}
    return EvaluationSet(model, x, {b: _outputs(model, x, b) for b in blocks})


def build_plan(
    kind: EstimatorKind,
    evaluations: EvaluationSet,
    bin_count: Optional[int] = None,
) -> EvaluationPlan:
    """The blocks of ``evaluations`` that ``kind`` reads, for all d inputs.

    The set must hold every block ``kind`` reads.  DLR's bin schedule is
    ``bin_count`` bins of the set's rows, or the default schedule without
    one.  The caller checks ``kind`` against the set's model and the bin
    count first (see :func:`_check_kinds`).
    """
    missing = [b for b in _OUTPUT_BLOCKS[kind] if b not in evaluations.f]
    if missing:
        raise ValueError(
            f"estimator {kind.value!r} reads block(s) {', '.join(missing)} "
            "that the evaluation set lacks"
        )
    outputs = {b: evaluations.f[b] for b in _OUTPUT_BLOCKS[kind]}
    return EvaluationPlan(
        kind=kind,
        x_a=evaluations.x["a"],
        f_a=outputs["a"],
        f_b=outputs.get("b"),
        f_ab=outputs.get("ab"),
        f_ca=outputs.get("ca"),
        bins=bin_schedule(len(outputs["a"]), bin_count)
        if kind == EstimatorKind.DLR
        else None,
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
    """``np.argsort(x, kind="stable")`` of a float64 x, from a sort of packed keys.

    Each value's order-preserving uint64 key (all bits flipped when the sign
    bit is set, else the sign bit) has its low ``ceil(log2 N)`` bits replaced
    by the row index; the sorted keys' low bits are an order, the only one
    when the sorted values strictly increase.  Otherwise (values apart only
    in the dropped bits, equal keys, say from a narrow Uniform far from
    zero, ±0, or NaN) x is argsorted stably so that ties keep sample order.
    """
    n = len(x)
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    key = (x.view(np.int64) >> 63).view(np.uint64)
    key |= np.uint64(1 << 63)
    key ^= x.view(np.uint64)
    key &= ~low
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    key &= low
    order = key.view(np.int64)
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
            raise ValueError(f"no formula for estimator kind {kind!r}")
        s[i] = d_i / d_hat
    return s
