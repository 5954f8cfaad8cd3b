"""Main-effect index estimators and the evaluation sets they reduce.

Five estimators of the partial variance D_i are provided, each dividing by
an estimate of the total variance D to give S_i = D_i / D:

* ``sobol``  : mean(fA * fAB_i) - mean(fA)^2            (two sample sets)
* ``sk``     : mean(fA * (fAB_i - fB))                  (two sample sets)
* ``owen``   : mean((fA - fCA_i) * (fAB_i - fB))        (three sample sets)
* ``oracle`` : mean((fA - f0) * (fAB_i - fB))           (model's exact f0)
* ``dlr``    : sort by x_i, bin, variance of bin means  (single sample set)

Model outputs live in an evaluation set: one unit point set of dimension d,
2d, or 3d, whose coordinate blocks form the base matrices A, B, C, and the
outputs at A, B, AB_i and CA_i, all evaluated when the set is drawn.  One
set per (N, run) cell, drawn at the widest width its estimators need and
transformed once, serves all of them under either sampler.  A set holds a
row range of its run, so a run is evaluated a chunk of rows at a time;
the chunks join to the whole run bit for bit, since draws are row-range
stable and model outputs row-wise.  A shorter run inside a longer one is
a block of the longer run's rows, outputs included.  A chunk's estimators
are one plan (:func:`build_plan`), and a run's are one pure reduction
over its chunks' plans in row order (:func:`estimate_main_index`).  The
reduction takes the run, not a cell, as its unit: the run's cells are its
leading ``{N: count}`` blocks, each direct formula's per-row term is
formed once over each chunk's rows, and every cell, a lower rung's
included, sums its block of that term, or adds its chunks' sums; the
moments behind each D_hat come from the same sums.

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


def _check_bin_count(bin_count: int) -> None:
    """Refuse a bin count that partitions no N."""
    if bin_count < 2:
        raise ValueError(f"bin count {bin_count} must be at least 2")


def bin_schedule(n: int, bin_count: Optional[int] = None) -> BinSchedule:
    """``bin_count`` bins of N samples, or the default schedule without one."""
    if bin_count is None:
        return default_bin_schedule(n)
    _check_bin_count(bin_count)
    if n % bin_count != 0:
        raise ValueError(f"bin count {bin_count} does not divide sample count {n}")
    return BinSchedule(n=n, m=bin_count, n_m=n // bin_count)


@dataclass(frozen=True)
class EvaluationPlan:
    """The blocks of an evaluation set that its estimators reduce.

    ``f_ab[i]`` holds outputs at B with column i replaced from A (the point
    that shares coordinate i with A); ``f_ca[i]`` holds outputs at A with
    column i replaced from C (Owen's third set).  Blocks none of ``kinds``
    reads are None.  ``bin_count``, DLR's bin count (None for the default
    schedule of each cell's N), is set only with DLR, and ``f0``, the
    model's exact mean, only with the oracle.  No estimator reads outputs at
    C alone, so ``f_c`` is always None; it stays for the benchmark tracer
    (``perfbench/spans.py``), which reads it.
    """

    kinds: tuple[EstimatorKind, ...]
    x_a: np.ndarray
    f_a: np.ndarray
    f_b: Optional[np.ndarray] = None
    f_ab: Optional[np.ndarray] = None
    f_ca: Optional[np.ndarray] = None
    f_c: Optional[np.ndarray] = None
    bin_count: Optional[int] = None
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
    """``names`` as estimator kinds, refused if a string, empty or with a repeat."""
    if isinstance(names, str):
        raise ValueError(f"estimators must be a list, not the string {names!r}")
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


def _outputs(model: InputModel, x: dict[str, np.ndarray], block: str) -> np.ndarray:
    """Outputs of one block over base matrices ``x`` (see :class:`EvaluationSet`)."""
    if len(block) == 1:
        return model.f(x[block])
    donor, base = x[block[0]], x[block[1]]
    out = np.empty((model.d, len(base)))
    if model.factors is not None:
        # One sweep over the columns: after step t, row i < t holds the
        # product of factors 0..t with factor i from the donor, and ``acc``
        # the product of the base's factors 0..t.  So each row gets the
        # multiplies f makes on the base with column i taken from the donor,
        # on the same operands in the same order.
        for t, g in enumerate(model.factors):
            fb = g(base[:, t])
            out[:t] *= fb
            if t == 0:
                out[0], acc = g(donor[:, 0]), fb
            else:
                np.multiply(acc, g(donor[:, t]), out=out[t])
                acc *= fb
        return out
    # The mixed matrices are the base itself: column i is saved, swapped in
    # from the donor for one call and restored after it, so f must not
    # write to x.
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
    start: int = 0,
    stop: Optional[int] = None,
) -> EvaluationSet:
    """The evaluated set that gives each of ``kinds`` the bits it would draw alone.

    The set holds rows ``start`` to ``stop`` (default n) of the n-point run:
    a whole run, or one chunk of it, since a row range of a draw is those
    rows of the whole draw (see :func:`sobolbench.sampling.generate_uniform`)
    and every model output row depends on its own input row alone.  The rows
    are drawn once, as ``W * d`` column-major unit columns where W is the
    number of base matrices the blocks of ``kinds`` read, and transformed in
    place in one call: matrix j is columns ``j * d`` to ``(j + 1) * d`` of
    the unit draw's own buffer.  Draws of either sampler are prefix-stable
    in their columns (see :mod:`sobolbench.sampling`), so a narrower draw of
    the run has the same A and B, and one set serves every estimator of a
    cell.  Every block any of ``kinds`` reads is evaluated before the set is
    returned.  Dependent inputs take width 1 alone: a wider draw fails
    ``transform_correlated_normal``'s dims check.
    """
    d = model.d
    blocks = dict.fromkeys(b for kind in kinds for b in _OUTPUT_BLOCKS[kind])
    matrices = sorted(set("".join(blocks)))
    width = len(matrices)
    u = generate_uniform(sampler, n, width * d, start, stop)
    if model.covariance is not None:
        draw = transform_correlated_normal(u, model.covariance)
    else:
        draw = transform_independent(u, model.marginals * width, u.values)
    x = {m: draw[:, j * d : (j + 1) * d] for j, m in enumerate(matrices)}
    return EvaluationSet(model, x, {b: _outputs(model, x, b) for b in blocks})


def build_plan(
    kinds: Sequence[EstimatorKind],
    evaluations: EvaluationSet,
    bin_count: Optional[int] = None,
) -> EvaluationPlan:
    """The one plan of a set: the blocks of ``evaluations`` that ``kinds`` read.

    The set must hold every block each of ``kinds`` reads.  The plan covers
    all of the set's rows, so one plan serves every cell the set holds (see
    :func:`estimate_main_index`).  DLR bins each cell of N rows into
    ``bin_count`` bins, or by the default schedule of N without one.  The
    caller checks ``kinds`` against the set's model and the bin count first
    (see :func:`_check_kinds`).
    """
    for kind in kinds:
        missing = [b for b in _OUTPUT_BLOCKS[kind] if b not in evaluations.f]
        if missing:
            raise ValueError(
                f"estimator {kind.value!r} reads block(s) {', '.join(missing)} "
                "that the evaluation set lacks"
            )
    f = {b: evaluations.f[b] for kind in kinds for b in _OUTPUT_BLOCKS[kind]}
    return EvaluationPlan(
        kinds=tuple(kinds),
        x_a=evaluations.x["a"],
        f_a=f["a"],
        f_b=f.get("b"),
        f_ab=f.get("ab"),
        f_ca=f.get("ca"),
        bin_count=bin_count if EstimatorKind.DLR in kinds else None,
        f0=evaluations.model.analytic_f0 if EstimatorKind.ORACLE in kinds else None,
    )


def _mean(x: np.ndarray, axis: int = -1):
    """``x.mean(axis)`` of a float64 x, bit for bit: the same pairwise sum,
    then the same true division by the count, without ``ndarray.mean``'s
    Python-level overhead (about 8 us a call)."""
    return np.add.reduce(x, axis) / x.shape[axis]


def _moments(s1, s2, m: int) -> tuple[float, float]:
    """(f0_hat, D_hat) of m outputs from their sum ``s1`` and sum of squares ``s2``.

    D_hat = mean of squares - f0_hat^2; a non-positive value aborts
    estimation since S_i = D_i / D is then undefined.  f0_hat is squared as
    a Python float (libm ``pow``, which is not always ``x * x``).
    """
    f0_hat = float(s1 / m)
    d_hat = float(s2 / m - f0_hat**2)
    if d_hat <= 0.0:
        raise DegenerateModelError("degenerate model (zero variance)")
    return f0_hat, d_hat


def estimate_mean_and_variance(
    f_a: np.ndarray, f_b: Optional[np.ndarray] = None
) -> tuple[float, float]:
    """Pooled (f0_hat, D_hat) over all provided outputs (see :func:`_moments`)."""
    pooled = f_a if f_b is None else np.concatenate([f_a, f_b])
    if pooled.size == 0:
        raise ValueError("at least one output array must be nonempty")
    return _moments(np.add.reduce(pooled), np.add.reduce(pooled**2), pooled.size)


def _row_term(
    kind: EstimatorKind,
    f_a: np.ndarray,
    f_ab: np.ndarray,
    diff: Optional[np.ndarray],
    f_ca: Optional[np.ndarray] = None,
    f0: Optional[float] = None,
) -> np.ndarray:
    """The per-row term whose mean is ``kind``'s D_i_hat, with ``diff =
    fAB - fB``; sobol subtracts mean(fA)^2 from its mean.  ``f_ab``,
    ``diff`` and ``f_ca`` are one input's (n,) rows or all inputs' (d, n)
    blocks, which give each input's row of terms, bit for bit."""
    if kind == EstimatorKind.SOBOL:
        return f_a * f_ab
    if kind == EstimatorKind.SK:
        return f_a * diff
    if kind == EstimatorKind.OWEN:
        term = f_a - f_ca
        term *= diff
        return term
    return (f_a - f0) * diff


def estimate_sobol_original(f_a: np.ndarray, f_ab_i: np.ndarray) -> float:
    """D_i_hat = mean(fA * fAB_i) - mean(fA)^2.

    The subtracted square of the estimated mean is the known weakness of this
    formula: for |f0| >> sqrt(D_i) the cancellation error dominates.
    """
    term = _row_term(EstimatorKind.SOBOL, f_a, f_ab_i, None)
    return float(_mean(term) - _mean(f_a) ** 2)


def estimate_sk(f_a: np.ndarray, f_b: np.ndarray, f_ab_i: np.ndarray) -> float:
    """D_i_hat = mean(fA * (fAB_i - fB))."""
    return float(_mean(_row_term(EstimatorKind.SK, f_a, f_ab_i, f_ab_i - f_b)))


def estimate_owen(
    f_a: np.ndarray, f_b: np.ndarray, f_ab_i: np.ndarray, f_ca_i: np.ndarray
) -> float:
    """D_i_hat = mean((fA - fCA_i) * (fAB_i - fB))."""
    term = _row_term(EstimatorKind.OWEN, f_a, f_ab_i, f_ab_i - f_b, f_ca_i)
    return float(_mean(term))


def estimate_oracle(
    f_a: np.ndarray, f_b: np.ndarray, f_ab_i: np.ndarray, f0: float
) -> float:
    """D_i_hat = mean((fA - f0) * (fAB_i - fB)) with f0 the exact mean."""
    term = _row_term(EstimatorKind.ORACLE, f_a, f_ab_i, f_ab_i - f_b, f0=f0)
    return float(_mean(term))


def _argsort_ties_by_index(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")`` of a float64 x, from a sort of packed keys.

    Each key is x's own bits with the low ``L = ceil(log2 N)`` bits replaced
    by the row index, sorted as float64; the sorted keys' low bits are an
    order.  It is taken without reading x when the sorted keys' high parts
    (low bits cleared, read as floats) are finite and strictly increase.
    Proof: x lies between its high part h and the next high part away from
    zero, so high parts h < h' give x < x', for either sign and across
    zero.  x then strictly increases along the order, which makes it the
    only one, and a permutation.  Finite high parts mean finite keys, which
    a sort moves without changing a bit.  Ties, -0 beside +0 (equal as
    floats), NaN (whose payload, index bits included, the sort may drop)
    and ±inf (high part ±inf) fail that check.  They fall to the check that
    x itself strictly increases along the order, then to a stable argsort
    of x, so that ties keep sample order.
    """
    n = len(x)
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    key = x.view(np.uint64) & ~low
    key |= np.arange(n, dtype=np.uint64)
    key.view(np.float64).sort()
    order = (key & low).view(np.int64)
    key &= ~low
    high = key.view(np.float64)
    if high[0] > -np.inf and high[-1] < np.inf and np.all(high[1:] > high[:-1]):
        return order
    ordered = x[order]
    if np.all(ordered[1:] > ordered[:-1]):
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
    return _dlr(x_i_column, f_a, bins, _mean(f_a) ** 2)


def _dlr(x_i_column: np.ndarray, f_a: np.ndarray, bins: BinSchedule, f0_sq) -> float:
    """:func:`estimate_dlr` given ``f0_sq = mean(fA)^2``."""
    if x_i_column.shape[0] != bins.n or f_a.shape[0] != bins.n:
        raise ValueError("array length does not match the bin schedule")
    order = _argsort_ties_by_index(x_i_column)
    bin_means = _mean(f_a[order].reshape(bins.m, bins.n_m))
    return float(_mean(bin_means**2) - f0_sq)


def _dlr_cell(x_a: np.ndarray, f_a: np.ndarray, bins: BinSchedule, s1) -> np.ndarray:
    """DLR's d D_i_hat of one cell, before the division by D_hat, given the
    sum ``s1`` of its fA (whose mean is squared as a numpy scalar, as a
    cell's own mean is)."""
    f0_sq = (s1 / bins.n) ** 2
    return np.array([_dlr(x_a[:, i], f_a, bins, f0_sq) for i in range(x_a.shape[1])])


def _block_sums(blocks: dict[int, int], x: np.ndarray) -> dict[int, np.ndarray]:
    """Per cell length n, the sums along x's last axis of its ``c = blocks[n]``
    leading n-row blocks, of shape ``x.shape[:-1] + (c,)``.

    Each is numpy's pairwise sum of one aligned block, bit for bit the sum
    of that block alone, since a reduction over the last axis of the
    ``(..., c, n)`` reshape sums each block as a 1-D array.
    """
    lead = x.shape[:-1]
    return {
        n: np.add.reduce(x[..., : c * n].reshape(*lead, c, n), -1)
        for n, c in blocks.items()
    }


def _block_moments(
    blocks: dict[int, int], *xs: np.ndarray
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per cell length n, the sums of values and of squares of each leading cell.

    Cell j's values are block j of each of ``xs`` in turn, joined into one
    row as :func:`estimate_mean_and_variance` joins a lone cell's fA and fB:
    numpy sums up to 128 values in 8 interleaved accumulators, so for
    n <= 64 the pooled sum over fA and fB is not the sum of their sums.
    One buffer holds every length's joined blocks, squared in place after
    their sum.
    """
    w = len(xs)
    buffer = np.empty(w * max(c * n for n, c in blocks.items()))
    sums = {}
    for n, c in blocks.items():
        joined = buffer[: w * c * n].reshape(c, w * n)
        np.concatenate([x[: c * n].reshape(c, n) for x in xs], 1, out=joined)
        s1 = np.add.reduce(joined, -1)
        sums[n] = s1, np.add.reduce(np.square(joined, out=joined), -1)
    return sums


def _tree_sums(chunk_sums: list[np.ndarray], m: int, c: int) -> np.ndarray:
    """The sums of c cells of m chunks each, from each chunk's sum in row order.

    numpy sums a run of 2^k values, 2^k > 128, as the sum of its two halves,
    so a cell of m = 2^j chunks of 2^k >= 128 rows each sums, bit for bit,
    to the pairwise tree of its chunks' sums.
    """
    s = np.array(chunk_sums[: c * m])
    s = s.reshape(c, m, *s.shape[1:])
    while s.shape[1] > 1:
        s = s[:, 0::2] + s[:, 1::2]
    return s[:, 0]


def estimate_main_index(
    plans: EvaluationPlan | Iterable[EvaluationPlan],
    blocks: Optional[dict[int, int]] = None,
) -> dict[EstimatorKind, dict[int, np.ndarray]]:
    """The plans' kinds' d main-effect estimates S_i at every cell of their set.

    ``plans`` is one plan of a whole set, or the plans of the set's chunks,
    each of the same number of rows, in row order.  They are consumed one at
    a time: each chunk is reduced, and dropped, before the next is drawn.
    The set's cells are its leading blocks: ``blocks`` maps a cell length n
    to a count c, the first c blocks of n rows, which are c runs in order
    (the layout of :func:`sobolbench.sampling._replicate_layout`).  A cell
    lies within one chunk, or spans 2^j whole chunks of 2^k >= 128 rows.
    Without ``blocks`` one plan's rows are one cell.  The result maps each
    kind to each n's (c, d) array, whose row j holds the S_i of rows j n to
    (j + 1) n.

    The set is reduced once for all of its cells.  Each direct formula's
    per-row term (:func:`_row_term`) is formed once per chunk for all d
    inputs, and so is ``fAB - fB``; every cell within a chunk takes the sum
    of its block (:func:`_block_sums`), the same bits as reducing the cell
    alone, and a longer cell adds its chunks' sums in the tree numpy's
    pairwise sum makes of them (:func:`_tree_sums`).  A kind that reads B
    divides by D_hat pooled over fA and fB, sobol and dlr by D_hat of fA
    alone, and those moments and the mean(fA)^2 that sobol and dlr subtract
    come from the same sums.  DLR sorts and bins each cell on its own; for
    a cell longer than a chunk it reads copies of A's columns and fA, the
    only rows kept beyond their chunk.  Negative D_i_hat values, possible
    at small N for near-zero indices, are reported as-is.
    """
    chunks = iter((plans,) if isinstance(plans, EvaluationPlan) else plans)
    plan = next(chunks)
    kinds, f0, bin_count = plan.kinds, plan.f0, plan.bin_count
    size, d = plan.x_a.shape
    if blocks is None:
        blocks = {size: 1}

    def summable(n, c):
        """Whether c cells of n rows can lie within chunks or span whole ones."""
        m = n // size
        tree = size >= 128 and not size & (size - 1) and not m & (m - 1)
        return n >= 1 and c >= 1 and (n <= size or (n % size == 0 and tree))

    cells = {n: c for n, c in blocks.items() if summable(n, c)}
    outer = {n: c for n, c in cells.items() if n > size}
    direct = [kind for kind in kinds if kind != EstimatorKind.DLR]
    dlr = EstimatorKind.DLR in kinds
    pooled = plan.f_b is not None
    alone = dlr or EstimatorKind.SOBOL in kinds
    # Per cell length n: each direct kind's (c, d) term sums, DLR's (c, d)
    # D_i_hat before the division by D_hat, and the (2, c) sums of values
    # and of squares of fA alone ("a") and of fA and fB pooled ("ab").
    sums = {key: {n: np.empty((c, d)) for n, c in cells.items()} for key in kinds}
    moments = {key: {n: np.empty((2, c)) for n, c in cells.items()} for key in ("a", "ab")}
    bins = {n: bin_schedule(n, bin_count) for n in cells} if dlr else {}
    # The sums of each chunk in turn, which the cells longer than a chunk add.
    chunk_sums = {key: [] for key in (*direct, "a", "b")}
    keep = max((c * n for n, c in outer.items()), default=0) if dlr else 0
    x_keep, f_keep = np.empty((keep, d), order="F"), np.empty(keep)

    def add(plan, start):
        """Reduce the chunk of rows ``start`` onward into the cells' sums."""
        if plan.x_a.shape != (size, d):
            raise ValueError("the chunks of a set must have the same number of rows")
        here = {}  # the cells within this chunk: n -> (first cell, count)
        for n, c in cells.items():
            if n <= size and start // n < c:
                here[n] = start // n, min(size // n, c - start // n)
        inner = {n: k for n, (_, k) in here.items()}
        local = {**inner, size: 1} if outer else inner
        f_a, f_b = plan.f_a, plan.f_b
        diff = None if f_b is None else plan.f_ab - f_b
        for kind in direct:
            # no local holds a kind's terms, so one kind's are alive at a time
            got = _block_sums(local, _row_term(kind, f_a, plan.f_ab, diff, plan.f_ca, f0))
            for n, (j, k) in here.items():
                sums[kind][n][j : j + k] = got[n].T
            if outer:
                chunk_sums[kind].append(got[size][:, 0])
        if outer:
            for key, f in (("a", f_a), ("b", f_b)):
                if f is not None:
                    chunk_sums[key].append(
                        np.array([np.add.reduce(f), np.add.reduce(np.square(f))])
                    )
        if start < keep:
            x_keep[start : start + size] = plan.x_a
            f_keep[start : start + size] = f_a
        if not here:
            return
        for key, fs, wanted in (("ab", (f_a, f_b), pooled), ("a", (f_a,), alone)):
            if wanted:
                got = _block_moments(inner, *fs)
                for n, (j, k) in here.items():
                    moments[key][n][:, j : j + k] = got[n]
        if dlr:
            for n, (j, k) in here.items():
                for jj, s1 in enumerate(moments["a"][n][0, j : j + k]):
                    cell = slice(jj * n, (jj + 1) * n)
                    sums[EstimatorKind.DLR][n][j + jj] = _dlr_cell(
                        plan.x_a[cell], f_a[cell], bins[n], s1
                    )

    rows = 0
    while plan is not None:
        add(plan, rows)
        rows += size
        plan = None  # drop the chunk's arrays before the next chunk is drawn
        plan = next(chunks, None)
    for n, c in blocks.items():
        if n not in cells or c * n > rows or (n <= size < rows and size % n):
            raise ValueError(f"{c} blocks of {n} rows do not fit a set of {rows}")

    for n, c in outer.items():
        m = n // size
        for kind in direct:
            sums[kind][n][:] = _tree_sums(chunk_sums[kind], m, c)
        moments["a"][n][:] = _tree_sums(chunk_sums["a"], m, c).T
        if pooled:
            moments["ab"][n][:] = moments["a"][n] + _tree_sums(chunk_sums["b"], m, c).T
        if dlr:
            for j, s1 in enumerate(moments["a"][n][0]):
                cell = slice(j * n, (j + 1) * n)
                sums[EstimatorKind.DLR][n][j] = _dlr_cell(
                    x_keep[cell], f_keep[cell], bins[n], s1
                )

    def d_hat(key, w):
        """D_hat of each cell, from the sums of its blocks of w arrays."""
        return {
            n: np.array([_moments(a, b, w * n)[1] for a, b in zip(*s)])
            for n, s in moments[key].items()
        }

    d_a = d_hat("a", 1) if alone else None
    d_pooled = d_hat("ab", 2) if pooled else None
    for kind, estimates in sums.items():
        for n, s in estimates.items():
            if kind != EstimatorKind.DLR:
                s /= n
            if kind == EstimatorKind.SOBOL:
                # mean(fA)^2 squared as a numpy scalar, as a cell's own mean is
                s -= np.array([(s1 / n) ** 2 for s1 in moments["a"][n][0]])[:, None]
            s /= (d_pooled if "b" in _OUTPUT_BLOCKS[kind] else d_a)[n][:, None]
    return sums
