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
included, is reduced one way: as leaves of min(N, chunk) rows, whose sums
of that term and of the outputs (behind each D_hat) add up in one pairwise
tree.  DLR sorts every cell from copies of A's columns and fA, a set's
cells of one length in one call per input.

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
    """Outputs of one block over base matrices ``x`` (see :class:`EvaluationSet`),
    by model calls."""
    if len(block) == 1:
        return model.f(x[block])
    donor, base = x[block[0]], x[block[1]]
    out = np.empty((model.d, len(base)))
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


def _factor_sweep(
    factors: Sequence, x: dict[str, np.ndarray], mixed: Sequence[str]
) -> dict[str, np.ndarray]:
    """The ``mixed`` blocks of a product model, and its outputs at their bases,
    from one sweep over the columns.

    At column t each matrix's factor ``g_t(x[m][:, t])`` is formed once and
    serves every block.  After step t, row i <= t of block "xy" holds the
    product of factors 0..t at y with factor i from x, and ``acc[y]`` the
    product of y's factors 0..t.  So each row gets the multiplies f makes
    on y with column i taken from x, on the same operands in the same
    order, and ``acc[y]`` after the last column is f(y), bit for bit.
    """
    matrices, bases = sorted(set("".join(mixed))), {b[1] for b in mixed}
    out = {b: np.empty((len(factors), len(x["a"]))) for b in mixed}
    acc = {}
    for t, g in enumerate(factors):
        fx = {m: g(x[m][:, t]) for m in matrices}
        for block, rows in out.items():
            rows[:t] *= fx[block[1]]
            if t:
                np.multiply(acc[block[1]], fx[block[0]], out=rows[t])
            else:
                rows[0] = fx[block[0]]
        acc = {m: np.multiply(acc[m], fx[m], out=acc[m]) if t else fx[m] for m in bases}
    return {**out, **acc}


def _set_blocks(kinds: Sequence[EstimatorKind]) -> tuple[list[str], list[str]]:
    """The output blocks ``kinds`` read, in evaluation order, and the base
    matrices those blocks read, in draw order."""
    blocks = list(dict.fromkeys(b for kind in kinds for b in _OUTPUT_BLOCKS[kind]))
    return blocks, sorted(set("".join(blocks)))


def _row_bytes(kinds: Sequence[EstimatorKind], d: int) -> int:
    """Bytes per row of a chunk of a set of ``kinds`` on d inputs, at most.

    A chunk holds 8 bytes for each of its draw's W d columns and each output
    value of its blocks (d for "ab" and "ca", one for "a" and "b"), and
    with B, the d rows each of ``fAB - fB`` and of one formula's terms that
    its reduction forms (see :func:`estimate_main_index`).
    """
    blocks, matrices = _set_blocks(kinds)
    values = len(matrices) * d + sum(d if len(b) == 2 else 1 for b in blocks)
    if "b" in matrices:
        values += 2 * d
    return 8 * values


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
    blocks, matrices = _set_blocks(kinds)
    width = len(matrices)
    u = generate_uniform(sampler, n, width * d, start, stop)
    if model.covariance is not None:
        draw = transform_correlated_normal(u, model.covariance)
    else:
        draw = transform_independent(u, model.marginals * width, u.values)
    x = {m: draw[:, j * d : (j + 1) * d] for j, m in enumerate(matrices)}
    # A's outputs, which every kind reads, are one model call; a product
    # model's mixed blocks, and its outputs at their other bases, come from
    # one sweep over its factors
    f = {"a": _outputs(model, x, "a")}
    mixed = [b for b in blocks if len(b) == 2]
    if model.factors is not None and mixed:
        f = {**_factor_sweep(model.factors, x, mixed), **f}
    return EvaluationSet(
        model, x, {b: f[b] if b in f else _outputs(model, x, b) for b in blocks}
    )


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
    """``np.argsort(x, kind="stable")`` of a float64 x, along its last axis,
    from one sort of packed keys.

    Each key is x's own bits with the low ``L = ceil(log2 N)`` bits replaced
    by the index along the last axis (of length N), sorted as float64; the
    sorted keys' low bits are an order.  It is taken without reading x when
    the sorted keys' high parts (low bits cleared, read as floats) are
    finite and strictly increase.  Proof: x lies between its high part h and
    the next high part away from zero, so high parts h < h' give x < x',
    for either sign and across zero.  x then strictly increases along the
    order, which makes it the only one, and a permutation.  Finite high
    parts mean finite keys, which a sort moves without changing a bit.
    Ties, -0 beside +0 (equal as floats), NaN (whose payload, index bits
    included, the sort may drop) and ±inf (high part ±inf) fail that check,
    made once over every row.  Each row is then checked alone: its order
    stands if x itself strictly increases along it (as it does wherever the
    first check holds), or else is a stable argsort of the row, so that
    ties keep sample order.
    """
    n = x.shape[-1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    key = x.view(np.uint64) & ~low
    key |= np.arange(n, dtype=np.uint64)
    key.view(np.float64).sort()
    order = (key & low).view(np.int64)
    key &= ~low
    high = key.view(np.float64)
    if (
        (high[..., 0] > -np.inf).all()
        and (high[..., -1] < np.inf).all()
        and (high[..., 1:] > high[..., :-1]).all()
    ):
        return order
    for row, row_order in zip(x.reshape(-1, n), order.reshape(-1, n)):
        ordered = row[row_order]
        if not (ordered[1:] > ordered[:-1]).all():
            row_order[:] = np.argsort(row, kind="stable")
    return order


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
    return float(_dlr(x_i_column[None], f_a[None], bins, _mean(f_a) ** 2)[0])


def _dlr(x: np.ndarray, f_a: np.ndarray, bins: BinSchedule, f0_sq) -> np.ndarray:
    """:func:`estimate_dlr` of each row of the (c, N) blocks x and fA, given
    each row's ``f0_sq = mean(fA)^2``, from one sort of the block.

    Row j's outputs are gathered by one flat take, at its order plus j N,
    and its bin means reduce the same values in the same order as the row
    alone, so each row's estimate has the bits of that row's
    :func:`estimate_dlr`.
    """
    c, n = x.shape
    order = _argsort_ties_by_index(x)
    if c > 1:
        order += np.arange(0, c * n, n)[:, None]
    bin_means = _mean(f_a.take(order).reshape(c, bins.m, bins.n_m))
    return _mean(bin_means**2) - f0_sq


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


def _tree_sums(leaves: np.ndarray, m: int, c: int) -> np.ndarray:
    """The sums of c cells of m leaves each, from the leaves' sums, leaf first.

    numpy sums a run of 2^k values, 2^k > 128, as the sum of its two halves,
    so a cell of m = 2^j leaves of 2^k >= 128 rows each sums, bit for bit,
    to the pairwise tree of its leaves' sums; a cell of one leaf is its sum.
    """
    s = leaves[: c * m].reshape(c, m, *leaves.shape[1:])
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
    kind to each n's C-ordered (c, d) array, whose row j holds the S_i of
    rows j n to (j + 1) n.

    Every cell is reduced one way, as n / L leaves of L = min(n, chunk)
    rows.  Each chunk's A columns and fA are first copied into the rows
    DLR keeps, and the chunk's plan is dropped: its x_a is the last
    reference to the chunk's draw, so the draw is freed before any term is
    formed.  Each chunk then sums each of its leaves (:func:`_block_sums`):
    each direct formula's per-row term (:func:`_row_term`, formed once per
    chunk for all d inputs, as is ``fAB - fB``), and the values and squares
    of fA and fB.  A cell's sums are the pairwise tree numpy's own sum
    makes of its leaves' (:func:`_tree_sums`), the bits of reducing the
    cell alone.  A kind that reads B divides by D_hat pooled over fA and
    fB, sobol and dlr by D_hat of fA alone, formed only for them; those
    moments and the mean(fA)^2 that sobol and dlr subtract come from the
    same sums.  numpy sums the 2n pooled values as fA's n then fB's only
    for n a multiple of 8 above 64, so other cells sum fA and fB joined
    into one row.  DLR sorts and bins the cells once the last chunk is
    reduced, from those copies, the only rows kept beyond their chunk: the
    c cells of length n are the contiguous (c, n) block of each kept
    column, which :func:`_dlr` reduces in one pass, each row with the bits
    of its cell alone.  Negative D_i_hat values, possible at small N for
    near-zero indices, are reported as-is.
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
    direct = [kind for kind in kinds if kind != EstimatorKind.DLR]
    dlr = EstimatorKind.DLR in kinds
    pooled = plan.f_b is not None
    bins = {n: bin_schedule(n, bin_count) for n in cells} if dlr else {}
    # Per leaf length L, the number of leading leaves the cells cover, and
    # the sums of each, leaf first: each direct kind's d term sums, and
    # those of fA, fA^2 and, with B, fB, fB^2 (key "f").
    leaves = {}
    for n, c in cells.items():
        L = min(n, size)
        leaves[L] = max(leaves.get(L, 0), c * n // L)
    widths = {**dict.fromkeys(direct, d), "f": 4 if pooled else 2}
    sums = {
        key: {L: np.empty((k, w)) for L, k in leaves.items()} for key, w in widths.items()
    }
    # per cell length whose cells pool fA and fB as one joined row, the (2, c)
    # sums of its rows' values and squares
    joined = {
        n: np.empty((2, c)) for n, c in cells.items() if pooled and (n <= 64 or n % 8)
    }
    keep = max((c * n for n, c in cells.items()), default=0) if dlr else 0
    x_keep, f_keep = np.empty((keep, d), order="F"), np.empty(keep)

    def add(start, f_a, f_b, f_ab, f_ca):
        """Reduce the outputs of the chunk of rows ``start`` onward into its
        leaves' sums."""
        # per leaf length L, the count of this chunk's leaves, from leaf start // L
        counts = {
            L: min(size // L, k - start // L) for L, k in leaves.items() if start // L < k
        }
        diff = None if f_b is None else f_ab - f_b

        def values(key):
            """The per-row values whose leaf sums ``key`` holds."""
            if key != "f":
                return _row_term(key, f_a, f_ab, diff, f_ca, f0)
            outputs = (f_a, f_b) if pooled else (f_a,)
            return np.array([y for x in outputs for y in (x, x * x)])

        for key in sums:
            # no local holds a key's values, so one key's are alive at a time
            got = _block_sums(counts, values(key))
            for L, k in counts.items():
                sums[key][L][start // L : start // L + k] = got[L].T
        for n in joined.keys() & counts.keys():
            # each cell's fA and fB joined into one row, as a lone cell's are
            k = counts[n]
            x = np.concatenate([f_a[: k * n].reshape(k, n), f_b[: k * n].reshape(k, n)], 1)
            joined[n][:, start // n : start // n + k] = np.add.reduce([x, x * x], -1)

    rows = 0
    while plan is not None:
        if plan.x_a.shape != (size, d):
            raise ValueError("the chunks of a set must have the same number of rows")
        if rows < keep:
            x_keep[rows : rows + size] = plan.x_a[: keep - rows]
            f_keep[rows : rows + size] = plan.f_a[: keep - rows]
        outputs = plan.f_a, plan.f_b, plan.f_ab, plan.f_ca
        # the plan's x_a is the last reference to the chunk's draw, so the
        # draw is freed here, before the reduction forms its terms
        plan = None
        add(rows, *outputs)
        rows += size
        outputs = None  # and the outputs, before the next chunk is drawn
        plan = next(chunks, None)
    for n, c in blocks.items():
        if n not in cells or c * n > rows or (n <= size < rows and size % n):
            raise ValueError(f"{c} blocks of {n} rows do not fit a set of {rows}")

    def d_hats(s1, s2, m):
        """D_hat of each cell, from its sums of values and squares of m outputs."""
        return np.array([_moments(a, b, m)[1] for a, b in zip(s1, s2)])

    estimates = {kind: {} for kind in kinds}
    for n, c in cells.items():
        L = min(n, size)
        f = _tree_sums(sums["f"][L], n // L, c)  # (c, 4 or 2): fA, fA^2[, fB, fB^2]
        # each cell's mean(fA)^2, squared as a numpy scalar as a lone cell's is
        f0_sq = np.array([(s1 / n) ** 2 for s1 in f[:, 0]])
        if dlr or EstimatorKind.SOBOL in kinds:
            d_a = d_hats(f[:, 0], f[:, 1], n)
        if pooled:
            s = joined[n] if n in joined else (f[:, 0] + f[:, 2], f[:, 1] + f[:, 3])
            d_pooled = d_hats(*s, 2 * n)
        for kind in direct:
            s = _tree_sums(sums[kind][L], n // L, c) / n
            if kind == EstimatorKind.SOBOL:
                s -= f0_sq[:, None]
            s /= (d_pooled if "b" in _OUTPUT_BLOCKS[kind] else d_a)[:, None]
            estimates[kind][n] = s
        if dlr:
            # the c cells of length n are one (c, n) block of each kept column
            x, f_a = x_keep[: c * n].T.reshape(d, c, n), f_keep[: c * n].reshape(c, n)
            s = np.stack([_dlr(x_i, f_a, bins[n], f0_sq) for x_i in x], 1)
            estimates[EstimatorKind.DLR][n] = s / d_a[:, None]
    return estimates
