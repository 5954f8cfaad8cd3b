"""Estimator formulas: exact identities, plan construction, convergence."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolbench.estimators import (
    BinSchedule,
    DegenerateModelError,
    EstimatorKind,
    IncompatibleModelError,
    _argsort_ties_by_index,
    _dlr,
    _mean,
    _tree_sums,
    bin_schedule,
    build_plan,
    cost,
    default_bin_schedule,
    estimate_dlr,
    estimate_main_index,
    estimate_mean_and_variance,
    estimate_oracle,
    estimate_owen,
    estimate_sk,
    estimate_sobol_original,
    evaluation_set,
)
from sobolbench.harness import estimate_cell
from sobolbench.models import TEST_CASE_NAMES, InputModel, build
from sobolbench.sampling import (
    SamplerSpec,
    Uniform,
    UnitPointSet,
    generate_uniform,
    transform_correlated_normal,
    transform_independent,
)

QMC = SamplerSpec(kind="QMC", run_index=0)
MC = SamplerSpec(kind="MC", seed=12345, run_index=2)
PLAN_ARRAYS = ("x_a", "f_a", "f_b", "f_ab", "f_ca", "f_c")
ALL_KINDS = tuple(EstimatorKind)
INDEPENDENT_CASES = tuple(
    name for name in TEST_CASE_NAMES if not build(name).has_dependent_inputs
)
DIRECT_KINDS = (
    EstimatorKind.SOBOL,
    EstimatorKind.SK,
    EstimatorKind.OWEN,
    EstimatorKind.ORACLE,
)


def _plan(model, kind, n, sampler=QMC, bin_count=None):
    """The plan of one estimator on a set drawn for it alone."""
    return build_plan((kind,), evaluation_set(model, (kind,), n, sampler), bin_count)


def _valid_kinds(model):
    """Every kind the model accepts, in enum order."""
    return [
        k for k in ALL_KINDS
        if k == EstimatorKind.DLR or not model.has_dependent_inputs
    ]


def _populated(plan):
    """Model outputs the plan reads: the sizes of its output arrays."""
    outputs = (getattr(plan, a) for a in PLAN_ARRAYS[1:])
    return sum(f.size for f in outputs if f is not None)


def _reduce(plan):
    """Each of the plan's kinds' S_i, its set's rows reduced as one cell."""
    n = len(plan.f_a)
    return {kind: s[n][0] for kind, s in estimate_main_index(plan).items()}


def _estimate(model, kind, n, sampler=QMC):
    """S_i of one estimator on a cell of its own."""
    return estimate_cell(model, (kind,), n, sampler)[kind]


@pytest.fixture()
def arrays():
    rng = np.random.default_rng(42)
    f_a = rng.standard_normal(512) + 3.0
    f_b = rng.standard_normal(512) + 3.0
    f_ab = rng.standard_normal(512) + 3.0
    f_ca = rng.standard_normal(512) + 3.0
    return f_a, f_b, f_ab, f_ca


# ---------------------------------------------------------------------------
# exact algebraic identities


def test_oracle_with_zero_f0_equals_sk(arrays):
    f_a, f_b, f_ab, _ = arrays
    assert estimate_oracle(f_a, f_b, f_ab, 0.0) == estimate_sk(f_a, f_b, f_ab)


def test_owen_reduces_to_sk_when_centering_term_vanishes(arrays):
    # dropping the f(CA_i) outputs (all-zero column) recovers the S-K formula
    f_a, f_b, f_ab, _ = arrays
    zero = np.zeros_like(f_a)
    assert estimate_owen(f_a, f_b, f_ab, zero) == estimate_sk(f_a, f_b, f_ab)


def test_owen_with_fca_equal_fa_is_exactly_zero(arrays):
    # the (fA - fCA_i) factor cancels pointwise; the estimate is exactly 0
    f_a, f_b, f_ab, _ = arrays
    assert estimate_owen(f_a, f_b, f_ab, f_a) == 0.0


def test_direct_formulas_zero_when_fab_equals_fb(arrays):
    f_a, f_b, _, f_ca = arrays
    assert estimate_sk(f_a, f_b, f_b) == 0.0
    assert estimate_owen(f_a, f_b, f_b, f_ca) == 0.0
    assert estimate_oracle(f_a, f_b, f_b, 3.0) == 0.0


def test_sobol_original_near_zero_for_independent_fab(arrays):
    # the original formula has no exact cancellation, only the MC limit
    f_a, f_b, _, _ = arrays
    assert abs(estimate_sobol_original(f_a, f_b)) < 0.2
    # fAB_i = fA is the S_y = 1 case: recovers the sample variance
    var = float((f_a**2).mean() - f_a.mean() ** 2)
    assert estimate_sobol_original(f_a, f_a) == pytest.approx(var, rel=1e-12)


def test_scale_equivariance(arrays):
    f_a, f_b, f_ab, f_ca = arrays
    c = -3.7
    bins = default_bin_schedule(512)
    x = np.random.default_rng(1).random(512)
    cases = [
        (estimate_sobol_original(f_a, f_ab), estimate_sobol_original(c * f_a, c * f_ab)),
        (estimate_sk(f_a, f_b, f_ab), estimate_sk(c * f_a, c * f_b, c * f_ab)),
        (
            estimate_owen(f_a, f_b, f_ab, f_ca),
            estimate_owen(c * f_a, c * f_b, c * f_ab, c * f_ca),
        ),
        (
            estimate_oracle(f_a, f_b, f_ab, 3.0),
            estimate_oracle(c * f_a, c * f_b, c * f_ab, c * 3.0),
        ),
        (estimate_dlr(x, f_a, bins), estimate_dlr(x, c * f_a, bins)),
    ]
    for d_i, d_i_scaled in cases:
        assert d_i_scaled == pytest.approx(c**2 * d_i, rel=1e-12)


def test_shift_invariance_machine_level(arrays):
    f_a, f_b, f_ab, f_ca = arrays
    c = 100.0
    # Owen and Oracle: the shift cancels inside a difference of outputs
    assert estimate_owen(f_a + c, f_b + c, f_ab + c, f_ca + c) == pytest.approx(
        estimate_owen(f_a, f_b, f_ab, f_ca), abs=1e-10
    )
    f0 = float(f_a.mean())
    assert estimate_oracle(f_a + c, f_b + c, f_ab + c, f0 + c) == pytest.approx(
        estimate_oracle(f_a, f_b, f_ab, f0), abs=1e-10
    )
    # DLR: bin means and the global mean shift together
    x = np.random.default_rng(2).random(512)
    bins = default_bin_schedule(512)
    assert estimate_dlr(x, f_a + c, bins) == pytest.approx(
        estimate_dlr(x, f_a, bins), abs=1e-9
    )
    # S-K: the only shift term is c * mean(fAB_i - fB); with that difference
    # exactly centered the estimate is machine-level invariant too
    w = f_ab - f_ab.mean() + f_b.mean()
    assert abs(np.mean(w - f_b)) < 1e-12
    assert estimate_sk(f_a + c, f_b + c, w + c) == pytest.approx(
        estimate_sk(f_a, f_b, w), abs=1e-9
    )


def test_sk_shift_decomposition(arrays):
    # general arrays: shifting f changes S-K by exactly c * mean(fAB_i - fB)
    f_a, f_b, f_ab, _ = arrays
    c = 5.0
    shifted = estimate_sk(f_a + c, f_b + c, f_ab + c)
    assert shifted == pytest.approx(
        estimate_sk(f_a, f_b, f_ab) + c * float(np.mean(f_ab - f_b)), rel=1e-12
    )


def test_sobol_original_not_shift_invariant(arrays):
    # the f0^2 cancellation defect: a large shift visibly moves the estimate
    f_a, _, f_ab, _ = arrays
    base = estimate_sobol_original(f_a, f_ab)
    assert abs(estimate_sobol_original(f_a + 100.0, f_ab + 100.0) - base) > 0.01


# ---------------------------------------------------------------------------
# mean / variance


def test_mean_and_variance_two_point():
    f0, d = estimate_mean_and_variance(np.array([0.0, 2.0]))
    assert f0 == 1.0 and d == 1.0


def test_mean_and_variance_pools_both_arrays():
    f0, d = estimate_mean_and_variance(np.array([0.0, 2.0]), np.array([4.0, 6.0]))
    assert f0 == 3.0 and d == 5.0


@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
@pytest.mark.parametrize("name", INDEPENDENT_CASES)
def test_oracle_at_pooled_mean_matches_scipy_sobol_indices(name, sampler):
    # an independent implementation: scipy's Saltelli-2010 first order
    # centres all outputs by the pooled mean of its f_A and f_B and divides
    # by their pooled np.var.  Its AB_i is its A with column i from its B,
    # so this package's B is passed as its A.  The result is the oracle
    # formula with f0 the pooled mean.
    from scipy.stats import sobol_indices

    n = 1 << 12
    evaluations = evaluation_set(build(name), (EstimatorKind.SK,), n, sampler)
    f_a, f_b, f_ab = (evaluations.f[block] for block in ("a", "b", "ab"))
    pooled = np.concatenate([f_a, f_b])
    want = [
        estimate_oracle(f_a, f_b, f_ab_i, pooled.mean()) / np.var(pooled)
        for f_ab_i in f_ab
    ]
    got = sobol_indices(
        func={"f_A": f_b, "f_B": f_a, "f_AB": f_ab[:, None, :]}, n=n
    ).first_order
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def test_constant_model_degenerate():
    with pytest.raises(DegenerateModelError, match="zero variance"):
        estimate_mean_and_variance(np.full(16, 5.0))
    with pytest.raises(ValueError):
        estimate_mean_and_variance(np.array([]))


@pytest.mark.parametrize("kind", [EstimatorKind.SK, EstimatorKind.OWEN, EstimatorKind.ORACLE])
def test_constant_fa_degenerates_only_the_kinds_that_divide_by_its_variance(kind):
    # D_hat of fA alone is formed only when sobol or dlr reads it: a kind
    # that divides by D_hat pooled over fA and fB gives estimates at every
    # cell of a set whose fA is constant and whose fB varies
    plan = dataclasses.replace(_plan(build("Ishigami"), kind, 256), f_a=np.full(256, 2.0))
    got = estimate_main_index(plan, {256: 1, 128: 2, 16: 16})
    assert all(np.isfinite(s).all() for s in got[kind].values())
    with pytest.raises(DegenerateModelError):
        estimate_main_index(dataclasses.replace(plan, kinds=(kind, EstimatorKind.SOBOL)))


def test_ishigami_variance_estimate():
    m = build("Ishigami")
    plan = _plan(m, EstimatorKind.SK, 1 << 16)
    _, d_hat = estimate_mean_and_variance(plan.f_a, plan.f_b)
    assert d_hat == pytest.approx(13.845, abs=0.01)


# ---------------------------------------------------------------------------
# plan construction


def test_plan_shapes_and_eval_counts():
    m = build("Ishigami")
    n = 256
    plan = _plan(m, EstimatorKind.SOBOL, n)
    assert plan.kinds == (EstimatorKind.SOBOL,) and plan.f0 is None
    assert plan.f_b is None and plan.f_ca is None
    assert plan.f_ab.shape == (3, n)
    assert _populated(plan) == n * 4
    plan = _plan(m, EstimatorKind.SK, n)
    assert plan.f_b.shape == (n,)
    assert _populated(plan) == n * 5
    plan = _plan(m, EstimatorKind.OWEN, n)
    assert plan.f_ca.shape == (3, n)
    assert _populated(plan) == n * 8
    plan = _plan(m, EstimatorKind.ORACLE, n)
    assert plan.f0 == m.analytic_f0 and plan.f_c is None
    assert _populated(plan) == n * 5
    plan = _plan(m, EstimatorKind.DLR, n)
    assert bin_schedule(n) == BinSchedule(n=256, m=16, n_m=16)
    assert _populated(plan) == n
    assert plan.x_a.shape == (n, 3)


def test_plan_sk_linear4_example():
    plan = _plan(build("Linear4"), EstimatorKind.SK, 1 << 10)
    assert _populated(plan) == 1024 * 6 == 6144


def test_plan_blocks_share_one_point_set():
    # A and B are distinct coordinate blocks of one QMC point set, so the
    # matrices must differ yet each first row maps the u = 0.5 center point
    m = build("Linear4")
    plan = _plan(m, EstimatorKind.SK, 64)
    mu = [1.0, 3.0, 5.0, 7.0]
    assert np.allclose(plan.x_a[0], mu, atol=1e-12)
    assert not np.array_equal(plan.f_a, plan.f_b)


def test_eval_count_table_matches_plans_and_cost():
    # one table sizes the plans, the cost and the draw width; the oracle
    # reads the model's exact mean, never an extra block
    n = 128
    model = build("Ishigami")
    for kind in ALL_KINDS:
        assert _populated(_plan(model, kind, n)) == cost(kind, 3, n)[0]
    assert cost(EstimatorKind.ORACLE, 3, n)[0] == n * 5
    widths = [3 * len(evaluation_set(model, (k,), n, QMC).x) for k in ALL_KINDS]
    assert widths == [6, 6, 9, 6, 3]


def test_cell_plan_holds_what_its_kinds_read():
    # one plan per cell: a block none of its kinds reads is None, a bin
    # count comes with dlr alone and f0 with the oracle alone
    m = build("Ishigami")
    evaluations = evaluation_set(m, ALL_KINDS, 64, QMC)
    plan = build_plan((EstimatorKind.DLR, EstimatorKind.SOBOL), evaluations, 8)
    assert plan.kinds == (EstimatorKind.DLR, EstimatorKind.SOBOL)
    assert plan.f_b is None and plan.f_ca is None and plan.f_c is None
    assert plan.f_ab.shape == (3, 64) and plan.f0 is None
    assert bin_schedule(64, plan.bin_count) == BinSchedule(n=64, m=8, n_m=8)
    plan = build_plan((EstimatorKind.ORACLE, EstimatorKind.SK), evaluations, 8)
    assert plan.f_ca is None and plan.bin_count is None and plan.f0 == m.analytic_f0
    assert _populated(plan) == 64 * 5
    plan = build_plan(ALL_KINDS, evaluations)
    assert _populated(plan) == 64 * 8 and plan.f_c is None
    estimates = estimate_main_index(plan)
    assert list(estimates) == list(ALL_KINDS)
    # one shape: each kind's (c, d) block per cell length, here one cell
    assert all(s.keys() == {64} for s in estimates.values())
    assert all(s[64].shape == (1, 3) for s in estimates.values())


def _bits(s):
    return s.view(np.uint64)


@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
@pytest.mark.parametrize("name", TEST_CASE_NAMES)
def test_shared_plans_equal_standalone_plans(name, sampler):
    # every estimator reduces the same bits from the cell's one plan, shared
    # with the others, as from a plan of its own on a draw of its own
    model = build(name)
    kinds = _valid_kinds(model)
    n = 64
    shared = build_plan(kinds, evaluation_set(model, kinds, n, sampler))
    cell = _reduce(shared)
    assert list(cell) == kinds
    for kind in kinds:
        alone = build_plan((kind,), evaluation_set(model, (kind,), n, sampler))
        for attr in PLAN_ARRAYS:  # the blocks the kind reads
            a = getattr(alone, attr)
            assert a is None or np.array_equal(getattr(shared, attr), a), (kind, attr)
        for attr in ("bin_count", "f0"):
            assert getattr(alone, attr) in (None, getattr(shared, attr)), (kind, attr)
        (s,) = _reduce(alone).values()
        assert np.array_equal(_bits(cell[kind]), _bits(s)), kind


@pytest.mark.parametrize("n", [4, 16, 64, 256])
@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
@pytest.mark.parametrize("name", ["Ishigami", "GFunc10B"])
def test_cell_reduction_equals_public_formulas(name, sampler, n):
    # a cell's S_i are its D_i_hat from the one-input formulas over its
    # D_hat, pooled over fA and fB for the kinds that read B, bit for bit;
    # at n <= 64 the pooled sums are not the sums of fA's and fB's
    model = build(name)
    bins = None if n & (n - 1) == 0 else 6
    plan = build_plan(ALL_KINDS, evaluation_set(model, ALL_KINDS, n, sampler), bins)
    cell = _reduce(plan)
    a, b, ab, ca = plan.f_a, plan.f_b, plan.f_ab, plan.f_ca
    _, d_pooled = estimate_mean_and_variance(a, b)
    _, d_a = estimate_mean_and_variance(a)
    want = {
        EstimatorKind.SOBOL: [estimate_sobol_original(a, x) / d_a for x in ab],
        EstimatorKind.SK: [estimate_sk(a, b, x) / d_pooled for x in ab],
        EstimatorKind.OWEN: [
            estimate_owen(a, b, x, y) / d_pooled for x, y in zip(ab, ca)
        ],
        EstimatorKind.ORACLE: [
            estimate_oracle(a, b, x, model.analytic_f0) / d_pooled for x in ab
        ],
        EstimatorKind.DLR: [
            estimate_dlr(x, a, bin_schedule(n, plan.bin_count)) / d_a
            for x in plan.x_a.T
        ],
    }
    for kind in ALL_KINDS:
        assert np.array_equal(_bits(cell[kind]), _bits(np.array(want[kind]))), kind


@pytest.mark.parametrize("name,n", [("GFunc10B", 66), ("Ishigami", 300)])
def test_cell_reduction_equals_public_formulas_off_multiples_of_8(name, n):
    # numpy splits 2n > 128 pooled values at n - n % 8, in halves only when
    # 8 divides n, so these cells' pooled sums are one joined row's too
    test_cell_reduction_equals_public_formulas(name, MC, n)


@functools.lru_cache(maxsize=None)
def _all_kinds_cell(name, sampler):
    """The model, evaluation set and all-kinds S_i of a cell at N = 64."""
    model = build(name)
    evaluations = evaluation_set(model, _valid_kinds(model), 64, sampler)
    cell = _reduce(build_plan(_valid_kinds(model), evaluations))
    return model, evaluations, cell


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(TEST_CASE_NAMES),
    sampler=st.sampled_from([QMC, MC]),
    data=st.data(),
)
def test_any_kind_subset_reduces_to_the_all_kinds_bits(name, sampler, data):
    # a kind's S_i do not depend on which other kinds share its cell: each
    # divides by its own D_hat (pooled or of fA alone) whatever the plan holds
    model, evaluations, cell = _all_kinds_cell(name, sampler)
    order = data.draw(st.permutations(_valid_kinds(model)))
    subset = order[: data.draw(st.integers(1, len(order)))]
    own = estimate_cell(model, subset, 64, sampler)
    shared = _reduce(build_plan(subset, evaluations))
    assert list(own) == list(shared) == subset
    for kind in subset:
        assert np.array_equal(_bits(own[kind]), _bits(cell[kind])), kind
        assert np.array_equal(_bits(shared[kind]), _bits(cell[kind])), kind


@functools.lru_cache(maxsize=None)
def _set_plan(name, sampler, n):
    """The plan of every kind the model accepts on one set of n rows."""
    model = build(name)
    kinds = _valid_kinds(model)
    return build_plan(kinds, evaluation_set(model, kinds, n, sampler))


def _draw_set_cells(data):
    """A plan of some model and sampler, and leading {N: count} blocks of its set."""
    name = data.draw(st.sampled_from(TEST_CASE_NAMES))
    sampler = data.draw(st.sampled_from([QMC, MC]))
    n_set = data.draw(st.sampled_from([64, 1024]))
    lengths = st.sampled_from([n for n in (16, 64, 256, 1024) if n <= n_set])
    blocks = {
        n: data.draw(st.integers(1, n_set // n))
        for n in sorted(data.draw(st.sets(lengths, min_size=1)), reverse=True)
    }
    return _set_plan(name, sampler, n_set), blocks


@settings(max_examples=60, deadline=None)
@given(data=st.data(), j=st.sampled_from([-20, -3, 1, 5, 20]))
def test_set_reduction_is_invariant_to_power_of_two_scaling(data, j):
    # scaling every output block and f0 by 2^j scales every sum, product,
    # difference and block mean the reduction forms exactly, so D_i_hat and
    # D_hat both gain 4^j; the one inexact step is f0_hat's square (libm
    # pow, kept for the records' bits), which misses the exact 4^j about
    # once in 1700 calls and moved S_i by at most 7.5e-15 (58 ulp) relative
    # across 597,780 cells of 7 models
    plan, blocks = _draw_set_cells(data)
    c = 2.0**j

    def scale(f):
        return None if f is None else f * c

    scaled = dataclasses.replace(
        plan, f_a=scale(plan.f_a), f_b=scale(plan.f_b), f_ab=scale(plan.f_ab),
        f_ca=scale(plan.f_ca), f0=scale(plan.f0),
    )
    want = estimate_main_index(plan, blocks)
    got = estimate_main_index(scaled, blocks)
    for kind in plan.kinds:
        assert got[kind].keys() == want[kind].keys() == blocks.keys()
        for n in blocks:
            np.testing.assert_allclose(got[kind][n], want[kind][n], rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_set_reduction_permutes_with_its_inputs(data):
    # permuting the inputs (x_a's columns, the rows of f_ab and f_ca)
    # permutes every kind's S_i in every cell, bit for bit: each input's
    # estimate reads its own column and output rows, and D_hat reads none
    plan, blocks = _draw_set_cells(data)
    perm = data.draw(st.permutations(range(plan.x_a.shape[1])))
    permuted = dataclasses.replace(
        plan,
        x_a=plan.x_a[:, perm],
        f_ab=None if plan.f_ab is None else plan.f_ab[perm],
        f_ca=None if plan.f_ca is None else plan.f_ca[perm],
    )
    want = estimate_main_index(plan, blocks)
    got = estimate_main_index(permuted, blocks)
    for kind in plan.kinds:
        for n in blocks:
            assert np.array_equal(_bits(got[kind][n]), _bits(want[kind][n][:, perm]))


@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
@pytest.mark.parametrize("name", INDEPENDENT_CASES)
def test_column_swap_equals_fresh_mixed_matrices(name, sampler):
    # AB_i/CA_i outputs come from the set's own base matrix, a column block
    # of its column-major draw, whose column i is swapped in and restored
    # (or, for a model with factors, from a sweep over its column factors);
    # each must equal the output on a mixed matrix built from a fresh
    # row-major copy (test_set_matrices_equal_fresh_transform_of_own_draw
    # checks that every swapped column was restored)
    model = build(name)
    evaluations = evaluation_set(model, (EstimatorKind.OWEN,), 64, sampler)
    base = {m: evaluations.x[m].copy() for m in "abc"}
    for block in ("ab", "ca"):
        donor, into = base[block[0]], base[block[1]]
        want = []
        for i in range(model.d):
            mixed = np.array(into, order="C")
            mixed[:, i] = donor[:, i]
            want.append(model.f(mixed))
        assert np.array_equal(evaluations.f[block], np.array(want))
    for m in "abc":
        assert np.array_equal(evaluations.x[m], base[m])


def _assert_sweep_equals_swap_loop(model, n, sampler):
    """A set of a model with factors has the bits, matrices and outputs, of
    the same model's set without them, whose AB_i/CA_i blocks come from the
    column-swap loop calling f."""
    swept = evaluation_set(model, ALL_KINDS, n, sampler)
    swapped = evaluation_set(
        dataclasses.replace(model, factors=None), ALL_KINDS, n, sampler
    )
    for m in "abc":
        assert np.array_equal(swept.x[m].view(np.uint64), swapped.x[m].view(np.uint64))
    assert swept.f.keys() == swapped.f.keys()
    for block, outputs in swept.f.items():
        assert np.array_equal(
            outputs.view(np.uint64), swapped.f[block].view(np.uint64)
        ), block


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
@pytest.mark.parametrize("name", ["GFunc10A", "GFunc10B"])
def test_factor_sweep_equals_column_swap_bit_for_bit(name, sampler, n):
    _assert_sweep_equals_swap_loop(build(name), n, sampler)


# Factor values of the synthetic product model: zeros of both signs, both
# infinities, NaN and a few ordinary numbers, so that products meet
# 0 * inf, inf * -inf, -0 * x and NaN operands.
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -1.5, 3.0, 0.7])


def _special_factor(t):
    def g(column):
        # a fancy index returns a new array and leaves the column as it was
        return _SPECIAL[(column * (8 * (t + 1))).astype(np.int64) % 8]

    return g


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
def test_factor_sweep_keeps_special_value_bits(sampler, n):
    factors = tuple(_special_factor(t) for t in range(5))

    def f(x):
        out = factors[0](x[:, 0])
        for t in range(1, len(factors)):
            out *= factors[t](x[:, t])
        return out

    model = InputModel(
        name="SpecialProduct",
        d=5,
        f=f,
        marginals=(Uniform(0.0, 1.0),) * 5,
        factors=factors,
    )
    ab = evaluation_set(model, ALL_KINDS[:3], n, sampler).f["ab"]
    for special in (np.isnan(ab), np.isinf(ab), np.signbit(ab) & (ab == 0.0)):
        assert special.any()
    _assert_sweep_equals_swap_loop(model, n, sampler)


@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
@pytest.mark.parametrize("name", TEST_CASE_NAMES)
def test_set_matrices_equal_fresh_transform_of_own_draw(name, sampler):
    # a cell's set holds A, B[, C] as column blocks of one draw: under
    # either sampler, matrix j is the transform of columns j*d..(j+1)*d of
    # the run's n-point draw.  The column swaps of the AB_i/CA_i outputs
    # ran in these matrices, so this also fails if one column was not
    # restored.  A set has no matrices beyond its width.
    model = build(name)
    kinds = (EstimatorKind.DLR,) if model.has_dependent_inputs else ALL_KINDS
    n, d = 64, model.d
    evaluations = evaluation_set(model, kinds, n, sampler)
    width = len(evaluations.x)
    assert width == (1 if model.has_dependent_inputs else 3)
    assert sorted(evaluations.x) == list("abc"[:width])
    u = generate_uniform(sampler, n, width * d).values
    blocks = [u[:, j * d : (j + 1) * d] for j in range(width)]
    for matrix, block in zip("abc", blocks):
        unit = UnitPointSet(n=n, dims=d, values=block)
        if model.covariance is not None:
            want = transform_correlated_normal(unit, model.covariance)
        else:
            want = transform_independent(unit, model.marginals)
        assert np.array_equal(evaluations.x[matrix], want), matrix


def test_set_of_direct_kind_on_dependent_model_fails_before_model_call():
    # direct formulas need a 2d-wide draw, which the Cholesky transform of a
    # d-dim covariance refuses before any output is evaluated
    model = build("DepQuad4")
    calls = []

    def f(x):
        calls.append(len(x))
        return model.f(x)

    counted = dataclasses.replace(model, f=f)
    for kind in DIRECT_KINDS:
        with pytest.raises(ValueError, match="covariance"):
            evaluation_set(counted, (kind,), 64, QMC)
    assert calls == []


def _held_bytes(evaluations):
    """Bytes of the distinct buffers a set's matrices and outputs live in."""
    roots = {}
    for a in (*evaluations.x.values(), *evaluations.f.values()):
        while a.base is not None:
            a = a.base
        roots[id(a)] = a
    return sum(a.nbytes for a in roots.values())


@pytest.mark.parametrize(
    "name,sampler",
    [("GFunc10A", QMC), ("ParkAhn7", MC)],
    ids=["GFunc10A-QMC", "ParkAhn7-MC"],
)
def test_evaluation_set_peak_memory_is_near_what_it_holds(name, sampler):
    # a set is drawn, transformed and column-swapped in one buffer, so
    # building it allocates little beyond the arrays it keeps: no block-order
    # copy, no separate transform output, no scratch base matrix and no
    # (n, d) temporary in a model call.  numpy reports its allocations to
    # tracemalloc, so the peak does not depend on the C allocator.
    model = build(name)
    n = 1 << 12
    evaluation_set(model, ALL_KINDS, n, sampler)  # imports and table caches
    tracemalloc.start()
    try:
        evaluations = evaluation_set(model, ALL_KINDS, n, sampler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * _held_bytes(evaluations)


@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
@pytest.mark.parametrize("name", TEST_CASE_NAMES)
def test_narrower_set_is_leading_matrices_of_widest(name, sampler):
    # a narrower draw of a run is a prefix of a wider one, so the one set a
    # cell draws at its widest width holds the matrices every estimator
    # would draw alone
    model = build(name)
    n, d = 64, model.d
    by_width = (EstimatorKind.DLR, EstimatorKind.SK, EstimatorKind.OWEN)  # d, 2d, 3d
    if model.has_dependent_inputs:
        by_width = by_width[:1]
    widest = evaluation_set(model, by_width, n, sampler)
    for kind in by_width:
        narrow = evaluation_set(model, (kind,), n, sampler)
        for matrix in narrow.x:
            assert np.array_equal(narrow.x[matrix], widest.x[matrix]), (kind, matrix)


@pytest.mark.parametrize("name", TEST_CASE_NAMES)
def test_qmc_row_slice_is_shorter_run(name):
    # QMC run 3 of 64 points is the Sobol' block [193, 257), rows 64..127 of
    # run 1 of 128 points: that row slice of the longer run's set has the
    # same matrices and outputs, bit for bit, as views of the longer set's
    base = build(name)
    calls = []

    def f(x):
        calls.append(len(x))
        return base.f(x)

    model = dataclasses.replace(base, f=f)
    kinds = (EstimatorKind.DLR,) if model.has_dependent_inputs else ALL_KINDS
    blocks = ["a"] if model.has_dependent_inputs else ["a", "ab", "b", "ca"]
    alone = evaluation_set(model, kinds, 64, SamplerSpec(kind="QMC", run_index=3))
    longer = evaluation_set(model, kinds, 128, SamplerSpec(kind="QMC", run_index=1))
    evaluated = len(calls)
    rows = slice(64, 128)
    part_x = {m: x[rows] for m, x in longer.x.items()}
    part_f = {b: f[..., rows] for b, f in longer.f.items()}
    assert len(calls) == evaluated  # the part evaluated nothing itself
    assert calls.count(128) == calls.count(64)
    assert sorted(part_x) == sorted(alone.x)
    for matrix in alone.x:
        assert np.array_equal(part_x[matrix], alone.x[matrix]), matrix
        assert np.shares_memory(part_x[matrix], longer.x[matrix]), matrix
    assert sorted(part_f) == sorted(alone.f) == blocks
    for block in blocks:
        assert np.array_equal(part_f[block], alone.f[block]), block
        assert np.shares_memory(part_f[block], longer.f[block]), block


def test_evaluation_set_rejects_mismatched_use():
    m = build("Ishigami")
    evaluations = evaluation_set(m, (EstimatorKind.SK,), 64, QMC)
    with pytest.raises(ValueError, match="'owen' reads block.s. ca that the"):
        build_plan((EstimatorKind.OWEN,), evaluations)
    # each kind of a cell's plan is checked, not only the first
    with pytest.raises(ValueError, match="'owen' reads block.s. ca that the"):
        build_plan((EstimatorKind.SK, EstimatorKind.OWEN), evaluations)


@pytest.mark.parametrize("p", range(4, 17))
def test_chunk_sum_tree_equals_numpy_sum(p):
    # a cell of m leaves adds its leaves' sums, leaf first, in a pairwise
    # tree, which for 2^p values in leaves of 2^k >= 128 is numpy's own sum,
    # bit for bit: of one cell, and of each of 4 cells side by side, for the
    # values and their squares at once; a cell of one leaf (m = 1) is its sum
    rng = np.random.default_rng(p)
    n = 1 << p
    x = rng.standard_normal(4 * n) * 10.0 ** rng.uniform(-8, 8, 4 * n) + 3.0
    x = np.stack([x, x * x])
    want = np.add.reduce(x.reshape(2, 4, n), -1).T.view(np.uint64)
    for leaf in {n, *(1 << k for k in range(7, min(p, 13) + 1))}:
        leaves = np.add.reduce(x.reshape(2, -1, leaf), -1).T
        got = _tree_sums(leaves, n // leaf, 1).view(np.uint64)
        assert np.array_equal(got, want[:1]), leaf
        got = _tree_sums(leaves, n // leaf, 4).view(np.uint64)
        assert np.array_equal(got, want), leaf


def test_pooled_sums_are_the_sums_of_fa_and_fb_past_64_rows():
    # numpy sums 2n > 128 values as two halves split at n - n % 8, so for
    # power-of-two n >= 128 the joined row of fA and fB sums, values and
    # squares, to sum(fA) + sum(fB) bit for bit; at n = 64 (8 interleaved
    # accumulators) and at n = 100 (split at 96) some row does not, so
    # those cells pool one joined row
    rng = np.random.default_rng(5)
    differs = set()
    for n in [1 << p for p in range(1, 15)] + [100]:
        for _ in range(20):
            f = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-8, 8, (2, n)) + 3.0
            for x in (f, f * f):
                joined = np.add.reduce(x.reshape(-1)).view(np.uint64)
                if joined != (np.add.reduce(x[0]) + np.add.reduce(x[1])).view(np.uint64):
                    differs.add(n)
    assert 64 in differs and 100 in differs
    assert max(differs - {100}) == 64


def test_set_reduction_refuses_blocks_that_do_not_fit():
    # a set's cells are its leading {N: count} blocks; a cell length below 1,
    # a count below 1 or more blocks than the set's rows hold is refused
    model = build("Ishigami")
    plan = build_plan(ALL_KINDS, evaluation_set(model, ALL_KINDS, 64, QMC))
    for blocks in ({0: 1}, {-16: -4}, {16: 0}, {16: 5}, {64: 1, 32: 3}, {128: 1}):
        with pytest.raises(ValueError, match="do not fit a set of 64"):
            estimate_main_index(plan, blocks)
    fits = estimate_main_index(plan, {64: 1, 16: 4})
    assert all(s[16].shape == (4, 3) for s in fits.values())


def _chunk_plans(model, n, rows, bin_count=8):
    """The plans of every kind on an n-point QMC set drawn ``rows`` at a
    time, DLR at ``bin_count`` bins, as a list that can be reduced twice."""
    return [
        build_plan(
            ALL_KINDS, evaluation_set(model, ALL_KINDS, n, QMC, a, a + rows), bin_count
        )
        for a in range(0, n, rows)
    ]


def test_chunked_set_reduction_refuses_cells_it_cannot_sum():
    # a cell must lie within a chunk or span whole chunks of 2^k >= 128
    # rows, which a pairwise tree adds as numpy sums the cell; chunks of one
    # set have one length
    model = build("Ishigami")
    halves = _chunk_plans(model, 128, 64)
    fits = estimate_main_index(halves, {64: 2, 32: 4})
    whole = estimate_main_index(_chunk_plans(model, 128, 128), {64: 2, 32: 4})
    for kind in ALL_KINDS:
        for n in (64, 32):
            assert np.array_equal(_bits(fits[kind][n]), _bits(whole[kind][n]))
    for blocks in ({128: 1}, {48: 2}, {64: 3}):
        with pytest.raises(ValueError, match="do not fit a set of 128"):
            estimate_main_index(halves, blocks)
    uneven = [_chunk_plans(model, 128, 64)[0], _chunk_plans(model, 128, 128)[0]]
    with pytest.raises(ValueError, match="same number of rows"):
        estimate_main_index(uneven, {32: 1})


@pytest.mark.parametrize("sampler", [QMC, MC], ids=["QMC", "MC"])
def test_set_reduction_over_chunks_equals_one_plan(sampler):
    # a 1024-row set of every model in chunks of 128 or 256 rows reduces to
    # the bits of the set as one plan, at every leading cell length
    blocks = {1024: 1, 512: 2, 256: 3, 128: 8, 64: 5, 16: 64, 4: 1}
    for name in TEST_CASE_NAMES:
        model = build(name)
        kinds = _valid_kinds(model)

        def plans(rows):
            return (
                build_plan(kinds, evaluation_set(model, kinds, 1024, sampler, a, a + rows))
                for a in range(0, 1024, rows)
            )

        want = estimate_main_index(plans(1024), blocks)
        for rows in (128, 256):
            got = estimate_main_index(plans(rows), blocks)
            for kind in kinds:
                for n in blocks:
                    assert np.array_equal(_bits(got[kind][n]), _bits(want[kind][n])), (
                        name, rows, kind, n,
                    )


def test_dependent_model_rejects_direct_formulas():
    m = build("DepQuad4")
    for kind in DIRECT_KINDS:
        with pytest.raises(IncompatibleModelError, match="independent inputs"):
            estimate_cell(m, (kind,), 64, QMC)
    assert _estimate(m, EstimatorKind.DLR, 64).shape == (4,)
    assert _populated(_plan(m, EstimatorKind.DLR, 64)) == 64


# ---------------------------------------------------------------------------
# bin schedule


def test_default_bin_schedule_squares():
    assert default_bin_schedule(1 << 14) == BinSchedule(n=1 << 14, m=128, n_m=128)
    # odd exponent: M takes the larger half
    assert default_bin_schedule(1 << 9) == BinSchedule(n=512, m=32, n_m=16)
    assert default_bin_schedule(4) == BinSchedule(n=4, m=2, n_m=2)


def test_default_bin_schedule_rejects_bad_n():
    for bad in (2, 3, 96):
        with pytest.raises(ValueError):
            default_bin_schedule(bad)


def test_bin_schedule_validation():
    with pytest.raises(ValueError):
        BinSchedule(n=16, m=3, n_m=5)
    with pytest.raises(ValueError):
        BinSchedule(n=16, m=1, n_m=16)
    assert BinSchedule(n=16, m=8, n_m=2).n_m == 2


def test_dlr_bin_override():
    m = build("Linear4")
    dlr = (EstimatorKind.DLR,)
    cell = estimate_cell(m, dlr, 1 << 10, QMC, bin_count=64)
    plan = _plan(m, EstimatorKind.DLR, 1 << 10, bin_count=64)
    assert bin_schedule(1024, plan.bin_count) == BinSchedule(n=1024, m=64, n_m=16)
    reduced = _reduce(plan)
    assert list(reduced) == list(dlr)
    assert np.array_equal(cell[EstimatorKind.DLR], reduced[EstimatorKind.DLR])
    with pytest.raises(ValueError, match="divide"):
        estimate_cell(m, dlr, 1 << 10, QMC, bin_count=100)
    with pytest.raises(ValueError, match="bin count 0 must be at least 2"):
        estimate_cell(m, dlr, 1 << 10, QMC, bin_count=0)
    # a bin count without dlr is refused, not ignored
    sk = (EstimatorKind.SK,)
    with pytest.raises(ValueError, match="applies only to the dlr estimator"):
        estimate_cell(build("Ishigami"), sk, 64, QMC, bin_count=7)


def test_dlr_bins_are_exhaustive_partition():
    # every sample lands in exactly one bin: reconstruct D_i from raw sums
    rng = np.random.default_rng(8)
    x = rng.random(256)
    f = rng.standard_normal(256)
    bins = default_bin_schedule(256)
    order = np.argsort(x, kind="stable")
    groups = f[order].reshape(bins.m, bins.n_m)
    assert groups.size == 256
    assert np.allclose(np.sort(groups.ravel()), np.sort(f))
    want = float((groups.mean(axis=1) ** 2).mean() - f.mean() ** 2)
    # distinct keys: the fast sort's order is the stable one, bit for bit
    assert np.unique(x).size == x.size
    assert estimate_dlr(x, f, bins) == want


def test_dlr_tie_breaking_is_deterministic():
    x = np.zeros(8)  # all ties: order must fall back to sample index
    f = np.arange(8.0)
    bins = BinSchedule(n=8, m=2, n_m=4)
    want = float(((np.array([1.5, 5.5])) ** 2).mean() - f.mean() ** 2)
    assert estimate_dlr(x, f, bins) == pytest.approx(want, rel=1e-14)


def _dlr_stable_reference(x, f, bins):
    order = np.argsort(x, kind="stable")
    bin_means = f[order].reshape(bins.m, bins.n_m).mean(axis=1)
    return float((bin_means**2).mean() - f.mean() ** 2)


@pytest.mark.parametrize("tied", [8.0, np.nan])
def test_dlr_ties_across_bin_boundaries_keep_sample_order(tied):
    # 28 equal keys straddle bin boundaries (sorted positions 8..35 for 8.0,
    # the last 28 for NaN, which sorts last); the tie order decides which
    # outputs fall in which bin
    rng = np.random.default_rng(5)
    x = rng.permutation(256).astype(float)
    x[(x >= 8) & (x < 36)] = tied
    f = rng.standard_normal(256)
    bins = BinSchedule(n=256, m=16, n_m=16)
    got = estimate_dlr(x, f, bins)
    assert got == _dlr_stable_reference(x, f, bins)
    reversed_ties = np.lexsort((-np.arange(256), x))
    other = f[reversed_ties].reshape(bins.m, bins.n_m).mean(axis=1)
    assert got != float((other**2).mean() - f.mean() ** 2)


def test_dlr_ties_from_wide_offset_uniform():
    # Uniform(2^52, 2^52 + 16) rounds 1024 distinct Sobol' coordinates onto
    # 17 floats
    u = generate_uniform(QMC, 1 << 10, 2).values
    x = Uniform(2.0**52, 2.0**52 + 16.0).from_unit(u[:, 0])
    assert np.unique(x).size == 17
    f = u[:, 1]
    bins = default_bin_schedule(1 << 10)
    assert estimate_dlr(x, f, bins) == _dlr_stable_reference(x, f, bins)


def _nan(sign, payload):
    bits = sign << 63 | 0x7FF << 52 | payload
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


_SPECIAL_FLOATS = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.0**-1022]),
    st.builds(_nan, st.integers(0, 1), st.integers(1, (1 << 52) - 1)),
)


@st.composite
def _sort_inputs(draw):
    """float64 arrays of 1..5000 values: distinct values at several scales
    (subnormal, or apart only in their lowest bits), with a share of them
    replaced from a few special values (NaN of either sign and any payload,
    ±0, ±inf, subnormals), which gives heavy ties."""
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(["normal", "subnormal", "last_bits"]))
    if scale == "last_bits":
        x = 1.0 + rng.integers(0, 1 << 14, n) * 2.0**-52
    else:
        x = rng.standard_normal(n) * (1e-310 if scale == "subnormal" else 1.0)
    pool = np.array(draw(st.lists(_SPECIAL_FLOATS, min_size=1, max_size=8)))
    share = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    tied = rng.random(n) < share
    x[tied] = rng.choice(pool, tied.sum())
    return x


@settings(max_examples=200, deadline=None)
@given(_sort_inputs())
def test_packed_key_sort_equals_stable_argsort(x):
    assert np.array_equal(_argsort_ties_by_index(x), np.argsort(x, kind="stable"))


_LAST_BITS = 1.0 + np.arange(8) * 2.0**-52  # 8 values apart in the 3 index bits


@pytest.mark.parametrize(
    "x",
    [
        _LAST_BITS,
        _LAST_BITS[::-1],
        -_LAST_BITS,
        -_LAST_BITS[::-1],
        [0.0, -0.0, 1.0, 0.0, -0.0],
        [-0.0, 0.0, -1.0, -0.0, 0.0],
        [-0.0, 2.0],
        [np.inf, 1.0, -np.inf, 2.0],
        [1.0, 2.0, np.inf],
        [-np.inf, -2.0, -1.0],
        [np.nan, -np.nan, 1.0, np.nan, -1.0],
        [-np.nan, 3.0, 2.0],
        # NaN whose payload lies in the index bits: its key reads as ±inf
        [_nan(1, 1), 1.0],
        [1.0, 2.0, _nan(0, 1)],
        [5e-324, -5e-324, 1e-310, -1e-310, 2.0**-1022, 0.0],
        [3.5] * 9,
        [7.0],
    ],
    ids=[
        "last-bits-up", "last-bits-down", "negative-last-bits-up",
        "negative-last-bits-down", "zeros-plus-first", "zeros-minus-first",
        "one-minus-zero", "both-infs", "plus-inf-last", "minus-inf-first",
        "nans-both-signs", "minus-nan", "minus-nan-low-payload",
        "nan-low-payload", "subnormals", "all-equal", "one-value",
    ],
)
def test_packed_key_order_on_edge_values(x):
    x = np.array(x, dtype=float)
    assert np.array_equal(_argsort_ties_by_index(x), np.argsort(x, kind="stable"))


@st.composite
def _dlr_blocks(draw):
    """(c, n) blocks of x, c = 1..10 and n = 2^2..2^12, whose rows are each
    distinct values (the packed keys' order stands) or take a share of
    their values from ties, -0.0 beside +0.0, ±inf and NaN (which fall
    back to the per-row checks), and (c, n) standard normal outputs."""
    c, n = draw(st.integers(1, 10)), 1 << draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((c, n))
    specials = np.array([0.0, -0.0, 0.5, np.inf, -np.inf, np.nan, -np.nan])
    for row in x:
        share = draw(st.sampled_from([0.0, 0.0, 0.05, 0.5, 1.0]))
        tied = rng.random(n) < share
        row[tied] = rng.choice(specials, tied.sum())
    return x, rng.standard_normal((c, n))


@settings(max_examples=100, deadline=None)
@given(_dlr_blocks())
def test_block_dlr_equals_estimate_dlr_on_each_row(block):
    # one sort of a (c, n) block, one flat gather and one bin reduction
    # give each row the bits of that row's estimate alone
    x, f = block
    bins = default_bin_schedule(x.shape[1])
    f0_sq = np.array([_mean(row) ** 2 for row in f])
    got = _dlr(x, f, bins, f0_sq)
    want = np.array([estimate_dlr(xr, fr, bins) for xr, fr in zip(x, f)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_dlr_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        estimate_dlr(np.zeros(8), np.zeros(16), BinSchedule(n=16, m=4, n_m=4))


# ---------------------------------------------------------------------------
# per-estimator spec examples on real models


def test_sk_ishigami_vanishing_input():
    m = build("Ishigami")
    s3 = _estimate(m, EstimatorKind.SK, 1 << 14)[2]
    assert abs(s3) < 0.005


def test_sk_linear4_small_index():
    m = build("Linear4")
    s1 = _estimate(m, EstimatorKind.SK, 1 << 14)[0]
    assert s1 == pytest.approx(0.07407, abs=0.005)


def test_sobol_linear4_large_index():
    m = build("Linear4")
    s4 = _estimate(m, EstimatorKind.SOBOL, 1 << 14)[3]
    assert s4 == pytest.approx(0.46296, abs=0.01)


def test_oracle_gfunc10a_uses_analytic_mean():
    m = build("GFunc10A")
    assert m.analytic_f0 == 1.0
    plan = _plan(m, EstimatorKind.ORACLE, 1 << 14)
    assert plan.f0 == m.analytic_f0 and plan.f_c is None
    (s,) = _reduce(plan).values()
    assert s[0] == pytest.approx(0.3040, abs=0.01)


def test_dlr_ishigami_vanishing_input():
    m = build("Ishigami")
    s3 = _estimate(m, EstimatorKind.DLR, 1 << 14)[2]
    assert abs(s3) < 0.01


def test_dlr_single_input_model():
    one = InputModel(
        name="identity1",
        d=1,
        f=lambda x: x[:, 0],
        marginals=(Uniform(0.0, 1.0),),
        analytic_main=np.array([1.0]),
        analytic_f0=0.5,
        analytic_D=1.0 / 12.0,
    )
    s1 = _estimate(one, EstimatorKind.DLR, 1 << 16)[0]
    assert s1 == pytest.approx(1.0, abs=0.01)


def test_negative_estimate_not_clamped():
    m = build("Ishigami")
    # run 2 is the first run of seed 12345 whose S_3 estimate at N = 64 is
    # negative (run 0 gives 0.139, run 1 gives 0.021)
    mc = SamplerSpec(kind="MC", seed=12345, run_index=2)
    s = list(_estimate(m, EstimatorKind.SOBOL, 64, mc))
    assert s == pytest.approx([0.1069, 0.2895, -0.1572], abs=5e-4)
    assert s[2] < 0.0


def test_estimates_carry_metadata():
    m = build("Linear4")
    cell = estimate_cell(m, (EstimatorKind.OWEN,), 256, QMC)
    assert list(cell) == [EstimatorKind.OWEN] and cell[EstimatorKind.OWEN].shape == (4,)
    # S_i is input i's D_i over the one pooled D, in input order
    plan = _plan(m, EstimatorKind.OWEN, 256)
    _, d_hat = estimate_mean_and_variance(plan.f_a, plan.f_b)
    d_i = [
        estimate_owen(plan.f_a, plan.f_b, f_ab_i, f_ca_i)
        for f_ab_i, f_ca_i in zip(plan.f_ab, plan.f_ca)
    ]
    assert d_hat > 0 and list(cell[EstimatorKind.OWEN]) == [x / d_hat for x in d_i]


def test_smoke_minimum_sample_counts():
    # direct kinds at N=2, DLR at its N=4 floor: finite values, no crash
    for name in ("Linear4", "Ishigami", "GFunc10B"):
        m = build(name)
        for kind in DIRECT_KINDS:
            assert np.all(np.isfinite(_estimate(m, kind, 2)))
        assert np.all(np.isfinite(_estimate(m, EstimatorKind.DLR, 4)))


def test_all_estimators_agree_at_large_n():
    m = build("Linear4")
    results = estimate_cell(m, ALL_KINDS, 1 << 16, QMC)
    kinds = list(results)
    for a in range(len(kinds)):
        for b in range(a + 1, len(kinds)):
            assert np.max(np.abs(results[kinds[a]] - results[kinds[b]])) < 0.01
