"""Bundled test models: reference values, evaluation, registry behavior."""

import numpy as np
import pytest

from sobolbench.models import (
    InputModel,
    TEST_CASE_NAMES,
    TestCaseId as CaseId,
    build,
    trilinear_exact_moments,
)
from sobolbench.sampling import (
    Lognormal,
    Normal,
    SamplerSpec,
    Uniform,
    generate_uniform,
    transform_correlated_normal,
    transform_independent,
)


def _at(m, point):
    """The model's output at one point, from a one-row batch."""
    return float(m.f(np.array([point], dtype=float))[0])


def test_registry_builds_every_case():
    assert set(TEST_CASE_NAMES) == {t.value for t in CaseId}
    for name in TEST_CASE_NAMES:
        model = build(name)
        assert model.name == name
        assert model.d >= 1
        assert build(CaseId(name)).d == model.d


def test_unknown_test_rejected():
    with pytest.raises(ValueError, match="Linear4"):
        build("NoSuchModel")


# ---------------------------------------------------------------------------
# additive Gaussian model


def test_linear4_reference_values():
    m = build("Linear4")
    assert m.d == 4
    sigma2 = np.array([1.0, 1.5, 2.0, 2.5]) ** 2
    assert m.analytic_D == sigma2.sum() == 13.5
    assert np.allclose(m.analytic_main, sigma2 / 13.5, atol=1e-15)
    # additive model: main effects are exhaustive
    assert abs(m.analytic_main.sum() - 1.0) < 1e-15
    assert m.analytic_f0 == 16.0
    assert _at(m, [1.0, 3.0, 5.0, 7.0]) == 16.0
    assert all(isinstance(mm, Normal) for mm in m.marginals)


# ---------------------------------------------------------------------------
# trilinear lognormal model


def test_parkahn7_quoted_values_match_exact_moments():
    m = build("ParkAhn7")
    assert m.d == 7
    # recompute the exact index values from the product-moment helper and
    # check the stored three-digit values round-trip within quoting error
    e1 = np.array([mm.moments()[0] for mm in m.marginals])
    e2 = np.array([mm.moments()[1] for mm in m.marginals])
    terms = (
        (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (2, 3, 4),
        (2, 3, 5), (2, 4, 5), (2, 5, 6), (2, 4, 7), (2, 6, 7),
    )
    f0, var, partial = trilinear_exact_moments(terms, e1, e2)
    assert abs(f0 - m.analytic_f0) < 1e-18
    assert abs(var - m.analytic_D) < 1e-22
    exact_s = partial / var
    assert np.max(np.abs(exact_s - m.analytic_main)) < 2e-3
    assert np.max(np.abs(exact_s - m.analytic_main)) == pytest.approx(
        abs(0.330 - exact_s[1]), abs=1e-6
    )


def test_parkahn7_frozen_moments():
    m = build("ParkAhn7")
    assert m.analytic_f0 == pytest.approx(0.0002858418454179663, rel=1e-14)
    assert m.analytic_D == pytest.approx(2.742247598773737e-08, rel=1e-12)


def test_parkahn7_interpretation_variants():
    # The published pairs (p1, 0.4214) can be read three ways; only the
    # model's (median, sd of ln x) reading gives exact S_i within 2e-3 of
    # the quoted ones.  Measured misfits: 1.3e-3 for it, 0.14 for (mean, sd)
    # of ln x and 0.33 for (mean, sd) of x.
    m = build("ParkAhn7")
    p1 = np.array([marg.median for marg in m.marginals])
    p2 = 0.4214
    readings = {
        "median": np.array([marg.moments() for marg in m.marginals]).T,
        "mean and sd of ln x": (
            np.exp(p1 + 0.5 * p2**2), np.exp(2.0 * p1 + 2.0 * p2**2)
        ),
        "mean and sd of x": (p1, p1**2 + p2**2),
    }
    terms = (
        (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (2, 3, 4),
        (2, 3, 5), (2, 4, 5), (2, 5, 6), (2, 4, 7), (2, 6, 7),
    )
    misfit = {}
    for reading, (e1, e2) in readings.items():
        _, var, partial = trilinear_exact_moments(terms, e1, e2)
        misfit[reading] = np.max(np.abs(partial / var - m.analytic_main))
    assert [r for r, err in misfit.items() if err < 2e-3] == ["median"]
    assert misfit["mean and sd of ln x"] > 0.1
    assert misfit["mean and sd of x"] > 0.3


def test_parkahn7_median_marginals():
    m = build("ParkAhn7")
    median = [2.0, 3.0, 0.001, 0.002, 0.004, 0.005, 0.003]
    for marg, want in zip(m.marginals, median):
        assert isinstance(marg, Lognormal)
        assert marg.median == want
        assert marg.sigma == 0.4214


def test_trilinear_moments_against_direct_sum():
    # independent check on a tiny synthetic term set: f = x1 x2 + x1 x3
    e1 = np.array([1.5, 2.0, 3.0])
    e2 = np.array([3.0, 5.0, 10.0])
    f0, var, partial = trilinear_exact_moments(((1, 2), (1, 3)), e1, e2)
    assert f0 == pytest.approx(e1[0] * e1[1] + e1[0] * e1[2], rel=1e-15)
    # E f^2 = E x1^2 (E x2^2 + 2 E x2 E x3 + E x3^2)
    ef2 = e2[0] * (e2[1] + 2.0 * e1[1] * e1[2] + e2[2])
    assert var == pytest.approx(ef2 - f0**2, rel=1e-14)
    # D_1: g_1(x1) = x1 (E x2 + E x3), so D_1 = Var(x1) (E x2 + E x3)^2
    d1 = (e2[0] - e1[0] ** 2) * (e1[1] + e1[2]) ** 2
    assert partial[0] == pytest.approx(d1, rel=1e-14)


# ---------------------------------------------------------------------------
# oscillatory three-input model


def test_ishigami_reference_values():
    m = build("Ishigami")
    a, b = 7.0, 0.1
    var = a**2 / 8 + b * np.pi**4 / 5 + b**2 * np.pi**8 / 18 + 0.5
    d1 = 0.5 * (1 + b * np.pi**4 / 5) ** 2
    assert m.analytic_D == pytest.approx(var, rel=1e-15)
    assert m.analytic_main[0] == pytest.approx(d1 / var, rel=1e-13)
    assert m.analytic_main[1] == pytest.approx(a**2 / 8 / var, rel=1e-13)
    assert m.analytic_main[2] == 0.0
    assert m.analytic_f0 == 3.5
    assert _at(m, [0.0, 0.0, 0.0]) == 0.0
    assert _at(m, [np.pi / 2, np.pi / 2, 0.0]) == pytest.approx(8.0, abs=1e-12)
    assert all(isinstance(mm, Uniform) for mm in m.marginals)


# ---------------------------------------------------------------------------
# g-function pair


def test_gfunc10a_reference_values():
    m = build("GFunc10A")
    assert m.d == 10
    partial = np.array([(1.0 / 3.0) / (1.0 + a) ** 2 for a in (0, 0) + (3,) * 8])
    var = np.prod(1.0 + partial) - 1.0
    assert m.analytic_D == pytest.approx(var, rel=1e-15)
    assert np.allclose(m.analytic_main, partial / var, rtol=1e-14)
    assert m.analytic_main[0] == pytest.approx(0.3040, abs=5e-5)
    assert m.analytic_main[2] == pytest.approx(0.0190, abs=5e-5)
    assert m.analytic_f0 == 1.0


def test_gfunc10b_reference_values():
    m = build("GFunc10B")
    assert m.d == 10
    assert np.all(m.analytic_main == m.analytic_main[0])
    assert m.analytic_main[0] == pytest.approx(0.0199, abs=1e-4)
    assert m.analytic_D == pytest.approx((4.0 / 3.0) ** 10 - 1.0, rel=1e-14)
    # at the distribution center every factor |4u-2|+a = 0 for a = 0
    assert _at(m, [0.5] * 10) == 0.0
    assert _at(m, [0.0] * 10) == pytest.approx(2.0**10, rel=1e-12)


GFUNC_A = {"GFunc10A": (0.0, 0.0) + (3.0,) * 8, "GFunc10B": (0.0,) * 10}


@pytest.mark.parametrize("name", sorted(GFUNC_A))
@pytest.mark.parametrize("kind", ["MC", "QMC"])
def test_gfunc_equals_closed_form_bit_for_bit(name, kind):
    m = build(name)
    a = np.asarray(GFUNC_A[name])
    spec = SamplerSpec(kind=kind, seed=7, run_index=3)
    x = generate_uniform(spec, 1 << 12, m.d).values
    x_before = x.copy()
    want = np.prod((np.abs(4.0 * x - 2.0) + a) / (1.0 + a), axis=1)
    assert np.array_equal(m.f(x), want)
    assert np.array_equal(x, x_before)


def test_gfunc_strong_interactions():
    # equally important inputs with tiny main effects: sum far below 1
    m = build("GFunc10B")
    assert m.analytic_main.sum() < 0.2


# ---------------------------------------------------------------------------
# dependent-input models


def test_depquad4_reference_values():
    m = build("DepQuad4")
    assert m.has_dependent_inputs
    assert m.covariance.mean.tolist() == [0.0, 0.0, 250.0, 400.0]
    assert m.analytic_D == 3033600.0
    assert m.analytic_f0 == 0.0
    assert m.analytic_main[0] == pytest.approx(0.507, abs=5e-4)
    assert m.analytic_main[1] == pytest.approx(0.399, abs=1e-3)
    assert m.analytic_main[2] == 0.0 and m.analytic_main[3] == 0.0


def test_depquad4_variance_from_moments():
    # Var(x1 x3 + x2 x4) for jointly Gaussian inputs with the given blocks
    m = build("DepQuad4")
    cov = m.covariance.matrix
    mu = m.covariance.mean
    s1, s2 = cov[0, 0], cov[1, 1]
    s3, s4 = cov[2, 2], cov[3, 3]
    var = (
        s1 * (s3 + mu[2] ** 2)
        + s2 * (s4 + mu[3] ** 2)
        + 2.0 * cov[0, 1] * (cov[2, 3] + mu[2] * mu[3])
    )
    assert m.analytic_D == pytest.approx(var, rel=1e-15)


def test_deplinear3_reference_values():
    m = build("DepLinear3")
    assert m.has_dependent_inputs
    cov = m.covariance.matrix
    var = cov.sum()  # Var(sum x_i) = sum of all covariances
    assert m.analytic_D == pytest.approx(var, rel=1e-15) == pytest.approx(2.8)
    # for a linear sum of Gaussians, D_i = Cov(x_i, f)^2 / Var(x_i)
    partial = np.array([cov[i].sum() ** 2 / cov[i, i] for i in range(3)])
    assert np.allclose(m.analytic_main, partial / var, rtol=1e-13)
    assert m.analytic_main[0] == pytest.approx(1.0 / 2.8, rel=1e-14)
    assert m.analytic_main[1] == pytest.approx(0.1286, abs=5e-5)
    assert m.analytic_main[2] == pytest.approx(0.5143, abs=5e-5)
    assert m.analytic_f0 == 0.0
    assert _at(m, [1.0, 2.0, 3.0]) == 6.0


# ---------------------------------------------------------------------------
# evaluation interface and validation


def test_batch_matches_pointwise():
    rng = np.random.default_rng(3)
    for name in TEST_CASE_NAMES:
        m = build(name)
        x = rng.standard_normal((16, m.d))
        if name.startswith("GFunc") or name == "Ishigami":
            x = np.abs(x) % 1.0 if name.startswith("GFunc") else x
        if name == "ParkAhn7":
            x = np.abs(x) + 0.1
        batch = m.f(x)
        single = np.array([_at(m, row) for row in x])
        assert np.allclose(batch, single, rtol=1e-14)


def _model_space(m, spec):
    u = generate_uniform(spec, 1 << 10, m.d)
    if m.covariance is not None:
        return transform_correlated_normal(u, m.covariance)
    return transform_independent(u, m.marginals)


@pytest.mark.parametrize("kind", ["MC", "QMC"])
@pytest.mark.parametrize("name", TEST_CASE_NAMES)
def test_model_output_does_not_depend_on_memory_order(name, kind):
    # Sample matrices are column blocks of one column-major draw, and an
    # AB_i/CA_i block swaps columns in the set's own base matrix, so f must
    # give the same bits in any layout and must not write to its input.
    # This is not automatic: x.sum(axis=1) adds each row pairwise once
    # d >= 8 when rows are contiguous, but one column at a time on a
    # column-major array, so such a model with d >= 8 would change bits
    # with the layout (np.prod, and sums over d <= 7, do not).
    m = build(name)
    spec = SamplerSpec(kind=kind, seed=11, run_index=2)
    x = _model_space(m, spec)
    # the first d columns of a row-major 2d-wide matrix: neither C- nor
    # F-contiguous
    wide = np.ascontiguousarray(np.hstack([x, x]))
    # a strided view (every third row), a block of rows of a column-major
    # array, and the view an evaluation set takes of a cell's draw under
    # either sampler: columns d..2d of a column-major (n, 3d) array
    n = len(x)
    chunk_order = np.empty((3 * n, m.d), order="F")
    block_order = np.empty((3 * n, m.d), order="F")
    column_blocks = np.empty((n, 3 * m.d), order="F")
    chunk_order[1::3] = x
    block_order[n : 2 * n] = x
    column_blocks[:, m.d : 2 * m.d] = x
    layouts = [
        np.ascontiguousarray(x),
        np.asfortranarray(x),
        wide[:, : m.d],
        chunk_order[1::3],
        block_order[n : 2 * n],
        column_blocks[:, m.d : 2 * m.d],
    ]
    for view in layouts[2:5]:
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    assert layouts[5].flags.f_contiguous and layouts[5].base is column_blocks
    want = m.f(layouts[0])
    for arr in layouts:
        before = arr.copy()
        assert np.array_equal(m.f(arr), want)
        assert np.array_equal(arr, before)


def test_input_model_validation():
    def f(x):
        return x[:, 0]

    with pytest.raises(ValueError, match="exactly one"):
        InputModel(name="bad", d=1, f=f)
    with pytest.raises(ValueError, match="marginal count"):
        InputModel(name="bad", d=2, f=f, marginals=(Uniform(0, 1),))
    with pytest.raises(ValueError, match="analytic_main"):
        InputModel(
            name="bad", d=1, f=f, marginals=(Uniform(0, 1),), analytic_main=[1.5]
        )


def test_main_effects_within_unit_interval():
    for name in TEST_CASE_NAMES:
        m = build(name)
        assert np.all(m.analytic_main >= 0.0)
        assert np.all(m.analytic_main <= 1.0)
        if not m.has_dependent_inputs:
            # independent inputs: main effects cannot exceed the total variance
            assert m.analytic_main.sum() <= 1.0 + 1e-12
