"""Point-set generation, distribution transforms, and covariance handling."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

import sobolbench
from sobolbench.sampling import (
    CovarianceSpec,
    Lognormal,
    Normal,
    SamplerSpec,
    Uniform,
    UnitPointSet,
    _SOBOL_BLOCK_ROWS,
    _replicate_layout,
    _sobol_raw,
    cholesky_lower,
    generate_uniform,
    mix_seed,
    transform_correlated_normal,
    transform_independent,
)


def qmc(n, dims, run_index=0):
    return generate_uniform(SamplerSpec(kind="QMC", run_index=run_index), n, dims)


def mc(n, dims, seed=0, run_index=0):
    return generate_uniform(SamplerSpec(kind="MC", seed=seed, run_index=run_index), n, dims)


# ---------------------------------------------------------------------------
# low-discrepancy generator


def test_qmc_first_point_is_center():
    pts = qmc(4, 5).values
    assert pts.shape == (4, 5)
    # index 0 of the raw sequence (the all-zeros point) is skipped
    assert np.all(pts[0] == 0.5)


def test_qmc_first_four_1d_values():
    pts = qmc(4, 1).values[:, 0]
    assert pts.tolist() == [0.5, 0.75, 0.25, 0.375]


def test_qmc_deterministic():
    a = qmc(128, 8).values
    b = qmc(128, 8).values
    assert np.array_equal(a, b)


def test_qmc_bounds_and_dtype():
    pts = qmc(1 << 10, 16).values
    assert pts.dtype == np.float64
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    # the zero point never appears after the skip
    assert np.all(pts.max(axis=1) > 0.0)


def test_qmc_runs_are_consecutive_disjoint_blocks():
    joint = qmc(128, 3).values
    run0 = qmc(64, 3, run_index=0).values
    run1 = qmc(64, 3, run_index=1).values
    assert np.array_equal(joint[:64], run0)
    assert np.array_equal(joint[64:], run1)
    seen0 = {tuple(row) for row in run0}
    seen1 = {tuple(row) for row in run1}
    assert not (seen0 & seen1)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["MC", "QMC"]),
    p_top=st.integers(0, 10),
    data=st.data(),
    dims=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_replicate_layout_places_each_run_in_its_top_run(kind, p_top, data, dims, seed):
    # run k of n points is rows [row, row + n) of run `top` of n_top points,
    # where _replicate_layout places it, under either sampler
    n_top = 1 << p_top
    n = 1 << data.draw(st.integers(0, p_top), label="p")
    run = data.draw(st.integers(0, 100), label="run")
    _, top, row = _replicate_layout(kind, run, n, n_top)
    alone = generate_uniform(SamplerSpec(kind, seed, run), n, dims).values
    held = generate_uniform(SamplerSpec(kind, seed, top), n_top, dims).values
    assert np.array_equal(held[row : row + n], alone)


@pytest.mark.filterwarnings("ignore:The balance properties")
def test_qmc_matches_reference_implementation():
    qmc_mod = pytest.importorskip("scipy.stats.qmc")
    for dims in (1, 2, 5, 13, 64):
        eng = qmc_mod.Sobol(d=dims, scramble=False, bits=32)
        ref = eng.random(257)[1:]  # reference emits the zero point first
        mine = qmc(256, dims).values
        assert np.array_equal(mine, ref), f"mismatch at dims={dims}"


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize(
    "dims,n,run_index",
    [(7, 8, 1 << 17)]
    # raw indices past 2^16 (three Gray-code bytes) and past 2^24 (all four)
    + [(dims, 64, (1 << 10) + 3) for dims in (1, 21, 64)]
    + [(dims, 16, (1 << 20) + 5) for dims in (1, 21, 64)],
)
def test_qmc_far_block_matches_reference(dims, n, run_index):
    qmc_mod = pytest.importorskip("scipy.stats.qmc")
    eng = qmc_mod.Sobol(d=dims, scramble=False, bits=32)
    eng.fast_forward(1 + run_index * n)
    mine = qmc(n, dims, run_index=run_index).values
    assert np.array_equal(mine, eng.random(n))


def _sobol_by_bit(directions, start, n):
    """One XOR pass per direction vector: the textbook Gray-code loop."""
    idx = np.arange(start, start + n, dtype=np.uint64)
    gray = idx ^ (idx >> np.uint64(1))
    out = np.zeros((n, directions.shape[1]), dtype=np.uint32)
    for k in range(directions.shape[0]):
        mask = ((gray >> np.uint64(k)) & np.uint64(1)).astype(bool)
        out[mask] ^= directions[k]
    return out


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("dims", [1, 21, 64])
def test_qmc_last_block_before_period_matches_reference(dims):
    # The engine's fast_forward steps one point at a time (minutes to reach
    # 2^32 at d = 64), so the reference is the bit-by-bit loop over the
    # engine's own direction vectors.
    qmc_mod = pytest.importorskip("scipy.stats.qmc")
    eng = qmc_mod.Sobol(d=dims, scramble=False, bits=32)
    if getattr(eng, "_sv", None) is None:
        pytest.skip("this scipy does not expose its direction vectors")
    start, n = (1 << 32) - 64, 64
    ref = _sobol_by_bit(eng._sv.T, start, n) * 2.0**-32
    assert np.array_equal(_sobol_raw(start, n, dims), ref)


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("dims", [1, 21, 64])
def test_qmc_draw_across_row_blocks_matches_reference(dims):
    # The draw is built _SOBOL_BLOCK_ROWS raw indices at a time: these rows
    # start off a multiple of the block size, end in a partial block, and
    # cross 2^16, so the third Gray-code byte is zero for some 256-row
    # heads and not for others.
    qmc_mod = pytest.importorskip("scipy.stats.qmc")
    eng = qmc_mod.Sobol(d=dims, scramble=False, bits=32)
    if getattr(eng, "_sv", None) is None:
        pytest.skip("this scipy does not expose its direction vectors")
    start, n = (1 << 16) - _SOBOL_BLOCK_ROWS - 1000, 3 * _SOBOL_BLOCK_ROWS + 100
    got = _sobol_raw(start, n, dims)
    assert got.flags.f_contiguous
    assert np.array_equal(got, _sobol_by_bit(eng._sv.T, start, n) * 2.0**-32)


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("dims", [1, 21])
@pytest.mark.parametrize(
    "start,n",
    [
        (5 << 8, 300),  # starts on a 256-row head, ends inside a run
        ((7 << 8) + 1, 100),  # one past a head, fewer than 256 rows
        ((3 << 8) + 255, 1000),  # the row before a head, not whole runs
        (255, 2),  # two rows either side of the first head
        (_SOBOL_BLOCK_ROWS - 1, 2),  # two rows either side of a block edge
        ((1 << 24) - 700, 1500),  # into the fourth Gray-code byte
    ],
)
def test_qmc_draw_at_256_row_edges_matches_reference(dims, start, n):
    # Element 256q + r is built from the head 256q and row r of the low
    # table; these draws start and end on and off those heads.
    qmc_mod = pytest.importorskip("scipy.stats.qmc")
    eng = qmc_mod.Sobol(d=dims, scramble=False, bits=32)
    if getattr(eng, "_sv", None) is None:
        pytest.skip("this scipy does not expose its direction vectors")
    want = _sobol_by_bit(eng._sv.T, start, n) * 2.0**-32
    assert np.array_equal(_sobol_raw(start, n, dims), want)


def _run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this checkout's src/."""
    src = Path(sobolbench.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout


def test_import_does_not_load_scipy_stats():
    # The generator is in-house because importing scipy.stats (which holds
    # scipy's Sobol' engine) costs about a second and 45 MB; a fresh
    # interpreter shows whether the package or its CLI pulls it in.
    probe = "import sys, sobolbench.cli; print('scipy.stats' in sys.modules)"
    assert _run_fresh(probe).strip() == "False"


def test_scipy_special_loads_on_first_normal_quantile():
    # Importing scipy.special costs about 0.2 s and 26 MB, and uniform-only
    # models never take a normal quantile, so it loads on first use.  The
    # first use then runs in pool workers, and must not change a record.
    probe = textwrap.dedent("""
        import sys, tempfile
        from pathlib import Path
        from sobolbench.cli import write_records_csv
        from sobolbench.estimators import EstimatorKind
        from sobolbench.harness import BenchmarkConfig, estimate_cell, run_benchmark
        from sobolbench.models import build
        from sobolbench.sampling import SamplerSpec

        def ladder(test, sampler, threads):
            cfg = BenchmarkConfig(test, tuple(EstimatorKind), sampler, 4, 6, k=4)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "records.csv"
                write_records_csv(path, run_benchmark(cfg, threads=threads))
                return path.read_bytes()

        ladder("GFunc10A", "QMC", 1)
        estimate_cell(build("Ishigami"), tuple(EstimatorKind), 64, SamplerSpec("MC"))
        print("scipy.special" in sys.modules)
        two = ladder("ParkAhn7", "MC", 2)
        print("scipy.special" in sys.modules)
        print(two == ladder("ParkAhn7", "MC", 1))
    """)
    assert _run_fresh(probe).split() == ["False", "True", "True"]


def test_qmc_last_block_pinned():
    # raw indices 2^32 - 4 .. 2^32 - 1, as uint32 (value * 2^32)
    want = np.array(
        [
            [1073741825, 1073741823, 83907925],
            [3221225473, 3221225471, 2231391573],
            [2147483649, 2147483647, 1157649749],
            [1, 4294967295, 3305133397],
        ],
        dtype=np.uint32,
    )
    got = _sobol_raw((1 << 32) - 4, 4, 3) * 2.0**32
    assert np.array_equal(got, want)


def test_qmc_star_discrepancy_beats_iid_average():
    def star_disc_1d(x):
        xs = np.sort(x)
        n = len(xs)
        i = np.arange(1, n + 1)
        return float(np.max(np.maximum(i / n - xs, xs - (i - 1) / n)))

    rng = np.random.default_rng(2024)
    iid_mean = np.mean([star_disc_1d(rng.random(4)) for _ in range(4000)])
    assert abs(iid_mean - 0.395) < 0.02  # seeded simulation, frozen value
    assert star_disc_1d(qmc(4, 1).values[:, 0]) == 0.25
    assert 0.25 < iid_mean


def test_qmc_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        qmc(100, 2)


def test_qmc_rejects_excessive_dimension():
    with pytest.raises(ValueError, match="64"):
        qmc(16, 65)


def test_qmc_rejects_period_overflow():
    with pytest.raises(ValueError, match="period"):
        generate_uniform(SamplerSpec(kind="QMC", run_index=1 << 40), 1 << 20, 2)


def test_generate_rejects_bad_counts():
    with pytest.raises(ValueError):
        qmc(0, 2)
    with pytest.raises(ValueError):
        mc(-4, 2)


# ---------------------------------------------------------------------------
# pseudorandom generator and seed mixing


def test_mc_reproducible_and_run_dependent():
    a = mc(512, 4, seed=7, run_index=0).values
    b = mc(512, 4, seed=7, run_index=0).values
    c = mc(512, 4, seed=7, run_index=1).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mc_mean_near_half():
    pts = mc(1 << 14, 3, seed=11).values
    assert abs(pts.mean() - 0.5) < 0.02
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("seed,run_index", [(0, 0), (11, 3), (123456789, 9)])
@pytest.mark.parametrize("d", [1, 7, 10])
def test_mc_narrow_draw_is_leading_chunks_of_wider(width, seed, run_index, d):
    # each column of an MC draw is the leading values of its own stream, so
    # a draw of n points and W*d columns is the leading rows and columns of
    # a longer, wider draw of the same run; an MC ladder relies on it to give
    # every estimator, at any width and rung, a row slice of one top-rung set
    n = 96
    wide = mc(4 * n, 3 * d, seed=seed, run_index=run_index).values
    narrow = mc(n, width * d, seed=seed, run_index=run_index).values
    assert np.array_equal(wide[:n, : width * d], narrow)


@pytest.mark.parametrize("kind", ["MC", "QMC"])
@pytest.mark.parametrize(
    "start,stop",
    [
        (0, 128),  # the first chunk
        (1984, 2240),  # across raw index 26624, a 2048-row Sobol' block edge
        (8192 - 128, 8192),  # the last chunk
        (0, 8192),  # the whole run
    ],
)
def test_row_range_is_those_rows_of_the_whole_draw(kind, start, stop):
    # a run can be drawn in chunks: rows [start, stop) of QMC run 3 of 8192
    # points (raw indices from 24577) or of an MC run, drawn alone, are
    # those rows of the whole draw, bit for bit, column-major
    n, dims = 8192, 21
    spec = SamplerSpec(kind, seed=2**64 - 5, run_index=3)
    whole = generate_uniform(spec, n, dims).values
    part = generate_uniform(spec, n, dims, start, stop)
    assert (part.n, part.dims) == (stop - start, dims)
    assert part.values.flags.f_contiguous
    assert np.array_equal(part.values.view(np.uint64), whole[start:stop].view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["MC", "QMC"]),
    p=st.integers(0, 13),
    data=st.data(),
    dims=st.integers(1, 8),
    run=st.integers(0, 50),
)
def test_chunked_run_joins_to_the_whole_draw(kind, p, data, dims, run):
    # any cut of a run into row ranges joins back to its whole draw
    n = 1 << p
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else ())
    edges = [0, *cuts, n]
    spec = SamplerSpec(kind, seed=17, run_index=run)
    parts = [generate_uniform(spec, n, dims, a, b).values for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(parts), generate_uniform(spec, n, dims).values)


@pytest.mark.parametrize("start,stop", [(-1, 4), (0, 9), (4, 4), (5, 3)])
def test_row_range_outside_the_run_is_refused(start, stop):
    for kind in ("MC", "QMC"):
        with pytest.raises(ValueError, match="not a range of a run of 8"):
            generate_uniform(SamplerSpec(kind), 8, 2, start, stop)


def test_mc_column_is_its_own_jumped_stream():
    # column c of run k is the leading n values of PCG64(mix_seed(seed, k))
    # jumped c times
    seed, run_index, n = 123456789, 4, 50
    values = mc(n, 5, seed=seed, run_index=run_index).values
    stream = np.random.PCG64(mix_seed(seed, run_index))
    for c in range(5):
        want = np.random.Generator(stream.jumped(c)).random(n)
        assert np.array_equal(values[:, c], want), c


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    run_index=st.integers(0, 2**20),
    n=st.integers(1, 80),
    dims=st.integers(1, 12),
    more_n=st.integers(0, 80),
    more_dims=st.integers(0, 12),
)
def test_mc_draw_prefix_stable_in_both_axes(seed, run_index, n, dims, more_n, more_dims):
    # any MC draw is the leading block of a longer, wider draw of its run,
    # and the next run draws other values
    draw = mc(n, dims, seed=seed, run_index=run_index).values
    wider = mc(n + more_n, dims + more_dims, seed=seed, run_index=run_index).values
    assert np.array_equal(wider[:n, :dims], draw)
    other = mc(n, dims, seed=seed, run_index=run_index + 1).values
    assert not np.array_equal(draw, other)


def test_mix_seed_frozen_values():
    assert mix_seed(0, 0) == 16294208416658607535
    assert mix_seed(123456789, 7) == 14226210461905535836


def test_mix_seed_no_collisions_over_runs():
    seen = {mix_seed(123456789, k) for k in range(2000)}
    assert len(seen) == 2000
    assert all(0 <= s < (1 << 64) for s in seen)


def test_sampler_spec_validation():
    with pytest.raises(ValueError, match="sampler kind"):
        SamplerSpec(kind="LHS")
    with pytest.raises(ValueError):
        SamplerSpec(kind="MC", run_index=-1)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="outside"):
            SamplerSpec(kind="MC", seed=seed)
    assert SamplerSpec(kind="MC", seed=(1 << 64) - 1).seed == (1 << 64) - 1


def test_unit_point_set_validation():
    with pytest.raises(ValueError):
        UnitPointSet(n=2, dims=2, values=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        UnitPointSet(n=0, dims=1, values=np.zeros((0, 1)))


# ---------------------------------------------------------------------------
# marginals


def test_uniform_from_unit():
    m = Uniform(-2.0, 4.0)
    u = np.array([0.0, 0.5, 1.0 - 1e-12])
    x = m.from_unit(u)
    assert x[0] == -2.0 and abs(x[1] - 1.0) < 1e-12 and x[2] < 4.0
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)


def test_normal_from_unit():
    m = Normal(10.0, 2.0)
    assert abs(m.from_unit(np.array([0.5]))[0] - 10.0) < 1e-12
    assert abs(m.from_unit(np.array([0.8413447460685429]))[0] - 12.0) < 1e-5
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)


def test_lognormal_interpretations():
    # the one reading: (median of x, sd of ln x)
    med = Lognormal(2.0, 0.5)
    assert (med.median, med.sigma) == (2.0, 0.5)
    # the median maps from u = 0.5
    assert abs(med.from_unit(np.array([0.5]))[0] - 2.0) < 1e-12
    e1, e2 = med.moments()
    assert abs(e1 - 2.0 * np.exp(0.125)) < 1e-12
    assert abs(e2 - 4.0 * np.exp(0.5)) < 1e-12
    with pytest.raises(TypeError):
        Lognormal(1.0, 1.0, "median")
    with pytest.raises(ValueError, match="median"):
        Lognormal(-1.0, 1.0)
    with pytest.raises(ValueError, match="median"):
        Lognormal(0.0, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        Lognormal(1.0, 0.0)


def _closed_form(marginal, u):
    if isinstance(marginal, Uniform):
        return marginal.a + (marginal.b - marginal.a) * u
    if isinstance(marginal, Normal):
        return marginal.mu + marginal.sigma * ndtri(u)
    return np.exp(np.log(marginal.median) + marginal.sigma * ndtri(u))


@pytest.mark.parametrize(
    "marginal",
    [Uniform(-2.0, 4.0), Normal(10.0, 2.0), Lognormal(2.0, 0.5)],
    ids=repr,
)
def test_from_unit_in_place_equals_closed_form(marginal):
    # from_unit works in place on one temporary, in the closed form's
    # operation order, so the bits are the closed form's and u is not written
    u = mc(1 << 10, 3, seed=5).values[:, 1]
    before = u.copy()
    assert np.array_equal(marginal.from_unit(u), _closed_form(marginal, u))
    assert np.array_equal(u, before)


def test_lognormal_sample_median():
    u = qmc(1 << 12, 1).values[:, 0]
    x = Lognormal(3.0, 0.8).from_unit(u)
    assert abs(np.median(x) - 3.0) < 0.02


# ---------------------------------------------------------------------------
# covariance and correlated transform


def test_cholesky_identity():
    cov = CovarianceSpec(mean=np.zeros(3), matrix=np.eye(3))
    assert np.allclose(cholesky_lower(cov), np.eye(3), atol=1e-15)


def test_cholesky_known_block():
    cov = CovarianceSpec(mean=np.zeros(2), matrix=np.array([[16.0, 2.4], [2.4, 4.0]]))
    low = cholesky_lower(cov)
    assert abs(low[0, 0] - 4.0) < 1e-14
    assert abs(low[1, 0] - 0.6) < 1e-14
    assert low[0, 1] == 0.0
    assert abs(low[1, 1] - np.sqrt(4.0 - 0.36)) < 1e-14


def test_cholesky_rejects_indefinite():
    cov = CovarianceSpec(mean=np.zeros(2), matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="pivot 2"):
        cholesky_lower(cov)


def test_cholesky_matches_reference_on_random_spd():
    rng = np.random.default_rng(99)
    r = rng.standard_normal((5, 5))
    mat = r @ r.T + 5.0 * np.eye(5)
    cov = CovarianceSpec(mean=np.zeros(5), matrix=mat)
    assert np.allclose(cholesky_lower(cov), np.linalg.cholesky(mat), atol=1e-10)


def test_covariance_spec_validation():
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceSpec(mean=np.zeros(2), matrix=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="shape"):
        CovarianceSpec(mean=np.zeros(3), matrix=np.eye(2))


def test_transform_independent_columns():
    u = qmc(8, 2)
    x = transform_independent(u, (Uniform(0.0, 2.0), Normal(5.0, 1.0)))
    assert x.shape == (8, 2)
    # column-major, so every column a model or a sort reads is contiguous
    assert x.flags.f_contiguous
    assert x[0, 0] == 1.0  # first point is u = 0.5 in every coordinate
    assert abs(x[0, 1] - 5.0) < 1e-12
    with pytest.raises(ValueError):
        transform_independent(u, (Uniform(0.0, 1.0),))


@pytest.mark.parametrize("kind", ["QMC", "MC"])
def test_transform_independent_in_place(kind):
    # without out the transform is pure; with out=u.values it overwrites the
    # unit draw with the same bits and returns that array
    u = generate_uniform(SamplerSpec(kind=kind, seed=3), 64, 3)
    marginals = (Uniform(-1.0, 3.0), Normal(5.0, 2.0), Lognormal(2.0, 0.4))
    before = u.values.copy()
    pure = transform_independent(u, marginals)
    assert np.array_equal(u.values, before)
    assert pure is not u.values
    in_place = transform_independent(u, marginals, u.values)
    assert in_place is u.values
    assert np.array_equal(in_place.view(np.uint64), pure.view(np.uint64))


@pytest.mark.parametrize("kind", ["QMC", "MC"])
def test_unit_uniform_is_the_identity(kind):
    # Uniform(0, 1) maps every u >= +0 to itself bit for bit, so from_unit
    # returns its column as is; the transform still returns a new array
    # without out, and in place it leaves those columns of the draw alone
    u = generate_uniform(SamplerSpec(kind=kind, seed=3), 64, 3)
    unit = Uniform(0.0, 1.0)
    column = u.values[:, 1]
    assert unit.from_unit(column) is column
    assert np.array_equal(
        _closed_form(unit, column).view(np.uint64), column.view(np.uint64)
    )
    marginals = (unit, Normal(5.0, 2.0), unit)
    before = u.values.copy()
    pure = transform_independent(u, marginals)
    assert not np.shares_memory(pure, u.values)
    assert np.array_equal(u.values, before)
    in_place = transform_independent(u, marginals, u.values)
    assert in_place is u.values
    assert np.array_equal(in_place.view(np.uint64), pure.view(np.uint64))
    assert np.array_equal(in_place[:, 0::2], before[:, 0::2])


def test_correlated_diagonal_equals_independent():
    u = qmc(256, 3)
    mean = np.array([1.0, -2.0, 0.5])
    sig = np.array([0.5, 2.0, 3.0])
    cov = CovarianceSpec(mean=mean, matrix=np.diag(sig**2))
    x_cor = transform_correlated_normal(u, cov)
    x_ind = transform_independent(u, tuple(Normal(m, s) for m, s in zip(mean, sig)))
    assert np.max(np.abs(x_cor - x_ind)) < 1e-12
    assert x_cor.flags.f_contiguous


def test_correlated_sample_statistics():
    u = qmc(1 << 16, 2)
    cov = CovarianceSpec(mean=np.zeros(2), matrix=np.array([[16.0, 2.4], [2.4, 4.0]]))
    x = transform_correlated_normal(u, cov)
    corr = np.corrcoef(x.T)[0, 1]
    assert abs(corr - 0.3) < 0.01  # 2.4 / (4 * 2)
    assert abs(x[:, 0].std() - 4.0) < 0.05
    with pytest.raises(ValueError, match="dims"):
        transform_correlated_normal(qmc(8, 3), cov)
