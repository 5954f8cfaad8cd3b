"""Acceptance checks: quantitative recovery, rates, orderings, determinism.

Run with ``pytest -s tests/test_acceptance.py`` to see one printed
PASS/FAIL line per criterion.
"""

import dataclasses
import functools
import time

import numpy as np

from sobolbench.cli import main
from sobolbench.estimators import (
    EstimatorKind,
    build_plan,
    default_bin_schedule,
    estimate_dlr,
    estimate_oracle,
    estimate_owen,
    estimate_sk,
    estimate_sobol_original,
    evaluation_set,
)
from sobolbench.harness import (
    DEFAULT_MASTER_SEED,
    BenchmarkConfig,
    cost,
    estimate_cell,
    fit_rate,
    group_records,
    run_benchmark,
)
from sobolbench.models import InputModel, build
from sobolbench.sampling import SamplerSpec, Uniform

QMC = SamplerSpec(kind="QMC", run_index=0)
ALL_KINDS = tuple(EstimatorKind)
DIRECT_KINDS = (
    EstimatorKind.SOBOL,
    EstimatorKind.SK,
    EstimatorKind.OWEN,
    EstimatorKind.ORACLE,
)
IMPROVED_DIRECT = (EstimatorKind.SK, EstimatorKind.OWEN, EstimatorKind.ORACLE)
# Replicates of the seeded rate checks (criteria 2 and 4), fitted over the
# whole ladder: with K = 10 and the upper-half fit they passed on only about
# two thirds of master seeds.  tests/seed_sweep.py counts the passes.
MC_RATE_K = 40


def _check(label, ok, detail=""):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: analytic-value recovery


def test_c1_linear4():
    t0 = time.perf_counter()
    cfg = BenchmarkConfig(
        test="Linear4", estimators=ALL_KINDS, sampler="QMC", p_min=14, p_max=14
    )
    records = run_benchmark(cfg)
    want = np.array([0.0741, 0.167, 0.296, 0.463])
    worst = 0.0
    for r in records:
        worst = max(worst, abs(r.mean_estimate - want[r.input - 1]))
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 1 Linear4 (all estimators, QMC 2^14, K=10)",
        worst < 0.01 and elapsed < 5.0,
        f"max |mean - analytic| = {worst:.5f} (tol 0.01), {elapsed:.1f}s (budget 5s)",
    )


def test_c1_ishigami():
    t0 = time.perf_counter()
    model = build("Ishigami")
    want = np.array([0.314, 0.442, 0.000])
    kinds = IMPROVED_DIRECT + (EstimatorKind.DLR,)
    results = estimate_cell(model, kinds, 1 << 14, QMC)
    worst = max(float(np.max(np.abs(s - want))) for s in results.values())
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 1 Ishigami (SK/Owen/Oracle/DLR, QMC 2^14)",
        worst < 0.01 and elapsed < 5.0,
        f"max |S - analytic| = {worst:.5f} (tol 0.01), {elapsed:.1f}s (budget 5s)",
    )


def test_c1_gfunc10a():
    t0 = time.perf_counter()
    results = estimate_cell(build("GFunc10A"), ALL_KINDS, 1 << 16, QMC)
    err12 = max(
        float(np.max(np.abs(s[:2] - 0.304))) for s in results.values()
    )
    err3 = max(float(abs(s[2] - 0.019)) for s in results.values())
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 1 GFunc10A (QMC 2^16)",
        err12 < 0.01 and err3 < 0.005 and elapsed < 30.0,
        f"max |S_1,2 - 0.304| = {err12:.5f} (tol 0.01), "
        f"max |S_3 - 0.019| = {err3:.5f} (tol 0.005), {elapsed:.1f}s (budget 30s)",
    )


def test_c1_gfunc10b():
    t0 = time.perf_counter()
    results = estimate_cell(build("GFunc10B"), ALL_KINDS, 1 << 16, QMC)
    worst = max(float(np.max(np.abs(s - 0.0199))) for s in results.values())
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 1 GFunc10B (QMC 2^16)",
        worst < 0.01 and elapsed < 30.0,
        f"max |S - 0.0199| = {worst:.5f} (tol 0.01), {elapsed:.1f}s (budget 30s)",
    )


def test_c1_parkahn7():
    t0 = time.perf_counter()
    model = build("ParkAhn7")  # the default lognormal reading (median)
    want = np.array([0.0350, 0.330, 0.0157, 0.0857, 0.174, 0.221, 0.0477])
    results = estimate_cell(model, ALL_KINDS, 1 << 16, QMC)
    worst = max(float(np.max(np.abs(s - want))) for s in results.values())
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 1 ParkAhn7 (QMC 2^16, median-parameter reading)",
        worst < 0.02 and elapsed < 30.0,
        f"max |S - quoted| = {worst:.5f} (tol 0.02), {elapsed:.1f}s (budget 30s)",
    )


def test_c1_depquad4():
    t0 = time.perf_counter()
    model = build("DepQuad4")
    s = estimate_cell(model, (EstimatorKind.DLR,), 1 << 14, QMC)[EstimatorKind.DLR]
    worst = float(np.max(np.abs(s - np.array([0.507, 0.399, 0.0, 0.0]))))
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 1 DepQuad4 (DLR, QMC 2^14)",
        worst < 0.02 and elapsed < 10.0,
        f"max |S - quoted| = {worst:.5f} (tol 0.02), {elapsed:.1f}s (budget 10s)",
    )


def test_c1_deplinear3():
    t0 = time.perf_counter()
    model = build("DepLinear3")
    s = estimate_cell(model, (EstimatorKind.DLR,), 1 << 14, QMC)[EstimatorKind.DLR]
    worst = float(np.max(np.abs(s - np.array([0.3571, 0.1286, 0.5143]))))
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 1 DepLinear3 (DLR, QMC 2^14)",
        worst < 0.02 and elapsed < 10.0,
        f"max |S - analytic| = {worst:.5f} (tol 0.02), {elapsed:.1f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: convergence rates on the additive Gaussian model


@functools.lru_cache(maxsize=None)
def c2_mc_alphas(master_seed=DEFAULT_MASTER_SEED):
    """Criterion 2's MC rates: SobolOriginal on Linear4, one alpha per input.

    Cached, so ``test_harness.py::test_sobol_mc_rate_near_half`` reads the
    same ladder instead of running it again."""
    cfg = BenchmarkConfig(
        test="Linear4", estimators=(EstimatorKind.SOBOL,), sampler="MC",
        p_min=8, p_max=16, k=MC_RATE_K, master_seed=master_seed,
    )
    groups = group_records(run_benchmark(cfg, threads=4))
    return tuple(
        fit_rate(groups[(EstimatorKind.SOBOL, i)], axis="N", window="full").alpha
        for i in range(1, 5)
    )


def c2_mc_passes(alphas):
    return all(0.35 <= a <= 0.65 for a in alphas)


def test_c2_rates():
    t0 = time.perf_counter()
    mc_alphas = c2_mc_alphas()
    qmc_groups = group_records(
        run_benchmark(
            BenchmarkConfig(
                test="Linear4",
                estimators=(EstimatorKind.SK, EstimatorKind.ORACLE),
                sampler="QMC", p_min=8, p_max=16,
            ),
            threads=4,
        )
    )
    qmc_alphas = [
        fit_rate(qmc_groups[(kind, i)], axis="N").alpha
        for kind in (EstimatorKind.SK, EstimatorKind.ORACLE)
        for i in range(1, 5)
    ]
    elapsed = time.perf_counter() - t0
    ok_mc = c2_mc_passes(mc_alphas)
    ok_qmc = all(0.75 <= a <= 1.25 for a in qmc_alphas)
    _check(
        f"criterion 2 rates (Linear4, p=8..16; MC K={MC_RATE_K} full fit, "
        "QMC K=10 upper-half fit)",
        ok_mc and ok_qmc and elapsed < 120.0,
        f"SobolOriginal MC alpha = {[round(a, 2) for a in mc_alphas]} (range [0.35, 0.65]); "
        f"SK/Oracle QMC alpha = {[round(a, 2) for a in qmc_alphas]} (range [0.75, 1.25]); "
        f"{elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: ordering claims


def test_c3_orderings():
    cfg = BenchmarkConfig(
        test="Linear4", estimators=DIRECT_KINDS, sampler="MC", p_min=12, p_max=12
    )
    lin = {
        r.estimator: r.rmse for r in run_benchmark(cfg, threads=4) if r.input == 1
    }
    ok_a = all(lin[k] < lin[EstimatorKind.SOBOL] for k in IMPROVED_DIRECT)

    cfg = BenchmarkConfig(
        test="GFunc10B", estimators=ALL_KINDS, sampler="QMC", p_min=14, p_max=14
    )
    gf = {
        r.estimator: r.rmse for r in run_benchmark(cfg, threads=4) if r.input == 1
    }
    ok_b = all(gf[EstimatorKind.DLR] <= gf[k] for k in DIRECT_KINDS)
    _check(
        "criterion 3 orderings",
        ok_a and ok_b,
        "Linear4 i=1 MC 2^12 rmse: "
        + ", ".join(f"{k.value}={lin[k]:.4f}" for k in DIRECT_KINDS)
        + "; GFunc10B i=1 QMC 2^14 rmse: "
        + ", ".join(f"{k.value}={gf[k]:.4f}" for k in ALL_KINDS),
    )


# ---------------------------------------------------------------------------
# criterion 4: strong-interaction behavior of the original formula


def c4_alphas(master_seed=DEFAULT_MASTER_SEED):
    """Criterion 4's pooled SobolOriginal rate on GFunc10B, per sampler."""
    alphas = {}
    for sampler in ("QMC", "MC"):
        cfg = BenchmarkConfig(
            test="GFunc10B", estimators=(EstimatorKind.SOBOL,), sampler=sampler,
            p_min=8, p_max=16, k=MC_RATE_K, master_seed=master_seed,
        )
        records = run_benchmark(cfg, threads=4)
        # all ten inputs are exchangeable: pool their RMSE per ladder point
        by_n = {}
        for r in records:
            by_n.setdefault(r.n, []).append(r.rmse)
        pooled = {
            n: float(np.sqrt(np.mean(np.square(v)))) for n, v in by_n.items()
        }
        group = [
            dataclasses.replace(r, rmse=pooled[r.n]) for r in records if r.input == 1
        ]
        alphas[sampler] = fit_rate(group, axis="N", window="full").alpha
    return alphas


def c4_passes(alphas):
    return abs(alphas["QMC"] - alphas["MC"]) <= 0.2


def test_c4_type_c_rates():
    alphas = c4_alphas()
    diff = abs(alphas["QMC"] - alphas["MC"])
    _check(
        f"criterion 4 type-C rates (GFunc10B, SobolOriginal, K={MC_RATE_K} "
        "full fit)",
        c4_passes(alphas),
        f"alpha_QMC = {alphas['QMC']:.3f}, alpha_MC = {alphas['MC']:.3f}, "
        f"|diff| = {diff:.3f} (tol 0.2)",
    )


# ---------------------------------------------------------------------------
# criterion 5: brute-force quadrature equivalence


def test_c5_quadrature_equivalence():
    t0 = time.perf_counter()

    model = InputModel(
        name="prod2",
        d=2,
        f=lambda x: x[:, 0] + x[:, 0] * x[:, 1],
        marginals=(Uniform(0.0, 1.0), Uniform(0.0, 1.0)),
        analytic_f0=0.75,
    )

    # dense midpoint tensor-grid quadrature, row-chunked over x1
    m = 4096
    u = (np.arange(m) + 0.5) / m
    f0 = 0.0
    ef2 = 0.0
    g1 = np.empty(m)
    for lo in range(0, m, 256):
        x1 = u[lo : lo + 256, None]
        vals = x1 + x1 * u[None, :]
        g1[lo : lo + 256] = vals.mean(axis=1)
        f0 += vals.sum()
        ef2 += (vals**2).sum()
    f0 /= m * m
    ef2 /= m * m
    g2 = u.mean() * (1.0 + u)  # inner x1 average in closed grid form
    var = ef2 - f0**2
    s_quad = np.array([(g1**2).mean() - f0**2, (g2**2).mean() - f0**2]) / var
    assert abs(f0 - 0.75) < 1e-12

    worst = 0.0
    details = []
    for kind, s in estimate_cell(model, ALL_KINDS, 1 << 18, QMC).items():
        err = float(np.max(np.abs(s - s_quad)))
        worst = max(worst, err)
        details.append(f"{kind.value}={err:.6f}")
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 5 quadrature equivalence (f = x1 + x1*x2, QMC 2^18)",
        worst < 0.005 and elapsed < 30.0,
        f"quadrature S = {np.round(s_quad, 6).tolist()}, max |err|: "
        + ", ".join(details)
        + f" (tol 0.005), {elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: exact algebraic identities


def test_c6_identities():
    rng = np.random.default_rng(7)
    f_a = rng.standard_normal(1024) + 2.0
    f_b = rng.standard_normal(1024) + 2.0
    f_ab = rng.standard_normal(1024) + 2.0
    f_ca = rng.standard_normal(1024) + 2.0
    c = 13.0
    checks = {
        "oracle(f0=0) == sk": estimate_oracle(f_a, f_b, f_ab, 0.0)
        == estimate_sk(f_a, f_b, f_ab),
        "owen(fCA_i -> 0) == sk": estimate_owen(f_a, f_b, f_ab, np.zeros(1024))
        == estimate_sk(f_a, f_b, f_ab),
        "sk(fAB_i = fB) == 0": estimate_sk(f_a, f_b, f_b) == 0.0,
        "owen(fAB_i = fB) == 0": estimate_owen(f_a, f_b, f_b, f_ca) == 0.0,
        "oracle(fAB_i = fB) == 0": estimate_oracle(f_a, f_b, f_b, 2.0) == 0.0,
    }
    # scale equivariance of S_i_hat: D_i and D both pick up c^2
    d_i = estimate_sk(f_a, f_b, f_ab)
    d_i_scaled = estimate_sk(c * f_a, c * f_b, c * f_ab)
    checks["scale equivariance"] = abs(d_i_scaled - c * c * d_i) < 1e-9 * abs(d_i)

    # shift invariance: exact for owen/oracle/dlr; S-K needs the fAB-fB
    # difference centered (its shift term is c * mean(fAB_i - fB))
    x = rng.random(1024)
    bins = default_bin_schedule(1024)
    w = f_ab - f_ab.mean() + f_b.mean()
    shift_errs = [
        abs(
            estimate_owen(f_a + c, f_b + c, f_ab + c, f_ca + c)
            - estimate_owen(f_a, f_b, f_ab, f_ca)
        ),
        abs(
            estimate_oracle(f_a + c, f_b + c, f_ab + c, 2.0 + c)
            - estimate_oracle(f_a, f_b, f_ab, 2.0)
        ),
        abs(estimate_dlr(x, f_a + c, bins) - estimate_dlr(x, f_a, bins)),
        abs(estimate_sk(f_a + c, f_b + c, w + c) - estimate_sk(f_a, f_b, w)),
    ]
    checks["shift invariance (sk/owen/oracle/dlr)"] = max(shift_errs) < 1e-9
    # ... and the original formula demonstrably lacks it
    checks["sobol shift sensitivity"] = (
        abs(
            estimate_sobol_original(f_a + c, f_ab + c)
            - estimate_sobol_original(f_a, f_ab)
        )
        > 0.01
    )
    bad = [k for k, ok in checks.items() if not ok]
    _check(
        "criterion 6 exact identities",
        not bad,
        "all identities hold" if not bad else f"failed: {bad}",
    )


# ---------------------------------------------------------------------------
# criterion 7: cost accounting


def test_c7_cost_accounting():
    examples_ok = (
        cost(EstimatorKind.DLR, 10, 1024) == (1024, 1024)
        and cost(EstimatorKind.OWEN, 3, 1024) == (8192, 8192)
        and cost(EstimatorKind.SOBOL, 4, 1024) == (5120, 9216)
    )
    cfg = BenchmarkConfig(
        test="Ishigami", estimators=ALL_KINDS, sampler="QMC", p_min=8, p_max=10, k=2
    )
    records = run_benchmark(cfg)
    rows_ok = all(
        (r.n_cpu_actual, r.n_cpu_table1) == cost(r.estimator, 3, r.n) for r in records
    )
    plans_ok = True
    for kind in ALL_KINDS:
        evaluations = evaluation_set(build("Ishigami"), (kind,), 256, QMC)
        plan = build_plan((kind,), evaluations)
        outputs = (plan.f_a, plan.f_b, plan.f_ab, plan.f_ca, plan.f_c)
        populated = sum(f.size for f in outputs if f is not None)
        plans_ok = plans_ok and populated == cost(kind, 3, 256)[0]
    _check(
        "criterion 7 cost accounting",
        examples_ok and rows_ok and plans_ok,
        f"examples {examples_ok}, emitted records {rows_ok}, plan eval counts {plans_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns


def test_c8_determinism(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "test = GFunc10B\nestimators = sobol, dlr\nsampler = QMC\n"
        "p_min = 8\np_max = 10\nK = 3\n"
    )
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "records.csv").read_bytes()
    b = (tmp_path / "b" / "records.csv").read_bytes()
    _check(
        "criterion 8 determinism (cmd_bench rerun)",
        a == b and len(a) > 0,
        f"records.csv identical across reruns ({len(a)} bytes)",
    )
