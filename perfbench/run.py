#!/usr/bin/env python3
"""Ladder benchmark for sobolbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one RMSE ladder (estimators x N = 2^p x K replicates)
driven through the public API: ``run_benchmark``, then ``write_records_csv``
and ``write_rates_csv``.  The package is imported from ``src/`` of the
checkout this script sits in, never from an installed copy.

``--trace 0`` times untraced ladders for about ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced ladders
(see spans.py), times each layer alone at N = 2^16, and reports the
per-layer metrics; the traced ladders' spans go to
``.perfbench_out/spans-<workload>.jsonl``.  Both modes check every ladder's
output.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; ``attempted`` and ``failed`` count ladders,
so their ratio is the error rate.  The lines before it give the
environment, the records.csv SHA-256, ``max_abs_err`` and ``error_rate``.

``--seed`` becomes ``BenchmarkConfig.master_seed``.  It changes only the MC
workload: unscrambled QMC blocks do not depend on the seed.  BLAS is held to
one thread, so a workload's ``threads`` is every thread that computes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median, quantiles

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

K = 10
ALL5 = ("sobol", "sk", "owen", "oracle", "dlr")
MIN_LADDERS = 3
MIN_PAIRS = 2
SETUP_REPEATS = 7
ALONE_N = 1 << 16
ALONE_REPEATS = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    """One ladder: model, sampler, estimators, p range and run_benchmark threads."""

    test: str
    sampler: str
    estimators: tuple[str, ...]
    p_min: int
    p_max: int
    threads: int
    # Top-rung tolerance on |mean_estimate - analytic|, the criterion-1
    # tolerance tests/test_acceptance.py applies to the same model.
    tol: float


WORKLOADS = {
    # Model evaluation and Sobol' generation dominate, and all five
    # estimators draw the same Sobol' prefix.  p_max is 15 because dlr's
    # top-rung error on GFunc10A exceeds 0.01 at p = 12, 13 and 14.
    "qmc-gfunc10a-all5": Workload("GFunc10A", "QMC", ALL5, 8, 15, 1, 0.01),
    # PCG64 draws and the lognormal transform, never the Sobol' generator;
    # the only workload on the thread pool.
    "mc-parkahn7-t2": Workload("ParkAhn7", "MC", ALL5, 8, 16, 2, 0.02),
    # No DepQuad4 (dlr alone) workload: two workloads leave room for runs
    # long enough to be steady on a shared host.  dlr runs in the first
    # workload, and the Cholesky transform is timed alone.
}

END_TO_END_UNITS = {
    "ladder_s": "s",
    "evals_per_s": "evals/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sampling.generate_uniform.calls": "count",
    "sampling.generate_uniform.s": "s",
    "sampling.generate_uniform.values": "count",
    "sampling.transform.calls": "count",
    "sampling.transform.s": "s",
    "models.f.calls": "count",
    "models.f.rows": "count",
    "models.f.s": "s",
    "models.eval_ratio": "ratio",
    "estimators.build_plan.calls": "count",
    "estimators.build_plan.self_s": "s",
    "estimators.plan_bytes": "B",
    "estimators.estimate_main_index.calls": "count",
    "estimators.estimate_main_index.s": "s",
    "harness.run_benchmark.s": "s",
    "harness.run_benchmark.self_s": "s",
    "harness.busy_share": "ratio",
    "cli.write.s": "s",
    "cli.write.bytes": "B",
    "trace.overhead_s": "s",
    "alone.sampling.sobol_d30_s": "s",
    "alone.sampling.lognormal_d7_s": "s",
    "alone.sampling.cholesky_d4_s": "s",
    "alone.models.gfunc10a_f_s": "s",
    "alone.estimators.dlr_s": "s",
    "max_abs_err": "index",
}


def import_package():
    """Import sobolbench from this checkout's src/, or exit with an error."""
    package = SRC / "sobolbench"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no sobolbench sources under {SRC}")
    # A workload's thread count is the whole story only if BLAS runs on one
    # thread; OpenBLAS's spinning helper threads otherwise take the second
    # core during the Cholesky transform's matmul and make its timings erratic.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import sobolbench

    if Path(sobolbench.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported sobolbench from {sobolbench.__file__}")
    return sobolbench


def setup(w: Workload, seed: int):
    """Everything before the first ladder call: import, build, config."""
    sb = import_package()
    model = sb.build(w.test)
    cfg = sb.BenchmarkConfig(
        test=w.test,
        estimators=w.estimators,
        sampler=w.sampler,
        p_min=w.p_min,
        p_max=w.p_max,
        k=K,
        master_seed=seed,
    )
    return sb, model, cfg


def setup_seconds(w: Workload, seed: int) -> list[float]:
    """Wall times of fresh interpreters that run setup() and exit.

    One untimed probe first, so compiling bytecode is not counted.
    """
    probe = "import sys, json; sys.path.insert(0, sys.argv[1]); import run; " \
        "run.setup(run.Workload(**json.loads(sys.argv[2])), int(sys.argv[3]))"
    argv = [sys.executable, "-c", probe, str(Path(__file__).parent),
            json.dumps(dataclasses.asdict(w)), str(seed)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run(argv, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times[1:]


class Ladders:
    """Runs ladders of one config and checks each one's output.

    The first full ladder's records.csv is the reference: every later
    ladder, traced or not, on any thread count, must match it byte for
    byte, and its top-rung mean estimates must lie within the workload's
    tolerance of the analytic indices.
    """

    def __init__(self, sb, w: Workload, model, cfg, out_dir: Path):
        from sobolbench import cli

        self.sb, self.cli, self.w, self.cfg, self.out_dir = sb, cli, w, cfg, out_dir
        self.d = model.d
        self.attempted = self.failed = 0
        self.reference: bytes | None = None
        self.max_abs_err: float | None = None
        self.write_bytes = 0

    def run(self, cfg=None, threads=None, tracer=None) -> float | None:
        """Wall seconds of one ladder, or None if it raised.

        A ladder that raises or fails the output check counts as failed.
        """
        cfg = cfg or self.cfg
        threads = threads or self.w.threads
        self.attempted += 1
        try:
            elapsed = self._ladder(cfg, threads, tracer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problem = self._check(cfg) if cfg is self.cfg else None
        if problem:
            print(f"ladder failed: {problem}", file=sys.stderr)
            self.failed += 1
        return elapsed

    def _ladder(self, cfg, threads, tracer) -> float:
        span = tracer.span if tracer else (lambda name, root=False: nullcontext())
        records_path = self.out_dir / "records.csv"
        rates_path = self.out_dir / "rates.csv"
        t0 = time.perf_counter()
        with span("harness.run_benchmark", root=True):
            self.records = self.sb.run_benchmark(cfg, threads=threads)
        with span("cli.write"):
            self.cli.write_records_csv(records_path, self.records)
            self.cli.write_rates_csv(rates_path, self.records, cfg.fit_window)
        elapsed = time.perf_counter() - t0
        self.write_bytes = records_path.stat().st_size + rates_path.stat().st_size
        return elapsed

    def _check(self, cfg) -> str | None:
        data = (self.out_dir / "records.csv").read_bytes()
        if self.reference is None:
            want = len(cfg.estimators) * self.d * (cfg.p_max - cfg.p_min + 1)
            if len(self.records) != want:
                return f"{len(self.records)} records, expected {want}"
            top = [r for r in self.records if r.n == 1 << cfg.p_max]
            self.max_abs_err = max(abs(r.mean_estimate - r.analytic) for r in top)
            if self.max_abs_err > self.w.tol:
                return f"top-rung error {self.max_abs_err:.5f} exceeds {self.w.tol}"
            self.reference = data
        elif data != self.reference:
            return "records.csv differs from the first ladder"
        return None


def nominal_evals(sb, model, cfg) -> int:
    """Sum of cost(kind, d, N)[0] * K over the ladder."""
    return sum(
        sb.cost(kind, model.d, 1 << p)[0] * cfg.k
        for kind in cfg.estimators
        for p in range(cfg.p_min, cfg.p_max + 1)
    )


def timed(seconds: float, step, min_calls: int) -> list[float]:
    """Call step() until the next call would end after ``seconds``.

    Makes at least ``min_calls`` calls and returns the timings step()
    returned, leaving out its None for a failed ladder.
    """
    t0 = time.perf_counter()
    calls, times = 0, []
    while True:
        t = time.perf_counter()
        elapsed = step()
        if elapsed is not None:
            times.append(elapsed)
        calls += 1
        now = time.perf_counter()
        if calls >= min_calls and (now - t0) + (now - t) > seconds:
            return times


def layer_alone(sb) -> dict[str, float]:
    """Median seconds of single layer calls at N = 2^16, warm."""
    from sobolbench.estimators import estimate_dlr

    n = ALONE_N
    qmc = sb.SamplerSpec(kind="QMC")
    park, dep, gfunc = sb.build("ParkAhn7"), sb.build("DepQuad4"), sb.build("GFunc10A")
    u7, u4, u10 = (sb.generate_uniform(qmc, n, d) for d in (7, 4, 10))
    x10 = sb.transform_independent(u10, gfunc.marginals)
    f10 = gfunc.f(x10)
    bins = sb.default_bin_schedule(n)
    calls = {
        "alone.sampling.sobol_d30_s": lambda: sb.generate_uniform(qmc, n, 30),
        "alone.sampling.lognormal_d7_s": lambda: sb.transform_independent(u7, park.marginals),
        "alone.sampling.cholesky_d4_s": lambda: sb.transform_correlated_normal(
            u4, dep.covariance
        ),
        "alone.models.gfunc10a_f_s": lambda: gfunc.f(x10),
        "alone.estimators.dlr_s": lambda: estimate_dlr(x10[:, 0], f10, bins),
    }
    out = {}
    for name, call in calls.items():
        call()
        times = []
        for _ in range(ALONE_REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = median(times)
    return out


def environment(sb, name: str, w: Workload, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sobolbench": sb.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": w.threads,
        "seed": seed,
    }


def measure(name: str, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    sb, model, cfg = setup(w, seed)
    setup_times = [] if trace else setup_seconds(w, seed)

    print("environment", json.dumps(environment(sb, name, w, seed)))
    nominal = nominal_evals(sb, model, cfg)
    out_dir = OUT / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ladders = Ladders(sb, w, model, cfg, out_dir)
        # Warm-up: a two-rung ladder loads every code path and fills caches.
        ladders.run(dataclasses.replace(cfg, p_max=cfg.p_min + 1))
        if trace:
            metrics, traced_tracers = _traced(sb, ladders, seconds, nominal)
        else:
            untraced = timed(seconds, ladders.run, MIN_LADDERS)
            metrics = _end_to_end(untraced, nominal, setup_times)
        if w.threads > 1:
            # Thread-order independence: one single-threaded ladder must
            # reproduce the reference records byte for byte.
            ladders.run(threads=1)
        if trace:
            metrics["max_abs_err"] = ladders.max_abs_err
            metrics["cli.write.bytes"] = ladders.write_bytes
            _write_spans(OUT / f"spans-{name}.jsonl", traced_tracers)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if ladders.reference is not None:
        print("records_sha256", hashlib.sha256(ladders.reference).hexdigest())
    print("max_abs_err", ladders.max_abs_err, "index")
    print("error_rate", ladders.failed / ladders.attempted, "fraction",
          f"({ladders.failed} of {ladders.attempted} ladders failed)")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": ladders.failed == 0,
        "attempted": ladders.attempted,
        "failed": ladders.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _end_to_end(untraced: list[float], nominal: int, setup_times: list[float]) -> dict:
    if not untraced:
        raise SystemExit("error: no ladder completed")
    ladder_s = median(untraced)
    if len(untraced) >= 2:
        q1, _, q3 = quantiles(untraced, n=4)
        print(f"ladder_s median {ladder_s:.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"n {len(untraced)} s")
    return {
        "ladder_s": ladder_s,
        "evals_per_s": nominal / ladder_s,
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(sb, ladders: Ladders, seconds: float, nominal: int):
    """Alternate untraced and traced ladders; per-layer medians over the traced."""
    untraced, traced, layers, tracers = [], [], [], []

    def pair() -> float | None:
        plain = ladders.run()
        tracer = spans.Tracer()
        with spans.traced_package(tracer, sb):
            elapsed = ladders.run(tracer=tracer)
        if plain is None or elapsed is None:
            return None
        untraced.append(plain)
        traced.append(elapsed)
        tracers.append(tracer)
        layers.append(spans.layer_metrics(tracer, ladders.w.threads, nominal))
        return elapsed

    timed(seconds, pair, MIN_PAIRS)
    if not layers:
        raise SystemExit("error: no traced ladder completed")
    metrics = {k: median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    metrics.update(layer_alone(sb))
    return metrics, tracers


def _write_spans(path: Path, tracers) -> None:
    with open(path, "w") as fh:
        for ladder, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps({"ladder": ladder, **s._asdict()}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    result = measure(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
