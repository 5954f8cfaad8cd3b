"""Command-line front end: single-run estimates, benchmarks, plot data.

Three subcommands:

  estimate   print S_i_hat for one (test, estimators, sampler, N) run
  bench      run a config-file benchmark, write records.csv / rates.csv
  plotdata   turn records.csv into whitespace-delimited plot files

Exit codes: 0 success, 2 usage or config error, 3 estimator/model
incompatibility, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import sys
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

import numpy as np
import scipy

from . import __version__
from .estimators import EstimatorKind, IncompatibleModelError, _kind_list, cost
from .harness import (
    DEFAULT_MASTER_SEED,
    BenchmarkConfig,
    ConvergenceRecord,
    RateFit,
    _TooFewPoints,
    _config_field,
    estimate_cell,
    fit_rate,
    group_records,
    resolve_threads,
    run_benchmark,
)
from .models import TEST_CASE_NAMES, build
from .sampling import SamplerSpec

# CSV columns are the record and rate-fit fields in declaration order, with
# n and k spelled N and K; a rates row starts with its curve's test,
# estimator and sampler.
_RECORD_FIELDS = [f.name for f in dataclasses.fields(ConvergenceRecord)]
_RATE_FIELDS = [f.name for f in dataclasses.fields(RateFit)]
RECORDS_HEADER = [{"n": "N", "k": "K"}.get(f, f) for f in _RECORD_FIELDS]
RATES_HEADER = ["test", "estimator", "sampler", *_RATE_FIELDS]

# Config files and the manifest spell the replicate count K (k is accepted
# too); every other key is its BenchmarkConfig field name.
_CONFIG_FIELDS = {
    "K" if f.name == "k" else f.name: f for f in dataclasses.fields(BenchmarkConfig)
}
_FIELD_TYPES = get_type_hints(BenchmarkConfig)


def _parse_estimator_list(text: str) -> tuple[EstimatorKind, ...]:
    return _kind_list(tok for tok in map(str.strip, text.split(",")) if tok)


def _config_value(key: str, value: str):
    """One config value converted to the type of its BenchmarkConfig field."""
    hint = _FIELD_TYPES[_CONFIG_FIELDS[key].name]
    if hint == tuple[EstimatorKind, ...]:
        return _parse_estimator_list(value)
    if int in (hint, *get_args(hint)):
        if hint is not int and value.lower() == "none":
            return None
        try:
            return int(value)
        except ValueError:
            pass  # harness._config_field refuses it, naming the key
    return value


def parse_config(text: str) -> BenchmarkConfig:
    """Parse the flat key=value benchmark config format.

    One key per line, '#' starts a comment, values after the first '='.
    The keys are BenchmarkConfig's fields, with k spelled K; estimators
    are comma-separated.  A refusal of one key's value carries that key's
    line number; a refusal of a rule between keys (p_min above p_max, a bin
    count without dlr or that does not divide 2^p_min, a QMC ladder past the
    Sobol' period) carries ``config:``.
    """
    seen: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "k":
            key = "K"
        if key not in _CONFIG_FIELDS:
            raise ValueError(
                f"config line {lineno}: unknown key {key!r} (valid: {', '.join(_CONFIG_FIELDS)})"
            )
        if key in seen:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        if not value:
            raise ValueError(f"config line {lineno}: empty value for {key!r}")
        seen[key] = (lineno, value)

    kwargs = {}
    for key, field in _CONFIG_FIELDS.items():
        if key in seen:
            lineno, value = seen[key]
            try:
                kwargs[field.name] = _config_field(field.name, _config_value(key, value))
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: {exc}") from None
        elif field.default is dataclasses.MISSING:
            raise ValueError(f"config: missing required key {key!r}")
    # Every key's own value has passed: what the config still refuses is a
    # rule between keys, which no one line breaks.
    try:
        return BenchmarkConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from None


def config_block(cfg: BenchmarkConfig) -> dict:
    """The manifest's ``config``: every config key with its JSON value."""
    block = {}
    for key, field in _CONFIG_FIELDS.items():
        value = getattr(cfg, field.name)
        if isinstance(value, tuple):
            value = [v.value for v in value]
        block[key] = value.value if isinstance(value, Enum) else value
    return block


def _fmt(x: float) -> str:
    # str() of a Python float is the shortest round-trip repr: locale-free
    # and stable across runs, which keeps records.csv byte-identical.
    return str(float(x))


def _row(obj, names: Sequence[str]) -> list:
    """CSV cells of ``obj``'s fields: floats through _fmt, enums as values."""
    cells = []
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, float):
            value = _fmt(value)
        elif isinstance(value, Enum):
            value = value.value
        cells.append(value)
    return cells


def cmd_estimate(args: argparse.Namespace) -> int:
    model = build(args.test)
    kinds = _parse_estimator_list(args.estimators)
    spec = SamplerSpec(kind=args.sampler, seed=args.seed, run_index=args.run_index)
    # The estimators share their model evaluations; each table still reports
    # what its estimator would cost alone.  The cell runs every check on n,
    # bins and the model before anything is printed.
    cell = estimate_cell(model, kinds, args.n, spec, args.bins)

    print(f"test {model.name} (d={model.d}), sampler {args.sampler}, N={args.n}")
    any_negative = False
    for kind in kinds:
        evals = cost(kind, model.d, args.n)[0]
        print(f"\nestimator {kind.value}: {evals} model evaluations")
        print(f"  {'input':>5}  {'S_hat':>12}  {'analytic':>12}  {'|error|':>12}")
        for i, (s_hat, ref) in enumerate(zip(cell[kind], model.analytic_main), 1):
            mark = ""
            if s_hat < 0.0:
                mark = "  *"
                any_negative = True
            print(f"  {i:>5}  {s_hat:12.6f}  {ref:12.6f}  {abs(s_hat - ref):12.6f}{mark}")
    if any_negative:
        print("\n  * negative estimate: statistical fluctuation around a small index")
    return 0


def write_records_csv(path: Path, records: Sequence[ConvergenceRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORDS_HEADER)
        for r in records:
            writer.writerow(_row(r, _RECORD_FIELDS))


def write_rates_csv(
    path: Path, records: Sequence[ConvergenceRecord], window: str
) -> int:
    """Fit every (estimator, input) group on both axes; returns rows written.

    Groups whose ladder leaves fewer than 4 usable points are skipped rather
    than failing the whole run; any other refusal of the fit propagates.
    """
    groups = group_records(records)
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RATES_HEADER)
        for (kind, input_index) in sorted(groups, key=lambda g: (g[0].value, g[1])):
            group = groups[(kind, input_index)]
            for axis in ("N", "N_CPU"):
                try:
                    fit = fit_rate(group, axis=axis, window=window)
                except _TooFewPoints:
                    continue
                writer.writerow(
                    [group[0].test, kind.value, group[0].sampler, *_row(fit, _RATE_FIELDS)]
                )
                rows += 1
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config_bytes = config_path.read_bytes()
    cfg = parse_config(config_bytes.decode())
    threads = resolve_threads()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = run_benchmark(cfg, threads=threads)
    records_path = out_dir / "records.csv"
    rates_path = out_dir / "rates.csv"
    manifest_path = out_dir / "manifest.json"
    manifest = {
        "version": __version__,
        "generated": datetime.now(timezone.utc).isoformat(),
        "config_path": str(config_path),
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "config": config_block(cfg),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the SIMD targets numpy dispatches to on this CPU: some loops (exp,
        # power) differ in the last bit between them, and so may records
        "numpy_simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
        "scipy": scipy.__version__,
        "artifacts": {"records": records_path.name, "rates": rates_path.name},
    }

    # Write every artifact to a temp file beside it and move them into place
    # only once all are written: a failed run leaves the previous artifacts
    # (or none), never a truncated one.
    staged = {
        path: path.with_name(f".{path.name}.{os.getpid()}.tmp")
        for path in (records_path, rates_path, manifest_path)
    }
    try:
        write_records_csv(staged[records_path], records)
        n_rates = write_rates_csv(staged[rates_path], records, cfg.fit_window)
        with open(staged[manifest_path], "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)

    print(f"wrote {records_path} ({len(records)} records)")
    print(f"wrote {rates_path} ({n_rates} fits)")
    print(f"wrote {manifest_path}")
    return 0


def _read_records_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in RECORDS_HEADER if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns: {', '.join(missing)}")
        return list(reader)


def cmd_plotdata(args: argparse.Namespace) -> int:
    rows = _read_records_csv(Path(args.records))
    if not rows:
        raise ValueError(f"{args.records}: no records")
    by_group: dict[tuple[str, int], list[dict[str, str]]] = {}
    for row in rows:
        by_group.setdefault((row["test"], int(row["input"])), []).append(row)

    # Every group is checked and laid out before any file is written, so a
    # refused input leaves no partial set of plot files.
    out_dir = Path(args.out)
    files: dict[Path, str] = {}
    for (test, input_index) in sorted(by_group):
        group = by_group[(test, input_index)]
        estimators = sorted({row["estimator"] for row in group})
        cell: dict[tuple[str, int], dict[str, str]] = {}
        ladder: set[int] = set()
        for row in group:
            n = int(row["N"])
            ladder.add(n)
            cell[(row["estimator"], n)] = row
        ns = sorted(ladder)
        for est in estimators:
            missing = [n for n in ns if (est, n) not in cell]
            if missing:
                raise ValueError(
                    f"records are not a complete grid: {test} input {input_index} "
                    f"estimator {est} lacks N={missing[0]}"
                )

        # On N all estimators share one abscissa column, N itself; their
        # evaluation counts differ, so on N_CPU each carries its own:
        # (n_cpu_<e>, rmse_<e>) pairs.  A row with any RMSE <= 0 is dropped.
        by_n = args.axis == "N"
        columns = (
            {"rmse": "rmse"} if by_n else {"n_cpu": "n_cpu_actual", "rmse": "rmse"}
        )
        header = ["N"] * by_n + [f"{c}_{e}" for e in estimators for c in columns]
        lines = ["# " + " ".join(header)]
        for n in ns:
            at_n = [cell[(e, n)] for e in estimators]
            if not any(float(row["rmse"]) <= 0.0 for row in at_n):
                fields = [row[c] for row in at_n for c in columns.values()]
                lines.append(" ".join([str(n)] * by_n + fields))
        files[out_dir / f"{test}_i{input_index}_{args.axis}.dat"] = "\n".join(lines) + "\n"

    out_dir.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        path.write_text(text)
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolbench",
        description="Benchmark Monte Carlo / quasi-Monte Carlo estimators "
        "of Sobol' main-effect sensitivity indices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="print index estimates for one run")
    p_est.add_argument("--test", required=True, help="one of: " + ", ".join(TEST_CASE_NAMES))
    p_est.add_argument(
        "--estimators",
        required=True,
        help="comma-separated subset of: " + ", ".join(k.value for k in EstimatorKind),
    )
    p_est.add_argument("--sampler", required=True, help="MC or QMC")
    p_est.add_argument("--n", required=True, type=int, help="sample count N")
    p_est.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p_est.add_argument("--run-index", type=int, default=0)
    p_est.add_argument("--bins", type=int, default=None, help="bin count override (dlr only)")
    p_est.set_defaults(func=cmd_estimate)

    p_bench = sub.add_parser("bench", help="run a benchmark config, write CSV outputs")
    p_bench.add_argument("--config", required=True, help="key=value config file")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.set_defaults(func=cmd_bench)

    p_plot = sub.add_parser("plotdata", help="records.csv -> plot-ready .dat files")
    p_plot.add_argument("records", help="records.csv written by bench")
    p_plot.add_argument("--axis", choices=["N", "N_CPU"], default="N")
    p_plot.add_argument("--out", default=".", help="output directory")
    p_plot.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.func(args)
    except IncompatibleModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
