"""Command-line interface: exit codes, CSV outputs, plot-data layouts."""

import csv
import dataclasses
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, strategies as st

from sobolbench import cli
from sobolbench.cli import main, parse_config
from sobolbench.estimators import EstimatorKind
from sobolbench.harness import BenchmarkConfig, estimate_cell, run_benchmark
from sobolbench.models import TEST_CASE_NAMES, build
from sobolbench.sampling import SamplerSpec

TINY_CONFIG = """\
# smallest useful ladder
test = Linear4
estimators = sk, dlr
sampler = QMC
p_min = 8
p_max = 11
K = 3
"""


def write_config(tmp_path, text=TINY_CONFIG, name="bench.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults_and_values():
    cfg = parse_config(TINY_CONFIG)
    assert cfg.test.value == "Linear4"
    assert cfg.estimators == (EstimatorKind.SK, EstimatorKind.DLR)
    assert (cfg.p_min, cfg.p_max, cfg.k) == (8, 11, 3)
    assert cfg.master_seed == 123456789  # documented default
    assert cfg.bin_override is None
    assert cfg.fit_window == "upper"


def test_parse_config_k_defaults_to_ten():
    text = "test=Ishigami\nestimators=dlr\nsampler=MC\np_min=8\np_max=12\n"
    cfg = parse_config(text)
    assert cfg.k == 10
    assert cfg.sampler == "MC"


def test_parse_config_optional_keys():
    text = (
        "test=Linear4\nestimators=dlr\nsampler=QMC\np_min=8\np_max=12\n"
        "master_seed=42\nbin_override=64\nfit_window=full\n"
    )
    cfg = parse_config(text)
    assert cfg.master_seed == 42
    assert cfg.bin_override == 64
    assert cfg.fit_window == "full"
    assert parse_config(text.replace("=64", "=none")).bin_override is None


@pytest.mark.parametrize(
    "text,diag",
    [
        ("estimators=sk\nsampler=QMC\np_min=8\np_max=9\n", "missing required key 'test'"),
        ("test=Linear4\nestimators=sk\nsampler=QMC\np_min=8\nbogus\np_max=9\n", "line 5"),
        ("test=Linear4\nestimators=sk\nsampler=QMC\np_min=8\np_max=9\nwidth=3\n", "unknown key"),
        ("test=Nope\nestimators=sk\nsampler=QMC\np_min=8\np_max=9\n", "unknown test"),
        ("test=Linear4\nestimators=sk,magic\nsampler=QMC\np_min=8\np_max=9\n", "unknown estimator"),
        ("test=Linear4\nestimators=sk\nsampler=QMC\np_min=eight\np_max=9\n", "integer"),
        ("test=Linear4\ntest=Ishigami\nestimators=sk\nsampler=QMC\np_min=8\np_max=9\n", "duplicate"),
        ("test=Linear4\nestimators=\nsampler=QMC\np_min=8\np_max=9\n", "empty value"),
        (
            "test=Linear4\nestimators=sk,dlr,sk\nsampler=QMC\np_min=8\np_max=9\n",
            "line 2: repeated estimator 'sk'",
        ),
        (
            "test=Linear4\nestimators=sk\nsampler=MC\np_min=8\np_max=9\n"
            "master_seed=18446744073709551616\n",
            "outside",
        ),
    ],
)
def test_parse_config_diagnostics(text, diag):
    with pytest.raises(ValueError, match=diag):
        parse_config(text)


@st.composite
def configs(draw):
    estimators = tuple(
        draw(st.lists(st.sampled_from(EstimatorKind), min_size=1, unique=True))
    )
    # A QMC ladder's K top-rung runs must fit in the 2^32-point Sobol'
    # period, so its p_max is at most 30 and K * 2^p_max below 2^32; an MC
    # ladder's N = 2^p_max must be an array length, so p_max is at most 62.
    sampler = draw(st.sampled_from(["MC", "QMC"]))
    p_cap = 30 if sampler == "QMC" else 62
    # dlr's default bin schedule needs N = 2^p_min >= 4; a bin_override
    # needs dlr and must split N = 2^p_min into bins of at least 2 points.
    dlr = EstimatorKind.DLR in estimators
    if dlr and draw(st.booleans()):
        p_min = draw(st.integers(2, p_cap))
        bin_override = 2 ** draw(st.integers(1, p_min - 1))
    else:
        p_min, bin_override = draw(st.integers(2 if dlr else 1, p_cap)), None
    p_max = draw(st.integers(p_min, p_cap))
    return BenchmarkConfig(
        test=draw(st.sampled_from(TEST_CASE_NAMES)),
        estimators=estimators,
        sampler=sampler,
        p_min=p_min,
        p_max=p_max,
        k=draw(st.integers(2, ((1 << 32) - 1) >> p_max if sampler == "QMC" else None)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        bin_override=bin_override,
        fit_window=draw(st.sampled_from(["upper", "full"])),
    )


@given(configs())
def test_parse_config_round_trips_manifest_block(cfg):
    # the manifest's config block, written back as a config file
    lines = []
    for key, value in cli.config_block(cfg).items():
        if isinstance(value, list):
            value = ", ".join(value)
        lines.append(f"{key} = {'none' if value is None else value}")
    assert parse_config("\n".join(lines)) == cfg


# ---------------------------------------------------------------------------
# estimate command


def test_estimate_happy_path(capsys):
    code = main(
        [
            "estimate", "--test", "Ishigami", "--estimators", "sk,dlr",
            "--sampler", "QMC", "--n", "16384",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "estimator sk" in out and "estimator dlr" in out
    assert "81920 model evaluations" in out  # N(d+2) for d=3
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("3 ")]
    for line in lines:  # vanishing-input row shows analytic 0 and small error
        fields = line.split()
        assert float(fields[2]) == 0.0
        assert abs(float(fields[1])) < 0.01


@pytest.mark.parametrize("sampler", ["QMC", "MC"])
def test_estimate_shared_run_prints_standalone_tables(sampler, capsys, monkeypatch):
    # the estimators share one evaluation set, yet each table, and its
    # nominal evaluation count, reads as if the estimator ran alone
    def run(estimators):
        argv = ["estimate", "--test", "Ishigami", "--estimators", estimators,
                "--sampler", sampler, "--n", "256"]
        assert main(argv) == 0
        # tables only: the header line, blank lines and the footnote on
        # negative estimates appear once per command
        lines = capsys.readouterr().out.splitlines()[1:]
        return [ln for ln in lines if ln and "negative estimate" not in ln]

    kinds = [k.value for k in EstimatorKind]
    alone = [ln for k in kinds for ln in run(k)]
    calls = []
    model = cli.build("Ishigami")

    def counted_f(x):
        calls.append(len(x))
        return model.f(x)

    monkeypatch.setattr(cli, "build", lambda t: dataclasses.replace(model, f=counted_f))
    assert run(",".join(kinds)) == alone
    # d = 3: 2d + 2 = 8 calls under either sampler
    assert len(calls) == 8
    assert "estimator sobol: 1024 model evaluations" in alone  # N(d+1)


def test_estimate_negative_marker(capsys):
    code = main(
        [
            "estimate", "--test", "Ishigami", "--estimators", "sobol",
            "--sampler", "MC", "--n", "64", "--seed", "12345", "--run-index", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "*" in out and "negative estimate" in out


def test_estimate_oracle_reports_f0_source(capsys, monkeypatch):
    args = [
        "estimate", "--test", "GFunc10A", "--estimators", "oracle",
        "--sampler", "QMC", "--n", "1024",
    ]
    # the oracle reads the model's exact mean: its table counts N(d+2) and
    # needs no line on where f0 came from
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "estimator oracle: 12288 model evaluations" in out and "f0" not in out
    # a model without an exact mean is refused before any output or model call
    calls = []
    base = cli.build("GFunc10A")

    def counted_f(x):
        calls.append(len(x))
        return base.f(x)

    model = dataclasses.replace(base, f=counted_f, analytic_f0=None)
    monkeypatch.setattr(cli, "build", lambda t: model)
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and "exact mean" in err and calls == []


def test_estimate_unknown_names_are_usage_errors(capsys):
    assert main(["estimate", "--test", "Nope", "--estimators", "sk",
                 "--sampler", "QMC", "--n", "64"]) == 2
    assert main(["estimate", "--test", "Linear4", "--estimators", "magic",
                 "--sampler", "QMC", "--n", "64"]) == 2
    capsys.readouterr()
    assert main(["estimate", "--test", "Linear4", "--estimators", "sk",
                 "--sampler", "QMC", "--n", "1000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be a power of two, got n=1000" in err
    assert main(["estimate", "--test", "Linear4", "--estimators", "sk,sk",
                 "--sampler", "QMC", "--n", "64"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "repeated estimator 'sk'" in err
    assert main(["estimate", "--test", "Ishigami", "--estimators", "dlr",
                 "--sampler", "QMC", "--n", "256", "--bins", "0"]) == 2
    assert "bin count 0 must be at least 2" in capsys.readouterr().err
    assert main(["estimate", "--test", "Linear4", "--estimators", "sk",
                 "--sampler", "QMC", "--n", "64", "--bins", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "applies only to the dlr estimator" in err
    assert main(["estimate", "--test", "Linear4", "--estimators", "sk,dlr",
                 "--sampler", "QMC", "--n", "64", "--bins", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bin count 3 does not divide sample count 64" in err
    assert main(["estimate", "--test", "Linear4", "--estimators", "sk",
                 "--sampler", "MC", "--n", "64", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "seed -1 is outside [0, 2^64)" in err


@pytest.mark.parametrize(
    "test,estimators,library,message",
    [
        (
            "Nope", "sk", lambda: build("Nope"),
            f"unknown test 'Nope' (valid: {', '.join(TEST_CASE_NAMES)})",
        ),
        (
            "Linear4", "sk,magic", lambda: EstimatorKind("magic"),
            "unknown estimator 'magic' (valid: sobol, sk, owen, oracle, dlr)",
        ),
        (
            "Linear4", ",",
            lambda: estimate_cell(build("Linear4"), (), 64, SamplerSpec("QMC")),
            "at least one estimator is required",
        ),
        (
            "Linear4", "sk,dlr,sk",
            lambda: estimate_cell(
                build("Linear4"),
                (EstimatorKind.SK, EstimatorKind.DLR, EstimatorKind.SK),
                64,
                SamplerSpec("QMC"),
            ),
            "repeated estimator 'sk'",
        ),
    ],
    ids=["unknown-test", "unknown-estimator", "empty-list", "repeated-estimator"],
)
def test_name_rules_give_one_message_on_every_path(
    test, estimators, library, message, capsys
):
    # the library refuses each name rule in one place; a config adds only
    # its line number and the command line only its exit code
    def refusal(call):
        with pytest.raises(ValueError) as refused:
            call()
        return str(refused.value)

    names = [e for e in estimators.split(",") if e]
    assert refusal(library) == message
    assert refusal(
        lambda: BenchmarkConfig(
            test=test, estimators=names, sampler="QMC", p_min=8, p_max=9
        )
    ) == message
    text = f"test={test}\nestimators={estimators}\nsampler=QMC\np_min=8\np_max=9\n"
    line = 1 if test == "Nope" else 2
    assert refusal(lambda: parse_config(text)) == f"config line {line}: {message}"
    assert main(["estimate", "--test", test, "--estimators", estimators,
                 "--sampler", "QMC", "--n", "64"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_estimate_incompatible_model_exit_code(capsys):
    # a direct estimator listed after dlr still fails before any output
    for estimators, n in [("sobol", "1024"), ("dlr,sobol", "64")]:
        code = main(
            [
                "estimate", "--test", "DepQuad4", "--estimators", estimators,
                "--sampler", "QMC", "--n", n,
            ]
        )
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and "independent inputs" in err


def test_estimate_incompatible_model_makes_no_model_call(capsys, monkeypatch):
    # every estimator is checked before the cell draws or evaluates anything
    calls = []
    model = cli.build("DepQuad4")

    def counted_f(x):
        calls.append(len(x))
        return model.f(x)

    monkeypatch.setattr(cli, "build", lambda t: dataclasses.replace(model, f=counted_f))
    for extra, exit_code in (([], 3), (["--bins", "3"], 2)):
        code = main(
            [
                "estimate", "--test", "DepQuad4", "--estimators", "dlr,sobol",
                "--sampler", "QMC", "--n", "64", *extra,
            ]
        )
        assert code == exit_code
        assert capsys.readouterr().out == ""
    assert calls == []


def test_estimate_dlr_linear4(capsys):
    code = main(
        [
            "estimate", "--test", "Linear4", "--estimators", "dlr",
            "--sampler", "QMC", "--n", "16384",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [ln.split() for ln in out.splitlines() if ln.strip()[:1].isdigit()]
    assert len(rows) == 4
    assert all(float(r[3]) < 0.02 for r in rows)


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bench command


def test_bench_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SOBOLBENCH_THREADS", raising=False)
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()

    rows = read_csv(out_dir / "records.csv")
    assert rows[0] == [
        "test", "estimator", "sampler", "input", "N", "n_cpu_actual",
        "n_cpu_table1", "rmse", "mean_estimate", "analytic", "K",
    ]
    assert len(rows) - 1 == 2 * 4 * 4  # estimators x ladder x inputs
    body = rows[1:]
    assert {r[1] for r in body} == {"sk", "dlr"}
    assert all(r[2] == "QMC" and r[10] == "3" for r in body)
    for r in body:
        if r[1] == "dlr":
            assert r[4] == r[5] == r[6]
    rates = read_csv(out_dir / "rates.csv")
    assert rates[0] == [
        "test", "estimator", "sampler", "input", "axis", "alpha", "c", "r2",
        "n_points", "window",
    ]
    assert len(rates) - 1 == 2 * 4 * 2  # both axes per (estimator, input)
    assert all(float(r[5]) > 0.0 for r in rates[1:])

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["K"] == 3
    assert manifest["config"]["estimators"] == ["sk", "dlr"]
    assert manifest["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert manifest["artifacts"]["records"] == "records.csv"
    assert manifest["threads"] == 1
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__


def test_bench_reruns_byte_identical(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    rec_a = (tmp_path / "a" / "records.csv").read_bytes()
    rec_b = (tmp_path / "b" / "records.csv").read_bytes()
    assert rec_a == rec_b
    assert (tmp_path / "a" / "rates.csv").read_bytes() == (
        tmp_path / "b" / "rates.csv"
    ).read_bytes()


def test_bench_thread_env_var_keeps_output(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path)
    monkeypatch.setenv("SOBOLBENCH_THREADS", "4")
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "mt")]) == 0
    monkeypatch.delenv("SOBOLBENCH_THREADS")
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "st")]) == 0
    capsys.readouterr()
    assert (tmp_path / "mt" / "records.csv").read_bytes() == (
        tmp_path / "st" / "records.csv"
    ).read_bytes()


def test_bench_malformed_config_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, text="test=Linear4\nestimators=sk\nnonsense\n")
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_bench_qmc_ladder_past_sobol_period_exit_2(tmp_path, capsys, monkeypatch):
    # K * 2^p_max = 2^32 Sobol' points: refused with the config, before any
    # ladder runs or the output directory is made
    def never(*args, **kwargs):
        raise AssertionError("the ladder ran")

    monkeypatch.setattr(cli, "run_benchmark", never)
    cfg_path = write_config(
        tmp_path,
        text="test=Linear4\nestimators=sk\nsampler=QMC\np_min=8\np_max=22\nK=1024\n",
    )
    out_dir = tmp_path / "o"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert "period" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bench_missing_config_exit_4(tmp_path, capsys):
    code = main(["bench", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
    assert code == 4
    capsys.readouterr()


def test_bench_unwritable_output_exit_4(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["bench", "--config", str(cfg_path), "--out", str(blocker / "sub")])
    assert code == 4
    capsys.readouterr()


def test_bench_failed_write_keeps_previous_artifacts(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert set(before) == {"records.csv", "rates.csv", "manifest.json"}

    def fail(path, records, window):
        Path(path).write_text("partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_rates_csv", fail)
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
    assert "disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_bench_incompatible_pairing_exit_3(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        text="test=DepQuad4\nestimators=sobol\nsampler=QMC\np_min=8\np_max=11\nK=2\n",
    )
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_bench_fit_window_flag(tmp_path, capsys):
    # the fit window is set by the config key alone
    cfg_path = write_config(tmp_path, text=TINY_CONFIG + "fit_window = full\n")
    out_dir = tmp_path / "full"
    code = main(["bench", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    capsys.readouterr()
    rates = read_csv(out_dir / "rates.csv")
    assert all(r[9] == "full" for r in rates[1:])
    assert all(r[8] == "4" for r in rates[1:])


def test_write_rates_csv_skips_only_short_ladders(tmp_path, monkeypatch):
    # a curve whose ladder leaves fewer than 4 usable points is skipped;
    # any other refusal of the fit, an unknown window or axis, propagates
    records = run_benchmark(BenchmarkConfig(
        test="Linear4", estimators=("sk", "dlr"), sampler="QMC", p_min=4, p_max=7, k=2
    ))
    short_dlr = [r for r in records if r.estimator.value == "sk" or r.n < 128]
    path = tmp_path / "rates.csv"
    assert cli.write_rates_csv(path, short_dlr, "full") == 4 * 2
    assert {row[1] for row in read_csv(path)[1:]} == {"sk"}
    with pytest.raises(ValueError, match="unknown fit window 'bogus'"):
        cli.write_rates_csv(path, records, "bogus")
    fit_rate = cli.fit_rate
    monkeypatch.setattr(
        cli, "fit_rate", lambda group, axis, window: fit_rate(group, "n", window)
    )
    with pytest.raises(ValueError, match="unknown axis 'n'"):
        cli.write_rates_csv(path, records, "full")


# ---------------------------------------------------------------------------
# plotdata command


@pytest.fixture(scope="module")
def bench_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    cfg_path = tmp / "cfg"
    cfg_path.write_text(TINY_CONFIG)
    out_dir = tmp / "out"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    return out_dir


def test_plotdata_axis_n_layout(bench_output, tmp_path, capsys):
    records = bench_output / "records.csv"
    code = main(["plotdata", str(records), "--axis", "N", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    files = sorted(p.name for p in tmp_path.glob("*.dat"))
    assert files == [f"Linear4_i{i}_N.dat" for i in range(1, 5)]
    lines = (tmp_path / "Linear4_i1_N.dat").read_text().splitlines()
    assert lines[0] == "# N rmse_dlr rmse_sk"
    assert len(lines) == 1 + 4
    first = lines[1].split()
    assert first[0] == "256" and len(first) == 3
    assert all(float(v) > 0.0 for v in first[1:])


def test_plotdata_axis_ncpu_layout(bench_output, tmp_path, capsys):
    records = bench_output / "records.csv"
    code = main(["plotdata", str(records), "--axis", "N_CPU", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "Linear4_i2_N_CPU.dat").read_text().splitlines()
    assert lines[0] == "# n_cpu_dlr rmse_dlr n_cpu_sk rmse_sk"
    row = lines[1].split()
    assert row[0] == "256"  # DLR: N_CPU = N
    assert row[2] == str(256 * 6)  # S-K: N(d+2)
    assert len(lines) == 1 + 4


def test_plotdata_single_estimator_files_differ_only_in_abscissa(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        text="test=Ishigami\nestimators=dlr\nsampler=QMC\np_min=8\np_max=11\nK=2\n",
    )
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    plots = tmp_path / "plots"
    records = out_dir / "records.csv"
    assert main(["plotdata", str(records), "--axis", "N", "--out", str(plots)]) == 0
    assert main(["plotdata", str(records), "--axis", "N_CPU", "--out", str(plots)]) == 0
    capsys.readouterr()
    # DLR evaluates N points, so the two axes carry identical data rows
    n_rows = (plots / "Ishigami_i1_N.dat").read_text().splitlines()[1:]
    cpu_rows = (plots / "Ishigami_i1_N_CPU.dat").read_text().splitlines()[1:]
    assert n_rows == cpu_rows


def test_plotdata_incomplete_grid_writes_no_file(bench_output, tmp_path, capsys):
    # the grid check fails only at input 3; the files of inputs 1 and 2
    # must not be left behind
    header, *rows = read_csv(bench_output / "records.csv")
    at = {name: header.index(name) for name in ("estimator", "input", "N")}
    dropped = next(
        r for r in rows
        if (r[at["estimator"]], r[at["input"]], r[at["N"]]) == ("sk", "3", "256")
    )
    bad = tmp_path / "records.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [header, *(r for r in rows if r is not dropped)]
        )
    plots = tmp_path / "plots"
    assert main(["plotdata", str(bad), "--out", str(plots)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "input 3 estimator sk lacks N=256" in err
    assert list(plots.glob("*.dat")) == []


def test_plotdata_missing_columns_exit_2(tmp_path, capsys):
    bad = tmp_path / "records.csv"
    bad.write_text("test,estimator,input\nLinear4,sk,1\n")
    assert main(["plotdata", str(bad), "--out", str(tmp_path)]) == 2
    assert "missing columns" in capsys.readouterr().err


def test_plotdata_missing_file_exit_4(tmp_path, capsys):
    assert main(["plotdata", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 4
    capsys.readouterr()
