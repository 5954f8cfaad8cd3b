"""The public API examples: README's "Library use" and config blocks, and the demo."""

import importlib
import pkgutil
import re
import runpy
import shutil
from pathlib import Path

import numpy as np

import sobolbench
from sobolbench.cli import RATES_HEADER, RECORDS_HEADER, config_block, parse_config

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    # the package's and each submodule's __all__ name only what they hold
    modules = [sobolbench] + [
        importlib.import_module(f"sobolbench.{m.name}")
        for m in pkgutil.iter_modules(sobolbench.__path__)
        if not m.name.startswith("_")  # __main__ runs the command line
    ]
    for module in modules:
        names = getattr(module, "__all__", [])
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(names)) == len(names), module.__name__


def test_readme_library_example_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    # Ishigami's analytic main effects: 0.3139, 0.4424, 0
    s_hat = [float(row[1]) for row in rows]
    assert np.allclose(s_hat, [0.3139, 0.4424, 0.0], atol=0.01)


def test_readme_config_block_names_every_key():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    cfg = parse_config(block)
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    keys = {line.split("=", 1)[0].strip() for line in lines if "=" in line}
    assert keys == set(config_block(cfg))


def test_readme_csv_headers_match_writers():
    text = (ROOT / "README.md").read_text()
    headers = re.findall(r"`(test,estimator,[^`]*)`", text)
    assert headers == [",".join(RECORDS_HEADER), ",".join(RATES_HEADER)]


def test_estimate_indices_demo_runs(capsys):
    # the demo sets numpy print options; the context restores them
    with np.printoptions():
        runpy.run_path(str(ROOT / "demos" / "estimate_indices.py"))
    out = capsys.readouterr().out
    for kind in ("sk", "owen", "dlr"):
        assert f"  {kind:6s} S_hat = " in out
    assert "DepLinear3: correlated Gaussian inputs" in out
    assert [line.split()[1] for line in out.splitlines() if "  input " in line] == [
        "1:", "2:", "3:"
    ]


def test_convergence_study_demo_runs(tmp_path, capsys):
    # the demo writes its .dat files next to itself, so run a copy
    demo = shutil.copy(ROOT / "demos" / "convergence_study.py", tmp_path)
    runpy.run_path(str(demo))
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    fits = [row[:2] for row in rows if len(row) == 4 and row[1].isdigit()]
    kinds = ("dlr", "sk", "sobol")
    assert fits == [[kind, str(i)] for kind in kinds for i in range(1, 5)]
    assert sorted(p.name for p in tmp_path.glob("*.dat")) == [
        f"linear4_i{i}.dat" for i in range(1, 5)
    ]
