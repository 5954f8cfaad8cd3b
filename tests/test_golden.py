"""Golden records: one pinned SHA-256 of records.csv per (model, sampler).

Every model runs every estimator that applies to it (DLR alone on the
dependent-input models) on a small ladder, p = 4..7 with K = 3 on one
thread, under both samplers.  Two longer ladders, p = 6..9, reduce cells of
more than 128 rows, where numpy's pairwise sum splits a cell in halves;
they run again in chunks of 128 rows, so that their longer cells span
several chunks.  A change that alters any byte of the records fails here
and has to update the pinned hash on purpose, with its argument.
The hashes hold for the numpy and scipy versions pinned below, and for
numpy's SIMD dispatch level on the CPU (see README); under other versions
the last digits of the transforms may differ, so the test is skipped.
Where the levels give different records, each level's hash is pinned,
and a level without one is skipped.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

from sobolbench import estimators, harness
from sobolbench.cli import write_records_csv
from sobolbench.estimators import EstimatorKind
from sobolbench.harness import BenchmarkConfig, run_benchmark
from sobolbench.models import TEST_CASE_NAMES, build

PINNED_VERSIONS = ("2.4.6", "1.17.1")

# numpy's SIMD dispatch targets on this CPU, which manifest.json records as
# numpy_simd.  numpy's AVX-512 (x86-64-v4) exp and power loops differ in
# the last bit from its AVX2 (x86-64-v3) ones, which Ishigami's x ** 4 and
# ParkAhn7's lognormal inputs use, so the level is the highest x86-64 one.
FOUND = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
LEVEL = next((v for v in ("X86_V4", "X86_V3") if v in FOUND), " ".join(FOUND))
AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

GOLDEN = {
    ("Linear4", "MC"): (
        "bf2367d6e06f16668a1478e98d4d94785c9206ad48cdbdb6c508cb742b75c751"
    ),
    ("Linear4", "QMC"): (
        "e647caceffa86bb784542735eddad12da4fef3db11ebfe2570f17020e78d036b"
    ),
    ("ParkAhn7", "MC"): {
        "X86_V4": "1e5b42e6e1df5f9826b7b6306c02fb9d20186053643ed0e4fca6a032ea479379",
        "X86_V3": "7a4f4daa352941b1af5a10988e2e94caa35c26742fc0da70cb07bcd579af1c55",
    },
    ("ParkAhn7", "QMC"): {
        "X86_V4": "c796b28b2b2b90c3fc1498cb9d8a8b6d983c20f0ba1842f009fa2dbaf7437c2a",
        "X86_V3": "845305449f5f2a34763a9b160939a1a72299420d43ef82584944bb806cb73cf7",
    },
    ("Ishigami", "MC"): {
        "X86_V4": "5d95e13b0b1c2d9b596f30cd67511f494b880fd919d803f162936a20c0838f3a",
        "X86_V3": "6198d3877dafb9ae668f2384b939d7269ce70d4f7086b1f84d7393f516d57ad6",
    },
    ("Ishigami", "QMC"): {
        "X86_V4": "4e6af73c285d584a245248d36a14e059345d5ffc235b1db90bbb633f3411af98",
        "X86_V3": "09d7faabec2e1a0b9a185d8c34fee20b1d702c0527cfdd769177ebcf676bb4cb",
    },
    ("GFunc10A", "MC"): (
        "39278c9ec2fb0fe002fc26e84769d1ed44302da1892a98c596336bcbd006371f"
    ),
    ("GFunc10A", "QMC"): (
        "81ca6a3f2a137b1770b7e63979474e6ba957f483f05541b381e6e5b3a5d647de"
    ),
    ("GFunc10B", "MC"): (
        "3f0e804b032c987e37fbc3e66b1be23eb297dffd95e3d01335005b5e4aa0ee74"
    ),
    ("GFunc10B", "QMC"): (
        "644a852735adb042a7c43391315dc189fdd116c0c9d718552015427a713df40b"
    ),
    ("DepQuad4", "MC"): (
        "c55c7491e98df8d14afcee7501267e63330c73fd5238f375783bdaf9a6ae5b33"
    ),
    ("DepQuad4", "QMC"): (
        "904cb0cd2f89801b2e6171aa73e17e0e98142e40b31a34d34574f7288cbca228"
    ),
    ("DepLinear3", "MC"): (
        "11db407d63bfeb43ad1b135529f3e2a6e7a2627a460e3cf3fe7b1ce59c3e1ef2"
    ),
    ("DepLinear3", "QMC"): (
        "a085738eec52f74c9aca4d05e39af4711f575f9a9af45d2503642f070a462dcb"
    ),
}

# All five estimators, p = 6..9, K = 3.
GOLDEN_LONG = {
    ("GFunc10A", "QMC"): (
        "71e02d9c31c567f5008fda7880a7893e8850fa0b1e34e7ed36b029cbf662737b"
    ),
    ("ParkAhn7", "MC"): {
        "X86_V4": "d10f0bb40a30e2cc979c96e79d14a954e7993abbff5863ad5ef110535359c1c9",
        "X86_V3": "804c61493973a3aef237cbd1bee9abce3850b3df1dc5145e8e8d7aadeb9e1579",
    },
}

pinned = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != PINNED_VERSIONS,
    reason=f"golden hashes are pinned for numpy, scipy {PINNED_VERSIONS}",
)


def _pinned_digest(digests):
    """The hash pinned for this host's SIMD level, or a skip without one."""
    if isinstance(digests, str):
        return digests
    if LEVEL not in digests:
        pytest.skip(f"no golden hash pinned for numpy SIMD level {LEVEL}")
    return digests[LEVEL]


def _records_sha256(tmp_path, test, kinds, sampler, p_min, p_max):
    cfg = BenchmarkConfig(
        test=test, estimators=kinds, sampler=sampler, p_min=p_min, p_max=p_max, k=3
    )
    path = tmp_path / "records.csv"
    write_records_csv(path, run_benchmark(cfg, threads=1))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pinned
@pytest.mark.parametrize("sampler", ["MC", "QMC"])
@pytest.mark.parametrize("test", TEST_CASE_NAMES)
def test_records_match_golden_hash(tmp_path, test, sampler):
    model = build(test)
    kinds = (
        (EstimatorKind.DLR,) if model.has_dependent_inputs else tuple(EstimatorKind)
    )
    want = _pinned_digest(GOLDEN[(test, sampler)])
    assert _records_sha256(tmp_path, test, kinds, sampler, 4, 7) == want


@pinned
@pytest.mark.parametrize("test,sampler", sorted(GOLDEN_LONG))
def test_long_ladder_records_match_golden_hash(tmp_path, test, sampler):
    want = _pinned_digest(GOLDEN_LONG[(test, sampler)])
    assert _records_sha256(tmp_path, test, tuple(EstimatorKind), sampler, 6, 9) == want


@pinned
@pytest.mark.parametrize("test,sampler", sorted(GOLDEN_LONG))
def test_long_ladder_in_chunks_of_128_rows_matches_golden_hash(
    tmp_path, monkeypatch, test, sampler
):
    # each 512-row top-rung set drawn, evaluated and reduced in 4 chunks of
    # 128 rows (the least a chunk takes, under a budget of no bytes), its
    # cells of 256 and 512 rows summed from leaves of one chunk each,
    # writes the same records
    want = _pinned_digest(GOLDEN_LONG[(test, sampler)])
    draws, draw = [], estimators.generate_uniform

    def counted_draw(spec, n, dims, start, stop):
        draws.append((spec.run_index, start, stop))
        return draw(spec, n, dims, start, stop)

    monkeypatch.setattr(harness, "_CHUNK_BYTES", 0)
    monkeypatch.setattr(estimators, "generate_uniform", counted_draw)
    assert _records_sha256(tmp_path, test, tuple(EstimatorKind), sampler, 6, 9) == want
    assert draws == [(k, r, r + 128) for k in range(3) for r in range(0, 512, 128)]


@pinned
@pytest.mark.skipif(LEVEL != "X86_V4", reason="needs AVX-512 dispatch to turn off")
def test_golden_hashes_hold_without_avx512_dispatch():
    # with numpy's AVX-512 targets off for one process, as on a CPU without
    # them, every other test here passes at level X86_V3, none skipped
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not without_avx512"],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX512},
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout
    assert "skipped" not in out.stdout and " passed" in out.stdout, out.stdout
