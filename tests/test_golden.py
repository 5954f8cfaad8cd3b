"""Golden records: one pinned SHA-256 of records.csv per (model, sampler).

Every model runs every estimator that applies to it (DLR alone on the
dependent-input models) on a small ladder, p = 4..7 with K = 3 on one
thread, under both samplers.  Two longer ladders, p = 6..9, reduce cells of
more than 128 rows, where numpy's pairwise sum splits a cell in halves;
they run again in chunks of 128 rows, so that their longer cells span
several chunks.  A change that alters any byte of the records fails here
and has to update the pinned hash on purpose, with its argument.
The hashes hold for the numpy and scipy versions pinned below, and for
numpy's SIMD dispatch on the CPU (see README); under other versions the
last digits of the transforms may differ, so the test is skipped.
"""

import hashlib

import numpy as np
import pytest
import scipy

from sobolbench import harness
from sobolbench.cli import write_records_csv
from sobolbench.estimators import EstimatorKind
from sobolbench.harness import BenchmarkConfig, run_benchmark
from sobolbench.models import TEST_CASE_NAMES, build

PINNED_VERSIONS = ("2.4.6", "1.17.1")

GOLDEN = {
    ("Linear4", "MC"): (
        "bf2367d6e06f16668a1478e98d4d94785c9206ad48cdbdb6c508cb742b75c751"
    ),
    ("Linear4", "QMC"): (
        "e647caceffa86bb784542735eddad12da4fef3db11ebfe2570f17020e78d036b"
    ),
    ("ParkAhn7", "MC"): (
        "1e5b42e6e1df5f9826b7b6306c02fb9d20186053643ed0e4fca6a032ea479379"
    ),
    ("ParkAhn7", "QMC"): (
        "c796b28b2b2b90c3fc1498cb9d8a8b6d983c20f0ba1842f009fa2dbaf7437c2a"
    ),
    ("Ishigami", "MC"): (
        "5d95e13b0b1c2d9b596f30cd67511f494b880fd919d803f162936a20c0838f3a"
    ),
    ("Ishigami", "QMC"): (
        "4e6af73c285d584a245248d36a14e059345d5ffc235b1db90bbb633f3411af98"
    ),
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
    ("ParkAhn7", "MC"): (
        "d10f0bb40a30e2cc979c96e79d14a954e7993abbff5863ad5ef110535359c1c9"
    ),
}

pinned = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != PINNED_VERSIONS,
    reason=f"golden hashes are pinned for numpy, scipy {PINNED_VERSIONS}",
)


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
    digest = _records_sha256(tmp_path, test, kinds, sampler, 4, 7)
    assert digest == GOLDEN[(test, sampler)]


@pinned
@pytest.mark.parametrize("test,sampler", sorted(GOLDEN_LONG))
def test_long_ladder_records_match_golden_hash(tmp_path, test, sampler):
    digest = _records_sha256(tmp_path, test, tuple(EstimatorKind), sampler, 6, 9)
    assert digest == GOLDEN_LONG[(test, sampler)]


@pinned
@pytest.mark.parametrize("test,sampler", sorted(GOLDEN_LONG))
def test_long_ladder_in_chunks_of_128_rows_matches_golden_hash(
    tmp_path, monkeypatch, test, sampler
):
    # each 512-row top-rung set drawn, evaluated and reduced in 4 chunks,
    # its cells of 256 and 512 rows summed from their chunks' sums (and
    # DLR's from copies of A and fA), writes the same records
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 128)
    digest = _records_sha256(tmp_path, test, tuple(EstimatorKind), sampler, 6, 9)
    assert digest == GOLDEN_LONG[(test, sampler)]
