"""Point-set generation and distribution transforms.

Two samplers are provided: pseudo-random (``MC``, PCG64) and the Sobol'
low-discrepancy sequence (``QMC``, Gray-code construction over the bundled
direction-number table, read one byte of the Gray-code index at a time through
lookup tables cached per dimension count).  Unit samples map to model space
through independent marginals or a Gaussian covariance (Cholesky); normal
quantiles are ``scipy.special.ndtri``, imported on first use.  Both samplers
return column-major draws; QMC builds its draw in blocks of rows.

Generator conventions
---------------------
* The all-zeros Sobol' element is skipped: sequence index 1 is the first
  returned point, so every returned coordinate is strictly positive and the
  inverse-CDF transforms are well defined.
* A QMC run with ``run_index = k`` returns a contiguous block of sequence
  elements, starting at the raw index :func:`_replicate_layout` gives;
  distinct runs use disjoint parts of the sequence.
* An MC run seeds one PCG64 stream with :func:`mix_seed` of its seed and
  run index; column ``c`` of the ``n x dims`` draw is the first ``n`` values
  of that stream jumped ``c`` times (``PCG64.jumped(c)``).  So an MC draw
  is the leading rows and columns of any longer, wider draw of the same
  run, as a QMC draw is the leading columns of a wider one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from ._directions import MAX_DIM, MAXBIT, direction_vectors

__all__ = [
    "SOBOL_PERIOD",
    "UnitPointSet",
    "SamplerSpec",
    "Uniform",
    "Normal",
    "Lognormal",
    "CovarianceSpec",
    "generate_uniform",
    "mix_seed",
    "cholesky_lower",
    "transform_independent",
    "transform_correlated_normal",
]

# Raw Sobol' sequence indices lie in [0, 2^32); index 0 is never returned.
SOBOL_PERIOD = 1 << MAXBIT

# Rows _sobol_raw builds row-major, scales and copies at a time into its
# column-major result: one cast-and-transpose ufunc call is 3-4x slower, and
# the block's temporaries (12 bytes a coordinate) stay small beside the draw.
_SOBOL_BLOCK_ROWS = 2048


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of ``u``, importing ``scipy.special`` only here:
    that costs about 0.2 s and 26 MB, and Uniform-only models never need it."""
    from scipy.special import ndtri
    return ndtri(u)


@dataclass(frozen=True)
class UnitPointSet:
    """n points in the half-open unit cube [0,1)^dims."""

    n: int
    dims: int
    values: np.ndarray

    def __post_init__(self):
        if self.n <= 0 or self.dims <= 0:
            raise ValueError("n and dims must be positive")
        if self.values.shape != (self.n, self.dims):
            raise ValueError("values shape does not match (n, dims)")


@dataclass(frozen=True)
class SamplerSpec:
    """Which stream of points to draw.

    kind      : "MC" or "QMC"
    seed      : 64-bit seed (MC only)
    run_index : block selector; QMC run k uses a disjoint slice of the
                sequence, MC runs derive per-run seeds from (seed, k)
    """

    kind: str
    seed: int = 0
    run_index: int = 0

    def __post_init__(self):
        if self.kind not in ("MC", "QMC"):
            raise ValueError(f"unknown sampler kind {self.kind!r} (use MC or QMC)")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} is outside [0, 2^64)")
        if self.run_index < 0:
            raise ValueError("run_index must be nonnegative")


def mix_seed(master_seed: int, run_index: int) -> int:
    """Derive the per-run 64-bit seed as output ``run_index`` of a splitmix64
    stream started at ``master_seed``."""
    mask = 0xFFFFFFFFFFFFFFFF
    z = (master_seed + (run_index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _replicate_layout(
    kind: str, run: int, n: int, n_top: int
) -> tuple[int, int, int]:
    """(start, top, row): run ``run`` of n points is rows ``row`` onward of run
    ``top`` of ``n_top`` points (a multiple of n), and starts at index ``start``.

    QMC run k is the Sobol' block ``[1 + k*n, 1 + (k+1)*n)``, past the skipped
    index 0; MC run k is the leading values of run k's own streams.
    """
    if kind != "QMC":
        return 0, run, 0
    top, row = divmod(run * n, n_top)
    return 1 + top * n_top + row, top, row


@functools.cache
def _gray_byte_tables(dims: int) -> np.ndarray:
    """The (MAXBIT/8, 256, dims) uint32 tables of _sobol_raw, cached per dims.

    ``T[c, b]`` is the XOR of the direction vectors ``V[8c + j]`` over the set
    bits ``j`` of the byte value ``b``; each table is filled by doubling,
    ``T[c, 2^j : 2^(j+1)] = T[c, :2^j] ^ V[8c + j]``.
    """
    V = direction_vectors(dims)
    tables = np.zeros((MAXBIT // 8, 256, dims), dtype=np.uint32)
    for c in range(MAXBIT // 8):
        for j in range(8):
            tables[c, 1 << j : 2 << j] = tables[c, : 1 << j] ^ V[8 * c + j]
    return tables


def _sobol_raw(start: int, n: int, dims: int) -> np.ndarray:
    """Sobol' elements with raw sequence indices [start, start + n), column-major.

    Direct Gray-code construction: element i is the XOR of the direction
    vectors selected by the set bits of gray(i) = i ^ (i >> 1).  The XOR is
    taken a byte of gray(i) at a time, as
    ``T[0][g & 255] ^ T[1][(g >> 8) & 255] ^ T[2][...] ^ T[3][...]`` over the
    tables of :func:`_gray_byte_tables`, into a uint32 block of
    ``_SOBOL_BLOCK_ROWS`` rows; a byte that is zero for the whole block
    contributes nothing and is skipped.  XOR is exact, so the grouping gives
    the same bits as one pass per direction vector.
    """
    if start + n > SOBOL_PERIOD:
        raise ValueError("sequence index exceeds the 2^32 generator period")
    tables = _gray_byte_tables(dims)
    idx = np.arange(start, start + n, dtype=np.uint32)
    gray = idx ^ (idx >> np.uint32(1))
    out = np.empty((n, dims), order="F")
    for lo in range(0, n, _SOBOL_BLOCK_ROWS):
        g = gray[lo : lo + _SOBOL_BLOCK_ROWS]
        block = np.zeros((len(g), dims), dtype=np.uint32)
        for c, table in enumerate(tables):
            byte = (g >> np.uint32(8 * c)) & np.uint32(0xFF)
            if byte.any():
                block ^= np.take(table, byte, axis=0)
        np.copyto(out[lo : lo + len(g)], block * 2.0**-MAXBIT)
    return out


def generate_uniform(spec: SamplerSpec, n: int, dims: int) -> UnitPointSet:
    """Draw n points in [0,1)^dims from the stream described by ``spec``.

    QMC requires n to be a power of two and dims within the bundled
    direction-number table; results are deterministic functions of the spec.
    """
    if n <= 0 or dims <= 0:
        raise ValueError("n and dims must be positive")
    if dims > MAX_DIM:
        raise ValueError(
            f"dims={dims} exceeds the bundled direction-number table (max {MAX_DIM})"
        )
    if spec.kind == "QMC":
        if n & (n - 1) != 0:
            raise ValueError(f"QMC sample count must be a power of two, got n={n}")
        values = _sobol_raw(_replicate_layout("QMC", spec.run_index, n, n)[0], n, dims)
    else:
        stream = np.random.PCG64(mix_seed(spec.seed, spec.run_index))
        values = np.empty((n, dims), order="F")
        for c in range(dims):
            np.random.Generator(stream.jumped(c)).random(out=values[:, c])
    return UnitPointSet(n=n, dims=dims, values=values)


# ---------------------------------------------------------------------------
# Marginals

@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("Uniform requires b > a")

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        x = (self.b - self.a) * u
        x += self.a
        return x


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("Normal requires sigma > 0")

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        z = _ndtri(u)
        z *= self.sigma
        z += self.mu
        return z


@dataclass(frozen=True)
class Lognormal:
    """Lognormal marginal x = exp(ln(median) + sigma * z), z standard normal.

    ``sigma`` is the standard deviation of ln x.
    """

    median: float
    sigma: float

    def __post_init__(self):
        if not self.median > 0:
            raise ValueError("Lognormal requires median > 0")
        if not self.sigma > 0:
            raise ValueError("Lognormal requires sigma > 0")

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        # In place, in the operation order of exp(ln(median) + sigma * ndtri(u)).
        z = _ndtri(u)
        z *= self.sigma
        z += float(np.log(self.median))
        return np.exp(z, out=z)

    def moments(self) -> tuple[float, float]:
        """Exact (E[x], E[x^2])."""
        mu, sigma = float(np.log(self.median)), self.sigma
        e1 = float(np.exp(mu + 0.5 * sigma**2))
        e2 = float(np.exp(2.0 * mu + 2.0 * sigma**2))
        return e1, e2


Marginal = Union[Uniform, Normal, Lognormal]


@dataclass(frozen=True)
class CovarianceSpec:
    """Mean vector and covariance matrix of a jointly Gaussian input block."""

    mean: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "matrix", matrix)
        d = mean.shape[0]
        if matrix.shape != (d, d):
            raise ValueError("covariance matrix shape does not match mean length")
        if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
            raise ValueError("covariance matrix must be symmetric")

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def cholesky_lower(cov: CovarianceSpec) -> np.ndarray:
    """Lower-triangular L with L @ L.T equal to the covariance matrix.

    Rolled out by hand (vs. calling a library routine) so that a
    non-positive-definite matrix is rejected naming the failing pivot,
    which is the actionable diagnostic when a user mistypes a covariance.
    """
    C = cov.matrix
    d = cov.d
    L = np.zeros_like(C)
    for j in range(d):
        pivot = C[j, j] - np.dot(L[j, :j], L[j, :j])
        # Tolerance relative to the largest diagonal entry guards pure
        # round-off on valid matrices without accepting indefinite ones.
        if pivot <= 1e-14 * max(C.diagonal().max(), 1.0):
            raise ValueError(
                f"covariance matrix is not positive definite (pivot {j + 1})"
            )
        L[j, j] = np.sqrt(pivot)
        for i in range(j + 1, d):
            L[i, j] = (C[i, j] - np.dot(L[i, :j], L[j, :j])) / L[j, j]
    return L


def transform_independent(
    u: UnitPointSet, marginals: Sequence[Marginal], out: np.ndarray | None = None
) -> np.ndarray:
    """Map unit samples to model space columnwise through the marginals.

    The result goes into ``out``, which may be ``u.values`` itself, or else
    into a new column-major (Fortran-ordered) array, so each input column a
    model, a column swap or a sort reads is contiguous.
    """
    if u.dims != len(marginals):
        raise ValueError(
            f"point set has {u.dims} dims but {len(marginals)} marginals given"
        )
    if out is None:
        out = np.empty((u.n, u.dims), order="F")
    for j, marg in enumerate(marginals):
        out[:, j] = marg.from_unit(u.values[:, j])
    return out


def transform_correlated_normal(u: UnitPointSet, cov: CovarianceSpec) -> np.ndarray:
    """Map unit samples to x = mu + L z with z the inverse-CDF standard normals.

    The matmul reads the row-major z; the sum with mu is written
    column-major, like :func:`transform_independent`'s result.
    """
    if u.dims != cov.d:
        raise ValueError(f"point set has {u.dims} dims but covariance is {cov.d}-d")
    L = cholesky_lower(cov)
    z = _ndtri(u.values)
    return np.add(cov.mean, z @ L.T, out=np.empty(z.shape, order="F"))
