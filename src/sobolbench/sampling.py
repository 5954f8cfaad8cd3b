"""Point-set generation and distribution transforms.

Two samplers are provided: pseudo-random (``MC``, PCG64) and the Sobol'
low-discrepancy sequence (``QMC``, Gray-code construction over the bundled
direction-number table: every 256th element is read one byte of its Gray
code at a time through lookup tables, and the 255 after it are that element
XOR a table of the first 256 elements' bits, all cached per dimension count).
Unit samples map to model space through independent marginals or a Gaussian
covariance (Cholesky); normal quantiles are ``scipy.special.ndtri``, imported
on first use.  Both samplers return column-major draws; QMC builds its draw
in blocks of rows.

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
* :func:`generate_uniform` can draw any row range of a run, and rows
  ``[r, r + m)`` drawn alone equal those rows of the run's whole draw,
  bit for bit, under both samplers; a run can so be drawn in chunks.
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

# Raw indices _sobol_raw builds at a time, in blocks that start at multiples
# of it: each block's XOR is one (dims, rows) uint32 temporary (4 bytes a
# coordinate), small beside the draw, which is scaled straight into the
# block's columns of the column-major result.
_SOBOL_BLOCK_ROWS = 2048


# PCG64.jumped(1) advances the state by this many draws (mod 2^128).
_PCG64_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def _ndtri(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal quantiles of ``u``, importing ``scipy.special`` only here:
    that costs about 0.2 s and 26 MB, and Uniform-only models never need it."""
    from scipy.special import ndtri
    return ndtri(u, out=out)


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
def _gray_byte_tables(dims: int) -> tuple[np.ndarray, np.ndarray]:
    """The (MAXBIT/8, dims, 256) and (dims, 256) uint32 tables of _sobol_raw,
    cached per dims.

    ``T[c, :, b]`` is the XOR of the direction vectors ``V[8c + j]`` over the
    set bits ``j`` of the byte value ``b``; each table is filled by doubling,
    ``T[c, :, 2^j : 2^(j+1)] = T[c, :, :2^j] ^ V[8c + j]``.  The second table
    holds the points of the Gray codes below 256: column ``r`` is
    ``T[0, :, gray(r)]``.  Both are laid out dims first, as the columns of
    the column-major draw they build.
    """
    V = direction_vectors(dims)
    tables = np.zeros((MAXBIT // 8, dims, 256), dtype=np.uint32)
    for c in range(MAXBIT // 8):
        for j in range(8):
            tables[c, :, 1 << j : 2 << j] = tables[c, :, : 1 << j] ^ V[8 * c + j, :, None]
    r = np.arange(256)
    return tables, np.ascontiguousarray(tables[0][:, r ^ (r >> 1)])


def _sobol_raw(start: int, n: int, dims: int) -> np.ndarray:
    """Sobol' elements with raw sequence indices [start, start + n), column-major.

    Direct Gray-code construction: element i is the XOR of the direction
    vectors selected by the set bits of gray(i) = i ^ (i >> 1), so it is
    linear over XOR in gray(i).  For r < 256, gray(256q + r) =
    gray(256q) ^ gray(r), so element 256q + r is ``H[q] ^ L[r]``: ``H[q]``
    is the head element 256q, taken a byte of its Gray code at a time as
    ``T[0][g & 255] ^ T[1][(g >> 8) & 255] ^ T[2][...] ^ T[3][...]`` (a byte
    that is zero for every head contributes nothing and is skipped), and
    ``L`` is the low table; both come from :func:`_gray_byte_tables`.  The
    draw is built in blocks of ``_SOBOL_BLOCK_ROWS`` raw indices, each the
    XOR of its heads with ``L`` broadcast, trimmed to the rows asked for and
    scaled by 2^-32 into those rows of the result, which are columns of its
    transpose.  XOR and the power-of-two scale are exact, so the grouping
    gives the same bits as one pass per direction vector.
    """
    if start + n > SOBOL_PERIOD:
        raise ValueError("sequence index exceeds the 2^32 generator period")
    tables, low = _gray_byte_tables(dims)
    end, q0 = start + n, start >> 8
    idx = np.arange(q0, ((end - 1) >> 8) + 1, dtype=np.uint32) << np.uint32(8)
    gray = idx ^ (idx >> np.uint32(1))
    heads = np.zeros((dims, len(gray)), dtype=np.uint32)
    for c, table in enumerate(tables):
        byte = (gray >> np.uint32(8 * c)) & np.uint32(0xFF)
        if byte.any():
            heads ^= np.take(table, byte, axis=1)
    out = np.empty((n, dims), order="F")
    for lo in range(start - start % _SOBOL_BLOCK_ROWS, end, _SOBOL_BLOCK_ROWS):
        first, stop = max(lo, start), min(lo + _SOBOL_BLOCK_ROWS, end)
        q = first >> 8
        block = heads[:, q - q0 : ((stop - 1) >> 8) - q0 + 1, None] ^ low[:, None]
        rows = block.reshape(dims, -1)[:, first - (q << 8) :][:, : stop - first]
        np.multiply(rows, 2.0**-MAXBIT, out=out.T[:, first - start : stop - start])
    return out


def generate_uniform(
    spec: SamplerSpec, n: int, dims: int, start: int = 0, stop: int | None = None
) -> UnitPointSet:
    """Draw rows ``start`` to ``stop`` (default n) of the run of n points in
    [0,1)^dims that ``spec`` describes.

    The rows drawn are those rows of the whole run's draw, bit for bit, so a
    run drawn in row ranges is the run drawn at once.  QMC requires n to be a
    power of two and dims within the bundled direction-number table; results
    are deterministic functions of the spec.
    """
    if n <= 0 or dims <= 0:
        raise ValueError("n and dims must be positive")
    stop = n if stop is None else stop
    if not 0 <= start < stop <= n:
        raise ValueError(f"rows {start}..{stop} are not a range of a run of {n}")
    if dims > MAX_DIM:
        raise ValueError(
            f"dims={dims} exceeds the bundled direction-number table (max {MAX_DIM})"
        )
    m = stop - start
    if spec.kind == "QMC":
        if n & (n - 1) != 0:
            raise ValueError(f"QMC sample count must be a power of two, got n={n}")
        first = _replicate_layout("QMC", spec.run_index, n, n)[0]
        values = _sobol_raw(first + start, m, dims)
    else:
        # One bit generator steps through the columns: column c's rows start
        # at c jumps plus ``start`` draws, and each column's m draws are
        # followed by the advance to the next one.  A jumped copy per column
        # gives the same bits at about 10x the cost of an advance.
        stream = np.random.PCG64(mix_seed(spec.seed, spec.run_index))
        draws = np.random.Generator(stream)
        stream.advance(start)
        values = np.empty((m, dims), order="F")
        for c in range(dims):
            draws.random(out=values[:, c])
            stream.advance(_PCG64_JUMP - m)
    return UnitPointSet(n=m, dims=dims, values=values)


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
        # On [0, 1) itself, (1 - 0) * u + 0 changes no bit of a u >= +0, so
        # u is returned as is.
        if self.a == 0.0 and self.b == 1.0:
            return u
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
        return self._from_normal(_ndtri(u))

    def _from_normal(self, z: np.ndarray) -> np.ndarray:
        """Standard normals z mapped in place."""
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
        return self._from_normal(_ndtri(u))

    def _from_normal(self, z: np.ndarray) -> np.ndarray:
        """Standard normals z mapped in place, in the operation order of
        exp(ln(median) + sigma * z)."""
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
    model, a column swap or a sort reads is contiguous.  A marginal whose
    ``from_unit`` returns its column unchanged costs no copy in place.  When
    every marginal is Normal or Lognormal and ``out`` is column-major, the
    quantiles of all columns come from one ``ndtri`` call, each mapped in
    place in its contiguous column: a call costs far more than its values at
    the size of a chunk.
    """
    if u.dims != len(marginals):
        raise ValueError(
            f"point set has {u.dims} dims but {len(marginals)} marginals given"
        )
    if out is None:
        out = np.empty((u.n, u.dims), order="F")
    gaussian = all(isinstance(marg, (Normal, Lognormal)) for marg in marginals)
    if gaussian and out.flags.f_contiguous:
        z = _ndtri(u.values, out)
        for j, marg in enumerate(marginals):
            marg._from_normal(z[:, j])
        return out
    for j, marg in enumerate(marginals):
        column = u.values[:, j]
        x = marg.from_unit(column)
        if x is not column or out is not u.values:
            out[:, j] = x
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
