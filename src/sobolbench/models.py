"""Benchmark model functions with analytic sensitivity references.

Each test case bundles a vectorized model function, its input distribution
(independent marginals or a Gaussian covariance block), and whatever closed
forms exist for its mean f0, total variance D and main-effect indices S_i.
Main indices are computed from the model parameters rather than hard-coded,
with one documented exception (ParkAhn7, see below).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .sampling import CovarianceSpec, Lognormal, Marginal, Normal, Uniform

__all__ = [
    "InputModel",
    "TestCaseId",
    "TEST_CASE_NAMES",
    "build",
]


@dataclass(frozen=True)
class InputModel:
    """A model function together with its input distribution and references.

    Exactly one of ``marginals`` / ``covariance`` is set.  The analytic
    fields are None when no closed form is available.

    ``f`` maps an (n, d) array to n outputs, row by row: output row j
    depends on input row j alone, bit for bit, since a set is evaluated a
    chunk of rows at a time and its chunks' outputs must join to those of
    the whole set.  It may receive a column-major array (sample matrices
    are kept column-major so each input column is contiguous).  It must not
    write to its input: AB_i and CA_i outputs of a model without
    ``factors`` come from the evaluation set's own base matrix, whose
    column i is swapped in for the call and restored after it; a write
    corrupts the set.  Its result must not depend on memory order;
    ``x.sum(axis=1)`` with d >= 8, for one, does (pairwise along contiguous
    rows, one column at a time otherwise).

    ``factors``, when set, holds d functions, each mapping one input column
    (n,) to a new array of n factors, value by value, without writing to
    the column, such that ``f(x)`` is ``factors[0](x[:, 0]) *
    factors[1](x[:, 1]) * ...`` multiplied left to right, bit for bit.  A
    set's AB_i and CA_i outputs are then products of per-column factors
    (see :func:`sobolbench.estimators._outputs`), and ``f`` is called only
    on the base matrices: 2 model calls per set in place of 2d + 2.  A copy
    made with ``dataclasses.replace(model, f=g)`` keeps the factors, so
    ``g`` must return ``f``'s outputs.
    """

    name: str
    d: int
    f: Callable[[np.ndarray], np.ndarray]
    marginals: Optional[tuple[Marginal, ...]] = None
    covariance: Optional[CovarianceSpec] = None
    analytic_main: Optional[np.ndarray] = None
    analytic_f0: Optional[float] = None
    analytic_D: Optional[float] = None
    factors: Optional[tuple[Callable[[np.ndarray], np.ndarray], ...]] = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("model dimension must be at least 1")
        if (self.marginals is None) == (self.covariance is None):
            raise ValueError("exactly one of marginals/covariance must be given")
        if self.marginals is not None and len(self.marginals) != self.d:
            raise ValueError("marginal count does not match dimension")
        if self.covariance is not None and self.covariance.d != self.d:
            raise ValueError("covariance dimension does not match model")
        if self.factors is not None and len(self.factors) != self.d:
            raise ValueError("factor count does not match dimension")
        if self.analytic_main is not None:
            main = np.asarray(self.analytic_main, dtype=float)
            object.__setattr__(self, "analytic_main", main)
            if main.shape != (self.d,):
                raise ValueError("analytic_main length does not match dimension")
            if np.any(main < 0.0) or np.any(main > 1.0):
                raise ValueError("analytic_main entries must lie in [0, 1]")

    @property
    def has_dependent_inputs(self) -> bool:
        return self.covariance is not None


class TestCaseId(Enum):
    Linear4 = "Linear4"
    ParkAhn7 = "ParkAhn7"
    Ishigami = "Ishigami"
    GFunc10A = "GFunc10A"
    GFunc10B = "GFunc10B"
    DepQuad4 = "DepQuad4"
    DepLinear3 = "DepLinear3"

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(t.value for t in cls)
        raise ValueError(f"unknown test {value!r} (valid: {valid})")


# ---------------------------------------------------------------------------
# Test 1: additive Gaussian model, d = 4

_LINEAR4_MU = (1.0, 3.0, 5.0, 7.0)
_LINEAR4_SIGMA = (1.0, 1.5, 2.0, 2.5)


def build_linear4() -> InputModel:
    """f = sum(x_i) with independent x_i ~ N(mu_i, sigma_i^2).

    For an additive Gaussian model D_i = sigma_i^2 and D = sum(sigma_j^2).
    """
    sigma2 = np.asarray(_LINEAR4_SIGMA, dtype=float) ** 2
    D = float(sigma2.sum())
    main = sigma2 / D
    return InputModel(
        name="Linear4",
        d=4,
        f=lambda x: x.sum(axis=1),
        marginals=tuple(
            Normal(m, s) for m, s in zip(_LINEAR4_MU, _LINEAR4_SIGMA)
        ),
        analytic_main=main,
        analytic_f0=float(sum(_LINEAR4_MU)),
        analytic_D=D,
    )


# ---------------------------------------------------------------------------
# Test 2: ten-term trilinear model with lognormal inputs, d = 7

# Terms of f = x1x3x5 + x1x3x6 + x1x4x5 + x1x4x6 + x2x3x4
#            + x2x3x5 + x2x4x5 + x2x5x6 + x2x4x7 + x2x6x7   (1-based indices)
_PARKAHN_TERMS = (
    (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (2, 3, 4),
    (2, 3, 5), (2, 4, 5), (2, 5, 6), (2, 4, 7), (2, 6, 7),
)
_PARKAHN_M = (2.0, 3.0, 0.001, 0.002, 0.004, 0.005, 0.003)
_PARKAHN_SD = 0.4214

# Reference main-effect values quoted to three digits by the source that
# introduced this test; stored as-is (not rederived) and cross-checked by the
# exact product-moment computation in the test suite.
_PARKAHN_MAIN = (0.0350, 0.330, 0.0157, 0.0857, 0.174, 0.221, 0.0477)


def _parkahn_f(x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape[0])
    for i, j, k in _PARKAHN_TERMS:
        out += x[:, i - 1] * x[:, j - 1] * x[:, k - 1]
    return out


def trilinear_exact_moments(
    terms: Sequence[tuple[int, ...]], e1: np.ndarray, e2: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Exact (f0, D, D_i) for a sum of products of independent inputs.

    ``e1``/``e2`` are the per-input first and second raw moments.  For
    multilinear f the conditional mean given x_i is linear in x_i, so
    D_i = A_i^2 Var(x_i) with A_i the accumulated coefficient of x_i.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    var = e2 - e1**2
    f0 = sum(float(np.prod([e1[j - 1] for j in t])) for t in terms)
    ef2 = 0.0
    for t, u in itertools.product(terms, terms):
        common = set(t) & set(u)
        rest = (set(t) | set(u)) - common
        ef2 += float(
            np.prod([e2[j - 1] for j in common]) * np.prod([e1[j - 1] for j in rest])
        )
    D = ef2 - f0**2
    d = e1.shape[0]
    partial = np.zeros(d)
    for i in range(1, d + 1):
        a_i = sum(
            float(np.prod([e1[j - 1] for j in t if j != i]))
            for t in terms
            if i in t
        )
        partial[i - 1] = a_i**2 * var[i - 1]
    return f0, D, partial


def build_park_ahn7() -> InputModel:
    """Ten-term trilinear model with independent lognormal inputs.

    The published parameter list (2, 3, 0.001, 0.002, 0.004, 0.005, 0.003 with
    spread 0.4214) does not say how the two numbers parameterize a lognormal.
    Only reading them as (median, sd of ln x) reproduces the quoted reference
    indices; the test suite measures the misfit of the other readings.
    """
    marginals = tuple(Lognormal(m, _PARKAHN_SD) for m in _PARKAHN_M)
    moments = np.array([marg.moments() for marg in marginals])
    f0, D, _ = trilinear_exact_moments(_PARKAHN_TERMS, moments[:, 0], moments[:, 1])
    return InputModel(
        name="ParkAhn7",
        d=7,
        f=_parkahn_f,
        marginals=marginals,
        analytic_main=np.asarray(_PARKAHN_MAIN),
        analytic_f0=f0,
        analytic_D=D,
    )


# ---------------------------------------------------------------------------
# Test 3: Ishigami function, d = 3

_ISHIGAMI_A = 7.0
_ISHIGAMI_B = 0.1


def build_ishigami() -> InputModel:
    """sin x1 + a sin^2 x2 + b x3^4 sin x1 on [-pi, pi]^3, a=7, b=0.1.

    Closed forms: f0 = a/2, D = a^2/8 + b pi^4/5 + b^2 pi^8/18 + 1/2,
    D_1 = (1 + b pi^4/5)^2 / 2, D_2 = a^2/8, D_3 = 0.
    """
    a, b = _ISHIGAMI_A, _ISHIGAMI_B

    def f(x: np.ndarray) -> np.ndarray:
        return (
            np.sin(x[:, 0])
            + a * np.sin(x[:, 1]) ** 2
            + b * x[:, 2] ** 4 * np.sin(x[:, 0])
        )

    D = a**2 / 8.0 + b * np.pi**4 / 5.0 + b**2 * np.pi**8 / 18.0 + 0.5
    D1 = 0.5 * (1.0 + b * np.pi**4 / 5.0) ** 2
    D2 = a**2 / 8.0
    return InputModel(
        name="Ishigami",
        d=3,
        f=f,
        marginals=(Uniform(-np.pi, np.pi),) * 3,
        analytic_main=np.array([D1 / D, D2 / D, 0.0]),
        analytic_f0=a / 2.0,
        analytic_D=float(D),
    )


# ---------------------------------------------------------------------------
# Test 4: g-function, d = 10

def build_gfunc(a: Sequence[float], name: str) -> InputModel:
    """prod_i (|4 x_i - 2| + a_i) / (1 + a_i) on the unit cube.

    D_i = (1/3) / (1 + a_i)^2 and D = prod(1 + D_i) - 1; f0 = 1.
    """
    a_arr = np.asarray(a, dtype=float)
    denom = 1.0 + a_arr
    d = a_arr.shape[0]

    # Each factor keeps the closed form's bits with fewer operations.  Adding
    # a_i = 0 to |4x - 2| >= +0 changes nothing (+0 + 0 = +0).  When 1 + a_i
    # is a power of two its reciprocal is exact, and dividing by 1 + a_i or
    # multiplying by the reciprocal rounds the same real number; a
    # reciprocal of 1 is skipped.  Any other denominator is divided by.
    def factor(a_i: float, denom_i: float) -> Callable[[np.ndarray], np.ndarray]:
        add = a_i if a_i != 0.0 else None
        if np.frexp(denom_i)[0] != 0.5:
            scale = (np.true_divide, denom_i)
        else:
            scale = (np.multiply, 1.0 / denom_i) if denom_i != 1.0 else None

        def g(column: np.ndarray) -> np.ndarray:
            t = np.multiply(column, 4.0)
            t -= 2.0
            np.abs(t, out=t)
            if add is not None:
                t += add
            if scale is not None:
                op, value = scale
                op(t, value, out=t)
            return t

        return g

    factors = tuple(factor(a_i, denom_i) for a_i, denom_i in zip(a_arr, denom))

    def f(x: np.ndarray) -> np.ndarray:
        # The factors multiplied in input order, as in np.prod; x is only read.
        out = factors[0](x[:, 0])
        for i in range(1, d):
            out *= factors[i](x[:, i])
        return out

    partial = (1.0 / 3.0) / denom**2
    D = float(np.prod(1.0 + partial) - 1.0)
    return InputModel(
        name=name,
        d=d,
        f=f,
        marginals=(Uniform(0.0, 1.0),) * d,
        analytic_main=partial / D,
        analytic_f0=1.0,
        analytic_D=D,
        factors=factors,
    )


def build_gfunc10a() -> InputModel:
    return build_gfunc((0.0, 0.0) + (3.0,) * 8, "GFunc10A")


def build_gfunc10b() -> InputModel:
    return build_gfunc((0.0,) * 10, "GFunc10B")


# ---------------------------------------------------------------------------
# Test 5: bilinear model with two correlated Gaussian pairs, d = 4

_DEPQUAD_MEAN = (0.0, 0.0, 250.0, 400.0)
_DEPQUAD_COV = (
    (16.0, 2.4, 0.0, 0.0),
    (2.4, 4.0, 0.0, 0.0),
    (0.0, 0.0, 4.0e4, -1.8e4),
    (0.0, 0.0, -1.8e4, 9.0e4),
)


def build_depquad4() -> InputModel:
    """f = x1 x3 + x2 x4 with (x1,x2) and (x3,x4) correlated Gaussian pairs.

    With mu1 = mu2 = 0:
      D    = s1^2 (s3^2 + mu3^2) + s2^2 (s4^2 + mu4^2) + 2 s12 (s34 + mu3 mu4)
      D_1  = (s1^2 mu3 + s12 mu4)^2 / s1^2,  D_2 symmetric,  D_3 = D_4 = 0
    """
    mean = np.asarray(_DEPQUAD_MEAN)
    C = np.asarray(_DEPQUAD_COV)
    s1sq, s2sq, s3sq, s4sq = C[0, 0], C[1, 1], C[2, 2], C[3, 3]
    s12, s34 = C[0, 1], C[2, 3]
    mu3, mu4 = mean[2], mean[3]

    D = s1sq * (s3sq + mu3**2) + s2sq * (s4sq + mu4**2) + 2.0 * s12 * (s34 + mu3 * mu4)
    D1 = (s1sq * mu3 + s12 * mu4) ** 2 / s1sq
    D2 = (s2sq * mu4 + s12 * mu3) ** 2 / s2sq
    # mu1 = mu2 = 0 kills the symmetric expressions for inputs 3 and 4
    D3 = (s3sq * mean[0] + s34 * mean[1]) ** 2 / s3sq
    D4 = (s4sq * mean[1] + s34 * mean[0]) ** 2 / s4sq
    return InputModel(
        name="DepQuad4",
        d=4,
        f=lambda x: x[:, 0] * x[:, 2] + x[:, 1] * x[:, 3],
        covariance=CovarianceSpec(mean=mean, matrix=C),
        analytic_main=np.array([D1, D2, D3, D4]) / D,
        # E[x1 x3] + E[x2 x4] = cov13 + mu1 mu3 + cov24 + mu2 mu4
        analytic_f0=float(C[0, 2] + mean[0] * mu3 + C[1, 3] + mean[1] * mu4),
        analytic_D=float(D),
    )


# ---------------------------------------------------------------------------
# Test 6: additive model with one independent and two correlated inputs, d = 3

_DEPLIN_SIGMA = 2.0
_DEPLIN_RHO = -0.8


def build_deplinear3() -> InputModel:
    """f = x1 + x2 + x3; x1 ~ N(0,1) independent, (x2,x3) Gaussian with
    sd(x2) = 1, sd(x3) = sigma, corr = rho.

    Conditional expectations give D = 2 + sigma^2 + 2 rho sigma and
      S_1 = 1/D,  S_2 = (1 + rho sigma)^2 / D,  S_3 = (sigma + rho)^2 / D.
    """
    sigma, rho = _DEPLIN_SIGMA, _DEPLIN_RHO
    C = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, rho * sigma],
            [0.0, rho * sigma, sigma**2],
        ]
    )
    D = 2.0 + sigma**2 + 2.0 * rho * sigma
    main = np.array([1.0, (1.0 + rho * sigma) ** 2, (sigma + rho) ** 2]) / D
    return InputModel(
        name="DepLinear3",
        d=3,
        f=lambda x: x.sum(axis=1),
        covariance=CovarianceSpec(mean=np.zeros(3), matrix=C),
        analytic_main=main,
        analytic_f0=0.0,
        analytic_D=float(D),
    )


# ---------------------------------------------------------------------------

_BUILDERS: dict[TestCaseId, Callable[[], InputModel]] = {
    TestCaseId.Linear4: build_linear4,
    TestCaseId.ParkAhn7: build_park_ahn7,
    TestCaseId.Ishigami: build_ishigami,
    TestCaseId.GFunc10A: build_gfunc10a,
    TestCaseId.GFunc10B: build_gfunc10b,
    TestCaseId.DepQuad4: build_depquad4,
    TestCaseId.DepLinear3: build_deplinear3,
}

TEST_CASE_NAMES = tuple(t.value for t in TestCaseId)


def build(test: TestCaseId | str) -> InputModel:
    """Construct the named test case with its fixed parameters."""
    return _BUILDERS[TestCaseId(test)]()
