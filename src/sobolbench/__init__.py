"""Monte Carlo and quasi-Monte Carlo estimation of Sobol' main-effect
sensitivity indices, with a benchmark harness comparing five estimation
formulas on analytically solvable test models.
"""

__version__ = "0.1.0"

from .estimators import (
    BinSchedule,
    DegenerateModelError,
    EstimatorKind,
    IncompatibleModelError,
    default_bin_schedule,
)
from .harness import (
    DEFAULT_MASTER_SEED,
    BenchmarkConfig,
    ConvergenceRecord,
    RateFit,
    cost,
    estimate_cell,
    fit_rate,
    group_records,
    rmse_against,
    run_benchmark,
)
from .models import (
    InputModel,
    TEST_CASE_NAMES,
    TestCaseId,
    build,
)
from .sampling import (
    CovarianceSpec,
    Lognormal,
    Normal,
    SamplerSpec,
    Uniform,
    UnitPointSet,
    generate_uniform,
    mix_seed,
    transform_correlated_normal,
    transform_independent,
)

__all__ = [
    "__version__",
    "BinSchedule",
    "DegenerateModelError",
    "EstimatorKind",
    "IncompatibleModelError",
    "default_bin_schedule",
    "DEFAULT_MASTER_SEED",
    "BenchmarkConfig",
    "ConvergenceRecord",
    "RateFit",
    "cost",
    "estimate_cell",
    "fit_rate",
    "group_records",
    "rmse_against",
    "run_benchmark",
    "InputModel",
    "TEST_CASE_NAMES",
    "TestCaseId",
    "build",
    "CovarianceSpec",
    "Lognormal",
    "Normal",
    "SamplerSpec",
    "Uniform",
    "UnitPointSet",
    "generate_uniform",
    "mix_seed",
    "transform_correlated_normal",
    "transform_independent",
]
