"""sieveboot: the autoregressive-sieve bootstrap and its validity frontier.

The sieve bootstrap fits a slowly growing Yule-Walker autoregression,
resamples centered residuals, and regenerates series. Its law mimics a
companion autoregressive process driven by i.i.d. copies of the Wold
innovations -- so it is consistent exactly for statistics whose limit law
depends only on that companion structure. This package provides the
bootstrap engine, the companion-process oracle, Monte Carlo truth runs,
closed-form asymptotic targets, and a CLI harness that compares all three.
"""
from .series import (
    DegenerateSeriesError,
    EmpiricalLaw,
    kolmogorov_distance,
    ks_critical_value,
    sample_acvf,
)
from .dgp import (
    Arch1Model,
    CompanionSpec,
    InnovationSpec,
    InversionError,
    LinearModel,
    ResampledRecord,
    build_companion,
    derive_seed,
    impulse_response,
    ma1_example,
    model_from_json,
    replicate,
    root_radius,
    simulate_ar,
    simulate_arch1,
    simulate_linear,
    wold_factorization,
)
from .sieve import (
    ConditioningError,
    SieveModel,
    bootstrap_distribution,
    fit_sieve,
    generate_bootstrap_series,
    levinson_durbin,
    order_cap,
    residuals,
)
from .companion import companion_distribution
from .statistics import (
    AcfStatistic,
    AcvfStatistic,
    IntegratedPeriodogramStatistic,
    MeanStatistic,
    RatioStatistic,
    SpectralDensityStatistic,
    Statistic,
    fourier_quadrature,
    linear_limit_variance,
    periodogram,
    rational_acvf,
    rational_spectral_density,
    statistic_from_config,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    Report,
    list_presets,
    preset_config,
    run_experiment,
)

__version__ = "1.0.0"
