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
    Series,
    kolmogorov_distance,
    ks_critical_value,
    sample_acvf,
)
from .ar import (
    ConditioningError,
    InversionError,
    invert_ar_polynomial,
    levinson_durbin,
    residuals,
    root_radius,
    wold_factorization,
)
from .dgp import (
    Arch1Model,
    InnovationSpec,
    LinearModel,
    ResampledRecord,
    derive_seed,
    ma1_example,
    ma1_model,
    model_from_json,
    replicate,
    simulate_ar,
    simulate_arch1,
    simulate_linear,
)
from .sieve import (
    BootstrapResult,
    OrderRule,
    SieveModel,
    bootstrap_distribution,
    fit_sieve,
    generate_bootstrap_series,
    order_cap,
)
from .companion import (
    CompanionSpec,
    build_companion,
    companion_distribution,
    rational_acvf,
)
from .spectral import (
    KernelSpec,
    fourier_quadrature,
    integrated_periodogram,
    kernel_spectral_estimate,
    periodogram,
    ratio_statistic,
    rational_spectral_density,
)
from .asymptotics import (
    acvf_asymptotic_variance,
    bartlett_variance,
    spectral_estimator_variance,
)
from .statistics import (
    AcfStatistic,
    AcvfStatistic,
    IntegratedPeriodogramStatistic,
    MeanStatistic,
    RatioStatistic,
    SpectralDensityStatistic,
    Statistic,
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
