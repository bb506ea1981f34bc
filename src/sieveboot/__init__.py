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
    ACVF,
    DegenerateSeriesError,
    EmpiricalLaw,
    Series,
    ecdf,
    kolmogorov_distance,
    ks_critical_value,
    sample_acf,
    sample_acvf,
    sample_mean,
)
from .ar import (
    ARFit,
    ConditioningError,
    InversionError,
    MAInversion,
    baxter_gap,
    invert_ar_polynomial,
    levinson_durbin,
    min_modulus_on_disk,
    residuals,
    wold_factorization,
    yule_walker_fit,
)
from .dgp import (
    ARModel,
    Arch1Model,
    InnovationSpec,
    LinearModel,
    StabilityError,
    derive_seed,
    ma1_example,
    ma1_model,
    model_from_json,
    model_to_json,
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
    select_order,
)
from .companion import (
    CompanionSpec,
    OracleResult,
    build_companion,
    companion_distribution,
    parametric_companion_spec,
    rational_acvf,
    resampling_companion_spec,
)
from .spectral import (
    KernelSpec,
    Periodogram,
    WeightFunction,
    cosine_weight,
    fourier_quadrature,
    integrated_periodogram,
    kernel_spectral_estimate,
    periodogram,
    ratio_statistic,
    rational_spectral_density,
)
from .asymptotics import (
    KurtosisSpec,
    acvf_asymptotic_variance,
    bartlett_variance,
    integrated_periodogram_variance,
    ratio_statistic_variance,
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
