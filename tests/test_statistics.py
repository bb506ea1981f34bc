import dataclasses

import numpy as np
import pytest

from sieveboot import statistics
from sieveboot.series import DegenerateSeriesError, sample_acvf
from sieveboot.statistics import (
    AcfStatistic,
    AcvfStatistic,
    IntegratedPeriodogramStatistic,
    MeanStatistic,
    RatioStatistic,
    SpectralDensityStatistic,
    statistic_from_config,
)


# Paths of several lengths and scales: enough that an evaluation rounding
# differently anywhere (say, multiplying by 1/n for dividing by n) shows.
def _paths():
    rng = np.random.default_rng(4)
    return [rng.standard_normal(n) * scale + shift
            for n in (5, 11, 49, 301, 2000)
            for scale, shift in ((1.0, 0.0), (3.0, -7.5), (0.01, 1e3))]


PATHS = range(len(_paths()))


class TestLeanEvaluate:
    """evaluate does the arithmetic of the series estimators, bit for bit."""

    @pytest.mark.parametrize("i", PATHS)
    def test_mean_is_np_mean(self, i):
        x = _paths()[i]
        assert MeanStatistic().evaluate(x) == np.mean(x)

    @pytest.mark.parametrize("h", range(4))
    @pytest.mark.parametrize("i", PATHS)
    def test_acvf_is_sample_acvf(self, i, h):
        x = _paths()[i]
        assert AcvfStatistic(h).evaluate(x) == sample_acvf(x, h)[h]

    @pytest.mark.parametrize("h", range(1, 4))
    @pytest.mark.parametrize("i", PATHS)
    def test_acf_is_the_sample_acvf_ratio(self, i, h):
        x = _paths()[i]
        g = sample_acvf(x, h)
        assert AcfStatistic(h).evaluate(x) == g[h] / g[0]

    @pytest.mark.parametrize("value", [0.0, 2.0, -3.5])
    def test_constant_path_has_no_acf(self, value):
        with pytest.raises(DegenerateSeriesError):
            AcfStatistic(1).evaluate(np.full(40, value))

    @pytest.mark.parametrize("statistic", [AcvfStatistic(5), AcfStatistic(5)])
    def test_lag_beyond_the_path_rejected(self, statistic):
        with pytest.raises(ValueError):
            statistic.evaluate(np.arange(5.0))


# A lag that is negative, a bool or not an integer is rejected by the
# constructor itself, not only by statistic_from_config; RatioStatistic(h=-1)
# would otherwise evaluate as lag 1.
@pytest.mark.parametrize("cls", [RatioStatistic, IntegratedPeriodogramStatistic])
@pytest.mark.parametrize("h", [-1, True, 2.5])
def test_cosine_statistics_reject_a_bad_lag_when_built(cls, h):
    with pytest.raises(ValueError, match=f"lag must be an integer >= 0, got {h!r}"):
        cls(h=h)


# Each config name, the class it builds and the name that class reports when
# built with no arguments.
DEFAULTS = [
    ("mean", MeanStatistic, "mean"),
    ("acvf", AcvfStatistic, "acvf-lag-0"),
    ("acf", AcfStatistic, "acf-lag-1"),
    ("ratio-cos", RatioStatistic, "ratio[2cos(1l)]"),
    ("intper-cos", IntegratedPeriodogramStatistic, "intper[2cos(1l)]"),
    ("specdens", SpectralDensityStatistic, "specdens[1.5708,h=0.3]"),
]


class TestConfigTable:
    def test_every_table_name_is_covered(self):
        assert sorted(statistics._STATISTICS) == sorted(name for name, _, _ in DEFAULTS)

    @pytest.mark.parametrize("name, cls, label", DEFAULTS)
    def test_a_name_alone_takes_the_class_defaults(self, name, cls, label):
        stat = statistic_from_config({"name": name})
        assert type(stat) is cls and stat == cls() and stat.name == label

    def test_mean_has_no_constructor_option(self):
        assert dataclasses.fields(MeanStatistic) == ()
        with pytest.raises(TypeError):
            MeanStatistic(name="x")
