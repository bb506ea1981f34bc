import numpy as np
import pytest

from sieveboot.series import DegenerateSeriesError, Series, sample_acvf
from sieveboot.statistics import AcfStatistic, AcvfStatistic, MeanStatistic


# Paths of several lengths and scales: enough that an evaluation rounding
# differently anywhere (say, multiplying by 1/n for dividing by n) shows.
def _paths():
    rng = np.random.default_rng(4)
    return [Series(rng.standard_normal(n) * scale + shift)
            for n in (5, 11, 49, 301, 2000)
            for scale, shift in ((1.0, 0.0), (3.0, -7.5), (0.01, 1e3))]


PATHS = range(len(_paths()))


class TestLeanEvaluate:
    """evaluate does the arithmetic of the series estimators, bit for bit."""

    @pytest.mark.parametrize("i", PATHS)
    def test_mean_is_np_mean(self, i):
        s = _paths()[i]
        assert MeanStatistic().evaluate(s.values) == np.mean(s.values)

    @pytest.mark.parametrize("h", range(4))
    @pytest.mark.parametrize("i", PATHS)
    def test_acvf_is_sample_acvf(self, i, h):
        s = _paths()[i]
        assert AcvfStatistic(h).evaluate(s.values) == sample_acvf(s, h)[h]

    @pytest.mark.parametrize("h", range(1, 4))
    @pytest.mark.parametrize("i", PATHS)
    def test_acf_is_the_sample_acvf_ratio(self, i, h):
        s = _paths()[i]
        g = sample_acvf(s, h)
        assert AcfStatistic(h).evaluate(s.values) == g[h] / g[0]

    @pytest.mark.parametrize("value", [0.0, 2.0, -3.5])
    def test_constant_path_has_no_acf(self, value):
        s = Series(np.full(40, value))
        with pytest.raises(DegenerateSeriesError):
            AcfStatistic(1).evaluate(s.values)

    @pytest.mark.parametrize("statistic", [AcvfStatistic(5), AcfStatistic(5)])
    def test_lag_beyond_the_path_rejected(self, statistic):
        with pytest.raises(ValueError):
            statistic.evaluate(np.arange(5.0))
