import numpy as np
import pytest
from scipy import stats

from mimosel.channel import (
    LinkBudget,
    generate_iid_rayleigh,
    noise_power,
    noise_power_dbm,
)
from mimosel.seeding import stream

# Frozen from dB arithmetic: -174 + 10*log10(20e6) + 5 = -95.9897000434 dBm,
# so at P0 = -90 dBm the normalized noise power is 10**(-0.59897...).
NOISE_DBM_20MHZ_NF5 = -95.98970004336019
N0_LINEAR_P0_M90 = 0.25178508235883346


class TestLinkBudget:
    def test_noise_power_dbm(self):
        budget = LinkBudget(p0_dbm=-90.0, bandwidth_hz=20e6, noise_figure_db=5.0)
        assert noise_power_dbm(budget) == pytest.approx(NOISE_DBM_20MHZ_NF5, abs=1e-9)

    def test_normalized_noise_and_snr_at_minus90(self):
        budget = LinkBudget(p0_dbm=-90.0)
        assert noise_power(budget) == pytest.approx(N0_LINEAR_P0_M90, abs=1e-12)

    def test_monotone_in_bandwidth_and_noise_figure(self):
        base = LinkBudget(p0_dbm=-90.0, bandwidth_hz=20e6, noise_figure_db=5.0)
        wider = LinkBudget(p0_dbm=-90.0, bandwidth_hz=40e6, noise_figure_db=5.0)
        noisier = LinkBudget(p0_dbm=-90.0, bandwidth_hz=20e6, noise_figure_db=7.0)
        assert noise_power(wider) > noise_power(base)
        assert noise_power(noisier) > noise_power(base)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            LinkBudget(p0_dbm=-90.0, bandwidth_hz=0.0)


class TestRayleighGenerator:
    def test_shape(self):
        h = generate_iid_rayleigh(4, 50, stream(0))
        assert h.shape == (4, 50)
        assert h.dtype == np.complex128

    def test_deterministic(self):
        a = generate_iid_rayleigh(4, 20, stream(123))
        b = generate_iid_rayleigh(4, 20, stream(123))
        assert np.array_equal(a, b)

    def test_unit_average_column_energy(self):
        m = 4
        h = generate_iid_rayleigh(m, 100_000, stream(1))
        mean_energy = np.mean(np.linalg.norm(h, axis=0) ** 2) / m
        assert abs(mean_energy - 1.0) <= 0.02

    def test_column_energy_distribution(self):
        # ||h||^2 should follow chi-squared with 2M degrees of freedom,
        # scaled by 1/2.
        m = 4
        h = generate_iid_rayleigh(m, 100_000, stream(2))
        samples = np.linalg.norm(h, axis=0) ** 2
        ks = stats.kstest(2.0 * samples, stats.chi2(2 * m).cdf).statistic
        assert ks < 0.01

    def test_zero_columns_regenerated(self):
        class ScriptedRng:
            # First full draw is all zeros; the retry delegates to a real
            # generator.
            def __init__(self):
                self.calls = 0
                self.inner = stream(9)

            def standard_normal(self, shape):
                self.calls += 1
                if self.calls <= 2:
                    return np.zeros(shape)
                return self.inner.standard_normal(shape)

        h = generate_iid_rayleigh(3, 5, ScriptedRng())
        assert h.shape == (3, 5)
        assert h.any(axis=0).all()

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            generate_iid_rayleigh(0, 5, stream(0))

