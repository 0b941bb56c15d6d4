"""Factorized conditional prior: closed forms, normalization, and label
mapping."""

import math

import numpy as np
import pytest
from scipy import integrate

from flowplug.errors import ConfigError, DimensionError
from flowplug.prior import LabelStats, LatentPair, PriorConfig, label_to_mean, log_prior


class TestLogPrior:
    def test_density_at_mean_two_unit_gaussians(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=2, sigma=1.0)
        value = log_prior(LatentPair(c=np.array([0.4]), s=np.array([0.0])), np.array([0.4]), cfg)
        assert value == pytest.approx(-1.8378770664093453, abs=1e-12)

    def test_one_sigma_off_mean(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=2, sigma=1.0)
        value = log_prior(LatentPair(c=np.array([1.4]), s=np.array([0.0])), np.array([0.4]), cfg)
        assert value == pytest.approx(-2.3378770664093453, abs=1e-12)

    def test_narrow_sigma_at_mean(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=2, sigma=0.5)
        value = log_prior(LatentPair(c=np.array([0.0]), s=np.array([0.0])), np.array([0.0]), cfg)
        assert value == pytest.approx(-1.1447298858494002, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=3, sigma=1.0)
        with pytest.raises(DimensionError):
            log_prior(LatentPair(c=np.zeros(2), s=np.zeros(1)), np.zeros(1), cfg)

    def test_maximized_at_label(self):
        cfg = PriorConfig(num_attrs=2, latent_dim=4, sigma=0.5)
        y = np.array([1.0, -1.0])
        s = np.array([0.3, -0.2])
        grid = np.arange(-0.5, 0.5 + 1e-9, 0.01)
        for axis in range(2):
            best, best_val = None, -np.inf
            for delta in grid:
                c = y.copy()
                c[axis] += delta
                val = log_prior(LatentPair(c=c, s=s), y, cfg)
                if val > best_val:
                    best, best_val = delta, val
            assert best == pytest.approx(0.0, abs=1e-9)

    def test_translation_invariance(self):
        cfg = PriorConfig(num_attrs=2, latent_dim=5, sigma=0.7)
        rng = np.random.default_rng(0)
        c = rng.normal(size=2)
        s = rng.normal(size=3)
        y = rng.normal(size=2)
        t = rng.normal(size=2) * 3
        a = log_prior(LatentPair(c=c, s=s), y, cfg)
        b = log_prior(LatentPair(c=c + t, s=s), y + t, cfg)
        assert b == pytest.approx(a, abs=1e-9)

    def test_normalizes_to_one(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=2, sigma=0.5)
        y = np.array([0.3])

        def density(s, c):
            return math.exp(log_prior(LatentPair(c=np.array([c]), s=np.array([s])), y, cfg))

        total, _ = integrate.dblquad(density, -8, 8, -8, 8, epsabs=1e-6)
        assert total == pytest.approx(1.0, abs=1e-4)


class TestLabelToMean:
    def test_binary_positive(self):
        assert label_to_mean(1.0, "binary") == 1.0
        assert label_to_mean(0.5, "binary") == 1.0

    def test_binary_negative(self):
        assert label_to_mean(-1.0, "binary") == -1.0
        assert label_to_mean(0.0, "binary") == -1.0

    def test_continuous_standardization_fixed_point(self):
        stats = LabelStats(mean=12.5, std=3.0)
        assert label_to_mean(12.5, "continuous", stats) == 0.0
        assert label_to_mean(15.5, "continuous", stats) == pytest.approx(1.0)

    def test_zero_std_rejected(self):
        with pytest.raises(ConfigError):
            label_to_mean(1.0, "continuous", LabelStats(mean=0.0, std=0.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            label_to_mean(1.0, "ordinal")


class TestConfig:
    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            PriorConfig(num_attrs=4, latent_dim=4, sigma=0.5)
        with pytest.raises(ConfigError):
            PriorConfig(num_attrs=0, latent_dim=4, sigma=0.5)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            PriorConfig(num_attrs=1, latent_dim=4, sigma=0.0)
