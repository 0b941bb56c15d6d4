"""Factorized conditional prior: closed forms and normalization of the
log density the loss computes, and label mapping."""

import numpy as np
import pytest
from scipy import integrate

from flowplug.errors import ConfigError, DimensionError
from flowplug.flow import FlowConfig, StyleStack, build_flow
from flowplug.losses import LossConfig, batch_loss_graph
from flowplug.numerics import no_grad
from flowplug.prior import LabelStats, PriorConfig, map_labels


def log_density(cfg: PriorConfig, c, s, y) -> float:
    """The prior's log density at latent (c, s) given labels y, read off as
    minus batch_loss_graph's NLL: one code through an identity-initialized
    flow, with no contrastive term."""
    model = build_flow(cfg, 1, FlowConfig(num_couplings=2, hidden_width=4), seed=0)
    stack = StyleStack(codes=np.concatenate([c, s])[None, :], labels=np.asarray(y), identity_id=0, frame_id=0)
    with no_grad():
        total, _, _ = batch_loss_graph(model, [[stack]], LossConfig(prior=cfg, lambda_contrastive=0.0))
    return -total.item()


class TestLogPrior:
    def test_density_at_mean_two_unit_gaussians(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=2, sigma=1.0)
        value = log_density(cfg, np.array([0.4]), np.array([0.0]), np.array([0.4]))
        assert value == pytest.approx(-1.8378770664093453, abs=1e-12)

    def test_one_sigma_off_mean(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=2, sigma=1.0)
        value = log_density(cfg, np.array([1.4]), np.array([0.0]), np.array([0.4]))
        assert value == pytest.approx(-2.3378770664093453, abs=1e-12)

    def test_narrow_sigma_at_mean(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=2, sigma=0.5)
        value = log_density(cfg, np.array([0.0]), np.array([0.0]), np.array([0.0]))
        assert value == pytest.approx(-1.1447298858494002, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = PriorConfig(num_attrs=1, latent_dim=3, sigma=1.0)
        with pytest.raises(DimensionError):
            log_density(cfg, np.zeros(1), np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):
            log_density(cfg, np.zeros(2), np.zeros(2), np.zeros(1))

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
                val = log_density(cfg, c, s, y)
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
        a = log_density(cfg, c, s, y)
        b = log_density(cfg, c + t, s, y + t)
        assert b == pytest.approx(a, abs=1e-9)

    def test_normalizes_to_one(self):
        # the trapezoid rule on a Gaussian of standard deviation sigma errs
        # by about 2 exp(-2 pi^2 sigma^2 / h^2): 5e-9 at sigma = h = 0.5
        cfg = PriorConfig(num_attrs=1, latent_dim=2, sigma=0.5)
        y = np.array([0.3])
        grid = np.arange(-8.0, 8.0 + 0.25, 0.5)
        dens = np.array([[np.exp(log_density(cfg, np.array([c]), np.array([s]), y)) for s in grid] for c in grid])
        total = integrate.trapezoid(integrate.trapezoid(dens, grid), grid)
        assert total == pytest.approx(1.0, abs=1e-4)


def mapped(raw, kind, stats=None) -> np.ndarray:
    """map_labels on one column of raw labels."""
    return map_labels(np.asarray(raw, dtype=np.float64)[:, None], (kind,), [stats])[:, 0]


class TestLabelToMean:
    def test_binary_positive(self):
        assert np.array_equal(mapped([1.0, 0.5], "binary"), [1.0, 1.0])

    def test_binary_negative(self):
        assert np.array_equal(mapped([-1.0, 0.0], "binary"), [-1.0, -1.0])

    def test_continuous_standardization_fixed_point(self):
        out = mapped([12.5, 15.5], "continuous", LabelStats(mean=12.5, std=3.0))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)

    def test_zero_std_rejected(self):
        with pytest.raises(ConfigError):
            mapped([1.0], "continuous", LabelStats(mean=0.0, std=0.0))
        with pytest.raises(ConfigError):
            mapped([1.0], "continuous", None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            mapped([1.0], "ordinal")


class TestConfig:
    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            PriorConfig(num_attrs=4, latent_dim=4, sigma=0.5)
        with pytest.raises(ConfigError):
            PriorConfig(num_attrs=0, latent_dim=4, sigma=0.5)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            PriorConfig(num_attrs=1, latent_dim=4, sigma=0.0)
