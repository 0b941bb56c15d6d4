"""Factorized conditional latent distribution.

Each labeled attribute occupies one latent coordinate and is modeled as a
1-D Gaussian centered on its (standardized) label; the remaining
coordinates form the non-attribute block with a standard Gaussian prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PriorConfig:
    """num_attrs attribute coordinates out of latent_dim total; sigma is the
    per-attribute conditional standard deviation."""

    num_attrs: int
    latent_dim: int
    sigma: float = 0.5

    def __post_init__(self):
        if not 0 < self.num_attrs < self.latent_dim:
            raise ConfigError(f"need 0 < num_attrs < latent_dim, got {self.num_attrs}, {self.latent_dim}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")


@dataclass
class LatentPair:
    """Attribute coordinates ``c`` (length M) and non-attribute block ``s``."""

    c: np.ndarray
    s: np.ndarray


def _check_dims(pair: LatentPair, labels: np.ndarray, cfg: PriorConfig) -> None:
    if pair.c.shape != (cfg.num_attrs,):
        raise DimensionError(f"attribute vector has shape {pair.c.shape}, expected ({cfg.num_attrs},)")
    if pair.s.shape != (cfg.latent_dim - cfg.num_attrs,):
        raise DimensionError(
            f"non-attribute vector has shape {pair.s.shape}, expected ({cfg.latent_dim - cfg.num_attrs},)"
        )
    if labels.shape != (cfg.num_attrs,):
        raise DimensionError(f"label vector has shape {labels.shape}, expected ({cfg.num_attrs},)")


def log_prior(pair: LatentPair, labels: np.ndarray, cfg: PriorConfig) -> float:
    """Exact log density: product of per-attribute Gaussians N(label, sigma^2)
    times a standard Gaussian on the non-attribute block."""
    labels = np.asarray(labels, dtype=np.float64)
    _check_dims(pair, labels, cfg)
    m = cfg.num_attrs
    n_s = cfg.latent_dim - m
    var = cfg.sigma * cfg.sigma
    quad_c = float(np.dot(pair.c - labels, pair.c - labels)) / (2.0 * var)
    quad_s = 0.5 * float(np.dot(pair.s, pair.s))
    const = -0.5 * m * (LOG_2PI + math.log(var)) - 0.5 * n_s * LOG_2PI
    return const - quad_c - quad_s


@dataclass(frozen=True)
class LabelStats:
    """Per-attribute training-set mean and standard deviation, used to
    standardize continuous raw labels."""

    mean: float
    std: float


def label_to_mean(raw_label: float, attribute_kind: str, stats: LabelStats | None = None) -> float:
    """Map a raw label to the Gaussian mean used by the prior.

    Binary labels map to -1/+1 (positive raw values are the positive
    class); continuous labels are standardized with training-set stats.
    """
    if attribute_kind == "binary":
        return 1.0 if raw_label > 0 else -1.0
    if attribute_kind == "continuous":
        if stats is None:
            raise ConfigError("continuous labels require dataset stats")
        if stats.std == 0:
            raise ConfigError("zero standard deviation for a continuous attribute")
        return (float(raw_label) - stats.mean) / stats.std
    raise ConfigError(f"unknown attribute kind {attribute_kind!r}")


def map_labels(raw: np.ndarray, kinds: tuple[str, ...], stats: list[LabelStats | None]) -> np.ndarray:
    """Row-wise label_to_mean over a (batch, num_attrs) array."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != len(kinds) or len(kinds) != len(stats):
        raise DimensionError("raw labels, kinds, and stats disagree on the attribute count")
    out = np.empty_like(raw)
    for j, kind in enumerate(kinds):
        if kind == "binary":
            out[:, j] = np.where(raw[:, j] > 0, 1.0, -1.0)
        else:
            out[:, j] = [label_to_mean(v, kind, stats[j]) for v in raw[:, j]]
    return out
