"""Factorized conditional latent distribution.

Each labeled attribute occupies one latent coordinate and is modeled as a
1-D Gaussian centered on its (standardized) label; the remaining
coordinates form the non-attribute block with a standard Gaussian prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configio import require_finite, require_integers
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
        require_integers(self, num_attrs=None, latent_dim=None)
        require_finite(self, "sigma")
        if not 0 < self.num_attrs < self.latent_dim:
            raise ConfigError(f"need 0 < num_attrs < latent_dim, got {self.num_attrs}, {self.latent_dim}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class LabelStats:
    """Per-attribute training-set mean and standard deviation, used to
    standardize continuous raw labels."""

    mean: float
    std: float


def map_labels(raw: np.ndarray, kinds: tuple[str, ...], stats: list[LabelStats | None]) -> np.ndarray:
    """Map a (batch, num_attrs) array of raw labels to the Gaussian means
    used by the prior, column by column.

    Binary labels map to -1/+1 (positive raw values are the positive
    class); continuous labels are standardized with training-set stats.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != len(kinds) or len(kinds) != len(stats):
        raise DimensionError("raw labels, kinds, and stats disagree on the attribute count")
    out = np.empty_like(raw)
    for j, (kind, st) in enumerate(zip(kinds, stats)):
        if kind == "binary":
            out[:, j] = np.where(raw[:, j] > 0, 1.0, -1.0)
        elif kind == "continuous":
            if st is None:
                raise ConfigError("continuous labels require dataset stats")
            if st.std == 0:
                raise ConfigError("zero standard deviation for a continuous attribute")
            out[:, j] = (raw[:, j] - st.mean) / st.std
        else:
            raise ConfigError(f"unknown attribute kind {kind!r}")
    return out
