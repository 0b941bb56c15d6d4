"""Training objective: conditional NLL over all style codes plus a
pull-together contrastive loss on the non-attribute vectors of frames that
share an identity, combined with a configurable weight."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .flow import FlowModel, StyleStack, to_latent_t
from .numerics import Tensor
from .numerics import autodiff as ad
from .prior import LOG_2PI, PriorConfig


@dataclass(frozen=True)
class LossConfig:
    prior: PriorConfig
    lambda_contrastive: float = 1.0
    normalize_groups: bool = True

    def __post_init__(self):
        if self.lambda_contrastive < 0:
            raise ConfigError(f"lambda_contrastive must be non-negative, got {self.lambda_contrastive}")


def contrastive_loss(s_vectors: np.ndarray, normalize: bool = False) -> float:
    """Sum of squared distances over ordered pairs within one identity group,
    computed as 2n times the summed squared distances to the group mean.

    With ``normalize`` the value is divided by n(n-1), making it a mean
    over ordered pairs (0 for singleton groups).
    """
    s = np.asarray(s_vectors, dtype=np.float64)
    if s.ndim != 2:
        raise DimensionError("expected a (group_size, dim) array of non-attribute vectors")
    n = s.shape[0]
    if n == 0:
        raise DimensionError("empty identity group")
    if n == 1:
        return 0.0
    # fsum keeps the value exactly invariant to frame order within the group
    mean = np.array([fsum(s[:, j]) for j in range(s.shape[1])]) / n
    total = fsum(fsum((row - mean) ** 2) for row in s)
    value = 2.0 * n * total
    if normalize:
        value /= n * (n - 1)
    return value


def _group_rows(groups: list[list[StyleStack]], num_codes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Constant matrices mapping batch rows to per-(group, layer) means.

    Rows are ordered stack-major, layer-minor. Returns (avg, expand,
    row_weights, num_terms) where avg @ S gives term means, expand @ means
    broadcasts them back to rows, and row_weights carries the per-row
    contrastive coefficient determined by its group size.
    """
    b = sum(len(g) for g in groups) * num_codes
    num_terms = len(groups) * num_codes
    avg = np.zeros((num_terms, b))
    expand = np.zeros((b, num_terms))
    weights = np.zeros(b)
    stack_offset = 0
    for gi, group in enumerate(groups):
        n = len(group)
        for layer in range(num_codes):
            term = gi * num_codes + layer
            rows = stack_offset * num_codes + layer + num_codes * np.arange(n)
            avg[term, rows] = 1.0 / n
            expand[rows, term] = 1.0
        weights[stack_offset * num_codes : (stack_offset + n) * num_codes] = 0.0 if n == 1 else 2.0 / (n - 1)
        stack_offset += n
    return avg, expand, weights, num_terms


def batch_loss_graph(
    model: FlowModel, groups: list[list[StyleStack]], cfg: LossConfig
) -> tuple[Tensor, Tensor, Tensor]:
    """Differentiable (total, mean NLL, mean contrastive) for one batch of
    identity groups. The contrastive term is averaged over every
    (group, layer) pair; NLL is averaged over stacks."""
    if cfg.prior != model.prior:
        raise ConfigError("loss prior differs from the model's prior snapshot")
    if not groups or any(not g for g in groups):
        raise DimensionError("batch must be a non-empty list of non-empty identity groups")
    for g in groups:
        ids = {st.identity_id for st in g}
        if len(ids) != 1:
            raise DimensionError(f"identity group mixes identities {sorted(ids)}")
    stacks = [st for g in groups for st in g]
    k = model.num_codes
    m = model.prior.num_attrs
    n = model.code_dim
    for st in stacks:
        if st.num_codes != k or st.code_dim != n:
            raise DimensionError("stack dimensions do not match the model")
        if st.labels.shape != (m,):
            raise DimensionError(f"stack labels have shape {st.labels.shape}, expected ({m},)")
    num_stacks = len(stacks)

    codes = np.concatenate([st.codes for st in stacks], axis=0)
    cond = np.tile(np.eye(k), (num_stacks, 1))
    labels = np.repeat(np.stack([st.labels for st in stacks]), k, axis=0)

    z, logdet = to_latent_t(model, Tensor(codes), cond)
    c = ad.take_cols(z, np.arange(m))
    s = ad.take_cols(z, np.arange(m, n))

    var = cfg.prior.sigma**2
    const = -0.5 * m * (LOG_2PI + math.log(var)) - 0.5 * (n - m) * LOG_2PI
    dc = c - Tensor(labels)
    log_p = const - ad.asum(dc * dc, axis=1) * (0.5 / var) - ad.asum(s * s, axis=1) * 0.5
    nll_mean = ad.asum(-(log_p + logdet)) * (1.0 / num_stacks)

    avg, expand, weights, num_terms = _group_rows(groups, k)
    if not cfg.normalize_groups:
        # unnormalized row weight is 2n for a group of size n
        sizes = np.repeat([len(g) for g in groups], [len(g) * k for g in groups]).astype(np.float64)
        weights = 2.0 * sizes
    mean_rows = ad.matmul(Tensor(expand), ad.matmul(Tensor(avg), s))
    d = s - mean_rows
    rowsq = ad.asum(d * d, axis=1)
    contrast_mean = ad.asum(rowsq * Tensor(weights)) * (1.0 / num_terms)

    if cfg.lambda_contrastive == 0.0:
        total = nll_mean
    else:
        total = nll_mean + cfg.lambda_contrastive * contrast_mean
    if not np.isfinite(total.data):
        raise NumericError("non-finite batch loss")
    return total, nll_mean, contrast_mean
