"""Training objective: conditional NLL over all style codes plus a
pull-together contrastive loss on the non-attribute vectors of frames that
share an identity, combined with a configurable weight."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from math import fsum

import numpy as np

from .blas import SecondProcess
from .configio import require_finite
from .errors import ConfigError, DimensionError, NumericError
from .flow import FlowModel, StyleStack, packed_backward, packed_forward
from .numerics import Tensor
from .numerics import autodiff as ad
from .prior import LOG_2PI, PriorConfig


@dataclass(frozen=True)
class LossConfig:
    prior: PriorConfig
    lambda_contrastive: float = 1.0
    normalize_groups: bool = True

    def __post_init__(self):
        require_finite(self, "lambda_contrastive")
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


class RowWorker(SecondProcess):
    """The second row half of every split batch of one model, and
    ``step_fn`` (the optimizer over its share of the parameters), as the ops
    of a ``blas.SecondProcess``: ``"forward"`` returns the half's state rows,
    ``"backward"`` writes its gradients into ``model.grad_views`` and
    ``"step"`` runs ``step_fn``. Only the intermediates of the latest
    forward are kept, so a loss's backward comes before the next loss. The
    model's parameters and gradients are memory that a forked child shares,
    so only rows cross the pipe."""

    def __init__(self, model: FlowModel, step_fn: Callable[[], None] | None = None):
        super().__init__("the training worker process")
        self.model, self.step_fn = model, step_fn
        self._cond = self._kept = None

    def serve(self, op: str, *args):
        if op == "forward":
            rows, self._cond, keep = args
            self._kept = [] if keep else None
            return packed_forward(self.model, rows, self._cond, self._kept)
        if op == "backward":
            for out, g in zip(self.model.grad_views, packed_backward(self.model, args[0], self._cond, self._kept)):
                out[...] = g
        else:
            self.step_fn()


def batch_loss_graph(
    model: FlowModel, groups: list[list[StyleStack]], cfg: LossConfig, worker: RowWorker | None = None
) -> tuple[Tensor, Tensor, Tensor]:
    """(total, mean NLL, mean contrastive) for one batch of identity groups.
    The contrastive term is averaged over every (group, layer) pair; NLL is
    averaged over stacks. ``total`` is one tape node whose parents are
    ``model.parameters()``, with the closed-form gradient of the loss head
    fed through ``packed_backward``.

    Rows pass the flow independently, so a batch of more than one stack runs
    as two fixed row halves: the first ceil(N/2) stacks on this thread and
    the rest on ``worker``, a ``RowWorker`` of this model (by default one
    that is not entered, so after the first half on this thread), for the
    forward and again for the backward. The state is the halves
    concatenated, and each gradient is first half + second half, so results
    do not depend on where the halves run. The gradients are always
    ``model.grad_views``, which the optimizers read, also for a one-stack
    batch."""
    if cfg.prior != model.prior:
        raise ConfigError("loss prior differs from the model's prior snapshot")
    if worker is None:
        worker = RowWorker(model)
    elif worker.model is not model:
        raise ConfigError("the row worker serves another model")
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
    num_terms = len(groups) * k

    codes = np.concatenate([st.codes for st in stacks], axis=0)
    cond = np.tile(np.eye(k), (num_stacks, 1))
    labels = np.repeat(np.stack([st.labels for st in stacks]), k, axis=0)

    keep = ad.grad_enabled()
    kept = [] if keep else None
    if num_stacks > 1:
        cut = (num_stacks + 1) // 2 * k  # the rows of the first ceil(N/2) stacks
        worker.call("forward", codes[cut:], cond[cut:], keep)
        state = np.concatenate(worker.alongside(lambda: packed_forward(model, codes[:cut], cond[:cut], kept)))
    else:
        state = packed_forward(model, codes, cond, kept)
    c, s, logdet = state[:, :m], state[:, m:n], state[:, n]

    var = cfg.prior.sigma**2
    const = -0.5 * m * (LOG_2PI + math.log(var)) - 0.5 * (n - m) * LOG_2PI
    dc = c - labels
    log_p = const - np.sum(dc * dc, axis=1) * (0.5 / var) - np.sum(s * s, axis=1) * 0.5
    nll_mean = -np.sum(log_p + logdet) / num_stacks

    # rows are stack-major, layer-minor, so each group is one contiguous
    # block of size * k rows and its per-layer means are a reshape and a mean
    d = np.empty_like(s)
    w = np.empty((s.shape[0], 1))  # each row's contrastive weight
    start = 0
    for size in (len(g) for g in groups):
        rows = slice(start, start + size * k)
        block = s[rows].reshape(size, k, -1)
        d[rows] = (block - block.mean(axis=0)).reshape(size * k, -1)
        if cfg.normalize_groups:
            w[rows] = 0.0 if size == 1 else 2.0 / (size - 1)
        else:
            w[rows] = 2.0 * size
        start += size * k
    contrast_mean = np.sum(w * d * d) / num_terms

    lam = cfg.lambda_contrastive
    total = nll_mean + lam * contrast_mean if lam != 0.0 else nll_mean
    if not np.isfinite(total):
        raise NumericError("non-finite batch loss")

    def grad_fn(g_out):
        # per row: d/dc = (c - label) / (var N), d/ds = s / N plus the
        # contrastive w 2 (s - group mean) / terms (the group mean's own
        # gradient sums to zero), d/dlogdet = -1 / N
        g_state = np.empty_like(state)
        g_state[:, :m] = dc * (1.0 / (var * num_stacks))
        g_state[:, m:n] = s * (1.0 / num_stacks) + d * w * (2.0 * lam / num_terms)
        g_state[:, n] = -1.0 / num_stacks
        g_state *= g_out
        if num_stacks == 1:
            for out, g in zip(model.grad_views, packed_backward(model, g_state, cond, kept)):
                out[...] = g
            return model.grad_views
        worker.call("backward", g_state[cut:])
        first, _ = worker.alongside(lambda: packed_backward(model, g_state[:cut], cond[:cut], kept))
        return [np.add(a, b, out=b) for a, b in zip(first, model.grad_views)]

    return ad.record(np.array(total), tuple(model.parameters()), grad_fn), Tensor(nll_mean), Tensor(contrast_mean)
