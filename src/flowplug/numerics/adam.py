"""Adam with bias correction, updating parameters in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError
from .autodiff import Tensor


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _check_finite(grads: list[np.ndarray]) -> None:
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient passed to the Adam step")


def _update_in_place(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, cfg: AdamConfig, t: int) -> None:
    """Step ``t`` of Adam on one array, overwriting ``p``, ``m`` and ``v``:
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p -= lr (m / c1) / (sqrt(v / c2) + eps), each operation rounded as
    written."""
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    gg = (1.0 - cfg.beta2) * g
    gg *= g
    v += gg
    update = m / c1
    update *= cfg.lr
    denom = v / c2
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    update /= denom
    p -= update


@dataclass
class AdamOptimizer:
    """Stateful Adam for training loops: updates each parameter's ``data``
    and its first and second moments ``m``, ``v`` in place; ``t`` counts
    the steps taken."""

    params: list[Tensor]
    cfg: AdamConfig = field(default_factory=AdamConfig)

    def __post_init__(self):
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Check that every gradient is finite, then ``update``."""
        _check_finite([p.grad for p in self.params if p.grad is not None])
        self.update()

    def update(self) -> None:
        """One Adam step with no finiteness check, for a caller that has
        checked the gradients itself; a missing gradient counts as zero."""
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            _update_in_place(p.data, g, m, v, self.cfg, self.t)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
