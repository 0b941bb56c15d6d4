"""Adam with bias correction, in functional and stateful-wrapper forms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionError, NumericError
from .autodiff import Tensor


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def init(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(step=0, m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def _check_finite(grads: list[np.ndarray]) -> None:
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient passed to adam_step")


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


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    cfg: AdamConfig,
) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update; pure, returns fresh arrays and the advanced state."""
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise DimensionError("params, grads, and moment state must have equal lengths")
    _check_finite(grads)
    t = state.step + 1
    new_p = [np.array(p, dtype=np.float64) for p in params]
    new_m = [np.array(m, dtype=np.float64) for m in state.m]
    new_v = [np.array(v, dtype=np.float64) for v in state.v]
    for p, g, m, v in zip(new_p, grads, new_m, new_v):
        _update_in_place(p, g, m, v, cfg, t)
    return new_p, AdamState(step=t, m=new_m, v=new_v)


@dataclass
class AdamOptimizer:
    """Stateful Adam for training loops: updates each parameter's ``data``
    and its moments in place, with the same arithmetic as ``adam_step``."""

    params: list[Tensor]
    cfg: AdamConfig = field(default_factory=AdamConfig)

    def __post_init__(self):
        self.state = AdamState.init([p.data for p in self.params])

    def step(self) -> None:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        _check_finite(grads)
        t = self.state.step + 1
        for p, g, m, v in zip(self.params, grads, self.state.m, self.state.v):
            _update_in_place(p.data, g, m, v, self.cfg, t)
        self.state.step = t

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
