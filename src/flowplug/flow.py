"""Conditional invertible flow between style codes and disentangled latents.

A stack of affine coupling layers with alternating even/odd coordinate
masks. Each layer's scale/shift networks see the pass-through half and a
one-hot encoding of the style code's layer index (the last rows of their
first-layer weights), so every layer index gets its own map while sharing
parameters. Scales are soft-clamped, and final net layers start at zero, so
an untrained model is exactly the identity with zero log-determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .numerics import Mlp, Tensor, init_mlp
from .numerics import autodiff as ad
from .numerics.mlp import ACTIVATION_ARRAYS
from .prior import PriorConfig


@dataclass(frozen=True)
class FlowConfig:
    num_couplings: int = 8
    hidden_width: int = 128
    hidden_layers: int = 2
    scale_clamp: float = 2.0

    def __post_init__(self):
        if self.num_couplings < 2:
            raise ConfigError("need at least 2 coupling layers so every coordinate is transformed")
        if self.hidden_width < 1 or self.hidden_layers < 1:
            raise ConfigError("hidden_width and hidden_layers must be positive")
        if self.scale_clamp <= 0:
            raise ConfigError("scale_clamp must be positive")


@dataclass
class StyleStack:
    """All style codes of one image: row i of ``codes`` is the code for
    layer i. ``labels`` are the mapped attribute targets."""

    codes: np.ndarray  # (num_codes, code_dim)
    labels: np.ndarray  # (num_attrs,)
    identity_id: int
    frame_id: int

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.codes.ndim != 2:
            raise DimensionError("codes must be a (num_codes, code_dim) array")

    @property
    def num_codes(self) -> int:
        return self.codes.shape[0]

    @property
    def code_dim(self) -> int:
        return self.codes.shape[1]


class CouplingLayer:
    """One affine coupling step: half the coordinates pass through and
    drive an elementwise scale/shift of the other half."""

    def __init__(self, mask_parity: int, scale_net: Mlp, shift_net: Mlp, scale_clamp: float, code_dim: int):
        self.mask_parity = mask_parity
        self.scale_net = scale_net
        self.shift_net = shift_net
        self.scale_clamp = scale_clamp
        idx = np.arange(code_dim)
        self.pass_idx = idx[idx % 2 == mask_parity]
        self.trans_idx = idx[idx % 2 != mask_parity]

    def parameters(self) -> list[Tensor]:
        return self.scale_net.parameters() + self.shift_net.parameters()


@dataclass
class FlowModel:
    layers: list[CouplingLayer]
    code_dim: int
    num_codes: int
    prior: PriorConfig
    flow_config: FlowConfig = field(default_factory=FlowConfig)

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ConfigError("a flow needs at least 2 coupling layers")
        parities = {layer.mask_parity for layer in self.layers}
        if parities != {0, 1}:
            raise ConfigError("mask parities must alternate so every coordinate is transformed")

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out


def build_flow(prior: PriorConfig, num_codes: int, cfg: FlowConfig, seed: int) -> FlowModel:
    """Construct an identity-initialized conditional flow."""
    if num_codes < 1:
        raise ConfigError("num_codes must be at least 1")
    rng = np.random.default_rng(seed)
    n = prior.latent_dim
    layers = []
    for i in range(cfg.num_couplings):
        parity = i % 2
        n_pass = int(np.sum(np.arange(n) % 2 == parity))
        n_trans = n - n_pass
        dims = [n_pass + num_codes] + [cfg.hidden_width] * cfg.hidden_layers + [n_trans]
        scale_net = init_mlp(dims, rng, zero_final=True)
        shift_net = init_mlp(dims, rng, zero_final=True)
        layers.append(CouplingLayer(parity, scale_net, shift_net, cfg.scale_clamp, n))
    return FlowModel(layers=layers, code_dim=n, num_codes=num_codes, prior=prior, flow_config=cfg)


# --- the coupling core: plain arrays, one (s, t) routine for every path ---


def _net_rest(net: Mlp, h: np.ndarray, kept: list | None) -> np.ndarray:
    """Run ``net`` on from its first layer's pre-activation ``h``; with
    ``kept``, append each hidden layer's (pre-activation, activation)."""
    act = ACTIVATION_ARRAYS[net.activation][0]
    for w, b in zip(net.weights[1:], net.biases[1:]):
        z = act(h)
        if kept is not None:
            kept.append((h, z))
        h = z @ w.data
        h += b.data
    return h


def _net_rest_backward(net: Mlp, g: np.ndarray, kept: list) -> tuple[np.ndarray, list[np.ndarray]]:
    """Backward of ``_net_rest``: the gradient at the first layer's
    pre-activation, and the gradients of layers 1.. in parameter order."""
    act_backward = ACTIVATION_ARRAYS[net.activation][1]
    grads: list[np.ndarray] = []
    for (pre, z), w in zip(reversed(kept), reversed(net.weights[1:])):
        grads[:0] = [z.T @ g, g.sum(axis=0)]
        g = g @ w.data.T
        act_backward(g, pre, z)
    return g, grads


def _scale_shift(layer: CouplingLayer, xp: np.ndarray, cond: np.ndarray, kept: dict | None = None):
    """Soft-clamped log-scale ``s`` and shift ``t`` of one coupling, from the
    pass-through rows ``xp`` and the condition rows ``cond``.

    This one routine serves the graph forward, the inference forward and the
    inverse. Both nets see the same input, so their first layers run as one
    GEMM on weights stacked at call time: parameters change in place during
    training, so nothing derived from them is cached. The condition enters
    as ``cond @ W0[n_pass:]``. With ``kept``, stores what the hand-derived
    backward needs.
    """
    n_pass = xp.shape[1]
    nets = (layer.scale_net, layer.shift_net)
    w0 = np.concatenate([net.weights[0].data for net in nets], axis=1)
    a = xp @ w0[:n_pass]
    a += cond @ w0[n_pass:]
    a += np.concatenate([net.biases[0].data for net in nets])
    width = layer.scale_net.weights[0].data.shape[1]
    scale_kept, shift_kept = ([], []) if kept is not None else (None, None)
    th = np.tanh(_net_rest(layer.scale_net, a[:, :width], scale_kept) / layer.scale_clamp)
    t = _net_rest(layer.shift_net, a[:, width:], shift_kept)
    if kept is not None:
        kept.update(xp=xp, w0=w0, width=width, th=th, scale=scale_kept, shift=shift_kept)
    return layer.scale_clamp * th, t


def _forward_rows(layer: CouplingLayer, state: np.ndarray, cond: np.ndarray, kept: dict | None = None) -> np.ndarray:
    """Coupling forward on packed rows ``[x | running logdet]``: returns
    ``[y | logdet + sum(s)]`` with ``y_t = x_t * exp(s) + t``."""
    s, t = _scale_shift(layer, state[:, layer.pass_idx], cond, kept)
    e = np.exp(s)
    xt_e = state[:, layer.trans_idx]
    xt_e *= e
    out = state.copy()
    out[:, layer.trans_idx] = xt_e + t
    out[:, -1] += np.sum(s, axis=1)
    if kept is not None:
        kept.update(e=e, xt_e=xt_e)
    return out


def _backward_rows(layer: CouplingLayer, g_out: np.ndarray, cond: np.ndarray, kept: dict, want_input: bool) -> tuple:
    """Hand-derived backward of ``_forward_rows`` (RealNVP's triangular
    Jacobian: the logdet is sum(s)). Returns the gradient of the input
    rows (None unless ``want_input``), then one per ``layer.parameters()``."""
    g_t = g_out[:, layer.trans_idx]
    # d/ds of y_t is x_t * exp(s), and the logdet column adds 1 to every s
    g_raw = g_t * kept["xt_e"]
    g_raw += g_out[:, -1:]
    th = kept["th"]
    g_raw *= 1.0 - th * th  # d s / d s_raw of the soft clamp
    g_scale, scale_grads = _net_rest_backward(layer.scale_net, g_raw, kept["scale"])
    g_shift, shift_grads = _net_rest_backward(layer.shift_net, g_t, kept["shift"])
    g_a = np.concatenate([g_scale, g_shift], axis=1)
    g_w0 = np.concatenate([kept["xp"].T @ g_a, cond.T @ g_a])
    g_b0 = np.sum(g_a, axis=0)
    g_in = None
    if want_input:
        g_in = g_out.copy()
        g_in[:, layer.trans_idx] = g_t * kept["e"]
        g_in[:, layer.pass_idx] += g_a @ kept["w0"][: layer.pass_idx.size].T
    width = kept["width"]
    return (
        g_in,
        g_w0[:, :width], g_b0[:width], *scale_grads,
        g_w0[:, width:], g_b0[width:], *shift_grads,
    )  # fmt: skip


def _inverse_rows(layer: CouplingLayer, y: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact algebraic inverse of one coupling; returns (x, s)."""
    yp = y[:, layer.pass_idx]
    s, t = _scale_shift(layer, yp, cond)
    x = y.copy()
    x[:, layer.trans_idx] = (y[:, layer.trans_idx] - t) * np.exp(-s)
    return x, s


def _coupling_node(layer: CouplingLayer, state: Tensor, cond: np.ndarray) -> Tensor:
    """One tape node for a whole coupling, on packed rows."""
    if not ad.grad_enabled():
        return Tensor(_forward_rows(layer, state.data, cond))
    kept: dict = {}
    out = _forward_rows(layer, state.data, cond, kept)
    return ad.record(
        out,
        (state, *layer.parameters()),
        lambda g: _backward_rows(layer, g, cond, kept, state.requires_grad),
    )


def to_latent_t(model: FlowModel, x: Tensor, cond: np.ndarray) -> tuple[Tensor, Tensor]:
    """Batched graph-building forward pass: (latents, per-row logdet).

    Each coupling records a single tape node; the running logdet rides
    along as an extra last column of the rows passed between couplings.
    """
    n = model.code_dim
    state = ad.concat_cols([x, Tensor(np.zeros((x.data.shape[0], 1)))])
    for layer in model.layers:
        state = _coupling_node(layer, state, cond)
    return ad.take_cols(state, np.arange(n)), ad.asum(ad.take_cols(state, np.array([n])), axis=1)


def _batch_inputs(model: FlowModel, rows: np.ndarray, layer_indices: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Validated float rows and their one-hot condition rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.code_dim:
        raise DimensionError(f"{what} have shape {rows.shape}, expected (*, {model.code_dim})")
    layer_indices = np.asarray(layer_indices, dtype=np.int64)
    if np.any(layer_indices < 0) or np.any(layer_indices >= model.num_codes):
        raise DimensionError(f"layer index out of range [0, {model.num_codes})")
    return rows, np.eye(model.num_codes)[layer_indices]


def codes_to_latents(model: FlowModel, codes: np.ndarray, layer_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched style codes -> latent rows; returns (latents, per-row logdet)."""
    codes, cond = _batch_inputs(model, codes, layer_indices, "codes")
    state = np.concatenate([codes, np.zeros((codes.shape[0], 1))], axis=1)
    for layer in model.layers:
        state = _forward_rows(layer, state, cond)
    if not np.all(np.isfinite(state)):
        raise NumericError("flow forward produced a non-finite value")
    return state[:, :-1].copy(), state[:, -1].copy()


def latents_to_codes(model: FlowModel, latents: np.ndarray, layer_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched inverse; returns (codes, per-row logdet of the inverse map)."""
    x, cond = _batch_inputs(model, latents, layer_indices, "latents")
    logdet = np.zeros(x.shape[0])
    for layer in reversed(model.layers):
        x, s = _inverse_rows(layer, x, cond)
        logdet -= np.sum(s, axis=1)
    if not np.all(np.isfinite(x)):
        raise NumericError("flow inverse produced a non-finite value")
    return x, logdet
