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

from .configio import require_finite, require_integers
from .errors import ConfigError, DimensionError, NumericError
from .numerics import LEAKY_SLOPE, Mlp, Tensor, flat_parameters, init_mlp
from .numerics.autodiff import leaky_relu_array, leaky_relu_derivative
from .prior import PriorConfig


@dataclass(frozen=True)
class FlowConfig:
    num_couplings: int = 8
    hidden_width: int = 128
    hidden_layers: int = 2
    scale_clamp: float = 2.0

    def __post_init__(self):
        # at least 2 couplings, so that every coordinate is transformed
        require_integers(self, num_couplings=2, hidden_width=1, hidden_layers=1)
        require_finite(self, "scale_clamp")
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
    """Every net array is a view of one flat parameter, ``flat``, in
    ``parameters()`` order, and ``grad_views`` are the same views of one flat
    gradient, ``grad``; a process forked later shares both vectors."""

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
        self.flat, self.grad, self.grad_views = flat_parameters(self.parameters())

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


def _scale_shift(layer: CouplingLayer, xp: np.ndarray, cond: np.ndarray, kept: dict | None = None):
    """Soft-clamped log-scale ``s`` and shift ``t`` of one coupling, from the
    pass-through rows ``xp`` and the condition rows ``cond``.

    This one routine serves the training forward, the inference forward and
    the inverse. The scale and shift nets run side by side: each layer is one
    block ``[scale | shift]`` of rows, with one bias add and one leaky ReLU.
    Both nets see the same input, so the first layer is one GEMM on weights
    stacked at call time; later layers write their two GEMMs into the halves
    of the next block. Parameters change in place during training, so
    nothing derived from them is cached. The condition enters as
    ``cond @ W0[n_pass:]``. With ``kept``, stores what the hand-derived
    backward needs.
    """
    n_pass = xp.shape[1]
    scale, shift = layer.scale_net, layer.shift_net
    w0 = np.concatenate([scale.weights[0].data, shift.weights[0].data], axis=1)
    h = xp @ w0[:n_pass]
    h += cond @ w0[n_pass:]
    h += np.concatenate([scale.biases[0].data, shift.biases[0].data])
    hidden = []
    for ws, wt, bs, bt in zip(scale.weights[1:], shift.weights[1:], scale.biases[1:], shift.biases[1:]):
        z = leaky_relu_array(h, LEAKY_SLOPE)
        del h  # free this block before the next one is made
        if kept is not None:
            hidden.append(z)
        w_in, w_out = ws.data.shape
        h = np.empty((z.shape[0], 2 * w_out))
        np.matmul(z[:, :w_in], ws.data, out=h[:, :w_out])
        np.matmul(z[:, w_in:], wt.data, out=h[:, w_out:])
        h += np.concatenate([bs.data, bt.data])
    n_out = scale.out_dim
    th = np.tanh(h[:, :n_out] / layer.scale_clamp)
    if kept is not None:
        kept.update(xp=xp, w0=w0, hidden=hidden, th=th)
    return layer.scale_clamp * th, h[:, n_out:]


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
    # walk the [scale | shift] blocks back to the first layer's pre-activation
    g = np.concatenate([g_raw, g_t], axis=1)
    scale, shift = layer.scale_net, layer.shift_net
    scale_grads: list[np.ndarray] = []
    shift_grads: list[np.ndarray] = []
    for z, ws, wt in zip(reversed(kept["hidden"]), reversed(scale.weights[1:]), reversed(shift.weights[1:])):
        w_in, w_out = ws.data.shape
        g_b = g.sum(axis=0)
        scale_grads[:0] = [z[:, :w_in].T @ g[:, :w_out], g_b[:w_out]]
        shift_grads[:0] = [z[:, w_in:].T @ g[:, w_out:], g_b[w_out:]]
        g_z = np.empty((g.shape[0], 2 * w_in))
        np.matmul(g[:, :w_out], ws.data.T, out=g_z[:, :w_in])
        np.matmul(g[:, w_out:], wt.data.T, out=g_z[:, w_in:])
        # z > 0 exactly where its pre-activation is, so z gives the derivative
        g_z *= leaky_relu_derivative(z, LEAKY_SLOPE)
        g = g_z
    g_w0 = np.concatenate([kept["xp"].T @ g, cond.T @ g])
    g_b0 = np.sum(g, axis=0)
    g_in = None
    if want_input:
        g_in = g_out.copy()
        g_in[:, layer.trans_idx] = g_t * kept["e"]
        g_in[:, layer.pass_idx] += g @ kept["w0"][: layer.pass_idx.size].T
    width = scale.weights[0].data.shape[1]
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


def packed_forward(model: FlowModel, codes: np.ndarray, cond: np.ndarray, kept: list | None = None) -> np.ndarray:
    """Packed rows ``[latents | logdet]`` after every coupling; with
    ``kept``, appends one dict per coupling for ``packed_backward``."""
    state = np.concatenate([codes, np.zeros((codes.shape[0], 1))], axis=1)
    for layer in model.layers:
        layer_kept = None if kept is None else {}
        state = _forward_rows(layer, state, cond, layer_kept)
        if kept is not None:
            kept.append(layer_kept)
    return state


def packed_backward(model: FlowModel, g_state: np.ndarray, cond: np.ndarray, kept: list) -> list[np.ndarray]:
    """Reverse of ``packed_forward``: from the gradient of its packed output
    rows, the gradients of ``model.parameters()``."""
    grads: list[np.ndarray] = []
    for i in reversed(range(len(model.layers))):
        g_state, *layer_grads = _backward_rows(model.layers[i], g_state, cond, kept[i], want_input=i > 0)
        grads[:0] = layer_grads
    return grads


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
    state = packed_forward(model, codes, cond)
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
