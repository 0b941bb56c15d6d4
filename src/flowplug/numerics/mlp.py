"""Small dense multilayer perceptrons on plain arrays, with a hand-derived
backward, and the flat layout of a model's parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..blas import shared_zeros
from ..errors import DimensionError, NumericError
from . import autodiff as ad
from .autodiff import Tensor

LEAKY_SLOPE = 0.01


@dataclass
class Mlp:
    """Weights/biases are trainable leaves (Adam reads their ``grad``);
    hidden layers use leaky ReLU, the output layer is linear. Weight layout
    is (in_dim, out_dim)."""

    weights: list[Tensor]
    biases: list[Tensor]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise DimensionError("weights and biases must be non-empty lists of equal length")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.data.ndim != 2 or b.data.ndim != 1 or w.data.shape[1] != b.data.shape[0]:
                raise DimensionError(f"layer {i}: weight {w.data.shape} and bias {b.data.shape} do not match")
            if i > 0 and self.weights[i - 1].data.shape[1] != w.data.shape[0]:
                raise DimensionError(f"layer {i - 1} output does not chain into layer {i} input")
            if not (np.all(np.isfinite(w.data)) and np.all(np.isfinite(b.data))):
                raise NumericError(f"layer {i}: non-finite parameter entry")

    @property
    def in_dim(self) -> int:
        return self.weights[0].data.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].data.shape[1]

    def parameters(self) -> list[Tensor]:
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def forward(self, x: np.ndarray, kept: list | None = None) -> np.ndarray:
        """Outputs for a (batch, in_dim) array; with ``kept``, stores what
        ``backward`` needs."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(f"expected input (*, {self.in_dim}), got {x.shape}")
        if kept is not None:
            kept.append(x)
        h = x @ self.weights[0].data + self.biases[0].data
        for w, b in zip(self.weights[1:], self.biases[1:]):
            z = ad.leaky_relu_array(h, LEAKY_SLOPE)
            if kept is not None:
                kept.append((h, z))
            h = z @ w.data
            h += b.data
        return h

    def backward(self, g: np.ndarray, kept: list, out: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """Gradients of ``parameters()`` from the output gradient ``g`` and the
        ``kept`` of the matching ``forward``; with ``out``, arrays shaped like
        ``parameters()``, they are written into those arrays."""
        x, *hidden = kept
        grads: list = [None] * (2 * len(self.weights)) if out is None else out
        for i in range(len(self.weights) - 1, 0, -1):
            pre, z = hidden[i - 1]
            grads[2 * i] = np.matmul(z.T, g, out=grads[2 * i])
            grads[2 * i + 1] = np.sum(g, axis=0, out=grads[2 * i + 1])
            g = g @ self.weights[i].data.T
            g *= ad.leaky_relu_derivative(pre, LEAKY_SLOPE)
        grads[0] = np.matmul(x.T, g, out=grads[0])
        grads[1] = np.sum(g, axis=0, out=grads[1])
        return grads


def flat_parameters(params: list[Tensor]) -> tuple[Tensor, np.ndarray, list[np.ndarray]]:
    """One parameter holding every entry of ``params``, whose arrays become
    views of it in order, and a gradient vector of the same layout with its
    views shaped like those arrays. Both vectors are one ``shared_zeros``
    mapping, so a process forked later reads and writes them too."""
    n = sum(p.data.size for p in params)
    shared = shared_zeros(2 * n)
    flat, grad = Tensor(shared[:n], requires_grad=True), shared[n:]
    views, start = [], 0
    for p in params:
        stop = start + p.data.size
        data = flat.data[start:stop].reshape(p.data.shape)
        data[...] = p.data
        p.data = data
        views.append(grad[start:stop].reshape(data.shape))
        start = stop
    return flat, grad, views


def init_mlp(dims: list[int], rng: np.random.Generator, zero_final: bool = False) -> Mlp:
    """He-style init for hidden layers; final layer zeroed (identity start)
    or Gaussian with variance 1/fan_in."""
    if len(dims) < 2:
        raise DimensionError("an MLP needs at least input and output dimensions")
    weights, biases = [], []
    last = len(dims) - 2
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        if i == last and zero_final:
            w = np.zeros((fan_in, fan_out))
        elif i == last:
            w = rng.normal(size=(fan_in, fan_out)) * (1.0 / np.sqrt(fan_in))
        else:
            w = rng.normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        weights.append(ad.parameter(w))
        biases.append(ad.parameter(np.zeros(fan_out)))
    return Mlp(weights=weights, biases=biases)


__all__ = ["Mlp", "flat_parameters", "init_mlp", "LEAKY_SLOPE"]
