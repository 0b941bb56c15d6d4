"""Small dense multilayer perceptrons on plain arrays, with a hand-derived
backward."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        return self.rest(x @ self.weights[0].data + self.biases[0].data, kept)

    def rest(self, h: np.ndarray, kept: list | None = None) -> np.ndarray:
        """Run on from the first layer's pre-activation ``h``; with ``kept``,
        append each hidden layer's (pre-activation, activation)."""
        for w, b in zip(self.weights[1:], self.biases[1:]):
            z = ad.leaky_relu_array(h, LEAKY_SLOPE)
            if kept is not None:
                kept.append((h, z))
            h = z @ w.data
            h += b.data
        return h

    def rest_backward(self, g: np.ndarray, kept: list) -> tuple[np.ndarray, list[np.ndarray]]:
        """Backward of ``rest``: the gradient at the first layer's
        pre-activation, and the gradients of layers 1.. in parameter order."""
        grads: list[np.ndarray] = []
        for (pre, z), w in zip(reversed(kept), reversed(self.weights[1:])):
            grads[:0] = [z.T @ g, g.sum(axis=0)]
            g = g @ w.data.T
            g *= ad.leaky_relu_derivative(pre, LEAKY_SLOPE)
        return g, grads

    def backward(self, g: np.ndarray, kept: list) -> list[np.ndarray]:
        """Gradients of ``parameters()`` from the output gradient ``g`` and the
        ``kept`` of the matching ``forward``."""
        x, *hidden = kept
        g, grads = self.rest_backward(g, hidden)
        return [x.T @ g, g.sum(axis=0), *grads]


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


__all__ = ["Mlp", "init_mlp", "LEAKY_SLOPE"]
