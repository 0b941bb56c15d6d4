"""Small dense multilayer perceptrons on top of the autodiff tape."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionError, NumericError
from . import autodiff as ad
from .autodiff import Tensor

LEAKY_SLOPE = 0.01

_ACTIVATIONS = {
    "leaky_relu": lambda x: ad.leaky_relu(x, LEAKY_SLOPE),
    "tanh": ad.tanh,
}

# the same activations on plain arrays, for hand-differentiated callers:
# (forward(pre) -> post, backward(g, pre, post) scaling ``g`` in place)
ACTIVATION_ARRAYS = {
    "leaky_relu": (
        lambda a: ad.leaky_relu_array(a, LEAKY_SLOPE),
        lambda g, pre, post: np.multiply(g, ad.leaky_relu_derivative(pre, LEAKY_SLOPE), out=g),
    ),
    "tanh": (np.tanh, lambda g, pre, post: np.multiply(g, 1.0 - post * post, out=g)),
}


@dataclass
class Mlp:
    """Weights/biases are trainable tape leaves; hidden activation by name,
    output layer always linear. Weight layout is (in_dim, out_dim)."""

    weights: list[Tensor]
    biases: list[Tensor]
    activation: str = "leaky_relu"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
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
        out: list[Tensor] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x: Tensor) -> Tensor:
        """Graph-building forward on a (batch, in_dim) tensor."""
        if x.data.ndim != 2 or x.data.shape[1] != self.in_dim:
            raise DimensionError(f"expected input (*, {self.in_dim}), got {x.data.shape}")
        act = _ACTIVATIONS[self.activation]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.matmul(h, w) + b
            if i < last:
                h = act(h)
        return h

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.forward(Tensor(x)).data


def init_mlp(
    dims: list[int],
    rng: np.random.Generator,
    activation: str = "leaky_relu",
    zero_final: bool = False,
    final_scale: float = 1.0,
) -> Mlp:
    """He-style init for hidden layers; final layer zeroed (identity start)
    or scaled-down Gaussian."""
    if len(dims) < 2:
        raise DimensionError("an MLP needs at least input and output dimensions")
    weights, biases = [], []
    last = len(dims) - 2
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        if i == last and zero_final:
            w = np.zeros((fan_in, fan_out))
        elif i == last:
            w = rng.normal(size=(fan_in, fan_out)) * (final_scale / np.sqrt(fan_in))
        else:
            w = rng.normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        weights.append(ad.parameter(w))
        biases.append(ad.parameter(np.zeros(fan_out)))
    return Mlp(weights=weights, biases=biases, activation=activation)


__all__ = ["ACTIVATION_ARRAYS", "Mlp", "init_mlp", "LEAKY_SLOPE"]
