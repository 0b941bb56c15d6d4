"""Dense numerics: autodiff tape, small MLPs, and the Adam optimizer."""

from .adam import AdamConfig, AdamOptimizer
from .autodiff import (
    Tensor,
    backward,
    finite_diff_gradient,
    gradient,
    no_grad,
    parameter,
    zero_grads,
)
from .mlp import LEAKY_SLOPE, Mlp, flat_parameters, init_mlp

__all__ = [
    "AdamConfig",
    "AdamOptimizer",
    "Tensor",
    "backward",
    "finite_diff_gradient",
    "gradient",
    "no_grad",
    "parameter",
    "zero_grads",
    "LEAKY_SLOPE",
    "Mlp",
    "flat_parameters",
    "init_mlp",
]
