"""Array-valued reverse-mode automatic differentiation.

A tiny tape: every ``Tensor`` produced by an operation keeps references to
its parents and a closure that turns the output gradient into parent
gradients. Each training objective (the flow loss, a probe step) is one
hand-differentiated node made through ``record``. All data is float64
numpy. Gradients are verified against central finite differences (see
``finite_diff_gradient``), which is the binding contract.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Callable, Sequence

import numpy as np

from ..errors import ConfigError, DimensionError, NumericError

# the last row is the tape's generic op set: it backs Tensor's operators, and
# no training path records it, but perfbench/spans.py resolves it by name
__all__ = [
    "Tensor", "parameter", "record", "grad_enabled", "no_grad", "backward", "zero_grads",
    "gradient", "finite_diff_gradient", "flatten_arrays", "leaky_relu_array", "leaky_relu_derivative",
    "add", "sub", "mul", "neg", "matmul", "exp", "log", "tanh", "leaky_relu", "asum", "take_cols", "concat_cols",
]  # fmt: skip


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path).

    The flag is thread-local, so concurrent read-only evaluation cannot
    disturb a training thread's recording.
    """
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """A float64 array plus the tape metadata needed for backprop.

    ``grad`` arrays may alias internal buffers; treat them as read-only.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None

    def item(self) -> float:
        return float(self.data)

    def sum(self, axis: int | None = None) -> "Tensor":
        return asum(self, axis=axis)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise DimensionError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, Tensor(1.0 / float(other)))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def parameter(data) -> Tensor:
    """A trainable leaf: gradients accumulate here during backward."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def grad_enabled() -> bool:
    """Whether operations record tape nodes in this thread."""
    return _grad_mode.enabled


def record(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    """The tape node behind every operation: ``grad_fn(g)`` returns one
    gradient (or None) per parent. Records nothing under ``no_grad`` or when
    no parent requires a gradient. Hand-differentiated operations, such as
    the flow loss and a probe step, call it directly."""
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._grad_fn = grad_fn
        return out
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return record(a.data + b.data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return record(a.data - b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return record(a.data * b.data, (a, b), grad_fn)


def neg(a: Tensor) -> Tensor:
    return record(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul supports 2-D operands only")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shapes {a.data.shape} and {b.data.shape} do not chain")

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return record(a.data @ b.data, (a, b), grad_fn)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def grad_fn(g):
        return (g * out,)

    return record(out, (a,), grad_fn)


def log(a: Tensor) -> Tensor:
    def grad_fn(g):
        return (g / a.data,)

    return record(np.log(a.data), (a,), grad_fn)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def grad_fn(g):
        return (g * (1.0 - out * out),)

    return record(out, (a,), grad_fn)


def leaky_relu_array(a: np.ndarray, slope: float) -> np.ndarray:
    """``max(slope * a, a)``: for ``0 <= slope <= 1`` this equals
    ``where(a > 0, a, slope * a)`` bit for bit, signed zeros included (NaN
    stays NaN), without a select on a data-dependent mask."""
    if not 0.0 <= slope <= 1.0:
        raise ConfigError(f"leaky_relu slope must lie in [0, 1], got {slope}")
    out = a * slope
    np.maximum(out, a, out=out)
    return out


def leaky_relu_derivative(a: np.ndarray, slope: float) -> np.ndarray:
    """1 where ``a > 0``, else ``slope`` (so 0.0 and -0.0 get ``slope``)."""
    d = (a > 0.0).astype(np.float64)
    np.maximum(d, slope, out=d)
    return d


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    def grad_fn(g):
        d = leaky_relu_derivative(a.data, slope)
        d *= g
        return (d,)

    return record(leaky_relu_array(a.data, slope), (a,), grad_fn)


def asum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return record(np.sum(a.data, axis=axis), (a,), grad_fn)


def take_cols(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select columns of a 2-D tensor; ``idx`` must not repeat an index."""
    if a.data.ndim != 2:
        raise DimensionError("take_cols expects a 2-D tensor")

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        buf[:, idx] = g
        return (buf,)

    return record(a.data[:, idx], (a,), grad_fn)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if any(p.data.ndim != 2 for p in parts):
        raise DimensionError("concat_cols expects 2-D tensors")
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum(widths)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, offsets, axis=1))

    return record(np.concatenate([p.data for p in parts], axis=1), tuple(parts), grad_fn)


def backward(output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into every reachable leaf's ``grad``."""
    if output.data.size != 1:
        raise DimensionError("backward requires a scalar output")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, children_done = stack.pop()
        if children_done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    output.grad = np.ones_like(output.data)
    for node in reversed(topo):
        if node._grad_fn is None or node.grad is None:
            continue
        for par, g in zip(node._parents, node._grad_fn(node.grad)):
            if g is None or not par.requires_grad:
                continue
            par.grad = g if par.grad is None else par.grad + g


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def gradient(scalar_fn: Callable[[Sequence[Tensor]], Tensor], params: Sequence[Tensor]) -> np.ndarray:
    """Gradient of ``scalar_fn(params)`` wrt every parameter entry, flattened.

    Raises NumericError if the value or any gradient entry is non-finite.
    """
    zero_grads(params)
    out = scalar_fn(params)
    if out.data.size != 1:
        raise DimensionError("gradient requires a scalar-valued function")
    if not np.isfinite(out.data):
        raise NumericError("non-finite value reached while evaluating the objective")
    backward(out)
    flat = flatten_arrays([p.grad if p.grad is not None else np.zeros_like(p.data) for p in params])
    if not np.all(np.isfinite(flat)):
        raise NumericError("non-finite gradient entry")
    return flat


def finite_diff_gradient(
    scalar_fn: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
) -> np.ndarray:
    """Central finite differences; the independent oracle for `gradient`."""
    out = []
    with no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            g = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = scalar_fn(params).item()
                flat[i] = orig - step
                lo = scalar_fn(params).item()
                flat[i] = orig
                g[i] = (hi - lo) / (2.0 * step)
            out.append(g)
    return np.concatenate(out)
