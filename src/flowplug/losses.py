"""Training objective: conditional NLL over all style codes plus a
pull-together contrastive loss on the non-attribute vectors of frames that
share an identity, combined with a configurable weight."""

from __future__ import annotations

import math
import mmap
import multiprocessing
import signal
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from math import fsum
from multiprocessing.connection import wait

import numpy as np

from .errors import ConfigError, DimensionError, FlowplugError, NumericError, WorkerError
from .flow import FlowModel, StyleStack, packed_backward, packed_forward
from .numerics import Tensor
from .numerics import autodiff as ad
from .prior import LOG_2PI, PriorConfig

# how long closing waits for the worker to exit before killing it; an idle
# worker exits at once on pipe EOF, a busy one after its current half
_EXIT_SECONDS = 5.0
# how long each side polls for the other's message before it blocks: on a
# virtual machine, waking a process whose CPU went idle cost 0.1-2 ms per
# message, against gaps of about a millisecond between the halves' messages
_SPIN_SECONDS = 0.005


def _await(conn, *also) -> None:
    """Return once ``conn`` has a message or EOF, or one of the ``also``
    handles is ready: polling first, for up to ``_SPIN_SECONDS``, then
    blocking."""
    deadline = time.perf_counter() + _SPIN_SECONDS
    while time.perf_counter() < deadline:
        if conn.poll(0):
            return
    wait([conn, *also])


@dataclass(frozen=True)
class LossConfig:
    prior: PriorConfig
    lambda_contrastive: float = 1.0
    normalize_groups: bool = True

    def __post_init__(self):
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


class _InTurn:
    """The second row half of a split batch, on the calling thread: each
    call runs when its result is read, after the first half."""

    def __init__(self, model: FlowModel):
        self._model = model
        self._call: Callable | None = None
        self._cond = self._kept = None

    def forward(self, rows: np.ndarray, cond: np.ndarray, keep: bool) -> None:
        self._cond, self._kept = cond, [] if keep else None
        self._call = lambda: packed_forward(self._model, rows, self._cond, self._kept)

    def backward(self, g_rows: np.ndarray) -> None:
        self._call = lambda: packed_backward(self._model, g_rows, self._cond, self._kept)

    def result(self):
        call, self._call = self._call, None
        return call()

    def discard(self) -> None:
        self._call = None


def _shared_zeros(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Zeroed float64 arrays in one anonymous shared mapping, which a forked
    child shares with its parent; each starts on a 64-byte boundary."""
    offsets, size = [], 0
    for shape in shapes:
        offsets.append(size)
        size += -(-8 * math.prod(shape) // 64) * 64
    buf = mmap.mmap(-1, max(size, 1))
    return [np.frombuffer(buf, np.float64, math.prod(shape), off).reshape(shape) for shape, off in zip(shapes, offsets)]


class RowWorker:
    """A forked process that, for one training run, runs the second row half
    of every split batch and, on ``step``, ``step_fn`` (the optimizer over
    its share of the parameters). ``forward``, ``backward`` and ``step`` send
    one call; ``result`` waits for it and re-raises its error here.

    The model's parameters move into a shared mapping before the fork, next
    to one gradient array per parameter, so both processes read and update
    the same arrays and only rows cross the pipe. The worker keeps the
    intermediates of its latest forward only, so a loss's backward comes
    before the next loss, as in a training step. It ignores SIGINT and
    exits on pipe EOF. A worker that dies raises ``WorkerError`` here, never
    a wait. ``close`` joins it and gives the parameters private arrays
    again."""

    def __init__(self, model: FlowModel, step_fn: Callable[[], None]):
        self.model = model
        params = model.parameters()
        shared = _shared_zeros([p.data.shape for p in params] * 2)
        for p, data in zip(params, shared):
            data[...] = p.data
            p.data = data
        self.grads = shared[len(params):]
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._pending = None
        self._warned: dict = {}
        self._proc = ctx.Process(
            target=self._serve, args=(child_conn, step_fn), name="flowplug-rows", daemon=True
        )
        try:
            self._proc.start()
        except OSError as exc:  # fork failed, e.g. at a process limit
            self._conn.close()
            raise WorkerError(f"cannot start the training worker process: {exc}") from exc
        finally:
            child_conn.close()

    def _serve(self, conn, step_fn: Callable[[], None]) -> None:
        """The worker's loop, in the child: one reply per call, until EOF."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self._conn.close()
        for p, g in zip(self.model.parameters(), self.grads):
            p.grad = g
        cond = kept = None
        while True:
            _await(conn)
            try:
                op, *args = conn.recv()
            except (EOFError, OSError):  # the parent closed its end, or died
                return
            outcome = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    if op == "forward":
                        rows, cond, keep = args
                        kept = [] if keep else None
                        outcome = packed_forward(self.model, rows, cond, kept)
                    elif op == "backward":
                        for out, g in zip(self.grads, packed_backward(self.model, args[0], cond, kept)):
                            out[...] = g
                    else:
                        step_fn()
                except FlowplugError as exc:
                    outcome = exc
                except Exception as exc:  # reported to the parent, which raises it
                    outcome = WorkerError(f"{op} failed on the worker: {type(exc).__name__}: {exc}")
            try:
                conn.send((outcome, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]))
            except OSError:  # the parent died
                return

    def _send(self, *call) -> None:
        try:
            self._conn.send(call)
        except OSError as exc:
            raise WorkerError(f"the training worker process is gone ({exc})") from exc
        self._pending = call[0]

    def forward(self, rows: np.ndarray, cond: np.ndarray, keep: bool) -> None:
        self._send("forward", rows, cond, keep)

    def backward(self, g_rows: np.ndarray) -> None:
        self._send("backward", g_rows)

    def step(self) -> None:
        self._send("step")

    def result(self):
        """The pending call's outcome: the forward's rows, the backward's
        gradients (the shared ``grads``), or None for ``step``."""
        op, self._pending = self._pending, None
        if op is None:
            raise WorkerError("no call is pending on the training worker")
        _await(self._conn, self._proc.sentinel)
        try:
            if not self._conn.poll():
                raise EOFError
            reply = self._conn.recv()
        except (EOFError, OSError):  # OSError: reset by a killed peer
            self._proc.join(_EXIT_SECONDS)
            raise WorkerError(
                f"the training worker process exited (code {self._proc.exitcode}) during {op}"
            ) from None
        outcome, caught = reply
        # the worker's warnings, such as numpy's overflow, surface here
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=self._warned)
        if isinstance(outcome, Exception):
            raise outcome
        return self.grads if op == "backward" else outcome

    def discard(self) -> None:
        """Wait for the pending call and drop its outcome."""
        try:
            self.result()
        except FlowplugError:
            pass

    def close(self) -> None:
        self._conn.close()
        self._proc.join(_EXIT_SECONDS)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        for p in self.model.parameters():
            p.data = p.data.copy()
            p.grad = None
        self.grads = []

    def __enter__(self) -> "RowWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _alongside(run_first: Callable, second):
    """``run_first()`` on this thread while ``second`` runs the other half:
    both results, once both halves have finished. If the first half raises,
    the second's outcome is dropped and the first's error re-raises."""
    try:
        first = run_first()
    except BaseException:
        second.discard()
        raise
    return first, second.result()


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
    the rest on ``worker``, a ``RowWorker`` of this model, or else after the
    first half on this thread, for the forward and again for the backward.
    The state is the halves concatenated, and each gradient is first half +
    second half, so results do not depend on where the halves run. With
    ``worker``, the gradients are always its shared ``grads``, which the
    worker's optimizer reads, also for a one-stack batch."""
    if cfg.prior != model.prior:
        raise ConfigError("loss prior differs from the model's prior snapshot")
    if worker is not None and worker.model is not model:
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
        second = worker if worker is not None else _InTurn(model)
        second.forward(codes[cut:], cond[cut:], keep)
        state = np.concatenate(_alongside(lambda: packed_forward(model, codes[:cut], cond[:cut], kept), second))
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
            grads = packed_backward(model, g_state, cond, kept)
            if worker is None:
                return grads
            # the worker's optimizer reads its gradients from the shared arrays
            for out, g in zip(worker.grads, grads):
                out[...] = g
            return worker.grads
        second.backward(g_state[cut:])
        first, rest = _alongside(lambda: packed_backward(model, g_state[:cut], cond[:cut], kept), second)
        return [np.add(a, b, out=b) for a, b in zip(first, rest)]

    return ad.record(np.array(total), tuple(model.parameters()), grad_fn), Tensor(nll_mean), Tensor(contrast_mean)
