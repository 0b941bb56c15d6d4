"""Identity-grouped mini-batch optimization of the flow, with versioned
JSON checkpoints and a CSV loss trace."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .configio import dataclass_from_dict, dataclass_to_jsonable, is_finite, require_finite, require_integers
from .errors import (
    CheckpointShapeError,
    CheckpointVersionError,
    ConfigError,
    CorruptCheckpointError,
    DimensionError,
    NumericError,
    TrainingDivergedError,
)
from .fileio import atomic_write
from .flow import CouplingLayer, FlowConfig, FlowModel, StyleStack, build_flow
from .losses import LossConfig, RowWorker, batch_loss_graph
from .numerics import AdamConfig, AdamOptimizer, Mlp, backward, no_grad, parameter, zero_grads
from .numerics.adam import _check_finite
from .prior import PriorConfig
from .synthetic import SyntheticDataset, _derive_seeds, dataset_fingerprint

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "flowplug-ckpt-v1"
MLP_ACTIVATION = "leaky_relu"  # v1 names it per net; Mlp has no other


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
    flow: FlowConfig = field(default_factory=FlowConfig)
    epochs: int = 50
    batch_groups: int = 5
    frames_per_group: int = 20
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    eval_every: int = 10

    def __post_init__(self):
        require_integers(self, epochs=1, batch_groups=1, frames_per_group=1, seed=None, eval_every=None)
        require_finite(self, "lr", "beta1", "beta2", "eps")
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")


@dataclass
class TraceRow:
    epoch: int
    mean_nll: float
    mean_contrastive: float
    total: float


@dataclass
class Checkpoint:
    model: FlowModel
    train_config: TrainConfig
    epoch: int
    final_loss: float
    dataset_fingerprint: str

    def __post_init__(self):
        require_integers(self, epoch=0)
        require_finite(self, "final_loss")


def _identity_batches(
    ds: SyntheticDataset, cfg: TrainConfig, rng: np.random.Generator | None = None
) -> list[list[list[StyleStack]]]:
    """Batches of ``cfg.batch_groups`` groups; each group holds up to
    ``cfg.frames_per_group`` frames of one identity, identities in sorted
    order. With ``rng``, each identity's frames are shuffled (in that order)
    before chunking, and then the groups are permuted."""
    if not ds.stacks:
        raise DimensionError("dataset is empty")
    groups: list[list[StyleStack]] = []
    by_id = ds.frames_by_identity()
    for identity in sorted(by_id):
        idxs = np.array(by_id[identity])
        if rng is not None:
            rng.shuffle(idxs)
        for start in range(0, len(idxs), cfg.frames_per_group):
            groups.append([ds.stacks[i] for i in idxs[start : start + cfg.frames_per_group]])
    if rng is not None:
        groups = [groups[i] for i in rng.permutation(len(groups))]
    return [groups[i : i + cfg.batch_groups] for i in range(0, len(groups), cfg.batch_groups)]


def make_batches(
    ds: SyntheticDataset, cfg: TrainConfig, rng: np.random.Generator
) -> list[list[list[StyleStack]]]:
    """One epoch's batches: each group holds frames of a single identity
    (capped at frames_per_group); every frame appears exactly once."""
    return _identity_batches(ds, cfg, rng)


def dataset_mean_loss(
    model: FlowModel, ds: SyntheticDataset, cfg: TrainConfig, worker: RowWorker | None = None
) -> TraceRow:
    """Mean loss over the whole dataset with no parameter updates; grouping
    follows natural frame order, so the value is seed-independent."""
    sums = np.zeros(3)
    count = 0
    with no_grad():
        for batch in _identity_batches(ds, cfg):
            total, nll, contrast = batch_loss_graph(model, batch, cfg.loss, worker)
            num_stacks = sum(len(g) for g in batch)
            sums += num_stacks * np.array([nll.item(), contrast.item(), total.item()])
            count += num_stacks
    return TraceRow(-1, float(sums[0] / count), float(sums[1] / count), float(sums[2] / count))


def _first_non_finite_grad(model: FlowModel) -> str:
    """Name of the first parameter whose gradient has a NaN or infinity."""
    for i, layer in enumerate(model.layers):
        for net_name, net in (("scale", layer.scale_net), ("shift", layer.shift_net)):
            for j, (w, b) in enumerate(zip(net.weights, net.biases)):
                for kind, p in (("weight", w), ("bias", b)):
                    if p.grad is not None and not np.all(np.isfinite(p.grad)):
                        return f"coupling {i} {net_name} net layer {j} {kind}"
    return "no parameter gradient"


def _fit(
    model: FlowModel,
    ds: SyntheticDataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
    opt: AdamOptimizer,
    worker: RowWorker,
) -> list[TraceRow]:
    """The loss trace: the baseline row, then one row per training epoch.
    Each step's gradients are checked once, here, and then ``opt`` and the
    worker's optimizer update their shares, so both update or neither does."""
    # row -1: the identity-initialized model's dataset mean, the baseline
    # every later epoch is compared against
    trace: list[TraceRow] = [dataset_mean_loss(model, ds, cfg, worker)]
    params = model.parameters()
    for epoch in range(cfg.epochs):
        batches = make_batches(ds, cfg, rng)
        sums = np.zeros(3)
        count = 0
        for bi, batch in enumerate(batches):
            zero_grads(params)
            try:
                total, nll, contrast = batch_loss_graph(model, batch, cfg.loss, worker)
            except NumericError as exc:
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}, batch {bi}: {exc}") from exc
            num_stacks = sum(len(g) for g in batch)
            sums += num_stacks * np.array([nll.item(), contrast.item(), total.item()])
            count += num_stacks
            try:
                backward(total)
                _check_finite([p.grad for p in params])
                worker.call("step")
                worker.alongside(opt.update)
            except NumericError as exc:
                raise TrainingDivergedError(
                    f"non-finite gradient at epoch {epoch}, batch {bi}, first in {_first_non_finite_grad(model)}: {exc}"
                ) from exc
        row = TraceRow(epoch, float(sums[0] / count), float(sums[1] / count), float(sums[2] / count))
        trace.append(row)
        if cfg.eval_every > 0 and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1):
            log.info(
                "epoch %d: total %.4f (nll %.4f, contrastive %.4f)",
                epoch,
                row.total,
                row.mean_nll,
                row.mean_contrastive,
            )
    return trace


def train(ds: SyntheticDataset, cfg: TrainConfig) -> tuple[Checkpoint, list[TraceRow]]:
    """Run Adam on the combined loss; deterministic given dataset + config,
    and the same whether or not the row worker, which takes the second row
    half of every split batch and Adam over a size-balanced half of the
    parameters, runs on a second process."""
    if cfg.loss.prior.latent_dim != ds.config.code_dim:
        raise ConfigError(
            f"prior latent_dim {cfg.loss.prior.latent_dim} != dataset code_dim {ds.config.code_dim}"
        )
    if cfg.loss.prior.num_attrs != ds.config.num_attrs:
        raise ConfigError(
            f"prior num_attrs {cfg.loss.prior.num_attrs} != dataset num_attrs {ds.config.num_attrs}"
        )
    model_seed, batch_seed = _derive_seeds(cfg.seed)
    model = build_flow(cfg.loss.prior, ds.config.num_codes, cfg.flow, model_seed)
    adam = AdamConfig(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    rng = np.random.default_rng(batch_seed)
    params = model.parameters()
    sides = blas.balanced_halves([p.data.size for p in params])
    mine = [p for p, s in zip(params, sides) if s == 0]
    theirs = [p for p, s in zip(params, sides) if s == 1]

    with RowWorker(model, AdamOptimizer(theirs, adam).update) as worker:
        if worker.forked:
            log.info("training on two processes, each with BLAS on one thread")
        else:
            log.info("training on one process: both row halves in turn")
        trace = _fit(model, ds, cfg, rng, AdamOptimizer(mine, adam), worker)
    ckpt = Checkpoint(
        model=model,
        train_config=cfg,
        epoch=cfg.epochs - 1,
        final_loss=trace[-1].total,
        dataset_fingerprint=dataset_fingerprint(ds),
    )
    return ckpt, trace


def save_loss_trace(trace: list[TraceRow], path) -> None:
    with atomic_write(path) as fh:
        fh.write("epoch,mean_nll,mean_contrastive,total\n")
        for row in trace:
            fh.write(f"{row.epoch},{row.mean_nll!r},{row.mean_contrastive!r},{row.total!r}\n")


def _mlp_to_dict(net: Mlp) -> dict:
    layers = [
        {"shape": list(w.data.shape), "weight": w.data.tolist(), "bias": b.data.tolist()}
        for w, b in zip(net.weights, net.biases)
    ]
    return {"activation": MLP_ACTIVATION, "layers": layers}


def _mlp_from_dict(data: dict, where: str) -> Mlp:
    """One net of a checkpoint; ``where`` names it in errors, e.g.
    "coupling 3 scale net"."""
    if data["activation"] != MLP_ACTIVATION:
        raise CorruptCheckpointError(f"{where}: unknown net activation {data['activation']!r}")
    weights, biases = [], []
    for i, layer in enumerate(data["layers"]):
        w = np.array(layer["weight"], dtype=np.float64)
        b = np.array(layer["bias"], dtype=np.float64)
        if w.ndim != 2 or list(w.shape) != list(layer["shape"]):
            raise CheckpointShapeError(f"{where} layer {i}: weight shape {w.shape} != declared {layer['shape']}")
        for kind, values in (("weight", w), ("bias", b)):
            if not np.all(np.isfinite(values)):
                raise CorruptCheckpointError(f"{where} layer {i}: non-finite {kind} entry")
        weights.append(parameter(w))
        biases.append(parameter(b))
    try:
        return Mlp(weights=weights, biases=biases)
    except DimensionError as exc:
        raise CheckpointShapeError(str(exc)) from exc


def _checkpoint_payload(ckpt: Checkpoint) -> dict:
    model = ckpt.model
    return {
        "format_version": CHECKPOINT_FORMAT,
        "code_dim": model.code_dim,
        "num_codes": model.num_codes,
        "prior": dataclass_to_jsonable(model.prior),
        "flow_config": dataclass_to_jsonable(model.flow_config),
        "train_config": dataclass_to_jsonable(ckpt.train_config),
        "epoch": ckpt.epoch,
        "final_loss": ckpt.final_loss,
        "dataset_fingerprint": ckpt.dataset_fingerprint,
        "layers": [
            {
                "mask_parity": layer.mask_parity,
                "scale_clamp": layer.scale_clamp,
                "scale_net": _mlp_to_dict(layer.scale_net),
                "shift_net": _mlp_to_dict(layer.shift_net),
            }
            for layer in model.layers
        ],
    }


def _json_pieces(value):
    """The text of ``json.dump(value, fh, sort_keys=True)``, in pieces: dicts
    and lists of dicts are walked here, and every other value (one weight
    matrix at most) is encoded by ``json.dumps`` in C. The whole text is
    never held in memory at once."""
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_pieces(value[key])
        yield "}"
    elif isinstance(value, list) and any(isinstance(item, dict) for item in value):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _json_pieces(item)
        yield "]"
    else:
        yield json.dumps(value, sort_keys=True)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the checkpoint as sorted-key JSON, through ``atomic_write``."""
    with atomic_write(path) as fh:
        for piece in _json_pieces(_checkpoint_payload(ckpt)):
            fh.write(piece)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    """Rebuild a checkpoint; corrupt files, unknown versions, and shape
    inconsistencies each raise their own error type."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CorruptCheckpointError(f"cannot read checkpoint: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorruptCheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CorruptCheckpointError("checkpoint has no format_version field")
    if payload["format_version"] != CHECKPOINT_FORMAT:
        raise CheckpointVersionError(f"unrecognized checkpoint version {payload['format_version']!r}")
    try:
        prior = dataclass_from_dict(PriorConfig, payload["prior"], "prior")
        flow_cfg = dataclass_from_dict(FlowConfig, payload["flow_config"], "flow_config")
        train_cfg = dataclass_from_dict(TrainConfig, payload["train_config"], "train_config")
        code_dim = payload["code_dim"]
        num_codes = payload["num_codes"]
        layers = []
        for i, entry in enumerate(payload["layers"]):
            scale_net = _mlp_from_dict(entry["scale_net"], f"coupling {i} scale net")
            shift_net = _mlp_from_dict(entry["shift_net"], f"coupling {i} shift net")
            clamp = entry["scale_clamp"]
            if not (is_finite(clamp) and clamp > 0):
                raise CorruptCheckpointError(f"coupling {i}: scale_clamp must be a finite positive number, got {clamp!r}")
            # the coupling runs both nets side by side, layer for layer
            scale_shapes = [w.data.shape for w in scale_net.weights]
            shift_shapes = [w.data.shape for w in shift_net.weights]
            if scale_shapes != shift_shapes:
                raise CheckpointShapeError(
                    f"coupling {i}: scale net layers {scale_shapes} differ from shift net layers {shift_shapes}"
                )
            layers.append(
                CouplingLayer(entry["mask_parity"], scale_net, shift_net, clamp, code_dim)
            )
        model = FlowModel(
            layers=layers, code_dim=code_dim, num_codes=num_codes, prior=prior, flow_config=flow_cfg
        )
        for layer in model.layers:
            expected_in = layer.pass_idx.size + num_codes
            for net in (layer.scale_net, layer.shift_net):
                if net.in_dim != expected_in or net.out_dim != layer.trans_idx.size:
                    raise CheckpointShapeError(
                        f"coupling nets sized {net.in_dim}->{net.out_dim}, "
                        f"expected {expected_in}->{layer.trans_idx.size}"
                    )
        return Checkpoint(
            model=model,
            train_config=train_cfg,
            epoch=payload["epoch"],
            final_loss=payload["final_loss"],
            dataset_fingerprint=payload["dataset_fingerprint"],
        )
    except CheckpointShapeError:
        raise
    except (KeyError, TypeError, ValueError, ConfigError, DimensionError) as exc:
        raise CorruptCheckpointError(f"checkpoint is malformed: {exc}") from exc
