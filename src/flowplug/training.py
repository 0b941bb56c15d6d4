"""Identity-grouped mini-batch optimization of the flow, with versioned
JSON checkpoints and a CSV loss trace."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .configio import dataclass_from_dict, dataclass_to_jsonable
from .errors import (
    CheckpointShapeError,
    CheckpointVersionError,
    ConfigError,
    CorruptCheckpointError,
    DimensionError,
    NumericError,
    TrainingDivergedError,
)
from .flow import CouplingLayer, FlowConfig, FlowModel, StyleStack, build_flow
from .losses import LossConfig, batch_loss_graph
from .numerics import AdamConfig, AdamOptimizer, Mlp, backward, no_grad, parameter
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
        if min(self.epochs, self.batch_groups, self.frames_per_group) < 1:
            raise ConfigError("epochs, batch_groups, and frames_per_group must be positive")
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


def dataset_mean_loss(model: FlowModel, ds: SyntheticDataset, cfg: TrainConfig) -> TraceRow:
    """Mean loss over the whole dataset with no parameter updates; grouping
    follows natural frame order, so the value is seed-independent."""
    sums = np.zeros(3)
    count = 0
    with no_grad():
        for batch in _identity_batches(ds, cfg):
            total, nll, contrast = batch_loss_graph(model, batch, cfg.loss)
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


def train(ds: SyntheticDataset, cfg: TrainConfig) -> tuple[Checkpoint, list[TraceRow]]:
    """Run Adam on the combined loss; deterministic given dataset + config."""
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
    params = model.parameters()
    opt = AdamOptimizer(params, AdamConfig(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps))
    rng = np.random.default_rng(batch_seed)

    # row -1: the identity-initialized model's dataset mean, the baseline
    # every later epoch is compared against
    trace: list[TraceRow] = [dataset_mean_loss(model, ds, cfg)]
    for epoch in range(cfg.epochs):
        batches = make_batches(ds, cfg, rng)
        sums = np.zeros(3)
        count = 0
        for bi, batch in enumerate(batches):
            opt.zero_grad()
            try:
                total, nll, contrast = batch_loss_graph(model, batch, cfg.loss)
            except NumericError as exc:
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}, batch {bi}: {exc}") from exc
            num_stacks = sum(len(g) for g in batch)
            sums += num_stacks * np.array([nll.item(), contrast.item(), total.item()])
            count += num_stacks
            try:
                backward(total)
                opt.step()
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
    ckpt = Checkpoint(
        model=model,
        train_config=cfg,
        epoch=cfg.epochs - 1,
        final_loss=trace[-1].total,
        dataset_fingerprint=dataset_fingerprint(ds),
    )
    return ckpt, trace


def save_loss_trace(trace: list[TraceRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_nll,mean_contrastive,total\n")
        for row in trace:
            fh.write(f"{row.epoch},{row.mean_nll!r},{row.mean_contrastive!r},{row.total!r}\n")


def _mlp_to_dict(net: Mlp) -> dict:
    layers = [
        {"shape": list(w.data.shape), "weight": w.data.tolist(), "bias": b.data.tolist()}
        for w, b in zip(net.weights, net.biases)
    ]
    return {"activation": MLP_ACTIVATION, "layers": layers}


def _mlp_from_dict(data: dict) -> Mlp:
    if data["activation"] != MLP_ACTIVATION:
        raise CorruptCheckpointError(f"unknown net activation {data['activation']!r}")
    weights, biases = [], []
    for i, layer in enumerate(data["layers"]):
        w = np.array(layer["weight"], dtype=np.float64)
        b = np.array(layer["bias"], dtype=np.float64)
        if w.ndim != 2 or list(w.shape) != list(layer["shape"]):
            raise CheckpointShapeError(f"net layer {i}: weight shape {w.shape} != declared {layer['shape']}")
        weights.append(parameter(w))
        biases.append(parameter(b))
    try:
        return Mlp(weights=weights, biases=biases)
    except DimensionError as exc:
        raise CheckpointShapeError(str(exc)) from exc


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    model = ckpt.model
    payload = {
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
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
        for entry in payload["layers"]:
            scale_net = _mlp_from_dict(entry["scale_net"])
            shift_net = _mlp_from_dict(entry["shift_net"])
            layers.append(
                CouplingLayer(entry["mask_parity"], scale_net, shift_net, entry["scale_clamp"], code_dim)
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
