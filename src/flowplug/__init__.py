"""Identity-aware latent disentanglement over per-layer style codes.

A conditional invertible flow maps each style code (conditioned on its
layer index) into a factorized latent space where labeled attributes
occupy individual coordinates and everything else -- identity included --
lives in a standard-Gaussian block kept tight per person by a contrastive
loss. Includes a synthetic invertible backbone with ground-truth factors,
an editing pipeline, and quantitative disentanglement evaluation.
"""

from .editing import EditRequest, EditResult, edit_attribute, interpolate_attribute, minimal_edit_batch
from .evaluation import (
    EvalConfig,
    EvalReport,
    ProbeConfig,
    ProbeModel,
    accuracy_protocol,
    evaluate_dataset,
    identity_drift,
    rank_protocol,
    run_evaluation,
    spearman_rho,
    train_probe,
)
from .flow import (
    CouplingLayer,
    FlowConfig,
    FlowModel,
    StyleStack,
    build_flow,
    codes_to_latents,
    latents_to_codes,
)
from .losses import LossConfig, batch_loss_graph, contrastive_loss
from .prior import LabelStats, PriorConfig
from .synthetic import (
    GroundTruthFactors,
    MockBackbone,
    SyntheticConfig,
    SyntheticDataset,
    backbone_generate,
    backbone_invert,
    generate_dataset,
    load_dataset,
    make_backbone,
    save_dataset,
    save_ground_truth,
)
from .training import Checkpoint, TrainConfig, load_checkpoint, make_batches, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "EditRequest",
    "EditResult",
    "edit_attribute",
    "interpolate_attribute",
    "minimal_edit_batch",
    "EvalConfig",
    "EvalReport",
    "ProbeConfig",
    "ProbeModel",
    "accuracy_protocol",
    "evaluate_dataset",
    "identity_drift",
    "rank_protocol",
    "run_evaluation",
    "spearman_rho",
    "train_probe",
    "CouplingLayer",
    "FlowConfig",
    "FlowModel",
    "StyleStack",
    "build_flow",
    "codes_to_latents",
    "latents_to_codes",
    "LossConfig",
    "batch_loss_graph",
    "contrastive_loss",
    "LabelStats",
    "PriorConfig",
    "GroundTruthFactors",
    "MockBackbone",
    "SyntheticConfig",
    "SyntheticDataset",
    "backbone_generate",
    "backbone_invert",
    "generate_dataset",
    "load_dataset",
    "make_backbone",
    "save_dataset",
    "save_ground_truth",
    "Checkpoint",
    "TrainConfig",
    "load_checkpoint",
    "make_batches",
    "save_checkpoint",
    "train",
]
