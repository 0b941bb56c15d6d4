"""Quantitative disentanglement evaluation.

An independently trained probe predicts attributes from raw style codes
(it never sees flow internals or ground-truth factors). Three protocols
run against minimal probe-gated edits: retention/modification accuracy,
Spearman rank correlation of probe scores before vs after edits, and
identity/nuisance drift measured through the synthetic backbone oracle.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from .configio import dataclass_to_jsonable, require_finite, require_integers
from .editing import EditResult, batch_latents, minimal_edit_batch
from .errors import ConfigError, DatasetError, DimensionError, UndefinedResultError
from .fileio import atomic_write
from .flow import FlowModel, StyleStack
from .numerics import AdamConfig, AdamOptimizer, Mlp, Tensor, init_mlp, parameter
from .numerics import backward  # noqa: F401 - unused; perfbench's tracer test reads evaluation.backward
from .synthetic import MockBackbone, SyntheticConfig, SyntheticDataset, backbone_invert, split_factors

log = logging.getLogger(__name__)

REPORT_FORMAT = "flowplug-report-v1"


# ---------------------------------------------------------------------------
# probe


@dataclass(frozen=True)
class ProbeConfig:
    hidden: tuple[int, ...] = (64,)
    epochs: int = 200
    lr: float = 3e-3
    batch_size: int = 256
    holdout_fraction: float = 0.2
    seed: int = 0
    input_mode: str = "mean_code"

    def __post_init__(self):
        if self.input_mode not in ("mean_code", "flat"):
            raise ConfigError(f"unknown probe input_mode {self.input_mode!r}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must be in (0, 1)")
        if self.batch_size < 1 or self.epochs < 0 or not self.lr >= 0:
            raise ConfigError(
                f"probe needs batch_size >= 1, epochs >= 0 and lr >= 0, got {self.batch_size}, {self.epochs}, {self.lr}"
            )
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"probe hidden widths must be at least 1, got {list(self.hidden)}")


@dataclass
class ProbeModel:
    """Multi-output readout from raw style codes to attribute scores.

    Trained with squared error on standardized labels; binary attributes
    additionally get a logistic calibration of the score so edits can be
    gated on a confidence threshold.
    """

    net: Mlp
    input_mode: str
    input_mean: np.ndarray
    input_std: np.ndarray
    label_mean: np.ndarray
    label_std: np.ndarray
    attr_kinds: tuple[str, ...]
    calibration: np.ndarray  # (num_attrs, 2): slope, intercept; nan for continuous
    holdout_accuracy: np.ndarray  # per attribute; binary: accuracy in [0, 1]

    def _features(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.float64)
        if codes.ndim != 3:
            raise DimensionError("expected codes of shape (batch, num_codes, code_dim)")
        x = codes.mean(axis=1) if self.input_mode == "mean_code" else codes.reshape(codes.shape[0], -1)
        return (x - self.input_mean) / self.input_std

    def std_scores(self, codes: np.ndarray) -> np.ndarray:
        """Network outputs in standardized label units, shape (batch, M)."""
        return self.net.forward(self._features(codes))

    def raw_scores(self, codes: np.ndarray) -> np.ndarray:
        return self.std_scores(codes) * self.label_std + self.label_mean

    def decisions(self, codes: np.ndarray) -> np.ndarray:
        """Binary class calls (+1/-1) per attribute from raw-unit scores."""
        return np.where(self.raw_scores(codes) > 0, 1.0, -1.0)

    def target_confidence(self, codes: np.ndarray, attr_index: int, direction: int) -> np.ndarray:
        """Calibrated P(attribute == direction) per stack."""
        if self.attr_kinds[attr_index] != "binary":
            raise ConfigError(f"attribute {attr_index} is not binary; confidence undefined")
        slope, intercept = self.calibration[attr_index]
        z = np.clip(slope * self.std_scores(codes)[:, attr_index] + intercept, -35.0, 35.0)
        p_pos = 1.0 / (1.0 + np.exp(-z))
        return p_pos if direction > 0 else 1.0 - p_pos


def _fit_logistic_1d(scores: np.ndarray, y01: np.ndarray, iters: int = 40) -> tuple[float, float]:
    """Newton fit of P(y=1 | s) = sigmoid(a*s + b), lightly regularized so
    separable data keeps finite coefficients."""
    x = np.stack([scores, np.ones_like(scores)], axis=1)
    w = np.array([1.0, 0.0])
    lam = 1e-4
    for _ in range(iters):
        z = np.clip(x @ w, -35.0, 35.0)
        p = 1.0 / (1.0 + np.exp(-z))
        g = x.T @ (p - y01) + lam * w
        h = (x * (p * (1.0 - p))[:, None]).T @ x + lam * np.eye(2)
        step = np.linalg.solve(h, g)
        w = w - step
        if np.max(np.abs(step)) < 1e-9:
            break
    return float(w[0]), float(w[1])


def _probe_gradient(net: Mlp, x: np.ndarray, y: np.ndarray, out: list[np.ndarray]) -> None:
    """The gradient of the row-mean squared error of ``net`` on ``(x, y)``,
    written into ``out``, arrays shaped like ``net.parameters()``."""
    kept: list = []
    d = net.forward(x, kept) - y
    net.backward(d * (2.0 / y.shape[0]), kept, out)


def _flat_parameters(net: Mlp) -> tuple[Tensor, np.ndarray, list[np.ndarray]]:
    """One parameter holding every entry of ``net``, whose arrays become
    views of it in ``net.parameters()`` order, and a gradient vector of the
    same layout with its views shaped like those arrays."""
    params = net.parameters()
    flat = parameter(np.concatenate([p.data.ravel() for p in params]))
    grad = np.empty_like(flat.data)
    views, start = [], 0
    for p in params:
        stop = start + p.data.size
        p.data = flat.data[start:stop].reshape(p.data.shape)
        views.append(grad[start:stop].reshape(p.data.shape))
        start = stop
    return flat, grad, views


def train_probe(ds: SyntheticDataset, cfg: ProbeConfig) -> ProbeModel:
    """Fit the probe on raw codes + labels; deterministic given cfg.seed.
    Each batch writes its gradient into one flat vector, and one Adam step
    updates one flat parameter that the net's arrays are views of."""
    kinds = ds.config.kinds
    codes = np.stack([st.codes for st in ds.stacks])
    labels = np.stack([st.labels for st in ds.stacks])
    num = codes.shape[0]
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(num)
    n_hold = max(1, int(round(num * cfg.holdout_fraction)))
    hold_idx, train_idx = order[:n_hold], order[n_hold:]
    if train_idx.size == 0:
        raise DatasetError("probe training split is empty")

    for j, kind in enumerate(kinds):
        if kind == "binary":
            signs = np.unique(np.sign(labels[train_idx, j]))
            if signs.size < 2:
                raise DatasetError(f"attribute {j} has a single class in the training split")

    x_all = codes.mean(axis=1) if cfg.input_mode == "mean_code" else codes.reshape(num, -1)
    input_mean = x_all[train_idx].mean(axis=0)
    input_std = np.maximum(x_all[train_idx].std(axis=0), 1e-12)
    label_mean = labels[train_idx].mean(axis=0)
    label_std = np.maximum(labels[train_idx].std(axis=0), 1e-12)

    x_train = (x_all[train_idx] - input_mean) / input_std
    y_train = (labels[train_idx] - label_mean) / label_std

    net = init_mlp([x_train.shape[1], *cfg.hidden, labels.shape[1]], rng)
    flat, grad, grad_views = _flat_parameters(net)
    opt = AdamOptimizer([flat], AdamConfig(lr=cfg.lr))
    n_train = x_train.shape[0]
    for _ in range(cfg.epochs):
        perm = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            opt.zero_grad()
            _probe_gradient(net, x_train[sel], y_train[sel], grad_views)
            flat.grad = grad
            opt.step()

    probe = ProbeModel(
        net=net,
        input_mode=cfg.input_mode,
        input_mean=input_mean,
        input_std=input_std,
        label_mean=label_mean,
        label_std=label_std,
        attr_kinds=kinds,
        calibration=np.full((labels.shape[1], 2), np.nan),
        holdout_accuracy=np.zeros(labels.shape[1]),
    )

    train_std_scores = probe.std_scores(codes[train_idx])
    hold_raw = probe.raw_scores(codes[hold_idx])
    for j, kind in enumerate(kinds):
        if kind == "binary":
            y01 = (labels[train_idx, j] > 0).astype(np.float64)
            probe.calibration[j] = _fit_logistic_1d(train_std_scores[:, j], y01)
            probe.holdout_accuracy[j] = float(
                np.mean((hold_raw[:, j] > 0) == (labels[hold_idx, j] > 0))
            )
        else:
            hold_labels = labels[hold_idx, j]
            denom = hold_raw[:, j].std() * hold_labels.std()
            probe.holdout_accuracy[j] = (
                float(np.cov(hold_raw[:, j], hold_labels)[0, 1] / denom) if denom > 0 else 0.0
            )
    return probe


# ---------------------------------------------------------------------------
# rank correlation


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties replaced by the mean rank of the tied block."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of average ranks; 1.0 for identical rankings."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(f"inputs must be equal-length vectors, got {a.shape} and {b.shape}")
    if a.size < 2:
        raise UndefinedResultError("rank correlation needs at least 2 observations")
    ra = average_ranks(a) - (a.size + 1) / 2.0
    rb = average_ranks(b) - (b.size + 1) / 2.0
    va = float(ra @ ra)
    vb = float(rb @ rb)
    if va == 0.0 or vb == 0.0:
        raise UndefinedResultError("rank correlation undefined for constant input")
    return float((ra @ rb) / math.sqrt(va * vb))


# ---------------------------------------------------------------------------
# protocols


@dataclass
class EditSweep:
    """Everything one (attribute, direction) pass produces."""

    attr_index: int
    direction: int
    results: list[EditResult]
    pre_scores: np.ndarray
    post_scores: np.ndarray
    pre_decisions: np.ndarray
    post_decisions: np.ndarray


def _scored_sweep(
    probe: ProbeModel, stacks: list[StyleStack], attr_index: int, direction: int, results: list[EditResult]
) -> EditSweep:
    pre_scores = probe.raw_scores(np.stack([st.codes for st in stacks]))
    post_scores = probe.raw_scores(np.stack([r.stack.codes for r in results]))
    return EditSweep(
        attr_index=attr_index,
        direction=direction,
        results=results,
        pre_scores=pre_scores,
        post_scores=post_scores,
        pre_decisions=np.where(pre_scores > 0, 1.0, -1.0),
        post_decisions=np.where(post_scores > 0, 1.0, -1.0),
    )


def edit_sweep(
    model: FlowModel,
    probe: ProbeModel,
    stacks: list[StyleStack],
    attr_index: int,
    direction: int,
    tau: float,
    delta: float,
    max_steps: int,
    *,
    latents: np.ndarray,
) -> EditSweep:
    """``latents`` are ``batch_latents(model, stacks)``, encoded once by the
    caller for all its sweeps."""
    results = minimal_edit_batch(model, stacks, attr_index, direction, probe, tau, delta, max_steps, latents=latents)
    return _scored_sweep(probe, stacks, attr_index, direction, results)


def _all_sweeps(
    model: FlowModel, probe: ProbeModel, stacks: list[StyleStack], cfg: "EvalConfig"
) -> dict[tuple[int, int], EditSweep]:
    """One sweep per (binary attribute, direction), from one encoding of the
    stacks, about half of them on a ``blas.SecondProcess``: forked where
    ``blas.two_processes`` allows it, else in turn here after the rest.
    Sweeps go to the side with fewer stacks to move so far, the most first
    (a fixed rule, so each side's work repeats run to run). The second side
    returns arrays, from which its sweeps are rebuilt and scored here as
    ``edit_sweep`` scores its own, so the sweeps are the same either way."""
    keys = [(a, direction) for a in _binary_attrs(probe.attr_kinds) for direction in (1, -1)]
    latents = batch_latents(model, stacks)

    def serve(op: str, theirs: list[tuple[int, int]]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per sweep, the ``(B, k, n)`` edited codes, steps used and convergence."""
        reply = []
        for a, direction in theirs:
            results = minimal_edit_batch(
                model, stacks, a, direction, probe, cfg.tau, cfg.delta, cfg.max_steps, latents=latents
            )
            reply.append(
                (
                    np.stack([r.stack.codes for r in results]),
                    np.array([r.steps_used for r in results]),
                    np.array([r.converged for r in results]),
                )
            )
        return reply

    with blas.SecondProcess("the sweep process", serve) as second:
        if second.forked:
            log.info("evaluating on two processes, each with BLAS on one thread")
        else:
            log.info("evaluating on one process: the sweeps in turn")
        pre = probe.decisions(np.stack([st.codes for st in stacks]))
        sides = blas.balanced_halves([int(np.sum(pre[:, a] != direction)) for a, direction in keys])
        theirs = [key for key, side in zip(keys, sides) if side == 0]
        second.call("sweeps", theirs)
        sweeps, reply = second.alongside(
            lambda: {
                key: edit_sweep(model, probe, stacks, *key, cfg.tau, cfg.delta, cfg.max_steps, latents=latents)
                for key, side in zip(keys, sides)
                if side == 1
            }
        )
        for key, (codes, steps, converged) in zip(theirs, reply):
            results = [
                EditResult(stack=replace(st, codes=c, labels=st.labels.copy()), steps_used=int(s), converged=bool(v))
                for st, c, s, v in zip(stacks, codes, steps, converged)
            ]
            sweeps[key] = _scored_sweep(probe, stacks, *key, results)
    return sweeps


@dataclass
class AccuracyTables:
    attrs: list[int]  # binary attribute indices (rows and columns)
    retention: np.ndarray  # (A, A) percent; nan where no eligible stacks
    modification: np.ndarray  # (A,) percent of needed flips achieved
    non_converged: np.ndarray  # (A,) searches that hit max_steps
    edited: np.ndarray  # (A,) stacks that needed modification


@dataclass
class RankTables:
    attrs: list[int]  # edited (rows) over all observed attributes (columns)
    spearman: np.ndarray  # (A_rows, M) rho in [-1, 1]; nan on the diagonal


@dataclass
class DriftTables:
    attrs: list[int]
    identity_mse: np.ndarray
    nuisance_mse: np.ndarray
    pairs: np.ndarray


@dataclass
class DriftStats:
    identity_mse: float
    nuisance_mse: float


def identity_drift(
    backbone: MockBackbone,
    stacks_before: list[StyleStack],
    stacks_after: list[StyleStack],
    cfg: SyntheticConfig,
) -> DriftStats:
    """Oracle-recovered factor drift between paired stacks: mean squared
    identity-embedding and nuisance differences over pairs, layers, dims."""
    if len(stacks_before) != len(stacks_after):
        raise DimensionError("before/after stack lists differ in length")
    if not stacks_before:
        return DriftStats(identity_mse=0.0, nuisance_mse=0.0)
    before = backbone_invert(backbone, np.stack([st.codes for st in stacks_before]))
    after = backbone_invert(backbone, np.stack([st.codes for st in stacks_after]))
    diff = split_factors(after - before, cfg)
    return DriftStats(
        identity_mse=float(np.mean(diff.identity_emb**2)), nuisance_mse=float(np.mean(diff.nuisance**2))
    )


def _binary_attrs(kinds: tuple[str, ...]) -> list[int]:
    return [i for i, kind in enumerate(kinds) if kind == "binary"]


def accuracy_protocol(
    probe: ProbeModel, stacks: list[StyleStack], sweeps: dict[tuple[int, int], EditSweep]
) -> AccuracyTables:
    """Retention/modification accuracy over probe-gated minimal edits, from
    one ``edit_sweep`` of ``stacks`` per (binary attribute, direction).

    For each binary attribute and both target classes, every stack whose
    probe decision differs is edited; non-converged searches count as
    modification failures and are excluded from retention cells. Retention
    is scored only where the pre-edit decision matched the label.
    """
    attrs = _binary_attrs(probe.attr_kinds)
    a_n = len(attrs)
    ret_num = np.zeros((a_n, a_n))
    ret_den = np.zeros((a_n, a_n))
    mod_num = np.zeros(a_n)
    mod_den = np.zeros(a_n)
    non_conv = np.zeros(a_n, dtype=int)
    labels = np.stack([st.labels for st in stacks])
    label_sign = np.where(labels > 0, 1.0, -1.0)
    for ai, a in enumerate(attrs):
        for direction in (1, -1):
            sweep = sweeps[(a, direction)]
            conv = np.array([r.converged for r in sweep.results])
            needs = sweep.pre_decisions[:, a] != direction
            mod_den[ai] += needs.sum()
            mod_num[ai] += (needs & conv & (sweep.post_decisions[:, a] == direction)).sum()
            non_conv[ai] += (needs & ~conv).sum()
            for bi, b in enumerate(attrs):
                if b == a:
                    continue
                eligible = needs & conv & (sweep.pre_decisions[:, b] == label_sign[:, b])
                kept = eligible & (sweep.post_decisions[:, b] == sweep.pre_decisions[:, b])
                ret_num[ai, bi] += kept.sum()
                ret_den[ai, bi] += eligible.sum()
    with np.errstate(invalid="ignore", divide="ignore"):
        retention = 100.0 * ret_num / ret_den
        modification = 100.0 * mod_num / np.maximum(mod_den, 1)
    retention[ret_den == 0] = np.nan
    np.fill_diagonal(retention, np.nan)
    return AccuracyTables(
        attrs=attrs,
        retention=retention,
        modification=modification,
        non_converged=non_conv,
        edited=mod_den.astype(int),
    )


def rank_protocol(probe: ProbeModel, sweeps: dict[tuple[int, int], EditSweep]) -> RankTables:
    """Spearman rho between probe-score rankings before and after each
    edit, per (edited attribute, observed attribute); directions averaged.

    All stacks enter the ranking (non-converged edits contribute their
    last candidate) so the before/after rankings cover the same set.
    """
    attrs = _binary_attrs(probe.attr_kinds)
    num_attrs = len(probe.attr_kinds)
    rho = np.full((len(attrs), num_attrs), np.nan)
    for ai, a in enumerate(attrs):
        per_dir = []
        for direction in (1, -1):
            sweep = sweeps[(a, direction)]
            row = np.full(num_attrs, np.nan)
            for b in range(num_attrs):
                if b == a:
                    continue
                row[b] = spearman_rho(sweep.pre_scores[:, b], sweep.post_scores[:, b])
            per_dir.append(row)
        cols = np.arange(num_attrs) != a
        rho[ai, cols] = np.stack(per_dir)[:, cols].mean(axis=0)
    return RankTables(attrs=attrs, spearman=rho)


# ---------------------------------------------------------------------------
# full evaluation pipeline


@dataclass(frozen=True)
class EvalConfig:
    num_eval: int = 200
    tau: float = 0.8
    delta: float = 0.25
    max_steps: int = 40
    seed: int = 0
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    def __post_init__(self):
        require_integers(self, num_eval=2, max_steps=0, seed=0)
        require_finite(self, "tau", "delta")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must be in (0, 1), got {self.tau!r}")
        if not self.delta > 0.0:
            raise ConfigError(f"delta must be > 0, got {self.delta!r}")


@dataclass
class EvalReport:
    attr_names: list[str]
    accuracy: AccuracyTables
    ranks: RankTables
    drift: DriftTables
    probe_holdout_accuracy: np.ndarray
    num_eval_stacks: int
    eval_config: EvalConfig
    dataset_seed: int
    notes: list[str]


def run_evaluation(
    model: FlowModel,
    probe: ProbeModel,
    eval_stacks: list[StyleStack],
    backbone: MockBackbone | None,
    synth_cfg: SyntheticConfig,
    cfg: EvalConfig,
    dataset_seed: int = 0,
) -> EvalReport:
    """One sweep per (binary attribute, direction) feeds all three tables;
    the stacks are encoded once for all of them, and the sweeps run on two
    processes where a second one may share the work (``_all_sweeps``)."""
    attrs = _binary_attrs(probe.attr_kinds)
    sweeps = _all_sweeps(model, probe, eval_stacks, cfg)
    accuracy = accuracy_protocol(probe, eval_stacks, sweeps)
    ranks = rank_protocol(probe, sweeps)

    id_mse = np.full(len(attrs), np.nan)
    nu_mse = np.full(len(attrs), np.nan)
    pairs = np.zeros(len(attrs), dtype=int)
    if backbone is not None:
        for ai, a in enumerate(attrs):
            before, after = [], []
            for direction in (1, -1):
                sweep = sweeps[(a, direction)]
                for st, res in zip(eval_stacks, sweep.results):
                    if res.converged:
                        before.append(st)
                        after.append(res.stack)
            pairs[ai] = len(before)
            if before:
                stats = identity_drift(backbone, before, after, synth_cfg)
                id_mse[ai] = stats.identity_mse
                nu_mse[ai] = stats.nuisance_mse
    drift = DriftTables(attrs=attrs, identity_mse=id_mse, nuisance_mse=nu_mse, pairs=pairs)

    notes = []
    mean_mod = float(np.mean(accuracy.modification)) if len(attrs) else float("nan")
    if math.isfinite(mean_mod) and mean_mod < 50.0:
        notes.append(
            f"mean modification accuracy {mean_mod:.1f}% is near or below chance; the flow looks untrained"
        )
    total_nonconv = int(accuracy.non_converged.sum())
    if total_nonconv:
        notes.append(f"{total_nonconv} minimal-edit searches did not converge and were excluded from retention")
    return EvalReport(
        attr_names=[f"attr{i}" for i in range(len(probe.attr_kinds))],
        accuracy=accuracy,
        ranks=ranks,
        drift=drift,
        probe_holdout_accuracy=probe.holdout_accuracy.copy(),
        num_eval_stacks=len(eval_stacks),
        eval_config=cfg,
        dataset_seed=dataset_seed,
        notes=notes,
    )


def evaluate_dataset(
    ds: SyntheticDataset, model: FlowModel, cfg: EvalConfig
) -> tuple[EvalReport, ProbeModel]:
    """Split off an eval set, train the probe on the rest, run everything."""
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(ds.num_frames)
    n_eval = min(cfg.num_eval, max(2, ds.num_frames // 5))
    eval_idx = sorted(order[:n_eval].tolist())
    train_idx = sorted(order[n_eval:].tolist())
    probe_ds = SyntheticDataset(
        stacks=[ds.stacks[i] for i in train_idx],
        config=ds.config,
        seed=ds.seed,
        label_stats=ds.label_stats,
    )
    probe = train_probe(probe_ds, cfg.probe)
    eval_stacks = [ds.stacks[i] for i in eval_idx]
    report = run_evaluation(model, probe, eval_stacks, ds.backbone, ds.config, cfg, dataset_seed=ds.seed)
    return report, probe


# ---------------------------------------------------------------------------
# serialization


def report_to_jsonable(report: EvalReport) -> dict:
    def clean(x):
        return [[None if not math.isfinite(v) else v for v in row] for row in np.atleast_2d(x).tolist()]

    return {
        "format_version": REPORT_FORMAT,
        "attr_names": report.attr_names,
        "binary_attrs": report.accuracy.attrs,
        "retention": clean(report.accuracy.retention),
        "modification": clean(report.accuracy.modification)[0],
        "non_converged": report.accuracy.non_converged.tolist(),
        "edited": report.accuracy.edited.tolist(),
        "spearman": clean(report.ranks.spearman),
        "identity_mse": clean(report.drift.identity_mse)[0],
        "nuisance_mse": clean(report.drift.nuisance_mse)[0],
        "drift_pairs": report.drift.pairs.tolist(),
        "probe_holdout_accuracy": report.probe_holdout_accuracy.tolist(),
        "num_eval_stacks": report.num_eval_stacks,
        "eval_config": dataclass_to_jsonable(report.eval_config),
        "dataset_seed": report.dataset_seed,
        "notes": report.notes,
    }


def save_report(report: EvalReport, out_dir) -> None:
    """report.json plus one CSV per table (accuracy, ranks, drift)."""
    names = report.attr_names
    with atomic_write(os.path.join(out_dir, "report.json")) as fh:
        json.dump(report_to_jsonable(report), fh, sort_keys=True, indent=1)
        fh.write("\n")

    def fmt(v) -> str:
        return "" if not math.isfinite(v) else f"{v:.6f}"

    acc = report.accuracy
    with atomic_write(os.path.join(out_dir, "accuracy.csv")) as fh:
        cols = ",".join(names[b] for b in acc.attrs)
        fh.write(f"edited,{cols},acc_of_modif,non_converged,edited_count\n")
        for ri, a in enumerate(acc.attrs):
            cells = ",".join(fmt(acc.retention[ri, ci]) for ci in range(len(acc.attrs)))
            fh.write(
                f"{names[a]},{cells},{fmt(acc.modification[ri])},{acc.non_converged[ri]},{acc.edited[ri]}\n"
            )
    with atomic_write(os.path.join(out_dir, "spearman.csv")) as fh:
        fh.write("edited," + ",".join(names) + "\n")
        for ri, a in enumerate(report.ranks.attrs):
            fh.write(f"{names[a]}," + ",".join(fmt(v) for v in report.ranks.spearman[ri]) + "\n")
    with atomic_write(os.path.join(out_dir, "identity_drift.csv")) as fh:
        fh.write("edited,identity_mse,nuisance_mse,pairs\n")
        for ri, a in enumerate(report.drift.attrs):
            fh.write(
                f"{names[a]},{fmt(report.drift.identity_mse[ri])},"
                f"{fmt(report.drift.nuisance_mse[ri])},{report.drift.pairs[ri]}\n"
            )
