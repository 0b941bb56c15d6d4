"""Fixed invertible synthetic generator standing in for a GAN + encoder.

Ground-truth factors (attributes, identity embedding, nuisance noise) are
mixed per layer through well-conditioned square matrices and an invertible
leaky nonlinearity, producing entangled multi-layer style stacks. Because
the map is exactly invertible, it doubles as the evaluation oracle: any
stack can be pushed back to factor space to measure what an edit changed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .configio import is_integer, require_finite, require_integers
from .errors import ConfigError, DatasetError, DimensionError
from .fileio import atomic_write
from .flow import StyleStack
from .prior import LabelStats, map_labels

DATASET_FORMAT = "flowplug-ds-v1"
GROUND_TRUTH_FORMAT = "flowplug-gt-v1"

BACKBONE_SLOPE = 0.5
SINGULAR_VALUE_RANGE = (0.1, 10.0)


@dataclass(frozen=True)
class SyntheticConfig:
    num_identities: int = 100
    frames_per_identity: int = 20
    num_attrs: int = 4
    code_dim: int = 32
    num_codes: int = 4
    identity_dim: int = 16
    label_noise: float = 0.0
    attr_kinds: tuple[str, ...] = ()

    def __post_init__(self):
        require_integers(
            self, num_identities=1, frames_per_identity=1, num_attrs=1, code_dim=1, num_codes=1, identity_dim=0
        )
        require_finite(self, "label_noise")
        if self.num_attrs + self.identity_dim >= self.code_dim:
            raise ConfigError("code_dim must exceed num_attrs + identity_dim (nuisance needs >= 1 dim)")
        if not self.attr_kinds:
            # empty tuple is input shorthand for all-binary
            object.__setattr__(self, "attr_kinds", ("binary",) * self.num_attrs)
        else:
            object.__setattr__(self, "attr_kinds", tuple(self.attr_kinds))
        if len(self.attr_kinds) != self.num_attrs:
            raise ConfigError(f"attr_kinds has {len(self.attr_kinds)} entries for {self.num_attrs} attributes")
        for kind in self.attr_kinds:
            if kind not in ("binary", "continuous"):
                raise ConfigError(f"unknown attribute kind {kind!r}")
        if self.label_noise < 0:
            raise ConfigError("label_noise must be non-negative")

    @property
    def kinds(self) -> tuple[str, ...]:
        return self.attr_kinds

    @property
    def nuisance_dim(self) -> int:
        return self.code_dim - self.num_attrs - self.identity_dim


@dataclass
class GroundTruthFactors:
    attrs: np.ndarray
    identity_emb: np.ndarray
    nuisance: np.ndarray


def split_factors(vec: np.ndarray, cfg: SyntheticConfig) -> GroundTruthFactors:
    m, d = cfg.num_attrs, cfg.identity_dim
    return GroundTruthFactors(attrs=vec[..., :m], identity_emb=vec[..., m : m + d], nuisance=vec[..., m + d :])


@dataclass
class MockBackbone:
    """Per-layer mixing matrices with clipped singular values, explicit
    inverses, bias vectors, and a leaky elementwise nonlinearity."""

    mix: np.ndarray  # (num_codes, code_dim, code_dim)
    mix_inv: np.ndarray
    bias: np.ndarray  # (num_codes, code_dim)
    seed: int

    @property
    def num_codes(self) -> int:
        return self.mix.shape[0]

    @property
    def code_dim(self) -> int:
        return self.mix.shape[1]


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, BACKBONE_SLOPE * x)


def _leaky_inv(y: np.ndarray) -> np.ndarray:
    return np.where(y >= 0, y, y / BACKBONE_SLOPE)


def make_backbone(cfg: SyntheticConfig, seed: int) -> MockBackbone:
    """Deterministic construction; singular values clipped so every layer's
    condition number stays <= 100."""
    rng = np.random.default_rng(seed)
    k, n = cfg.num_codes, cfg.code_dim
    lo, hi = SINGULAR_VALUE_RANGE
    mix = np.empty((k, n, n))
    mix_inv = np.empty((k, n, n))
    for i in range(k):
        u, s, vt = np.linalg.svd(rng.normal(size=(n, n)))
        s = np.clip(s, lo, hi)
        mix[i] = (u * s) @ vt
        mix_inv[i] = (vt.T * (1.0 / s)) @ u.T
    bias = rng.normal(size=(k, n))
    return MockBackbone(mix=mix, mix_inv=mix_inv, bias=bias, seed=seed)


def backbone_generate(backbone: MockBackbone, factors: np.ndarray) -> np.ndarray:
    """(batch, code_dim) factors -> (batch, num_codes, code_dim) codes."""
    factors = np.asarray(factors, dtype=np.float64)
    if factors.ndim != 2 or factors.shape[1] != backbone.code_dim:
        raise DimensionError(f"factors have shape {factors.shape}, expected (batch, {backbone.code_dim})")
    pre = np.einsum("kij,bj->bki", backbone.mix, factors) + backbone.bias
    return _leaky(pre)


def backbone_invert(backbone: MockBackbone, codes: np.ndarray) -> np.ndarray:
    """Exact per-layer inverse of backbone_generate, total on any codes:
    (batch, num_codes, code_dim) codes -> the factors each layer recovers,
    of the same shape."""
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 3 or codes.shape[1:] != (backbone.num_codes, backbone.code_dim):
        raise DimensionError(
            f"codes have shape {codes.shape}, expected (batch, {backbone.num_codes}, {backbone.code_dim})"
        )
    pre = _leaky_inv(codes) - backbone.bias
    return np.einsum("kij,bkj->bki", backbone.mix_inv, pre)


@dataclass
class SyntheticDataset:
    stacks: list[StyleStack]
    config: SyntheticConfig
    seed: int
    label_stats: list[LabelStats | None]
    factors: np.ndarray | None = None  # (num_frames, code_dim) ground truth
    identity_embs: np.ndarray | None = None  # (num_identities, identity_dim)
    backbone: MockBackbone | None = None

    @property
    def num_frames(self) -> int:
        return len(self.stacks)

    def frames_by_identity(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, st in enumerate(self.stacks):
            out.setdefault(st.identity_id, []).append(i)
        return out


def _derive_seeds(seed: int) -> tuple[int, int]:
    """Stable child seeds for (backbone, data draws)."""
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def dataset_backbone(cfg: SyntheticConfig, seed: int) -> MockBackbone:
    """The backbone generate_dataset(cfg, seed) used; rebuildable anywhere."""
    backbone_seed, _ = _derive_seeds(seed)
    return make_backbone(cfg, backbone_seed)


def generate_dataset(cfg: SyntheticConfig, seed: int) -> SyntheticDataset:
    """Draw one identity embedding per identity and fresh attributes plus
    nuisance per frame, then mix everything into style stacks."""
    backbone_seed, data_seed = _derive_seeds(seed)
    backbone = make_backbone(cfg, backbone_seed)
    rng = np.random.default_rng(data_seed)

    kinds = cfg.kinds
    num_frames = cfg.num_identities * cfg.frames_per_identity
    identity_embs = rng.standard_normal((cfg.num_identities, cfg.identity_dim))

    raw_attrs = np.empty((num_frames, cfg.num_attrs))
    for j, kind in enumerate(kinds):
        if kind == "binary":
            raw_attrs[:, j] = rng.integers(0, 2, size=num_frames) * 2.0 - 1.0
        else:
            raw_attrs[:, j] = rng.standard_normal(num_frames)
    nuisance = rng.standard_normal((num_frames, cfg.nuisance_dim))

    stats: list[LabelStats | None] = []
    for j, kind in enumerate(kinds):
        if kind == "continuous":
            col = raw_attrs[:, j]
            std = float(col.std())
            if std == 0:
                raise DatasetError(f"attribute {j} is constant; cannot standardize")
            stats.append(LabelStats(mean=float(col.mean()), std=std))
        else:
            stats.append(None)

    labels = map_labels(raw_attrs, kinds, stats)
    if cfg.label_noise > 0:
        labels = labels + cfg.label_noise * rng.standard_normal(labels.shape)

    factors = np.concatenate(
        [raw_attrs, np.repeat(identity_embs, cfg.frames_per_identity, axis=0), nuisance], axis=1
    )
    codes = backbone_generate(backbone, factors)

    stacks = []
    frame = 0
    for identity in range(cfg.num_identities):
        for local in range(cfg.frames_per_identity):
            stacks.append(
                StyleStack(codes=codes[frame], labels=labels[frame], identity_id=identity, frame_id=local)
            )
            frame += 1
    return SyntheticDataset(
        stacks=stacks,
        config=cfg,
        seed=seed,
        label_stats=stats,
        factors=factors,
        identity_embs=identity_embs,
        backbone=backbone,
    )


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_dict(cfg: SyntheticConfig) -> dict:
    return {
        "num_identities": cfg.num_identities,
        "frames_per_identity": cfg.frames_per_identity,
        "num_attrs": cfg.num_attrs,
        "code_dim": cfg.code_dim,
        "num_codes": cfg.num_codes,
        "identity_dim": cfg.identity_dim,
        "label_noise": cfg.label_noise,
        "attr_kinds": list(cfg.kinds),
    }


def dataset_header_line(ds: SyntheticDataset) -> str:
    stats = [None if s is None else {"mean": s.mean, "std": s.std} for s in ds.label_stats]
    return _canonical_json(
        {
            "format_version": DATASET_FORMAT,
            "config": _config_dict(ds.config),
            "seed": ds.seed,
            "label_stats": stats,
        }
    )


def dataset_fingerprint(ds: SyntheticDataset) -> str:
    """SHA-256 of the header line and, in record order, each record's ids
    (little-endian int64) and labels and codes (little-endian float64).
    Saving and loading keep it: JSON floats round-trip exactly."""
    h = hashlib.sha256(dataset_header_line(ds).encode("utf-8"))
    for st in ds.stacks:
        h.update(np.array([st.identity_id, st.frame_id], dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(st.labels, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(st.codes, dtype="<f8").tobytes())
    return h.hexdigest()


def save_dataset(ds: SyntheticDataset, path) -> None:
    with atomic_write(path) as fh:
        fh.write(dataset_header_line(ds) + "\n")
        for st in ds.stacks:
            fh.write(
                _canonical_json(
                    {
                        "identity_id": st.identity_id,
                        "frame_id": st.frame_id,
                        "labels": st.labels.tolist(),
                        "codes": st.codes.tolist(),
                    }
                )
                + "\n"
            )


def save_ground_truth(ds: SyntheticDataset, path) -> None:
    if ds.factors is None:
        raise DatasetError("dataset carries no ground-truth factors")
    with atomic_write(path) as fh:
        fh.write(
            _canonical_json({"format_version": GROUND_TRUTH_FORMAT, "seed": ds.seed, "config": _config_dict(ds.config)})
            + "\n"
        )
        for st, f in zip(ds.stacks, ds.factors):
            parts = split_factors(f, ds.config)
            fh.write(
                _canonical_json(
                    {
                        "identity_id": st.identity_id,
                        "frame_id": st.frame_id,
                        "attrs": parts.attrs.tolist(),
                        "identity_emb": parts.identity_emb.tolist(),
                        "nuisance": parts.nuisance.tolist(),
                    }
                )
                + "\n"
            )


# the header's integer config fields and the least value each may take
_HEADER_COUNTS = (
    ("num_identities", 1),
    ("frames_per_identity", 1),
    ("num_attrs", 1),
    ("code_dim", 1),
    ("num_codes", 1),
    ("identity_dim", 0),
)


def load_dataset(path, ground_truth_path=None) -> SyntheticDataset:
    """Read a JSONL dataset; rebuilds the oracle backbone from the header.

    Ground-truth factors are attached only when the sidecar is supplied —
    training code never passes it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset: {exc}") from exc
    if not lines:
        raise DatasetError("dataset file is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetError(f"dataset header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise DatasetError(f"line 1: dataset header must be a JSON object, got {lines[0][:40]!r}")
    if header.get("format_version") != DATASET_FORMAT:
        raise DatasetError(f"unrecognized dataset format {header.get('format_version')!r}")
    try:
        # checked here, and not only by the config, so the error names line 1
        fields = [(f"config.{key}", header["config"][key], least) for key, least in _HEADER_COUNTS]
        for name, value, least in [*fields, ("seed", header["seed"], 0)]:
            if not is_integer(value) or value < least:
                raise DatasetError(f"line 1: dataset header {name} must be a JSON integer >= {least}, got {value!r}")
        cfg = SyntheticConfig(
            num_identities=header["config"]["num_identities"],
            frames_per_identity=header["config"]["frames_per_identity"],
            num_attrs=header["config"]["num_attrs"],
            code_dim=header["config"]["code_dim"],
            num_codes=header["config"]["num_codes"],
            identity_dim=header["config"]["identity_dim"],
            label_noise=header["config"]["label_noise"],
            attr_kinds=tuple(header["config"]["attr_kinds"]),
        )
        seed = header["seed"]
        stats = [
            None if s is None else LabelStats(mean=s["mean"], std=s["std"]) for s in header["label_stats"]
        ]
    except (KeyError, TypeError, ConfigError) as exc:
        raise DatasetError(f"line 1: dataset header is malformed: {exc}") from exc

    stacks = []
    seen: dict[tuple[int, int], int] = {}
    for ln, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError(f"expected a JSON object, got {line[:40]!r}")
            ids = (rec["identity_id"], rec["frame_id"])
            # a float id would truncate silently
            if not all(is_integer(i) for i in ids):
                raise ValueError(f"identity_id and frame_id must be JSON integers, got {list(ids)}")
            st = StyleStack(
                codes=np.array(rec["codes"], dtype=np.float64),
                labels=np.array(rec["labels"], dtype=np.float64),
                identity_id=ids[0],
                frame_id=ids[1],
            )
        except (KeyError, TypeError, ValueError, DimensionError) as exc:
            raise DatasetError(f"bad dataset record on line {ln}: {exc}") from exc
        key = (st.identity_id, st.frame_id)
        problem = None
        if not (np.isfinite(st.codes).all() and np.isfinite(st.labels).all()):
            problem = "codes and labels must be finite"
        elif st.codes.shape != (cfg.num_codes, cfg.code_dim):
            problem = f"codes have shape {st.codes.shape}, header promises ({cfg.num_codes}, {cfg.code_dim})"
        elif st.labels.shape != (cfg.num_attrs,):
            problem = f"labels have shape {st.labels.shape}, header promises ({cfg.num_attrs},)"
        elif not (0 <= st.identity_id < cfg.num_identities and 0 <= st.frame_id < cfg.frames_per_identity):
            problem = f"(identity_id, frame_id) {key} is outside {cfg.num_identities} identities x {cfg.frames_per_identity} frames"
        elif key in seen:
            problem = f"(identity_id, frame_id) {key} repeats line {seen[key]}"
        if problem is not None:
            raise DatasetError(f"bad dataset record on line {ln}: {problem}")
        seen[key] = ln
        stacks.append(st)
    if len(stacks) != cfg.num_identities * cfg.frames_per_identity:
        raise DatasetError(
            f"dataset has {len(stacks)} frames, header promises {cfg.num_identities * cfg.frames_per_identity}"
        )

    factors = None
    if ground_truth_path is not None:
        factors = _load_ground_truth(ground_truth_path, seed, cfg, stacks)
    return SyntheticDataset(
        stacks=stacks,
        config=cfg,
        seed=seed,
        label_stats=stats,
        factors=factors,
        identity_embs=None,
        backbone=dataset_backbone(cfg, seed),
    )


def _load_ground_truth(path, seed: int, cfg: SyntheticConfig, stacks: list[StyleStack]) -> np.ndarray:
    """The sidecar's factors, one row per dataset record. Its header must
    carry the dataset's seed and config, and each record the
    (identity_id, frame_id) of the dataset record on the same line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        if header.get("format_version") != GROUND_TRUTH_FORMAT:
            raise DatasetError(f"unrecognized ground-truth format {header.get('format_version')!r}")
        if header.get("seed") != seed or header.get("config") != _config_dict(cfg):
            raise DatasetError("ground-truth sidecar line 1: seed or config differs from the dataset header")
        rows = [json.loads(line) for line in lines[1:]]
        for ln, (rec, st) in enumerate(zip(rows, stacks), start=2):
            key = (rec["identity_id"], rec["frame_id"])
            if key != (st.identity_id, st.frame_id):
                raise DatasetError(
                    f"ground-truth sidecar line {ln}: (identity_id, frame_id) {key} differs from the dataset "
                    f"record's {(st.identity_id, st.frame_id)}"
                )
        factors = np.array(
            [rec["attrs"] + rec["identity_emb"] + rec["nuisance"] for rec in rows], dtype=np.float64
        )
    except DatasetError:
        raise
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise DatasetError(f"cannot read ground-truth sidecar: {exc}") from exc
    if factors.shape != (len(stacks), cfg.code_dim):
        raise DatasetError(f"ground truth has shape {factors.shape}, expected ({len(stacks)}, {cfg.code_dim})")
    return factors
