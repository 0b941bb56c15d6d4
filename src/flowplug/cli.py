"""Command-line surface: gen-data | train | edit | evaluate | selftest.

Every run is driven by one JSON config file plus a few flag overrides, and
every output directory receives a ``run_config.json`` snapshot with the
resolved configuration and seeds, so results are reconstructible.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .configio import dataclass_from_dict, dataclass_to_jsonable, is_integer, require_finite, require_integers
from .editing import EditRequest, edit_attribute, minimal_edit_batch
from .errors import ConfigError, FlowplugError
from .evaluation import EvalConfig, evaluate_dataset, save_report, train_probe
from .fileio import atomic_write
from .losses import LossConfig
from .prior import PriorConfig
from .synthetic import (
    SyntheticConfig,
    dataset_fingerprint,
    generate_dataset,
    load_dataset,
    save_dataset,
    save_ground_truth,
)
from .training import TrainConfig, load_checkpoint, save_checkpoint, save_loss_trace, train

log = logging.getLogger(__name__)

EDIT_FORMAT = "flowplug-edit-v1"
_TOP_KEYS = {"seed", "synthetic", "train", "edit", "eval"}


@dataclass(frozen=True)
class EditSpec:
    attr_index: int = 0
    target: float = 1.0
    mode: str = "absolute"
    direction: int = 1
    tau: float = 0.8
    delta: float = 0.25
    max_steps: int = 40

    def __post_init__(self):
        require_integers(self, attr_index=0, max_steps=0)
        require_finite(self, "target", "tau", "delta")
        if self.mode not in ("absolute", "step-search"):
            raise ConfigError(f"unknown edit mode {self.mode!r}")
        if self.direction not in (1, -1):
            raise ConfigError("edit direction must be +1 or -1")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    synthetic: SyntheticConfig
    train: TrainConfig
    edit: EditSpec
    eval: EvalConfig


def resolve_run_config(data: dict, seed_override: int | None = None) -> RunConfig:
    """Validate the config mapping and fill cross-section defaults: the
    prior's dimensions come from the synthetic section unless pinned."""
    if not isinstance(data, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; expected {sorted(_TOP_KEYS)}")
    seed = data.get("seed", 0) if seed_override is None else seed_override
    if not is_integer(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    synthetic = dataclass_from_dict(SyntheticConfig, data.get("synthetic", {}), "synthetic")

    train_d = dict(data.get("train", {}))
    loss_d = dict(train_d.pop("loss", {}))
    prior_d = dict(loss_d.pop("prior", {}))
    prior_d.setdefault("num_attrs", synthetic.num_attrs)
    prior_d.setdefault("latent_dim", synthetic.code_dim)
    prior = dataclass_from_dict(PriorConfig, prior_d, "train.loss.prior")
    loss = dataclass_from_dict(LossConfig, {**loss_d, "prior": prior}, "train.loss")
    train_d.setdefault("seed", seed)
    if seed_override is not None:
        train_d["seed"] = seed_override
    train_cfg = dataclass_from_dict(TrainConfig, {**train_d, "loss": loss}, "train")

    edit_cfg = dataclass_from_dict(EditSpec, data.get("edit", {}), "edit")

    eval_d = dict(data.get("eval", {}))
    eval_d.setdefault("seed", seed)
    if seed_override is not None:
        eval_d["seed"] = seed_override
    eval_cfg = dataclass_from_dict(EvalConfig, eval_d, "eval")
    return RunConfig(seed=seed, synthetic=synthetic, train=train_cfg, edit=edit_cfg, eval=eval_cfg)


def _load_config_file(path: str | None, seed_override: int | None) -> RunConfig:
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return resolve_run_config(data, seed_override)


def _write_snapshot(out_dir: str, cfg: RunConfig, command: str, extras: dict | None = None) -> None:
    payload = {
        "command": command,
        "seed": cfg.seed,
        "synthetic": dataclass_to_jsonable(cfg.synthetic),
        "train": dataclass_to_jsonable(cfg.train),
        "edit": dataclass_to_jsonable(cfg.edit),
        "eval": dataclass_to_jsonable(cfg.eval),
    }
    if extras:
        payload.update(extras)
    with atomic_write(os.path.join(out_dir, "run_config.json")) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_gen_data(args) -> int:
    cfg = _load_config_file(args.config, args.seed)
    out = _ensure_out(args.out)
    ds = generate_dataset(cfg.synthetic, cfg.seed)
    ds_path = os.path.join(out, "dataset.jsonl")
    gt_path = os.path.join(out, "ground_truth.jsonl")
    save_dataset(ds, ds_path)
    save_ground_truth(ds, gt_path)
    _write_snapshot(out, cfg, "gen-data", {"dataset_fingerprint": dataset_fingerprint(ds)})
    print(f"wrote {ds.num_frames} frames to {ds_path} (oracle sidecar: {gt_path})")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config_file(args.config, args.seed)
    out = _ensure_out(args.out)
    ds = load_dataset(args.dataset)
    ckpt, trace = train(ds, cfg.train)
    ckpt_path = os.path.join(out, "checkpoint.json")
    save_checkpoint(ckpt, ckpt_path)
    save_loss_trace(trace, os.path.join(out, "loss_trace.csv"))
    _write_snapshot(out, cfg, "train", {"dataset_fingerprint": ckpt.dataset_fingerprint})
    print(
        f"trained {cfg.train.epochs} epochs: loss {trace[0].total:.4f} -> {trace[-1].total:.4f}; "
        f"checkpoint at {ckpt_path}"
    )
    return 0


def _load_checkpoint_and_dataset(args):
    """The checkpoint, the dataset and its fingerprint; warns when the
    checkpoint was trained on other data."""
    ckpt = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    fingerprint = dataset_fingerprint(ds)
    if ckpt.dataset_fingerprint != fingerprint:
        log.warning("checkpoint was trained on a different dataset (fingerprint mismatch)")
    return ckpt, ds, fingerprint


def _cmd_edit(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ConfigError(f"--limit must be non-negative, got {args.limit}")
    cfg = _load_config_file(args.config, args.seed)
    flags = {"attr_index": args.attr, "target": args.target, "mode": args.mode}
    overrides = {key: value for key, value in flags.items() if value is not None}
    spec = dataclass_from_dict(EditSpec, {**dataclass_to_jsonable(cfg.edit), **overrides}, "edit")
    out = _ensure_out(args.out)
    ckpt, ds, fingerprint = _load_checkpoint_and_dataset(args)
    stacks = ds.stacks if args.limit is None else ds.stacks[: args.limit]

    meta: list[dict] = []
    if spec.mode == "absolute":
        req = EditRequest(attr_index=spec.attr_index, target=spec.target, mode="absolute")
        edited = [edit_attribute(ckpt.model, st, req) for st in stacks]
        meta = [{} for _ in edited]
    else:
        probe = train_probe(ds, cfg.eval.probe)
        results = minimal_edit_batch(
            ckpt.model, stacks, spec.attr_index, spec.direction, probe, spec.tau, spec.delta, spec.max_steps
        )
        edited = [r.stack for r in results]
        meta = [{"steps_used": r.steps_used, "converged": r.converged} for r in results]
        converged = sum(r.converged for r in results)
        print(f"step-search: {converged}/{len(results)} edits converged")

    edit_path = os.path.join(out, "edited_stacks.jsonl")
    with atomic_write(edit_path) as fh:
        header = {
            "format_version": EDIT_FORMAT,
            "source_fingerprint": fingerprint,
            "edit": dataclass_to_jsonable(spec),
        }
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for st, extra in zip(edited, meta):
            rec = {
                "identity_id": st.identity_id,
                "frame_id": st.frame_id,
                "labels": st.labels.tolist(),
                "codes": st.codes.tolist(),
                **extra,
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    _write_snapshot(out, cfg, "edit")
    print(f"wrote {len(edited)} edited stacks to {edit_path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config_file(args.config, args.seed)
    out = _ensure_out(args.out)
    ckpt, ds, fingerprint = _load_checkpoint_and_dataset(args)
    report, probe = evaluate_dataset(ds, ckpt.model, cfg.eval)
    save_report(report, out)
    _write_snapshot(out, cfg, "evaluate", {"dataset_fingerprint": fingerprint})
    mod = float(np.mean(report.accuracy.modification)) if report.accuracy.attrs else float("nan")
    ret = float(np.nanmean(report.accuracy.retention)) if report.accuracy.attrs else float("nan")
    print(
        f"evaluated {report.num_eval_stacks} stacks: modification {mod:.2f}%, retention {ret:.2f}%; "
        f"probe holdout accuracy {np.array2string(probe.holdout_accuracy, precision=3)}; report in {out}"
    )
    for note in report.notes:
        print(f"note: {note}")
    return 0


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest

    failures = run_selftest()
    if failures:
        print(f"{failures} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowplug", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config file")
        p.add_argument("--seed", type=int, help="override every seed in the config")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset + oracle sidecar")
    common(p)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train the flow on a dataset")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset.jsonl path")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("edit", help="apply an attribute edit to dataset stacks")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--attr", type=int, help="attribute index to edit")
    p.add_argument("--target", type=float, help="absolute target value")
    p.add_argument("--mode", choices=["absolute", "step-search"])
    p.add_argument("--limit", type=int, help="edit only the first N stacks")
    p.set_defaults(fn=_cmd_edit)

    p = sub.add_parser("evaluate", help="run the disentanglement protocols")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("selftest", help="run built-in invariant suites")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FlowplugError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
