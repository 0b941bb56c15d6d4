"""The three workloads: what each sets up, times and checks.

Every workload drives flowplug only through its public calls (the CLI's
``dispatch`` and module functions), looked up through module attributes at
call time so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import flowplug.cli as cli
import flowplug.editing as editing
import flowplug.evaluation as evaluation
import flowplug.flow as flow
import flowplug.synthetic as synthetic
import flowplug.training as training

import summary

# the checkpoint behind the evaluate and edit_requests workloads is trained in
# set-up for this many epochs (the default config trains 50); at 10 every
# step search of the default evaluation converges
SETUP_EPOCHS = 10
# ... on a dataset and flow from this fixed seed, so that those workloads'
# run seed varies the requests (evaluation split, edit stream) and not the
# model; step counts, and with them the timed work, differ between models
FIXTURE_SEED = 7
# warm-up before the timed pipeline: every code path on the default data,
# one epoch, and a capped step search (a one-epoch flow rarely converges)
WARMUP_CONFIG = {"train": {"epochs": 1}, "eval": {"max_steps": 5}}
# short passes, so that a run holds a dozen or more and a burst of load
# from other tenants of the machine does not move their median
EDIT_REQUESTS_PER_PASS = 400
# each evaluate unit scores this many evaluation splits drawn from the run
# seed: the split alone moved an evaluate_dataset call by about ±8% between
# seeds, and averaging splits keeps that out of the run-to-run spread
EVAL_SPLITS = 3
CHECK_STACKS = 32
ROUND_TRIP_RTOL = 1e-6  # acceptance criterion 1's round-trip tolerance
# fixed amount of work for the traced run, so exact counts can repeat
TRACE_UNITS = {"pipeline": 1, "evaluate": 1, "edit_requests": 5}


class CommandFailed(Exception):
    pass


class Run:
    """State of one benchmark invocation: work directory, checks, counters."""

    def __init__(self, workload: str, seed: int, code_key: str, work_dir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.code_key = code_key  # names the flowplug sources and benchmark files
        self.work_dir = work_dir
        self.tracer = tracer
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.files: dict[str, int] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def cli(self, argv: list[str]) -> None:
        """One CLI command, with its console output swallowed."""
        span = self.tracer.span("cli." + argv[0].replace("-", "_")) if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.dispatch(argv)
        if code != 0:
            raise CommandFailed(f"flowplug {argv[0]} exited with {code}")


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _gen_and_train(run: Run, out: Path, train_config: dict | None, seed: int) -> dict:
    seed = str(seed)
    cfg_args = []
    if train_config is not None:
        cfg_args = ["--config", str(_write_json(out / "config.json", train_config))]
    paths = {
        "dataset": out / "data" / "dataset.jsonl",
        "checkpoint": out / "train" / "checkpoint.json",
        "trace": out / "train" / "loss_trace.csv",
    }
    times = {}
    t0 = time.perf_counter()
    run.cli(["gen-data", *cfg_args, "--out", str(out / "data"), "--seed", seed])
    t1 = time.perf_counter()
    run.cli(["train", *cfg_args, "--dataset", str(paths["dataset"]), "--out", str(out / "train"), "--seed", seed])
    t2 = time.perf_counter()
    times["gen_data_s"] = t1 - t0
    times["train_s"] = t2 - t1
    return {"paths": paths, "times": times}


def _file_sizes(run: Run, paths: dict) -> None:
    run.files["dataset_bytes"] = paths["dataset"].stat().st_size
    run.files["checkpoint_bytes"] = paths["checkpoint"].stat().st_size


def _read_trace_totals(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(line.split(",")[3]) for line in lines]


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


REPORT_FILES = ("report.json", "accuracy.csv", "spearman.csv", "identity_drift.csv")


def _report_bytes(out_dir: Path) -> bytes:
    return b"".join((out_dir / name).read_bytes() for name in REPORT_FILES)


def _report_quality(report) -> dict:
    acc = report.accuracy
    return {
        "mod_acc_pct": float(np.mean(acc.modification)),
        "retention_pct": float(np.nanmean(acc.retention)),
        "identity_mse": float(np.nanmean(report.drift.identity_mse)),
    }


# ---------------------------------------------------------------------------
# checks shared by the workloads


def check_loss_decreased(run: Run, trace_path: Path) -> float:
    totals = _read_trace_totals(trace_path)
    run.check(
        "final loss below the epoch -1 row",
        totals[-1] < totals[0],
        f"epoch -1 {totals[0]:.6g}, final {totals[-1]:.6g}",
    )
    return totals[-1]


def check_round_trip(run: Run, model, stacks, label: str) -> None:
    """codes -> latents -> codes reproduces each stack within the tolerance."""
    k = model.num_codes
    codes = np.concatenate([st.codes for st in stacks])
    z, _ = flow.codes_to_latents(model, codes, np.tile(np.arange(k), len(stacks)))
    back, _ = flow.latents_to_codes(model, z, np.tile(np.arange(k), len(stacks)))
    scale = np.maximum(np.abs(codes).max(axis=1), 1.0)
    worst = float((np.abs(back - codes).max(axis=1) / scale).max())
    run.check(f"round trip <= {ROUND_TRIP_RTOL:g} ({label})", worst <= ROUND_TRIP_RTOL, f"max relative error {worst:.3g}")


def check_absolute_edits(run: Run, model, stacks, edited, requests) -> None:
    """Absolute edits set the target coordinate and leave every other latent
    coordinate where it was."""
    k = model.num_codes
    idx = np.arange(k)
    worst_other = worst_target = 0.0
    for st, ed, (attr, target) in zip(stacks, edited, requests):
        z0, _ = flow.codes_to_latents(model, st.codes, idx)
        z1, _ = flow.codes_to_latents(model, ed.codes, idx)
        others = np.arange(model.code_dim) != attr
        scale = max(1.0, float(np.abs(z0).max()))
        worst_other = max(worst_other, float(np.abs(z1[:, others] - z0[:, others]).max()) / scale)
        worst_target = max(worst_target, float(np.abs(z1[:, attr] - target).max()) / max(1.0, abs(target)))
    run.check(
        "absolute edits leave non-target latents unchanged",
        worst_other <= ROUND_TRIP_RTOL and worst_target <= ROUND_TRIP_RTOL,
        f"max relative change {worst_other:.3g}, target error {worst_target:.3g}",
    )


def sample_edit_checks(run: Run, ds, model, probe, eval_cfg) -> None:
    """Absolute and step-search edits of a seeded sample of stacks, then the
    round-trip and non-target checks on every stack edited."""
    rng = np.random.default_rng([run.seed, 0xC4EC])
    pick = rng.choice(ds.num_frames, size=min(CHECK_STACKS, ds.num_frames), replace=False)
    stacks = [ds.stacks[i] for i in pick]
    m = model.prior.num_attrs
    requests = [(i % m, 1.0 if i % 2 else -1.0) for i in range(len(stacks))]
    edited = [
        editing.edit_attribute(model, st, editing.EditRequest(attr_index=a, target=t))
        for st, (a, t) in zip(stacks, requests)
    ]
    check_absolute_edits(run, model, stacks, edited, requests)
    binary = [j for j, kind in enumerate(ds.config.kinds) if kind == "binary"]
    searched = editing.minimal_edit_batch(
        model, stacks, binary[0], 1, probe, eval_cfg.tau, eval_cfg.delta, eval_cfg.max_steps
    )
    check_round_trip(run, model, stacks + edited + [r.stack for r in searched], "sampled and edited stacks")


def compare_expectation(run: Run, key: str, value, state_dir: Path) -> None:
    """Values that must repeat exactly for a seed are kept between runs in
    the checkout; a later run of the same workload and seed on the same
    sources and benchmark files must match. Other code starts its own
    expectations."""
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"{run.workload}-seed{run.seed}-{run.code_key}.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if key in stored:
        run.check(f"{key} repeats across runs of seed {run.seed}", stored[key] == value, f"stored {stored[key]}, now {value}")
        return
    stored[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# workloads


class Pipeline:
    """gen-data -> train -> evaluate through the CLI, default config."""

    name = "pipeline"
    setup_repeats = 3

    def setup(self, run: Run):
        out = run.fresh_dir("warmup")
        res = _gen_and_train(run, out, WARMUP_CONFIG, run.seed)
        p = res["paths"]
        cfg = str(out / "config.json")
        run.cli(["evaluate", "--config", cfg, "--dataset", str(p["dataset"]), "--checkpoint", str(p["checkpoint"]),
                 "--out", str(out / "eval"), "--seed", str(run.seed)])
        return None

    def unit(self, run: Run, state, i: int) -> dict:
        out = run.fresh_dir(f"pipe{i}")
        t0 = time.perf_counter()
        res = _gen_and_train(run, out, None, run.seed)
        p = res["paths"]
        t1 = time.perf_counter()
        run.cli(["evaluate", "--dataset", str(p["dataset"]), "--checkpoint", str(p["checkpoint"]),
                 "--out", str(out / "eval"), "--seed", str(run.seed)])
        t2 = time.perf_counter()
        res["times"]["evaluate_s"] = t2 - t1
        res["wall_s"] = t2 - t0
        res["out"] = out
        return res

    def finish(self, run: Run, state, units: list[dict], state_dir: Path) -> dict:
        last = units[-1]
        out, paths = last["out"], last["paths"]
        _file_sizes(run, paths)
        final_loss = check_loss_decreased(run, paths["trace"])
        digests = {_digest(_report_bytes(u["out"] / "eval"), u["paths"]["trace"].read_bytes()) for u in units}
        run.check("pipeline outputs identical across repeats", len(digests) == 1, f"{len(digests)} distinct")
        compare_expectation(run, "report_digest", sorted(digests)[0], state_dir)

        ds = synthetic.load_dataset(str(paths["dataset"]))
        ckpt = training.load_checkpoint(str(paths["checkpoint"]))
        eval_cfg = evaluation.EvalConfig(seed=run.seed)
        report, probe = evaluation.evaluate_dataset(ds, ckpt.model, eval_cfg)
        lib_dir = run.fresh_dir("library_eval")
        evaluation.save_report(report, str(lib_dir))
        run.check("library evaluate_dataset reproduces the CLI report", _report_bytes(lib_dir) == _report_bytes(out / "eval"))
        sample_edit_checks(run, ds, ckpt.model, probe, eval_cfg)

        meta = json.loads((out / "train" / "run_config.json").read_text(encoding="utf-8"))
        stack_epochs = ds.num_frames * meta["train"]["epochs"]
        walls = [u["wall_s"] for u in units]
        train_s = [u["times"]["train_s"] for u in units]
        named = {
            "pipeline_s": ("s", statistics.median(walls), len(walls)),
            "train_stacks_per_s": ("1/s", stack_epochs / statistics.median(train_s), len(train_s)),
            "final_loss": ("nats", final_loss, 1),
            **{k: (unit, v, 1) for k, unit, v in _quality_rows(_report_quality(report))},
        }
        return {
            "task_s": statistics.median(walls),
            "stacks_per_s": named["train_stacks_per_s"][1],
            "final_loss": final_loss,
            "quality": _report_quality(report),
            "named": named,
            "phases": {k: statistics.median(u["times"][k] for u in units) for k in units[0]["times"]},
        }


def _quality_rows(q: dict):
    yield "mod_acc_pct", "%", q["mod_acc_pct"]
    yield "retention_pct", "%", q["retention_pct"]
    yield "identity_mse", "mse", q["identity_mse"]


class _TrainedSetup:
    """Set-up shared by evaluate and edit_requests: a dataset and a flow
    checkpoint made through the CLI, then loaded back."""

    setup_repeats = 3

    def setup(self, run: Run):
        out = run.fresh_dir("setup")
        res = _gen_and_train(run, out, {"train": {"epochs": SETUP_EPOCHS}}, FIXTURE_SEED)
        p = res["paths"]
        _file_sizes(run, p)
        ds = synthetic.load_dataset(str(p["dataset"]))
        ckpt = training.load_checkpoint(str(p["checkpoint"]))
        return {"ds": ds, "ckpt": ckpt, "paths": p}


class Evaluate(_TrainedSetup):
    """Repeated evaluate_dataset on a checkpoint trained in set-up, over
    EVAL_SPLITS evaluation splits per unit."""

    name = "evaluate"

    def setup(self, run: Run):
        state = super().setup(run)
        # as `flowplug evaluate --seed N` does: N picks the evaluation split,
        # the probe keeps its configured seed
        state["eval_cfgs"] = [evaluation.EvalConfig(seed=EVAL_SPLITS * run.seed + j) for j in range(EVAL_SPLITS)]
        return state

    def unit(self, run: Run, state, i: int) -> dict:
        t0 = time.perf_counter()
        outs = [evaluation.evaluate_dataset(state["ds"], state["ckpt"].model, cfg) for cfg in state["eval_cfgs"]]
        return {"wall_s": time.perf_counter() - t0, "reports": [r for r, _ in outs], "probe": outs[0][1]}

    def finish(self, run: Run, state, units: list[dict], state_dir: Path) -> dict:
        final_loss = check_loss_decreased(run, state["paths"]["trace"])
        digests = set()
        for i, u in enumerate(units):
            chunks = []
            for j, report in enumerate(u["reports"]):
                out = run.fresh_dir(f"report{i}-{j}")
                evaluation.save_report(report, str(out))
                chunks.append(_report_bytes(out))
            digests.add(_digest(*chunks))
        run.check("evaluate_dataset reports identical across repeats", len(digests) == 1, f"{len(digests)} distinct")
        compare_expectation(run, "report_digest", sorted(digests)[0], state_dir)
        sample_edit_checks(run, state["ds"], state["ckpt"].model, units[0]["probe"], state["eval_cfgs"][0])

        walls = [u["wall_s"] for u in units]
        n_eval = sum(r.num_eval_stacks for r in units[0]["reports"])
        per_split = [_report_quality(r) for r in units[0]["reports"]]
        quality = {k: float(np.mean([q[k] for q in per_split])) for k in per_split[0]}
        named = {
            "eval_stacks_per_s": ("1/s", n_eval / statistics.median(walls), len(walls)),
            "final_loss": ("nats", final_loss, 1),
            **{k: (unit, v, 1) for k, unit, v in _quality_rows(quality)},
        }
        return {
            "task_s": statistics.median(walls),
            "stacks_per_s": named["eval_stacks_per_s"][1],
            "final_loss": final_loss,
            "quality": quality,
            "named": named,
        }


def _edit_digest(results) -> str:
    return _digest(*((r.codes if hasattr(r, "codes") else r.stack.codes).tobytes() for r in results))


class EditRequests(_TrainedSetup):
    """One closed-loop client sending single-stack edit requests, half
    absolute and half step-search, in a seeded order."""

    name = "edit_requests"

    def setup(self, run: Run):
        state = super().setup(run)
        state["eval_cfg"] = evaluation.EvalConfig(seed=run.seed)
        state["probe"] = evaluation.train_probe(state["ds"], state["eval_cfg"].probe)
        state["requests"] = self.requests(state["ds"], run.seed)
        return state

    @staticmethod
    def requests(ds, seed: int) -> list[tuple]:
        """(kind, stack index, attribute, target or direction). Step-search
        requests ask for the class opposite to the stack's label, so every
        one of them has to move the attribute."""
        rng = np.random.default_rng([seed, 0xED17])
        n = EDIT_REQUESTS_PER_PASS
        kinds = rng.permutation(np.arange(n) % 2)
        binary = [j for j, kind in enumerate(ds.config.kinds) if kind == "binary"]
        out = []
        for kind in kinds:
            s = int(rng.integers(ds.num_frames))
            if kind == 0:
                attr = int(rng.integers(ds.config.num_attrs))
                out.append(("absolute", s, attr, float(rng.choice([-1.0, 1.0]))))
            else:
                attr = int(binary[rng.integers(len(binary))])
                out.append(("search", s, attr, -1 if ds.stacks[s].labels[attr] > 0 else 1))
        return out

    def unit(self, run: Run, state, i: int) -> dict:
        model, probe, stacks = state["ckpt"].model, state["probe"], state["ds"].stacks
        cfg = state["eval_cfg"]
        lat = {"absolute": [], "search": []}
        results = []
        t_pass = time.perf_counter()
        for kind, s, attr, value in state["requests"]:
            t0 = time.perf_counter()
            if kind == "absolute":
                res = editing.edit_attribute(model, stacks[s], editing.EditRequest(attr_index=attr, target=value))
            else:
                res = editing.minimal_edit_batch(model, [stacks[s]], attr, value, probe, cfg.tau, cfg.delta, cfg.max_steps)[0]
            lat[kind].append(time.perf_counter() - t0)
            results.append(res)
        wall = time.perf_counter() - t_pass
        # later passes keep only a digest, so memory does not grow with the
        # number of passes that fit in the run
        return {"wall_s": wall, "latency": lat, "digest": _edit_digest(results), "results": results if i == 0 else None}

    def finish(self, run: Run, state, units: list[dict], state_dir: Path) -> dict:
        final_loss = check_loss_decreased(run, state["paths"]["trace"])
        ds, model, probe = state["ds"], state["ckpt"].model, state["probe"]
        reqs = state["requests"]

        digests = {u["digest"] for u in units}
        run.check("edit results identical across passes", len(digests) == 1, f"{len(digests)} distinct")
        compare_expectation(run, "edit_digest", sorted(digests)[0], state_dir)

        first = units[0]["results"]
        abs_i = [j for j, r in enumerate(reqs) if r[0] == "absolute"]
        src_i = [j for j, r in enumerate(reqs) if r[0] == "search"]
        check_absolute_edits(
            run, model, [ds.stacks[reqs[j][1]] for j in abs_i], [first[j] for j in abs_i],
            [(reqs[j][2], reqs[j][3]) for j in abs_i],
        )
        check_round_trip(run, model, [r if kind == "absolute" else r.stack for (kind, *_), r in zip(reqs, first)], "edited stacks")
        quality = self.quality(ds, probe, [reqs[j] for j in src_i], [first[j] for j in src_i])

        lat_abs = [x for u in units for x in u["latency"]["absolute"]]
        lat_src = [x for u in units for x in u["latency"]["search"]]
        named = {"final_loss": ("nats", final_loss, 1)}
        for label, lat in (("abs", lat_abs), ("search", lat_src)):
            s = summary.latency_summary(lat)
            named[f"edit_{label}_p50_ms"] = ("ms", s["p50_ms"], s["n"])
            if "tail" in s:
                named[f"edit_{label}_{s['tail']}_ms"] = ("ms", s["tail_ms"], s["n"])
        named.update({k: (unit, v, 1) for k, unit, v in _quality_rows(quality)})
        pass_s = statistics.median(u["wall_s"] for u in units)
        named["edit_pass_s"] = ("s", pass_s, len(units))
        named["edit_requests_per_s"] = ("1/s", len(reqs) / pass_s, len(units))
        return {
            "task_s": pass_s,
            "stacks_per_s": len(reqs) / pass_s,
            "final_loss": final_loss,
            "quality": quality,
            "named": named,
        }

    @staticmethod
    def quality(ds, probe, reqs, results) -> dict:
        """The accuracy protocol's modification and retention, and the
        oracle's identity drift, over this workload's step-search edits."""
        labels = np.stack([ds.stacks[s].labels for _, s, _, _ in reqs])
        pre = probe.decisions(np.stack([ds.stacks[s].codes for _, s, _, _ in reqs]))
        post = probe.decisions(np.stack([r.stack.codes for r in results]))
        conv = np.array([r.converged for r in results])
        attrs = np.array([a for _, _, a, _ in reqs])
        dirs = np.array([d for _, _, _, d in reqs], dtype=np.float64)
        rows = np.arange(len(reqs))
        needs = pre[rows, attrs] != dirs
        moved = needs & conv & (post[rows, attrs] == dirs)
        binary = [j for j, kind in enumerate(ds.config.kinds) if kind == "binary"]
        kept = eligible = 0
        for b in binary:
            other = (attrs != b) & needs & conv & (pre[:, b] == np.where(labels[:, b] > 0, 1.0, -1.0))
            eligible += int(other.sum())
            kept += int((other & (post[:, b] == pre[:, b])).sum())
        before = [ds.stacks[s] for (_, s, _, _), ok in zip(reqs, conv) if ok]
        after = [r.stack for r, ok in zip(results, conv) if ok]
        drift = evaluation.identity_drift(ds.backbone, before, after, ds.config)
        return {
            "mod_acc_pct": 100.0 * moved.sum() / max(1, needs.sum()),
            "retention_pct": 100.0 * kept / max(1, eligible),
            "identity_mse": drift.identity_mse,
        }


WORKLOADS = {w.name: w for w in (Pipeline(), Evaluate(), EditRequests())}
