"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run pytest with -s or -rA to see them live).

The expensive artifacts (default 50-epoch run, the 3-seed comparison at
both contrastive weights) are session fixtures shared across criteria.
"""

import itertools
import json

import numpy as np
import pytest
from scipy import stats as sstats

from flowplug.cli import dispatch
from flowplug.evaluation import EvalConfig, evaluate_dataset, spearman_rho
from flowplug.flow import FlowConfig, StyleStack, build_flow, codes_to_latents, latents_to_codes
from flowplug.losses import LossConfig, batch_loss_graph, contrastive_loss
from flowplug.numerics import finite_diff_gradient, gradient
from flowplug.prior import PriorConfig
from flowplug.synthetic import SyntheticConfig, generate_dataset
from flowplug.training import TrainConfig, train

DEFAULT_PRIOR = PriorConfig(num_attrs=4, latent_dim=32, sigma=0.5)


def report_line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="session")
def default_dataset():
    return generate_dataset(SyntheticConfig(), seed=7)


@pytest.fixture(scope="session")
def default_run(default_dataset):
    cfg = TrainConfig(loss=LossConfig(prior=DEFAULT_PRIOR), epochs=50, seed=0)
    ckpt, trace = train(default_dataset, cfg)
    return ckpt, trace


@pytest.fixture(scope="session")
def default_report(default_dataset, default_run):
    ckpt, _ = default_run
    return evaluate_dataset(default_dataset, ckpt.model, EvalConfig(seed=0))


@pytest.fixture(scope="session")
def lambda_comparison():
    """Per seed, mean retention / off-diagonal Spearman / identity drift
    for contrastive weight 1 vs 0."""
    rows = []
    for seed in (0, 1, 2):
        ds = generate_dataset(SyntheticConfig(), seed=100 + seed)
        row = {}
        for lam in (1.0, 0.0):
            cfg = TrainConfig(
                loss=LossConfig(prior=DEFAULT_PRIOR, lambda_contrastive=lam), epochs=50, seed=seed
            )
            ckpt, _ = train(ds, cfg)
            rep, _ = evaluate_dataset(ds, ckpt.model, EvalConfig(seed=seed))
            row[lam] = {
                "retention": float(np.nanmean(rep.accuracy.retention)),
                "spearman": float(np.nanmean(rep.ranks.spearman)),
                "drift": float(np.nanmean(rep.drift.identity_mse)),
            }
        rows.append(row)
    return rows


def test_criterion_1_flow_correctness(default_run):
    ckpt, _ = default_run
    rng = np.random.default_rng(1234)
    worst = 0.0
    for model in (build_flow(DEFAULT_PRIOR, 4, FlowConfig(), seed=5), ckpt.model):
        codes = rng.normal(size=(1000, 32)) * 4
        for layer in range(4):
            idx = np.full(1000, layer)
            z, ld = codes_to_latents(model, codes, idx)
            back, ld_inv = latents_to_codes(model, z, idx)
            worst = max(worst, float(np.abs(back - codes).max() / np.abs(codes).max()))
            worst_ld = float(np.abs(ld + ld_inv).max())
    round_ok = worst <= 1e-6

    small = build_flow(PriorConfig(2, 6, 0.5), 3, FlowConfig(num_couplings=4, hidden_width=16), seed=2)
    for p in small.parameters():
        p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
    x0 = rng.normal(size=6)
    h = 1e-6
    jac = np.zeros((6, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        zp, _ = codes_to_latents(small, (x0 + e)[None, :], np.array([0]))
        zm, _ = codes_to_latents(small, (x0 - e)[None, :], np.array([0]))
        jac[:, j] = (zp[0] - zm[0]) / (2 * h)
    _, fd_logdet = np.linalg.slogdet(jac)
    _, ld0 = codes_to_latents(small, x0[None, :], np.array([0]))
    logdet_ok = abs(ld0[0] - fd_logdet) <= 1e-4

    ok = round_ok and logdet_ok
    report_line(
        1,
        "flow correctness",
        ok,
        f"round-trip rel err {worst:.2e} (<=1e-6), logdet vs FD {abs(ld0[0] - fd_logdet):.2e} (<=1e-4), "
        f"fwd+inv logdet {worst_ld:.2e}",
    )
    assert ok


def test_criterion_2_gradient_correctness():
    prior = PriorConfig(num_attrs=2, latent_dim=6, sigma=0.5)
    model = build_flow(prior, 2, FlowConfig(num_couplings=2, hidden_width=6), seed=3)
    rng = np.random.default_rng(4)
    for p in model.parameters():
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    stacks = [
        StyleStack(codes=rng.normal(size=(2, 6)), labels=np.array([1.0, -1.0]), identity_id=0, frame_id=i)
        for i in range(3)
    ]
    cfg = LossConfig(prior=prior, lambda_contrastive=1.0)

    def loss(_):
        total, _, _ = batch_loss_graph(model, [stacks], cfg)
        return total

    g = gradient(loss, model.parameters())
    fd = finite_diff_gradient(loss, model.parameters(), step=1e-5)
    err = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
    ok = bool(err.max() <= 1e-4)
    report_line(2, "gradient correctness", ok, f"max rel err {err.max():.2e} over {g.size} parameters (<=1e-4)")
    assert ok


def test_criterion_3_contrastive_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 17))
        s = rng.normal(size=(n, dim)) * 3
        brute = sum(float(np.sum((s[i] - s[j]) ** 2)) for i in range(n) for j in range(n) if i != j)
        worst = max(worst, abs(contrastive_loss(s) - brute))
    ok = worst <= 1e-9
    report_line(3, "contrastive mean-form identity", ok, f"max |pairwise - 2n*sum| {worst:.2e} over 1000 trials (<=1e-9)")
    assert ok


def test_criterion_4_spearman_oracle():
    worst = 0.0
    cases = 0
    for n in range(2, 8):
        base = np.arange(1.0, n + 1)
        for perm in itertools.permutations(range(n)):
            b = base[list(perm)]
            oracle = np.corrcoef(sstats.rankdata(base), sstats.rankdata(b))[0, 1]
            worst = max(worst, abs(spearman_rho(base, b) - oracle))
            cases += 1
    identical = spearman_rho(np.array([3.1, 0.2, 7.7]), np.array([3.1, 0.2, 7.7]))
    ok = worst <= 1e-12 and identical == 1.0
    report_line(
        4, "spearman oracle equivalence", ok, f"max |rho - oracle| {worst:.2e} over {cases} permutations; identical -> {identical}"
    )
    assert ok


def test_criterion_5_end_to_end_training(default_run, default_report):
    _, trace = default_run
    report, probe = default_report
    ratio = trace[-1].total / trace[0].total
    probe_min = float(probe.holdout_accuracy.min())
    mod_mean = float(np.mean(report.accuracy.modification))
    ok = ratio < 0.5 and probe_min >= 0.95 and mod_mean >= 90.0
    report_line(
        5,
        "end-to-end training",
        ok,
        f"loss {trace[0].total:.1f} -> {trace[-1].total:.1f} (ratio {ratio:.3f} < 0.5), "
        f"probe holdout min {probe_min:.3f} (>=0.95), modification {mod_mean:.1f}% (>=90%)",
    )
    assert ok


def test_criterion_6_directional_contrastive_comparison(lambda_comparison):
    wins = {"retention": 0, "spearman": 0, "drift": 0}
    detail = []
    for seed, row in enumerate(lambda_comparison):
        r1, r0 = row[1.0], row[0.0]
        wins["retention"] += r1["retention"] >= r0["retention"]
        wins["spearman"] += r1["spearman"] >= r0["spearman"]
        wins["drift"] += r1["drift"] <= r0["drift"]
        detail.append(
            f"seed {seed}: ret {r1['retention']:.2f}/{r0['retention']:.2f} "
            f"rho {r1['spearman']:.4f}/{r0['spearman']:.4f} drift {r1['drift']:.4f}/{r0['drift']:.4f}"
        )
    ok = all(count >= 2 for count in wins.values())
    report_line(
        6,
        "directional analogs (contrastive on vs off)",
        ok,
        f"majority wins {wins} out of 3 seeds; " + "; ".join(detail),
    )
    assert ok


@pytest.mark.usefixtures("hang_watchdog")
def test_criterion_7_pipeline_determinism(tmp_path):
    config = {
        "seed": 21,
        "synthetic": {
            "num_identities": 30,
            "frames_per_identity": 8,
            "num_attrs": 3,
            "code_dim": 16,
            "num_codes": 3,
            "identity_dim": 6,
        },
        "train": {"epochs": 8, "frames_per_group": 8, "flow": {"num_couplings": 4, "hidden_width": 32}},
        "eval": {"num_eval": 48, "probe": {"epochs": 80}},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for run in ("r1", "r2"):
        base = tmp_path / run
        assert dispatch(["gen-data", "--config", str(cfg_path), "--out", str(base / "data")]) == 0
        assert (
            dispatch(
                [
                    "train",
                    "--config",
                    str(cfg_path),
                    "--dataset",
                    str(base / "data" / "dataset.jsonl"),
                    "--out",
                    str(base / "train"),
                ]
            )
            == 0
        )
        assert (
            dispatch(
                [
                    "evaluate",
                    "--config",
                    str(cfg_path),
                    "--dataset",
                    str(base / "data" / "dataset.jsonl"),
                    "--checkpoint",
                    str(base / "train" / "checkpoint.json"),
                    "--out",
                    str(base / "eval"),
                ]
            )
            == 0
        )
        outputs.append(base)
    files = [
        "data/dataset.jsonl",
        "data/ground_truth.jsonl",
        "train/checkpoint.json",
        "train/loss_trace.csv",
        "eval/report.json",
        "eval/accuracy.csv",
        "eval/spearman.csv",
        "eval/identity_drift.csv",
    ]
    mismatched = [f for f in files if (outputs[0] / f).read_bytes() != (outputs[1] / f).read_bytes()]
    ok = not mismatched
    report_line(7, "pipeline determinism", ok, f"{len(files) - len(mismatched)}/{len(files)} outputs byte-identical" + (f"; mismatched: {mismatched}" if mismatched else ""))
    assert ok
