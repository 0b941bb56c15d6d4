"""Built-in invariant suites, runnable from the CLI in any deployment.

Each suite re-derives its expectations independently (finite differences,
brute-force pairwise sums, quadrature, closed forms) and raises
AssertionError with a diagnostic when an invariant is violated.
"""

from __future__ import annotations

import math

import numpy as np

from .editing import EditRequest, edit_attribute, stack_latents
from .errors import CheckpointVersionError
from .evaluation import spearman_rho
from .flow import FlowConfig, StyleStack, build_flow, codes_to_latents, latents_to_codes
from .losses import LossConfig, batch_loss_graph, contrastive_loss
from .numerics import AdamConfig, AdamOptimizer, Tensor, finite_diff_gradient, gradient, init_mlp, no_grad, parameter
from .prior import LOG_2PI, PriorConfig
from .synthetic import SyntheticConfig, backbone_generate, backbone_invert, generate_dataset, make_backbone


def _perturb(params, rng, scale=0.2):
    for p in params:
        p.data = p.data + scale * rng.normal(size=p.data.shape)


def check_gradients() -> None:
    """Hand-derived MLP backward vs central finite differences."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        net = init_mlp([6, 12, 12, 4], rng)
        _perturb(net.parameters(), rng)
        x = rng.normal(size=(5, 6))
        tgt = rng.normal(size=(5, 4))

        def loss(_):
            return Tensor(np.sum((net.forward(x) - tgt) ** 2) / tgt.size)

        kept: list = []
        g = np.concatenate([a.ravel() for a in net.backward((net.forward(x, kept) - tgt) * (2.0 / tgt.size), kept)])
        fd = finite_diff_gradient(loss, net.parameters())
        # sub-1e-4 entries are held to an absolute 1e-8 (FD noise floor)
        err = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
        assert err.max() <= 1e-4, f"gradient mismatch {err.max():.2e} (seed {seed})"


def check_adam() -> None:
    cfg = AdamConfig()
    start = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, -1.0, 2.0])
    still, moved = parameter(start), parameter(start)
    still.grad, moved.grad = np.zeros(3), g
    AdamOptimizer([still, moved], cfg).step()
    assert np.array_equal(still.data, start), "zero gradient must be a fixed point"
    expected = start - cfg.lr * g / (np.abs(g) + cfg.eps)
    assert np.abs(moved.data - expected).max() < 1e-12, "first Adam step deviates from the closed form"


def check_flow_round_trip() -> None:
    prior = PriorConfig(num_attrs=2, latent_dim=6, sigma=0.5)
    model = build_flow(prior, num_codes=3, cfg=FlowConfig(num_couplings=4, hidden_width=16), seed=0)
    rng = np.random.default_rng(1)
    w = rng.normal(size=(50, 6))
    z, ld = codes_to_latents(model, w, np.zeros(50, dtype=int))
    assert np.array_equal(z, w) and np.all(ld == 0), "identity initialization violated"
    _perturb(model.parameters(), rng)
    for layer in range(3):
        idx = np.full(200, layer)
        w = rng.normal(size=(200, 6)) * 3
        z, ld = codes_to_latents(model, w, idx)
        back, ld_inv = latents_to_codes(model, z, idx)
        rel = np.abs(back - w).max() / max(1.0, np.abs(w).max())
        assert rel <= 1e-6, f"round-trip error {rel:.2e} at layer {layer}"
        assert np.abs(ld + ld_inv).max() <= 1e-8, "inverse logdet does not negate forward logdet"
    x0 = rng.normal(size=6)
    h = 1e-6
    jac = np.zeros((6, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        zp, _ = codes_to_latents(model, (x0 + e)[None, :], np.array([1]))
        zm, _ = codes_to_latents(model, (x0 - e)[None, :], np.array([1]))
        jac[:, j] = (zp[0] - zm[0]) / (2 * h)
    _, fd_logdet = np.linalg.slogdet(jac)
    _, ld0 = codes_to_latents(model, x0[None, :], np.array([1]))
    assert abs(ld0[0] - fd_logdet) <= 1e-4, f"logdet {ld0[0]} vs finite-difference {fd_logdet}"


def check_contrastive_identity() -> None:
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 17))
        s = rng.normal(size=(n, dim)) * 3
        brute = sum(
            float(np.sum((s[i] - s[j]) ** 2)) for i in range(n) for j in range(n) if i != j
        )
        assert abs(contrastive_loss(s) - brute) <= 1e-9, "mean-form identity violated"


def check_prior() -> None:
    # minus the NLL of one code through an identity-initialized flow, with no
    # contrastive term, is the prior's log density
    sigma, y = 0.5, 0.3
    prior = PriorConfig(num_attrs=1, latent_dim=2, sigma=sigma)
    model = build_flow(prior, num_codes=1, cfg=FlowConfig(num_couplings=2, hidden_width=4), seed=0)
    cfg = LossConfig(prior=prior, lambda_contrastive=0.0)

    def nll(c: float, s: float) -> float:
        stack = StyleStack(codes=np.array([[c, s]]), labels=np.array([y]), identity_id=0, frame_id=0)
        with no_grad():
            return batch_loss_graph(model, [[stack]], cfg)[0].item()

    at_mean = LOG_2PI + math.log(sigma)
    for c, s, want in ((y, 0.0, at_mean), (y + sigma, 0.0, at_mean + 0.5), (y, 1.0, at_mean + 0.5)):
        assert abs(nll(c, s) - want) < 1e-12, f"NLL at ({c}, {s}) is not the closed form {want}"
    # a rectangle rule of step h on a Gaussian of standard deviation sigma
    # errs by about 2 exp(-2 pi^2 sigma^2 / h^2): 5e-9 at h = 0.5
    grid = np.arange(-8.0, 8.25, 0.5)
    integral = sum(math.exp(-nll(c, s)) for c in grid for s in grid) * 0.25
    assert abs(integral - 1.0) <= 1e-6, f"quadrature normalization {integral}"


def check_spearman() -> None:
    import itertools

    for n in range(2, 7):
        base = np.arange(1.0, n + 1.0)
        for perm in itertools.permutations(range(n)):
            b = base[list(perm)]
            rho = spearman_rho(base, b)
            d2 = float(np.sum((base - b) ** 2))
            exact = 1.0 - 6.0 * d2 / (n * (n * n - 1.0))
            assert abs(rho - exact) <= 1e-12, f"spearman {rho} vs exact {exact}"
    assert spearman_rho(np.array([3.1, 0.2, 7.7]), np.array([3.1, 0.2, 7.7])) == 1.0


def check_backbone() -> None:
    cfg = SyntheticConfig(num_identities=3, frames_per_identity=2, num_attrs=2, code_dim=8, num_codes=3, identity_dim=4)
    backbone = make_backbone(cfg, seed=5)
    f = np.random.default_rng(6).normal(size=(50, 8)) * 2
    rec = backbone_invert(backbone, backbone_generate(backbone, f))
    assert rec.shape == (50, cfg.num_codes, 8)
    assert np.abs(rec - f[:, None, :]).max() <= 1e-6, "backbone round trip, on every layer"
    for i in range(cfg.num_codes):
        s = np.linalg.svd(backbone.mix[i], compute_uv=False)
        assert s.max() / s.min() <= 100.0 + 1e-9, "condition number bound"


def check_checkpoint() -> None:
    import os
    import tempfile

    from .losses import LossConfig
    from .training import TrainConfig, load_checkpoint, save_checkpoint, train

    cfg = SyntheticConfig(num_identities=4, frames_per_identity=3, num_attrs=2, code_dim=8, num_codes=2, identity_dim=4)
    ds = generate_dataset(cfg, seed=8)
    prior = PriorConfig(num_attrs=2, latent_dim=8, sigma=0.5)
    tc = TrainConfig(
        loss=LossConfig(prior=prior),
        flow=FlowConfig(num_couplings=2, hidden_width=8),
        epochs=1,
        seed=0,
    )
    ckpt, _ = train(ds, tc)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt.json")
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.model.parameters(), loaded.model.parameters()):
            assert np.array_equal(a.data, b.data), "checkpoint round trip is not bit-exact"
        with open(path) as fh:
            bad = fh.read().replace("flowplug-ckpt-v1", "flowplug-ckpt-v9")
        with open(path, "w") as fh:
            fh.write(bad)
        try:
            load_checkpoint(path)
            raise AssertionError("version mismatch not rejected")
        except CheckpointVersionError:
            pass


def check_edit_surgicality() -> None:
    prior = PriorConfig(num_attrs=2, latent_dim=6, sigma=0.5)
    model = build_flow(prior, num_codes=2, cfg=FlowConfig(num_couplings=4, hidden_width=16), seed=2)
    rng = np.random.default_rng(9)
    _perturb(model.parameters(), rng)
    stack = StyleStack(codes=rng.normal(size=(2, 6)), labels=np.array([1.0, -1.0]), identity_id=0, frame_id=0)
    before = stack_latents(model, stack)
    edited = edit_attribute(model, stack, EditRequest(attr_index=1, target=0.5))
    after = stack_latents(model, edited)
    other = [0, 2, 3, 4, 5]
    assert np.abs(after[:, other] - before[:, other]).max() <= 1e-9, "edit leaked into other coordinates"
    assert np.abs(after[:, 1] - 0.5).max() <= 1e-9, "target coordinate not reached"


def check_loss_gradient() -> None:
    prior = PriorConfig(num_attrs=2, latent_dim=6, sigma=0.5)
    model = build_flow(prior, num_codes=2, cfg=FlowConfig(num_couplings=2, hidden_width=6), seed=4)
    rng = np.random.default_rng(11)
    _perturb(model.parameters(), rng, scale=0.1)
    cfg = LossConfig(prior=prior, lambda_contrastive=1.0)
    stacks = [
        StyleStack(codes=rng.normal(size=(2, 6)), labels=np.array([1.0, -1.0]), identity_id=0, frame_id=i)
        for i in range(3)
    ]

    def loss(_):
        total, _, _ = batch_loss_graph(model, [stacks], cfg)
        return total

    g = gradient(loss, model.parameters())
    fd = finite_diff_gradient(loss, model.parameters())
    err = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
    assert err.max() <= 1e-4, f"total-loss gradient mismatch {err.max():.2e}"


SUITES = [
    ("gradient_finite_difference", check_gradients),
    ("adam_update", check_adam),
    ("flow_round_trip_and_logdet", check_flow_round_trip),
    ("contrastive_mean_form_identity", check_contrastive_identity),
    ("prior_closed_forms_and_normalization", check_prior),
    ("spearman_exact_formula", check_spearman),
    ("backbone_invertibility", check_backbone),
    ("checkpoint_round_trip", check_checkpoint),
    ("edit_surgicality", check_edit_surgicality),
    ("batch_loss_gradient", check_loss_gradient),
]


def run_selftest(stream=None) -> int:
    """Run every suite; print one PASS/FAIL line each; return failure count."""
    import sys

    stream = stream or sys.stdout
    failures = 0
    for name, fn in SUITES:
        try:
            fn()
            print(f"PASS {name}", file=stream)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=stream)
        except Exception as exc:  # noqa: BLE001 - selftest must report, not crash
            failures += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}", file=stream)
    return failures
