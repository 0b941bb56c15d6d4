"""Loss contracts: NLL reduction to the prior at identity init, the
contrastive mean-form identity, and the closed-form gradient of the total
against finite differences and a fixture from the earlier tape-built loss."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplug.errors import DimensionError
from flowplug.flow import FlowConfig, StyleStack, build_flow, codes_to_latents
from flowplug.losses import LossConfig, batch_loss_graph, contrastive_loss
from flowplug.numerics import finite_diff_gradient, gradient, no_grad
from flowplug.prior import LatentPair, PriorConfig, log_prior
from flowplug.training import load_checkpoint

DATA = Path(__file__).parent / "data"


def identity_model(num_attrs=2, latent_dim=6, num_codes=2, seed=0):
    prior = PriorConfig(num_attrs=num_attrs, latent_dim=latent_dim, sigma=0.5)
    return build_flow(prior, num_codes, FlowConfig(num_couplings=2, hidden_width=8), seed)


def batch_values(model, groups, cfg):
    """(total, mean NLL) of batch_loss_graph as floats, with no tape."""
    with no_grad():
        total, nll_mean, _ = batch_loss_graph(model, groups, cfg)
    return total.item(), nll_mean.item()


def nll(model, stack, cfg):
    return batch_values(model, [[stack]], cfg)[1]


def batch_total(model, groups, cfg):
    return batch_values(model, groups, cfg)[0]


def latent_pair(model, stack, layer_index):
    z, _ = codes_to_latents(model, stack.codes[layer_index][None, :], np.array([layer_index]))
    m = model.prior.num_attrs
    return LatentPair(c=z[0, :m], s=z[0, m:])


def make_stack(rng, model, identity_id=0, frame_id=0):
    return StyleStack(
        codes=rng.normal(size=(model.num_codes, model.code_dim)),
        labels=np.where(rng.normal(size=model.prior.num_attrs) > 0, 1.0, -1.0),
        identity_id=identity_id,
        frame_id=frame_id,
    )


class TestNllLoss:
    def test_identity_flow_reduces_to_prior(self):
        model = identity_model()
        rng = np.random.default_rng(0)
        stack = make_stack(rng, model)
        cfg = LossConfig(prior=model.prior)
        expected = -sum(
            log_prior(latent_pair(model, stack, i), stack.labels, model.prior)
            for i in range(model.num_codes)
        )
        assert nll(model, stack, cfg) == pytest.approx(expected, abs=1e-10)

    def test_single_code_closed_form(self):
        prior = PriorConfig(num_attrs=1, latent_dim=2, sigma=1.0)
        model = build_flow(prior, 1, FlowConfig(num_couplings=2, hidden_width=4), seed=1)
        y = 0.8
        stack = StyleStack(codes=np.array([[y, 0.0]]), labels=np.array([y]), identity_id=0, frame_id=0)
        value = nll(model, stack, LossConfig(prior=prior))
        assert value == pytest.approx(1.8378770664093453, abs=1e-12)

    def test_full_scale_shape(self):
        # 18 codes of 512 dims with 8 attributes: the sum has 18 per-code terms
        prior = PriorConfig(num_attrs=8, latent_dim=512, sigma=0.5)
        model = build_flow(prior, 18, FlowConfig(num_couplings=2, hidden_width=8), seed=2)
        rng = np.random.default_rng(3)
        stack = StyleStack(
            codes=rng.normal(size=(18, 512)),
            labels=np.ones(8),
            identity_id=0,
            frame_id=0,
        )
        cfg = LossConfig(prior=prior)
        whole = nll(model, stack, cfg)
        per_code = [
            -log_prior(latent_pair(model, stack, i), stack.labels, prior)
            for i in range(18)
        ]
        assert len(per_code) == 18
        assert whole == pytest.approx(sum(per_code), rel=1e-12)

    def test_missing_labels_rejected(self):
        model = identity_model()
        stack = StyleStack(codes=np.zeros((2, 6)), labels=np.zeros(1), identity_id=0, frame_id=0)
        with pytest.raises(DimensionError):
            nll(model, stack, LossConfig(prior=model.prior))


class TestContrastiveLoss:
    def test_two_vector_example(self):
        s = np.array([[0.0, 0.0], [2.0, 0.0]])
        brute = sum(np.sum((s[i] - s[j]) ** 2) for i in range(2) for j in range(2) if i != j)
        assert brute == 8.0
        assert contrastive_loss(s) == pytest.approx(8.0, abs=1e-12)
        assert contrastive_loss(s, normalize=True) == pytest.approx(4.0, abs=1e-12)

    def test_singleton_group(self):
        assert contrastive_loss(np.array([[1.0, 2.0, 3.0]])) == 0.0

    def test_identical_vectors(self):
        s = np.tile([0.5, -1.5], (4, 1))
        assert contrastive_loss(s) == 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(DimensionError):
            contrastive_loss(np.zeros((0, 3)))

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10),
        dim=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_pairwise_equals_mean_form(self, n, dim, seed):
        s = np.random.default_rng(seed).normal(size=(n, dim)) * 3
        brute = sum(float(np.sum((s[i] - s[j]) ** 2)) for i in range(n) for j in range(n) if i != j)
        assert contrastive_loss(s) == pytest.approx(brute, abs=1e-9)
        assert contrastive_loss(s) >= 0.0
        if n > 1 and not np.all(s == s[0]):
            assert contrastive_loss(s) > 0.0

    def test_exact_permutation_invariance(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(7, 5))
        value = contrastive_loss(s)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(7)
            assert contrastive_loss(s[perm]) == value


class TestTotalLoss:
    def test_lambda_zero_is_mean_nll(self):
        model = identity_model()
        rng = np.random.default_rng(5)
        groups = [[make_stack(rng, model, 0, i) for i in range(3)], [make_stack(rng, model, 1, i) for i in range(2)]]
        cfg = LossConfig(prior=model.prior, lambda_contrastive=0.0)
        stacks = [s for g in groups for s in g]
        mean_nll = np.mean([nll(model, s, cfg) for s in stacks])
        assert batch_total(model, groups, cfg) == pytest.approx(mean_nll, abs=1e-9)

    def test_single_frame_groups_drop_contrastive(self):
        model = identity_model()
        rng = np.random.default_rng(6)
        groups = [[make_stack(rng, model, i, 0)] for i in range(4)]
        cfg = LossConfig(prior=model.prior, lambda_contrastive=5.0)
        stacks = [s for g in groups for s in g]
        mean_nll = np.mean([nll(model, s, cfg) for s in stacks])
        assert batch_total(model, groups, cfg) == pytest.approx(mean_nll, abs=1e-9)

    def test_hand_composed_two_groups(self):
        model = identity_model()
        rng = np.random.default_rng(7)
        groups = [
            [make_stack(rng, model, 0, i) for i in range(3)],
            [make_stack(rng, model, 1, i) for i in range(2)],
        ]
        cfg = LossConfig(prior=model.prior, lambda_contrastive=1.0, normalize_groups=True)
        stacks = [s for g in groups for s in g]
        mean_nll = np.mean([nll(model, s, cfg) for s in stacks])
        # identity flow: the non-attribute vector is the raw code tail
        terms = []
        for group in groups:
            for layer in range(model.num_codes):
                s_vectors = np.stack([st.codes[layer, model.prior.num_attrs :] for st in group])
                terms.append(contrastive_loss(s_vectors, normalize=True))
        expected = mean_nll + np.mean(terms)
        assert batch_total(model, groups, cfg) == pytest.approx(expected, abs=1e-9)

    def test_mixed_identity_group_rejected(self):
        model = identity_model()
        rng = np.random.default_rng(8)
        bad_group = [make_stack(rng, model, 0, 0), make_stack(rng, model, 1, 0)]
        with pytest.raises(DimensionError):
            batch_total(model, [bad_group], LossConfig(prior=model.prior))

    def test_group_permutation_leaves_value_unchanged(self):
        model = identity_model()
        rng = np.random.default_rng(9)
        group = [make_stack(rng, model, 0, i) for i in range(5)]
        cfg = LossConfig(prior=model.prior)
        a = batch_total(model, [group], cfg)
        b = batch_total(model, [list(reversed(group))], cfg)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("perturb", [0.0, 0.1], ids=["identity_init", "perturbed"])
    def test_gradient_matches_finite_differences(self, perturb):
        # at identity init the zeroed final net layers make many hidden
        # gradients structurally zero; both routes must agree there too
        model = identity_model()
        rng = np.random.default_rng(10)
        if perturb:
            for p in model.parameters():
                p.data = p.data + perturb * rng.normal(size=p.data.shape)
        groups = [[make_stack(rng, model, 0, i) for i in range(2)]]
        cfg = LossConfig(prior=model.prior, lambda_contrastive=1.0)

        def loss(_):
            total, _, _ = batch_loss_graph(model, groups, cfg)
            return total

        g = gradient(loss, model.parameters())
        fd = finite_diff_gradient(loss, model.parameters(), step=1e-5)
        err = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
        assert err.max() <= 1e-4

    @pytest.mark.parametrize(
        "lam, normalize", [(1.0, False), (0.0, True), (1.0, True)], ids=["unnormalized", "lambda_zero", "normalized"]
    )
    def test_gradient_matches_finite_differences_on_mixed_group_sizes(self, lam, normalize):
        # groups of 7, 1 and 3 frames; the singleton's contrastive weight is 0
        model = identity_model()
        rng = np.random.default_rng(11)
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
        groups = [[make_stack(rng, model, gid, i) for i in range(size)] for gid, size in enumerate((7, 1, 3))]
        cfg = LossConfig(prior=model.prior, lambda_contrastive=lam, normalize_groups=normalize)

        def loss(_):
            total, _, _ = batch_loss_graph(model, groups, cfg)
            return total

        g = gradient(loss, model.parameters())
        fd = finite_diff_gradient(loss, model.parameters(), step=1e-5)
        err = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
        assert err.max() <= 1e-4

    def test_loss_records_one_tape_node(self):
        model = identity_model()
        rng = np.random.default_rng(12)
        groups = [[make_stack(rng, model, 0, i) for i in range(3)], [make_stack(rng, model, 1, 0)]]
        total, nll_mean, contrast_mean = batch_loss_graph(model, groups, LossConfig(prior=model.prior))
        params = tuple(model.parameters())
        assert total._parents == params and all(not p._parents for p in params)
        assert not (nll_mean.requires_grad or contrast_mean.requires_grad)
        with no_grad():
            assert not batch_loss_graph(model, groups, LossConfig(prior=model.prior))[0].requires_grad

    def test_reproduces_the_tape_built_loss_on_a_v1_checkpoint(self):
        """tests/data/loss_grad_v1_small.json holds the loss values and the
        flat gradient the tape-built loss head gave for fixed batches on
        checkpoint_v1_small.json."""
        model = load_checkpoint(DATA / "checkpoint_v1_small.json").model
        ref = json.loads((DATA / "loss_grad_v1_small.json").read_text())
        groups = [
            [StyleStack(np.array(r["codes"]), np.array(r["labels"]), r["identity_id"], r["frame_id"]) for r in g]
            for g in ref["groups"]
        ]
        assert [len(g) for g in groups] == [7, 1, 3]
        for case in ref["cases"]:
            cfg = LossConfig(
                prior=model.prior,
                lambda_contrastive=case["lambda_contrastive"],
                normalize_groups=case["normalize_groups"],
            )
            values = {}

            def loss(_):
                total, nll_mean, contrast_mean = batch_loss_graph(model, groups, cfg)
                values.update(total=total.item(), nll=nll_mean.item(), contrast=contrast_mean.item())
                return total

            g = gradient(loss, model.parameters())
            for key in ("total", "nll", "contrast"):
                assert abs(values[key] - case[key]) <= 1e-12 * abs(case[key])
            want = np.array(case["gradient"])
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()
