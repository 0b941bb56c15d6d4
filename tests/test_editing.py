"""Editing pipeline: latent surgicality, idempotence, and the gated
minimal-offset search."""

import numpy as np
import pytest

from flowplug.editing import (
    EditRequest,
    edit_attribute,
    interpolate_attribute,
    minimal_edit_batch,
    stack_latents,
)
from flowplug.errors import ConfigError
from flowplug.flow import FlowConfig, StyleStack, build_flow, latents_to_codes
from flowplug.prior import PriorConfig


def make_model(perturb=0.3, seed=0, num_attrs=2, latent_dim=6, num_codes=3):
    prior = PriorConfig(num_attrs=num_attrs, latent_dim=latent_dim, sigma=0.5)
    model = build_flow(prior, num_codes, FlowConfig(num_couplings=4, hidden_width=16), seed)
    if perturb:
        rng = np.random.default_rng(seed + 100)
        for p in model.parameters():
            p.data = p.data + perturb * rng.normal(size=p.data.shape)
    return model


def make_stack(model, seed=1):
    rng = np.random.default_rng(seed)
    return StyleStack(
        codes=rng.normal(size=(model.num_codes, model.code_dim)),
        labels=np.array([1.0] * model.prior.num_attrs),
        identity_id=0,
        frame_id=0,
    )


class SigmoidProbe:
    """Confidence is a logistic read of the mean code's attribute
    coordinate; strictly monotone in the edit offset for an identity flow."""

    def __init__(self, gain=1.0, center=0.0):
        self.gain = gain
        self.center = center

    def target_confidence(self, codes, attr_index, direction):
        score = codes.mean(axis=1)[:, attr_index]
        return 1.0 / (1.0 + np.exp(-self.gain * direction * (score - self.center * direction)))


@pytest.fixture(scope="module")
def trained_setup():
    """A properly converged small model; shared by the end-to-end edits."""
    from flowplug.losses import LossConfig
    from flowplug.synthetic import SyntheticConfig, generate_dataset
    from flowplug.training import TrainConfig, train

    cfg = SyntheticConfig(
        num_identities=30, frames_per_identity=10, num_attrs=2, code_dim=16, num_codes=2, identity_dim=6
    )
    ds = generate_dataset(cfg, seed=5)
    prior = PriorConfig(num_attrs=2, latent_dim=16, sigma=0.5)
    tc = TrainConfig(
        loss=LossConfig(prior=prior),
        flow=FlowConfig(num_couplings=4, hidden_width=64),
        epochs=60,
        frames_per_group=10,
        seed=0,
    )
    ckpt, _ = train(ds, tc)
    return ds, cfg, ckpt


class TestEditAttribute:
    def test_noop_edit_equals_round_trip(self):
        model = make_model()
        stack = make_stack(model)
        # build a stack whose attribute-0 latent is constant across layers
        z = stack_latents(model, stack)
        z[:, 0] = 0.7
        codes, _ = latents_to_codes(model, z, np.arange(model.num_codes))
        base = StyleStack(codes=codes, labels=stack.labels, identity_id=0, frame_id=0)
        edited = edit_attribute(model, base, EditRequest(attr_index=0, target=0.7))
        rel = np.abs(edited.codes - base.codes).max() / max(1.0, np.abs(base.codes).max())
        assert rel <= 1e-6

    def test_identity_flow_touches_exactly_one_coordinate(self):
        model = make_model(perturb=0.0)
        stack = make_stack(model)
        edited = edit_attribute(model, stack, EditRequest(attr_index=1, target=-1.0))
        diff = edited.codes != stack.codes
        assert np.all(diff[:, 1])
        assert not np.any(diff[:, [0, 2, 3, 4, 5]])
        assert np.all(edited.codes[:, 1] == -1.0)

    def test_latent_surgicality_bitwise(self):
        model = make_model()
        stack = make_stack(model)
        before = stack_latents(model, stack)
        edited = edit_attribute(model, stack, EditRequest(attr_index=0, target=2.5))
        after = stack_latents(model, edited)
        # inverse + forward round trip costs ~1e-12; coordinates other than
        # the target must come back unchanged to that accuracy
        assert np.abs(after[:, 1:] - before[:, 1:]).max() <= 1e-9
        assert np.abs(after[:, 0] - 2.5).max() <= 1e-9

    def test_idempotent_up_to_round_trip(self):
        model = make_model()
        stack = make_stack(model)
        req = EditRequest(attr_index=0, target=1.0)
        once = edit_attribute(model, stack, req)
        twice = edit_attribute(model, once, req)
        rel = np.abs(twice.codes - once.codes).max() / max(1.0, np.abs(once.codes).max())
        assert rel <= 2e-6

    def test_trained_model_moves_oracle_attribute(self, trained_setup):
        from flowplug.synthetic import backbone_invert, split_factors

        ds, cfg, ckpt = trained_setup

        def recovered(stack):
            """The oracle's factors for a stack, averaged over its layers."""
            return split_factors(backbone_invert(ds.backbone, stack.codes[None])[0].mean(axis=0), cfg)

        moved, id_drift = [], []
        for idx in range(12):
            stack = ds.stacks[idx]
            before = recovered(stack)
            target = -stack.labels[0]
            after = recovered(edit_attribute(ckpt.model, stack, EditRequest(attr_index=0, target=target)))
            moved.append((after.attrs[0] - before.attrs[0]) * np.sign(target - before.attrs[0]))
            id_drift.append(np.mean((after.identity_emb - before.identity_emb) ** 2))
        assert min(moved) > 0  # every edit moved the attribute toward the target
        assert np.mean(moved) > 1.0
        assert np.mean(id_drift) < np.mean(np.square(moved))  # identity moved much less

    def test_step_search_mode_rejected_here(self):
        model = make_model()
        with pytest.raises(ConfigError):
            edit_attribute(model, make_stack(model), EditRequest(attr_index=0, target=1.0, mode="step-search"))

    def test_bad_attr_index(self):
        model = make_model()
        with pytest.raises(ConfigError):
            edit_attribute(model, make_stack(model), EditRequest(attr_index=5, target=1.0))


class TestMinimalEdit:
    def test_zero_steps_when_already_confident(self):
        model = make_model(perturb=0.0)
        stack = make_stack(model)
        z = stack_latents(model, stack)
        z[:, 0] = 3.0  # far positive: sigmoid confidence ~ 1
        codes, _ = latents_to_codes(model, z, np.arange(model.num_codes))
        base = StyleStack(codes=codes, labels=stack.labels, identity_id=0, frame_id=0)
        result = minimal_edit_batch(model, [base], 0, 1, SigmoidProbe(gain=4.0), tau=0.8)[0]
        assert result.converged and result.steps_used == 0
        rel = np.abs(result.stack.codes - base.codes).max() / np.abs(base.codes).max()
        assert rel <= 1e-6

    def test_steps_match_exhaustive_scan(self):
        model = make_model(perturb=0.0)
        probe = SigmoidProbe(gain=3.0, center=0.5)
        tau, delta, max_steps = 0.9, 0.25, 40
        stack = make_stack(model, seed=3)
        z0 = stack_latents(model, stack)
        result = minimal_edit_batch(model, [stack], 0, 1, probe, tau=tau, delta=delta, max_steps=max_steps)[0]
        # independent scan over the same step grid (identity flow: the mean
        # code's coordinate equals the mean edited latent coordinate)
        expected = None
        for step in range(max_steps + 1):
            coord = z0[:, 0].mean() + step * delta
            conf = 1.0 / (1.0 + np.exp(-3.0 * (coord - 0.5)))
            if conf >= tau:
                expected = step
                break
        assert result.converged and result.steps_used == expected

    def test_impossible_threshold_not_converged(self):
        model = make_model()
        stack = make_stack(model)
        result = minimal_edit_batch(model, [stack], 0, 1, SigmoidProbe(), tau=1.0 + 1e-9, max_steps=7)[0]
        assert not result.converged
        assert result.steps_used == 7
        assert result.stack is not None

    def test_halved_delta_never_overshoots(self):
        model = make_model(perturb=0.0)
        probe = SigmoidProbe(gain=2.0, center=1.2)
        for seed in range(5):
            stack = make_stack(model, seed=seed)
            coarse = minimal_edit_batch(model, [stack], 0, 1, probe, tau=0.85, delta=0.5)[0]
            fine = minimal_edit_batch(model, [stack], 0, 1, probe, tau=0.85, delta=0.25)[0]
            assert fine.converged and coarse.converged
            assert fine.steps_used * 0.25 <= coarse.steps_used * 0.5

    def test_batch_matches_sequential(self):
        model = make_model()
        probe = SigmoidProbe(gain=2.0)
        stacks = [make_stack(model, seed=s) for s in range(6)]
        batch = minimal_edit_batch(model, stacks, 0, 1, probe, tau=0.9)
        for stack, got in zip(stacks, batch):
            solo = minimal_edit_batch(model, [stack], 0, 1, probe, tau=0.9)[0]
            assert solo.steps_used == got.steps_used
            assert solo.converged == got.converged
            # batched BLAS calls may differ from one-at-a-time in the last ulp
            scale = max(1.0, np.abs(solo.stack.codes).max())
            assert np.abs(solo.stack.codes - got.stack.codes).max() / scale <= 1e-12

    def test_direction_validated(self):
        model = make_model()
        with pytest.raises(ConfigError):
            minimal_edit_batch(model, [make_stack(model)], 0, 2, SigmoidProbe())


class TestInterpolate:
    def test_two_points_are_endpoints(self):
        model = make_model()
        stack = make_stack(model)
        path = interpolate_attribute(model, stack, 0, -1.0, 1.0, 2)
        lo = edit_attribute(model, stack, EditRequest(attr_index=0, target=-1.0))
        hi = edit_attribute(model, stack, EditRequest(attr_index=0, target=1.0))
        assert np.array_equal(path[0].codes, lo.codes)
        assert np.array_equal(path[1].codes, hi.codes)

    def test_odd_count_midpoint(self):
        model = make_model()
        stack = make_stack(model)
        path = interpolate_attribute(model, stack, 1, -2.0, 2.0, 5)
        mid = stack_latents(model, path[2])
        assert np.abs(mid[:, 1] - 0.0).max() <= 1e-9

    def test_probe_scores_monotone_along_path(self, trained_setup):
        from flowplug.evaluation import ProbeConfig, train_probe

        ds, _, ckpt = trained_setup
        probe = train_probe(ds, ProbeConfig(epochs=150, seed=0))
        monotone, total = 0, 0
        for idx in range(10):
            path = interpolate_attribute(ckpt.model, ds.stacks[idx], 0, -1.5, 1.5, 9)
            scores = probe.raw_scores(np.stack([st.codes for st in path]))[:, 0]
            for i in range(len(scores) - 2):
                total += 1
                monotone += scores[i] <= scores[i + 1] <= scores[i + 2]
        assert monotone / total >= 0.9

    def test_too_few_points_rejected(self):
        model = make_model()
        with pytest.raises(ConfigError):
            interpolate_attribute(model, make_stack(model), 0, 0.0, 1.0, 1)
