"""Coupling-layer and whole-flow contracts: identity initialization,
exact invertibility, and the change-of-variables log-determinant."""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplug import editing, flow
from flowplug.errors import ConfigError, DimensionError
from flowplug.flow import (
    CouplingLayer,
    FlowConfig,
    StyleStack,
    build_flow,
    codes_to_latents,
    latents_to_codes,
)
from flowplug.numerics import AdamOptimizer, Mlp, Tensor, finite_diff_gradient, flatten_arrays, parameter
from flowplug.prior import PriorConfig


def small_model(seed=0, num_couplings=4, latent_dim=6, num_codes=3, perturb=0.0):
    prior = PriorConfig(num_attrs=2, latent_dim=latent_dim, sigma=0.5)
    model = build_flow(prior, num_codes, FlowConfig(num_couplings=num_couplings, hidden_width=16), seed)
    if perturb:
        rng = np.random.default_rng(seed + 1)
        for p in model.parameters():
            p.data = p.data + perturb * rng.normal(size=p.data.shape)
    return model


def constant_scale_layer(code_dim=6, log_scale=np.log(2.0), shift=0.0):
    """Nets with zero weights and a constant output bias; a huge clamp makes
    the soft clamp numerically transparent."""
    parity = 0
    n_pass = (code_dim + 1) // 2
    n_trans = code_dim - n_pass
    cond_dim = 2

    def const_net(value):
        return Mlp(
            weights=[parameter(np.zeros((n_pass + cond_dim, n_trans)))],
            biases=[parameter(np.full(n_trans, value))],
        )

    return CouplingLayer(parity, const_net(log_scale), const_net(shift), scale_clamp=1e8, code_dim=code_dim)


def packed(x):
    """Rows ``[x | 0]``: the coupling core carries the running logdet as an
    extra last column."""
    return np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)


class TestCouplingLayer:
    def test_zero_init_is_identity(self):
        model = small_model()
        x = np.random.default_rng(0).normal(size=(1, 6))
        out = flow._forward_rows(model.layers[0], packed(x), np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(out[:, :-1], x)
        assert out[0, -1] == 0.0

    def test_constant_scale_doubles_transformed_half(self):
        layer = constant_scale_layer()
        x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        out = flow._forward_rows(layer, packed(x), np.zeros((1, 2)))
        # even coordinates pass through, odd are doubled
        assert np.allclose(out[0, :-1], [1.0, 4.0, 3.0, 8.0, 5.0, 12.0], atol=1e-9)
        assert out[0, -1] == pytest.approx(2.0794415416798357, abs=1e-9)

    def test_constant_scale_inverse_halves(self):
        layer = constant_scale_layer()
        y = np.array([[1.0, 4.0, 3.0, 8.0, 5.0, 12.0]])
        x, _ = flow._inverse_rows(layer, y, np.zeros((1, 2)))
        assert np.allclose(x[0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], atol=1e-9)

    def test_round_trip_random_inputs(self):
        model = small_model(perturb=0.3)
        rng = np.random.default_rng(5)
        layer = model.layers[1]
        x = rng.normal(size=(1000, 6)) * 2
        cond = np.eye(3)[rng.integers(0, 3, size=1000)]
        y = flow._forward_rows(layer, packed(x), cond)[:, :-1]
        back, _ = flow._inverse_rows(layer, y, cond)
        assert np.abs(back - x).max() <= 1e-9

    def test_dimension_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(DimensionError):
            codes_to_latents(model, np.zeros((1, 5)), np.array([0]))
        with pytest.raises(DimensionError):
            latents_to_codes(model, np.zeros((1, 7)), np.array([0]))
        with pytest.raises(DimensionError):
            codes_to_latents(model, np.zeros(6), np.array([0]))


class TestToLatent:
    def test_identity_at_init_splits_raw_code(self):
        model = small_model()
        w = np.array([[0.5, -1.0, 2.0, 0.1, -0.3, 0.9]])
        z, logdet = codes_to_latents(model, w, np.array([1]))
        assert np.array_equal(z, w)
        assert logdet[0] == 0.0

    def test_logdet_matches_finite_difference_jacobian(self):
        model = small_model(perturb=0.25)
        rng = np.random.default_rng(2)
        for layer_index in range(3):
            x0 = rng.normal(size=6)
            h = 1e-6
            jac = np.zeros((6, 6))
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                zp, _ = codes_to_latents(model, (x0 + e)[None, :], np.array([layer_index]))
                zm, _ = codes_to_latents(model, (x0 - e)[None, :], np.array([layer_index]))
                jac[:, j] = (zp[0] - zm[0]) / (2 * h)
            sign, fd_logdet = np.linalg.slogdet(jac)
            _, logdet = codes_to_latents(model, x0[None, :], np.array([layer_index]))
            assert sign == 1.0
            assert abs(logdet[0] - fd_logdet) <= 1e-4

    def test_distinct_conditions_give_distinct_maps_after_training(self):
        from flowplug.losses import LossConfig
        from flowplug.synthetic import SyntheticConfig, generate_dataset
        from flowplug.training import TrainConfig, train

        cfg = SyntheticConfig(
            num_identities=6, frames_per_identity=4, num_attrs=2, code_dim=8, num_codes=2, identity_dim=4
        )
        ds = generate_dataset(cfg, seed=3)
        prior = PriorConfig(num_attrs=2, latent_dim=8, sigma=0.5)
        tc = TrainConfig(
            loss=LossConfig(prior=prior),
            flow=FlowConfig(num_couplings=2, hidden_width=8),
            epochs=2,
            seed=1,
        )
        ckpt, _ = train(ds, tc)
        w = np.random.default_rng(4).normal(size=(10, 8))
        z0, _ = codes_to_latents(ckpt.model, w, np.zeros(10, dtype=int))
        z1, _ = codes_to_latents(ckpt.model, w, np.ones(10, dtype=int))
        assert np.abs(z0 - z1).max() > 1e-6

    def test_layer_index_out_of_range(self):
        model = small_model()
        with pytest.raises(DimensionError):
            codes_to_latents(model, np.zeros((1, 6)), np.array([3]))
        with pytest.raises(DimensionError):
            latents_to_codes(model, np.zeros((1, 6)), np.array([-1]))


class TestToStyle:
    def test_round_trip_all_layers_many_codes(self):
        for perturb in (0.0, 0.3):
            model = small_model(perturb=perturb)
            rng = np.random.default_rng(8)
            w = rng.normal(size=(1000, 6)) * 3
            for layer_index in range(3):
                idx = np.full(1000, layer_index)
                z, _ = codes_to_latents(model, w, idx)
                back, _ = latents_to_codes(model, z, idx)
                rel = np.abs(back - w).max() / np.abs(w).max()
                assert rel <= 1e-6

    def test_identity_init_concatenates(self):
        model = small_model()
        c, s = np.array([1.0, -2.0]), np.array([0.1, 0.2, 0.3, 0.4])
        codes, logdet = latents_to_codes(model, np.concatenate([c, s])[None, :], np.array([0]))
        assert np.array_equal(codes[0], np.concatenate([c, s]))
        assert logdet[0] == 0.0

    def test_inverse_logdet_negates_forward(self):
        model = small_model(perturb=0.4)
        rng = np.random.default_rng(11)
        w = rng.normal(size=(100, 6))
        idx = rng.integers(0, 3, size=100)
        z, ld = codes_to_latents(model, w, idx)
        _, ld_inv = latents_to_codes(model, z, idx)
        assert np.abs(ld + ld_inv).max() <= 1e-8


class TestInvariants:
    def test_logdet_bounded_by_clamp(self):
        model = small_model(perturb=50.0)  # exaggerated weights saturate the clamp
        rng = np.random.default_rng(12)
        w = rng.normal(size=(200, 6)) * 5
        _, ld = codes_to_latents(model, w, rng.integers(0, 3, size=200))
        bound = 6 * model.flow_config.scale_clamp * len(model.layers)
        assert np.abs(ld).max() <= bound

    def test_mask_alternation_required(self):
        prior = PriorConfig(num_attrs=2, latent_dim=6, sigma=0.5)
        with pytest.raises(ConfigError):
            build_flow(prior, 2, FlowConfig(num_couplings=1), seed=0)

    def test_stack_shape_validation(self):
        with pytest.raises(DimensionError):
            StyleStack(codes=np.zeros(6), labels=np.zeros(2), identity_id=0, frame_id=0)


class TestFusedCoupling:
    """The hand-differentiated coupling node against its oracles."""

    @staticmethod
    def saturated_model(seed=0):
        # odd latent_dim: parity-0 couplings pass 4 coordinates and transform
        # 3, parity-1 couplings the reverse; a small clamp and a scaled-up
        # final scale layer push most of s into the saturated part of the clamp
        prior = PriorConfig(num_attrs=2, latent_dim=7, sigma=0.5)
        model = build_flow(prior, 3, FlowConfig(num_couplings=3, hidden_width=8, scale_clamp=0.5), seed)
        rng = np.random.default_rng(seed + 1)
        for p in model.parameters():
            p.data = p.data + 0.4 * rng.normal(size=p.data.shape)
        for layer in model.layers:
            for p in (layer.scale_net.weights[-1], layer.scale_net.biases[-1]):
                p.data = 3.0 * p.data
        return model

    @staticmethod
    def rows(num, seed=4):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 3, size=num)
        return rng.normal(size=(num, 7)), idx, np.eye(3)[idx]

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        model = self.saturated_model(seed)
        x, _, cond = self.rows(6)
        layer = model.layers[0]
        s, _ = flow._scale_shift(layer, x[:, layer.pass_idx], cond)
        assert np.mean(np.abs(s) > 0.9 * layer.scale_clamp) >= 0.5
        rng = np.random.default_rng(5)
        wz = rng.normal(size=(6, 7))
        wl = rng.normal(size=6)

        def loss(_):
            state = flow.packed_forward(model, x, cond)
            return Tensor(np.sum(state[:, :-1] ** 2 * wz) * 0.1 + np.sum(state[:, -1] * wl))

        kept = []
        state = flow.packed_forward(model, x, cond, kept)
        g_state = np.concatenate([0.2 * state[:, :-1] * wz, wl[:, None]], axis=1)
        g = flatten_arrays(flow.packed_backward(model, g_state, cond, kept))
        fd = finite_diff_gradient(loss, model.parameters(), step=1e-5)
        err = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
        assert err.max() <= 1e-4

    def test_graph_forward_equals_inference_forward_exactly(self):
        model = self.saturated_model()
        x, idx, cond = self.rows(50)
        z, logdet = codes_to_latents(model, x, idx)
        kept = []
        state = flow.packed_forward(model, x, cond, kept)
        assert len(kept) == len(model.layers)
        assert np.array_equal(state[:, :-1], z) and np.array_equal(state[:, -1], logdet)

    def test_inverse_round_trip_within_1e_12(self):
        model = self.saturated_model()
        x, idx, _ = self.rows(200)
        z, _ = codes_to_latents(model, x, idx)
        back, _ = latents_to_codes(model, z, idx)
        assert np.abs(back - x).max() / np.abs(x).max() <= 1e-12

    def test_in_place_parameter_updates_are_seen(self):
        """Stacked first-layer weights are derived per call, never cached:
        in-place changes (Adam's, or finite differences') take effect."""
        model = small_model(perturb=0.3)
        x, idx, cond = self.rows(20, seed=7)
        x = x[:, :6]
        before, _ = codes_to_latents(model, x, idx)
        model.layers[0].shift_net.weights[0].data[-1, :] += 0.5  # a condition row
        model.layers[1].scale_net.biases[0].data[:] -= 0.5
        after, _ = codes_to_latents(model, x, idx)
        fresh, _ = codes_to_latents(copy.deepcopy(model), x, idx)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, fresh)

        opt = AdamOptimizer(model.parameters())
        params_before = [p.data for p in model.parameters()]
        opt.zero_grad()
        kept = []
        state = flow.packed_forward(model, x, cond, kept)
        g_state = np.concatenate([2.0 * state[:, :-1], np.ones((x.shape[0], 1))], axis=1)
        for p, g in zip(model.parameters(), flow.packed_backward(model, g_state, cond, kept)):
            p.grad = g
        opt.step()
        assert all(p.data is a for p, a in zip(model.parameters(), params_before))
        stepped, _ = codes_to_latents(model, x, idx)
        assert not np.array_equal(stepped, after)
        assert np.array_equal(stepped, codes_to_latents(copy.deepcopy(model), x, idx)[0])


@st.composite
def flow_cases(draw):
    """A small perturbed flow, 1-17 code rows with random layer indices, and
    a mask parity: odd and even code_dim give unequal and equal halves."""
    num_codes = draw(st.integers(min_value=1, max_value=4))
    code_dim = draw(st.integers(min_value=2, max_value=7))
    batch = draw(st.integers(min_value=1, max_value=17))
    parity = draw(st.sampled_from([0, 1]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    prior = PriorConfig(num_attrs=1, latent_dim=code_dim, sigma=0.5)
    model = build_flow(prior, num_codes, FlowConfig(num_couplings=3, hidden_width=6), seed)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
    x = rng.normal(size=(batch, code_dim)) * 2
    idx = rng.integers(0, num_codes, size=batch)
    return model, x, idx, parity


def fd_logdet(fn, x, h=1e-6):
    """Per-row log|det| of the central-difference Jacobian of a row-wise map."""
    n = x.shape[1]
    jac = np.zeros((x.shape[0], n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, :, j] = (fn(x + e) - fn(x - e)) / (2 * h)
    return np.linalg.slogdet(jac)


class TestBatchedCoreProperties:
    """Properties of the batched core over random shapes; together with the
    fixed cases above they hold what the single-vector helpers once did."""

    @settings(max_examples=25, deadline=None)
    @given(case=flow_cases())
    def test_round_trip_within_1e_12(self, case):
        model, x, idx, parity = case
        scale = max(1.0, np.abs(x).max())
        z, _ = codes_to_latents(model, x, idx)
        back, _ = latents_to_codes(model, z, idx)
        assert np.abs(back - x).max() <= 1e-12 * scale
        layer, cond = model.layers[parity], np.eye(model.num_codes)[idx]
        assert layer.mask_parity == parity
        y = flow._forward_rows(layer, packed(x), cond)[:, :-1]
        back, _ = flow._inverse_rows(layer, y, cond)
        assert np.abs(back - x).max() <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(case=flow_cases())
    def test_forward_logdet_matches_finite_difference_jacobian(self, case):
        model, x, idx, parity = case
        _, logdet = codes_to_latents(model, x, idx)
        sign, fd = fd_logdet(lambda rows: codes_to_latents(model, rows, idx)[0], x)
        assert np.all(sign == 1.0)
        assert np.abs(logdet - fd).max() <= 1e-4
        layer, cond = model.layers[parity], np.eye(model.num_codes)[idx]
        out = flow._forward_rows(layer, packed(x), cond)
        sign, fd = fd_logdet(lambda rows: flow._forward_rows(layer, packed(rows), cond)[:, :-1], x)
        assert np.all(sign == 1.0)
        assert np.abs(out[:, -1] - fd).max() <= 1e-4

    @settings(max_examples=25, deadline=None)
    @given(case=flow_cases())
    def test_inverse_logdet_negates_forward(self, case):
        model, x, idx, _ = case
        z, logdet = codes_to_latents(model, x, idx)
        _, inv_logdet = latents_to_codes(model, z, idx)
        assert np.abs(logdet + inv_logdet).max() <= 1e-10 * max(1.0, np.abs(logdet).max())

    @settings(max_examples=25, deadline=None)
    @given(case=flow_cases(), target=st.floats(min_value=-3.0, max_value=3.0))
    def test_absolute_edit_keeps_other_latent_columns_bitwise(self, case, target):
        model, x, _, _ = case
        k = model.num_codes
        stack = StyleStack(codes=np.resize(x, (k, x.shape[1])), labels=np.ones(1), identity_id=0, frame_id=0)
        before, _ = codes_to_latents(model, stack.codes, np.arange(k))
        with mock.patch.object(editing, "latents_to_codes", wraps=latents_to_codes) as spy:
            editing.edit_attribute(model, stack, editing.EditRequest(attr_index=0, target=target))
        decoded = spy.call_args.args[1]
        assert np.array_equal(decoded[:, 1:], before[:, 1:])
        assert np.all(decoded[:, 0] == target)
