"""Autodiff, MLP, and Adam contracts; gradients checked against central
finite differences, the one binding oracle."""

import numpy as np
import pytest

from flowplug.errors import ConfigError, DimensionError, NumericError
from flowplug.numerics import (
    AdamConfig,
    AdamOptimizer,
    AdamState,
    Mlp,
    Tensor,
    adam_step,
    finite_diff_gradient,
    flatten_arrays,
    gradient,
    init_mlp,
    parameter,
)
from flowplug.numerics import autodiff as ad


# The floor makes the check |a-b| <= 1e-4*max(|a|,|b|,floor): entries below
# the floor are held to an absolute 1e-8, which is still an order of
# magnitude above the FD oracle's own roundoff noise (eps*|loss|/step).
def rel_err(a, b, floor=1e-4):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


class TestMlpApply:
    def test_identity_layer(self):
        net = Mlp(weights=[parameter(np.eye(2))], biases=[parameter(np.zeros(2))])
        assert np.array_equal(net.forward(np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_scaled_layer_with_bias(self):
        net = Mlp(weights=[parameter(2.0 * np.eye(2))], biases=[parameter(np.ones(2))])
        assert np.array_equal(net.forward(np.array([[1.0, 2.0]])), [[3.0, 5.0]])

    def test_all_zero_annihilates(self):
        net = Mlp(weights=[parameter(np.zeros((3, 4)))], biases=[parameter(np.zeros(4))])
        assert np.array_equal(net.forward(np.array([[5.0, -1.0, 2.0]])), np.zeros((1, 4)))

    def test_dimension_mismatch_rejected(self):
        net = init_mlp([3, 4], np.random.default_rng(0))
        with pytest.raises(DimensionError):
            net.forward(np.zeros((1, 5)))

    def test_two_layer_closed_form(self):
        # hidden pre-activations [1, -2] -> leaky ReLU [1, -0.02] -> sum
        net = Mlp(
            weights=[parameter(np.array([[1.0, -2.0]])), parameter(np.ones((2, 1)))],
            biases=[parameter(np.zeros(2)), parameter(np.array([0.5]))],
        )
        kept = []
        assert np.array_equal(net.forward(np.array([[1.0]]), kept), [[1.0 - 0.02 + 0.5]])
        g_w0, g_b0, g_w1, g_b1 = net.backward(np.array([[1.0]]), kept)
        assert np.array_equal(g_w0, [[1.0, 0.01]]) and np.array_equal(g_b0, [1.0, 0.01])
        assert np.array_equal(g_w1, [[1.0], [-0.02]]) and np.array_equal(g_b1, [1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        net = init_mlp([4, 8, 2], rng)
        x = rng.normal(size=(3, 4))
        a = net.forward(x)
        b = net.forward(x)
        assert np.array_equal(a, b)

    def test_chain_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Mlp(
                weights=[parameter(np.zeros((3, 4))), parameter(np.zeros((5, 2)))],
                biases=[parameter(np.zeros(4)), parameter(np.zeros(2))],
            )

    def test_non_finite_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(NumericError):
            Mlp(weights=[parameter(w)], biases=[parameter(np.zeros(2))])


class TestGradient:
    def test_square(self):
        p = parameter(np.array([3.0]))
        g = gradient(lambda _: ad.asum(p * p), [p])
        assert g == pytest.approx([6.0], abs=1e-12)

    def test_constant(self):
        p = parameter(np.array([3.0, -1.0]))
        g = gradient(lambda _: Tensor(np.array(7.0)) * 1.0, [p])
        assert np.array_equal(g, np.zeros(2))

    def test_non_finite_rejected(self):
        p = parameter(np.array([1000.0]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            gradient(lambda _: ad.asum(ad.exp(p * p)), [p])

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_finite_differences_random_mlps(self, seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 17)) for _ in range(depth + 1)]
        net = init_mlp(dims, rng)
        for p in net.parameters():
            p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
        x = rng.normal(size=(3, dims[0]))
        t = rng.normal(size=(3, dims[-1]))
        scale = 1.0 / (3 * dims[-1])

        def loss(_):
            return Tensor(np.sum((net.forward(x) - t) ** 2) * scale)

        kept = []
        g = flatten_arrays(net.backward((net.forward(x, kept) - t) * (2.0 * scale), kept))
        fd = finite_diff_gradient(loss, net.parameters(), step=1e-5)
        assert rel_err(g, fd).max() <= 1e-4

    def test_nontrivial_graph_ops(self):
        rng = np.random.default_rng(7)
        a = parameter(rng.normal(size=(4, 6)))

        def f(_):
            left = ad.take_cols(a, np.array([0, 2, 4]))
            right = ad.take_cols(a, np.array([1, 3, 5]))
            h = ad.concat_cols([left, Tensor(np.ones((4, 2)))])
            s = 2.0 * ad.tanh(ad.asum(h, axis=1) / 2.0)
            y = right * ad.exp(s.sum() * 0.01) - ad.leaky_relu(right, 0.01)
            return ad.asum(y * y)

        g = gradient(f, [a])
        fd = finite_diff_gradient(f, [a])
        assert rel_err(g, fd).max() <= 1e-4

    def test_leaky_relu_matches_the_where_formula(self):
        rng = np.random.default_rng(8)
        a0 = np.concatenate([rng.normal(size=40), [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324]])
        g0 = rng.normal(size=a0.size)
        g0[:2] = [-0.0, 0.0]
        for slope in (0.01, 0.0, 1.0):
            a = parameter(a0)
            out = ad.leaky_relu(a, slope)
            ad.backward(ad.asum(out * Tensor(g0)))
            want = np.where(a0 > 0.0, a0, slope * a0)
            want_grad = g0 * np.where(a0 > 0.0, 1.0, slope)
            for got, ref in ((out.data, want), (a.grad, want_grad)):
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))
        with np.errstate(invalid="ignore"):
            assert np.isnan(ad.leaky_relu(parameter(np.array([np.nan])), 0.01).data[0])
        with pytest.raises(ConfigError):
            ad.leaky_relu(parameter(a0), 1.5)

    def test_backward_requires_scalar(self):
        p = parameter(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            ad.backward(p + p)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = [np.array([1.0, -2.0])]
        state = AdamState.init(params)
        new_p, new_state = adam_step(params, [np.zeros(2)], state, AdamConfig())
        assert np.array_equal(new_p[0], params[0])
        assert new_state.step == 1

    def test_moments_decay_toward_zero(self):
        params = [np.array([1.0])]
        state = AdamState(step=1, m=[np.array([0.4])], v=[np.array([0.2])])
        _, state = adam_step(params, [np.zeros(1)], state, AdamConfig())
        assert state.m[0][0] == pytest.approx(0.36)
        assert state.v[0][0] == pytest.approx(0.1998)

    def test_first_step_closed_form(self):
        # hand-evaluated: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps)
        params = [np.array([1.0])]
        new_p, _ = adam_step(params, [np.array([0.5])], AdamState.init(params), AdamConfig())
        assert new_p[0][0] == pytest.approx(0.99900000002, abs=1e-14)

    def test_two_steps_monotone_against_gradient_sign(self):
        params = [np.array([1.0, -1.0])]
        g = [np.array([0.3, -0.7])]
        state = AdamState.init(params)
        p1, state = adam_step(params, g, state, AdamConfig())
        p2, _ = adam_step(p1, g, state, AdamConfig())
        assert p2[0][0] < p1[0][0] < params[0][0]
        assert p2[0][1] > p1[0][1] > params[0][1]

    def test_non_finite_gradient_rejected(self):
        params = [np.array([1.0])]
        with pytest.raises(NumericError):
            adam_step(params, [np.array([np.nan])], AdamState.init(params), AdamConfig())

    def test_length_mismatch_rejected(self):
        params = [np.array([1.0])]
        with pytest.raises(DimensionError):
            adam_step(params, [np.zeros(1), np.zeros(1)], AdamState.init(params), AdamConfig())

    def test_optimizer_is_bit_identical_to_adam_step(self):
        rng = np.random.default_rng(9)
        cfg = AdamConfig(lr=0.01)
        params = [parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=5))]
        arrays = [p.data.copy() for p in params]
        opt = AdamOptimizer(params, cfg)
        buffers = [p.data for p in params]
        state = AdamState.init(arrays)
        ref_p = [a.copy() for a in arrays]
        ref_m = [np.zeros_like(a) for a in arrays]
        ref_v = [np.zeros_like(a) for a in arrays]
        for t in range(1, 4):
            grads = [rng.normal(size=a.shape) for a in arrays]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            arrays, state = adam_step(arrays, grads, state, cfg)
            # the textbook expressions, evaluated out of place
            c1, c2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
            for i, g in enumerate(grads):
                ref_m[i] = cfg.beta1 * ref_m[i] + (1.0 - cfg.beta1) * g
                ref_v[i] = cfg.beta2 * ref_v[i] + (1.0 - cfg.beta2) * g * g
                ref_p[i] = ref_p[i] - cfg.lr * (ref_m[i] / c1) / (np.sqrt(ref_v[i] / c2) + cfg.eps)
            for p, a, ref, buf in zip(params, arrays, ref_p, buffers):
                assert p.data is buf  # updated in place
                assert np.array_equal(p.data, a) and np.array_equal(a, ref)
            for ours, functional, ref in zip(opt.state.m + opt.state.v, state.m + state.v, ref_m + ref_v):
                assert np.array_equal(ours, functional) and np.array_equal(functional, ref)
        assert opt.state.step == state.step == 3

    def test_optimizer_rejects_non_finite_gradient_before_any_update(self):
        params = [parameter(np.array([1.0, 2.0])), parameter(np.array([3.0]))]
        opt = AdamOptimizer(params)
        params[0].grad = np.array([0.5, 0.5])
        params[1].grad = np.array([np.nan])
        with pytest.raises(NumericError):
            opt.step()
        assert np.array_equal(params[0].data, [1.0, 2.0])
        assert opt.state.step == 0 and not np.any(opt.state.m[0])
