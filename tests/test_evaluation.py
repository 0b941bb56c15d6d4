"""Probe training, Spearman rank correlation, and the three edit
protocols, checked against oracles and degenerate constructions."""

import json
import multiprocessing
import os
import signal
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from flowplug import blas, evaluation
from flowplug.editing import batch_latents
from flowplug.errors import ConfigError, DatasetError, DimensionError, UndefinedResultError, WorkerError
from flowplug.evaluation import (
    EvalConfig,
    ProbeConfig,
    accuracy_protocol,
    edit_sweep,
    evaluate_dataset,
    identity_drift,
    rank_protocol,
    run_evaluation,
    save_report,
    spearman_rho,
    train_probe,
)
from flowplug.flow import FlowConfig, build_flow
from flowplug.numerics import finite_diff_gradient, init_mlp
from flowplug.prior import PriorConfig
from flowplug.synthetic import (
    MockBackbone,
    SyntheticConfig,
    SyntheticDataset,
    backbone_generate,
    generate_dataset,
)
from oracles import flat_views_in_order


def identity_backbone(cfg: SyntheticConfig) -> MockBackbone:
    eye = np.stack([np.eye(cfg.code_dim)] * cfg.num_codes)
    return MockBackbone(mix=eye, mix_inv=eye.copy(), bias=np.zeros((cfg.num_codes, cfg.code_dim)), seed=0)


def identity_dataset(cfg: SyntheticConfig, seed: int) -> SyntheticDataset:
    """Like generate_dataset but mixed through the identity backbone, so
    attributes are literal code coordinates."""
    base = generate_dataset(cfg, seed)
    backbone = identity_backbone(cfg)
    codes = backbone_generate(backbone, base.factors)
    for stack, frame_codes in zip(base.stacks, codes):
        stack.codes = frame_codes
    base.backbone = backbone
    return base


DATA = Path(__file__).parent / "data"

SMALL = SyntheticConfig(
    num_identities=40, frames_per_identity=10, num_attrs=3, code_dim=12, num_codes=2, identity_dim=5
)


class TestSpearman:
    def test_identical_rankings(self):
        a = np.array([3.1, 0.2, 7.7])
        assert spearman_rho(a, a.copy()) == 1.0

    def test_reversed_ranking(self):
        a = np.arange(5.0)
        assert spearman_rho(a, a[::-1].copy()) == pytest.approx(-1.0, abs=1e-15)

    def test_single_swap(self):
        assert spearman_rho(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0])) == pytest.approx(0.5)

    def test_all_permutations_match_rank_pearson_oracle(self):
        import itertools

        for n in range(2, 8):
            base = np.arange(1.0, n + 1)
            for perm in itertools.permutations(range(n)):
                b = base[list(perm)]
                ours = spearman_rho(base, b)
                oracle = np.corrcoef(sstats.rankdata(base), sstats.rankdata(b))[0, 1]
                assert abs(ours - oracle) <= 1e-12

    def test_ties_match_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            a = np.round(rng.normal(size=n), 1)  # coarse values force ties
            b = np.round(rng.normal(size=n), 1)
            if np.unique(a).size < 2 or np.unique(b).size < 2:
                continue
            assert spearman_rho(a, b) == pytest.approx(sstats.spearmanr(a, b).statistic, abs=1e-12)

    def test_errors(self):
        with pytest.raises(UndefinedResultError):
            spearman_rho(np.array([1.0]), np.array([2.0]))
        with pytest.raises(UndefinedResultError):
            spearman_rho(np.ones(5), np.arange(5.0))
        with pytest.raises(DimensionError):
            spearman_rho(np.arange(4.0), np.arange(5.0))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 10.0), shift=st.floats(-5.0, 5.0))
    def test_invariant_under_strictly_increasing_transforms(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        base = spearman_rho(a, b)
        assert spearman_rho(scale * a + shift, b) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(np.exp(a / 4.0), b) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(b, a) == pytest.approx(spearman_rho(a, b), abs=1e-15)
        assert -1.0 <= base <= 1.0


class TestProbe:
    def test_linear_probe_on_identity_backbone(self):
        ds = identity_dataset(SMALL, seed=1)
        probe = train_probe(ds, ProbeConfig(hidden=(), epochs=400, seed=0))
        assert probe.holdout_accuracy.min() >= 0.99

    def test_default_probe_on_mixed_dataset(self):
        ds = generate_dataset(SMALL, seed=2)
        probe = train_probe(ds, ProbeConfig(seed=0))
        assert probe.holdout_accuracy.min() >= 0.95

    def test_shuffled_labels_give_chance_accuracy(self):
        ds = generate_dataset(SyntheticConfig(num_identities=100, frames_per_identity=10), seed=3)
        rng = np.random.default_rng(0)
        labels = np.stack([st.labels for st in ds.stacks])
        for j in range(labels.shape[1]):
            labels[:, j] = labels[rng.permutation(labels.shape[0]), j]
        for stack, row in zip(ds.stacks, labels):
            stack.labels = row
        shuffled = SyntheticDataset(stacks=ds.stacks, config=ds.config, seed=ds.seed, label_stats=ds.label_stats)
        probe = train_probe(shuffled, ProbeConfig(epochs=120, holdout_fraction=0.3, seed=1))
        assert abs(probe.holdout_accuracy.mean() - 0.5) <= 0.05
        assert np.all(np.abs(probe.holdout_accuracy - 0.5) <= 0.12)

    def test_single_class_attribute_rejected(self):
        ds = generate_dataset(SMALL, seed=4)
        for stack in ds.stacks:
            stack.labels = stack.labels.copy()
            stack.labels[0] = 1.0
        with pytest.raises(DatasetError):
            train_probe(ds, ProbeConfig(seed=0))

    def test_deterministic(self):
        ds = generate_dataset(SMALL, seed=5)
        a = train_probe(ds, ProbeConfig(epochs=30, seed=7))
        b = train_probe(ds, ProbeConfig(epochs=30, seed=7))
        assert np.array_equal(a.holdout_accuracy, b.holdout_accuracy)
        for wa, wb in zip(a.net.parameters(), b.net.parameters()):
            assert np.array_equal(wa.data, wb.data)

    def test_reproduces_the_probe_trained_by_v1_code(self):
        """tests/data/probe_v1_small.json holds a probe trained by the
        tape-built probe step (one ``_probe_loss`` node and one Adam state
        per array); the flat step trains the same probe, bit for bit."""
        ref = json.loads((DATA / "probe_v1_small.json").read_text())
        ds_cfg = {**ref["dataset_config"], "attr_kinds": tuple(ref["dataset_config"]["attr_kinds"])}
        ds = generate_dataset(SyntheticConfig(**ds_cfg), ref["dataset_seed"])
        probe_cfg = {**ref["probe_config"], "hidden": tuple(ref["probe_config"]["hidden"])}
        probe = train_probe(ds, ProbeConfig(**probe_cfg))
        assert probe.attr_kinds == ("binary", "continuous", "binary")
        for ours, want in zip(probe.net.weights + probe.net.biases, ref["weights"] + ref["biases"]):
            assert np.array_equal(ours.data, np.array(want))
        for name in ("input_mean", "input_std", "label_mean", "label_std", "holdout_accuracy"):
            assert np.array_equal(getattr(probe, name), np.array(ref[name]))
        calibration = np.array([[np.nan if v is None else v for v in row] for row in ref["calibration"]])
        assert np.array_equal(probe.calibration, calibration, equal_nan=True)

    def test_each_batch_is_one_adam_step_over_one_flat_parameter(self, monkeypatch):
        """Every batch zeroes the gradient and takes one checked Adam step
        over a single parameter; the net's weights and biases are views of
        it, in ``parameters()`` order, so the step updates the net."""
        from flowplug.numerics import adam

        real_step, steps = adam.AdamOptimizer.step, []

        def recording(opt):
            steps.append((opt.params, [p.data.copy() for p in opt.params]))
            real_step(opt)

        monkeypatch.setattr(adam.AdamOptimizer, "step", recording)
        probe = train_probe(generate_dataset(SMALL, seed=5), ProbeConfig(epochs=2, batch_size=64, seed=0))
        assert len(steps) == 2 * 5  # 320 training rows in batches of 64
        flat = steps[0][0][0]
        assert all(params == [flat] for params, _ in steps)
        assert flat_views_in_order([p.data for p in probe.net.parameters()], flat.data)
        # the last step moved the net it returned
        assert not np.array_equal(steps[-1][1][0], flat.data)

    @pytest.mark.parametrize("hidden", [(), (7,), (6, 5)], ids=["linear", "one_hidden", "two_hidden"])
    def test_probe_gradient_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(len(hidden))
        net = init_mlp([5, *hidden, 3], rng)
        for p in net.parameters():
            p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
        x, y = rng.normal(size=(9, 5)), rng.normal(size=(9, 3))
        out = [np.full_like(p.data, np.nan) for p in net.parameters()]
        evaluation._probe_gradient(net, x, y, out)
        g = np.concatenate([a.ravel() for a in out])

        def row_mean_squared_error(_):
            d = net.forward(x) - y
            return np.sum(d * d) * (1.0 / y.shape[0])

        fd = finite_diff_gradient(row_mean_squared_error, net.parameters(), step=1e-5)
        assert (np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)).max() <= 1e-4

    def test_confidence_monotone_in_score(self):
        ds = identity_dataset(SMALL, seed=6)
        probe = train_probe(ds, ProbeConfig(hidden=(), epochs=120, seed=0))
        lo = ds.stacks[0].codes.copy()[None]
        hi = lo.copy()
        lo[0, :, 0] = -2.0
        hi[0, :, 0] = 2.0
        assert probe.target_confidence(hi, 0, 1) > probe.target_confidence(lo, 0, 1)
        assert probe.target_confidence(lo, 0, -1) > probe.target_confidence(hi, 0, -1)


def all_sweeps(model, probe, stacks):
    """One edit_sweep per (binary attribute, direction), as run_evaluation
    builds them, at the default tau, delta and max_steps."""
    attrs = [a for a, kind in enumerate(probe.attr_kinds) if kind == "binary"]
    latents = batch_latents(model, stacks)
    return {
        (a, d): edit_sweep(model, probe, stacks, a, d, 0.8, 0.25, 40, latents=latents)
        for a in attrs
        for d in (1, -1)
    }


@pytest.mark.usefixtures("hang_watchdog")
class TestProtocols:
    def make_trivial_setup(self):
        """Identity backbone + identity flow: fully disentangled by
        construction, so edits are exact coordinate overwrites."""
        ds = identity_dataset(SMALL, seed=7)
        prior = PriorConfig(num_attrs=SMALL.num_attrs, latent_dim=SMALL.code_dim, sigma=0.5)
        model = build_flow(prior, SMALL.num_codes, FlowConfig(num_couplings=2, hidden_width=8), seed=0)
        probe = train_probe(ds, ProbeConfig(hidden=(), epochs=400, seed=0))
        return ds, model, probe

    def test_trivial_setup_achieves_perfect_scores(self):
        ds, model, probe = self.make_trivial_setup()
        stacks = ds.stacks[:60]
        tables = accuracy_protocol(probe, stacks, all_sweeps(model, probe, stacks))
        off_diag = tables.retention[~np.isnan(tables.retention)]
        assert np.all(off_diag == 100.0)
        assert np.all(tables.modification == 100.0)
        assert np.all(tables.non_converged == 0)

    def make_coordinate_probe(self):
        """A probe whose scores are literally the first attribute
        coordinates of the mean code: zero cross-attribute weights."""
        from flowplug.evaluation import ProbeModel
        from flowplug.numerics import Mlp, parameter

        m, n = SMALL.num_attrs, SMALL.code_dim
        w = np.zeros((n, m))
        w[:m, :m] = np.eye(m)
        net = Mlp(weights=[parameter(w)], biases=[parameter(np.zeros(m))])
        return ProbeModel(
            net=net,
            input_mode="mean_code",
            input_mean=np.zeros(n),
            input_std=np.ones(n),
            label_mean=np.zeros(m),
            label_std=np.ones(m),
            attr_kinds=("binary",) * m,
            calibration=np.tile([8.0, 0.0], (m, 1)),
            holdout_accuracy=np.ones(m),
        )

    def test_rank_protocol_identity_construction_is_exact(self):
        ds, model, _ = self.make_trivial_setup()
        probe = self.make_coordinate_probe()
        tables = rank_protocol(probe, all_sweeps(model, probe, ds.stacks[:60]))
        off_diag = tables.spearman[~np.isnan(tables.spearman)]
        assert np.all(off_diag == 1.0)

    def test_noop_round_trip_keeps_rankings(self):
        ds, _, probe = self.make_trivial_setup()
        prior = PriorConfig(num_attrs=SMALL.num_attrs, latent_dim=SMALL.code_dim, sigma=0.5)
        model = build_flow(prior, SMALL.num_codes, FlowConfig(num_couplings=4, hidden_width=16), seed=3)
        rng = np.random.default_rng(4)
        for p in model.parameters():
            p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
        from flowplug.flow import latents_to_codes, codes_to_latents

        stacks = ds.stacks[:60]
        pre = probe.raw_scores(np.stack([st.codes for st in stacks]))
        rebuilt = []
        for st in stacks:
            z, _ = codes_to_latents(model, st.codes, np.arange(SMALL.num_codes))
            codes, _ = latents_to_codes(model, z, np.arange(SMALL.num_codes))
            rebuilt.append(codes)
        post = probe.raw_scores(np.stack(rebuilt))
        for j in range(SMALL.num_attrs):
            assert spearman_rho(pre[:, j], post[:, j]) >= 0.999

    def test_accuracy_matrix_invariant_under_eval_shuffle(self):
        ds, model, probe = self.make_trivial_setup()
        stacks = ds.stacks[:40]
        a = accuracy_protocol(probe, stacks, all_sweeps(model, probe, stacks))
        rng = np.random.default_rng(3)
        shuffled = [stacks[i] for i in rng.permutation(len(stacks))]
        b = accuracy_protocol(probe, shuffled, all_sweeps(model, probe, shuffled))
        assert np.array_equal(np.nan_to_num(a.retention), np.nan_to_num(b.retention))
        assert np.array_equal(a.modification, b.modification)

    def test_identity_drift_zero_for_untouched(self):
        ds = generate_dataset(SMALL, seed=8)
        stats = identity_drift(ds.backbone, ds.stacks[:10], ds.stacks[:10], ds.config)
        assert stats.identity_mse == 0.0
        assert stats.nuisance_mse == 0.0

    def test_identity_drift_zero_for_exact_coordinate_edit(self):
        from flowplug.editing import EditRequest, edit_attribute

        ds, model, probe = self.make_trivial_setup()
        before = ds.stacks[:10]
        after = [edit_attribute(model, st, EditRequest(attr_index=0, target=1.0)) for st in before]
        stats = identity_drift(ds.backbone, before, after, ds.config)
        assert stats.identity_mse <= 1e-20
        assert stats.nuisance_mse <= 1e-20

    def test_drift_length_mismatch_rejected(self):
        ds = generate_dataset(SMALL, seed=9)
        with pytest.raises(DimensionError):
            identity_drift(ds.backbone, ds.stacks[:3], ds.stacks[:2], ds.config)

    def test_random_flow_flagged_as_untrained(self):
        ds = generate_dataset(SyntheticConfig(num_identities=40, frames_per_identity=10), seed=7)
        prior = PriorConfig(num_attrs=4, latent_dim=32, sigma=0.5)
        model = build_flow(prior, 4, FlowConfig(), seed=0)
        rng = np.random.default_rng(5)
        for p in model.parameters():
            p.data = p.data + 3.0 * rng.normal(size=p.data.shape)
        report, _ = evaluate_dataset(ds, model, EvalConfig(num_eval=80))
        assert report.accuracy.modification.mean() < 60.0
        assert any("untrained" in note or "did not converge" in note for note in report.notes)

    def test_run_evaluation_report_shape(self):
        ds, model, probe = self.make_trivial_setup()
        report = run_evaluation(model, probe, ds.stacks[:30], ds.backbone, ds.config, EvalConfig(num_eval=30))
        m = SMALL.num_attrs
        assert report.accuracy.retention.shape == (m, m)
        assert report.ranks.spearman.shape == (m, m)
        assert len(report.drift.identity_mse) == m
        assert report.num_eval_stacks == 30
        assert np.all((report.ranks.spearman[~np.isnan(report.ranks.spearman)] >= -1.0))
        finite_ret = report.accuracy.retention[~np.isnan(report.accuracy.retention)]
        assert np.all((finite_ret >= 0.0) & (finite_ret <= 100.0))

    def test_run_evaluation_encodes_once_and_decodes_only_steps(self, monkeypatch, flow_rows):
        """Counted on the in-turn path: the row counters cannot see the
        rows that a forked sweep process decodes. Each sweep, on either
        side, is one ``minimal_edit_batch`` call."""
        monkeypatch.setattr(blas, "may_fork", lambda: False)
        ds, model, probe = self.make_trivial_setup()
        stacks = ds.stacks[:30]
        encoded, decoded = flow_rows("codes_to_latents"), flow_rows("latents_to_codes")
        real, sweeps = evaluation.minimal_edit_batch, []

        def recording_sweep(*args, **kwargs):
            sweeps.append(real(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(evaluation, "minimal_edit_batch", recording_sweep)
        run_evaluation(model, probe, stacks, ds.backbone, ds.config, EvalConfig(num_eval=30))
        assert encoded == [len(stacks) * SMALL.num_codes]
        steps = [r.steps_used for results in sweeps for r in results]
        assert len(sweeps) == 2 * SMALL.num_attrs and 0 in steps and max(steps) > 0
        assert sum(decoded) == SMALL.num_codes * sum(steps)
        # a pair accepted at step 0 keeps its codes, so its oracle drift is exactly 0
        unedited = [(st, r.stack) for results in sweeps for st, r in zip(stacks, results) if r.converged and r.steps_used == 0]
        assert unedited
        stats = identity_drift(ds.backbone, [b for b, _ in unedited], [a for _, a in unedited], ds.config)
        assert stats.identity_mse == 0.0 and stats.nuisance_mse == 0.0


@pytest.mark.usefixtures("hang_watchdog")
class TestSweepProcess:
    """``run_evaluation`` runs about half of its sweeps on a forked process."""

    @staticmethod
    def make_setup():
        """A perturbed flow, so that edits decode through non-trivial
        couplings and the stacks need different step counts."""
        ds = identity_dataset(SMALL, seed=7)
        prior = PriorConfig(num_attrs=SMALL.num_attrs, latent_dim=SMALL.code_dim, sigma=0.5)
        model = build_flow(prior, SMALL.num_codes, FlowConfig(num_couplings=2, hidden_width=8), seed=0)
        rng = np.random.default_rng(11)
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
        probe = train_probe(ds, ProbeConfig(hidden=(), epochs=400, seed=0))
        return ds, model, probe, ds.stacks[:40], EvalConfig(num_eval=40)

    def test_two_processes_and_in_turn_give_the_same_sweeps_and_report_bytes(self, monkeypatch, tmp_path, caplog):
        ds, model, probe, stacks, cfg = self.make_setup()
        runs = []
        with caplog.at_level("INFO", logger="flowplug.evaluation"):
            for _ in ("two processes", "in turn"):
                sweeps = evaluation._all_sweeps(model, probe, stacks, cfg)
                out = tmp_path / f"run{len(runs)}"
                out.mkdir()
                save_report(run_evaluation(model, probe, stacks, ds.backbone, ds.config, cfg), out)
                runs.append((sweeps, {f.name: f.read_bytes() for f in out.iterdir()}))
                assert multiprocessing.active_children() == []
                monkeypatch.setattr(blas, "may_fork", lambda: False)
        modes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("evaluating on")]
        assert modes == ["evaluating on two processes, each with BLAS on one thread"] * 2 + [
            "evaluating on one process: the sweeps in turn"
        ] * 2
        (split, split_files), (in_turn, in_turn_files) = runs
        assert len(split_files) == 4 and split_files == in_turn_files
        assert sorted(split) == sorted(in_turn) and len(split) == 2 * SMALL.num_attrs
        steps = set()
        for key, ours in split.items():
            want = in_turn[key]
            assert [(r.steps_used, r.converged) for r in ours.results] == [(r.steps_used, r.converged) for r in want.results]
            for a, b, st in zip(ours.results, want.results, stacks):
                assert np.array_equal(a.stack.codes, b.stack.codes) and np.array_equal(a.stack.labels, st.labels)
                assert (a.stack.identity_id, a.stack.frame_id) == (st.identity_id, st.frame_id)
            for name in ("pre_scores", "post_scores", "pre_decisions", "post_decisions"):
                assert np.array_equal(getattr(ours, name), getattr(want, name))
            steps.update(r.steps_used for r in ours.results)
        assert len(steps) > 2

    @pytest.mark.parametrize(
        "raised, expected, message",
        [
            (UndefinedResultError("injected in the sweep"), UndefinedResultError, "injected in the sweep"),
            (ConfigError("injected in the sweep"), ConfigError, "injected in the sweep"),
            (RuntimeError("injected in the sweep"), WorkerError, "RuntimeError: injected in the sweep"),
        ],
        ids=["undefined_result", "config", "not_a_flowplug_error"],
    )
    def test_an_error_in_the_sweep_process_raises_here(self, monkeypatch, raised, expected, message):
        ds, model, probe, stacks, cfg = self.make_setup()
        real, test_pid = evaluation.minimal_edit_batch, os.getpid()

        def failing_in_the_child(*args, **kwargs):
            if os.getpid() != test_pid:
                raise raised
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "minimal_edit_batch", failing_in_the_child)
        with pytest.raises(expected, match=message):
            run_evaluation(model, probe, stacks, ds.backbone, ds.config, cfg)
        assert multiprocessing.active_children() == []

    def test_a_warning_in_the_sweep_process_surfaces_here(self, monkeypatch):
        ds, model, probe, stacks, cfg = self.make_setup()
        real, test_pid = evaluation.minimal_edit_batch, os.getpid()

        def warning_in_the_child(*args, **kwargs):
            if os.getpid() != test_pid:
                warnings.warn("injected in the sweep", RuntimeWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "minimal_edit_batch", warning_in_the_child)
        with pytest.warns(RuntimeWarning, match="injected in the sweep"):
            run_evaluation(model, probe, stacks, ds.backbone, ds.config, cfg)
        assert multiprocessing.active_children() == []

    def test_an_error_here_ends_the_sweep_process(self, monkeypatch):
        ds, model, probe, stacks, cfg = self.make_setup()
        real, test_pid = evaluation.minimal_edit_batch, os.getpid()

        def failing_here(*args, **kwargs):
            if os.getpid() == test_pid:
                raise UndefinedResultError("injected in the caller")
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "minimal_edit_batch", failing_here)
        with pytest.raises(UndefinedResultError, match="injected in the caller"):
            run_evaluation(model, probe, stacks, ds.backbone, ds.config, cfg)
        assert multiprocessing.active_children() == []

    def test_a_killed_sweep_process_is_a_worker_error_within_seconds(self, monkeypatch):
        ds, model, probe, stacks, cfg = self.make_setup()
        real, test_pid = evaluation.minimal_edit_batch, os.getpid()

        def killed_in_the_child(*args, **kwargs):
            if os.getpid() != test_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "minimal_edit_batch", killed_in_the_child)
        start = time.perf_counter()
        with pytest.raises(WorkerError, match=r"the sweep process exited \(code -9\) before sending its sweeps"):
            run_evaluation(model, probe, stacks, ds.backbone, ds.config, cfg)
        assert time.perf_counter() - start < 10.0
        assert multiprocessing.active_children() == []

    def test_a_failed_fork_is_a_worker_error(self, monkeypatch):
        ds, model, probe, stacks, cfg = self.make_setup()

        def failing_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        with pytest.raises(WorkerError, match="cannot start the sweep process"):
            run_evaluation(model, probe, stacks, ds.backbone, ds.config, cfg)


@pytest.mark.usefixtures("hang_watchdog")
class TestReportSerialization:
    @staticmethod
    def make_report(seed=0):
        ds = identity_dataset(SMALL, seed=10)
        prior = PriorConfig(num_attrs=SMALL.num_attrs, latent_dim=SMALL.code_dim, sigma=0.5)
        model = build_flow(prior, SMALL.num_codes, FlowConfig(num_couplings=2, hidden_width=8), seed=seed)
        return evaluate_dataset(ds, model, EvalConfig(num_eval=30))[0]

    def test_report_files_written(self, tmp_path):
        from flowplug.evaluation import save_report

        report = self.make_report()
        save_report(report, tmp_path)
        import json

        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["format_version"] == "flowplug-report-v1"
        assert len(payload["retention"]) == SMALL.num_attrs
        for name in ("accuracy.csv", "spearman.csv", "identity_drift.csv"):
            text = (tmp_path / name).read_text().splitlines()
            assert len(text) == 1 + SMALL.num_attrs

    def test_failed_write_leaves_each_old_file_or_none(self, tmp_path, fail_after_writes):
        from flowplug.evaluation import save_report

        names = ["accuracy.csv", "identity_drift.csv", "report.json", "spearman.csv"]
        save_report(self.make_report(seed=0), tmp_path)
        old = {name: (tmp_path / name).read_bytes() for name in names}
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        fail_after_writes(2)
        for out in (tmp_path, fresh):
            with pytest.raises(OSError, match="no space"):
                save_report(self.make_report(seed=1), out)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["fresh"])
        assert {name: (tmp_path / name).read_bytes() for name in names} == old
        assert list(fresh.iterdir()) == []
