"""Training loop: batch construction, determinism, loss decrease, and the
versioned checkpoint format."""

import json
from pathlib import Path

import numpy as np
import pytest

from flowplug.errors import (
    CheckpointShapeError,
    CheckpointVersionError,
    ConfigError,
    CorruptCheckpointError,
    TrainingDivergedError,
)
from flowplug.flow import FlowConfig
from flowplug.losses import LossConfig
from flowplug.prior import PriorConfig
from flowplug.synthetic import SyntheticConfig, generate_dataset
from flowplug.training import (
    TrainConfig,
    load_checkpoint,
    make_batches,
    save_checkpoint,
    save_loss_trace,
    train,
)

SMALL_DS = SyntheticConfig(
    num_identities=10, frames_per_identity=6, num_attrs=2, code_dim=10, num_codes=2, identity_dim=4
)


def small_train_config(**overrides):
    prior = PriorConfig(num_attrs=2, latent_dim=10, sigma=0.5)
    defaults = dict(
        loss=LossConfig(prior=prior),
        flow=FlowConfig(num_couplings=2, hidden_width=8),
        epochs=3,
        batch_groups=3,
        frames_per_group=6,
        seed=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestMakeBatches:
    def test_counts_on_default_shape(self):
        ds = generate_dataset(SyntheticConfig(num_identities=100, frames_per_identity=20), seed=0)
        prior = PriorConfig(num_attrs=4, latent_dim=32, sigma=0.5)
        cfg = TrainConfig(loss=LossConfig(prior=prior), frames_per_group=20, batch_groups=5)
        batches = make_batches(ds, cfg, np.random.default_rng(0))
        assert len(batches) == 20
        assert sum(len(g) for b in batches for g in b) == 2000

    def test_every_frame_exactly_once(self):
        ds = generate_dataset(SMALL_DS, seed=1)
        batches = make_batches(ds, small_train_config(frames_per_group=4), np.random.default_rng(1))
        seen = [(s.identity_id, s.frame_id) for b in batches for g in b for s in g]
        assert len(seen) == ds.num_frames
        assert len(set(seen)) == ds.num_frames

    def test_groups_are_single_identity_and_capped(self):
        ds = generate_dataset(SMALL_DS, seed=2)
        batches = make_batches(ds, small_train_config(frames_per_group=4), np.random.default_rng(2))
        for batch in batches:
            for group in batch:
                assert len({s.identity_id for s in group}) == 1
                assert 1 <= len(group) <= 4

    def test_same_seed_same_order(self):
        ds = generate_dataset(SMALL_DS, seed=3)
        cfg = small_train_config()
        a = make_batches(ds, cfg, np.random.default_rng(7))
        b = make_batches(ds, cfg, np.random.default_rng(7))
        key = lambda batches: [[(s.identity_id, s.frame_id) for s in g] for batch in batches for g in batch]
        assert key(a) == key(b)

    def test_single_frame_groups_kill_contrastive(self):
        ds = generate_dataset(SMALL_DS, seed=4)
        cfg = small_train_config(frames_per_group=1, epochs=1)
        _, trace = train(ds, cfg)
        assert all(row.mean_contrastive == 0.0 for row in trace)


class TestTrain:
    def test_zero_lr_keeps_parameters_and_trace_constant(self):
        ds = generate_dataset(SMALL_DS, seed=5)
        cfg = small_train_config(lr=0.0, epochs=3)
        ckpt, trace = train(ds, cfg)
        from flowplug.flow import build_flow
        from flowplug.synthetic import _derive_seeds

        model_seed, _ = _derive_seeds(cfg.seed)
        fresh = build_flow(cfg.loss.prior, ds.config.num_codes, cfg.flow, model_seed)
        for a, b in zip(ckpt.model.parameters(), fresh.parameters()):
            assert np.array_equal(a.data, b.data)
        totals = [row.total for row in trace]
        assert np.allclose(totals, totals[0], rtol=1e-12)

    def test_non_finite_gradient_is_located(self, monkeypatch):
        import flowplug.training as training

        models = []
        real_build, real_backward = training.build_flow, training.backward

        def build(*args):
            models.append(real_build(*args))
            return models[-1]

        def poisoned_backward(total):
            real_backward(total)
            p = models[0].layers[1].shift_net.weights[1]
            p.grad = np.full_like(p.grad, np.nan)

        monkeypatch.setattr(training, "build_flow", build)
        monkeypatch.setattr(training, "backward", poisoned_backward)
        ds = generate_dataset(SMALL_DS, seed=6)
        with pytest.raises(TrainingDivergedError, match="epoch 0, batch 0, first in coupling 1 shift net layer 1 weight"):
            train(ds, small_train_config(epochs=1))

    def test_loss_decreases(self):
        ds = generate_dataset(SMALL_DS, seed=6)
        _, trace = train(ds, small_train_config(epochs=8))
        assert trace[-1].total < trace[0].total

    def test_baseline_row_precedes_epochs(self):
        ds = generate_dataset(SMALL_DS, seed=6)
        _, trace = train(ds, small_train_config(epochs=2))
        assert [row.epoch for row in trace] == [-1, 0, 1]

    def test_lambda_only_changes_contrastive_term_at_baseline(self):
        ds = generate_dataset(SMALL_DS, seed=7)
        _, trace1 = train(ds, small_train_config(epochs=1, loss=LossConfig(prior=PriorConfig(2, 10, 0.5), lambda_contrastive=1.0)))
        _, trace0 = train(ds, small_train_config(epochs=1, loss=LossConfig(prior=PriorConfig(2, 10, 0.5), lambda_contrastive=0.0)))
        assert trace1[0].mean_nll == trace0[0].mean_nll
        assert trace1[0].mean_contrastive == trace0[0].mean_contrastive
        assert trace1[0].total == trace0[0].total + trace1[0].mean_contrastive

    def test_full_run_determinism(self, tmp_path):
        ds = generate_dataset(SMALL_DS, seed=8)
        cfg = small_train_config(epochs=3)
        ckpt_a, trace_a = train(ds, cfg)
        ckpt_b, trace_b = train(ds, cfg)
        assert trace_a == trace_b
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(ckpt_a, pa)
        save_checkpoint(ckpt_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_dimension_mismatch_rejected(self):
        ds = generate_dataset(SMALL_DS, seed=9)
        bad = small_train_config(loss=LossConfig(prior=PriorConfig(num_attrs=2, latent_dim=12, sigma=0.5)))
        with pytest.raises(ConfigError):
            train(ds, bad)

    def test_trace_csv_format(self, tmp_path):
        ds = generate_dataset(SMALL_DS, seed=10)
        _, trace = train(ds, small_train_config(epochs=2))
        path = tmp_path / "trace.csv"
        save_loss_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_nll,mean_contrastive,total"
        assert len(lines) == 1 + len(trace)
        cells = lines[1].split(",")
        assert cells[0] == "-1"
        assert float(cells[3]) == trace[0].total


class TestCheckpoint:
    def make_checkpoint(self):
        ds = generate_dataset(SMALL_DS, seed=11)
        return train(ds, small_train_config(epochs=1))[0]

    def test_round_trip_bit_exact(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.model.parameters(), loaded.model.parameters()):
            assert np.array_equal(a.data, b.data)
        assert loaded.train_config == ckpt.train_config
        assert loaded.epoch == ckpt.epoch
        assert loaded.final_loss == ckpt.final_loss
        assert loaded.dataset_fingerprint == ckpt.dataset_fingerprint

    def test_checkpoint_written_by_an_earlier_version_gives_its_latents(self):
        """tests/data holds a small trained v1 checkpoint and the latents the
        code that wrote it computed, before the coupling nets were fused."""
        from flowplug.flow import codes_to_latents, latents_to_codes

        data = Path(__file__).parent / "data"
        model = load_checkpoint(data / "checkpoint_v1_small.json").model
        ref = json.loads((data / "checkpoint_v1_small_latents.json").read_text())
        codes = np.array(ref["codes"])
        z, logdet = codes_to_latents(model, codes, ref["layer_indices"])
        assert np.abs(z - np.array(ref["latents"])).max() <= 1e-12
        assert np.abs(logdet - np.array(ref["logdet"])).max() <= 1e-12
        back, _ = latents_to_codes(model, np.array(ref["latents"]), ref["layer_indices"])
        assert np.abs(back - codes).max() <= 1e-12

    @pytest.mark.parametrize("activation", ["tanh", "relu", None])
    def test_nets_are_written_as_leaky_relu_and_nothing_else_loads(self, tmp_path, activation):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self.make_checkpoint(), path)
        payload = json.loads(path.read_text())
        nets = [entry[key] for entry in payload["layers"] for key in ("scale_net", "shift_net")]
        assert {net["activation"] for net in nets} == {"leaky_relu"}
        payload["layers"][1]["shift_net"]["activation"] = activation
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_truncated_file_is_corrupt(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        path.write_text(path.read_text().replace("flowplug-ckpt-v1", "flowplug-ckpt-v2"))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        payload["layers"][0]["scale_net"]["layers"][0]["shape"][0] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path)

    def test_shift_net_input_width_mismatch(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        first = payload["layers"][0]["shift_net"]["layers"][0]
        first["weight"].pop()
        first["shape"][0] -= 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path)

    def test_missing_file_is_corrupt(self, tmp_path):
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "nope.json")
