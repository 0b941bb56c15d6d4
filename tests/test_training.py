"""Training loop: batch construction, determinism, loss decrease, and the
versioned checkpoint format."""

import dataclasses
import io
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import flowplug
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

# ``train`` forks a row worker wherever a second process may share the work
pytestmark = pytest.mark.usefixtures("hang_watchdog")

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

    def test_split_batches_train_to_the_same_parameters_every_time(self):
        # groups of 4 and 2 frames give batches with odd stack counts, so the
        # two row halves differ in size
        ds = generate_dataset(SMALL_DS, seed=8)
        cfg = small_train_config(epochs=2, frames_per_group=4)
        ckpt_a, _ = train(ds, cfg)
        ckpt_b, _ = train(ds, cfg)
        for a, b in zip(ckpt_a.model.parameters(), ckpt_b.model.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_non_finite_codes_in_the_second_half_are_located(self, monkeypatch):
        """One stack of epoch 1's batch 1, the last of its last group, sits in
        the row half the worker runs; its overflow still names the batch."""
        import flowplug.training as training

        real_make_batches = training.make_batches
        epochs = []

        def poisoned(ds, cfg, rng):
            batches = real_make_batches(ds, cfg, rng)
            epochs.append(len(epochs))
            if epochs[-1] == 1:
                group = batches[1][-1]
                group[-1] = dataclasses.replace(group[-1], codes=np.full_like(group[-1].codes, 1e308))
            return batches

        monkeypatch.setattr(training, "make_batches", poisoned)
        ds = generate_dataset(SMALL_DS, seed=6)
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDivergedError, match="non-finite loss at epoch 1, batch 1"):
            train(ds, small_train_config(epochs=2))

    @pytest.mark.parametrize(
        "target, message",
        [("packed_forward", "non-finite loss at epoch 0, batch 0"), ("packed_backward", "non-finite gradient at epoch 0, batch 0")],
    )
    def test_error_raised_on_the_worker_reraises_in_train(self, monkeypatch, target, message):
        """A failure in the worker process's half re-raises in ``train`` as the
        located error, and the worker is joined before ``train`` raises."""
        import flowplug.losses as losses
        from flowplug.errors import NumericError

        real = getattr(losses, target)
        test_pid = os.getpid()

        def failing_on_worker(model, rows, cond, kept):
            # the baseline loss keeps nothing; only training halves fail
            if kept is not None and os.getpid() != test_pid:
                raise NumericError("injected on the worker")
            return real(model, rows, cond, kept)

        monkeypatch.setattr(losses, target, failing_on_worker)
        ds = generate_dataset(SMALL_DS, seed=6)
        with pytest.raises(TrainingDivergedError, match=message + ".*injected on the worker"):
            train(ds, small_train_config(epochs=1))
        assert multiprocessing.active_children() == []

    def test_no_worker_process_outlives_train(self, monkeypatch):
        import flowplug.training as training

        ds = generate_dataset(SMALL_DS, seed=6)
        train(ds, small_train_config(epochs=1))
        assert multiprocessing.active_children() == []

        def failing(ds, cfg, rng):
            raise ValueError("batching failed")

        monkeypatch.setattr(training, "make_batches", failing)
        with pytest.raises(ValueError, match="batching failed"):
            train(ds, small_train_config(epochs=1))
        assert multiprocessing.active_children() == []

    def test_each_gradient_is_checked_once_per_step_on_two_processes(self, monkeypatch):
        """``_fit`` checks every gradient, and then neither optimizer checks
        its share again: this process's updates unchecked, and the worker
        is given the unchecked update of its optimizer."""
        import flowplug.training as training
        from flowplug.losses import RowWorker
        from flowplug.numerics import AdamOptimizer, adam

        checks = {"fit": 0, "optimizer": 0}
        step_fns = []

        def counting(where, real):
            def check(grads):
                checks[where] += 1
                real(grads)

            return check

        class Recording(RowWorker):
            def __init__(self, model, step_fn):
                step_fns.append(step_fn)
                super().__init__(model, step_fn)

        monkeypatch.setattr(training, "_check_finite", counting("fit", training._check_finite))
        monkeypatch.setattr(adam, "_check_finite", counting("optimizer", adam._check_finite))
        monkeypatch.setattr(training, "RowWorker", Recording)
        train(generate_dataset(SMALL_DS, seed=6), small_train_config(epochs=2))
        assert checks == {"fit": 2 * 4, "optimizer": 0}  # 10 groups in batches of 3
        assert len(step_fns) == 1 and step_fns[0].__func__ is AdamOptimizer.update

    def test_a_failed_fork_is_a_worker_error(self, monkeypatch):
        from flowplug.errors import WorkerError

        def failing_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        with pytest.raises(WorkerError, match="cannot start the training worker process"):
            train(generate_dataset(SMALL_DS, seed=6), small_train_config(epochs=1))

    @pytest.mark.parametrize(
        "batching",
        [
            dict(frames_per_group=4),
            # groups of 5 and 1 frames, one group a batch: split batches
            # alternate with one-stack batches, which are not split
            dict(frames_per_group=5, batch_groups=1),
            # every batch one stack
            dict(frames_per_group=1, batch_groups=1),
        ],
    )
    def test_worker_and_in_turn_training_agree(self, monkeypatch, caplog, batching):
        """With the worker process (split Adam) and without it (no settable
        BLAS thread count, so both halves in turn and one optimizer), the
        parameters and the trace are the same, bit for bit, also where some
        or all batches hold one stack and run on this process alone."""
        from flowplug import blas

        ds = generate_dataset(SMALL_DS, seed=8)
        cfg = small_train_config(epochs=2, **batching)
        with caplog.at_level("INFO", logger="flowplug.training"):
            ckpt_a, trace_a = train(ds, cfg)
            monkeypatch.setattr(blas, "_thread_calls", lambda: None)
            ckpt_b, trace_b = train(ds, cfg)
        modes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("training on")]
        assert modes == ["training on two processes, each with BLAS on one thread", "training on one process: both row halves in turn"]
        assert trace_a == trace_b
        for a, b in zip(ckpt_a.model.parameters(), ckpt_b.model.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_blas_runs_on_one_thread_while_training_and_is_restored(self, monkeypatch):
        import flowplug.training as training
        from flowplug import blas

        calls = blas._thread_calls()
        if calls is None:
            pytest.skip("no settable OpenBLAS thread count")
        get, set_ = calls
        before = get()
        real_make_batches = training.make_batches
        seen = []

        def recording(ds, cfg, rng):
            seen.append(get())
            if len(seen) == 3:
                raise ValueError("stop")
            return real_make_batches(ds, cfg, rng)

        monkeypatch.setattr(training, "make_batches", recording)
        ds = generate_dataset(SMALL_DS, seed=6)
        set_(2)
        try:
            train(ds, small_train_config(epochs=2))
            assert get() == 2
            with pytest.raises(ValueError, match="stop"):
                train(ds, small_train_config(epochs=2))
            assert get() == 2
        finally:
            set_(before)
        assert seen == [1, 1, 1]

    def test_a_killed_worker_fails_train_with_a_typed_error(self, tmp_path):
        """The worker is killed between epochs: ``train`` raises WorkerError
        instead of waiting on it, and leaves no child process. Run in a
        subprocess with a time limit, so a hang fails the test."""
        script = textwrap.dedent(
            """
            import multiprocessing, os, signal
            import flowplug.training as training
            from flowplug.errors import WorkerError
            from flowplug.flow import FlowConfig
            from flowplug.losses import LossConfig
            from flowplug.prior import PriorConfig
            from flowplug.synthetic import SyntheticConfig, generate_dataset

            ds = generate_dataset(SyntheticConfig(num_identities=10, frames_per_identity=6, num_attrs=2,
                                                  code_dim=10, num_codes=2, identity_dim=4), seed=6)
            cfg = training.TrainConfig(loss=LossConfig(prior=PriorConfig(num_attrs=2, latent_dim=10, sigma=0.5)),
                                       flow=FlowConfig(num_couplings=2, hidden_width=8), epochs=3,
                                       batch_groups=3, frames_per_group=6)
            real_make_batches, epochs = training.make_batches, []

            def killing(ds, cfg, rng):
                epochs.append(len(epochs))
                if epochs[-1] == 1:
                    for child in multiprocessing.active_children():
                        os.kill(child.pid, signal.SIGKILL)
                return real_make_batches(ds, cfg, rng)

            training.make_batches = killing
            try:
                training.train(ds, cfg)
            except WorkerError as exc:
                print("WorkerError:", exc)
            print("children:", len(multiprocessing.active_children()))
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(flowplug.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "WorkerError: the training worker process" in proc.stdout
        assert "children: 0" in proc.stdout

    def test_checkpoints_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """One epoch of the default model through ``flowplug train``, in
        processes started with OPENBLAS_NUM_THREADS=1 and =2: the checkpoint
        and the loss trace are the same bytes."""
        from flowplug.cli import dispatch

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"epochs": 1}}))
        assert dispatch(["gen-data", "--config", str(config), "--out", str(tmp_path / "data"), "--seed", "1"]) == 0
        src = str(Path(flowplug.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            argv = ["train", "--config", str(config), "--dataset", str(tmp_path / "data" / "dataset.jsonl"), "--out", str(out), "--seed", "1"]
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-m", "flowplug.cli", *argv], env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("checkpoint.json", "loss_trace.csv")])
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("clamp", [0, -1.0, float("nan"), float("inf"), "2.0", True, None])
    def test_scale_clamp_must_be_a_finite_positive_number(self, tmp_path, clamp):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self.make_checkpoint(), path)
        payload = json.loads(path.read_text())
        payload["layers"][1]["scale_clamp"] = clamp
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptCheckpointError, match="coupling 1: scale_clamp must be a finite positive number"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [("epoch", "x"), ("epoch", -3), ("epoch", 1.0), ("epoch", True), ("final_loss", "x"), ("final_loss", float("nan")), ("final_loss", None)],
    )
    def test_epoch_and_final_loss_must_be_well_typed(self, tmp_path, field, value):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self.make_checkpoint(), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        want = {"epoch": "an integer >= 0", "final_loss": "a finite number"}[field]
        with pytest.raises(CorruptCheckpointError, match=f"checkpoint is malformed: {field} must be {want}, got"):
            load_checkpoint(path)

    @pytest.mark.parametrize("net, kind", [("scale_net", "weight"), ("shift_net", "bias")])
    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_parameter_names_its_coupling_net_and_layer(self, tmp_path, net, kind, value):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self.make_checkpoint(), path)
        payload = json.loads(path.read_text())
        layer = payload["layers"][1][net]["layers"][1]
        if kind == "weight":
            layer["weight"][0][0] = value
        else:
            layer["bias"][0] = value
        path.write_text(json.dumps(payload))
        name = net.split("_")[0]
        with pytest.raises(CorruptCheckpointError, match=f"coupling 1 {name} net layer 1: non-finite {kind} entry"):
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

    def test_text_is_what_json_dump_wrote(self, tmp_path):
        import flowplug.training as training

        ckpt = self.make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        streamed = io.StringIO()
        json.dump(training._checkpoint_payload(ckpt), streamed, sort_keys=True)
        streamed.write("\n")
        assert path.read_bytes() == streamed.getvalue().encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_the_old_file_or_none(self, tmp_path, fail_after_writes, existing):
        path = tmp_path / "ckpt.json"
        if existing:
            path.write_text("old checkpoint")
        fail_after_writes(20)  # some text reaches the disk, then it is full
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(self.make_checkpoint(), path)
        assert [p.name for p in tmp_path.iterdir()] == (["ckpt.json"] if existing else [])
        if existing:
            assert path.read_text() == "old checkpoint"

    @pytest.mark.parametrize("change", ["hidden_width", "layer_count"])
    def test_scale_and_shift_nets_of_different_shapes_rejected(self, tmp_path, change):
        ckpt = self.make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        layers = payload["layers"][1]["shift_net"]["layers"]
        if change == "hidden_width":  # one more hidden unit, with zero weights
            for row in layers[0]["weight"]:
                row.append(0.0)
            layers[0]["bias"].append(0.0)
            layers[1]["weight"].append([0.0] * len(layers[1]["weight"][0]))
            layers[0]["shape"][1] += 1
            layers[1]["shape"][0] += 1
        else:  # one more hidden layer
            width = layers[0]["shape"][1]
            layers.insert(1, {"shape": [width, width], "weight": np.eye(width).tolist(), "bias": [0.0] * width})
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointShapeError, match="coupling 1"):
            load_checkpoint(path)

    def test_missing_file_is_corrupt(self, tmp_path):
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "nope.json")
