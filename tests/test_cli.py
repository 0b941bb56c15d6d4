"""CLI surface: subcommand wiring, config validation, file outputs, and
whole-pipeline reproducibility."""

import gc
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import flowplug
from flowplug.cli import dispatch, resolve_run_config
from flowplug.errors import ConfigError

SMALL_CONFIG = {
    "seed": 11,
    "synthetic": {
        "num_identities": 12,
        "frames_per_identity": 5,
        "num_attrs": 2,
        "code_dim": 10,
        "num_codes": 2,
        "identity_dim": 4,
    },
    "train": {
        "epochs": 3,
        "batch_groups": 4,
        "frames_per_group": 5,
        "flow": {"num_couplings": 2, "hidden_width": 8},
    },
    "eval": {"num_eval": 12, "probe": {"epochs": 40}},
}


REPORT_FILES = ("report.json", "accuracy.csv", "spearman.csv", "identity_drift.csv")


def _leaf(mapping: dict) -> list:
    """The keys down to the one value of a one-entry nested mapping, then the value."""
    key, value = next(iter(mapping.items()))
    return [key, *_leaf(value)] if isinstance(value, dict) else [key, value]


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


class TestRunConfig:
    def test_prior_defaults_follow_synthetic_section(self):
        cfg = resolve_run_config(SMALL_CONFIG)
        assert cfg.train.loss.prior.latent_dim == 10
        assert cfg.train.loss.prior.num_attrs == 2
        assert cfg.train.seed == 11
        assert cfg.eval.seed == 11

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_run_config({"sythetic": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="train.loss"):
            resolve_run_config({"train": {"loss": {"lambda": 1.0}}})

    def test_seed_override_wins(self):
        cfg = resolve_run_config(SMALL_CONFIG, seed_override=99)
        assert cfg.seed == 99
        assert cfg.train.seed == 99
        assert cfg.eval.seed == 99

    def test_explicit_section_seed_kept_without_override(self):
        data = dict(SMALL_CONFIG)
        data["train"] = {**SMALL_CONFIG["train"], "seed": 5}
        cfg = resolve_run_config(data)
        assert cfg.train.seed == 5
        assert cfg.seed == 11


@pytest.mark.usefixtures("hang_watchdog")  # train and evaluate fork a worker
class TestDispatch:
    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code != 0

    def test_selftest_passes(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert dispatch(["selftest"]) == 0
            gc.collect()
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # every file the suites open is closed
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_pipeline_and_determinism(self, tmp_path, config_file, capsys):
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        for d in (d1, d2):
            assert dispatch(["gen-data", "--config", config_file, "--out", str(d / "data")]) == 0
            assert (
                dispatch(
                    [
                        "train",
                        "--config",
                        config_file,
                        "--dataset",
                        str(d / "data" / "dataset.jsonl"),
                        "--out",
                        str(d / "train"),
                    ]
                )
                == 0
            )
            assert (
                dispatch(
                    [
                        "evaluate",
                        "--config",
                        config_file,
                        "--dataset",
                        str(d / "data" / "dataset.jsonl"),
                        "--checkpoint",
                        str(d / "train" / "checkpoint.json"),
                        "--out",
                        str(d / "eval"),
                    ]
                )
                == 0
            )
        for rel in (
            "data/dataset.jsonl",
            "data/ground_truth.jsonl",
            "train/checkpoint.json",
            "train/loss_trace.csv",
            "eval/report.json",
            "eval/accuracy.csv",
            "eval/spearman.csv",
            "eval/identity_drift.csv",
        ):
            a = (d1 / rel).read_bytes()
            b = (d2 / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"
        snapshot = json.loads((d1 / "train" / "run_config.json").read_text())
        assert snapshot["seed"] == 11
        assert snapshot["command"] == "train"

    def test_edit_absolute(self, tmp_path, config_file):
        data_dir = tmp_path / "data"
        train_dir = tmp_path / "train"
        assert dispatch(["gen-data", "--config", config_file, "--out", str(data_dir)]) == 0
        assert dispatch(
            ["train", "--config", config_file, "--dataset", str(data_dir / "dataset.jsonl"), "--out", str(train_dir)]
        ) == 0
        out_dir = tmp_path / "edit"
        assert (
            dispatch(
                [
                    "edit",
                    "--config",
                    config_file,
                    "--dataset",
                    str(data_dir / "dataset.jsonl"),
                    "--checkpoint",
                    str(train_dir / "checkpoint.json"),
                    "--attr",
                    "1",
                    "--target",
                    "-1.0",
                    "--limit",
                    "6",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        lines = (out_dir / "edited_stacks.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format_version"] == "flowplug-edit-v1"
        assert header["edit"]["attr_index"] == 1
        assert len(lines) == 1 + 6

    def test_edit_step_search(self, tmp_path, config_file, capsys):
        data_dir = tmp_path / "data"
        train_dir = tmp_path / "train"
        dispatch(["gen-data", "--config", config_file, "--out", str(data_dir)])
        dispatch(
            ["train", "--config", config_file, "--dataset", str(data_dir / "dataset.jsonl"), "--out", str(train_dir)]
        )
        out_dir = tmp_path / "edit"
        code = dispatch(
            [
                "edit",
                "--config",
                config_file,
                "--dataset",
                str(data_dir / "dataset.jsonl"),
                "--checkpoint",
                str(train_dir / "checkpoint.json"),
                "--mode",
                "step-search",
                "--limit",
                "5",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert "step-search" in capsys.readouterr().out
        rows = [json.loads(line) for line in (out_dir / "edited_stacks.jsonl").read_text().splitlines()[1:]]
        assert all("steps_used" in r and "converged" in r for r in rows)

    def test_evaluate_warns_when_dataset_content_changed(self, tmp_path, config_file, caplog):
        data_dir, train_dir = tmp_path / "data", tmp_path / "train"
        dataset = data_dir / "dataset.jsonl"
        assert dispatch(["gen-data", "--config", config_file, "--out", str(data_dir)]) == 0
        assert dispatch(["train", "--config", config_file, "--dataset", str(dataset), "--out", str(train_dir)]) == 0
        lines = dataset.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["codes"][0][0] += 0.5
        lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines) + "\n")

        def evaluate(path, out):
            """Fingerprint warnings logged by one evaluate run."""
            args = ["evaluate", "--config", config_file, "--dataset", str(path), "--out", str(tmp_path / out)]
            args += ["--checkpoint", str(train_dir / "checkpoint.json")]
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="flowplug.cli"):
                assert dispatch(args) == 0
            return [r.getMessage() for r in caplog.records if "fingerprint mismatch" in r.getMessage()]

        assert evaluate(dataset, "same") == []
        assert len(evaluate(edited, "edited")) == 1

    def test_bad_config_file_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"unknown_section": 1}')
        code = dispatch(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_negative_edit_limit_rejected(self, tmp_path, config_file, capsys):
        out = tmp_path / "edit"
        argv = ["edit", "--config", config_file, "--dataset", str(tmp_path / "ds.jsonl"), "--out", str(out)]
        assert dispatch(argv + ["--checkpoint", str(tmp_path / "ckpt.json"), "--limit", "-3"]) == 2
        assert capsys.readouterr().err.startswith("error: --limit")
        assert not out.exists()

    @pytest.mark.parametrize(
        "probe", [{"batch_size": 0}, {"epochs": -1}, {"lr": -1e-3}, {"hidden": [8, 0]}], ids=lambda p: next(iter(p))
    )
    def test_invalid_probe_config_reports_error(self, tmp_path, probe, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"eval": {"probe": probe}}))
        argv = ["evaluate", "--config", str(bad), "--dataset", str(tmp_path / "ds.jsonl")]
        assert dispatch(argv + ["--checkpoint", str(tmp_path / "ckpt.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: probe")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau", float("nan")),
            ("tau", 1.5),
            ("tau", 0),
            ("delta", float("inf")),
            ("delta", 0),
            ("max_steps", 2.5),
            ("max_steps", -1),
            ("num_eval", 1),
            ("num_eval", True),
            ("seed", -1),
        ],
    )
    def test_invalid_eval_config_reports_error(self, tmp_path, field, value, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"eval": {field: value}}))
        argv = ["evaluate", "--config", str(bad), "--dataset", str(tmp_path / "ds.jsonl")]
        assert dispatch(argv + ["--checkpoint", str(tmp_path / "ckpt.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize(
        "field, value, least",
        [
            ("seed", "x", 0),
            ("seed", 1.5, 0),
            ("seed", -1, 0),
            ("config.num_codes", 2.5, 1),
            ("config.num_identities", True, 1),
        ],
    )
    def test_bad_dataset_header_field_names_line_1_and_the_field(self, tmp_path, config_file, capsys, field, value, least):
        data = tmp_path / "data"
        assert dispatch(["gen-data", "--config", config_file, "--out", str(data)]) == 0
        path = data / "dataset.jsonl"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if field.startswith("config."):
            header["config"][field.removeprefix("config.")] = value
        else:
            header[field] = value
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        capsys.readouterr()
        argv = ["train", "--config", config_file, "--dataset", str(path), "--out", str(tmp_path / "t")]
        assert dispatch(argv) == 2
        want = f"error: line 1: dataset header {field} must be a JSON integer >= {least}, got {value!r}\n"
        assert capsys.readouterr().err == want

    def test_evaluate_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path, config_file):
        """``flowplug evaluate`` in processes started with
        OPENBLAS_NUM_THREADS=1 and =2, each running its sweeps on two
        processes: the report files are the same bytes."""
        data, trained = tmp_path / "data", tmp_path / "train"
        assert dispatch(["gen-data", "--config", config_file, "--out", str(data)]) == 0
        argv = ["train", "--config", config_file, "--dataset", str(data / "dataset.jsonl"), "--out", str(trained)]
        assert dispatch(argv) == 0
        src = str(Path(flowplug.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            argv = ["evaluate", "--config", config_file, "--dataset", str(data / "dataset.jsonl")]
            argv += ["--checkpoint", str(trained / "checkpoint.json"), "--out", str(out)]
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-m", "flowplug.cli", *argv], env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert "evaluating on two processes, each with BLAS on one thread" in proc.stderr
            outputs.append([(out / name).read_bytes() for name in REPORT_FILES])
        assert outputs[0] == outputs[1]

    def test_missing_dataset_reports_error(self, tmp_path, config_file, capsys):
        code = dispatch(
            ["train", "--config", config_file, "--dataset", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "t")]
        )
        assert code == 2

    def test_repeated_train_calls_leave_no_worker_process(self, tmp_path, config_file, monkeypatch):
        """Each ``train`` command forks one row worker and joins it before it
        returns: repeated commands leave no child process and no thread
        behind, and every worker exited cleanly."""
        from flowplug import losses, training

        data = tmp_path / "data"
        assert dispatch(["gen-data", "--config", config_file, "--out", str(data)]) == 0
        procs = []

        class Recording(losses.RowWorker):
            def __enter__(self):
                worker = super().__enter__()
                procs.append(self._proc)
                return worker

        monkeypatch.setattr(training, "RowWorker", Recording)
        before = threading.active_count()
        for i in range(3):
            argv = ["train", "--config", config_file, "--dataset", str(data / "dataset.jsonl"), "--out", str(tmp_path / f"t{i}")]
            assert dispatch(argv) == 0
            assert multiprocessing.active_children() == []
            assert threading.active_count() == before
            assert len(procs) == i + 1 and procs[-1].exitcode == 0

    @pytest.mark.parametrize(
        "train",
        [
            {"lr": float("nan")},
            {"beta1": float("inf")},
            {"eps": float("nan")},
            {"epochs": 2.5},
            {"batch_groups": True},
            {"seed": 1.0},
            {"flow": {"num_couplings": 2.5}},
            {"flow": {"hidden_width": True}},
            {"flow": {"scale_clamp": float("nan")}},
            {"loss": {"lambda_contrastive": float("nan")}},
        ],
        ids=lambda t: "-".join(_leaf(t)[:-1]),
    )
    def test_invalid_train_config_reports_error(self, tmp_path, train, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": train}))
        argv = ["train", "--config", str(bad), "--dataset", str(tmp_path / "ds.jsonl"), "--out", str(tmp_path / "t")]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {_leaf(train)[-2]} must be")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_invalid_synthetic_count_reports_error(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synthetic": {"num_identities": value}}))
        assert dispatch(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.startswith(f"error: num_identities must be an integer >= 1, got {value!r}")
