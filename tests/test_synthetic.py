"""Mock backbone and dataset generation: exact invertibility, conditioning
bounds, determinism, and the JSONL wire format."""

import json

import numpy as np
import pytest

from flowplug.errors import ConfigError, DatasetError, DimensionError
from flowplug.synthetic import (
    SyntheticConfig,
    backbone_generate,
    backbone_invert,
    dataset_fingerprint,
    generate_dataset,
    load_dataset,
    make_backbone,
    save_dataset,
    save_ground_truth,
    split_factors,
)

SMALL = SyntheticConfig(
    num_identities=8, frames_per_identity=5, num_attrs=2, code_dim=10, num_codes=3, identity_dim=4
)


class TestMakeBackbone:
    def test_deterministic(self):
        a = make_backbone(SMALL, seed=3)
        b = make_backbone(SMALL, seed=3)
        assert np.array_equal(a.mix, b.mix)
        assert np.array_equal(a.bias, b.bias)

    def test_different_seeds_differ(self):
        a = make_backbone(SMALL, seed=3)
        b = make_backbone(SMALL, seed=4)
        assert not np.array_equal(a.mix, b.mix)

    def test_condition_number_bound(self):
        backbone = make_backbone(SMALL, seed=5)
        for i in range(backbone.num_codes):
            s = np.linalg.svd(backbone.mix[i], compute_uv=False)
            assert s.max() / s.min() <= 100.0 + 1e-9
            assert s.min() >= 0.1 - 1e-12
            assert s.max() <= 10.0 + 1e-12


class TestGenerateInvert:
    def test_identity_backbone_passes_positive_factors_through(self):
        from flowplug.synthetic import MockBackbone

        n, k = SMALL.code_dim, SMALL.num_codes
        eye = np.stack([np.eye(n)] * k)
        backbone = MockBackbone(mix=eye, mix_inv=eye.copy(), bias=np.zeros((k, n)), seed=0)
        f = np.abs(np.random.default_rng(0).normal(size=n)) + 0.1  # linear region
        codes = backbone_generate(backbone, f[None, :])
        assert np.array_equal(codes, np.tile(f, (1, k, 1)))
        rec = backbone_invert(backbone, np.zeros((2, k, n)))
        assert np.array_equal(rec, np.zeros((2, k, n)))

    def test_round_trip_1000_random_factors(self):
        backbone = make_backbone(SMALL, seed=6)
        rng = np.random.default_rng(7)
        factors = rng.normal(size=(1000, SMALL.code_dim)) * 2
        rec = backbone_invert(backbone, backbone_generate(backbone, factors))
        assert rec.shape == (1000, SMALL.num_codes, SMALL.code_dim)
        # every layer recovers the factors on its own
        assert np.abs(rec - factors[:, None, :]).max() <= 1e-6

    def test_dimension_mismatch_rejected(self):
        backbone = make_backbone(SMALL, seed=6)
        for bad in (np.zeros(SMALL.code_dim), np.zeros((2, 3))):
            with pytest.raises(DimensionError):
                backbone_generate(backbone, bad)
        for bad in (np.zeros((SMALL.num_codes, SMALL.code_dim)), np.zeros((1, 2, 2))):
            with pytest.raises(DimensionError):
                backbone_invert(backbone, bad)


class TestGenerateDataset:
    def test_frame_count(self):
        ds = generate_dataset(SyntheticConfig(num_identities=100, frames_per_identity=20), seed=1)
        assert ds.num_frames == 2000

    def test_identity_embedding_constant_within_identity(self):
        ds = generate_dataset(SMALL, seed=2)
        by_id = ds.frames_by_identity()
        embs = []
        for identity, idxs in by_id.items():
            parts = split_factors(ds.factors[idxs], ds.config)
            assert np.all(parts.identity_emb == parts.identity_emb[0])
            embs.append(parts.identity_emb[0])
        embs = np.stack(embs)
        for i in range(len(embs)):
            for j in range(i + 1, len(embs)):
                assert np.abs(embs[i] - embs[j]).max() > 1e-9

    def test_zero_label_noise_labels_equal_mapped_attrs(self):
        ds = generate_dataset(SMALL, seed=3)
        for idx, stack in enumerate(ds.stacks):
            attrs = split_factors(ds.factors[idx], ds.config).attrs
            assert np.array_equal(stack.labels, np.where(attrs > 0, 1.0, -1.0))

    def test_label_noise_bounded_perturbation(self):
        noisy_cfg = SyntheticConfig(
            num_identities=8, frames_per_identity=5, num_attrs=2, code_dim=10, num_codes=3,
            identity_dim=4, label_noise=0.05,
        )
        ds = generate_dataset(noisy_cfg, seed=3)
        labels = np.stack([st.labels for st in ds.stacks])
        mapped = np.where(split_factors(ds.factors, ds.config).attrs > 0, 1.0, -1.0)
        deltas = labels - mapped
        assert 0 < np.abs(deltas).max() <= 0.05 * 6  # 6 sigma

    def test_identity_ids_contiguous(self):
        ds = generate_dataset(SMALL, seed=4)
        assert sorted(ds.frames_by_identity()) == list(range(SMALL.num_identities))

    def test_stack_codes_match_backbone(self):
        ds = generate_dataset(SMALL, seed=5)
        idx = [0, 7, 23]
        regen = backbone_generate(ds.backbone, ds.factors[idx])
        assert np.array_equal(np.stack([ds.stacks[i].codes for i in idx]), regen)

    def test_continuous_attributes_standardized(self):
        cfg = SyntheticConfig(
            num_identities=30, frames_per_identity=10, num_attrs=2, code_dim=10, num_codes=2,
            identity_dim=4, attr_kinds=("binary", "continuous"),
        )
        ds = generate_dataset(cfg, seed=6)
        labels = np.stack([st.labels for st in ds.stacks])
        assert abs(labels[:, 1].mean()) <= 1e-9
        assert labels[:, 1].std() == pytest.approx(1.0, abs=1e-9)
        assert set(np.unique(labels[:, 0])) == {-1.0, 1.0}


class TestSerialization:
    def test_byte_identical_across_regenerations(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_dataset(SMALL, seed=9), p1)
        save_dataset(generate_dataset(SMALL, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_round_trip_exact(self, tmp_path):
        ds = generate_dataset(SMALL, seed=10)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.num_frames == ds.num_frames
        assert loaded.config == ds.config
        for a, b in zip(ds.stacks, loaded.stacks):
            assert np.array_equal(a.codes, b.codes)
            assert np.array_equal(a.labels, b.labels)
            assert (a.identity_id, a.frame_id) == (b.identity_id, b.frame_id)
        assert np.array_equal(loaded.backbone.mix, ds.backbone.mix)
        assert dataset_fingerprint(loaded) == dataset_fingerprint(ds)

    def test_fingerprint_binds_record_content(self, tmp_path):
        ds = generate_dataset(SMALL, seed=10)
        path, edited = tmp_path / "ds.jsonl", tmp_path / "edited.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["codes"][1][2] += 1e-6
        lines[3] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        edited.write_text("\n".join(lines) + "\n")
        assert dataset_fingerprint(load_dataset(edited)) != dataset_fingerprint(load_dataset(path))

    def test_ground_truth_sidecar_round_trip(self, tmp_path):
        ds = generate_dataset(SMALL, seed=11)
        ds_path, gt_path = tmp_path / "ds.jsonl", tmp_path / "gt.jsonl"
        save_dataset(ds, ds_path)
        save_ground_truth(ds, gt_path)
        loaded = load_dataset(ds_path, ground_truth_path=gt_path)
        assert np.array_equal(loaded.factors, ds.factors)

    def test_ground_truth_sidecar_must_belong_to_the_dataset(self, tmp_path):
        ds_path, gt_path = tmp_path / "ds.jsonl", tmp_path / "gt.jsonl"
        save_dataset(generate_dataset(SMALL, seed=1), ds_path)
        save_ground_truth(generate_dataset(SMALL, seed=2), gt_path)
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(ds_path, ground_truth_path=gt_path)
        save_ground_truth(generate_dataset(SMALL, seed=1), gt_path)
        lines = gt_path.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        gt_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(ds_path, ground_truth_path=gt_path)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_the_old_dataset_or_none(self, tmp_path, fail_after_writes, existing):
        path = tmp_path / "ds.jsonl"
        if existing:
            save_dataset(generate_dataset(SMALL, seed=1), path)
        old = path.read_bytes() if existing else None
        fail_after_writes(5)
        with pytest.raises(OSError, match="no space"):
            save_dataset(generate_dataset(SMALL, seed=2), path)
        assert [p.name for p in tmp_path.iterdir()] == (["ds.jsonl"] if existing else [])
        assert not existing or path.read_bytes() == old

    def test_plain_load_carries_no_ground_truth(self, tmp_path):
        ds = generate_dataset(SMALL, seed=11)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        assert load_dataset(path).factors is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"format_version": "flowplug-ds-v0"}\n')
        with pytest.raises(DatasetError):
            load_dataset(path)

    @pytest.mark.parametrize("header", ["[1]", '"flowplug-ds-v1"', "null", "3"])
    def test_header_that_is_not_an_object_names_line_1(self, tmp_path, header, capsys):
        from flowplug.cli import dispatch

        path = tmp_path / "ds.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)
        assert dispatch(["train", "--dataset", str(path), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: dataset header must be a JSON object")

    @staticmethod
    def with_third_line_edited(tmp_path, edit):
        """A saved SMALL dataset whose third line (the second record) went
        through ``edit(record, first_record)``."""
        path = tmp_path / "ds.jsonl"
        save_dataset(generate_dataset(SMALL, seed=12), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        edit(rec, json.loads(lines[1]))
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_codes_shape_must_match_the_header(self, tmp_path):
        def drop_last_column(rec, _):
            rec["codes"] = [row[:-1] for row in rec["codes"]]

        with pytest.raises(DatasetError, match=r"line 3: codes have shape \(3, 9\), header promises \(3, 10\)"):
            load_dataset(self.with_third_line_edited(tmp_path, drop_last_column))

    def test_label_length_must_match_the_header(self, tmp_path):
        def drop_last_label(rec, _):
            rec["labels"] = rec["labels"][:-1]

        with pytest.raises(DatasetError, match=r"line 3: labels have shape \(1,\), header promises \(2,\)"):
            load_dataset(self.with_third_line_edited(tmp_path, drop_last_label))

    @pytest.mark.parametrize("field, value", [("identity_id", 8), ("frame_id", -1)])
    def test_ids_must_lie_in_the_header_range(self, tmp_path, field, value):
        def set_id(rec, _):
            rec[field] = value

        with pytest.raises(DatasetError, match=r"line 3: \(identity_id, frame_id\) .* is outside 8 identities x 5 frames"):
            load_dataset(self.with_third_line_edited(tmp_path, set_id))

    def test_identity_frame_pairs_must_be_unique(self, tmp_path):
        def copy_ids(rec, first):
            rec["identity_id"], rec["frame_id"] = first["identity_id"], first["frame_id"]

        with pytest.raises(DatasetError, match=r"line 3: .* repeats line 2"):
            load_dataset(self.with_third_line_edited(tmp_path, copy_ids))

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (lambda rec: "[1]", "expected a JSON object"),
            (lambda rec: json.dumps({**rec, "identity_id": None}), "must be JSON integers"),
            (lambda rec: json.dumps({**rec, "identity_id": 0.7}), "must be JSON integers"),
            (lambda rec: json.dumps({**rec, "frame_id": True}), "must be JSON integers"),
            (lambda rec: json.dumps({**rec, "codes": [[float("nan")] + row[1:] for row in rec["codes"]]}), "must be finite"),
            (lambda rec: json.dumps({**rec, "labels": [float("inf")] + rec["labels"][1:]}), "must be finite"),
        ],
        ids=["list", "null_id", "fractional_id", "bool_id", "nan_code", "inf_label"],
    )
    def test_malformed_record_names_its_line(self, tmp_path, capsys, bad_line, message):
        from flowplug.cli import dispatch

        path = tmp_path / "ds.jsonl"
        save_dataset(generate_dataset(SMALL, seed=12), path)
        lines = path.read_text().splitlines()
        lines[2] = bad_line(json.loads(lines[2]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=f"line 3: .*{message}"):
            load_dataset(path)
        assert dispatch(["train", "--dataset", str(path), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err.startswith("error: bad dataset record on line 3")

    def test_truncated_file_rejected(self, tmp_path):
        ds = generate_dataset(SMALL, seed=12)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(DatasetError):
            load_dataset(path)


class TestConfigValidation:
    def test_nuisance_dim_must_be_positive(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_attrs=4, code_dim=8, identity_dim=4)

    def test_attr_kinds_length_checked(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(attr_kinds=("binary",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(attr_kinds=("binary", "binary", "binary", "fuzzy"))
