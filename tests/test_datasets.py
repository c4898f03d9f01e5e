import math

import numpy as np
import pytest

from graphda.datasets import (
    Batch,
    DataFormatError,
    Dataset,
    Domain,
    NormStats,
    ShiftConfig,
    TwoDomainSampler,
    compute_norm_stats,
    gen_synthetic_shift,
    normalize,
    read_dataset,
    read_label_file,
    warp_image,
    write_dataset,
    write_label_file,
)
from graphda.training import _augment_batch


def _dataset(features, labels, domain=Domain.SOURCE, m=3):
    return Dataset(np.asarray(features, dtype=float), labels, domain, m)


class TestDatasetType:
    def test_basic_accessors(self):
        ds = _dataset([[1.0, 2.0], [3.0, 4.0]], [0, 2])
        assert len(ds) == 2
        assert ds.feature_dims == (2,)
        assert (ds.labels[1], ds.domain) == (2, Domain.SOURCE)
        assert np.array_equal(ds.features[1], [3.0, 4.0])

    def test_immutable(self):
        ds = _dataset([[1.0]], [0], m=2)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(AttributeError):
            ds.labels = np.array([1])

    def test_validation(self):
        with pytest.raises(ValueError):
            _dataset([[1.0]], [0, 1])  # count mismatch
        with pytest.raises(ValueError):
            _dataset([[1.0]], [5], m=3)  # label out of range
        with pytest.raises(ValueError):
            _dataset([[1.0]], [-2], m=3)
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), [0, 0], Domain.SOURCE, 1)  # m too small


class TestNormalize:
    def test_three_point_channel(self):
        ds = _dataset([[1.0], [2.0], [3.0]], [0, 1, 2])
        out, stats = normalize(ds)
        root = 1.224744871391589  # (3-2)/sqrt(2/3)
        assert np.allclose(out.features[:, 0], [-root, 0.0, root], atol=1e-12)
        assert stats.mean[0] == 2.0
        assert stats.std[0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)

    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        ds = _dataset(rng.normal(5.0, 3.0, size=(50, 4)), rng.integers(0, 3, 50))
        out, _ = normalize(ds)
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.features.var(axis=0), 1.0, atol=1e-12)

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(1)
        ds = _dataset(rng.normal(size=(40, 3)), rng.integers(0, 3, 40))
        once, _ = normalize(ds)
        twice, _ = normalize(once)
        assert np.allclose(once.features, twice.features, atol=1e-12)

    def test_constant_channel_warns_and_zeros(self):
        feats = np.column_stack([np.ones(10), np.arange(10.0)])
        ds = _dataset(feats, np.zeros(10, dtype=int))
        with pytest.warns(UserWarning):
            out, _ = normalize(ds)
        assert np.all(out.features[:, 0] == 0.0)
        assert out.features[:, 1].var() == pytest.approx(1.0, rel=1e-12)

    def test_image_stats_are_per_channel(self):
        rng = np.random.default_rng(2)
        imgs = rng.normal(size=(20, 3, 5, 5)) + np.array([1.0, 2.0, 3.0])[:, None, None]
        stats = compute_norm_stats(imgs)
        assert stats.mean.shape == (3,)
        normed = stats.apply(imgs)
        assert np.allclose(normed.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)

    def test_reusing_stored_stats(self):
        stats = NormStats(mean=np.array([10.0]), std=np.array([2.0]))
        ds = _dataset([[12.0], [8.0]], [0, 1])
        assert np.array_equal(stats.apply(ds.features)[:, 0], [1.0, -1.0])
        out, own = normalize(ds)
        assert np.array_equal(own.apply(ds.features), out.features)


def _warp_one(img, theta, scale, shear):
    """``warp_image`` of one (c, h, w) image, as a one-image batch."""
    return warp_image(img[None], [theta], [scale], [shear])[0]


class TestWarpImage:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(2, 7, 6))
        assert np.array_equal(_warp_one(img, 0.0, 1.0, 0.0), img)

    def test_quarter_turn_permutes_pixels(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # a,b,c,d
        got = _warp_one(img, 90.0, 1.0, 0.0)
        assert np.allclose(got, [[[2.0, 4.0], [1.0, 3.0]]], atol=1e-12)

    def test_four_quarter_turns_return_home(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(1, 5, 5))
        out = img
        for _ in range(4):
            out = _warp_one(out, 90.0, 1.0, 0.0)
        assert np.allclose(out, img, atol=1e-9)

    def test_reflect_padding_keeps_value_range(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0.0, 1.0, size=(1, 6, 6))
        out = _warp_one(img, 25.0, 0.7, 0.08)  # zoom out pulls beyond borders
        assert np.isfinite(out).all()
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_rejects_non_image(self):
        with pytest.raises(ValueError):
            warp_image(np.zeros((4, 4)), 10.0, 1.0, 0.0)
        with pytest.raises(ValueError):  # one unbatched image
            warp_image(np.zeros((1, 4, 4)), [10.0], [1.0], [0.0])

    def test_batch_bit_equal_to_per_image_loop(self):
        rng = np.random.default_rng(9)
        imgs = rng.normal(size=(6, 2, 7, 5)) * 10.0 ** rng.uniform(-8, 8, (6, 2, 7, 5))
        theta, scale, shear = rng.uniform(-30, 30, 6), rng.uniform(0.7, 1.3, 6), rng.uniform(-0.2, 0.2, 6)
        loop = np.stack([_warp_one(imgs[i], theta[i], scale[i], shear[i]) for i in range(6)])
        batch = warp_image(imgs, theta, scale, shear)
        assert np.array_equal(batch.view(np.int64), loop.view(np.int64))

    def test_batch_needs_one_parameter_triple_per_image(self):
        with pytest.raises(ValueError):
            warp_image(np.zeros((3, 1, 4, 4)), [0.0, 1.0], [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            warp_image(np.zeros((1, 1, 4, 4)), 0.0, 1.0, 0.0)


class TestAugment:
    """training._augment_batch: the one augmentation path."""

    def _images(self):
        return np.random.default_rng(6).normal(size=(3, 1, 8, 8))

    def test_flat_sample_passthrough(self):
        flat = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert _augment_batch(flat, np.random.default_rng(0)) is flat

    def test_image_batch_transformed_shape_kept(self):
        imgs = self._images()
        out = _augment_batch(imgs, np.random.default_rng(7))
        assert out.shape == imgs.shape
        assert not np.array_equal(out, imgs)

    def test_seeded_reproducibility(self):
        imgs = self._images()
        a = _augment_batch(imgs, np.random.default_rng(42))
        b = _augment_batch(imgs, np.random.default_rng(42))
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestGenSyntheticShift:
    def test_counts_and_label_policy(self):
        cfg = ShiftConfig(num_classes=2, per_class=500, dim=2)
        src, tgt, ev = gen_synthetic_shift(cfg, np.random.default_rng(0))
        assert len(src) == len(tgt) == 1000
        assert np.all(src.labels >= 0) and src.domain is Domain.SOURCE
        assert np.all(tgt.labels == -1) and tgt.domain is Domain.TARGET
        assert np.bincount(ev).tolist() == [500, 500]

    def test_rotated_means(self):
        cfg = ShiftConfig(num_classes=2, per_class=800, dim=2, radius=2.0,
                          rotation_deg=45.0)
        src, tgt, ev = gen_synthetic_shift(cfg, np.random.default_rng(1))
        r2 = math.sqrt(2.0)
        m0 = src.features[src.labels == 0].mean(axis=0)
        t0 = tgt.features[ev == 0].mean(axis=0)
        t1 = tgt.features[ev == 1].mean(axis=0)
        assert np.allclose(m0, [2.0, 0.0], atol=0.15)
        assert np.allclose(t0, [r2, r2], atol=0.15)
        assert np.allclose(t1, [-r2, -r2], atol=0.15)

    def test_zero_shift_matches_source_distribution(self):
        cfg = ShiftConfig(num_classes=3, per_class=600, dim=4, rotation_deg=0.0)
        src, tgt, ev = gen_synthetic_shift(cfg, np.random.default_rng(2))
        for k in range(3):
            a = src.features[src.labels == k].mean(axis=0)
            b = tgt.features[ev == k].mean(axis=0)
            assert np.allclose(a, b, atol=0.2)

    def test_translation_and_storage_rounding(self):
        cfg = ShiftConfig(num_classes=2, per_class=300, dim=3, rotation_deg=0.0,
                          translation=(5.0, 0.0, 0.0))
        src, tgt, ev = gen_synthetic_shift(cfg, np.random.default_rng(3))
        shiftd = tgt.features[ev == 0].mean(axis=0) - src.features[src.labels == 0].mean(axis=0)
        assert np.allclose(shiftd, [5.0, 0.0, 0.0], atol=0.25)
        for ds in (src, tgt):
            f32 = ds.features.astype(np.float32).astype(np.float64)
            assert np.array_equal(f32, ds.features)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShiftConfig(num_classes=1)
        with pytest.raises(ValueError):
            ShiftConfig(translation=(1.0,), dim=2)
        with pytest.raises(ValueError):
            ShiftConfig(noise_sigma=-0.1)


class TestBinaryFormat:
    def _roundtrip(self, tmp_path, ds, domain):
        p = tmp_path / "ds.hda"
        write_dataset(p, ds)
        return read_dataset(p, domain)

    def test_flat_roundtrip_bit_exact(self, tmp_path):
        cfg = ShiftConfig(num_classes=2, per_class=20, dim=3)
        src, tgt, _ = gen_synthetic_shift(cfg, np.random.default_rng(4))
        back = self._roundtrip(tmp_path, src, Domain.SOURCE)
        assert np.array_equal(back.features, src.features)
        assert np.array_equal(back.labels, src.labels)
        assert back.num_classes == 2 and back.feature_dims == (3,)
        t_back = self._roundtrip(tmp_path, tgt, Domain.TARGET)
        assert np.array_equal(t_back.features, tgt.features)

    def test_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(6, 2, 4, 4)).astype(np.float32).astype(np.float64)
        ds = Dataset(feats, rng.integers(0, 2, 6), Domain.SOURCE, 2)
        back = self._roundtrip(tmp_path, ds, Domain.SOURCE)
        assert back.feature_dims == (2, 4, 4)
        assert np.array_equal(back.features, ds.features)

    @pytest.mark.parametrize("dims", [(3,), (2, 4, 4)])
    def test_empty_roundtrip(self, tmp_path, dims):
        ds = Dataset(np.zeros((0,) + dims), np.zeros(0, dtype=np.int64), Domain.TARGET, 2)
        back = self._roundtrip(tmp_path, ds, Domain.TARGET)
        assert len(back) == 0 and back.feature_dims == dims and back.num_classes == 2

    def test_label_file_roundtrip(self, tmp_path):
        p = tmp_path / "labels.hda"
        write_label_file(p, [0, 1, 1, 0], dims=(2, 4, 4), num_classes=2)
        labels, dims, m = read_label_file(p)
        assert labels.tolist() == [0, 1, 1, 0]
        assert dims == (2, 4, 4) and m == 2

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.hda"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataFormatError, match="byte 0"):
            read_dataset(p, Domain.SOURCE)

    def test_truncated_payload_names_offset(self, tmp_path):
        ds = _dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        p = tmp_path / "t.hda"
        write_dataset(p, ds)
        whole = p.read_bytes()
        p.write_bytes(whole[:-5])
        with pytest.raises(DataFormatError, match="truncated"):
            read_dataset(p, Domain.SOURCE)

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = _dataset([[1.0, 2.0]], [0])
        p = tmp_path / "t.hda"
        write_dataset(p, ds)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(DataFormatError, match="trailing"):
            read_dataset(p, Domain.SOURCE)

    def test_unsupported_version(self, tmp_path):
        ds = _dataset([[1.0]], [0])
        p = tmp_path / "t.hda"
        write_dataset(p, ds)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            read_dataset(p, Domain.SOURCE)

    def test_domain_label_policy_enforced(self, tmp_path):
        labeled = _dataset([[1.0], [2.0]], [0, 1], m=2)
        p = tmp_path / "t.hda"
        write_dataset(p, labeled)
        with pytest.raises(DataFormatError, match="label"):
            read_dataset(p, Domain.TARGET)  # labels may not enter via target
        unlabeled = Dataset(np.ones((2, 1)), [-1, -1], Domain.TARGET, 2)
        write_dataset(p, unlabeled)
        with pytest.raises(DataFormatError, match="unlabeled"):
            read_dataset(p, Domain.SOURCE)

    def test_out_of_range_label_in_file(self, tmp_path):
        ds = _dataset([[1.0]], [0], m=2)
        p = tmp_path / "t.hda"
        write_dataset(p, ds)
        raw = bytearray(p.read_bytes())
        raw[-4:] = (7).to_bytes(4, "little")  # label beyond class count
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="outside"):
            read_dataset(p, Domain.SOURCE)

    def test_non_finite_features_rejected(self, tmp_path):
        ds = _dataset([[1.0]], [0], m=2)
        p = tmp_path / "t.hda"
        write_dataset(p, ds)
        raw = bytearray(p.read_bytes())
        raw[-8:-4] = np.float32(np.nan).tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="non-finite"):
            read_dataset(p, Domain.SOURCE)

    def test_mixed_up_file_kinds_fail(self, tmp_path):
        ds = _dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], m=2)
        dsp, lp = tmp_path / "d.hda", tmp_path / "l.hda"
        write_dataset(dsp, ds)
        write_label_file(lp, ds.labels, dims=(2,), num_classes=2)
        with pytest.raises(DataFormatError):
            read_label_file(dsp)
        with pytest.raises(DataFormatError):
            read_dataset(lp, Domain.SOURCE)


class TestTwoDomainSampler:
    def _toy(self, ns=10, nt=14, dim=3, m=3, seed=0):
        rng = np.random.default_rng(seed)
        src = Dataset(rng.normal(size=(ns, dim)), rng.integers(0, m, ns), Domain.SOURCE, m)
        tgt = Dataset(rng.normal(size=(nt, dim)), np.full(nt, -1), Domain.TARGET, m)
        return src, tgt

    def test_batch_layout(self):
        src, tgt = self._toy()
        s = TwoDomainSampler(src, tgt, batch_size=4, rng=np.random.default_rng(1))
        b = s.sample_batch()
        assert len(b) == 4 and b.source_count == 2
        assert np.all(b.labels[:2] >= 0) and np.all(b.labels[2:] == -1)
        assert np.array_equal(b.features[:2], src.features[b.ids[:2]])
        assert np.array_equal(b.features[2:], tgt.features[b.ids[2:]])

    def test_rows_match_origin_datasets(self):
        src, tgt = self._toy()
        s = TwoDomainSampler(src, tgt, batch_size=6, rng=np.random.default_rng(2))
        b = s.sample_batch()
        for i in range(3):
            assert np.array_equal(b.features[i], src.features[b.ids[i]])
            assert b.labels[i] == src.labels[b.ids[i]]
        for i in range(3, 6):
            assert np.array_equal(b.features[i], tgt.features[b.ids[i]])

    def test_epoch_length(self):
        src, tgt = self._toy(ns=10, nt=25)
        s = TwoDomainSampler(src, tgt, batch_size=8, rng=np.random.default_rng(3))
        assert s.epoch_length == math.ceil(25 / 4)

    def test_within_batch_distinct_when_domain_big_enough(self):
        src, tgt = self._toy(ns=12, nt=12)
        s = TwoDomainSampler(src, tgt, batch_size=8, rng=np.random.default_rng(4))
        for b in s.epoch():
            assert len(set(b.ids[:4].tolist())) == 4
            assert len(set(b.ids[4:].tolist())) == 4

    def test_epoch_touch_bound_on_larger_domain(self):
        for seed in range(6):
            src, tgt = self._toy(ns=9, nt=23, seed=seed)
            s = TwoDomainSampler(src, tgt, batch_size=8, rng=np.random.default_rng(seed))
            counts = np.zeros(23, dtype=int)
            batches = 0
            for b in s.epoch():
                counts[b.ids[4:]] += 1
                batches += 1
            bound = math.ceil(batches * 4 / 23)
            assert counts.max() <= bound

    def test_seeded_determinism(self):
        src, tgt = self._toy()
        runs = []
        for _ in range(2):
            s = TwoDomainSampler(src, tgt, batch_size=6, rng=np.random.default_rng(99))
            runs.append([b.ids.tolist() for b in s.epoch()])
        assert runs[0] == runs[1]

    def test_small_domain_replacement_warning(self):
        src, tgt = self._toy(ns=2, nt=20)
        with pytest.warns(UserWarning, match="replacement"):
            s = TwoDomainSampler(src, tgt, batch_size=8, rng=np.random.default_rng(5))
        b = s.sample_batch()
        assert len(b) == 8  # still full batches, source rows repeat

    def test_validation(self):
        src, tgt = self._toy()
        with pytest.raises(ValueError):
            TwoDomainSampler(src, tgt, batch_size=5, rng=np.random.default_rng(0))
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), Domain.TARGET, 3)
        with pytest.raises(ValueError):
            TwoDomainSampler(src, empty, batch_size=4, rng=np.random.default_rng(0))

    def test_half_of_256_per_domain(self):
        src, tgt = self._toy(ns=130, nt=130)
        s = TwoDomainSampler(src, tgt, batch_size=256, rng=np.random.default_rng(6))
        b = s.sample_batch()
        assert len(b) == 256 and b.source_count == 128
