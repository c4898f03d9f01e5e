"""Datasets, domain-shifted synthetic data, and the two-domain sampler.

Source samples carry class labels; target samples carry -1. Target
ground truth lives in a separate label file that training code never
opens, so the unsupervised contract is enforced by file layout, not
discipline. Binary formats are little-endian with explicit magic and
version so corpora written here can be read bit-exactly elsewhere.
"""

from __future__ import annotations

import enum
import math
import os
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "Domain",
    "Dataset",
    "Batch",
    "NormStats",
    "DataFormatError",
    "ShiftConfig",
    "TwoDomainSampler",
    "normalize",
    "compute_norm_stats",
    "warp_image",
    "gen_synthetic_shift",
    "write_dataset",
    "read_dataset",
    "write_label_file",
    "read_label_file",
]

MAGIC = b"HDA1"
FORMAT_VERSION = 1
# float32 values per sample: a record of them and its label must fit numpy's
# item size, a C int of bytes
_MAX_SAMPLE_VALUES = (2**31 - 1 - 4) // 4


class DataFormatError(ValueError):
    """Raised when a dataset or label file fails structural validation."""


class Domain(enum.Enum):
    SOURCE = "source"
    TARGET = "target"


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable collection of same-shaped samples from one domain."""

    features: np.ndarray  # (N, *dims) float64, read-only
    labels: np.ndarray  # (N,) int64, -1 = unknown, read-only
    domain: Domain
    num_classes: int

    def __post_init__(self):
        # private copies: freezing a caller's array would be a rude surprise
        f = np.array(self.features, dtype=np.float64, order="C")
        l = np.array(self.labels, dtype=np.int64)
        if f.ndim < 2:
            raise ValueError(f"features must be (N, ...), got shape {f.shape}")
        if l.shape != (f.shape[0],):
            raise ValueError(f"{f.shape[0]} samples but {l.shape} labels")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if l.size and (l.min() < -1 or l.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [-1, {self.num_classes}), got range "
                f"[{l.min()}, {l.max()}]"
            )
        object.__setattr__(self, "features", _frozen(f))
        object.__setattr__(self, "labels", _frozen(l))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dims(self) -> tuple:
        return self.features.shape[1:]


@dataclass(frozen=True, eq=False)
class Batch:
    """One training batch: source block first, then target block.

    ``ids`` index into the originating dataset of each row's domain;
    target rows start with label -1 (pseudo-labels are merged in later
    by the trainer).
    """

    features: np.ndarray  # (B, *dims)
    labels: np.ndarray  # (B,) int64
    ids: np.ndarray  # (B,) int64, per-domain sample ids
    source_count: int

    def __len__(self) -> int:
        return self.features.shape[0]


# -- normalization -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-channel mean and standard deviation of a training split.

    For flat data a channel is one feature dimension; for images it is
    one image channel (statistics pooled over samples and pixels).
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        mean, std = self.mean, self.std
        if features.ndim == 4:  # (N, c, h, w): broadcast over pixels
            mean = mean[:, None, None]
            std = std[:, None, None]
        return (features - mean) / std


def compute_norm_stats(features: np.ndarray, var_floor: float = 1e-8) -> NormStats:
    """Population mean/variance per channel, variance clamped from below."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 4:
        axes = (0, 2, 3)
    elif x.ndim == 2:
        axes = (0,)
    else:
        raise ValueError(f"expected (N, D) or (N, c, h, w) features, got {x.shape}")
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)  # population variance, matches the stated contract
    if np.any(var < var_floor):
        warnings.warn(
            f"{int((var < var_floor).sum())} channel(s) have near-zero variance; "
            f"clamping to {var_floor}",
            stacklevel=2,
        )
        var = np.maximum(var, var_floor)
    return NormStats(mean=_frozen(mean), std=_frozen(np.sqrt(var)))


def normalize(dataset: Dataset, stats: NormStats | None = None) -> tuple[Dataset, NormStats]:
    """Shift each channel to mean 0 and scale to unit variance.

    With ``stats=None`` the statistics come from this dataset (each
    dataset normalizes independently); pass stored stats to reproduce
    the training-time transform at inference.
    """
    if stats is None:
        stats = compute_norm_stats(dataset.features)
    out = replace(dataset, features=stats.apply(dataset.features))
    return out, stats


# -- augmentation --------------------------------------------------------------


def _reflect(idx: np.ndarray, n: int) -> np.ndarray:
    # mirror out-of-range indices back into [0, n-1] without repeating edges
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    idx = np.abs(idx) % period
    return np.where(idx > n - 1, period - idx, idx)


def warp_image(img: np.ndarray, theta_deg, scale, shear) -> np.ndarray:
    """Affine warp of a (c, h, w) image about its center, or of each image
    of a (B, c, h, w) batch given length-B parameter sequences.

    Forward map is rotation(theta) . scale . shear applied to (row, col)
    offsets; pixels are pulled through the inverse map with bilinear
    interpolation and reflected at the borders. Identity parameters
    reproduce the input exactly.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3:
        return warp_image(img[None], [theta_deg], [scale], [shear])[0]
    if img.ndim != 4 or {np.shape(p) for p in (theta_deg, scale, shear)} != {img.shape[:1]}:
        raise ValueError(f"expected a (c, h, w) image or a (B, c, h, w) batch with B "
                         f"parameter triples, got shape {img.shape}")
    b, c, h, w = img.shape
    inv = []  # inverse-map coefficients per image, in Python float arithmetic
    for t, s, sh in zip(theta_deg, scale, shear):
        th = math.radians(t)
        cos, sin = math.cos(th), math.sin(th)
        # M = R(theta) @ (s * I) @ [[1, sh], [0, 1]]
        m00, m01 = s * cos, s * (cos * sh - sin)
        m10, m11 = s * sin, s * (sin * sh + cos)
        det = m00 * m11 - m01 * m10
        inv.append((m11 / det, -m01 / det, -m10 / det, m00 / det))
    i00, i01, i10, i11 = np.array(inv).T.reshape(4, b, 1, 1, 1)

    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    dr = np.arange(h, dtype=np.float64)[:, None] - cr
    dc = np.arange(w, dtype=np.float64)[None, :] - cc
    src_r = i00 * dr + i01 * dc + cr  # (B, 1, h, w)
    src_c = i10 * dr + i11 * dc + cc

    r0, c0 = np.floor(src_r).astype(np.int64), np.floor(src_c).astype(np.int64)
    fr, fc = src_r - r0, src_c - c0
    r0r, r1r = _reflect(r0, h), _reflect(r0 + 1, h)
    c0r, c1r = _reflect(c0, w), _reflect(c0 + 1, w)
    bi, ci = np.arange(b)[:, None, None, None], np.arange(c)[None, :, None, None]
    return (
        img[bi, ci, r0r, c0r] * ((1 - fr) * (1 - fc))
        + img[bi, ci, r0r, c1r] * ((1 - fr) * fc)
        + img[bi, ci, r1r, c0r] * (fr * (1 - fc))
        + img[bi, ci, r1r, c1r] * (fr * fc)
    )


# -- synthetic domain-shift generator ------------------------------------------


@dataclass(frozen=True)
class ShiftConfig:
    """Controls the synthetic source/target pair.

    Source classes are isotropic Gaussian blobs; the target domain is
    the same blobs pushed through a rotation (in the first two feature
    dimensions), a translation, and an optional covariance rescale.
    """

    num_classes: int = 2
    per_class: int = 500
    dim: int = 2
    radius: float = 2.0
    noise_sigma: float = 1.0
    rotation_deg: float = 45.0
    translation: tuple = ()
    cov_scale: float = 1.0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.per_class < 1 or self.dim < 1:
            raise ValueError("per_class and dim must be positive")
        if self.noise_sigma < 0 or self.cov_scale <= 0:
            raise ValueError("noise_sigma must be >= 0 and cov_scale > 0")
        tr = tuple(float(v) for v in self.translation)
        if tr and len(tr) != self.dim:
            raise ValueError(f"translation has {len(tr)} entries for dim {self.dim}")
        if not all(map(math.isfinite, (self.radius, self.noise_sigma, self.rotation_deg,
                                       self.cov_scale, *tr))):
            raise ValueError("radius, noise_sigma, rotation_deg, translation and cov_scale "
                             "must be finite")
        object.__setattr__(self, "translation", tr)


def _class_means(cfg: ShiftConfig) -> np.ndarray:
    m = np.zeros((cfg.num_classes, cfg.dim))
    if cfg.dim == 1:
        m[:, 0] = np.linspace(-cfg.radius, cfg.radius, cfg.num_classes)
    else:
        ang = 2 * np.pi * np.arange(cfg.num_classes) / cfg.num_classes
        m[:, 0] = cfg.radius * np.cos(ang)
        m[:, 1] = cfg.radius * np.sin(ang)
    return m


def _rotation_matrix(cfg: ShiftConfig) -> np.ndarray:
    rot = np.eye(cfg.dim)
    if cfg.dim >= 2 and cfg.rotation_deg != 0.0:
        th = math.radians(cfg.rotation_deg)
        rot[0, 0] = rot[1, 1] = math.cos(th)
        rot[0, 1] = -math.sin(th)
        rot[1, 0] = math.sin(th)
    return rot


def gen_synthetic_shift(
    cfg: ShiftConfig, rng: np.random.Generator
) -> tuple[Dataset, Dataset, np.ndarray]:
    """Draw a labeled source set and a shifted unlabeled target set.

    Returns (source, target, target_eval_labels). The target dataset
    itself carries -1 everywhere; its true labels are only in the third
    element, which callers should route to a separate label file.
    """
    means = _class_means(cfg)
    rot = _rotation_matrix(cfg)
    tr = np.asarray(cfg.translation or np.zeros(cfg.dim))

    def blob(scale):
        feats, labs = [], []
        for k in range(cfg.num_classes):
            z = rng.normal(size=(cfg.per_class, cfg.dim))
            feats.append(means[k] + cfg.noise_sigma * scale * z)
            labs.append(np.full(cfg.per_class, k, dtype=np.int64))
        return np.concatenate(feats), np.concatenate(labs)

    # extreme finite settings overflow here, which the check below refuses;
    # rounding through storage precision makes writing and re-reading the
    # generated files reproduce these exact values
    with np.errstate(over="ignore", invalid="ignore"):
        src_x, src_y = blob(1.0)
        tgt_x, tgt_y = blob(cfg.cov_scale)
        tgt_x = tgt_x @ rot.T + tr
        src_x = src_x.astype(np.float32).astype(np.float64)
        tgt_x = tgt_x.astype(np.float32).astype(np.float64)
    if not (np.isfinite(src_x).all() and np.isfinite(tgt_x).all()):
        raise ValueError("generated features overflow 32-bit storage")

    source = Dataset(src_x, src_y, Domain.SOURCE, cfg.num_classes)
    target = Dataset(tgt_x, np.full(len(tgt_y), -1, dtype=np.int64),
                     Domain.TARGET, cfg.num_classes)
    return source, target, tgt_y


# -- binary file formats -------------------------------------------------------


class _Reader:
    def __init__(self, path):
        with open(path, "rb") as fh:
            self.buf = fh.read()
        self.off = 0
        self.path = str(path)

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.buf):
            raise DataFormatError(
                f"{self.path}: truncated {what} at byte {self.off}: "
                f"need {n} bytes, have {len(self.buf) - self.off}"
            )
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def done(self, what: str) -> None:
        left = len(self.buf) - self.off
        if left:
            raise DataFormatError(f"{self.path}: {left} trailing bytes after {what} at byte {self.off}")


def _read_header(r: _Reader, magic: bytes) -> tuple[int, tuple, int]:
    got = r.take(4, "magic")
    if got != magic:
        raise DataFormatError(f"{r.path}: bad magic {got!r} at byte 0, expected {magic!r}")
    version = r.u32("version")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{r.path}: unsupported version {version} at byte 4")
    count = r.u32("sample count")
    rank = r.u32("rank")
    if rank == 0 or rank > 8:
        raise DataFormatError(f"{r.path}: implausible rank {rank} at byte 12")
    dims = tuple(r.u32(f"dim {i}") for i in range(rank))
    if any(d == 0 for d in dims):
        raise DataFormatError(f"{r.path}: zero-sized dimension in {dims}")
    if math.prod(dims) > _MAX_SAMPLE_VALUES:
        raise DataFormatError(f"{r.path}: dims {dims} at byte 16 make more than "
                              f"{_MAX_SAMPLE_VALUES} values per sample")
    m = r.u32("class count")
    if m < 2:
        raise DataFormatError(f"{r.path}: class count {m} below 2")
    return count, dims, m


def _pack_header(magic: bytes, count: int, dims: tuple, m: int) -> bytes:
    return (
        magic
        + struct.pack("<III", FORMAT_VERSION, count, len(dims))
        + struct.pack(f"<{len(dims)}I", *dims)
        + struct.pack("<I", m)
    )


def _write_atomic(path, data) -> None:
    """Write bytes or byte chunks through a temp file and a rename: a failed write keeps the old file."""
    tmp = Path(f"{path}.tmp")
    try:
        with tmp.open("wb") as f:
            f.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_dataset(path, dataset: Dataset) -> None:
    """Serialize features (32-bit reals) and labels, little-endian."""
    dims = dataset.feature_dims
    width = int(np.prod(dims))
    rec = np.dtype([("features", "<f4", (width,)), ("label", "<i4")])
    payload = np.empty(len(dataset), dtype=rec)
    payload["features"] = dataset.features.reshape(len(dataset), width).astype("<f4")
    payload["label"] = dataset.labels.astype("<i4")
    _write_atomic(path, _pack_header(MAGIC, len(dataset), dims, dataset.num_classes)
                  + payload.tobytes())


def read_dataset(path, domain: Domain) -> Dataset:
    """Load and validate a dataset file for the stated domain.

    Source files must be fully labeled; target files must carry -1
    everywhere. Violations are format errors, not warnings, so a target
    file can never smuggle labels into training.
    """
    r = _Reader(path)
    count, dims, m = _read_header(r, MAGIC)
    rec = np.dtype([("features", "<f4", (math.prod(dims),)), ("label", "<i4")])
    payload = np.frombuffer(r.take(count * rec.itemsize, "sample payload"), dtype=rec)
    r.done("sample payload")
    feats = payload["features"].astype(np.float64).reshape((count,) + dims)
    labels = payload["label"].astype(np.int64)
    if labels.size:
        bad = np.nonzero((labels < -1) | (labels >= m))[0]
        if bad.size:
            raise DataFormatError(
                f"{r.path}: sample {bad[0]} has label {labels[bad[0]]}, outside [-1, {m})"
            )
        if domain is Domain.SOURCE and labels.min() < 0:
            i = int(np.argmin(labels))
            raise DataFormatError(f"{r.path}: source sample {i} is unlabeled")
        if domain is Domain.TARGET and labels.max() >= 0:
            i = int(np.argmax(labels))
            raise DataFormatError(
                f"{r.path}: target sample {i} carries label {labels[i]}; "
                f"ground truth belongs in the separate label file"
            )
    if not np.isfinite(feats).all():
        i = int(np.nonzero(~np.isfinite(feats).reshape(count, -1).all(axis=1))[0][0])
        raise DataFormatError(f"{r.path}: sample {i} has non-finite features")
    return Dataset(feats, labels, domain, m)


def write_label_file(path, labels, dims: tuple, num_classes: int) -> None:
    """Sidecar label file: dataset header plus labels only."""
    lab = np.asarray(labels, dtype="<i4")
    _write_atomic(path, _pack_header(MAGIC, lab.size, tuple(dims), num_classes) + lab.tobytes())


def read_label_file(path) -> tuple[np.ndarray, tuple, int]:
    """Returns (labels, feature dims of the companion dataset, class count)."""
    r = _Reader(path)
    count, dims, m = _read_header(r, MAGIC)
    labels = np.frombuffer(r.take(count * 4, "label payload"), dtype="<i4").astype(np.int64)
    r.done("label payload")
    if labels.size and (labels.min() < 0 or labels.max() >= m):
        i = int(np.argmin(labels) if labels.min() < 0 else np.argmax(labels))
        raise DataFormatError(f"{r.path}: label {labels[i]} at sample {i} outside [0, {m})")
    return labels, dims, m


# -- batch sampling ------------------------------------------------------------


class TwoDomainSampler:
    """Draws half-source half-target batches on an epoch schedule.

    Each domain keeps its own shuffled permutation and hands out
    consecutive blocks; when fewer than a block remain the permutation
    is reshuffled (the ragged tail is dropped, keeping rows within one
    batch distinct). A domain smaller than half a batch falls back to
    sampling with replacement.
    """

    def __init__(self, source: Dataset, target: Dataset, batch_size: int,
                 rng: np.random.Generator):
        if batch_size < 2 or batch_size % 2:
            raise ValueError(f"batch size must be even and >= 2, got {batch_size}")
        if not len(source) or not len(target):
            raise ValueError("both domains must be non-empty")
        self.source = source
        self.target = target
        self.half = batch_size // 2
        self.rng = rng
        self._perm = {}
        self._pos = {}
        for dom, ds in ((Domain.SOURCE, source), (Domain.TARGET, target)):
            if len(ds) < self.half:
                warnings.warn(
                    f"{dom.value} domain has {len(ds)} samples, fewer than the "
                    f"half-batch {self.half}; sampling with replacement",
                    stacklevel=2,
                )
                self._perm[dom] = None
            else:
                self._perm[dom] = self.rng.permutation(len(ds))
                self._pos[dom] = 0

    @property
    def epoch_length(self) -> int:
        """Batches per epoch: enough blocks to cover the larger domain."""
        biggest = max(len(self.source), len(self.target))
        return math.ceil(biggest / self.half)

    def _draw(self, dom: Domain, n: int) -> np.ndarray:
        if self._perm[dom] is None:
            return self.rng.integers(0, n, size=self.half)
        if self._pos[dom] + self.half > n:
            self._perm[dom] = self.rng.permutation(n)
            self._pos[dom] = 0
        out = self._perm[dom][self._pos[dom]:self._pos[dom] + self.half]
        self._pos[dom] += self.half
        return out

    def sample_batch(self) -> Batch:
        src_idx = self._draw(Domain.SOURCE, len(self.source))
        tgt_idx = self._draw(Domain.TARGET, len(self.target))
        feats = np.concatenate(
            [self.source.features[src_idx], self.target.features[tgt_idx]]
        )
        labels = np.concatenate(
            [self.source.labels[src_idx], self.target.labels[tgt_idx]]
        )
        ids = np.concatenate([src_idx, tgt_idx]).astype(np.int64)
        return Batch(features=feats, labels=labels, ids=ids, source_count=self.half)

    def epoch(self):
        for _ in range(self.epoch_length):
            yield self.sample_batch()
