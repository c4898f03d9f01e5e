"""The network: backbone, graph layer, classifier head.

The training path runs backbone -> graph layer -> classifier, where the
graph layer mixes each row with its batch neighbors:

    f_i = ReLU(phi_i) w theta1 + sum_{j in N(i)} ReLU(phi_j) w theta2

(row vectors, unnormalized neighbor sum, no bias inside the layer).
Inference (``Model.infer``) runs the same three stages with no edges,
so only the theta1 branch survives and each sample's prediction is
independent of whatever else shares its batch.

A checkpoint holds the weights, the architecture (``config_to_tensors``)
and the run entries (``run_to_tensors``): the epoch, the graph threshold
or its percentile, the positive class, and each domain's normalization.
``config_from_tensors`` and ``run_from_tensors`` read and validate them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import ShapeError, Tensor, add, conv3x3_relu, matmul, no_trace, relu
from .datasets import DataFormatError, NormStats, _Reader, _write_atomic
from .graphs import BatchGraph

__all__ = [
    "ModelConfig",
    "Model",
    "save_checkpoint",
    "load_checkpoint",
    "config_to_tensors",
    "config_from_tensors",
    "RunMeta",
    "run_to_tensors",
    "run_from_tensors",
]

CHECKPOINT_MAGIC = b"HDAP"
CHECKPOINT_VERSION = 1
_INFER_VALUES = 2 ** 14  # input values per inference chunk, which bound its activations' memory


@dataclass(frozen=True)
class ModelConfig:
    """Static architecture description.

    ``input_dims`` is (D,) for flat features or (c, h, w) for images.
    ``backbone_hidden`` is the hidden width of the two-layer MLP backbone;
    it is ignored for images, which always use the small conv stack.
    """

    input_dims: tuple
    num_classes: int
    hidden: int = 64
    phi_dim: int = 64
    backbone_hidden: int = 64
    conv_channels: tuple = (8, 16)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.input_dims)
        chans = tuple(int(c) for c in self.conv_channels)
        object.__setattr__(self, "input_dims", dims)
        object.__setattr__(self, "conv_channels", chans)
        if len(dims) not in (1, 3) or any(d < 1 for d in dims):
            raise ValueError(f"input_dims must be (D,) or (c, h, w), got {dims}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if min(self.hidden, self.phi_dim, self.backbone_hidden) < 1:
            raise ValueError("hidden, phi_dim and backbone_hidden must be >= 1")
        if len(chans) != 2 or any(c < 1 for c in chans):
            raise ValueError(f"conv_channels must be two positive ints, got {chans}")

    @property
    def is_image(self) -> bool:
        return len(self.input_dims) == 3


def _param_shapes(cfg: ModelConfig) -> list:
    """Parameter table in creation order; init draws follow this order."""
    shapes = []
    if cfg.is_image:
        c = cfg.input_dims[0]
        c1, c2 = cfg.conv_channels
        shapes += [
            ("backbone/conv1", (c * 9, c1), c * 9),
            ("backbone/cb1", (c1,), None),
            ("backbone/conv2", (c1 * 9, c2), c1 * 9),
            ("backbone/cb2", (c2,), None),
            ("backbone/w3", (c2, cfg.phi_dim), c2),
            ("backbone/b3", (cfg.phi_dim,), None),
        ]
    else:
        d, h1 = cfg.input_dims[0], cfg.backbone_hidden
        shapes += [
            ("backbone/w1", (d, h1), d),
            ("backbone/b1", (h1,), None),
            ("backbone/w2", (h1, cfg.phi_dim), h1),
            ("backbone/b2", (cfg.phi_dim,), None),
        ]
    shapes += [
        ("w", (cfg.phi_dim, cfg.hidden), cfg.phi_dim),
        ("theta1", (cfg.hidden, cfg.hidden), cfg.hidden),
        ("theta2", (cfg.hidden, cfg.hidden), cfg.hidden),
        ("fc2/w", (cfg.hidden, cfg.num_classes), cfg.hidden),
        ("fc2/b", (cfg.num_classes,), None),
    ]
    return shapes


class Model:
    """Holds the parameter tensors and the forward passes."""

    def __init__(self, config: ModelConfig, params: dict):
        self.config = config
        self.params = params
        self._spares = ([], [])  # each conv layer's spare patch buffer, lent to its node

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "Model":
        """Fan-in-scaled normal weights (std = sqrt(2/fan_in)), zero biases."""
        params = {}
        for name, shape, fan_in in _param_shapes(config):
            if fan_in is None:
                params[name] = Tensor(np.zeros(shape))
            else:
                std = np.sqrt(2.0 / fan_in)
                params[name] = Tensor(rng.normal(0.0, std, size=shape))
        return cls(config, params)

    def parameters(self) -> list:
        """(name, tensor) pairs in fixed order; each appears exactly once."""
        return [(name, self.params[name]) for name, _, _ in _param_shapes(self.config)]

    # -- forward passes --------------------------------------------------------

    def _as_input(self, features):
        # a plain array is a constant: no closure computes its gradient
        x = features if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
        if x.shape[1:] != self.config.input_dims:
            raise ShapeError(
                f"batch features {x.shape} do not match configured input dims "
                f"{self.config.input_dims}"
            )
        return x

    def chunks(self, n: int) -> list:
        """Row slices for inference over ``n`` rows, each of at most
        ``_INFER_VALUES`` input values (or one row, if a row holds more)."""
        step = max(1, _INFER_VALUES // math.prod(self.config.input_dims))
        return [slice(lo, lo + step) for lo in range(0, n, step)]

    def backbone_forward(self, features) -> Tensor:
        """Extract (B, phi_dim) features; shared weights for both domains."""
        x = self._as_input(features)
        p = self.params
        if self.config.is_image:
            b = x.shape[0]
            c, h, w = self.config.input_dims
            # channels-last (B, h, w, c) activations; a view of x when c == 1
            y = x.reshape((b, h, w, 1)) if c == 1 else x.transpose((0, 2, 3, 1))
            for i, spare in enumerate(self._spares, 1):
                y = conv3x3_relu(y, p[f"backbone/conv{i}"], p[f"backbone/cb{i}"], spare)
            # pooling sums an NCHW copy: that summation order sets the bits of phi
            pooled = y.transpose((0, 3, 1, 2)).mean(axis=(2, 3))
            return add(matmul(pooled, p["backbone/w3"]), p["backbone/b3"])
        y = relu(add(matmul(x, p["backbone/w1"]), p["backbone/b1"]))
        return add(matmul(y, p["backbone/w2"]), p["backbone/b2"])

    def gnn_forward(self, phi: Tensor, graph: BatchGraph | None) -> Tensor:
        """Graph layer; ``graph=None`` or an empty edge set keeps only the
        self branch, which is exactly the inference path."""
        if graph is not None and graph.num_nodes != phi.shape[0]:
            raise ShapeError(
                f"graph has {graph.num_nodes} nodes but batch has {phi.shape[0]} rows"
            )
        base = matmul(relu(phi), self.params["w"])
        out = matmul(base, self.params["theta1"])
        if graph is not None and graph.num_edges > 0:
            neighbor = matmul(graph.adjacency(), base)
            out = out + matmul(neighbor, self.params["theta2"])
        return out

    def classify(self, f: Tensor) -> Tensor:
        """Class logits of the (B, hidden) graph-layer output; ``infer``
        turns them into probabilities and training's loss reads them raw."""
        return add(matmul(f, self.params["fc2/w"]), self.params["fc2/b"])

    def infer(self, features) -> tuple[np.ndarray, np.ndarray]:
        """Graph-free inference over any number of rows: the (N, phi_dim)
        backbone features and the (N, m) class probabilities as float64
        arrays. Rows run in ``chunks`` only to bound memory; the
        graph-free path never mixes one row into another. The same forward
        passes as training run under ``no_trace``, so no chunk builds a trace;
        the probabilities are the row-max-shifted softmax of the logits."""
        x = np.asarray(features, dtype=np.float64)
        phi = [np.empty((0, self.config.phi_dim))]
        probs = [np.empty((0, self.config.num_classes))]
        with no_trace():
            for rows in self.chunks(x.shape[0]):
                p = self.backbone_forward(x[rows])
                phi.append(p.data)
                logits = self.classify(self.gnn_forward(p, None)).data
                e = np.exp(logits - logits.max(axis=-1, keepdims=True))
                probs.append(e / e.sum(axis=-1, keepdims=True))
        return np.concatenate(phi), np.concatenate(probs)

    # -- parameter state -------------------------------------------------------

    def state(self) -> dict:
        return {name: tensor.data.copy() for name, tensor in self.parameters()}

    def load_state(self, tensors: dict) -> None:
        for name, _, _ in _param_shapes(self.config):
            if name not in tensors:
                raise DataFormatError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(tensors[name], dtype=np.float64)
            if arr.shape != self.params[name].shape:
                raise DataFormatError(
                    f"parameter {name!r} has shape {arr.shape}, expected "
                    f"{self.params[name].shape}"
                )
            if not np.isfinite(arr).all():
                raise DataFormatError(f"parameter {name!r} holds non-finite values")
            self.params[name].data = arr.copy()
            self.params[name].zero_grad()

    @classmethod
    def from_state(cls, config: ModelConfig, tensors: dict) -> "Model":
        """A model holding ``tensors``; zero buffers stand in until they load."""
        model = cls(config, {name: Tensor(np.zeros(shape))
                             for name, shape, _ in _param_shapes(config)})
        model.load_state(tensors)
        return model


# -- checkpoint file format ----------------------------------------------------


def save_checkpoint(path, tensors: dict) -> None:
    """Named float64 tensors, little-endian, names sorted for stable bytes."""
    names = sorted(tensors)
    head = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(names))]
    body = []
    for name in names:
        arr = np.asarray(tensors[name], dtype=np.float64)
        nb = name.encode("utf-8")
        head.append(struct.pack("<I", len(nb)) + nb)
        head.append(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
        body.append(arr.astype("<f8").tobytes(order="C"))
    _write_atomic(path, b"".join(head) + b"".join(body))


def load_checkpoint(path) -> dict:
    r = _Reader(path)
    got = r.take(4, "magic")
    if got != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{r.path}: bad magic {got!r} at byte 0, expected {CHECKPOINT_MAGIC!r}")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{r.path}: unsupported checkpoint version {version} at byte 4")
    count = r.u32("tensor count")
    table = []
    for i in range(count):
        nlen = r.u32(f"name length of tensor {i}")
        if nlen == 0 or nlen > 4096:
            raise DataFormatError(f"{r.path}: implausible name length {nlen} at byte {r.off - 4}")
        try:
            name = r.take(nlen, f"name of tensor {i}").decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(f"{r.path}: name of tensor {i} at byte {r.off - nlen} "
                                  "is not UTF-8") from None
        rank = r.u32(f"rank of {name!r}")
        if rank > 8:
            raise DataFormatError(f"{r.path}: implausible rank {rank} for {name!r} at byte {r.off - 4}")
        shape = tuple(r.u32(f"dim of {name!r}") for _ in range(rank))
        table.append((name, shape))
    out = {}
    for name, shape in table:
        if name in out:
            raise DataFormatError(f"{r.path}: duplicate tensor name {name!r}")
        n = math.prod(shape)
        raw = r.take(n * 8, f"payload of {name!r}")
        out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    r.done("checkpoint payload")
    return out


def config_to_tensors(cfg: ModelConfig) -> dict:
    """Architecture as checkpoint entries so a file is self-describing."""
    return {
        "meta/input_dims": np.asarray(cfg.input_dims, dtype=np.float64),
        "meta/num_classes": np.asarray(float(cfg.num_classes)),
        "meta/hidden": np.asarray(float(cfg.hidden)),
        "meta/phi_dim": np.asarray(float(cfg.phi_dim)),
        "meta/backbone_hidden": np.asarray(float(cfg.backbone_hidden)),
        "meta/conv_channels": np.asarray(cfg.conv_channels, dtype=np.float64),
    }


def _entry(tensors: dict, key, shape=(), ok=np.isfinite):
    """Checkpoint entry ``key``: a float, or an array of ``shape`` (None: any
    1-D); DataFormatError names it if missing, mis-shaped or failing ``ok``."""
    if key not in tensors:
        raise DataFormatError(f"checkpoint lacks entry {key!r}")
    value = tensors[key]
    if ((value.ndim != 1) if shape is None else (value.shape != shape)) or not np.all(ok(value)):
        raise DataFormatError(f"checkpoint entry {key!r} is invalid: shape {value.shape}, "
                              f"values {value.ravel()[:4].tolist()}")
    return float(value) if shape == () else value


def _whole(stop=np.inf):
    """An ``ok`` for ``_entry``: whole numbers in [0, stop)."""
    return lambda v: (v == np.floor(v)) & (0 <= v) & (v < stop)


def config_from_tensors(tensors: dict) -> ModelConfig:
    """A checkpoint's architecture; DataFormatError names a missing or invalid entry."""
    def ints(key, shape=()):
        value = _entry(tensors, f"meta/{key}", shape, _whole())
        return int(value) if shape == () else tuple(int(v) for v in value)

    try:
        return ModelConfig(input_dims=ints("input_dims", None), num_classes=ints("num_classes"),
                           hidden=ints("hidden"), phi_dim=ints("phi_dim"),
                           backbone_hidden=ints("backbone_hidden"),
                           conv_channels=ints("conv_channels", None))
    except ValueError as e:  # a bad entry, or counts the architecture does not allow
        raise DataFormatError(f"checkpoint architecture entries are invalid: {e}") from None


class RunMeta(NamedTuple):
    """A checkpoint's run entries: what eval and export need beyond the weights."""

    epoch: int
    positive_class: int
    threshold: float | None  # the fixed threshold; read back as None when a percentile sets it
    percentile: float | None
    source_stats: NormStats
    target_stats: NormStats


def run_to_tensors(run: RunMeta) -> dict:
    """``meta/epoch``, ``meta/threshold``, ``meta/threshold_percentile`` (NaN
    marks a fixed threshold), ``meta/positive_class`` and ``norm/*``."""
    percentile = float("nan") if run.percentile is None else float(run.percentile)
    return {
        "meta/epoch": np.asarray(float(run.epoch)),
        "meta/threshold": np.asarray(float(run.threshold)),
        "meta/threshold_percentile": np.asarray(percentile),
        "meta/positive_class": np.asarray(float(run.positive_class)),
        "norm/source_mean": run.source_stats.mean,
        "norm/source_std": run.source_stats.std,
        "norm/target_mean": run.target_stats.mean,
        "norm/target_std": run.target_stats.std,
    }


def run_from_tensors(tensors: dict, config: ModelConfig) -> RunMeta:
    """The run entries of a checkpoint of architecture ``config``.

    A missing, mis-shaped, non-finite or out-of-range entry raises
    DataFormatError before any output is written.
    """
    def count(key, stop=np.inf):
        return int(_entry(tensors, key, ok=_whole(stop)))

    def stats(domain):
        dims = config.input_dims[:1]  # one entry per channel
        return NormStats(_entry(tensors, f"norm/{domain}_mean", dims),
                         _entry(tensors, f"norm/{domain}_std", dims,
                                ok=lambda v: np.isfinite(v) & (v > 0)))

    percentile = _entry(tensors, "meta/threshold_percentile", ok=lambda v: ~((v < 0) | (v > 100)))
    threshold = _entry(tensors, "meta/threshold", ok=lambda v: (0 < v) & (v < np.inf))
    fixed = np.isnan(percentile)
    return RunMeta(
        epoch=count("meta/epoch"),
        positive_class=count("meta/positive_class", config.num_classes),
        threshold=threshold if fixed else None,
        percentile=None if fixed else percentile,
        source_stats=stats("source"),
        target_stats=stats("target"),
    )
