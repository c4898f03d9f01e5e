"""The network: backbone, graph layer, classifier head.

The training path runs backbone -> graph layer -> classifier, where the
graph layer mixes each row with its batch neighbors:

    f_i = ReLU(phi_i) w theta1 + sum_{j in N(i)} ReLU(phi_j) w theta2

(row vectors, unnormalized neighbor sum, no bias inside the layer).
Inference uses the identical code path with no edges, so only the
theta1 branch survives and each sample's prediction is independent of
whatever else shares its batch.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    im2col,
    matmul,
    relu,
    softmax,
)
from .datasets import DataFormatError, _Reader, _write_atomic
from .graphs import BatchGraph

__all__ = [
    "ModelConfig",
    "ForwardOutput",
    "Model",
    "save_checkpoint",
    "load_checkpoint",
    "config_to_tensors",
    "config_from_tensors",
]

CHECKPOINT_MAGIC = b"HDAP"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Static architecture description.

    ``input_dims`` is (D,) for flat features or (c, h, w) for images.
    ``backbone_hidden`` = 0 collapses the MLP backbone to one linear
    layer (useful for identity-weight probes); it is ignored for images,
    which always use the small conv stack.
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
        if self.hidden < 1 or self.phi_dim < 1 or self.backbone_hidden < 0:
            raise ValueError("hidden and phi_dim must be >= 1, backbone_hidden >= 0")
        if len(chans) != 2 or any(c < 1 for c in chans):
            raise ValueError(f"conv_channels must be two positive ints, got {chans}")

    @property
    def is_image(self) -> bool:
        return len(self.input_dims) == 3


@dataclass(frozen=True, eq=False)
class ForwardOutput:
    """Everything one forward pass produces, kept for the losses."""

    phi: Tensor  # (B, phi_dim) backbone features, pre-ReLU
    f: Tensor  # (B, hidden) graph-layer output
    logits: Tensor  # (B, m)
    probs: Tensor  # (B, m), rows sum to 1


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
    elif cfg.backbone_hidden == 0:
        d = cfg.input_dims[0]
        shapes += [
            ("backbone/w1", (d, cfg.phi_dim), d),
            ("backbone/b1", (cfg.phi_dim,), None),
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

    def _as_input(self, features) -> Tensor:
        x = features if isinstance(features, Tensor) else Tensor(np.asarray(features, dtype=np.float64))
        if x.shape[1:] != self.config.input_dims:
            raise ShapeError(
                f"batch features {x.shape} do not match configured input dims "
                f"{self.config.input_dims}"
            )
        return x

    def chunks(self, n: int, chunk: int | None = None) -> list:
        """Row slices for inference over ``n`` rows; by default each holds at
        most 2**14 input values, which bounds the memory of a chunk's trace."""
        step = chunk or max(1, 2 ** 14 // math.prod(self.config.input_dims))
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
            for i, ch in enumerate(self.config.conv_channels, 1):
                y = add(matmul(im2col(y, 3, 3, 1), p[f"backbone/conv{i}"]), p[f"backbone/cb{i}"])
                y = relu(y).reshape((b, h, w, ch))
            # pooling sums an NCHW copy: that summation order sets the bits of phi
            pooled = y.transpose((0, 3, 1, 2)).mean(axis=(2, 3))
            return add(matmul(pooled, p["backbone/w3"]), p["backbone/b3"])
        y = add(matmul(x, p["backbone/w1"]), p["backbone/b1"])
        if self.config.backbone_hidden == 0:
            return y
        return add(matmul(relu(y), p["backbone/w2"]), p["backbone/b2"])

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
            neighbor = matmul(Tensor(graph.adjacency()), base)
            out = out + matmul(neighbor, self.params["theta2"])
        return out

    def classify(self, f: Tensor) -> tuple:
        logits = add(matmul(f, self.params["fc2/w"]), self.params["fc2/b"])
        return logits, softmax(logits)

    def forward(self, features, graph: BatchGraph | None) -> ForwardOutput:
        phi = self.backbone_forward(features)
        f = self.gnn_forward(phi, graph)
        logits, probs = self.classify(f)
        return ForwardOutput(phi=phi, f=f, logits=logits, probs=probs)

    def infer(self, features) -> ForwardOutput:
        """Graph-free forward: per-sample, batch composition irrelevant."""
        return self.forward(features, graph=None)

    def predict(self, features) -> np.ndarray:
        """Argmax class per row; ties resolve to the lowest class index."""
        out = self.infer(features)
        return np.argmax(out.probs.data, axis=1)

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
        model = cls.init(config, np.random.default_rng(0))
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
        name = r.take(nlen, f"name of tensor {i}").decode("utf-8")
        rank = r.u32(f"rank of {name!r}")
        if rank > 8:
            raise DataFormatError(f"{r.path}: implausible rank {rank} for {name!r} at byte {r.off - 4}")
        shape = tuple(r.u32(f"dim of {name!r}") for _ in range(rank))
        table.append((name, shape))
    out = {}
    for name, shape in table:
        if name in out:
            raise DataFormatError(f"{r.path}: duplicate tensor name {name!r}")
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
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


def config_from_tensors(tensors: dict) -> ModelConfig:
    def ints(key):
        return tuple(int(v) for v in np.atleast_1d(tensors[key]))

    try:
        return ModelConfig(
            input_dims=ints("meta/input_dims"),
            num_classes=ints("meta/num_classes")[0],
            hidden=ints("meta/hidden")[0],
            phi_dim=ints("meta/phi_dim")[0],
            backbone_hidden=ints("meta/backbone_hidden")[0],
            conv_channels=ints("meta/conv_channels"),
        )
    except KeyError as e:
        raise DataFormatError(f"checkpoint lacks architecture entry {e.args[0]!r}") from None
    except (ValueError, OverflowError, IndexError) as e:  # NaN, inf, empty or out-of-range entries
        raise DataFormatError(f"checkpoint architecture entries are invalid: {e}") from None
