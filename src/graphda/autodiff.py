"""Reverse-mode automatic differentiation over dense numpy arrays.

The :class:`Tensor` wraps an ndarray together with a lazily allocated
gradient buffer and links into a dynamically built computation trace.
Every operation records a backward closure on its output; calling
:func:`backward` on a scalar walks the trace in reverse creation order and
accumulates gradients additively across fan-out. Each node is freed as soon
as its closure has run: its links and closure are dropped and, unless it is
a leaf, so is its gradient, so an activation or gradient lives only until
the last closure that reads it finishes. Leaves keep their gradients. Under
:func:`no_trace` the same ops record no trace at all.

Only the operations the models and losses in this package differentiate
are provided: elementwise arithmetic with broadcasting, matrix products,
reductions, ReLU, the pairwise squared distances of one matrix's rows, a
one-node 3x3 convolution with bias and ReLU, and three one-node loss ops, a
Gaussian kernel mixture, a contrastive pull/push and a mean log-softmax
likelihood. ``reshape`` returns a view: no op writes another tensor's
``data``. A plain array is a constant, whose gradient no closure computes:
``add``'s and ``mul``'s second operand, ``matmul``'s and the conv's first.
A gradient array that an op built itself is passed ``owned`` and lands
without a copy. Every tensor is float64.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "backward",
    "matmul",
    "relu",
    "gaussian_mixture",
    "pull_push",
    "nll",
    "pairwise_sqdist",
    "conv3x3_relu",
]


class ShapeError(ValueError):
    """An operation received tensors whose shapes violate its contract."""


_node_ids = itertools.count()
_tracing = True


@contextlib.contextmanager
def no_trace():
    """Run ops without recording a trace, for passes nothing differentiates:
    results get no parents and no closure, so each intermediate array is
    freed as soon as the forward pass drops it."""
    global _tracing
    before, _tracing = _tracing, False
    try:
        yield
    finally:
        _tracing = before


class Tensor:
    """Dense n-d array carrying a value, a gradient, and trace links.

    ``grad`` stays ``None`` until the first gradient lands.  ``node_id``
    is monotonically increasing with creation order, which makes creation
    order a topological order of any trace.
    """

    __slots__ = ("data", "grad", "node_id", "_parents", "_backward")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.node_id = next(_node_ids)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"

    # -- gradient plumbing ---------------------------------------------------

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        if self.grad is None:  # bits of zeros + g, -0.0 included, in one pass
            d = self.data  # an owned g, built by the op and held by no one, lands in place
            own = owned and isinstance(g, np.ndarray) and g.shape == d.shape and g.dtype == d.dtype
            self.grad = np.add(g, 0, out=g if own else np.empty_like(d))
        else:
            self.grad += g

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other if isinstance(other, Tensor) else -np.asarray(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None) -> "Tensor":
        return _reduce(self, axis, mean=False)

    def mean(self, axis=None) -> "Tensor":
        return _reduce(self, axis, mean=True)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes) -> "Tensor":
        return transpose(self, axes)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], bw: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _tracing:
        out._parents = parents
        out._backward = bw
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (the inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise and broadcast ops --------------------------------------------


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = np.asarray(b, dtype=np.float64)
        data = a.data + c

        def bw(g):
            a._accum(_unbroadcast(g, a.shape))

        return _result(data, (a,), bw)

    data = a.data + b.data

    def bw(g):
        a._accum(_unbroadcast(g, a.shape))
        b._accum(_unbroadcast(g, b.shape))

    return _result(data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = np.asarray(b, dtype=np.float64)
        data = a.data * c

        def bw(g):
            a._accum(_unbroadcast(g * c, a.shape), owned=True)

        return _result(data, (a,), bw)

    data = a.data * b.data

    def bw(g):
        a._accum(_unbroadcast(g * b.data, a.shape), owned=True)
        b._accum(_unbroadcast(g * a.data, b.shape), owned=True)

    return _result(data, (a, b), bw)


def matmul(a, b: Tensor) -> Tensor:
    A = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    if A.ndim != 2 or b.ndim != 2 or A.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {A.shape} x {b.shape}")

    def bw(g):
        if isinstance(a, Tensor):
            a._accum(g @ b.data.T, owned=True)
        b._accum(A.T @ g, owned=True)

    return _result(A @ b.data, (a, b) if isinstance(a, Tensor) else (b,), bw)


def _positive(x: np.ndarray) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` bit for bit: fmax maps NaN to 0, and + 0.0 makes -0.0 +0.0."""
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


def _masked(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.where(mask, g, 0.0)`` bit for bit, -0.0 and NaN payloads included: g's bits AND 0 or ~0."""
    bits = np.dtype(f"i{g.itemsize}")
    return (g.view(bits) & -mask.astype(bits)).view(g.dtype)


def relu(a: Tensor) -> Tensor:
    # subgradient 0 at exactly 0
    mask = a.data > 0

    def bw(g):
        a._accum(_masked(g, mask), owned=True)

    return _result(_positive(a.data), (a,), bw)


def gaussian_mixture(sq: Tensor, coefs, weights) -> Tensor:
    """``sum_m weights[m] * exp(sq * coefs[m])`` as one node, bit-equal to
    ``mul -> exp -> mul`` chains summed by ``add``: terms are summed in order
    and their gradients land in reverse order, as a reverse walk of them would.
    """
    exps = [np.exp(sq.data * c) for c in coefs]
    data = sum(e * beta for e, beta in zip(exps, weights))  # 0 + x is x here: terms are >= 0

    def bw(g):
        for e, c, beta in zip(exps[::-1], coefs[::-1], weights[::-1]):
            sq._accum(((g * beta) * e) * c, owned=True)

    return _result(data, (sq,), bw)


def pull_push(d2: Tensor, same, diff, margin: float) -> Tensor:
    """``(d2 * same).sum() + (relu(margin - d2) * diff).sum()`` as one node,
    bit-equal to that op chain: the push gradient lands first, then the pull's.
    """
    gap = d2.data * -1.0 + margin
    mask = gap > 0
    data = (d2.data * same).sum() + (_positive(gap) * diff).sum()

    def bw(g):
        d2._accum(_masked(g * diff, mask) * -1.0, owned=True)
        d2._accum(g * same, owned=True)

    return _result(data, (d2,), bw)


def nll(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax likelihood of the rows of ``logits`` whose
    label is not -1, as one node; at least one row must be labeled, and each
    other label must be a column. Bit-equal to the chain log-softmax -> row
    gather -> element gather -> mean -> * -1.0: the backward lands
    ``((g * -1.0) + 0) * scale`` at each labeled (row, label) as that chain
    did, and gives the logits log-softmax's gradient of it.
    """
    lab = np.asarray(labels, dtype=np.intp)
    idx = np.nonzero(lab != -1)[0]
    cols = lab[idx]
    if not np.all((cols >= 0) & (cols < logits.shape[-1])):
        raise ValueError(f"labels must be -1 or lie in [0, {logits.shape[-1]})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    scale = 1.0 / idx.size
    data = (ls[idx, cols].sum() * scale) * -1.0

    def bw(g):
        picked = np.zeros_like(ls)
        picked[idx, cols] = ((g * -1.0) + 0) * scale
        logits._accum(picked - np.exp(ls) * picked.sum(axis=-1, keepdims=True), owned=True)

    return _result(data, (logits,), bw)


# -- reductions and shape ops ---------------------------------------------------


def _reduce(a: Tensor, axis, mean: bool) -> Tensor:
    if axis is None:
        axes = tuple(range(a.ndim))
    elif isinstance(axis, int):
        axes = (axis % a.ndim,)
    else:
        axes = tuple(ax % a.ndim for ax in axis)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    data = a.data.sum(axis=axes if axis is not None else None)
    scale = 1.0 / count if mean else None
    if mean:
        data = data * scale

    def bw(g):
        g2 = np.asarray(g)
        for ax in sorted(axes):
            g2 = np.expand_dims(g2, ax)
        g2 = np.broadcast_to(g2, a.shape)
        a._accum(g2 * scale if mean else g2, owned=mean)

    return _result(data, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    data = np.reshape(a.data, shape)

    def bw(g):
        a._accum(g.reshape(a.shape))

    return _result(data, (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)
    data = a.data.transpose(axes).copy()

    def bw(g):
        a._accum(g.transpose(inv))

    return _result(data, (a,), bw)


# -- pairwise squared distances ----------------------------------------------------


def pairwise_sqdist(a: Tensor) -> Tensor:
    """All-pairs squared Euclidean distances between the rows of ``a``.

    ``out[i, j] = ||a[i] - a[j]||^2`` via the Gram expansion.  Values on
    numerically coincident rows can land within ~1e-16 of zero on either
    side; nothing is clamped so the gradient stays exact. Backward lands
    the row term, then the column term.
    """
    if a.ndim != 2:
        raise ShapeError(f"pairwise_sqdist needs a matrix, got shape {a.shape}")
    A = a.data
    sq = np.sum(A * A, axis=1)
    data = sq[:, None] + sq[None, :] - 2.0 * (A @ A.T)

    def bw(g):
        rs = g.sum(axis=1, keepdims=True)
        cs = g.sum(axis=0, keepdims=True)
        a._accum(2.0 * (rs * A - g @ A), owned=True)
        a._accum(2.0 * (cs.T * A - g.T @ A), owned=True)

    return _result(data, (a,), bw)


# -- fused 3x3 convolution ---------------------------------------------------------

_COL2IM_BYTES = 2 ** 20  # patch-gradient bytes per col2im block, whose adds stay in cache


def conv3x3_relu(x, w: Tensor, b: Tensor, spare: list) -> Tensor:
    """``relu(patches @ w + b)`` over the padding-1 3x3 patches of channels-last
    (B, h, w, c) ``x`` as one (B, h, w, out) node, bit-equal in data and every
    gradient to the chain im2col -> matmul -> add -> relu -> reshape, with
    channel-major patch columns. The node keeps only the ReLU mask and the
    patches, which fill a buffer borrowed from ``spare``, the caller's list of
    at most one per layer (a forward finding it empty allocates); backward
    overwrites it with the patch gradient, then lends it back, as untraced forwards do."""
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if xd.ndim != 4 or w.shape[0] != xd.shape[3] * 9:
        raise ShapeError(f"conv3x3_relu: input {xd.shape} does not fit weight {w.shape}")
    bsz, h, wd, c = xd.shape
    n, k = bsz * h * wd, c * 9
    flat = spare.pop() if spare and spare[-1].size >= n * k else np.empty(n * k)
    patches = flat[:n * k].reshape(n, k)
    xp = np.pad(xd, ((0, 0), (1, 1), (1, 1), (0, 0)))
    np.copyto(patches.reshape(bsz, h, wd, c, 3, 3),
              np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2)))
    y = patches @ w.data
    y += b.data
    mask = y > 0  # subgradient 0 at exactly 0
    np.fmax(y, 0.0, out=y)  # _positive's bits, in place
    y += 0.0

    def bw(g):
        gc = _masked(g.reshape(mask.shape) + 0, mask)  # the chain's later +0 landings are no-ops
        b._accum(gc.sum(axis=0))
        w._accum(patches.T @ gc, owned=True)
        if isinstance(x, Tensor):
            np.matmul(gc, w.data.T, out=patches)  # col2im's sums from +0.0 drop any -0.0
            x._accum(_col2im(patches, (bsz, h, wd, c)), owned=True)
        spare[:] = [flat]

    out = _result(y.reshape(bsz, h, wd, -1), (x, w, b) if isinstance(x, Tensor) else (w, b), bw)
    if out._backward is None:  # no trace holds the patches
        spare[:] = [flat]
    return out


def _col2im(cols: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum (B*h*w, c*9) patch gradients onto (B, h, w, c) block by block of the batch:
    nine shifted adds onto a zeroed padded block, in a scatter-add's descending (i, j)."""
    bsz, h, w, c = shape
    gk, out = cols.reshape(bsz, h, w, c, 3, 3), np.empty(shape)
    step = max(1, _COL2IM_BYTES // (cols.itemsize * cols.size // bsz))
    gx = np.empty((min(step, bsz), h + 2, w + 2, c))
    for lo in range(0, bsz, step):
        blk = gx[:min(step, bsz - lo)]
        blk.fill(0.0)
        for i, j in itertools.product((2, 1, 0), repeat=2):
            blk[:, i:i + h, j:j + w] += gk[lo:lo + step, ..., i, j]
        out[lo:lo + step] = blk[:, 1:h + 1, 1:w + 1]
    return out


# -- backward pass ------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate gradients of ``loss`` w.r.t. every tensor it was computed from.

    ``loss`` must be a scalar.  The reachable trace is visited once in
    reverse creation order. Each node is freed as it finishes: once its
    closure has run, its parents and closure are dropped and, unless it is a
    leaf (a tensor with no parents), its gradient too, so non-leaf gradients
    are not kept. Leaves keep their gradients and can be reused in later
    forward passes.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t.node_id)
    loss._accum(np.ones_like(loss.data), owned=True)
    while nodes:  # popped newest first: the walk holds no node it has finished
        t = nodes.pop()
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)
        if t._parents:
            t.grad = None
        t._parents = ()
        t._backward = None
