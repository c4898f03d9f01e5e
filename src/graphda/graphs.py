"""Threshold graphs over mini-batch features.

An undirected edge connects samples i and j exactly when the Euclidean
distance between their feature rows is strictly below a threshold T.
Edges ignore domain membership, so labeled source nodes can sit next to
unlabeled target nodes; that adjacency is what lets label information
travel across domains in the propagation layer. ``pair_distances`` is
the one O(N^2 D) scan; the threshold, edges and kernel median read it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BatchGraph",
    "EdgeStats",
    "build_graph",
    "edge_stats",
    "pair_distances",
    "percentile_threshold",
]


def _as_matrix(phi) -> np.ndarray:
    """Accept a raw array or an autodiff tensor; graphs never need grads."""
    data = getattr(phi, "data", phi)
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class BatchGraph:
    """Immutable undirected graph on the samples of one batch.

    Edge k joins rows[k] and cols[k], with rows[k] < cols[k]; each pair
    appears once, sorted by (row, col). Both are read-only int64 arrays.
    """

    num_nodes: int
    rows: np.ndarray
    cols: np.ndarray
    threshold: float

    def __post_init__(self):
        for name in ("rows", "cols"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_edges(self) -> int:
        return int(self.rows.size)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 matrix, zero diagonal."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        a[self.rows, self.cols] = 1.0
        a[self.cols, self.rows] = 1.0
        return a


@dataclass(frozen=True)
class EdgeStats:
    """Edge counts split by endpoint label agreement."""

    right: int
    wrong: int
    unknown: int

    @property
    def total(self) -> int:
        return self.right + self.wrong + self.unknown


def pair_distances(phi) -> np.ndarray:
    """Distance of every pair i < j, condensed row-major: pair (i, j) of
    n rows sits at i*n - i*(i+1)/2 + j - i - 1.

    Direct differences per row, not a Gram expansion, which moves the
    last ulp and can flip edges that sit exactly at a threshold.
    """
    x = _as_matrix(phi)
    n = x.shape[0]
    out = np.empty(n * (n - 1) // 2)
    lo = 0
    for i in range(n - 1):
        diff = x[i + 1:] - x[i]
        np.sqrt((diff * diff).sum(axis=1), out=out[lo:lo + n - 1 - i])
        lo += n - 1 - i
    return out


def build_graph(phi, threshold: float, dists=None) -> BatchGraph:
    """Connect i and j iff ||phi_i - phi_j||_2 < threshold (strict).

    Every pair is examined; a distance exactly equal to the threshold
    does not produce an edge. No self-loops. Pass ``dists`` =
    ``pair_distances(phi)`` if already computed.
    """
    x = _as_matrix(phi)
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    n = x.shape[0]
    k = np.flatnonzero((pair_distances(x) if dists is None else dists) < threshold)
    i = np.arange(n - 1, dtype=np.int64)
    starts = i * n - i * (i + 1) // 2  # offset of pair (i, i+1)
    rows = np.searchsorted(starts, k, side="right") - 1
    cols = k - starts[rows] + rows + 1
    return BatchGraph(num_nodes=n, rows=rows, cols=cols, threshold=float(threshold))


def edge_stats(graph: BatchGraph, labels) -> EdgeStats:
    """Classify each edge by its endpoint labels.

    right: both endpoints carry the same label; wrong: both labeled but
    different; unknown: at least one endpoint is -1 (unlabeled). Callers
    may pass ground-truth labels to audit graph quality.
    """
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != (graph.num_nodes,):
        raise ValueError(
            f"labels shape {lab.shape} does not match node count {graph.num_nodes}"
        )
    a, b = lab[graph.rows], lab[graph.cols]
    unknown = (a == -1) | (b == -1)
    right = int(np.count_nonzero((a == b) & ~unknown))
    n_unknown = int(np.count_nonzero(unknown))
    return EdgeStats(right=right, wrong=graph.num_edges - right - n_unknown, unknown=n_unknown)


def percentile_threshold(phi, p: float, dists=None) -> float:
    """p-th percentile (linear interpolation) of all pairwise distances.

    Scale-free alternative to a fixed threshold: the same p yields a
    comparable edge density regardless of feature magnitude. p=0 gives
    the minimum pairwise distance, p=100 the maximum. Pass ``dists`` =
    ``pair_distances(phi)`` if already computed.
    """
    x = _as_matrix(phi)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows to take pairwise distances, got {n}")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    t = float(np.percentile(pair_distances(x) if dists is None else dists, p))
    if t == 0.0:
        warnings.warn(
            "all pairwise distances at or below this percentile are zero; "
            "a strict threshold of 0 yields an empty graph",
            stacklevel=2,
        )
    return t
