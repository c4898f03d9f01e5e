"""Threshold graphs over mini-batch features.

An undirected edge connects samples i and j exactly when the Euclidean
distance between their feature rows is strictly below a threshold T.
Edges ignore domain membership, so labeled source nodes can sit next to
unlabeled target nodes; that adjacency is what lets label information
travel across domains in the propagation layer. ``pair_distances`` is
the one O(N^2 D) scan; the threshold, edges and kernel median read it.
It fills one reused, cache-sized buffer with the direct differences of
consecutive rows and reduces the whole buffer at once; a scan of at
least 2 * 2**17 pairs is cut into row ranges that run on separate CPUs.
Every pair's bits are the same for any buffer fill and any split.
"""

from __future__ import annotations

import os
import threading
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


_SCAN_VALUES = 2 ** 15  # values per scan buffer (256 KB), before the n - 1 row floor
_SPLIT_PAIRS = 2 ** 17  # pairs per range; a scan splits from two ranges' worth


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan_rows(x: np.ndarray, out: np.ndarray, first: int, stop: int, buf: np.ndarray) -> None:
    """Distances of the pairs (i, j > i) for rows first <= i < stop into
    ``out``: as many rows' differences as fit in ``buf``, then one square,
    sum and root over the filled part. ``buf`` holds at least n - 1 rows."""
    n = x.shape[0]
    lo = first * n - first * (first + 1) // 2  # offset of pair (first, first+1)
    i = first
    while i < stop:
        used = 0
        while i < stop and used + n - 1 - i <= buf.shape[0]:
            np.subtract(x[i + 1:], x[i], out=buf[used:used + n - 1 - i])
            used += n - 1 - i
            i += 1
        block, dest = buf[:used], out[lo:lo + used]
        np.multiply(block, block, out=block)
        np.add.reduce(block, axis=1, out=dest)
        np.sqrt(dest, out=dest)
        lo += used


def pair_distances(phi) -> np.ndarray:
    """Distance of every pair i < j, condensed row-major: pair (i, j) of
    n rows sits at i*n - i*(i+1)/2 + j - i - 1.

    Direct differences per row, not a Gram expansion, which moves the
    last ulp and can flip edges that sit exactly at a threshold. Each
    pair's squared differences are summed as one contiguous row, so the
    bits do not depend on how many rows share the scan buffer. From
    2 * 2**17 pairs, the rows are cut into min(CPUs, pairs // 2**17)
    ranges of about equal pair counts, each scanned on its own thread
    into its own slice of the output; the bits are the same for every
    split. Small inputs, such as training batches, stay on one thread.
    """
    x = _as_matrix(phi)
    n, d = x.shape
    out = np.empty(n * (n - 1) // 2)
    parts = out.size // _SPLIT_PAIRS
    parts = min(parts, _cpu_count()) if parts >= 2 else 1
    i = np.arange(n, dtype=np.int64)
    cuts = np.searchsorted(i * n - i * (i + 1) // 2, out.size * np.arange(parts + 1) // parts)
    # every buffer is allocated on this thread: buffers that the workers
    # allocated came from per-thread malloc arenas and raised peak RSS
    jobs = [(x, out, lo, hi, np.empty((max(n - 1, _SCAN_VALUES // max(d, 1)), d)))
            for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist())]
    errors = []

    def scan(job):
        try:
            _scan_rows(*job)
        except BaseException as exc:  # raised again on this thread below
            errors.append(exc)

    # plain threads, not a ThreadPoolExecutor, whose import alone (it pulls
    # in logging) raised peak RSS by about 0.6 MB; numpy releases the GIL
    # inside each ufunc, and this thread scans the first range itself
    threads = [threading.Thread(target=scan, args=(job,)) for job in jobs[1:]]
    for t in threads:
        t.start()
    scan(jobs[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
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
    rows = np.repeat(i, np.diff(np.searchsorted(k, starts), append=k.size))
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
