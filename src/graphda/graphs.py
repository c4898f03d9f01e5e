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

The export's threshold and audit add bounded memory to that vector:
``percentile_threshold`` selects its one or two order statistics from a
sorted strided sample and one chunked counting pass, without a copy,
and ``build_graph`` takes a row range, so the pooled graph is built and
audited one range at a time. ``row_cuts`` makes both the scan's and the
audit's ranges from the same row offsets.
"""

from __future__ import annotations

import math
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
    "row_cuts",
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

    def __add__(self, other: "EdgeStats") -> "EdgeStats":
        return EdgeStats(self.right + other.right, self.wrong + other.wrong,
                         self.unknown + other.unknown)


_SCAN_VALUES = 2 ** 15  # values per scan buffer (256 KB), before the n - 1 row floor
_SPLIT_PAIRS = 2 ** 17  # pairs per range; a scan splits from two ranges' worth
_MARGIN = 0.5  # the sample bracket's half-width, in units of sqrt(m ln n) sample ranks


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_offset(n, i):
    """Condensed index of pair (i, i + 1) of n rows: where row i's pairs
    start, and the pair count for i = n - 1 or n. ``i`` may be an array."""
    return i * n - i * (i + 1) // 2


def row_cuts(n: int, parts: int) -> list:
    """``parts + 1`` rows from 0 to max(n - 1, 0) that cut the pairs of n
    rows into ``parts`` row ranges [c_k, c_k+1) of about equal pair
    counts: a range holds at most one row's pairs more than its share."""
    share = _row_offset(n, n) * np.arange(parts + 1) // max(parts, 1)
    return np.searchsorted(_row_offset(n, np.arange(n, dtype=np.int64)), share).tolist()


def _scan_rows(x: np.ndarray, out: np.ndarray, first: int, stop: int, buf: np.ndarray) -> None:
    """Distances of the pairs (i, j > i) for rows first <= i < stop into
    ``out``: as many rows' differences as fit in ``buf``, then one square,
    sum and root over the filled part. ``buf`` holds at least n - 1 rows."""
    n = x.shape[0]
    lo = _row_offset(n, first)
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
    cuts = row_cuts(n, parts)
    # every buffer is allocated on this thread: buffers that the workers
    # allocated came from per-thread malloc arenas and raised peak RSS
    jobs = [(x, out, lo, hi, np.empty((max(n - 1, _SCAN_VALUES // max(d, 1)), d)))
            for lo, hi in zip(cuts, cuts[1:])]
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


def build_graph(phi, threshold: float, dists=None, first: int = 0, stop=None) -> BatchGraph:
    """Connect i and j iff ||phi_i - phi_j||_2 < threshold (strict).

    Every pair is examined; a distance exactly equal to the threshold
    does not produce an edge. No self-loops. Pass ``dists`` =
    ``pair_distances(phi)`` if already computed. ``first`` and ``stop``
    keep only the pairs (i, j > i) with first <= i < stop (by default
    every row), so a caller can walk a large graph one row range at a
    time; the ranges of ``row_cuts`` hold every pair exactly once.
    """
    x = _as_matrix(phi)
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    n = x.shape[0]
    stop = max(n - 1, 0) if stop is None else stop
    if not 0 <= first <= stop <= max(n - 1, 0):
        raise ValueError(f"row range [{first}, {stop}) does not lie in the {n} rows' pairs")
    lo = _row_offset(n, first)
    d = (pair_distances(x) if dists is None else dists)[lo:_row_offset(n, stop)]
    k = np.flatnonzero(d < threshold)
    i = np.arange(first, stop, dtype=np.int64)
    starts = _row_offset(n, i) - lo  # where row i's pairs start, counted from the range's start
    rows = np.repeat(i, np.diff(np.searchsorted(k, starts), append=k.size))
    cols = k - starts[rows - first] + rows + 1
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


def _lerp_ranks(n: int, p: float):
    """The ranks numpy's linear percentile reads and its weight: the
    virtual index (n - 1) * (p / 100) falls between ranks k and k + 1 with
    weight t, except at or past the last rank, where numpy reads rank
    n - 1 twice and takes its weight against an index of -1."""
    vi = (n - 1) * (p / 100)
    if vi >= n - 1:
        return n - 1, n - 1, vi + 1
    k = math.floor(vi)
    return k, k + 1, vi - k


def _bracket_pass(d: np.ndarray, lo: float, hi: float):
    """One pass over cache-sized chunks of ``d``: the counts of values
    < lo, <= lo, < hi and <= hi, and a copy of the values strictly between
    lo and hi; None as soon as a chunk holds a NaN."""
    below_lo = upto_lo = below_hi = upto_hi = 0
    inside = []
    masks = np.empty((3, _SCAN_VALUES), dtype=bool)
    for start in range(0, d.size, _SCAN_VALUES):
        c = d[start:start + _SCAN_VALUES]
        if np.isnan(np.maximum.reduce(c)):
            return None
        mask, le_lo, lt_hi = (m[:c.size] for m in masks)
        below_lo += np.count_nonzero(np.less(c, lo, out=mask))
        upto_lo += np.count_nonzero(np.less_equal(c, lo, out=le_lo))
        below_hi += np.count_nonzero(np.less(c, hi, out=lt_hi))
        upto_hi += np.count_nonzero(np.less_equal(c, hi, out=mask))
        inside.append(c[np.logical_and(lt_hi, np.logical_not(le_lo, out=le_lo), out=lt_hi)])
    return (below_lo, upto_lo, below_hi, upto_hi), np.concatenate(inside)


def _select(d: np.ndarray, ranks: list):
    """The values of the given ranks of ``d`` in ascending order, exactly,
    or None when ``d`` holds a NaN (numpy sorts NaN last, so a NaN makes
    any percentile NaN).

    It never copies ``d`` (Floyd & Rivest, CACM 18(3), 1975): a sorted
    sample of every s-th value, s about n^(1/3), brackets the ranks between
    two sample values lo <= hi, _MARGIN * sqrt(m ln n) sample ranks beyond
    them for m sampled values; one ``_bracket_pass`` counts the values
    below, at and above both ends and gathers the few strictly between
    them, and only those are partitioned. When the bracket misses a rank,
    its margin grows fourfold and the pass repeats; the sample's ends give
    way to -inf and inf, so the answer is always exact.
    """
    n = d.size
    sample = np.sort(d[::math.ceil(n ** (1 / 3))])
    if np.isnan(sample[-1]):
        return None
    m = sample.size
    margin = _MARGIN * math.sqrt(m * math.log(n))
    while True:
        a = math.floor(min(ranks) * m / n - margin)
        b = math.ceil((max(ranks) + 1) * m / n + margin)
        lo = sample[a] if a > 0 else -math.inf
        hi = sample[b] if b < m - 1 else math.inf
        found = _bracket_pass(d, lo, hi)
        if found is None:
            return None
        (below_lo, upto_lo, below_hi, upto_hi), inside = found
        if below_lo <= min(ranks) and max(ranks) < upto_hi:
            break
        margin = 4 * margin + 1
    kth = sorted({r - upto_lo for r in ranks if upto_lo <= r < below_hi})
    if kth:
        inside.partition(kth)
    return [lo if r < upto_lo else hi if r >= below_hi else inside[r - upto_lo] for r in ranks]


def percentile_threshold(phi, p: float, dists=None) -> float:
    """p-th percentile (linear interpolation) of all pairwise distances.

    Scale-free alternative to a fixed threshold: the same p yields a
    comparable edge density regardless of feature magnitude. p=0 gives
    the minimum pairwise distance, p=100 the maximum. Pass ``dists`` =
    ``pair_distances(phi)`` if already computed.

    The bits are those of ``np.percentile``: the same one or two ranks,
    found by an exact selection that does not copy a large ``dists``
    (see ``_select``), and the same interpolation rule, which for a
    weight t >= 0.5 measures back from the upper value. A NaN distance
    gives NaN.
    """
    x = _as_matrix(phi)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows to take pairwise distances, got {n}")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    d = np.asarray(pair_distances(x) if dists is None else dists, dtype=np.float64)
    k, k1, t = _lerp_ranks(d.size, p)
    values = _select(d, [k, k1])
    if values is None:
        return math.nan
    a, b = map(float, values)
    diff = b - a
    threshold = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    if threshold == 0.0:
        warnings.warn(
            "all pairwise distances at or below this percentile are zero; "
            "a strict threshold of 0 yields an empty graph",
            stacklevel=2,
        )
    return threshold
