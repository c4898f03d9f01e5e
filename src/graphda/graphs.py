"""Threshold graphs over mini-batch features.

An undirected edge connects samples i and j exactly when the Euclidean
distance between their feature rows is strictly below a threshold T.
Edges ignore domain membership, so labeled source nodes can sit next to
unlabeled target nodes; that adjacency is what lets label information
travel across domains in the propagation layer. A distance is always the
direct one, ``x[j] - x[i]`` squared, summed and rooted, but it is computed
for few pairs: ``pair_distances`` estimates every pair's square from BLAS
Gram products with a certified error bound. That ``PairGeometry`` is the
one input of the threshold, the kernel median and the edges, which compute
directly only the pairs the bound cannot decide, with memory bounded
beyond the estimate vector (see ``_select`` and the row ranges of
``build_graph``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BatchGraph",
    "EdgeStats",
    "PairGeometry",
    "build_graph",
    "edge_stats",
    "pair_distances",
    "percentile_threshold",
    "row_cuts",
]


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


_SCAN_VALUES = 2 ** 15  # values per chunk of a counting pass (256 KB)
_GRAM_PAIRS = 2 ** 15  # pairs per Gram block, which holds at most about twice that many values
_MARGIN = 0.5  # the sample bracket's half-width, in units of sqrt(m ln n) sample ranks
_U = 2.0 ** -53  # unit roundoff of float64


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


def _direct_sq(x: np.ndarray, k) -> np.ndarray:
    """Squared direct distances S of the pairs at condensed indices ``k``, each
    summed as one contiguous row: its bits do not depend on the other pairs."""
    n, d = x.shape
    starts, out, step = _row_offset(n, np.arange(n)), np.empty(len(k)), _SCAN_VALUES // max(d, 1)
    for at in range(0, len(k), step):
        i = np.searchsorted(starts, k[at:at + step], side="right") - 1
        diff = x[k[at:at + step] - starts[i] + i + 1] - x[i]
        np.add.reduce(np.multiply(diff, diff, out=diff), axis=1, out=out[at:at + step])
    return out


@dataclass(frozen=True, eq=False)
class PairGeometry:
    """Estimates ``est`` of the squared direct distance S of every pair i < j
    of the rows ``x``, condensed row-major (pair (i, j) of n rows at
    i*n - i*(i+1)/2 + j - i - 1), with |est - S| <= ``slack``. ``_found``
    keeps what ``ranks`` found, so consumers of the same ranks select once."""

    x: np.ndarray
    est: np.ndarray
    slack: float
    _found: dict = field(default_factory=dict, repr=False)

    def ranks(self, ranks) -> list:
        """The direct distances of the given ranks (0 is the smallest), all NaN
        when one distance is NaN. With a <= b the estimates ``_select`` finds at the
        lowest and highest rank, only the pairs whose estimates lie within
        (a - 3E, b + 3E) can hold a rank: they are computed and partitioned."""
        if len(self.x) < 2:
            raise ValueError(f"need at least 2 rows to take pairwise distances, got {len(self.x)}")
        want = sorted(set(ranks) - self._found.keys())
        if want:
            found = _select(self.est, want)
            if found is None:
                return [math.nan] * len(ranks)
            # rounded outwards, as a directly computed estimate can dwarf the slack
            lo = np.nextafter(found[0] - 3 * self.slack, -math.inf)
            hi = np.nextafter(found[-1] + 3 * self.slack, math.inf)
            (_, below, _, _), inside = _bracket_pass(self.est, lo, hi)
            # a rank past the bracket has an infinite estimate, and so S = inf
            d = np.append(np.sqrt(_direct_sq(self.x, inside)), math.inf)
            kth = [min(r - below, d.size - 1) for r in want]
            d.partition(kth)
            self._found.update(zip(want, d[kth].tolist()))
        return [self._found[r] for r in ranks]


def pair_distances(phi: np.ndarray) -> PairGeometry:
    """The ``PairGeometry`` of the (n, d) rows ``phi``: c is the rows less the
    coordinate-wise median of the finite rows (a far row does not move it),
    s_i = c_i.c_i and est = s_i + s_j - 2 c_i.c_j, one Gram product per
    ``row_cuts`` range of about 2**15 pairs. With u = 2**-53, gamma_m =
    m u / (1 - m u) and R^2 = max s_i (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 3.1), |est - S| < 16 gamma_{d+2} R^2:
    4 gamma_d R^2 for the norm and Gram sums in any order (any BLAS blocking
    or thread count), 8u R^2 for the three-term sum, 8u R^2 for the rounding
    of c, and gamma_{d+2} S <= 4 gamma_{d+2} R^2 for the direct sum. The
    slack E = 64 gamma_{d+2} (R^2 + 2**-1022) is 4x that; 2**-1022 covers
    underflow, <= 2**-1075 per product. The pairs of a row with s_i not
    below 2**1020 hold their S.
    """
    x = np.asarray(phi, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {x.shape}")
    n, d = x.shape
    ok = np.isfinite(x).all(axis=1)
    c = x - np.median(x[ok], axis=0, overwrite_input=True) if ok.any() else np.zeros_like(x)
    s = np.einsum("ij,ij->i", c, c)
    direct = ~(s < 2.0 ** 1020)  # NaN, inf, or large enough to overflow an estimate
    c[direct] = s[direct] = 0.0
    slack = 64 * (d + 2) * _U / (1 - (d + 2) * _U) * (s.max(initial=0.0) + 2.0 ** -1022)
    est = np.empty(n * (n - 1) // 2)
    cuts = row_cuts(n, -(-est.size // _GRAM_PAIRS))
    for a, b in zip(cuts, cuts[1:]):
        g = (-2.0 * c[a:b]) @ c[a:].T
        g += s[a:b, None]
        g += s[a:]
        est[_row_offset(n, a):_row_offset(n, b)] = g[np.arange(n - a) > np.arange(b - a)[:, None]]
    for i in np.flatnonzero(direct):
        k = np.r_[_row_offset(n, np.arange(i)) + i - np.arange(i) - 1,
                  _row_offset(n, i):_row_offset(n, i + 1)]
        est[k] = _direct_sq(x, k)
    return PairGeometry(x, est, float(slack))


def build_graph(geom: PairGeometry, threshold: float, first: int = 0, stop=None) -> BatchGraph:
    """Connect rows i and j of ``geom.x`` iff ||x_i - x_j||_2 < threshold (strict).

    A distance equal to the threshold gives no edge; no self-loops; a
    threshold that is not positive (0, negative or NaN) gives no edges.
    Estimates below t^2 (1 - 8u) - E are edges, above t^2 (1 + 8u) + E not,
    and the band between is computed directly. ``first`` and ``stop`` keep
    only the pairs (i, j > i) with first <= i < stop (by default every row),
    so a caller can walk a large graph one ``row_cuts`` range at a time.
    """
    n = len(geom.x)
    stop = max(n - 1, 0) if stop is None else stop
    if not 0 <= first <= stop <= max(n - 1, 0):
        raise ValueError(f"row range [{first}, {stop}) does not lie in the {n} rows' pairs")
    if not threshold > 0:  # checked first: squaring a negative one would make it positive
        return BatchGraph(num_nodes=n, rows=(), cols=(), threshold=float(threshold))
    lo = _row_offset(n, first)
    e = geom.est[lo:_row_offset(n, stop)]
    keep = e < threshold * threshold * (1 - 8 * _U) - geom.slack
    band = np.flatnonzero((e <= threshold * threshold * (1 + 8 * _U) + geom.slack) ^ keep)
    keep[band] = np.sqrt(_direct_sq(geom.x, band + lo)) < threshold
    k = np.flatnonzero(keep)
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
    < lo, <= lo, < hi and <= hi, and the indices of the values strictly
    between lo and hi; None as soon as a chunk holds a NaN."""
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
        inside.append(np.flatnonzero(lt_hi & ~le_lo) + start)
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
    inside = d[inside]
    kth = sorted({r - upto_lo for r in ranks if upto_lo <= r < below_hi})
    if kth:
        inside.partition(kth)
    return [lo if r < upto_lo else hi if r >= below_hi else inside[r - upto_lo] for r in ranks]


def percentile_threshold(geom: PairGeometry, p: float) -> float:
    """p-th percentile (linear interpolation) of the pairwise distances of ``geom``.

    Scale-free alternative to a fixed threshold: the same p yields a
    comparable edge density regardless of feature magnitude. p=0 gives
    the minimum pairwise distance, p=100 the maximum.

    The bits are those of ``np.percentile`` of the direct distances: the
    same one or two ranks, found exactly by ``PairGeometry.ranks``
    without a copy of the estimates, and the same interpolation rule,
    which for a weight t >= 0.5 measures back from the upper value, so a
    NaN distance gives NaN.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    k, k1, t = _lerp_ranks(geom.est.size, p)
    a, b = geom.ranks([k, k1])
    diff = b - a
    threshold = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    if threshold == 0.0:
        warnings.warn(
            "all pairwise distances at or below this percentile are zero; "
            "a strict threshold of 0 yields an empty graph",
            stacklevel=2,
        )
    return threshold
