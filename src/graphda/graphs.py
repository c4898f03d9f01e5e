"""Threshold graphs over mini-batch features.

An undirected edge connects samples i and j exactly when the Euclidean
distance between their feature rows is strictly below a threshold T.
Edges ignore domain membership, so labeled source nodes can sit next to
unlabeled target nodes; that adjacency is what lets label information
travel across domains in the propagation layer. A distance is always the
direct one, ``x[j] - x[i]`` squared, summed and rooted, but it is computed
for few pairs: a ``PairGeometry`` estimates every pair's square from BLAS
Gram products with a certified error bound, one block of rows at a time.
It is the one input of the threshold, the kernel median and the edges,
which compute directly only the pairs the bound cannot decide and never
hold the estimates of all pairs at once (``edge_pass`` counts in ``_select``'s pass).
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
    "edge_pass",
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


_SCAN_VALUES = 2 ** 13  # values per buffer of a direct pass (64 KB, below malloc's mmap threshold)
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


def _direct_sq(x: np.ndarray, i, j) -> np.ndarray:
    """Squared direct distances S of the pairs (i[k], j[k]), each summed as one
    contiguous row of a buffer every chunk reuses: its bits do not depend on the other pairs."""
    out, step = np.empty(len(i)), max(_SCAN_VALUES // max(x.shape[1], 1), 1)
    buf = np.empty((min(step, len(i)), x.shape[1]))
    for at in range(0, len(i), step):
        diff = np.take(x, j[at:at + step], 0, buf[:len(i[at:at + step])], "clip")  # "raise" copies
        np.subtract(diff, x[i[at:at + step]], out=diff)
        np.add.reduce(np.multiply(diff, diff, out=diff), axis=1, out=out[at:at + step])
    return out


@dataclass(frozen=True, eq=False)
class PairGeometry:
    """Estimates of the squared direct distance S of every pair i < j of the
    rows ``x``, made one Gram block at a time by ``block``: pair (i, j) gets
    lhs_i . rhs_j, with lhs_i = (c_i, s_i, 1) and rhs_j = (-2 c_j, 1, s_j)
    (see ``pair_distances``), and |estimate - S| <= ``slack``; a row of
    ``direct`` gets its pairs' S. ``_found`` keeps what ``ranks`` found, so
    consumers of the same ranks select once, ``_whole`` the block of a one-block geometry, and
    ``_pass`` the last pass counted by ``labels``, which ascend with the rows (``edge_pass``)."""

    x: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    direct: np.ndarray
    slack: float
    labels: np.ndarray | None = None
    _found: dict = field(default_factory=dict, repr=False)
    _whole: np.ndarray | None = field(default=None, repr=False)
    _pass: tuple | None = field(default=None, repr=False)

    @property
    def pairs(self) -> int:
        return _row_offset(len(self.x), len(self.x))

    @property
    def cuts(self) -> list:
        """The ``row_cuts`` of the Gram blocks, of about _GRAM_PAIRS pairs each."""
        return row_cuts(len(self.x), -(-self.pairs // _GRAM_PAIRS))

    def block(self, first: int, stop: int) -> np.ndarray:
        """The estimates of the pairs (i, j > i) with first <= i < stop, at
        [i - first, j - first] of a (stop - first, n - first) array that is
        NaN where j <= i."""
        if not 0 < self.pairs <= _GRAM_PAIRS:
            return _gram(self, first, stop)
        if self._whole is None:
            object.__setattr__(self, "_whole", _gram(self, 0, len(self.x) - 1))
        return self._whole[first:stop, first:]

    def ranks(self, ranks) -> list:
        """The direct distances of the given ranks (0 is the smallest), all
        NaN when one distance is NaN; see ``_select``."""
        if len(self.x) < 2:
            raise ValueError(f"need at least 2 rows to take pairwise distances, got {len(self.x)}")
        want = sorted(set(ranks) - self._found.keys())
        if want:
            found = _select(self, want)
            if found is None:
                return [math.nan] * len(ranks)
            self._found.update(zip(want, found))
        return [self._found[r] for r in ranks]


def _gram(geom: PairGeometry, first: int, stop: int) -> np.ndarray:
    """``PairGeometry.block`` of rows [first, stop), from one Gram product."""
    g = geom.lhs[first:stop] @ geom.rhs[first:].T
    if geom.direct.any():
        i, j = np.nonzero(geom.direct[first:stop, None] | geom.direct[first:])
        g[i, j] = _direct_sq(geom.x, i + first, j + first)
    g[:, :stop - first][np.tri(stop - first, dtype=bool)] = math.nan
    return g


def pair_distances(phi: np.ndarray, labels=None) -> PairGeometry:
    """The ``PairGeometry`` of the (n, d) rows ``phi``: c is the rows less the
    coordinate-wise median of the finite rows (a far row does not move it),
    s_i = c_i.c_i and an estimate is s_i + s_j - 2 c_i.c_j, one (d + 2)-term
    product. With u = 2**-53, gamma_m = m u / (1 - m u) and R^2 = max s_i
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1),
    |estimate - S| < 16 gamma_{d+2} R^2: 2 gamma_d R^2 for the norms, 4
    gamma_{d+2} R^2 for the product in any order (any BLAS blocking or
    thread count), 8u R^2 for the rounding of c, and gamma_{d+2} S <= 4
    gamma_{d+2} R^2 for the direct sum. The slack E = 64 gamma_{d+2} (R^2 +
    2**-1022) is 4x that; 2**-1022 covers underflow, <= 2**-1075 per
    product. A row with s_i not below 2**1020, or above 2**20 times the s of
    rank n - 1 - isqrt(n) (so at most sqrt(n) rows, whatever a cluster does
    to the median), is direct: its pairs hold their S, and R^2 is over the rest.
    """
    x = np.asarray(phi, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {x.shape}")
    n, d = x.shape
    if labels is not None and not (np.shape(labels) == (n,) and (np.diff(labels) >= 0).all()):
        raise ValueError(f"labels must be {n} integers in ascending order")
    ok = np.isfinite(x).all(axis=1)
    lhs = np.ones((n, d + 2))
    c = lhs[:, :d]
    c[:] = x - np.median(x[ok], axis=0, overwrite_input=True) if ok.any() else 0.0
    s = np.einsum("ij,ij->i", c, c)
    direct = ~(s < 2.0 ** 1020)  # NaN, inf, or large enough to overflow an estimate
    s[direct] = 0.0
    k = n - 1 - math.isqrt(n)  # and so is a row far from the rest; a zero s there keeps all
    direct |= s > 2.0 ** 20 * (float(np.partition(s, k)[k] if n else 0.0) or math.inf)  # float: inf, no warning
    c[direct] = s[direct] = 0.0
    rhs = np.ones_like(lhs)
    np.multiply(c, -2.0, out=rhs[:, :d])
    lhs[:, d] = rhs[:, d + 1] = s
    slack = 64 * (d + 2) * _U / (1 - (d + 2) * _U) * (s.max(initial=0.0) + 2.0 ** -1022)
    return PairGeometry(x, lhs, rhs, direct, float(slack),
                        None if labels is None else np.asarray(labels, dtype=np.int64))


def build_graph(geom: PairGeometry, threshold: float, held=None) -> BatchGraph:
    """Connect rows i and j of ``geom.x`` iff ||x_i - x_j||_2 < threshold (strict).

    A distance equal to the threshold gives no edge; no self-loops; a threshold
    that is not positive (0, negative or NaN) gives no edges and reads no estimate.
    The pairs are those of ``_edge_rule``, found one block of ``geom.cuts``
    at a time, so the estimates of every pair are never held at once; with
    ``held``, the blocks of an ``edge_pass`` at ``threshold``, only its held pairs.
    """
    n, parts = len(geom.x), [np.empty((2, 0), dtype=np.int64)]
    if held is None:
        held = ((a, geom.block(a, b), None) for a, b in zip(geom.cuts, geom.cuts[1:]))
    for first, e, k in (held if threshold > 0 else ()):
        f = np.flatnonzero(_edge_rule(geom, threshold, first, e, k))
        parts.append(np.stack(np.divmod(f if k is None else k[f], n - first)) + first)
    rows, cols = np.concatenate(parts, axis=1)
    return BatchGraph(num_nodes=n, rows=rows, cols=cols, threshold=float(threshold))


def _bounds(geom: PairGeometry, t: float) -> tuple:
    return t * t * (1 - 8 * _U) - geom.slack, t * t * (1 + 8 * _U) + geom.slack


def _edge_rule(geom: PairGeometry, t: float, first: int, e: np.ndarray, k=None) -> np.ndarray:
    """True where estimates ``e`` (at flat indices ``k``) of the block of rows from ``first``
    are edges at t > 0: below t^2 (1 - 8u) - E, or up to t^2 (1 + 8u) + E with distance < t."""
    low, high = _bounds(geom, t)
    keep = e < low
    band = np.flatnonzero((e <= high) ^ keep)
    i, j = np.divmod(band if k is None else k[band], len(geom.x) - first)
    np.put(keep, band, np.sqrt(_direct_sq(geom.x, i + first, j + first)) < t)
    return keep


def _block_stats(keep: np.ndarray, first: int, lab: np.ndarray) -> EdgeStats:
    """EdgeStats of the pairs (first + r, first + c) where ``keep[r, c]``, by ascending ``lab``."""
    at = {v: slice(*np.maximum(np.searchsorted(lab, [v, v + 1]) - first, 0))
          for v in {-1, *lab[first:first + len(keep)].tolist()}}
    unknown = sum(np.count_nonzero(keep[at[v]] if v == -1 else keep[at[v], at[-1]]) for v in at)
    right = sum(np.count_nonzero(keep[at[v], at[v]]) for v in at if v != -1)
    return EdgeStats(int(right), int(np.count_nonzero(keep) - right - unknown), int(unknown))


def edge_pass(geom: PairGeometry, threshold: float) -> tuple:
    """``EdgeStats`` by ``geom.labels`` of the pairs with estimates below low = t^2 (1 - 8u) - E,
    edges at t = ``threshold``, and the held pairs from low on of each block with one up to high =
    t^2 (1 + 8u) + E, whose edges ``build_graph(geom, t, held)`` finds: one ``_bracket_pass`` at
    [low, high], or none if the pass selecting t's ranks k <= k' holds it. Selection accepts
    lo <= zlo < a - 3E for the estimate a <= S_(k) + E of rank k (P - k pairs have S >= a - E),
    so e < lo gives e < S_(k) - 2E <= low, as E >= 128u R^2 >= 30u t^2 unless t is a far row's."""
    if not threshold > 0:
        return EdgeStats(0, 0, 0), []
    low, high = _bounds(geom, threshold)
    if geom._pass is None or not geom._pass[2] <= low or not high <= geom._pass[3]:
        object.__setattr__(geom, "_pass", (*_bracket_pass(geom, low, high)[2:], low, high))
    counted, held, n = geom._pass[0], [], len(geom.x)
    for first, e, k in geom._pass[1]:  # the pass's held pairs below low are edges too
        i, j = np.divmod(k[e < low], n - first)
        counted += edge_stats(BatchGraph(n, i + first, j + first, threshold), geom.labels)
        held.append((first, e[low <= e], k[low <= e]))
    return counted, [(a, e, k) for a, e, k in held if (e <= high).any()]  # the band's blocks


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


def _bracket_pass(geom: PairGeometry, lo: float, hi: float):
    """One pass over the blocks of ``geom``: the numbers of estimates below
    lo and above hi (a NaN is neither), per block its first row, its estimates in [lo, hi]
    and their flat indices in it, and with labels the ``_block_stats`` below lo."""
    cuts, counted, inside, below, above = geom.cuts, EdgeStats(0, 0, 0), [], 0, 0
    for a, b in zip(cuts, cuts[1:]):
        e = geom.block(a, b)
        lt, le = e < lo, e <= hi
        if geom.labels is not None:
            counted += _block_stats(lt, a, geom.labels)
        k = np.flatnonzero(np.greater(le, lt, out=le))  # in [lo, hi]
        below += np.count_nonzero(lt)
        above += np.count_nonzero(np.greater(e, hi, out=lt))
        inside.append((a, e.ravel()[k], k.astype(np.int32)))  # a block holds < 2**31 values
    return below, above, counted, inside


def _sample(geom: PairGeometry) -> np.ndarray:
    """Every s-th pair of ``geom``, s about n^(1/3) for n pairs: the estimates of a geometry
    of one block, made anyway (0.1 ms less per 128-row step), or else direct squares."""
    n, pairs = len(geom.x), geom.pairs
    k = np.arange(0, pairs, math.ceil(pairs ** (1 / 3)))
    i = np.searchsorted(_row_offset(n, np.arange(n)), k, side="right") - 1
    j = k - _row_offset(n, i) + i + 1
    return geom.block(0, n - 1)[i, j] if pairs <= _GRAM_PAIRS else _direct_sq(geom.x, i, j)


def _select(geom: PairGeometry, ranks: list):
    """The direct distances of the given ranks of the pairs of ``geom``, in
    ascending order, exactly, or None when one is NaN (numpy sorts NaN
    last, so a NaN makes any percentile NaN).

    It holds one block of estimates at a time (Floyd & Rivest, CACM 18(3),
    1975): the m pairs of ``_sample``, sorted, bracket the ranks between
    two sample values lo <= hi, _MARGIN * sqrt(m ln n) sample ranks beyond
    them for n pairs; one ``_bracket_pass`` counts the estimates below and
    above them and gathers those between. When these hold the ranks'
    estimates a <= b and every estimate within (a - 3E, b + 3E), where a
    pair that can hold a rank lies, only those pairs are computed directly
    and partitioned. Otherwise the margin grows fourfold and the pass
    repeats, counting afresh; the sample's ends give way to -inf and inf, so
    the answer is always exact (and with labels kept for ``edge_pass``).
    """
    x, n, pairs = geom.x, len(geom.x), geom.pairs
    sample = np.sort(_sample(geom))  # a NaN in it is found again by the pass
    m = sample.size
    margin = _MARGIN * math.sqrt(m * math.log(pairs))
    while True:
        a = math.floor(min(ranks) * m / pairs - margin)
        b = math.ceil((max(ranks) + 1) * m / pairs + margin)
        lo = sample[a] if a > 0 else -math.inf
        hi = sample[b] if b < m - 1 else math.inf
        below, above, counted, inside = _bracket_pass(geom, lo, hi)
        if below + above + sum(k.size for _, _, k in inside) < pairs:
            return None  # a NaN is neither below, above nor inside
        if below <= min(ranks) and max(ranks) < pairs - above:
            est = np.concatenate([e for _, e, _ in inside])
            ends = [min(ranks) - below, max(ranks) - below]
            est.partition(ends)
            # rounded outwards, as a directly computed estimate can dwarf the slack
            zlo = np.nextafter(est[ends[0]] - 3 * geom.slack, -math.inf)
            zhi = np.nextafter(est[ends[1]] + 3 * geom.slack, math.inf)
            if lo <= zlo and zhi <= hi:
                break
        margin = 4 * margin + 1
    object.__setattr__(geom, "_pass", None if geom.labels is None else (counted, inside, lo, hi))
    d = []
    for first, e, k in inside:
        below += np.count_nonzero(e <= zlo)
        i, j = np.divmod(k[(e > zlo) & (e < zhi)], n - first)
        d.append(_direct_sq(x, i + first, j + first))
    # a rank past the zone has an infinite estimate, and so S = inf
    d = np.append(np.sqrt(np.concatenate(d)), math.inf)
    kth = [min(r - below, d.size - 1) for r in ranks]
    d.partition(kth)
    return d[kth].tolist()


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
    k, k1, t = _lerp_ranks(geom.pairs, p)
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
