import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphda import graphs
from graphda.graphs import (
    BatchGraph,
    EdgeStats,
    build_graph,
    edge_pass,
    edge_stats,
    pair_distances,
    percentile_threshold,
)
from graphda.losses import MEDIAN_SCALES, KernelSpec
from geometry import graph_of, kernels_of, threshold_of


def _edges(g):
    """The edge arrays as a tuple of (i, j) pairs."""
    return tuple(zip(g.rows.tolist(), g.cols.tolist()))


def _neighbors(g):
    """Adjacency lists derived from the edge arrays."""
    out = [[] for _ in range(g.num_nodes)]
    for i, j in _edges(g):
        out[i].append(j)
        out[j].append(i)
    return out


def _row_loop_distances(x):
    """Reference pair scan: one direct-difference row at a time, concatenated."""
    rows = []
    for i in range(len(x) - 1):
        diff = x[i + 1:] - x[i]
        rows.append(np.sqrt((diff * diff).sum(axis=1)))
    return np.concatenate(rows) if rows else np.zeros(0)


def _oracle_edges(x, threshold):
    """Brute-force double loop in plain Python."""
    n = len(x)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x[i], x[j])))
            if d < threshold:
                out.add((i, j))
    return out


class _Exact:
    """A pair geometry whose distances are a given vector, ranked by sorting."""

    def __init__(self, d):
        self.pairs, self.sorted = d.size, np.sort(d)

    def ranks(self, ranks):
        return [math.nan] * len(ranks) if np.isnan(self.sorted[-1]) else self.sorted[ranks].tolist()


def _pct(d, p):
    """percentile_threshold of a given condensed vector ``d``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a zero percentile warns
        return percentile_threshold(_Exact(d), p)


class TestBuildGraph:
    def test_identical_rows_always_connect(self):
        g = graph_of(np.array([[1.0, 2.0], [1.0, 2.0]]), threshold=1e-12)
        assert _edges(g) == ((0, 1),)

    def test_distance_exactly_threshold_excluded(self):
        # ||(0,0)-(6,8)|| = 10 exactly
        phi = np.array([[0.0, 0.0], [6.0, 8.0]])
        assert _edges(graph_of(phi, threshold=10.0)) == ()
        assert _edges(graph_of(phi, threshold=10.0 + 1e-6)) == ((0, 1),)

    def test_no_self_loops_and_symmetric_neighbors(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(30, 4))
        g = graph_of(phi, threshold=2.0)
        neighbors = _neighbors(g)
        for i, ns in enumerate(neighbors):
            assert i not in ns
            for j in ns:
                assert i in neighbors[j]

    def test_matches_double_loop_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            phi = rng.normal(size=(25, 3))
            t = float(rng.uniform(0.5, 4.0))
            g = graph_of(phi, t)
            assert set(_edges(g)) == _oracle_edges(phi.tolist(), t)

    def test_every_edge_below_threshold(self):
        rng = np.random.default_rng(11)
        phi = rng.normal(size=(40, 5))
        g = graph_of(phi, threshold=2.5)
        for i, j in _edges(g):
            assert np.linalg.norm(phi[i] - phi[j]) < 2.5

    def test_edges_sorted_and_deterministic(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(20, 3))
        g1 = graph_of(phi, 2.0)
        g2 = graph_of(phi, 2.0)
        assert _edges(g1) == _edges(g2) == tuple(sorted(_edges(g1)))

    def test_monotone_in_threshold(self):
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            phi = rng.normal(size=(30, 4))
            lo = set(_edges(graph_of(phi, 1.0)))
            hi = set(_edges(graph_of(phi, 2.0)))
            assert lo <= hi

    def test_rejects_bad_inputs(self):
        for phi in (np.zeros(5), np.zeros((2, 3, 2))):
            with pytest.raises(ValueError, match="2-D"):
                pair_distances(phi)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    def test_non_positive_threshold_gives_no_edges(self, threshold):
        # -1 squared would be a positive threshold; no estimate may be read
        geom = dataclasses.replace(pair_distances(np.array([[0.0], [0.5], [3.0]])), lhs=None)
        g = build_graph(geom, threshold)
        assert g.num_nodes == 3 and g.num_edges == 0
        assert g.rows.dtype == g.cols.dtype == np.int64
        counted = dataclasses.replace(geom, labels=np.array([-1, 0, 0]))
        assert _audited(counted, threshold) == EdgeStats(0, 0, 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_edges_and_all_pairs(self, n):
        phi = np.array([[0.0], [1.0], [3.0]])[:n]
        assert _edges(graph_of(phi, threshold=0.5)) == ()
        g = graph_of(phi, threshold=10.0)
        assert _edges(g) == tuple((i, j) for i in range(n) for j in range(i + 1, n))
        assert g.rows.dtype == g.cols.dtype == np.int64

    def test_row_ranges_hold_every_edge_once(self, monkeypatch):
        # integer grid points: many distances tie, and the thresholds sit on them;
        # the graph is built, and its edges counted by label, one Gram block of
        # rows at a time, from one block of all pairs down to one pair a block
        for seed, (n, block) in enumerate([(40, 780), (40, 260), (40, 112), (61, 366), (9, 1),
                                           (2, 1)]):
            monkeypatch.setattr(graphs, "_GRAM_PAIRS", block)
            rng = np.random.default_rng(600 + seed)
            phi = rng.integers(0, 4, size=(n, 2)).astype(float)
            labels = np.sort(rng.integers(-1, 3, size=n))
            geom = pair_distances(phi, labels)
            cuts, pairs = geom.cuts, n * (n - 1) // 2
            assert cuts[0] == 0 and cuts[-1] == n - 1 and cuts == sorted(cuts)
            assert len(cuts) - 1 == -(-pairs // block)
            for t in (threshold_of(phi, 50), 2.0, 1e9):
                whole = build_graph(geom, t)
                assert n < 9 or t == 1e9 or np.count_nonzero(_row_loop_distances(phi) == t) > 1
                assert set(_edges(whole)) == _oracle_edges(phi.tolist(), t)
                assert _edges(whole) == tuple(sorted(_edges(whole)))
                assert _audited(geom, t) == edge_stats(whole, labels)

    def test_row_cuts_split_pairs_evenly(self):
        for n in range(0, 30):
            pairs = n * (n - 1) // 2
            for parts in range(0, 6):
                cuts = graphs.row_cuts(n, parts)
                assert len(cuts) == parts + 1 and cuts[0] == 0
                assert cuts[-1] == (max(n - 1, 0) if parts else 0)
                for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
                    got = graphs._row_offset(n, b) - graphs._row_offset(n, a)
                    assert got <= pairs * (k + 1) // parts - pairs * k // parts + max(n - 1, 0)

    def test_adjacency_matrix(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(15, 3))
        g = graph_of(phi, 2.0)
        a = g.adjacency()
        assert a.shape == (15, 15)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert a.sum() == 2 * g.num_edges


class TestPairGeometry:
    def test_pair_distances_equal_row_loop_reference(self):
        # the direct distances of every pair, and estimates within a quarter of
        # the slack of the direct squared sums: the slack's promised headroom
        shapes = [(0, 3), (1, 3), (2, 1), (17, 4), (128, 64), (600, 64), (1450, 64),
                  (2100, 7), (129, 130), (3, 2)]
        for seed, (n, d) in enumerate(shapes):
            phi = np.random.default_rng(300 + seed).normal(size=(n, d))
            geom = pair_distances(phi)
            want = _row_loop_distances(phi)
            i, j = np.triu_indices(n, 1)
            assert geom.pairs == i.size and np.array_equal(np.sqrt(graphs._direct_sq(phi, i, j)), want)
            sq = np.concatenate([((phi[i + 1:] - phi[i]) ** 2).sum(axis=1) for i in range(n - 1)]
                                or [np.zeros(0)])
            assert np.all(np.abs(_estimates(geom) - sq) <= geom.slack / 4)

    def test_direct_squares_of_rows_wider_than_a_chunk(self, monkeypatch):
        # a row wider than the chunk buffer gets one pair a chunk
        monkeypatch.setattr(graphs, "_SCAN_VALUES", 4)
        phi = np.random.default_rng(7).normal(size=(9, 7))
        i, j = np.triu_indices(9, 1)
        assert np.array_equal(np.sqrt(graphs._direct_sq(phi, i, j)), _row_loop_distances(phi))

    def test_ties_exactly_at_threshold(self):
        # integer grid points with repeats: many pairs sit exactly at the median
        phi = np.random.default_rng(31).integers(0, 4, size=(40, 2)).astype(float)
        geom = pair_distances(phi)
        t = threshold_of(phi, 50)
        assert np.count_nonzero(_row_loop_distances(phi) == t) > 1
        g = graph_of(phi, t)
        assert set(_edges(g)) == _oracle_edges(phi.tolist(), t)
        assert _edges(build_graph(geom, t)) == _edges(g)

    def test_a_shared_geometry_answers_as_fresh_ones(self):
        # a step's threshold, graph and kernel median read one geometry, whose
        # ranks keep what they found; each must answer as on a geometry of its own
        for seed in range(6):
            rng = np.random.default_rng(400 + seed)
            phi = rng.normal(size=(24, 5))
            geom = pair_distances(phi)
            for p in (0, 37.5, 50, 100):
                assert percentile_threshold(geom, p) == threshold_of(phi, p)
            t = percentile_threshold(geom, 40)
            g1, g2 = graph_of(phi, t), build_graph(geom, t)
            assert _edges(g1) == _edges(g2)
            assert g1.threshold == g2.threshold and g1.num_nodes == g2.num_nodes
            assert KernelSpec.from_median_heuristic(geom) == kernels_of(phi[:12], phi[12:])

    def test_edge_arrays_are_read_only(self):
        g = graph_of(np.arange(4.0).reshape(4, 1), 1.5)
        with pytest.raises(ValueError):
            g.rows[0] = 3


def _same(a, b):
    """Equal bits, NaN matching NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def _estimates(geom):
    """Every pair's estimate, condensed row-major, read one block of ``geom.cuts``
    at a time; each block is NaN below its pairs."""
    n, cuts, out = len(geom.x), geom.cuts, [np.zeros(0)]
    for a, b in zip(cuts, cuts[1:]):
        e = geom.block(a, b)
        upper = np.arange(a, n) > np.arange(a, b)[:, None]
        assert e.shape == upper.shape and np.isnan(e[~upper]).all()
        out.append(e[upper])
    return np.concatenate(out)


def _audited(geom, t):
    """The export's audit: ``edge_pass``'s counts below its bracket, plus the
    counts of the edges ``build_graph`` finds among the pairs it holds."""
    counted, held = edge_pass(geom, t)
    return counted + edge_stats(build_graph(geom, t, held), geom.labels)


def _condensed(g):
    """The graph's edges as condensed pair indices."""
    return graphs._row_offset(g.num_nodes, g.rows) + g.cols - g.rows - 1


def _check_against_oracle(phi, thresholds=()):
    """Thresholds, kernel median, edge sets and their counts by label (at a
    fixed threshold, and in the selection's own pass) against numpy on the
    direct row-loop distances."""
    want = _row_loop_distances(phi)
    geom = pair_distances(phi)
    for p in (0, 37.5, 50, 90, 100):
        got = percentile_threshold(geom, p)
        assert _same(got, float(np.percentile(want, p))), p
        thresholds += (got,)
    med = KernelSpec.from_median_heuristic(geom).bandwidths
    ref = float(np.median(want))
    assert all(_same(b, (ref if ref != 0.0 else 1.0) * s) for b, s in zip(med, MEDIAN_SCALES))
    labels = np.arange(len(phi)) * 4 // len(phi) - 1  # ascending, -1 to 2
    for t in thresholds:
        if not t > 0:
            continue
        whole = build_graph(geom, t)
        assert np.array_equal(_condensed(whole), np.flatnonzero(want < t)), t
        assert _audited(pair_distances(phi, labels), t) == edge_stats(whole, labels), t
    for p in (37.5, 90):
        counted = pair_distances(phi, labels)
        t = percentile_threshold(counted, p)
        assert _audited(counted, t) == edge_stats(build_graph(geom, t), labels), p
    return geom


def _hard_inputs():
    rng = np.random.default_rng(700)
    far = np.array([[1e8] * 5, [-1e8] * 5, [1e150, -1e150, 0.0, 0.0, 0.0],
                    [-1e150, 3.0, 1e8, 0.0, 0.0]])
    inputs = {
        "grid ties": rng.integers(0, 4, size=(300, 2)).astype(float),
        "duplicate rows": np.repeat(rng.normal(size=(60, 3)), 4, axis=0),
        "1e6 offset": rng.normal(size=(400, 7)) + 1e6,
        "far outlier": np.vstack([rng.normal(size=(300, 5)), np.full((1, 5), 1e8)]),
        "far rows": np.vstack([rng.normal(size=(300, 5)), far])[rng.permutation(304)],
        # a majority within 1e-4 of one point: the median norm is tiny, the others not far
        "tight cluster": np.vstack([3.0 + 1e-4 * rng.normal(size=(170, 5)),
                                    rng.normal(size=(130, 5))])[rng.permutation(300)],
    }
    for d, n in ((1, 1500), (2, 900), (7, 600), (64, 1500), (130, 200)):
        inputs[f"d={d}"] = rng.normal(size=(n, d))
    return inputs


class TestExactScreening:
    @pytest.mark.filterwarnings("ignore")
    def test_hard_inputs_match_the_direct_oracle(self):
        inputs = _hard_inputs()
        for name, phi in inputs.items():
            assert _check_against_oracle(phi, thresholds=(1.0, 2.0)).slack > 0, name
        # far rows leave the slack, and so the band, to the others
        assert pair_distances(inputs["far rows"]).slack < 1e-10
        assert pair_distances(inputs["far rows"]).direct.sum() == 4
        # but a cluster's rows are not far from the rest, which keep their estimates
        assert not pair_distances(inputs["tight cluster"]).direct.any()

    @pytest.mark.filterwarnings("ignore")
    def test_hard_inputs_across_blocks(self, monkeypatch):
        # at 64 pairs per Gram block, selection and edges cross hundreds of blocks,
        # and the whole graph is built one block at a time, never in one product
        monkeypatch.setattr(graphs, "_GRAM_PAIRS", 64)
        spans = []
        gram = graphs._gram
        monkeypatch.setattr(graphs, "_gram", lambda g, a, b: (spans.append((a, b)), gram(g, a, b))[1])
        for name, phi in _hard_inputs().items():
            assert len(_check_against_oracle(phi[-300:], thresholds=(1.0, 2.0)).cuts) > 300, name
        assert spans and (0, 299) not in spans

    def test_huge_finite_rows_warn_nothing(self):
        # every s is below 2**1020, so no row is direct, but 2**20 times the far-row
        # rank's s is not finite: that bound once overflowed with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geom = _check_against_oracle(np.arange(8.0)[:, None] * 1e152, thresholds=(2.5e152,))
        assert not geom.direct.any()

    @pytest.mark.filterwarnings("ignore")
    def test_non_finite_rows_keep_the_direct_results(self):
        base = np.random.default_rng(710).normal(size=(60, 4))
        cases = [((5, 2), np.nan), ((7, 0), np.inf), ((7, 0), -np.inf),
                 (([3, 9], 1), np.inf),  # the pair of two inf rows is inf - inf: NaN
                 ((11, 0), 1e300),  # its squared distances overflow to inf
                 ((11, 0), 5e153)]  # finite, but too large for an estimate
        for at, value in cases:
            phi = base.copy()
            phi[at] = value
            _check_against_oracle(phi, thresholds=(1.5, math.inf))
        # such a pair holds its S, and at t = its distance (the root rounded up)
        # S < t * t: only the margin t^2 (1 - 8u) keeps the pair out of the graph
        _check_against_oracle(np.array([[0.0, 0.0], [7.626540478400546e153, 7.825511154555444e153]]))

    def test_threshold_and_median_select_once(self, monkeypatch):
        calls = []
        select = graphs._select
        monkeypatch.setattr(graphs, "_select", lambda d, ranks: (calls.append(ranks), select(d, ranks))[1])
        rng = np.random.default_rng(720)
        for phi in (rng.normal(size=(40, 3)),  # 780 pairs: the median averages two ranks
                    rng.normal(size=(42, 3)),  # 861 pairs: the median is one rank
                    rng.integers(0, 3, size=(42, 2)).astype(float)):  # ties at the median
            want = _row_loop_distances(phi)
            geom = pair_distances(phi)
            calls.clear()
            assert percentile_threshold(geom, 50) == float(np.percentile(want, 50))
            kernels = KernelSpec.from_median_heuristic(geom)
            assert len(calls) == 1
            assert kernels.bandwidths == tuple(float(np.median(want)) * s for s in MEDIAN_SCALES)
            assert kernels_of(phi) == kernels


_GEOMETRY_PROBE = """
import json
import numpy as np
from graphda.graphs import build_graph, pair_distances, percentile_threshold
from graphda.losses import KernelSpec
phi = np.random.default_rng(91).normal(size=(1500, 64))
geom = pair_distances(phi)
ts = [percentile_threshold(geom, p) for p in (10, 50, 90)]
med = KernelSpec.from_median_heuristic(geom).bandwidths[2]
print(json.dumps([ts, med, [build_graph(geom, t).num_edges for t in ts]]))
"""


def test_results_do_not_depend_on_blas_threads():
    # the estimates' bits move with the BLAS thread count; nothing read from them may
    src = str(Path(graphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", _GEOMETRY_PROBE], capture_output=True, text=True, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}, timeout=300,
    ).stdout) for threads in ("1", "2")]
    want = _row_loop_distances(np.random.default_rng(91).normal(size=(1500, 64)))
    ts = [float(np.percentile(want, p)) for p in (10, 50, 90)]
    oracle = [ts, float(np.median(want)), [int(np.count_nonzero(want < t)) for t in ts]]
    assert runs[0] == runs[1] == oracle


class TestEdgeStats:
    def _chain(self, n):
        # path graph 0-1-2-...-(n-1) via collinear equispaced points
        phi = np.arange(n, dtype=float).reshape(n, 1)
        return graph_of(phi, threshold=1.5)

    def test_all_same_label(self):
        g = self._chain(4)  # 3 edges
        assert g.num_edges == 3
        s = edge_stats(g, [2, 2, 2, 2])
        assert (s.right, s.wrong, s.unknown) == (3, 0, 0)

    def test_one_wrong_edge(self):
        g = self._chain(2)
        s = edge_stats(g, [0, 1])
        assert (s.right, s.wrong, s.unknown) == (0, 1, 0)

    def test_unlabeled_endpoint_counts_unknown(self):
        g = self._chain(2)
        s = edge_stats(g, [0, -1])
        assert (s.right, s.wrong, s.unknown) == (0, 0, 1)

    def test_totals_match_edge_count(self):
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            phi = rng.normal(size=(30, 3))
            g = graph_of(phi, 2.0)
            labels = rng.integers(-1, 3, size=30)
            s = edge_stats(g, labels)
            assert s.total == g.num_edges
            assert s.right >= 0 and s.wrong >= 0 and s.unknown >= 0

    def test_matches_python_loop_oracle(self):
        for seed in range(6):
            rng = np.random.default_rng(500 + seed)
            g = graph_of(rng.normal(size=(30, 3)), 1.5)
            labels = rng.integers(-1, 3, size=30)
            right = wrong = unknown = 0
            for i, j in _edges(g):
                if labels[i] == -1 or labels[j] == -1:
                    unknown += 1
                elif labels[i] == labels[j]:
                    right += 1
                else:
                    wrong += 1
            assert unknown > 0 and right > 0 and wrong > 0
            assert edge_stats(g, labels) == EdgeStats(right, wrong, unknown)

    def test_label_length_mismatch(self):
        g = self._chain(3)
        with pytest.raises(ValueError):
            edge_stats(g, [0, 1])

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("margin", [graphs._MARGIN, 0.0])
    def test_audit_counts_of_one_pass_equal_build_graph(self, monkeypatch, margin):
        # edge_pass counts by label in the selection's own pass, or in one pass
        # at a fixed threshold; both must give edge_stats of build_graph at the
        # percentile of the direct distances, across hundreds of Gram blocks. With
        # no margin the bracket misses, and each widened pass counts afresh
        monkeypatch.setattr(graphs, "_GRAM_PAIRS", 64)
        monkeypatch.setattr(graphs, "_MARGIN", margin)
        passes, blocks = [], []
        scan, gram = graphs._bracket_pass, graphs._gram
        monkeypatch.setattr(graphs, "_bracket_pass", lambda *a: (passes.append(a[1:]), scan(*a))[1])
        monkeypatch.setattr(graphs, "_gram", lambda g, a, b: (blocks.append(a), gram(g, a, b))[1])
        rng = np.random.default_rng(81)
        far = np.array([[1e8] * 5, [-1e8] * 5, [1e150, -1e150, 0.0, 0.0, 0.0],
                        [-1e150, 3.0, 1e8, 0.0, 0.0]])
        nan_row = rng.normal(size=(160, 3))
        nan_row[41, 1] = np.nan
        inputs = {
            "gaussian": rng.normal(size=(160, 4)),
            "grid ties": rng.integers(0, 4, size=(160, 2)).astype(float),
            "far rows": np.vstack([rng.normal(size=(156, 5)), far])[rng.permutation(160)],
            "nan row": nan_row,
        }
        ps, selections, again = (0, 1, 37.5, 50, 99, 100), 0, {}
        for name, phi in inputs.items():
            labels = np.sort(rng.integers(-1, 3, size=len(phi)))
            want = _row_loop_distances(phi)
            assert len(pair_distances(phi).cuts) > 150
            for p in ps:
                geom = pair_distances(phi, labels)
                t = percentile_threshold(geom, p)
                assert t == float(np.percentile(want, p)) or math.isnan(t), (name, p)
                selections += 1
                blocks.clear()
                got = _audited(geom, t)
                again[name, p] = len(blocks)
                whole = build_graph(pair_distances(phi), t)
                assert got == edge_stats(whole, labels), (name, p)
                counted, held = edge_pass(geom, t)  # the held pairs' edges are the rest
                part = set(_edges(build_graph(geom, t, held)))
                assert part <= set(_edges(whole)) and counted.total + len(part) == whole.num_edges
                assert all(type(v) is int for v in dataclasses.astuple(got))
                assert got.total or p == 0 or not t > 0, (name, p)
            for t in (1.0, 0.0, -1.0, math.nan):
                got = _audited(pair_distances(phi, labels), t)
                assert got == edge_stats(build_graph(pair_distances(phi), t), labels), (name, t)
                assert got.total or not t > 0, (name, t)
        assert all(n == 0 for n in again.values())  # no block made twice
        # a threshold far from the selected ranks is outside the held pass's
        # certificate, and one more pass counts it
        phi, labels = inputs["gaussian"], np.sort(rng.integers(-1, 3, size=160))
        geom = pair_distances(phi, labels)
        t = percentile_threshold(geom, 50)
        for s in (0.3, 3.0):
            blocks.clear()
            got = _audited(geom, s * t)
            assert len(blocks) == len(geom.cuts) - 1
            assert got == edge_stats(build_graph(pair_distances(phi), s * t), labels), s
        assert _audited(pair_distances(nan_row, np.zeros(160)), math.nan) == EdgeStats(0, 0, 0)
        same = pair_distances(np.ones((40, 3)), np.arange(40))
        with pytest.warns(UserWarning, match="zero"):
            t = percentile_threshold(same, 50)
        assert t == 0.0 and _audited(same, t) == EdgeStats(0, 0, 0)
        if margin == 0:
            assert len(passes) > selections  # some brackets missed
        with pytest.raises(ValueError, match="ascending"):
            pair_distances(nan_row, np.arange(160)[::-1])


class TestPercentileThreshold:
    def test_single_pair(self):
        phi = np.array([[0.0], [10.0]])
        assert threshold_of(phi, 50) == 10.0

    def test_p0_is_min_distance(self):
        phi = np.array([[0.0], [1.0], [4.0]])  # pair distances 1, 4, 3
        assert threshold_of(phi, 0) == 1.0
        assert threshold_of(phi, 100) == 4.0

    def test_four_collinear_points_median(self):
        # distances {1,1,1,2,2,3}, 50th percentile interpolates to 1.5
        phi = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert threshold_of(phi, 50) == 1.5

    def test_degenerate_all_equal_warns_and_returns_zero(self):
        phi = np.ones((4, 2))
        with pytest.warns(UserWarning):
            assert threshold_of(phi, 50) == 0.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(20, 4))
        ts = [threshold_of(phi, p) for p in (0, 10, 50, 90, 100)]
        assert ts == sorted(ts)

    def test_rejects_out_of_range(self):
        phi = np.zeros((3, 2))
        for p in (-0.1, 100.1):
            with pytest.raises(ValueError):
                threshold_of(phi, p)
        # both rank readers refuse a single row
        one = pair_distances(np.zeros((1, 2)))
        for read in (lambda: percentile_threshold(one, 50),
                     lambda: KernelSpec.from_median_heuristic(one)):
            with pytest.raises(ValueError, match="at least 2 rows"):
                read()

    def test_matches_numpy_percentile_of_oracle_distances(self):
        rng = np.random.default_rng(21)
        phi = rng.normal(size=(12, 3))
        x = phi.tolist()
        ds = [
            math.sqrt(sum((a - b) ** 2 for a, b in zip(x[i], x[j])))
            for i in range(12)
            for j in range(i + 1, 12)
        ]
        got = threshold_of(phi, 37.5)
        assert got == float(np.percentile(ds, 37.5))

    def test_bits_equal_numpy_percentile(self):
        rng = np.random.default_rng(61)
        for n in (1, 2, 3, 17, 1000, 100_003):
            for d in (rng.random(n), rng.integers(0, 6, size=n).astype(float),
                      np.sort(rng.exponential(size=n))):
                for p in (0, 100, 50, 37.5, float(rng.uniform(0, 100))):
                    assert _pct(d, p) == float(np.percentile(d, p)), (n, p)
        # a weight t >= 0.5 measures back from the upper value: a + (b - a) * t
        # would land one ulp off numpy here
        for (a, b), p in (((1.0, 10.0), 80.0), ((0.1, 3.7), 60.0)):
            assert a + (b - a) * (p / 100) != np.percentile([b, a], p)
            assert _pct(np.array([b, a]), p) == float(np.percentile([b, a], p))
        d = rng.random(1000)
        d[333] = np.nan
        for d in (d, np.array([1.0, np.nan, 2.0])):
            for p in (0, 50, 100):
                assert math.isnan(_pct(d, p)) and math.isnan(np.percentile(d, p))

    @pytest.mark.filterwarnings("ignore")
    def test_bits_equal_numpy_percentile_across_blocks(self, monkeypatch):
        monkeypatch.setattr(graphs, "_GRAM_PAIRS", 64)
        rng = np.random.default_rng(63)
        for phi in (rng.normal(size=(2, 3)), rng.normal(size=(150, 4)),
                    rng.integers(0, 5, size=(170, 1)).astype(float),  # ties at every rank
                    np.sort(rng.exponential(size=(160, 1)), axis=0)):
            want = _row_loop_distances(phi)
            geom = pair_distances(phi)
            for p in (0, 100, 50, 37.5, float(rng.uniform(0, 100))):
                assert percentile_threshold(geom, p) == float(np.percentile(want, p)), (len(phi), p)
        phi[77] = np.nan
        assert math.isnan(percentile_threshold(pair_distances(phi), 50))

    @pytest.mark.filterwarnings("ignore")
    def test_bracket_miss_widens_to_the_exact_value(self, monkeypatch):
        # with no margin the sampled bracket is about one sample rank wide and
        # misses most ranks; the widened passes, each over hundreds of Gram
        # blocks, must still land on numpy's bits
        passes = []
        scan = graphs._bracket_pass
        monkeypatch.setattr(graphs, "_bracket_pass", lambda *a: (passes.append(a[1:]), scan(*a))[1])
        monkeypatch.setattr(graphs, "_MARGIN", 0.0)
        monkeypatch.setattr(graphs, "_GRAM_PAIRS", 64)
        rng = np.random.default_rng(62)
        ps = (0, 1, 37.5, 50, 63.2, 99, 100)
        for phi in (rng.normal(size=(200, 3)),
                    rng.integers(0, 3, size=(200, 1)).astype(float)):  # ties at both ends
            want = _row_loop_distances(phi)
            geom = pair_distances(phi)
            assert len(geom.cuts) > 300
            for p in ps:
                assert percentile_threshold(geom, p) == float(np.percentile(want, p)), p
        assert len(passes) > 2 * len(ps)  # some brackets missed
        assert (-math.inf, math.inf) not in passes  # no rank needed every pair


def test_graph_types_are_immutable():
    g = graph_of(np.array([[0.0], [1.0]]), 2.0)
    with pytest.raises(AttributeError):
        g.threshold = 5.0
    s = EdgeStats(1, 2, 3)
    assert s.total == 6
    with pytest.raises(AttributeError):
        s.right = 0
    assert isinstance(g, BatchGraph)
