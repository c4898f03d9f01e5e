import math
import warnings

import numpy as np
import pytest

from graphda import graphs
from graphda.graphs import (
    BatchGraph,
    EdgeStats,
    build_graph,
    edge_stats,
    pair_distances,
    percentile_threshold,
)
from graphda.losses import KernelSpec


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


def _pct(d, p):
    """percentile_threshold of a given condensed vector ``d``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a zero percentile warns
        return percentile_threshold(np.zeros((2, 1)), p, dists=d)


class TestBuildGraph:
    def test_identical_rows_always_connect(self):
        g = build_graph(np.array([[1.0, 2.0], [1.0, 2.0]]), threshold=1e-12)
        assert _edges(g) == ((0, 1),)

    def test_distance_exactly_threshold_excluded(self):
        # ||(0,0)-(6,8)|| = 10 exactly
        phi = np.array([[0.0, 0.0], [6.0, 8.0]])
        assert _edges(build_graph(phi, threshold=10.0)) == ()
        assert _edges(build_graph(phi, threshold=10.0 + 1e-6)) == ((0, 1),)

    def test_no_self_loops_and_symmetric_neighbors(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(30, 4))
        g = build_graph(phi, threshold=2.0)
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
            g = build_graph(phi, t)
            assert set(_edges(g)) == _oracle_edges(phi.tolist(), t)

    def test_every_edge_below_threshold(self):
        rng = np.random.default_rng(11)
        phi = rng.normal(size=(40, 5))
        g = build_graph(phi, threshold=2.5)
        for i, j in _edges(g):
            assert np.linalg.norm(phi[i] - phi[j]) < 2.5

    def test_edges_sorted_and_deterministic(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(20, 3))
        g1 = build_graph(phi, 2.0)
        g2 = build_graph(phi, 2.0)
        assert _edges(g1) == _edges(g2) == tuple(sorted(_edges(g1)))

    def test_monotone_in_threshold(self):
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            phi = rng.normal(size=(30, 4))
            lo = set(_edges(build_graph(phi, 1.0)))
            hi = set(_edges(build_graph(phi, 2.0)))
            assert lo <= hi

    def test_accepts_tensor_input(self):
        from graphda.autodiff import Tensor

        phi = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        g = build_graph(Tensor(phi), threshold=1.0)
        assert _edges(g) == ((0, 1),)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_graph(np.zeros((3, 2)), threshold=0.0)
        with pytest.raises(ValueError):
            build_graph(np.zeros((3, 2)), threshold=-1.0)
        with pytest.raises(ValueError):
            build_graph(np.zeros(5), threshold=1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_edges_and_all_pairs(self, n):
        phi = np.array([[0.0], [1.0], [3.0]])[:n]
        assert _edges(build_graph(phi, threshold=0.5)) == ()
        g = build_graph(phi, threshold=10.0)
        assert _edges(g) == tuple((i, j) for i in range(n) for j in range(i + 1, n))
        assert g.rows.dtype == g.cols.dtype == np.int64

    def test_row_ranges_hold_every_edge_once(self):
        # integer grid points: many distances tie, and the thresholds sit on them
        for seed, (n, parts) in enumerate([(40, 1), (40, 3), (40, 7), (61, 5), (9, 40), (2, 2)]):
            rng = np.random.default_rng(600 + seed)
            phi = rng.integers(0, 4, size=(n, 2)).astype(float)
            dists = pair_distances(phi)
            labels = rng.integers(-1, 3, size=n)
            cuts = graphs.row_cuts(n, parts)
            assert cuts[0] == 0 and cuts[-1] == n - 1 and cuts == sorted(cuts)
            for t in (percentile_threshold(phi, 50), 2.0, 1e9):
                whole = build_graph(phi, t)
                assert n < 9 or t == 1e9 or np.count_nonzero(dists == t) > 1
                assert set(_edges(whole)) == _oracle_edges(phi.tolist(), t)
                assert _edges(build_graph(phi, t, dists=dists, first=0, stop=n - 1)) == _edges(whole)
                ranged = [build_graph(phi, t, dists=dists, first=a, stop=b)
                          for a, b in zip(cuts, cuts[1:])]
                assert sum((_edges(g) for g in ranged), ()) == _edges(whole)
                for (a, b), g in zip(zip(cuts, cuts[1:]), ranged):
                    assert g.num_nodes == n and all(a <= i < b for i in g.rows.tolist())
                assert (sum((edge_stats(g, labels) for g in ranged), EdgeStats(0, 0, 0))
                        == edge_stats(whole, labels))

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

    def test_rejects_a_range_outside_the_rows(self):
        phi = np.zeros((5, 2))
        for first, stop in [(-1, 2), (3, 2), (0, 5)]:
            with pytest.raises(ValueError, match="row range"):
                build_graph(phi, 1.0, first=first, stop=stop)

    def test_adjacency_matrix(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(15, 3))
        g = build_graph(phi, 2.0)
        a = g.adjacency()
        assert a.shape == (15, 15)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert a.sum() == 2 * g.num_edges


class TestPairGeometry:
    def test_pair_distances_equal_row_loop_reference(self):
        # at 600 and 1450 rows of 64 the scan buffer holds n - 1 rows, so its
        # first fills take one row and its last fills many; 1450 x 64 and
        # 2100 x 7 lie above the split size
        shapes = [(0, 3), (1, 3), (2, 1), (17, 4), (128, 64), (600, 64), (1450, 64),
                  (2100, 7), (129, 130), (3, 2)]
        for seed, (n, d) in enumerate(shapes):
            phi = np.random.default_rng(300 + seed).normal(size=(n, d))
            got = pair_distances(phi)
            assert got.shape == (n * (n - 1) // 2,)
            assert np.array_equal(got, _row_loop_distances(phi))

    def test_split_count_changes_no_bit(self, monkeypatch):
        phi = np.random.default_rng(41).normal(size=(1000, 7))  # 499500 pairs: up to 3 ranges
        scan = graphs._scan_rows
        ranges = []
        monkeypatch.setattr(graphs, "_scan_rows", lambda x, out, first, stop, buf: (
            ranges.append((first, stop)), scan(x, out, first, stop, buf))[1])
        want = _row_loop_distances(phi)
        for cpus in (1, 2, 3):
            ranges.clear()
            monkeypatch.setattr(graphs, "_cpu_count", lambda: cpus)
            assert np.array_equal(pair_distances(phi), want)
            cuts = sorted(ranges)
            assert len(cuts) == cpus and cuts[0][0] == 0 and cuts[-1][1] == 999
            assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
        # a training batch's 8128 pairs stay on one thread whatever the CPU count
        ranges.clear()
        monkeypatch.setattr(graphs, "_cpu_count", lambda: 8)
        pair_distances(phi[:128])
        assert ranges == [(0, 127)]

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        scan = graphs._scan_rows

        def fail_late_ranges(x, out, first, stop, buf):
            if first > 0:  # every range but the first runs on a worker thread
                raise MemoryError("worker range")
            scan(x, out, first, stop, buf)

        monkeypatch.setattr(graphs, "_scan_rows", fail_late_ranges)
        monkeypatch.setattr(graphs, "_cpu_count", lambda: 3)
        with pytest.raises(MemoryError, match="worker range"):
            pair_distances(np.zeros((1000, 2)))

    def test_ties_exactly_at_threshold(self):
        # integer grid points with repeats: many pairs sit exactly at the median
        phi = np.random.default_rng(31).integers(0, 4, size=(40, 2)).astype(float)
        dists = pair_distances(phi)
        assert np.array_equal(dists, _row_loop_distances(phi))
        t = percentile_threshold(phi, 50)
        assert np.count_nonzero(dists == t) > 1
        g = build_graph(phi, t)
        assert set(_edges(g)) == _oracle_edges(phi.tolist(), t)
        assert _edges(build_graph(phi, t, dists=dists)) == _edges(g)

    def test_consumers_agree_with_and_without_dists(self):
        for seed in range(6):
            rng = np.random.default_rng(400 + seed)
            phi = rng.normal(size=(24, 5))
            dists = pair_distances(phi)
            for p in (0, 37.5, 50, 100):
                assert percentile_threshold(phi, p, dists=dists) == percentile_threshold(phi, p)
            t = percentile_threshold(phi, 40)
            g1, g2 = build_graph(phi, t), build_graph(phi, t, dists=dists)
            assert _edges(g1) == _edges(g2)
            assert g1.threshold == g2.threshold and g1.num_nodes == g2.num_nodes
            assert (KernelSpec.from_median_heuristic(phi[:12], phi[12:], dists=dists)
                    == KernelSpec.from_median_heuristic(phi[:12], phi[12:]))

    def test_edge_arrays_are_read_only(self):
        g = build_graph(np.arange(4.0).reshape(4, 1), 1.5)
        with pytest.raises(ValueError):
            g.rows[0] = 3


class TestEdgeStats:
    def _chain(self, n):
        # path graph 0-1-2-...-(n-1) via collinear equispaced points
        phi = np.arange(n, dtype=float).reshape(n, 1)
        return build_graph(phi, threshold=1.5)

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
            g = build_graph(phi, 2.0)
            labels = rng.integers(-1, 3, size=30)
            s = edge_stats(g, labels)
            assert s.total == g.num_edges
            assert s.right >= 0 and s.wrong >= 0 and s.unknown >= 0

    def test_matches_python_loop_oracle(self):
        for seed in range(6):
            rng = np.random.default_rng(500 + seed)
            g = build_graph(rng.normal(size=(30, 3)), 1.5)
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


class TestPercentileThreshold:
    def test_single_pair(self):
        phi = np.array([[0.0], [10.0]])
        assert percentile_threshold(phi, 50) == 10.0

    def test_p0_is_min_distance(self):
        phi = np.array([[0.0], [1.0], [4.0]])  # pair distances 1, 4, 3
        assert percentile_threshold(phi, 0) == 1.0
        assert percentile_threshold(phi, 100) == 4.0

    def test_four_collinear_points_median(self):
        # distances {1,1,1,2,2,3}, 50th percentile interpolates to 1.5
        phi = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert percentile_threshold(phi, 50) == 1.5

    def test_degenerate_all_equal_warns_and_returns_zero(self):
        phi = np.ones((4, 2))
        with pytest.warns(UserWarning):
            assert percentile_threshold(phi, 50) == 0.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(20, 4))
        ts = [percentile_threshold(phi, p) for p in (0, 10, 50, 90, 100)]
        assert ts == sorted(ts)

    def test_rejects_out_of_range(self):
        phi = np.zeros((3, 2))
        for p in (-0.1, 100.1):
            with pytest.raises(ValueError):
                percentile_threshold(phi, p)
        with pytest.raises(ValueError):
            percentile_threshold(np.zeros((1, 2)), 50)

    def test_matches_numpy_percentile_of_oracle_distances(self):
        rng = np.random.default_rng(21)
        phi = rng.normal(size=(12, 3))
        x = phi.tolist()
        ds = [
            math.sqrt(sum((a - b) ** 2 for a, b in zip(x[i], x[j])))
            for i in range(12)
            for j in range(i + 1, 12)
        ]
        got = percentile_threshold(phi, 37.5)
        assert got == float(np.percentile(ds, 37.5))

    def test_bits_equal_numpy_percentile(self):
        rng = np.random.default_rng(61)
        big = graphs._SCAN_VALUES + 1  # the counting pass reads two chunks
        for n in (1, 2, 3, 17, 1000, big, 3 * big + 7):
            for d in (rng.random(n), rng.integers(0, 6, size=n).astype(float),
                      np.sort(rng.exponential(size=n))):
                for p in (0, 100, 50, 37.5, float(rng.uniform(0, 100))):
                    assert _pct(d, p) == float(np.percentile(d, p)), (n, p)
        # a weight t >= 0.5 measures back from the upper value: a + (b - a) * t
        # would land one ulp off numpy here
        for (a, b), p in (((1.0, 10.0), 80.0), ((0.1, 3.7), 60.0)):
            assert a + (b - a) * (p / 100) != np.percentile([b, a], p)
            assert _pct(np.array([b, a]), p) == float(np.percentile([b, a], p))
        d = rng.random(big)
        d[big // 3] = np.nan
        for d in (d, np.array([1.0, np.nan, 2.0])):
            for p in (0, 50, 100):
                assert math.isnan(_pct(d, p)) and math.isnan(np.percentile(d, p))

    def test_bracket_miss_widens_to_the_exact_value(self, monkeypatch):
        # with no margin the sampled bracket is about one sample rank wide and
        # misses most ranks; the widened passes must still land on numpy's bits
        passes = []
        scan = graphs._bracket_pass
        monkeypatch.setattr(graphs, "_bracket_pass", lambda *a: (passes.append(a[1:]), scan(*a))[1])
        monkeypatch.setattr(graphs, "_MARGIN", 0.0)
        rng = np.random.default_rng(62)
        d = rng.random(4 * graphs._SCAN_VALUES)
        ps = (0, 1, 37.5, 50, 63.2, 99, 100)
        for p in ps:
            assert _pct(d, p) == float(np.percentile(d, p)), p
        assert len(passes) > len(ps)
        assert (-math.inf, math.inf) not in passes  # no rank needed the whole vector
        d = rng.integers(0, 3, size=4 * graphs._SCAN_VALUES).astype(float)  # ties at both ends
        for p in ps:
            assert _pct(d, p) == float(np.percentile(d, p)), p


def test_graph_types_are_immutable():
    g = build_graph(np.array([[0.0], [1.0]]), 2.0)
    with pytest.raises(AttributeError):
        g.threshold = 5.0
    s = EdgeStats(1, 2, 3)
    assert s.total == 6
    with pytest.raises(AttributeError):
        s.right = 0
    assert isinstance(g, BatchGraph)
