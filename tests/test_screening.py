"""Tests for thresholding, edge sets, and connected components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components as csgraph_components
from scipy.special import ndtri

from tauscreen import (
    CorrMatrix,
    EdgeSet,
    InvalidInputError,
    JackknifeVarMatrix,
    MissingInputError,
    Partition,
    ThresholdSpec,
    compare_partitions,
    connected_components,
    screen_edges,
    threshold_matrix,
)
from tauscreen.screening import (
    _ndtri,
    read_edges_tsv,
    read_partition_tsv,
    write_edges_tsv,
    write_partition_tsv,
)


def corr_from_offdiag(p, pairs, kind="kendall-sine"):
    m = np.eye(p)
    for (j, k), v in pairs.items():
        m[j, k] = m[k, j] = v
    return CorrMatrix(m, kind)


class TestThresholdSpec:
    def test_mode_validation(self):
        with pytest.raises(InvalidInputError):
            ThresholdSpec.fixed(-0.1)
        with pytest.raises(InvalidInputError):
            ThresholdSpec.rate(0.0, 0.25)
        with pytest.raises(InvalidInputError):
            ThresholdSpec.rate(1.0, 0.5)
        with pytest.raises(InvalidInputError):
            ThresholdSpec.fpr()
        with pytest.raises(InvalidInputError):
            ThresholdSpec.fpr(f=1.0, q=0.1)
        with pytest.raises(InvalidInputError):
            ThresholdSpec.fpr(q=1.5)

    def test_resolve_f_from_q(self):
        spec = ThresholdSpec.fpr(q=0.2)
        assert spec.resolve_f(5) == pytest.approx(0.2 * 10)


class TestThresholdMatrix:
    def test_rate_hand_value(self):
        # (2/3) * 0.6 * 16^(-1/4) = 0.4 / 2 = 0.2
        t = threshold_matrix(ThresholdSpec.rate(0.6, 0.25), n=16, p=3)
        off = t[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.2, atol=1e-15)
        assert np.all(off == ThresholdSpec.rate(0.6, 0.25).rate_gamma(16))

    def test_fixed(self):
        t = threshold_matrix(ThresholdSpec.fixed(0.5), n=10, p=4)
        assert np.all(t[~np.eye(4, dtype=bool)] == 0.5)

    def test_fpr_hand_value(self):
        # unit variance estimate, n=100, f/(p(p-1)) = 0.025:
        # gamma = (pi/2) * PhiInv(0.975) / 10 ~= 0.30787
        jack = JackknifeVarMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        t = threshold_matrix(ThresholdSpec.fpr(f=0.05), n=100, p=2, jack=jack)
        assert t[0, 1] == pytest.approx(0.30787, abs=5e-5)
        assert t[0, 1] == pytest.approx(np.pi / 2 * ndtri(0.975) / 10.0, abs=1e-12)

    def test_fpr_requires_jack(self):
        with pytest.raises(MissingInputError):
            threshold_matrix(ThresholdSpec.fpr(q=0.1), n=100, p=3)

    def test_fpr_budget_too_large(self):
        jack = JackknifeVarMatrix(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            threshold_matrix(ThresholdSpec.fpr(f=1.0), n=100, p=2, jack=jack)

    def test_degenerate_pair_warns_and_gets_zero_threshold(self):
        jack = JackknifeVarMatrix(np.array([[0.0, 0.0], [0.0, 0.0]]))
        with pytest.warns(UserWarning):
            t = threshold_matrix(ThresholdSpec.fpr(f=0.5), n=100, p=2, jack=jack)
        assert t[0, 1] == 0.0


class TestNdtri:
    """``_ndtri`` returns the same double as ``scipy.special.ndtri``."""

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(20240809)
        split = np.exp(-2.0)  # the central/tail split; x = 8 is y = exp(-32)
        points = np.concatenate([
            rng.uniform(0.0, 1.0, 60_000),
            np.exp(-rng.uniform(0.0, np.log(1e300), 20_000)),  # lower tail to 1e-300
            1.0 - np.exp(-rng.uniform(0.0, np.log(1e15), 20_000)),  # upper tail to 1 - 1e-15
            rng.uniform(split * (1 - 1e-6), split * (1 + 1e-6), 1_000),
            1.0 - rng.uniform(split * (1 - 1e-6), split * (1 + 1e-6), 1_000),
            np.exp(-32.0) * rng.uniform(1 - 1e-6, 1 + 1e-6, 1_000),
            1.0 - np.exp(-32.0) * rng.uniform(1 - 1e-6, 1 + 1e-6, 1_000),
            np.nextafter(split, [0.0, 1.0]), np.nextafter(1.0 - split, [0.0, 1.0]),
            np.nextafter(np.exp(-32.0), [0.0, 1.0]),
            [split, 1.0 - split, np.exp(-32.0), 1e-300, 1.0 - 1e-15, 5e-324, 0.5],
        ])
        assert points.size >= 100_000 and 0.0 < points.min() and points.max() < 1.0
        mine = np.array([_ndtri(y) for y in points.tolist()])
        assert mine.tobytes() == ndtri(points).tobytes()

    def test_ends_are_infinite(self):
        assert _ndtri(0.0) == -np.inf
        assert _ndtri(1.0) == np.inf


class TestScreening:
    def test_thresholds_above_one_give_empty(self):
        corr = corr_from_offdiag(3, {(0, 1): 0.9, (0, 2): -1.0})
        edges = screen_edges(corr, np.full((3, 3), 1.1))
        assert np.array_equal(edges.edges, np.empty((0, 2)))

    def test_zero_threshold_gives_complete_graph(self):
        corr = corr_from_offdiag(3, {(0, 1): 0.2, (0, 2): -0.4, (1, 2): 0.1})
        edges = screen_edges(corr, np.zeros((3, 3)))
        assert np.array_equal(edges.edges, [[0, 1], [0, 2], [1, 2]])

    def test_selective(self):
        corr = corr_from_offdiag(3, {(0, 1): 0.6, (0, 2): 0.2, (1, 2): -0.7})
        edges = screen_edges(corr, np.full((3, 3), 0.5))
        assert np.array_equal(edges.edges, [[0, 1], [1, 2]])

    def test_strict_inequality_at_threshold(self):
        corr = corr_from_offdiag(2, {(0, 1): 0.5})
        assert np.array_equal(screen_edges(corr, np.full((2, 2), 0.5)).edges, np.empty((0, 2)))

    def test_raw_kind_rejected(self):
        corr = corr_from_offdiag(2, {(0, 1): 0.5}, kind="kendall-raw")
        with pytest.raises(InvalidInputError):
            screen_edges(corr, np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        corr = corr_from_offdiag(3, {})
        with pytest.raises(InvalidInputError):
            screen_edges(corr, np.zeros((2, 2)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    def test_monotonicity_and_consistency(self, p, rnd):
        vals = {}
        for j in range(p):
            for k in range(j + 1, p):
                vals[(j, k)] = rnd.uniform(-1, 1)
        corr = corr_from_offdiag(p, vals)
        lo = rnd.uniform(0, 0.6)
        hi = lo + rnd.uniform(0, 0.4)
        e_lo = screen_edges(corr, np.full((p, p), lo))
        e_hi = screen_edges(corr, np.full((p, p), hi))
        # raising thresholds can only drop edges
        assert e_hi.as_set() <= e_lo.as_set()
        # screening is sign-blind
        flipped = {jk: -v for jk, v in vals.items()}
        e_flip = screen_edges(corr_from_offdiag(p, flipped), np.full((p, p), lo))
        assert e_flip.as_set() == e_lo.as_set()


class TestComponents:
    def test_empty_edges(self):
        part = connected_components(EdgeSet(4, ()))
        assert part.component_id == (1, 2, 3, 4)

    def test_chain(self):
        part = connected_components(EdgeSet(4, ((0, 1), (1, 2))))
        assert part.component_id == (1, 1, 1, 2)

    def test_complete(self):
        edges = tuple((j, k) for j in range(5) for k in range(j + 1, 5))
        part = connected_components(EdgeSet(5, edges))
        assert part.n_components == 1

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=14), st.randoms(use_true_random=False))
    def test_matches_bfs_reference(self, p, rnd):
        # sparse random graphs: isolated nodes, p=1 and no edges all occur
        pairs = [(j, k) for j in range(p) for k in range(j + 1, p)]
        edges = rnd.sample(pairs, rnd.randint(0, min(len(pairs), p)))
        adjacent = {node: set() for node in range(p)}
        for j, k in edges:
            adjacent[j].add(k)
            adjacent[k].add(j)
        expect = [0] * p
        label = 0
        for start in range(p):  # labels 1..k in order of each component's lowest node
            if expect[start]:
                continue
            label += 1
            expect[start] = label
            queue = [start]
            while queue:
                for other in adjacent[queue.pop()]:
                    if not expect[other]:
                        expect[other] = label
                        queue.append(other)
        part = connected_components(EdgeSet(p, edges))
        assert part.component_id == tuple(expect)

    def test_single_node(self):
        assert connected_components(EdgeSet(1, ())).component_id == (1,)

    @staticmethod
    def _csgraph_labels(e):
        j, k = e.edges.T
        graph = coo_array((np.ones(len(e), dtype=np.int8), (j, k)), shape=(e.p, e.p))
        return tuple((csgraph_components(graph, directed=False)[1] + 1).tolist())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=60).flatmap(lambda p: st.tuples(
        st.just(p), st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                             max_size=2 * p))))
    def test_matches_csgraph(self, graph):
        # empty edge sets, p = 1, isolated nodes and repeated draws all occur
        p, drawn = graph
        edges = {(min(a, b), max(a, b)) for a, b in drawn if a != b}
        e = EdgeSet(p, tuple(edges))
        assert connected_components(e).component_id == self._csgraph_labels(e)

    @pytest.mark.parametrize("p", [2, 1000, 5000])
    def test_long_shuffled_path_matches_csgraph(self, p):
        order = np.random.default_rng(p).permutation(p)
        pairs = np.sort(np.column_stack([order[:-1], order[1:]]), axis=1)
        e = EdgeSet(p + 3, pairs)  # three isolated nodes at the end
        part = connected_components(e)
        assert part.component_id == self._csgraph_labels(e)
        assert part.component_id == (1,) * p + (2, 3, 4)

    def test_compare_partitions(self):
        a = Partition(3, (1, 1, 2))
        relabeled = Partition(3, (2, 2, 1))
        assert compare_partitions(a, a)
        assert compare_partitions(a, relabeled)
        assert not compare_partitions(Partition(3, (1, 1, 2)), Partition(3, (1, 2, 2)))
        with pytest.raises(InvalidInputError):
            compare_partitions(a, Partition(2, (1, 2)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12))
    def test_relabeling_invariance(self, labels):
        # canonicalize: remap to first-appearance order to build a Partition
        remap = {}
        canon = []
        for l in labels:
            if l not in remap:
                remap[l] = len(remap) + 1
            canon.append(remap[l])
        a = Partition(len(canon), tuple(canon))
        # arbitrary relabeling preserved under comparison
        perm = {l: len(remap) + 1 - l for l in set(canon)}
        relabeled = [perm[l] for l in canon]
        remap2 = {}
        canon2 = []
        for l in relabeled:
            if l not in remap2:
                remap2[l] = len(remap2) + 1
            canon2.append(remap2[l])
        b = Partition(len(canon2), tuple(canon2))
        assert compare_partitions(a, b)


class TestEdgeSetType:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EdgeSet(3, ((0, 0),))
        with pytest.raises(InvalidInputError):
            EdgeSet(3, ((2, 1),))
        with pytest.raises(InvalidInputError):
            EdgeSet(3, ((0, 3),))
        with pytest.raises(InvalidInputError):
            EdgeSet(3, ((0, 1), (0, 1)))

    def test_sorted_storage(self):
        e = EdgeSet(4, ((2, 3), (0, 1)))
        assert np.array_equal(e.edges, [[0, 1], [2, 3]])


    def test_messages(self):
        with pytest.raises(InvalidInputError, match=r"edge \(1, 3\) out of range for p=3"):
            EdgeSet(3, ((0, 1), (1, 3)))
        with pytest.raises(InvalidInputError, match=r"duplicate edge \(0, 2\)"):
            EdgeSet(3, ((0, 2), (0, 1), (0, 2)))
        with pytest.raises(InvalidInputError, match="must be \\(j, k\\) pairs"):
            EdgeSet(3, (0, 1))

    def test_input_forms(self):
        unsorted = EdgeSet(5, [(3, 4), (0, 2), (1, 4), (0, 1)])
        assert np.array_equal(unsorted.edges, [[0, 1], [0, 2], [1, 4], [3, 4]])
        assert unsorted.edges.dtype == np.intp
        source = np.array([[3, 4], [0, 2], [1, 4], [0, 1]])
        from_array = EdgeSet(5, source)
        assert np.array_equal(from_array.edges, unsorted.edges)
        assert source[0, 0] == 3  # the caller's array is not sorted in place
        for empty in ((), [], np.empty((0, 2), dtype=int)):
            e = EdgeSet(3, empty)
            assert e.edges.shape == (0, 2) and len(e) == 0 and e.as_set() == set()
        assert [(j, k) for j, k in unsorted.edges] == [(0, 1), (0, 2), (1, 4), (3, 4)]
        assert unsorted.as_set() == {(0, 1), (0, 2), (1, 4), (3, 4)}

    def test_edges_read_only(self):
        e = EdgeSet(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            e.edges[0, 0] = 2
        assert np.array_equal(e.edges, [[0, 1], [2, 3]])


class TestSerialization:
    def test_edges_roundtrip(self, tmp_path):
        corr = corr_from_offdiag(3, {(0, 1): 0.6, (1, 2): -0.7})
        edges = screen_edges(corr, np.full((3, 3), 0.5))
        path = tmp_path / "edges.tsv"
        write_edges_tsv(path, edges, corr)
        back, values = read_edges_tsv(path, p=3)
        assert back.as_set() == edges.as_set()
        assert values[(0, 1)] == 0.6
        assert values[(1, 2)] == -0.7
        header = path.read_text().splitlines()[0]
        assert header == "j\tj'\tvalue"

    def test_partition_roundtrip(self, tmp_path):
        part = connected_components(EdgeSet(4, ((0, 1), (1, 2))))
        path = tmp_path / "part.tsv"
        write_partition_tsv(path, part)
        assert read_partition_tsv(path).component_id == part.component_id
        assert path.read_text().splitlines()[0] == "node\tcomponent"

    def test_malformed_edge_line_located(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("j\tj'\tvalue\n1\t2\t0.5\n2\t3\n")
        with pytest.raises(InvalidInputError, match=r"edges\.tsv: line 3 has 2 cells"):
            read_edges_tsv(path)
        path.write_text("j\tj'\tvalue\n1\tx\t0.5\n")
        with pytest.raises(InvalidInputError, match=r"edges\.tsv: line 2: .*'x'"):
            read_edges_tsv(path)
        path.write_text("j\tj'\tvalue\n1\t2\t0.5\t\n")
        with pytest.raises(InvalidInputError, match=r"edges\.tsv: line 2 has 4 cells"):
            read_edges_tsv(path)

    def test_header_is_first_non_blank_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("\n\nj\tj'\tvalue\n1\t2\t0.5\n")
        assert read_edges_tsv(path)[1] == {(0, 1): 0.5}
        path.write_text("\n1\t2\t0.5\n")
        with pytest.raises(InvalidInputError, match=r"edges\.tsv: missing edge TSV header"):
            read_edges_tsv(path)

    def test_malformed_partition_located(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("node\tcomponent\n1\t1\n3\t1\n")
        with pytest.raises(InvalidInputError, match=r"part\.tsv: no line for node 2"):
            read_partition_tsv(path)
        path.write_text("node\tcomponent\n1\t1\n\n2\t1\t9\n")
        with pytest.raises(InvalidInputError, match=r"part\.tsv: line 4 has 3 cells"):
            read_partition_tsv(path)

    @pytest.mark.parametrize("line,p,message", [
        ("0\t2\t0.5", None, r"line 3: edge \(0, 2\) needs 1 <= j < j'$"),
        ("2\t1\t0.5", None, r"line 3: edge \(2, 1\) needs 1 <= j < j'$"),
        ("1\t4\t0.5", 3, r"line 3: edge \(1, 4\) needs 1 <= j < j' <= p=3"),
    ], ids=["j-zero", "j-above-jprime", "jprime-above-p"])
    def test_edge_out_of_range_located(self, tmp_path, line, p, message):
        path = tmp_path / "edges.tsv"
        path.write_text(f"j\tj'\tvalue\n1\t2\t0.5\n{line}\n")
        with pytest.raises(InvalidInputError, match=r"edges\.tsv: " + message):
            read_edges_tsv(path, p=p)

    def test_duplicate_edge_located(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("j\tj'\tvalue\n1\t2\t0.5\n2\t3\t0.1\n1\t2\t0.7\n")
        with pytest.raises(InvalidInputError,
                           match=r"edges\.tsv: line 4: duplicate edge \(1, 2\), first on line 2"):
            read_edges_tsv(path)

    def test_duplicate_partition_node_located(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("node\tcomponent\n1\t1\n1\t2\n2\t1\n")
        with pytest.raises(InvalidInputError,
                           match=r"part\.tsv: line 3: duplicate node 1, first on line 2"):
            read_partition_tsv(path)

    def test_partition_node_zero_located(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("node\tcomponent\n0\t1\n1\t1\n")
        with pytest.raises(InvalidInputError, match=r"part\.tsv: line 2: node 0 must be >= 1"):
            read_partition_tsv(path)
