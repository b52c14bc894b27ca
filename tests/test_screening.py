"""Tests for thresholding, edge arrays, and connected components."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components as csgraph_components
from scipy.special import ndtri

from tauscreen import (
    CorrMatrix,
    InvalidInputError,
    MissingInputError,
    RngStream,
    SimConfig,
    ThresholdSpec,
    connected_components,
    screen_edges,
    generate_ground_truth,
    threshold_matrix,
)
from tauscreen.screening import write_edges_tsv
from tauscreen.simgen import SCENARIOS, precision_support

from oracles import as_set, compare_partitions, edge_array, read_edge_pairs


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

    def test_cutoff_is_scalar_rules_only(self):
        assert ThresholdSpec.fixed(0.25).cutoff(10) == 0.25
        with pytest.raises(InvalidInputError, match="no single cutoff"):
            ThresholdSpec.fpr(q=0.1).cutoff(10)


class TestThresholdMatrix:
    def test_rate_hand_value(self):
        # (2/3) * 0.6 * 16^(-1/4) = 0.4 / 2 = 0.2
        t = threshold_matrix(ThresholdSpec.rate(0.6, 0.25), n=16, p=3)
        off = t[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.2, atol=1e-15)
        assert np.all(off == ThresholdSpec.rate(0.6, 0.25).cutoff(16))

    def test_fixed(self):
        t = threshold_matrix(ThresholdSpec.fixed(0.5), n=10, p=4)
        assert np.all(t[~np.eye(4, dtype=bool)] == 0.5)

    def test_fpr_hand_value(self):
        # unit variance estimate, n=100, f/(p(p-1)) = 0.025:
        # gamma = (pi/2) * PhiInv(0.975) / 10 ~= 0.30787
        omega2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = threshold_matrix(ThresholdSpec.fpr(f=0.05), n=100, p=2, omega2=omega2)
        assert t[0, 1] == pytest.approx(0.30787, abs=5e-5)
        assert t[0, 1] == pytest.approx(np.pi / 2 * ndtri(0.975) / 10.0, abs=1e-12)

    def test_fpr_z_matches_scipy_ndtri(self):
        # unit variance estimate, p=2: the cutoff is (pi/2) * PhiInv(1 - f/2) / sqrt(n)
        omega2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        half_f = np.geomspace(1e-15, 0.4999, 10_000)
        mine = np.array([
            threshold_matrix(ThresholdSpec.fpr(f=2.0 * h), n=100, p=2, omega2=omega2)[0, 1]
            for h in half_f.tolist()
        ])
        ref = np.pi / 2 * ndtri(1.0 - half_f) / 10.0
        assert np.all(np.abs(mine - ref) <= 2e-15 * ref)

    def test_fpr_budget_rounding_to_one_gives_inf(self):
        # f / (p(p-1)) = 1e-300 / 2: 1 - that rounds to 1.0, so z is infinite
        omega2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = threshold_matrix(ThresholdSpec.fpr(f=1e-300), n=100, p=2, omega2=omega2)
        assert t[0, 1] == t[1, 0] == np.inf

    def test_zero_variance_pair_keeps_zero_cutoff_at_infinite_z(self):
        omega2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        with pytest.warns(UserWarning) as record:
            t = threshold_matrix(ThresholdSpec.fpr(f=1e-300), n=100, p=3, omega2=omega2)
        assert [w.category for w in record] == [UserWarning]
        assert np.array_equal(t, [[0.0, 0.0, np.inf], [0.0, 0.0, np.inf], [np.inf, np.inf, 0.0]])

    def test_fpr_requires_jack(self):
        with pytest.raises(MissingInputError):
            threshold_matrix(ThresholdSpec.fpr(q=0.1), n=100, p=3)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
    def test_variance_shape_must_match_p(self, shape):
        with pytest.raises(InvalidInputError, match="variance matrix has shape"):
            threshold_matrix(ThresholdSpec.fpr(f=0.5), n=100, p=2, omega2=np.ones(shape))

    def test_fpr_budget_too_large(self):
        omega2 = np.zeros((2, 2))
        with pytest.raises(InvalidInputError):
            threshold_matrix(ThresholdSpec.fpr(f=1.0), n=100, p=2, omega2=omega2)

    def test_degenerate_pair_warns_and_gets_zero_threshold(self):
        omega2 = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.warns(UserWarning):
            t = threshold_matrix(ThresholdSpec.fpr(f=0.5), n=100, p=2, omega2=omega2)
        assert t[0, 1] == 0.0


class TestScreening:
    def test_thresholds_above_one_give_empty(self):
        corr = corr_from_offdiag(3, {(0, 1): 0.9, (0, 2): -1.0})
        edges = screen_edges(corr, np.full((3, 3), 1.1))
        assert np.array_equal(edges, np.empty((0, 2)))

    def test_zero_threshold_gives_complete_graph(self):
        corr = corr_from_offdiag(3, {(0, 1): 0.2, (0, 2): -0.4, (1, 2): 0.1})
        edges = screen_edges(corr, np.zeros((3, 3)))
        assert np.array_equal(edges, [[0, 1], [0, 2], [1, 2]])

    def test_selective(self):
        corr = corr_from_offdiag(3, {(0, 1): 0.6, (0, 2): 0.2, (1, 2): -0.7})
        edges = screen_edges(corr, np.full((3, 3), 0.5))
        assert np.array_equal(edges, [[0, 1], [1, 2]])

    def test_strict_inequality_at_threshold(self):
        corr = corr_from_offdiag(2, {(0, 1): 0.5})
        assert np.array_equal(screen_edges(corr, np.full((2, 2), 0.5)), np.empty((0, 2)))

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
        assert as_set(e_hi) <= as_set(e_lo)
        # screening is sign-blind
        flipped = {jk: -v for jk, v in vals.items()}
        e_flip = screen_edges(corr_from_offdiag(p, flipped), np.full((p, p), lo))
        assert as_set(e_flip) == as_set(e_lo)


def assert_edge_array(edges, p, pairs):
    """``edges`` is the read-only (E, 2) intp array of ``pairs`` on p nodes,
    each (j, k) with 0 <= j < k < p, rows strictly increasing in
    lexicographic order."""
    assert edges.ndim == 2 and edges.shape == (len(edges), 2)
    assert edges.dtype == np.intp and not edges.flags.writeable
    j, k = edges.T
    assert np.all((0 <= j) & (j < k) & (k < p))
    assert np.all((j[1:] > j[:-1]) | ((j[1:] == j[:-1]) & (k[1:] > k[:-1])))
    assert as_set(edges) == pairs and len(edges) == len(pairs)


def assert_labels(labels, p):
    """``labels`` is a read-only array of p labels 1..k without gaps, each
    label first seen after every lower one: at its component's lowest node."""
    assert labels.shape == (p,) and np.issubdtype(labels.dtype, np.integer)
    assert not labels.flags.writeable
    seen = 0
    for label in labels.tolist():
        assert 1 <= label <= seen + 1
        seen = max(seen, label)


def csgraph_labels(p, edges):
    """scipy's component labels of the graph, shifted to 1..k."""
    j, k = edges.T
    graph = coo_array((np.ones(len(edges), dtype=np.int8), (j, k)), shape=(p, p))
    return (csgraph_components(graph, directed=False)[1] + 1).tolist()


# correlation values and cutoffs drawn from one small pool, so that ties
# |corr| == cutoff are common
TIE_POOL = (0.0, 0.25, 0.5, 1.0)


@st.composite
def screens(draw):
    """A p x p correlation matrix and cutoffs: per pair from the tie pool,
    or one cutoff that keeps no pair (1) or every pair (-1)."""
    p = draw(st.integers(min_value=1, max_value=9))
    m = p * (p - 1) // 2
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=m, max_size=m))
    values = draw(st.lists(st.sampled_from(TIE_POOL), min_size=m, max_size=m))
    corr = np.eye(p)
    upper = np.triu_indices(p, 1)
    corr[upper] = np.multiply(signs, values)
    corr.T[upper] = corr[upper]
    rule = draw(st.sampled_from(("pool", "none", "all")))
    if rule == "pool":
        cuts = draw(st.lists(st.sampled_from(TIE_POOL), min_size=p * p, max_size=p * p))
        return corr, np.reshape(cuts, (p, p))
    return corr, np.full((p, p), 1.0 if rule == "none" else -1.0)


class TestEdgeArrays:
    """What the two producers of edge arrays, ``screen_edges`` and
    ``precision_support``, and ``connected_components`` guarantee."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(screens())
    def test_screen_edges(self, screen):
        corr, cuts = screen
        p = len(corr)
        edges = screen_edges(CorrMatrix(corr, "kendall-sine"), cuts)
        expect = {(j, k) for j in range(p) for k in range(j + 1, p)
                  if abs(corr[j, k]) > cuts[j, k]}
        assert_edge_array(edges, p, expect)
        labels = connected_components(p, edges)
        assert_labels(labels, p)
        assert labels.tolist() == csgraph_labels(p, edges)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(SCENARIOS), st.sampled_from((10, 20, 30)), st.integers(0, 50))
    @example("A", 3, 2)  # no true edge: simulate --scenario A --n 20 --p 3 --seed 2
    def test_precision_support(self, scenario, p, seed):
        sim = SimConfig(scenario=scenario, n=20, p=p, seed=seed)
        gt = generate_ground_truth(sim, RngStream(seed))
        expect = {(j, k) for j in range(p) for k in range(j + 1, p)
                  if abs(gt.omega[j, k]) > 1e-12}
        assert_edge_array(precision_support(gt.omega), p, expect)
        assert gt.edges is gt.edges
        assert_edge_array(gt.edges, p, expect)
        assert_labels(connected_components(p, gt.edges), p)


class TestComponents:
    def test_empty_edges(self):
        assert connected_components(4, edge_array(())).tolist() == [1, 2, 3, 4]

    def test_chain(self):
        assert connected_components(4, edge_array(((0, 1), (1, 2)))).tolist() == [1, 1, 1, 2]

    def test_complete(self):
        edges = edge_array((j, k) for j in range(5) for k in range(j + 1, 5))
        assert connected_components(5, edges).max() == 1

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
        labels = connected_components(p, edge_array(edges))
        assert labels.tolist() == expect
        assert_labels(labels, p)

    def test_single_node(self):
        assert connected_components(1, edge_array(())).tolist() == [1]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=60).flatmap(lambda p: st.tuples(
        st.just(p), st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                             max_size=2 * p))))
    def test_matches_csgraph(self, graph):
        # empty edge sets, p = 1, isolated nodes and repeated draws all occur
        p, drawn = graph
        edges = edge_array({(min(a, b), max(a, b)) for a, b in drawn if a != b})
        labels = connected_components(p, edges)
        assert labels.tolist() == csgraph_labels(p, edges)
        assert_labels(labels, p)

    @pytest.mark.parametrize("p", [2, 1000, 5000])
    def test_long_shuffled_path_matches_csgraph(self, p):
        order = np.random.default_rng(p).permutation(p)
        edges = edge_array(np.sort(np.column_stack([order[:-1], order[1:]]), axis=1).tolist())
        labels = connected_components(p + 3, edges)  # three isolated nodes at the end
        assert labels.tolist() == csgraph_labels(p + 3, edges)
        assert labels.tolist() == [1] * p + [2, 3, 4]

    def test_compare_partitions(self):
        a = np.array([1, 1, 2])
        assert compare_partitions(a, a)
        assert compare_partitions(a, np.array([2, 2, 1]))
        assert not compare_partitions(a, np.array([1, 2, 2]))
        with pytest.raises(InvalidInputError):
            compare_partitions(a, np.array([1, 2]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12))
    def test_relabeling_invariance(self, labels):
        # an arbitrary relabelling induces the same partition
        a = np.array(labels)
        perm = {l: 5 - l for l in set(labels)}
        assert compare_partitions(a, np.array([perm[l] for l in labels]))


class TestSerialization:
    def test_edges_roundtrip(self, tmp_path):
        corr = corr_from_offdiag(3, {(0, 1): 0.6, (1, 2): -0.7})
        edges = screen_edges(corr, np.full((3, 3), 0.5))
        path = tmp_path / "edges.tsv"
        write_edges_tsv(path, edges, corr)
        back, values = read_edge_pairs(path, p=3)
        assert as_set(back) == as_set(edges)
        assert values == {(0, 1): 0.6, (1, 2): -0.7}
        header = path.read_text().splitlines()[0]
        assert header == "j\tj'\tvalue"
