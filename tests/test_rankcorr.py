"""Tests for the tau statistics and derived estimators."""

import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauscreen import (
    CorrMatrix,
    DataMatrix,
    DegenerateColumnError,
    InvalidInputError,
    JackknifeVarMatrix,
    RngStream,
    jackknife_matrix,
    jackknife_variance,
    kendall_matrix,
    kendall_tau_fast,
    kendall_tau_naive,
    pearson_matrix,
    sine_transform,
)
from tauscreen import rankcorr


def sign(v):
    return int(v > 0) - int(v < 0)


def tau_by_enumeration(x, y):
    """Independent oracle: literal loop over unordered observation pairs."""
    n = len(x)
    s = 0
    for i in range(n):
        for k in range(i + 1, n):
            s += sign(x[i] - x[k]) * sign(y[i] - y[k])
    return 2 * s / (n * (n - 1))


def jackknife_by_double_loop(x, y):
    """Independent oracle: literal double loop over the leave-one-out means."""
    n = len(x)
    tau = tau_by_enumeration(x, y)
    total = 0.0
    for held in range(n):
        inner = 0
        for i in range(n):
            if i != held:
                inner += sign(x[i] - x[held]) * sign(y[i] - y[held])
        total += (inner / (n - 1) - tau) ** 2
    return 4.0 * (n - 1) / (n - 2) ** 2 * total


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestTauNaive:
    def test_concordant(self):
        assert kendall_tau_naive([1, 2, 3], [1, 2, 3]) == 1.0

    def test_discordant(self):
        assert kendall_tau_naive([1, 2, 3], [3, 2, 1]) == -1.0

    def test_one_swap(self):
        # 6 pairs: 5 concordant, 1 discordant -> (5-1)/6
        assert kendall_tau_naive([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            x = rng.integers(0, 6, size=n).astype(float)  # ties likely
            y = rng.normal(size=n)
            assert kendall_tau_naive(x, y) == pytest.approx(tau_by_enumeration(x, y), abs=1e-15)

    def test_rejects_short(self):
        with pytest.raises(InvalidInputError):
            kendall_tau_naive([1.0], [2.0])

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            kendall_tau_naive([1.0, np.nan], [1.0, 2.0])


class TestTauFast:
    def test_tie_pair(self):
        # one pair tied in x contributes 0; the other two are concordant
        assert kendall_tau_fast([1, 1, 2], [5, 6, 7]) == pytest.approx(2 / 3)

    def test_constant_column(self):
        assert kendall_tau_fast([3, 3, 3, 3], [1, 2, 3, 4]) == 0.0

    def test_matches_naive_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            if rng.random() < 0.5:
                x = rng.integers(0, 8, size=n).astype(float)
                y = rng.integers(0, 8, size=n).astype(float)
            else:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            assert abs(kendall_tau_fast(x, y) - kendall_tau_naive(x, y)) <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=40).flatmap(
        lambda xs: st.tuples(st.just(xs),
                             st.lists(finite_floats, min_size=len(xs), max_size=len(xs)))))
    def test_matches_naive_property(self, pair):
        x, y = pair
        assert abs(kendall_tau_fast(x, y) - kendall_tau_naive(x, y)) <= 1e-12


class TestKendallMatrix:
    def test_single_column(self):
        m = kendall_matrix(np.array([[1.0], [2.0], [0.5]]))
        assert m.entries.shape == (1, 1) and m.entries[0, 0] == 1.0

    def test_duplicated_column(self):
        x = np.random.default_rng(2).normal(size=(30, 1))
        m = kendall_matrix(np.hstack([x, x]))
        assert m.entries[0, 1] == 1.0

    def test_matches_pairwise_naive(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 4))
        m = kendall_matrix(data).entries
        for j in range(4):
            for k in range(j + 1, 4):
                assert m[j, k] == pytest.approx(
                    kendall_tau_naive(data[:, j], data[:, k]), abs=1e-15)

    def test_memory_stays_linear_in_n(self):
        # the sign kernel keeps O(p n) state; an n x n sign table per column
        # would cost ~32 MB per table here
        data = np.random.default_rng(4).normal(size=(2000, 2))
        tracemalloc.start()
        try:
            kendall_matrix(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_monotone_invariance_exact(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(35, 4))
        base = kendall_matrix(data).entries
        transforms = [np.exp, lambda v: v**3, lambda v: v**5, lambda v: (v - 1) ** 3]
        warped = data.copy()
        for j, fn in enumerate(transforms):
            warped[:, j] = fn(warped[:, j])
        assert np.array_equal(kendall_matrix(warped).entries, base)

    def test_sign_antisymmetry_exact(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(25, 4))
        base = kendall_matrix(data).entries
        flipped_data = data.copy()
        flipped_data[:, 2] = -flipped_data[:, 2]
        flipped = kendall_matrix(flipped_data).entries
        expect = base.copy()
        expect[2, :] *= -1
        expect[:, 2] *= -1
        np.fill_diagonal(expect, 1.0)
        assert np.array_equal(flipped, expect)


class TestSineTransform:
    def test_values(self):
        raw = kendall_matrix(np.random.default_rng(8).normal(size=(20, 3)))
        out = sine_transform(raw)
        assert out.kind == "kendall-sine"
        assert np.array_equal(out.entries, np.where(
            np.eye(3, dtype=bool), 1.0, np.sin(np.pi / 2 * raw.entries)))

    def test_analytic_identities(self):
        data = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert sine_transform(kendall_matrix(data)).entries[0, 1] == 1.0
        data[:, 1] = [3.0, 2.0, 1.0]
        assert sine_transform(kendall_matrix(data)).entries[0, 1] == -1.0
        # 4 concordant / 2 discordant pairs give tau = 1/3 -> sin(pi/6) = 1/2
        third = np.column_stack([[1.0, 2.0, 3.0, 4.0], [3.0, 1.0, 2.0, 4.0]])
        raw = kendall_matrix(third)
        assert raw.entries[0, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert sine_transform(raw).entries[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_range_invariant(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 4, size=(40, 5)).astype(float)
        out = sine_transform(kendall_matrix(data)).entries
        assert np.all(np.abs(out) <= 1.0)
        assert np.all(np.diag(out) == 1.0)

    def test_wrong_kind_rejected(self):
        corr = pearson_matrix(np.random.default_rng(10).normal(size=(20, 2)))
        with pytest.raises(InvalidInputError):
            sine_transform(corr)


class TestPearson:
    def test_self_correlation(self):
        x = np.random.default_rng(11).normal(size=(40, 1))
        m = pearson_matrix(np.hstack([x, x]))
        assert m.entries[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated(self):
        x = np.random.default_rng(12).normal(size=(40, 1))
        m = pearson_matrix(np.hstack([x, -x]))
        assert m.entries[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(100, 3)) * [1.0, 5.0, 0.2] + [0.0, -3.0, 10.0]
        m = pearson_matrix(data).entries
        for j in range(3):
            for k in range(3):
                xj = data[:, j] - data[:, j].mean()
                xk = data[:, k] - data[:, k].mean()
                expected = float(np.sum(xj * xk) / math.sqrt(np.sum(xj**2) * np.sum(xk**2)))
                assert m[j, k] == pytest.approx(expected, abs=1e-12)

    def test_constant_column_named(self):
        data = DataMatrix(np.column_stack([np.arange(10.0), np.full(10, 2.0)]),
                          labels=("a", "flat"))
        with pytest.raises(DegenerateColumnError) as err:
            pearson_matrix(data)
        assert err.value.column == "flat"


class TestJackknife:
    def test_perfectly_concordant_is_zero(self):
        x = np.arange(5.0)
        data = np.column_stack([x, 2 * x + 1])
        assert jackknife_variance(data, 0, 1) == 0.0

    def test_frozen_hand_value(self):
        # leave-one-out means are (1, 1/3, 1/3, 1) around tau = 2/3,
        # giving 4*3/4 * (1/9 * 4) = 4/3
        data = np.column_stack([[1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]])
        value = jackknife_variance(data, 0, 1)
        assert value == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert value == pytest.approx(jackknife_by_double_loop(data[:, 0], data[:, 1]), abs=1e-12)

    def test_matches_double_loop_random(self):
        rng = np.random.default_rng(14)
        for n in (3, 4, 9, 17):
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.normal(size=n)
            data = np.column_stack([x, y])
            assert jackknife_variance(data, 0, 1) == pytest.approx(
                jackknife_by_double_loop(x, y), rel=1e-12, abs=1e-12)

    def test_independent_columns_concentrate_near_asymptote(self):
        # under independence the limiting variance of the tau statistic is 4/9
        rng = RngStream(20250809)
        n, reps = 500, 200
        values = np.empty(reps)
        for r in range(reps):
            data = np.column_stack([rng.standard_normal(n), rng.standard_normal(n)])
            values[r] = jackknife_variance(data, 0, 1)
        assert abs(values.mean() - 4.0 / 9.0) <= 0.05

    def test_rejects_small_n_and_equal_columns(self):
        data = np.column_stack([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(InvalidInputError):
            jackknife_variance(data, 0, 1)
        ok = np.column_stack([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
        with pytest.raises(InvalidInputError):
            jackknife_variance(ok, 1, 1)


class TestJackknifeMatrix:
    def test_two_columns_match_scalar_version(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=(20, 2))
        m = jackknife_matrix(data)[1].entries
        assert m[0, 1] == pytest.approx(jackknife_variance(data, 0, 1), rel=1e-12, abs=1e-14)

    def test_duplicated_column_pair_is_zero(self):
        x = np.random.default_rng(16).normal(size=(15, 1))
        m = jackknife_matrix(np.hstack([x, x]))[1].entries
        assert m[0, 1] == 0.0

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(30, 5))
        m = jackknife_matrix(data)[1].entries
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(18)
        data = np.round(rng.normal(size=(12, 4)), 1)
        m = jackknife_matrix(data)[1].entries
        for j in range(4):
            for k in range(j + 1, 4):
                assert m[j, k] == pytest.approx(
                    jackknife_by_double_loop(data[:, j], data[:, k]), rel=1e-12, abs=1e-12)


class TestMatrixChecks:
    """``CorrMatrix`` and ``JackknifeVarMatrix`` share ``linalg.check_symmetric``
    and add only their own checks."""

    @pytest.mark.parametrize("entries,message", [
        (np.zeros((2, 3)), "matrix must be square, got shape (2, 3)"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), "matrix contains non-finite entries"),
        (np.array([[0.0, 0.1], [0.2, 0.0]]), "matrix is not symmetric"),
    ], ids=["not-square", "nan", "asymmetric"])
    def test_shared_check(self, entries, message):
        corr = entries + np.eye(*entries.shape)  # a unit diagonal where square
        with pytest.raises(InvalidInputError) as err:
            JackknifeVarMatrix(entries)
        assert str(err.value) == message
        with pytest.raises(InvalidInputError) as err:
            CorrMatrix(corr, "kendall-raw")
        assert str(err.value) == message

    @pytest.mark.parametrize("entries,kind,message", [
        ([[1.0, 1.5], [1.5, 1.0]], "pearson", "off-diagonal correlations must lie in [-1, 1]"),
        ([[1.0, 0.5], [0.5, 0.9]], "pearson", "diagonal entries must equal 1"),
        ([[1.0, 0.5], [0.5, 1.0]], "spearman", "unknown correlation kind 'spearman'"),
    ], ids=["range", "diagonal", "kind"])
    def test_own_corr_checks(self, entries, kind, message):
        with pytest.raises(InvalidInputError) as err:
            CorrMatrix(np.array(entries), kind)
        assert str(err.value) == message

    def test_variances_nonnegative(self):
        with pytest.raises(InvalidInputError, match="must be nonnegative"):
            JackknifeVarMatrix(np.array([[0.0, -1e-300], [-1e-300, 0.0]]))


def _neighbours(x, count):
    out = [float(x)]
    for _ in range(count - 1):
        out.append(float(np.nextafter(out[-1], np.inf)))
    return out


# Value pools for the kernel differential tests: heavy ties, a constant,
# neighbouring doubles (one ulp apart: at 1.0, among subnormals and at
# 1e300), which the rank mapping must keep apart, and spread values.
VALUE_POOLS = (
    [0.0, 1.0, 2.0],
    [3.5],
    _neighbours(1.0, 4),
    _neighbours(-1e-323, 5),
    _neighbours(1e300, 3),
    [-2.5, -1.0, 0.0, 0.25, 7.0, 1e6],
)


@st.composite
def data_matrices(draw, min_n=2, max_n=12, max_p=4):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.integers(min_value=1, max_value=max_p))
    cols = []
    for _ in range(p):
        pool = draw(st.sampled_from(VALUE_POOLS))
        cols.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return np.array(cols, dtype=np.float64).T


def assert_tau_matches_naive(data):
    """kendall_matrix equals the naive pairwise tau bit for bit."""
    p = data.shape[1]
    tau = kendall_matrix(data).entries
    assert np.all(np.diag(tau) == 1.0)
    for j in range(p):
        for k in range(j + 1, p):
            assert tau[j, k] == kendall_tau_naive(data[:, j], data[:, k])


def assert_jackknife_matches_reference(data):
    p = data.shape[1]
    tau, jack = jackknife_matrix(data)
    assert tau.kind == "kendall-raw"
    assert tau.entries.tobytes() == kendall_matrix(data).entries.tobytes()
    assert np.all(np.diag(jack.entries) == 0.0)
    for j in range(p):
        for k in range(j + 1, p):
            assert jack.entries[j, k] == pytest.approx(
                jackknife_variance(data, j, k), rel=1e-12, abs=1e-12)


class TestKernelPaths:
    """The sign kernel, through ``kendall_matrix`` and ``jackknife_matrix``,
    against ``kendall_tau_naive`` and ``jackknife_variance``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data_matrices())
    def test_tau_paths_match_naive(self, data):
        assert_tau_matches_naive(data)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data_matrices(min_n=3))
    def test_jackknife_matches_reference(self, data):
        assert_jackknife_matches_reference(data)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_tiny_shapes(self, n, p):
        rng = np.random.default_rng(100 * n + p)
        for _ in range(20):
            data = rng.integers(0, 2, size=(n, p)).astype(float)
            assert_tau_matches_naive(data)
            if n >= 3:
                assert_jackknife_matches_reference(data)
            else:
                with pytest.raises(InvalidInputError):
                    jackknife_matrix(data)

    def test_constant_columns(self):
        data = np.column_stack([np.full(9, 2.0), np.arange(9.0), np.full(9, -1.0)])
        assert_tau_matches_naive(data)
        assert_jackknife_matches_reference(data)
        assert kendall_matrix(data).entries[0, 1] == 0.0

    def test_ulp_neighbours_keep_their_order(self):
        x = np.array(_neighbours(1.0, 8))
        data = np.column_stack([x, x[::-1], np.arange(8.0)])
        tau = kendall_matrix(data).entries
        assert tau[0, 2] == 1.0 and tau[1, 2] == -1.0
        assert_tau_matches_naive(data)
        assert_jackknife_matches_reference(data)

    def test_heavy_ties_wider_sample(self):
        rng = np.random.default_rng(21)
        data = rng.integers(0, 3, size=(70, 5)).astype(float)
        assert_tau_matches_naive(data)
        assert_jackknife_matches_reference(data)

    def test_refuses_n_past_the_exact_range(self):
        # zero-stride views: the guard must fire before any per-row work
        with pytest.raises(InvalidInputError, match="exact range"):
            jackknife_matrix(np.broadcast_to(np.arange(2.0), (208065, 2)))
        with pytest.raises(InvalidInputError, match="exact range"):
            kendall_matrix(np.broadcast_to(np.arange(2.0), (1 << 24, 2)))


def dense_ranks_by_unique(values):
    """Reference dense ranks: one ``np.unique`` per column."""
    n, p = values.shape
    ranks = np.empty((p, n), dtype=np.float32)
    for j in range(p):
        ranks[j] = np.unique(values[:, j], return_inverse=True)[1]
    return ranks


TINY_CONSTANT = (np.full((2, 1), 4.0), np.array([[1.0, 5.0], [1.0, 5.0], [1.0, 5.0]]),
                 np.array([[0.0, 2.0], [1.0, 2.0]]), np.array([[-0.0], [0.0], [1.0]]))


class TestDenseRanks:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data_matrices(max_n=30, max_p=5))
    @example(TINY_CONSTANT[0])
    @example(TINY_CONSTANT[1])
    @example(TINY_CONSTANT[2])
    @example(TINY_CONSTANT[3])
    def test_matches_unique_reference(self, data):
        expected = dense_ranks_by_unique(data).tobytes()
        # blocks of one column, of a few columns, and of every column
        for cells in (1, 2 * data.shape[0] + 1, 1 << 16):
            with mock.patch.object(rankcorr, "_RANK_BLOCK_CELLS", cells):
                ranks = rankcorr._dense_ranks(data)
            assert ranks.dtype == np.float32
            assert ranks.tobytes() == expected

    def test_heavy_ties_over_several_blocks(self):
        data = np.random.default_rng(31).integers(0, 5, size=(1000, 70)).astype(float)
        assert data.size > rankcorr._RANK_BLOCK_CELLS
        assert rankcorr._dense_ranks(data).tobytes() == dense_ranks_by_unique(data).tobytes()


def assert_split_matches_one_thread(data):
    """s1 and s2 of the sign kernel are the same bytes for every thread count."""
    n = data.shape[0]
    for second in (False, True):
        s1, s2 = rankcorr._sign_moments(data, second)
        for k in (2, 3, n + 1):
            t1, t2 = rankcorr._sign_moments(data, second, threads=k)
            assert t1.tobytes() == s1.tobytes()
            if second:
                assert t2.tobytes() == s2.tobytes()


class TestSplitKernel:
    """The sign kernel split by rows over k threads against k = 1."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data_matrices())
    def test_partials_sum_to_one_thread_bytes(self, data):
        assert_split_matches_one_thread(data)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_tiny_shapes(self, n, p):
        rng = np.random.default_rng(300 + 10 * n + p)
        for _ in range(10):
            assert_split_matches_one_thread(rng.integers(0, 2, size=(n, p)).astype(float))

    def test_constant_columns_and_heavy_ties(self):
        rng = np.random.default_rng(32)
        data = np.column_stack([np.full(40, 2.0), rng.integers(0, 3, size=(40, 3)),
                                np.full(40, -1.0)]).astype(float)
        assert_split_matches_one_thread(data)

    def test_matrices_do_not_depend_on_threads(self):
        data = np.random.default_rng(33).integers(0, 4, size=(60, 6)).astype(float)
        tau, (_, jack) = kendall_matrix(data), jackknife_matrix(data)
        for k in (2, 5):
            assert kendall_matrix(data, threads=k).entries.tobytes() == tau.entries.tobytes()
            split_tau, split = jackknife_matrix(data, threads=k)
            assert split.entries.tobytes() == jack.entries.tobytes()
            assert split_tau.entries.tobytes() == tau.entries.tobytes()

    @pytest.mark.parametrize("n,threads,parts", [(3, 4, 3), (7, 2, 2), (5, 1, 1)])
    def test_rows_dealt_to_at_most_n_parts(self, monkeypatch, n, threads, parts):
        dealt = {}
        sign_rows = rankcorr._sign_rows

        def recorded(ranks, rows, second):
            dealt[rows.start] = (list(rows), threading.get_ident())
            return sign_rows(ranks, rows, second)

        monkeypatch.setattr(rankcorr, "_sign_rows", recorded)
        rankcorr._sign_moments(np.arange(2.0 * n).reshape(n, 2), True, threads=threads)
        assert sorted(dealt) == list(range(parts))
        assert all(dealt[t][0] == list(range(t, n, parts)) for t in dealt)
        # part 0 runs on the calling thread, so only parts - 1 workers start
        assert dealt[0][1] == threading.get_ident()

    def test_rejects_threads_below_one(self):
        with pytest.raises(InvalidInputError, match="threads"):
            kendall_matrix(np.eye(3), threads=0)


# Rows per product of the tau-only kernel: one row, two rows and the default.
BLOCK_ROWS = (1, 2, rankcorr._SIGN_BLOCK_ROWS)


def assert_blocks_agree(data, threads=(1,)):
    """s1 of the tau-only kernel is the same bytes for every block size and
    thread count, and tau equals the naive pairwise tau."""
    expected = rankcorr._sign_moments(data, False)[0].tobytes()
    for rows in BLOCK_ROWS:
        with mock.patch.object(rankcorr, "_SIGN_BLOCK_ROWS", rows):
            for k in threads:
                assert rankcorr._sign_moments(data, False, threads=k)[0].tobytes() == expected
            assert_tau_matches_naive(data)


class TestSignBlocks:
    """The tau-only kernel's row blocks at their edges."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data_matrices(max_n=20))
    def test_block_sizes_match_naive(self, data):
        assert_blocks_agree(data)

    @pytest.mark.parametrize("extra", [0, 1, 2, rankcorr._SIGN_BLOCK_ROWS])
    def test_rows_that_fill_blocks(self, extra):
        # the default blocks are exactly full (extra 0 and 8), or the last
        # row (no later rows) or the last two (1 and 0) make a block alone
        n = rankcorr._SIGN_BLOCK_ROWS + extra
        data = np.random.default_rng(40 + n).normal(size=(n, 3))
        assert_blocks_agree(data)

    @pytest.mark.parametrize("n", [2, 3, 8, 30])
    def test_one_column(self, n):
        data = np.random.default_rng(50 + n).normal(size=(n, 1))
        assert_blocks_agree(data, threads=(1, 2))

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_two_rows_one_column_wide(self, p):
        # row 0 meets one later row, row 1 none: one block of one sign row
        data = np.random.default_rng(60 + p).integers(0, 2, size=(2, p)).astype(float)
        assert_blocks_agree(data, threads=(1, 2, 3))

    def test_heavy_ties_and_constant_columns(self):
        rng = np.random.default_rng(61)
        data = np.column_stack([np.full(45, 3.0), rng.integers(0, 3, size=(45, 4)),
                                np.full(45, -2.0)]).astype(float)
        assert_blocks_agree(data, threads=(1, 2))

    @pytest.mark.parametrize("n", [5, 16, 33])
    def test_threads_split_blocked_parts(self, n):
        data = np.random.default_rng(70 + n).integers(0, 4, size=(n, 5)).astype(float)
        assert_blocks_agree(data, threads=(2, 3, n + 1))

    @pytest.mark.parametrize("extra,rows", [(1, 3), (2, 3), (0, 2)])
    def test_block_width_stays_below_the_exact_width(self, extra, rows):
        # with the exactness cap at 3n + extra a block holds 3 rows (w = 3n is
        # the widest below the cap), or 2 (extra = 0), not the default 8: the
        # pass allocates what it does with that many rows a block and no cap
        data = np.random.default_rng(80).integers(0, 5, size=(200, 4)).astype(float)
        n, p = data.shape
        ranks = np.ascontiguousarray(rankcorr._dense_ranks(data).T)

        def peak_of_pass():
            tracemalloc.start()
            try:
                rankcorr._sign_rows(ranks, range(n), False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with mock.patch.object(rankcorr, "_EXACT_WIDTH", 3 * n + extra):
            assert_blocks_agree(data, threads=(1, 2))
            capped = peak_of_pass()
        with mock.patch.object(rankcorr, "_SIGN_BLOCK_ROWS", rows):
            uncapped = peak_of_pass()
        # one more row a block would add a p x n float32 block (3200 bytes)
        assert abs(capped - uncapped) < 1024

    def test_memory_stays_linear_at_a_blocked_shape(self):
        # 400 x 30: the rows take 50 blocks of the default 8. The block buffer
        # (p x 8n float32) and the ranks take 9 p n 4 bytes, the rank pass's
        # copies about 11. A block of 2^20 cells would take 87, one block of
        # all rows 200.
        n, p = 400, 30
        data = np.random.default_rng(81).normal(size=(n, p))
        tracemalloc.start()
        try:
            kendall_matrix(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * p * n * 4
