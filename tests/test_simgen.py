"""Tests for the scenario generators, sampler, and RNG stream."""

import numpy as np
import pytest

from tauscreen import (
    InvalidInputError,
    RngStream,
    SimConfig,
    connected_components,
    eig_extremes,
    gen_correlation_C,
    gen_precision_A,
    gen_precision_B,
    gen_precision_D,
    generate_ground_truth,
    kendall_matrix,
    sample,
)
from tauscreen.simgen import _SUM_OF_SQUARES_MAX_DF


class TestRngStream:
    def test_repeatable(self):
        a = RngStream(123).uniform01(1000)
        b = RngStream(123).uniform01(1000)
        assert np.array_equal(a, b)

    def test_open_interval(self):
        u = RngStream(1).uniform01(100000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_normal_moments(self):
        z = RngStream(2).standard_normal(1_000_000)
        assert abs(z.mean()) < 0.005
        assert abs(z.var() - 1.0) < 0.01

    def test_chi_square_integer_df_mean(self):
        w = RngStream(3).chi_square(5, size=1_000_000)
        assert w.mean() == pytest.approx(5.0, abs=0.02)

    def test_chi_square_fractional_df_mean(self):
        w = RngStream(4).chi_square(3.5, size=200_000)
        assert w.mean() == pytest.approx(3.5, abs=0.05)
        assert np.all(w > 0)

    def test_chi_square_huge_integer_df_is_finite(self):
        w = RngStream(8).chi_square(1e308, size=3)
        assert w.shape == (3,) and np.all(np.isfinite(w))

    def test_chi_square_integer_df_at_cap_sums_squares(self):
        z = RngStream(9).standard_normal((4, _SUM_OF_SQUARES_MAX_DF))
        w = RngStream(9).chi_square(_SUM_OF_SQUARES_MAX_DF, size=4)
        assert np.array_equal(w, np.sum(z * z, axis=-1))

    def test_chi_square_integer_df_above_cap_draws_gamma(self):
        df = _SUM_OF_SQUARES_MAX_DF + 1
        g = RngStream(10)._gamma(df / 2.0, 4)
        assert np.array_equal(RngStream(10).chi_square(df, size=4), 2.0 * g)

    @pytest.mark.parametrize("df", [0.0, float("inf"), float("nan")])
    def test_chi_square_rejects_bad_df(self, df):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            RngStream(7).chi_square(df, size=3)

    def test_uniform_range(self):
        u = RngStream(5).uniform(-0.3, 0.7, size=100_000)
        assert u.min() >= -0.3 and u.max() <= 0.7

    def test_uniform_rejects_bad_interval(self):
        with pytest.raises(InvalidInputError):
            RngStream(6).uniform(1.0, 0.0)


class TestScenarioA:
    def test_min_eigenvalue_pinned_before_rescale(self):
        for seed in (0, 1, 2):
            gt = gen_precision_A(60, RngStream(seed))
            lam_min, _ = eig_extremes(gt.raw_precision)
            assert lam_min == pytest.approx(0.1, abs=1e-9)

    def test_invariants(self):
        gt = gen_precision_A(40, RngStream(7))
        gt.validate()

    def test_expected_edge_count(self):
        # binomial mean 0.01 * C(200,2) = 199; 100 seeds stay within +-3 sd
        counts = [len(gen_precision_A(200, RngStream(s)).edges) for s in range(100)]
        assert 170 <= np.mean(counts) <= 228

    def test_two_by_two_with_edge_has_opposite_signs(self):
        # 2x2 inverse flips the off-diagonal sign
        for seed in range(2000):
            gt = gen_precision_A(2, RngStream(seed))
            if len(gt.edges) == 1:
                assert np.sign(gt.sigma[0, 1]) == -np.sign(gt.omega[0, 1])
                assert gt.sigma[0, 1] != 0.0
                break
        else:
            pytest.fail("no seed produced an edge at p=2")


class TestScenarioB:
    def test_edge_count(self):
        gt = gen_precision_B(50, RngStream(0))
        assert len(gt.edges) == 10 * (5 * 4 // 2)

    def test_cross_block_exactly_zero(self):
        gt = gen_precision_B(50, RngStream(1))
        block = np.repeat(np.arange(10), 5)
        cross = block[:, None] != block[None, :]
        assert np.all(gt.sigma[cross] == 0.0)
        assert np.all(gt.omega[cross] == 0.0)

    def test_components_are_the_ten_blocks(self):
        gt = gen_precision_B(50, RngStream(2))
        part = connected_components(gt.edges)
        assert part.n_components == 10
        assert part.component_id == tuple(np.repeat(np.arange(1, 11), 5).tolist())

    def test_min_eigenvalue_pinned(self):
        gt = gen_precision_B(40, RngStream(3))
        lam_min, _ = eig_extremes(gt.raw_precision)
        assert lam_min == pytest.approx(0.1, abs=1e-9)

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidInputError):
            gen_precision_B(55, RngStream(0))

    def test_invariants(self):
        gen_precision_B(30, RngStream(4)).validate()


class TestScenarioC:
    def test_small_matrix_values(self):
        gt = gen_correlation_C(3)
        expect = np.array([[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]])
        assert np.array_equal(gt.sigma, expect)

    def test_edges_are_adjacent_pairs(self):
        gt = gen_correlation_C(8)
        assert gt.edges.as_set() == {(j, j + 1) for j in range(7)}

    def test_inverse_is_tridiagonal(self):
        gt = gen_correlation_C(7)
        off = np.triu(np.abs(gt.omega), 2)
        assert np.max(off) < 1e-10
        # and the closed form actually inverts sigma
        assert np.max(np.abs(gt.sigma @ gt.omega - np.eye(7))) < 1e-12

    def test_deterministic(self):
        a, b = gen_correlation_C(12), gen_correlation_C(12)
        assert np.array_equal(a.sigma, b.sigma)
        assert a.edges.as_set() == b.edges.as_set()

    def test_invariants(self):
        gen_correlation_C(20).validate()

    def test_min_edge_correlation_exact(self):
        gt = gen_correlation_C(30)
        vals = [abs(gt.sigma[j, k]) for j, k in gt.edges.edges]
        assert min(vals) == 0.3


class TestScenarioD:
    def test_block_is_positive_definite(self):
        idx = np.arange(10)
        block = 0.9 ** np.abs(idx[:, None] - idx[None, :])
        lam_min, _ = eig_extremes(block)
        assert lam_min > 0

    def test_edge_count(self):
        gt = gen_precision_D(100)
        assert len(gt.edges) == 10 * 45

    def test_cross_block_sigma_exactly_zero(self):
        gt = gen_precision_D(50)
        block = np.repeat(np.arange(5), 10)
        cross = block[:, None] != block[None, :]
        assert np.max(np.abs(gt.sigma[cross])) == 0.0

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidInputError):
            gen_precision_D(45)

    def test_invariants(self):
        gen_precision_D(30).validate()


class TestSample:
    def test_gaussian_correlation_recovered(self):
        gt = gen_correlation_C(3)
        cfg = SimConfig(scenario="C", n=50000, p=3, seed=77)
        data = sample(gt, cfg, RngStream(cfg.seed))
        corr = np.corrcoef(data.values[:, 0], data.values[:, 1])[0, 1]
        assert corr == pytest.approx(0.3, abs=0.02)

    def test_student_t_correlation_recovered(self):
        gt = gen_correlation_C(3)
        cfg = SimConfig(scenario="C", n=50000, p=3, base="student-t", theta=5.0, seed=78)
        data = sample(gt, cfg, RngStream(cfg.seed))
        corr = np.corrcoef(data.values[:, 0], data.values[:, 1])[0, 1]
        assert corr == pytest.approx(0.3, abs=0.03)

    def test_student_t_heavy_tails(self):
        # excess kurtosis of the margin is 6/(theta-4) = 6 at theta = 5
        gt = gen_correlation_C(2)
        cfg = SimConfig(scenario="C", n=1_000_000, p=2, base="student-t", theta=5.0, seed=79)
        data = sample(gt, cfg, RngStream(cfg.seed))
        x = data.values[:, 0]
        z = (x - x.mean()) / x.std()
        excess = np.mean(z**4) - 3.0
        assert excess > 0
        assert excess == pytest.approx(6.0, abs=1.5)

    def test_transform_preserves_tau_exactly(self):
        gt = gen_correlation_C(5)
        plain = SimConfig(scenario="C", n=150, p=5, seed=80)
        warped = SimConfig(scenario="C", n=150, p=5, transform="nonparanormal", seed=80)
        km_plain = kendall_matrix(sample(gt, plain, RngStream(80))).entries
        km_warped = kendall_matrix(sample(gt, warped, RngStream(80))).entries
        assert np.array_equal(km_plain, km_warped)

    def test_same_seed_bitwise_identical(self):
        gt = gen_precision_B(20, RngStream(5))
        cfg = SimConfig(scenario="B", n=60, p=20, base="student-t", theta=4.0,
                        transform="nonparanormal", seed=81)
        a = sample(gt, cfg, RngStream(81)).values
        b = sample(gt, cfg, RngStream(81)).values
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        gt = gen_correlation_C(4)
        cfg = SimConfig(scenario="C", n=10, p=5, seed=0)
        with pytest.raises(InvalidInputError):
            sample(gt, cfg, RngStream(0))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SimConfig(scenario="E", n=10, p=10)
        with pytest.raises(InvalidInputError):
            SimConfig(scenario="B", n=10, p=55)
        for theta in (2.0, float("inf")):
            with pytest.raises(InvalidInputError):
                SimConfig(scenario="A", n=10, p=10, base="student-t", theta=theta)

    def test_json_roundtrip(self, tmp_path):
        cfg = SimConfig(scenario="D", n=100, p=20, base="student-t", theta=5.0,
                        transform="nonparanormal", seed=9)
        doc = cfg.to_json_dict()
        assert doc["base"] == "student-t" and doc["theta"] == 5.0
        gaussian = SimConfig(scenario="C", n=10, p=3, seed=1)
        assert "theta" not in gaussian.to_json_dict()

    def test_generate_dispatch(self):
        cfg = SimConfig(scenario="C", n=10, p=6, seed=0)
        gt = generate_ground_truth(cfg)
        assert gt.scenario == "C"
        cfg_a = SimConfig(scenario="A", n=10, p=6, seed=0)
        with pytest.raises(InvalidInputError):
            generate_ground_truth(cfg_a)  # random scenarios need a stream
