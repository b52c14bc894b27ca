"""Tests for the assumption reports and Monte Carlo checks."""

import json
import math

import numpy as np
import pytest

from tauscreen import (
    EdgeSet,
    GroundTruth,
    InvalidInputError,
    RngStream,
    check_assumptions,
    check_proposition1,
    gen_correlation_C,
    gen_precision_B,
    gen_precision_D,
    hoeffding_bound,
    jackknife_matrix,
    neighborhood_size_bound,
    normality_check,
)


def identity_truth(p=4):
    return GroundTruth(sigma=np.eye(p), omega=np.eye(p), edges=EdgeSet(p, ()),
                       scenario="C")


class TestCheckAssumptions:
    def test_block_scenarios_have_zero_nonedge_correlation(self):
        for gt in (gen_precision_B(30, RngStream(0)), gen_precision_D(30)):
            rep = check_assumptions(gt, n=100, c1=0.6, kappa=0.25, xi=0.3, c2=1.0, alpha=0.5)
            assert rep.max_nonedge_corr == 0.0
            assert rep.nonedge_surrogate == 0.0
            assert rep.nonedge_small

    def test_geometric_scenario_edge_floor(self):
        gt = gen_correlation_C(20)
        rep = check_assumptions(gt, n=100, c1=0.3, kappa=0.25, xi=0.3, c2=5.0, alpha=0.5)
        assert rep.min_edge_corr == 0.3
        # 0.3 >= 0.3 * 100^(-1/4) ~= 0.0949
        assert rep.edge_strength_floor == pytest.approx(0.3 * 100 ** (-0.25))
        assert rep.edge_strength_ok

    def test_identity_spread(self):
        rep = check_assumptions(identity_truth(), n=50, c1=0.5, kappa=0.2, xi=0.3,
                                c2=1.0, alpha=0.0)
        assert rep.beta == pytest.approx(1.0)
        assert rep.nu == pytest.approx(1.0)
        assert math.isnan(rep.min_edge_corr)
        assert rep.edge_strength_ok  # vacuous

    def test_parameter_ranges(self):
        gt = identity_truth()
        with pytest.raises(InvalidInputError):
            check_assumptions(gt, n=50, c1=0.5, kappa=0.6, xi=0.1, c2=1.0, alpha=0.5)
        for c1, c2, alpha in ((math.nan, 1.0, 0.5), (0.5, math.inf, 0.5),
                              (0.5, 1.0, math.inf), (0.5, 1.0, math.nan)):
            with pytest.raises(InvalidInputError, match="finite"):
                check_assumptions(gt, n=50, c1=c1, kappa=0.25, xi=0.3, c2=c2, alpha=alpha)
        with pytest.raises(InvalidInputError):
            check_assumptions(gt, n=50, c1=0.5, kappa=0.25, xi=0.6, c2=1.0, alpha=0.5)

    def test_json_serializable(self):
        rep = check_assumptions(identity_truth(), n=50, c1=0.5, kappa=0.2, xi=0.3,
                                c2=1.0, alpha=0.0)
        doc = json.dumps(rep.to_json_dict())
        assert "min_edge_corr" in doc


class TestProposition1:
    def test_identity_boundary(self):
        rep = check_proposition1(identity_truth(), n=100, c1=0.5, kappa=0.25, xi=0.3)
        assert rep.beta_within_bound        # beta = 1 <= bound
        assert not rep.beta_exceeds_one     # but the strict lower side fails

    def test_block_scenario_values_finite(self):
        gt = gen_precision_D(50)
        rep = check_proposition1(gt, n=100, c1=0.6, kappa=0.25, xi=0.3)
        for value in (rep.beta, rep.beta_bound, rep.nu, rep.min_scaled_precision,
                      rep.precision_floor, rep.n_required):
            assert np.isfinite(value)

    def test_sample_size_condition(self):
        gt = identity_truth()
        rep = check_proposition1(gt, n=2, c1=0.01, kappa=0.25, xi=0.3)
        # (2/0.01)^(1/0.45) is astronomically larger than 2
        assert not rep.n_ok
        big = check_proposition1(gt, n=10**6, c1=1.0, kappa=0.25, xi=0.3)
        assert big.n_ok

    def test_implies_edge_floor_on_generated_scenarios(self):
        # whenever the precision-scale condition holds (with the beta and n
        # side conditions), the correlation-scale floor must hold too
        cases = [gen_correlation_C(20), gen_precision_D(30),
                 gen_precision_B(30, RngStream(1))]
        for n in (50, 200, 1000):
            for c1 in (0.05, 0.1, 0.3, 0.6):
                for gt in cases:
                    prop = check_proposition1(gt, n=n, c1=c1, kappa=0.25, xi=0.3)
                    rep = check_assumptions(gt, n=n, c1=c1, kappa=0.25, xi=0.3,
                                            c2=10.0, alpha=1.0)
                    if (prop.precision_ok and prop.beta_exceeds_one
                            and prop.beta_within_bound and prop.n_ok):
                        assert rep.edge_strength_ok

    def test_parameter_ranges(self):
        with pytest.raises(InvalidInputError):
            check_proposition1(identity_truth(), n=10, c1=0.5, kappa=0.4, xi=0.7)

    def test_json_has_no_nan_or_infinity(self):
        # no edges leave min_scaled_precision nan; lambda_max = 0.25 puts
        # 1/sqrt(lambda_max) = 2 above n^((1-xi)/2) = 1.04, so beta_bound is inf
        gt = GroundTruth(sigma=0.25 * np.eye(4), omega=4.0 * np.eye(4),
                         edges=EdgeSet(4, ()), scenario="C")
        rep = check_proposition1(gt, n=2, c1=0.5, kappa=0.01, xi=0.9)
        assert math.isnan(rep.min_scaled_precision) and math.isinf(rep.beta_bound)
        doc = rep.to_json_dict()
        assert doc["min_scaled_precision"] is None and doc["beta_bound"] is None
        assert doc["beta_within_bound"] is True
        json.dumps(doc, allow_nan=False)


class TestNeighborhoodBound:
    def test_plugin_value(self):
        assert neighborhood_size_bound(identity_truth(), n=100, c1=3.0, kappa=0.0) == \
            pytest.approx(1.0)

    def test_monotone_in_n(self):
        gt = gen_correlation_C(10)
        values = [neighborhood_size_bound(gt, n=n, c1=0.5, kappa=0.2)
                  for n in (10, 100, 1000)]
        assert values[0] < values[1] < values[2]

    def test_covers_true_degrees(self):
        gt = gen_correlation_C(50)
        bound = neighborhood_size_bound(gt, n=100, c1=0.3, kappa=0.25)
        degrees = np.zeros(50, dtype=int)
        for j, k in gt.edges.edges:
            degrees[j] += 1
            degrees[k] += 1
        assert degrees.max() <= bound


class TestHoeffdingBound:
    def test_clipped_at_one(self):
        assert hoeffding_bound(10, 1e-9) == 1.0

    def test_hand_values(self):
        assert hoeffding_bound(100, 0.2) == pytest.approx(2 * math.exp(-1.0), abs=1e-12)
        assert hoeffding_bound(1000, 0.2) == pytest.approx(2 * math.exp(-10.0), rel=1e-12)

    def test_floor_division_of_n(self):
        assert hoeffding_bound(101, 0.2) == hoeffding_bound(100, 0.2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            hoeffding_bound(1, 0.1)
        with pytest.raises(InvalidInputError):
            hoeffding_bound(10, 0.0)


class TestNormalityCheck:
    def test_independent_pair(self):
        mean, var = normality_check(200, 0.0, 300, RngStream(41))
        assert abs(mean) < 0.15
        assert 0.8 < var < 1.2

    def test_deterministic(self):
        a = normality_check(50, 0.3, 100, RngStream(42))
        b = normality_check(50, 0.3, 100, RngStream(42))
        assert a == b

    @pytest.mark.parametrize("replicates", [100, 130])
    def test_blocks_equal_one_call_per_replicate(self, replicates):
        # the per-replicate loop the 25-replicate blocks replaced: same
        # draws in the same order, one n x 2 jackknife call each
        n, rho, rng = 40, 0.4, RngStream(8)
        tau_true = (2.0 / math.pi) * math.asin(rho)
        stats = []
        for _ in range(replicates):
            z = rng.standard_normal((n, 2))
            pair = np.column_stack([z[:, 0], rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]])
            tau, jack = jackknife_matrix(pair)
            stats.append(math.sqrt(n) * (float(tau.entries[0, 1]) - tau_true)
                         / math.sqrt(float(jack.entries[0, 1])))
        expect = (float(np.mean(stats)), float(np.var(stats, ddof=1)))
        assert normality_check(n, rho, replicates, RngStream(8)) == expect

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            normality_check(5, 0.0, 100, RngStream(0))
        with pytest.raises(InvalidInputError):
            normality_check(50, 1.0, 100, RngStream(0))
        with pytest.raises(InvalidInputError):
            normality_check(50, 0.0, 10, RngStream(0))
