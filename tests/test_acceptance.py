"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with the measured quantity next to its required tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``. The statistical criteria
use pinned seeds, so reruns are exact repeats.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.special import ndtri

import tauscreen as ts
from tauscreen.cli import main as cli_main

from oracles import as_set, compare_partitions, normality_check


def report(num, name, ok, details):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({details})")
    return ok


# -- 1 ------------------------------------------------------------------


def test_criterion_01_tau_kernel_equals_naive():
    """1000 randomized instances, n <= 200, with and without ties: the sign
    kernel's tau of each pair, through ``kendall_matrix``, against the
    quadratic reference."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:
            x = rng.integers(0, 10, size=n).astype(float)
            y = rng.integers(0, 10, size=n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        kernel = ts.kendall_matrix(np.column_stack([x, y])).entries[0, 1]
        worst = max(worst, abs(kernel - ts.kendall_tau_naive(x, y)))
    ok = worst <= 1e-12
    assert report(1, "tau-equivalence", ok, f"max |kernel - naive| = {worst:.2e} <= 1e-12")


# -- 2 ------------------------------------------------------------------


def test_criterion_02_rank_invariance():
    """Strictly increasing per-column transforms never move the tau matrix."""
    gt = ts.gen_precision_B(20, ts.RngStream(2002))
    cfg = ts.SimConfig(scenario="B", n=120, p=20, base="student-t", theta=5.0, seed=2002)
    data = ts.sample(gt, cfg, ts.RngStream(2002)).values
    base = ts.kendall_matrix(data).entries
    transforms = [np.exp, lambda v: v**3, lambda v: v**5, lambda v: (v - 1.0) ** 3]
    warped = data.copy()
    for j in range(warped.shape[1]):
        warped[:, j] = transforms[j % 4](warped[:, j])
    exact = np.array_equal(ts.kendall_matrix(warped).entries, base)

    # and the sampler-level marginal transforms reuse identical latent draws
    plain = ts.SimConfig(scenario="B", n=120, p=20, seed=7)
    npn = ts.SimConfig(scenario="B", n=120, p=20, transform="nonparanormal", seed=7)
    gt2 = ts.gen_precision_B(20, ts.RngStream(7))
    km_plain = ts.kendall_matrix(ts.sample(gt2, plain, ts.RngStream(7))).entries
    km_npn = ts.kendall_matrix(ts.sample(gt2, npn, ts.RngStream(7))).entries
    exact = exact and np.array_equal(km_plain, km_npn)
    assert report(2, "rank-invariance", exact, "tau matrices identical, exact equality")


# -- 3 ------------------------------------------------------------------


@pytest.mark.parametrize("scenario,base,transform", [
    ("B", "gaussian", "nonparanormal"),
    ("D", "student-t", "nonparanormal"),
])
def test_criterion_03_fpr_control(scenario, base, transform):
    """Mean FPR within [q/2, 3q/2] at q in {0.01, 0.1, 0.3}; n=100, p=200,
    50 replicates, variance-calibrated per-pair thresholds."""
    sim = ts.SimConfig(scenario=scenario, n=100, p=200, base=base, theta=5.0,
                       transform=transform, seed=20240809)
    qs = (0.01, 0.1, 0.3)
    # one draw and one sign pass per replicate serve all three q
    runs = ts.run_experiments(sim, "kendall", 50, [ts.ThresholdSpec.fpr(q=q) for q in qs],
                              threads=os.cpu_count() or 1)
    mean_fprs = [res.aggregate()["mean_fpr"] for res in runs]
    results = [f"q={q}: {fpr:.4f}" for q, fpr in zip(qs, mean_fprs)]
    ok = all(0.5 * q <= fpr <= 1.5 * q for q, fpr in zip(qs, mean_fprs))
    label = {"gaussian": "nonparanormal", "student-t": "transelliptical-t(5)"}[base]
    assert report(3, f"fpr-control[{scenario}/{label}]", ok,
                  "; ".join(results) + "; window [0.5q, 1.5q]")


# -- 4 ------------------------------------------------------------------


def test_criterion_04_sure_screening():
    """Scenario C, n=200, p=50, rate threshold C1=0.3, kappa=0.25: the true
    edge set is contained in the screened set in >= 95% of 50 replicates."""
    n, p = 200, 50
    gamma = ts.threshold_matrix(ts.ThresholdSpec.rate(0.3, 0.25), n, p)
    gt = ts.gen_correlation_C(p)
    hits = 0
    for r in range(50):
        rng = ts.RngStream(777000 ^ r)
        data = ts.sample(gt, ts.SimConfig(scenario="C", n=n, p=p, seed=0), rng)
        corr = ts.sine_transform(ts.kendall_matrix(data))
        est = ts.screen_edges(corr, gamma)
        hits += as_set(gt.edges) <= as_set(est)
    ok = hits >= 48  # ceil(0.95 * 50)
    assert report(4, "sure-screening", ok, f"{hits}/50 replicates contained E, need >= 48")


# -- 5 ------------------------------------------------------------------


def test_criterion_05_component_recovery():
    """Rate threshold with kappa=0.25 on scenario D, p=50 (5 blocks of 10,
    Gaussian base, no transform): the screened graph's components match the
    true blocks in >= 95% of 50 replicates.

    The rate rule's proof event is that every estimate lies within
    (1/3) C1 n^(-kappa) of its target. On a block-diagonal Sigma whose blocks
    stay connected among pairs with |rho| >= C1 n^(-kappa), that event implies
    exact component recovery, so every input is derived from this premise:

    * rho_min is the weakest link needed to keep each true block connected
      (the smallest |Sigma| on a maximum spanning tree of each block).
    * C1 = rho_min n^kappa, so the floor C1 n^(-kappa) is rho_min and the
      threshold is gamma = (2/3) rho_min.
    * n is the smallest integer with pi z / sqrt(n) <= rho_min, where
      z = Phi^-1(1 - 0.05 / (p(p-1))): a Bonferroni bound that keeps all
      p(p-1)/2 sine-tau estimates within rho_min / 3, using the null
      asymptotic standard deviation (pi/3) / sqrt(n).

    Before screening, thresholding the true |Sigma| at gamma must give exactly
    the true blocks. Scenario B at n=200 (C1=0.9) does not meet the premise:
    thresholding its true |Sigma| recovers the blocks in only 15/50 of these
    seeds, and the same bound would need n = 77713 for the weakest block
    links among them (9404 at their median).
    """
    p, kappa = 50, 0.25
    gt = ts.gen_precision_D(p)
    truth = ts.connected_components(p, gt.edges)
    strength = np.abs(gt.sigma)
    links = []
    for block in np.unique(truth):
        idx = np.flatnonzero(truth == block)
        # every off-diagonal weight 2 - |rho| is positive, so the block graph is complete
        tree = minimum_spanning_tree(np.triu(2.0 - strength[np.ix_(idx, idx)], 1))
        jj, kk = tree.nonzero()
        links.append(strength[idx[jj], idx[kk]].min())
    rho_min = float(min(links))
    z = float(ndtri(1.0 - 0.05 / (p * (p - 1))))
    n = math.ceil((math.pi * z / rho_min) ** 2)
    c1 = rho_min * n**kappa
    gamma = ts.threshold_matrix(ts.ThresholdSpec.rate(c1, kappa), n, p)

    population = ts.screen_edges(ts.CorrMatrix(gt.sigma, "kendall-sine"), gamma)
    assert compare_partitions(ts.connected_components(p, population), truth), \
        "thresholding the true |Sigma| at gamma does not give the true blocks"

    hits = 0
    for r in range(50):
        rng = ts.RngStream(515151 ^ r)
        data = ts.sample(gt, ts.SimConfig(scenario="D", n=n, p=p, seed=0), rng)
        est = ts.screen_edges(ts.sine_transform(ts.kendall_matrix(data)), gamma)
        hits += compare_partitions(ts.connected_components(p, est), truth)
    ok = hits >= 48
    assert report(5, "component-recovery", ok,
                  f"{hits}/50 replicates recovered the {truth.max()}-block partition, "
                  f"need >= 48; n={n}, gamma={gamma[0, 1]:.4f}, rho_min={rho_min:.4f}")


# -- 6 ------------------------------------------------------------------


def test_criterion_06_hoeffding_bound_never_violated():
    """Empirical P(|tau_hat - tau| > t) <= 2 exp(-floor(n/2) t^2 / 2) for
    t in {0.1, 0.2}, n in {50, 100}, rho in {0, 0.5}, 2000 replicates each."""
    rows = []
    ok = True
    rng = ts.RngStream(6006)
    for rho in (0.0, 0.5):
        tau_true = (2.0 / np.pi) * np.arcsin(rho)
        mix = np.sqrt(1.0 - rho * rho)
        for n in (50, 100):
            deviations = np.empty(2000)
            for r in range(2000):
                z = rng.standard_normal((n, 2))
                x = z[:, 0]
                y = rho * z[:, 0] + mix * z[:, 1]
                deviations[r] = abs(ts.kendall_tau_naive(x, y) - tau_true)
            for t in (0.1, 0.2):
                freq = float(np.mean(deviations > t))
                bound = ts.hoeffding_bound(n, t)
                ok = ok and freq <= bound
                rows.append(f"rho={rho} n={n} t={t}: {freq:.4f} <= {bound:.4f}")
    assert report(6, "concentration-bound", ok, "; ".join(rows))


# -- 7 ------------------------------------------------------------------


def test_criterion_07_asymptotic_normality():
    """Standardized statistic at n=500, rho=0.5, 1000 replicates."""
    mean, var = normality_check(500, 0.5, 1000, ts.RngStream(99))
    ok = abs(mean) < 0.1 and 0.85 <= var <= 1.15
    assert report(7, "asymptotic-normality", ok,
                  f"mean={mean:.4f} (|.| < 0.1), variance={var:.4f} (in [0.85, 1.15])")


# -- 8 ------------------------------------------------------------------


def test_criterion_08_roc_ordering():
    """Rank-based screening dominates the Pearson baseline on transformed
    block data (n=50, p=150) in >= 90% of 20 paired replicates."""
    sim = ts.SimConfig(scenario="B", n=50, p=150, transform="nonparanormal", seed=0)
    grid = ts.default_grid()
    wins = 0
    for r in range(20):
        pair = dataclasses.replace(sim, seed=424242 ^ r)
        auc_k = ts.auc(ts.roc_sweep(pair, "kendall", 1, grid=grid))
        auc_p = ts.auc(ts.roc_sweep(pair, "pearson", 1, grid=grid))
        wins += auc_k > auc_p
    ok = wins >= 18
    assert report(8, "roc-ordering", ok, f"rank estimator won {wins}/20 pairs, need >= 18")


# -- 9 ------------------------------------------------------------------


def test_criterion_09_byte_determinism(tmp_path):
    """Every command rerun with the same flags/seed writes identical bytes,
    independent of thread count."""
    runner = CliRunner()

    def run(args):
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result.output

    def tree_bytes(root):
        out = {}
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as fh:
                out[name] = fh.read()
        return out

    checks = []

    sim_args = ["simulate", "--scenario", "B", "--n", "40", "--p", "20", "--base", "t",
                "--transform", "npn", "--seed", "3"]
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    out1 = run(sim_args + ["--out-dir", str(d1)])
    out2 = run(sim_args + ["--out-dir", str(d2)])
    checks.append(("simulate", out1 == out2 and tree_bytes(d1) == tree_bytes(d2)))

    screen_args = ["screen", "--data", str(d1 / "sim_data.csv"), "--fpr-q", "0.1",
                   "--components"]
    e1, e2 = tmp_path / "e1.tsv", tmp_path / "e2.tsv"
    run(screen_args + ["--out", str(e1), "--threads", "1"])
    run(screen_args + ["--out", str(e2), "--threads", "4"])
    checks.append(("screen", e1.read_bytes() == e2.read_bytes()
                   and (tmp_path / "e1.tsv.components.tsv").read_bytes()
                   == (tmp_path / "e2.tsv.components.tsv").read_bytes()))

    prices = tmp_path / "prices.csv"
    rngp = np.random.default_rng(5)
    lines = ["date," + ",".join(f"S{j}" for j in range(4))]
    level = 100.0 * np.exp(np.cumsum(rngp.normal(0, 0.02, size=(30, 4)), axis=0))
    for d in range(30):
        lines.append(f"2021-03-{d + 1:02d}," + ",".join(f"{v:.8f}" for v in level[d]))
    prices.write_text("\n".join(lines) + "\n")
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    run(["ingest-prices", "--prices", str(prices), "--out", str(r1)])
    run(["ingest-prices", "--prices", str(prices), "--out", str(r2)])
    checks.append(("ingest-prices", r1.read_bytes() == r2.read_bytes()))

    bench_args = ["bench", "--mode", "table", "--scenario", "D", "--n", "50", "--p", "20",
                  "--replicates", "6", "--seed", "12", "--q", "0.1"]
    b1c, b1j = tmp_path / "b1.csv", tmp_path / "b1.json"
    b2c, b2j = tmp_path / "b2.csv", tmp_path / "b2.json"
    run(bench_args + ["--threads", "1", "--out-csv", str(b1c), "--out-json", str(b1j)])
    run(bench_args + ["--threads", "4", "--out-csv", str(b2c), "--out-json", str(b2j)])
    checks.append(("bench", b1c.read_bytes() == b2c.read_bytes()
                   and b1j.read_bytes() == b2j.read_bytes()))

    diag_args = ["diagnose", "--scenario", "D", "--p", "20", "--seed", "0", "--n", "50",
                 "--hoeffding-n", "50,100", "--hoeffding-t", "0.1,0.2"]
    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    run(diag_args + ["--out", str(g1)])
    run(diag_args + ["--out", str(g2)])
    checks.append(("diagnose", g1.read_bytes() == g2.read_bytes()))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}={'ok' if flag else 'DIFFERS'}" for name, flag in checks)
    assert report(9, "byte-determinism", ok, detail)


# -- 10 -----------------------------------------------------------------


def test_criterion_10_edge_counts_decrease_on_price_table(tmp_path):
    """Substitute for the proprietary-data figure: on an ingested price table
    with >= 20 tickers, edge counts strictly decrease over gamma in
    {0.5, 0.6, 0.7}."""
    tickers, days = 24, 300
    rng = ts.RngStream(314159)
    loadings = np.asarray(rng.uniform(0.35, 0.9, size=tickers))
    factor = np.asarray(rng.standard_normal(days))
    noise = np.asarray(rng.standard_normal((days, tickers)))
    rets = np.sqrt(loadings)[None, :] * factor[:, None] + np.sqrt(1 - loadings)[None, :] * noise
    prices = 100.0 * np.exp(np.cumsum(0.02 * rets, axis=0))

    path = tmp_path / "prices.csv"
    lines = ["date," + ",".join(f"S{j:02d}" for j in range(tickers))]
    for d in range(days):
        lines.append(f"day{d:03d}," + ",".join(f"{v:.10f}" for v in prices[d]))
    path.write_text("\n".join(lines) + "\n")

    runner = CliRunner()
    out_returns = tmp_path / "returns.csv"
    result = runner.invoke(cli_main, ["ingest-prices", "--prices", str(path),
                                      "--out", str(out_returns)], catch_exceptions=False)
    assert result.exit_code == 0

    counts = []
    for gamma in (0.5, 0.6, 0.7):
        out_edges = tmp_path / f"edges_{gamma}.tsv"
        result = runner.invoke(cli_main, ["screen", "--data", str(out_returns),
                                          "--gamma", str(gamma), "--out", str(out_edges)],
                               catch_exceptions=False)
        assert result.exit_code == 0
        counts.append(json.loads(result.output)["edge_count"])
    ok = counts[0] > counts[1] > counts[2]
    assert report(10, "edge-count-monotonicity", ok,
                  f"counts at gamma 0.5/0.6/0.7 = {counts[0]}/{counts[1]}/{counts[2]}")
