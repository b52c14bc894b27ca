"""Checkable surrogates for the structural conditions behind the screening rules.

Given a solved ground truth, these report how strongly edges separate from
non-edges on the correlation scale, the eigenvalue spread of the covariance,
the conditioning-based sufficient conditions that re-express those
requirements in terms of the precision matrix, an explicit upper bound on any
node's screened-neighborhood size, and Monte Carlo checks of the tau
statistic's concentration and asymptotic normality.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import eig_extremes
from .rankcorr import jackknife_matrix
from .simgen import GroundTruth, RngStream

# Default cutoff under which the finite-n surrogate for the vanishing
# non-edge-correlation condition is flagged as "small". Heuristic.
SMALL_SURROGATE_CUTOFF = 0.1


def _finite_or_none(doc: dict) -> dict:
    """``doc`` with each nan or infinite float as None, since JSON has neither:
    an empty edge set leaves nan, and a beta bound that does not exist is inf."""
    return {key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in doc.items()}


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, saturating to inf where the float overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class AssumptionReport:
    """Numeric summaries plus pass/fail flags for the screening conditions."""

    n: int
    c1: float
    kappa: float
    xi: float
    c2: float
    alpha: float
    min_edge_corr: float
    max_nonedge_corr: float
    lambda_min: float
    lambda_max: float
    beta: float
    nu: float
    min_scaled_precision: float
    edge_strength_floor: float
    edge_strength_ok: bool
    eigenvalue_cap: float
    eigenvalue_ok: bool
    nonedge_surrogate: float
    nonedge_small: bool

    def to_json_dict(self) -> dict:
        return _finite_or_none(asdict(self))


@dataclass(frozen=True)
class ConditioningReport:
    """Sufficient conditions expressed through the precision matrix."""

    beta: float
    beta_bound: float
    beta_exceeds_one: bool
    beta_within_bound: bool
    nu: float
    min_scaled_precision: float
    precision_floor: float
    precision_ok: bool
    n: int
    n_required: float
    n_ok: bool

    def to_json_dict(self) -> dict:
        return _finite_or_none(asdict(self))


def _corr_extremes(gt: GroundTruth) -> tuple[float, float]:
    """(min |corr| over edges, max |corr| over non-edges); NaN when empty."""
    p = gt.p
    absd = np.abs(gt.sigma)
    edge_mask = np.zeros((p, p), dtype=bool)
    edge_mask[gt.edges.edges[:, 0], gt.edges.edges[:, 1]] = True
    triu = np.triu(np.ones((p, p), dtype=bool), 1)
    nonedge_mask = triu & ~edge_mask
    min_edge = float(np.min(absd[edge_mask])) if edge_mask.any() else float("nan")
    max_nonedge = float(np.max(absd[nonedge_mask])) if nonedge_mask.any() else float("nan")
    return min_edge, max_nonedge


def _spread(gt: GroundTruth) -> tuple[float, float, float, float]:
    lam_min, lam_max = eig_extremes(gt.sigma)
    beta = lam_max / lam_min
    nu = 2.0 / (1.0 / lam_max + 1.0 / lam_min)
    return lam_min, lam_max, beta, nu


def _min_scaled_precision(gt: GroundTruth, nu: float) -> float:
    if len(gt.edges) == 0:
        return float("nan")
    return nu * nu * np.abs(gt.omega[gt.edges.edges[:, 0], gt.edges.edges[:, 1]]).min()


def check_constants(n: int, c1: float, kappa: float, xi: float, c2: float,
                    alpha: float) -> None:
    """Refuse constants outside the ranges :func:`check_assumptions` is
    defined on: n >= 2, kappa in (0, 1/2), xi in (0, 1 - 2 kappa), C1 > 0,
    C2 > 0 and alpha >= 0, each finite."""
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if not 0 < kappa < 0.5:
        raise InvalidInputError("kappa must lie in (0, 1/2)")
    if not 0 < xi < 1 - 2 * kappa:
        raise InvalidInputError("xi must lie in (0, 1 - 2*kappa)")
    if not (0 < c1 < math.inf and 0 < c2 < math.inf):
        raise InvalidInputError("C1 and C2 must be positive and finite")
    if not 0 <= alpha < math.inf:
        raise InvalidInputError("alpha must be nonnegative and finite")


def check_assumptions(gt: GroundTruth, n: int, c1: float, kappa: float, xi: float,
                      c2: float, alpha: float) -> AssumptionReport:
    """Evaluate the edge-strength floor, the eigenvalue cap, and the finite-n
    surrogate of the vanishing non-edge-correlation requirement.

    The non-edge condition is asymptotic, so the report exposes the surrogate
    ``max_nonedge_corr * n^((1-xi)/2)`` and flags it "small" below
    ``SMALL_SURROGATE_CUTOFF``.
    """
    check_constants(n, c1, kappa, xi, c2, alpha)
    min_edge, max_nonedge = _corr_extremes(gt)
    lam_min, lam_max, beta, nu = _spread(gt)
    floor = c1 * float(n) ** (-kappa)
    cap = c2 * _power(float(n), alpha)
    surrogate = (max_nonedge * float(n) ** ((1 - xi) / 2.0)
                 if not math.isnan(max_nonedge) else float("nan"))
    return AssumptionReport(
        n=n, c1=c1, kappa=kappa, xi=xi, c2=c2, alpha=alpha,
        min_edge_corr=min_edge,
        max_nonedge_corr=max_nonedge,
        lambda_min=lam_min,
        lambda_max=lam_max,
        beta=beta,
        nu=nu,
        min_scaled_precision=_min_scaled_precision(gt, nu),
        edge_strength_floor=floor,
        edge_strength_ok=bool(math.isnan(min_edge) or min_edge >= floor),
        eigenvalue_cap=cap,
        eigenvalue_ok=bool(lam_max <= cap),
        nonedge_surrogate=surrogate,
        nonedge_small=bool(not math.isnan(surrogate) and surrogate < SMALL_SURROGATE_CUTOFF),
    )


def check_proposition1(gt: GroundTruth, n: int, c1: float, kappa: float, xi: float) -> ConditioningReport:
    """Evaluate the conditioning-based sufficient conditions.

    A well-conditioned covariance (condition number close enough to 1) makes
    the non-edge correlations vanish at the required rate, and large enough
    harmonically-scaled precision entries imply the edge-strength floor, once
    the sample size clears ``(2/C1)^(1/(1-xi-kappa))``.
    """
    if not 0 < kappa < 0.5:
        raise InvalidInputError("kappa must lie in (0, 1/2)")
    if xi <= 0 or 1.0 - xi - kappa <= 0:
        raise InvalidInputError("need xi > 0 and xi + kappa < 1")
    if c1 <= 0:
        raise InvalidInputError("C1 must be positive")

    _, lam_max, beta, nu = _spread(gt)
    root = float(n) ** ((1.0 - xi) / 2.0)
    inv_sqrt_lmax = lam_max ** (-0.5)
    beta_bound = ((root + inv_sqrt_lmax) / (root - inv_sqrt_lmax)
                  if root > inv_sqrt_lmax else float("inf"))
    n_required = _power(2.0 / c1, 1.0 / (1.0 - xi - kappa))
    min_scaled = _min_scaled_precision(gt, nu)
    floor = 2.0 * c1 * float(n) ** (-kappa)
    return ConditioningReport(
        beta=beta,
        beta_bound=beta_bound,
        beta_exceeds_one=bool(beta > 1.0),
        beta_within_bound=bool(beta <= beta_bound),
        nu=nu,
        min_scaled_precision=min_scaled,
        precision_floor=floor,
        precision_ok=bool(not math.isnan(min_scaled) and min_scaled >= floor),
        n=n,
        n_required=n_required,
        n_ok=bool(n >= n_required),
    )


def neighborhood_size_bound(gt: GroundTruth, n: int, c1: float, kappa: float) -> float:
    """Explicit cap on the size of any screened neighborhood at the rate
    threshold: 9 * C1^-2 * n^(2 kappa) * lambda_max(sigma)."""
    if c1 <= 0:
        raise InvalidInputError("C1 must be positive")
    if kappa < 0:
        raise InvalidInputError("kappa must be nonnegative")
    _, lam_max = eig_extremes(gt.sigma)
    return 9.0 * _power(c1, -2.0) * float(n) ** (2.0 * kappa) * lam_max


def hoeffding_bound(n: int, t: float) -> float:
    """Two-sided large-deviation bound 2 exp(-floor(n/2) t^2 / 2) for the tau
    statistic (a bounded pairwise average), clipped at 1."""
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if t <= 0:
        raise InvalidInputError("need t > 0")
    return min(1.0, 2.0 * math.exp(-(n // 2) * t * t / 2.0))


def normality_check(n: int, rho: float, replicates: int, rng: RngStream) -> tuple[float, float]:
    """Mean and sample variance of sqrt(n) (tau_hat - tau) / omega_hat across
    seeded bivariate-Gaussian replicates with latent correlation ``rho``.

    tau_hat and omega_hat^2 come from :func:`rankcorr.jackknife_matrix`, the
    fpr rule's statistic, called once per 25 replicates on their stacked
    (x, y) columns: the kernel is exact per pair and call-bound at small p.
    The reference tau is the exact arcsine relation tau = (2/pi) asin(rho).
    """
    if n < 10:
        raise InvalidInputError("need n >= 10")
    if not abs(rho) < 1:
        raise InvalidInputError("need |rho| < 1")
    if replicates < 100:
        raise InvalidInputError("need at least 100 replicates")
    tau_true = (2.0 / math.pi) * math.asin(rho)
    mix = math.sqrt(1.0 - rho * rho)
    stats = []
    for lo in range(0, replicates, 25):
        draws = [rng.standard_normal((n, 2)) for _ in range(min(25, replicates - lo))]
        tau, jack = jackknife_matrix(np.column_stack(
            [col for z in draws for col in (z[:, 0], rho * z[:, 0] + mix * z[:, 1])]))
        for x in range(0, 2 * len(draws), 2):
            tau_hat, omega2 = float(tau.entries[x, x + 1]), float(jack.entries[x, x + 1])
            stats.append(math.sqrt(n) * (tau_hat - tau_true) / math.sqrt(omega2))
    return float(np.mean(stats)), float(np.var(stats, ddof=1))
