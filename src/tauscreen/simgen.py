"""Synthetic ground truths and samplers for the four benchmark scenarios.

Scenarios
---------
A   Random sparse precision: each pair is an edge with probability 0.01; edge
    weights are Unif[-0.3, 0.7]; the diagonal is shifted so the smallest
    eigenvalue is exactly 0.1.
B   Ten equal contiguous blocks; every within-block pair is an edge, weights
    and diagonal shift as in A. Covariance and precision share the block
    structure.
C   AR(1)-style correlation 0.3^|j-k|; the precision is tridiagonal, so the
    true edges are exactly the adjacent pairs.
D   Block-diagonal precision with p/10 blocks of size 10 and entries
    0.9^|j-k| inside each block.

In every scenario the covariance is rescaled to unit diagonal and the stored
precision is its exact algebraic inverse (the rescaling is applied to both
factors analytically, not by a second numerical inversion).

Sampling draws latent rows L z (z standard normal), optionally scales them to
a multivariate t with the requested degrees of freedom and unit-diagonal
correlation, and optionally pushes each column through one of four strictly
increasing transforms (exp(x), x^3, x^5, (x-1)^3) chosen with equal
probability per column.

Randomness comes from :class:`RngStream`, a counter-based Philox generator.
Uniforms are (k + 1/2) / 2^53 over 53-bit integers (never exactly 0 or 1),
normals are inverse-CDF transforms of those uniforms, and chi-square deviates
are sums of squared normals for integer degrees of freedom (gamma rejection
sampling otherwise). Replicate r of an experiment uses seed ``sim.seed XOR r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .linalg import cholesky_lower, eig_extremes, invert_pd, rescale_to_unit_diagonal
from .rankcorr import DataMatrix
from .screening import EdgeSet

SCENARIOS = ("A", "B", "C", "D")
BASES = ("gaussian", "student-t")
TRANSFORMS = ("none", "nonparanormal")

_EDGE_PROBABILITY = 0.01
_WEIGHT_LOW, _WEIGHT_HIGH = -0.3, 0.7
_EIG_FLOOR = 0.1
_AR_RHO = 0.3
_BLOCK_DECAY = 0.9

_U53 = float(2**53)
_MASK64 = (1 << 64) - 1
# Above this integer df, chi_square draws through the gamma path: the sum of
# squares asks for size x df normals, gigabytes or an error for a huge theta.
_SUM_OF_SQUARES_MAX_DF = 100


class RngStream:
    """Deterministic stream of deviates backed by a counter-based Philox PRNG.

    Two streams with the same seed produce identical sequences; distinct seeds
    give statistically independent streams, so parallel replicates can safely
    use ``RngStream(sim.seed ^ replicate_index)``.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))

    def uniform01(self, size=None):
        """Uniform deviates on the open interval (0, 1) with 53-bit resolution."""
        k = self._gen.integers(0, 1 << 53, size=size, dtype=np.int64)
        return (k + 0.5) / _U53

    def uniform(self, a: float, b: float, size=None):
        if not a < b:
            raise InvalidInputError(f"need a < b, got [{a}, {b}]")
        return a + (b - a) * self.uniform01(size)

    def standard_normal(self, size=None):
        """Standard normals via the inverse normal CDF of open-interval uniforms."""
        from scipy.special import ndtri  # imported here: only simulation needs scipy

        return ndtri(self.uniform01(size))

    def chi_square(self, df: float, size: int) -> np.ndarray:
        """``size`` chi-square deviates with finite df > 0 degrees of freedom:
        sums of df squared normals for an integer df up to
        ``_SUM_OF_SQUARES_MAX_DF``, twice a Gamma(df/2) deviate otherwise."""
        if not 0 < df < math.inf:
            raise InvalidInputError("degrees of freedom must be positive and finite")
        if float(df).is_integer() and df <= _SUM_OF_SQUARES_MAX_DF:
            z = self.standard_normal((size, int(df)))
            return np.sum(z * z, axis=-1)
        return 2.0 * self._gamma(df / 2.0, size)

    def _gamma(self, shape_param: float, count: int) -> np.ndarray:
        """Gamma(shape, 1) via the squeeze-free Marsaglia-Tsang method (shape >= 1)."""
        if shape_param < 1.0:
            raise InvalidInputError("gamma rejection path requires shape >= 1")
        d = shape_param - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        out = np.empty(count)
        filled = 0
        while filled < count:
            m = count - filled
            x = self.standard_normal(m)
            v = (1.0 + c * x) ** 3
            u = self.uniform01(m)
            ok = (v > 0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(np.where(v > 0, v, 1.0)))
            accepted = d * v[ok]
            out[filled : filled + accepted.size] = accepted
            filled += accepted.size
        return out


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one synthetic-data draw."""

    scenario: str
    n: int
    p: int
    base: str = "gaussian"
    theta: float = 5.0
    transform: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InvalidInputError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.base not in BASES:
            raise InvalidInputError(f"base must be one of {BASES}, got {self.base!r}")
        if self.transform not in TRANSFORMS:
            raise InvalidInputError(f"transform must be one of {TRANSFORMS}, got {self.transform!r}")
        if self.n < 2:
            raise InvalidInputError("need n >= 2")
        if self.p < 2:
            raise InvalidInputError("need p >= 2")
        if self.scenario in ("B", "D") and self.p % 10 != 0:
            raise InvalidInputError(f"scenario {self.scenario} requires p divisible by 10, got {self.p}")
        if self.base == "student-t" and not 2 < self.theta < math.inf:
            raise InvalidInputError("student-t base requires a finite theta > 2 (finite variance)")

    def to_json_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "n": self.n,
            "p": self.p,
            "base": self.base,
            "transform": self.transform,
            "seed": self.seed,
        }
        if self.base == "student-t":
            out["theta"] = self.theta
        return out


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """A solved scenario: covariance, its inverse, and the true edge set.

    ``raw_precision`` keeps the precision matrix before the covariance is
    rescaled to unit diagonal (scenarios A/B/D), which is where the
    smallest-eigenvalue floor of 0.1 is enforced.
    """

    sigma: np.ndarray
    omega: np.ndarray
    edges: EdgeSet
    scenario: str
    raw_precision: np.ndarray | None = field(default=None, compare=False)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def nonedge_count(self) -> int:
        return self.p * (self.p - 1) // 2 - len(self.edges)

    def validate(self) -> None:
        """Check the structural invariants; raises InvalidInputError on failure."""
        p = self.p
        if self.omega.shape != (p, p):
            raise InvalidInputError("sigma and omega dimensions differ")
        if np.max(np.abs(np.diag(self.sigma) - 1.0)) > 1e-10:
            raise InvalidInputError("sigma diagonal is not 1")
        cholesky_lower(self.sigma)  # positive definiteness
        resid = np.max(np.abs(self.sigma @ self.omega - np.eye(p)))
        if resid > 1e-6:
            raise InvalidInputError(f"sigma * omega deviates from identity by {resid:.3g}")
        support = np.argwhere(np.triu(np.abs(self.omega) > 1e-12, 1))
        if not np.array_equal(support, self.edges.edges):
            raise InvalidInputError("edge set does not match the precision support")


def _finish_from_precision(precision: np.ndarray, edges: EdgeSet, scenario: str,
                           block_slices: list[slice]) -> GroundTruth:
    """Invert, rescale to unit diagonal, and rescale the precision to match.

    The inversion runs per diagonal block of ``block_slices`` (one block of
    all p for scenario A), so entries outside the blocks are exactly zero in
    both factors.
    """
    cov = np.zeros_like(precision)
    for sl in block_slices:
        cov[sl, sl] = invert_pd(precision[sl, sl])
    d = np.diag(cov).copy()
    sigma = rescale_to_unit_diagonal(cov)
    # (D^-1/2 cov D^-1/2)^-1 = D^1/2 precision D^1/2, applied analytically
    scale = np.sqrt(np.outer(d, d))
    omega = precision * scale
    return GroundTruth(sigma=sigma, omega=omega, edges=edges, scenario=scenario,
                       raw_precision=precision)


def _random_weighted_precision(p: int, pair_mask: np.ndarray, rng: RngStream):
    """Unit-diagonal symmetric matrix with Unif weights on masked pairs, then
    the diagonal shift that pins the smallest eigenvalue at the 0.1 floor."""
    iu = np.triu_indices(p, 1)
    weights = rng.uniform(_WEIGHT_LOW, _WEIGHT_HIGH, size=pair_mask.size)
    vals = np.where(pair_mask, weights, 0.0)
    a = np.eye(p)
    a[iu] = vals
    a.T[iu] = vals
    lam_min, _ = eig_extremes(a)
    precision = a + (_EIG_FLOOR - lam_min) * np.eye(p)
    return precision, np.transpose(iu)[vals != 0.0]


def gen_precision_A(p: int, rng: RngStream) -> GroundTruth:
    """Scenario A: Bernoulli(0.01) random edges with uniform weights."""
    if p < 2:
        raise InvalidInputError("need p >= 2")
    m = p * (p - 1) // 2
    mask = rng.uniform01(m) < _EDGE_PROBABILITY
    precision, pairs = _random_weighted_precision(p, mask, rng)
    return _finish_from_precision(precision, EdgeSet(p, pairs), "A", [slice(0, p)])


def _contiguous_blocks(p: int, n_blocks: int) -> list[slice]:
    size = p // n_blocks
    return [slice(l * size, (l + 1) * size) for l in range(n_blocks)]


def _within_block_mask(p: int, blocks: list[slice]) -> np.ndarray:
    iu = np.triu_indices(p, 1)
    block_of = np.empty(p, dtype=int)
    for b, sl in enumerate(blocks):
        block_of[sl] = b
    return block_of[iu[0]] == block_of[iu[1]]


def gen_precision_B(p: int, rng: RngStream) -> GroundTruth:
    """Scenario B: ten contiguous blocks, fully connected inside each block."""
    if p % 10 != 0:
        raise InvalidInputError(f"scenario B requires p divisible by 10, got {p}")
    blocks = _contiguous_blocks(p, 10)
    mask = _within_block_mask(p, blocks)
    precision, _ = _random_weighted_precision(p, mask, rng)
    pairs = np.transpose(np.triu_indices(p, 1))[mask]
    return _finish_from_precision(precision, EdgeSet(p, pairs), "B", blocks)


def gen_correlation_C(p: int) -> GroundTruth:
    """Scenario C: geometric-decay correlation with tridiagonal inverse."""
    if p < 2:
        raise InvalidInputError("need p >= 2")
    idx = np.arange(p)
    sigma = _AR_RHO ** np.abs(idx[:, None] - idx[None, :])
    # closed-form tridiagonal inverse of the geometric-decay correlation
    r = _AR_RHO
    denom = 1.0 - r * r
    omega = np.zeros((p, p))
    np.fill_diagonal(omega, (1.0 + r * r) / denom)
    omega[0, 0] = omega[p - 1, p - 1] = 1.0 / denom
    off = -r / denom
    for j in range(p - 1):
        omega[j, j + 1] = omega[j + 1, j] = off
    edges = EdgeSet(p, np.column_stack((idx[:-1], idx[1:])))
    return GroundTruth(sigma=sigma, omega=omega, edges=edges, scenario="C",
                       raw_precision=omega)


def gen_precision_D(p: int) -> GroundTruth:
    """Scenario D: p/10 size-10 blocks with geometric-decay precision entries."""
    if p % 10 != 0:
        raise InvalidInputError(f"scenario D requires p divisible by 10, got {p}")
    blocks = _contiguous_blocks(p, p // 10)
    idx = np.arange(10)
    block = _BLOCK_DECAY ** np.abs(idx[:, None] - idx[None, :])
    precision = np.zeros((p, p))
    for sl in blocks:
        precision[sl, sl] = block
    pairs = np.transpose(np.triu_indices(p, 1))[_within_block_mask(p, blocks)]
    return _finish_from_precision(precision, EdgeSet(p, pairs), "D", blocks)


def generate_ground_truth(cfg: SimConfig, rng: RngStream | None = None) -> GroundTruth:
    """Dispatch on the scenario; A and B consume randomness, C and D do not."""
    if cfg.scenario == "A":
        if rng is None:
            raise InvalidInputError("scenario A needs an RngStream")
        return gen_precision_A(cfg.p, rng)
    if cfg.scenario == "B":
        if rng is None:
            raise InvalidInputError("scenario B needs an RngStream")
        return gen_precision_B(cfg.p, rng)
    if cfg.scenario == "C":
        return gen_correlation_C(cfg.p)
    return gen_precision_D(cfg.p)


_COLUMN_TRANSFORMS = (
    np.exp,
    lambda x: x**3,
    lambda x: x**5,
    lambda x: (x - 1.0) ** 3,
)


def sample(gt: GroundTruth, cfg: SimConfig, rng: RngStream) -> DataMatrix:
    """Draw an n x p data matrix from a solved scenario.

    Draw order is fixed (latent normals, then mixing chi-squares for the t
    base, then per-column transform choices), so datasets with and without
    the marginal transforms share identical latent draws for the same seed.
    """
    if cfg.p != gt.p:
        raise InvalidInputError(f"config p={cfg.p} does not match ground truth p={gt.p}")
    lower = cholesky_lower(gt.sigma)
    z = rng.standard_normal((cfg.n, cfg.p))
    x = z @ lower.T
    if cfg.base == "student-t":
        w = rng.chi_square(cfg.theta, size=cfg.n)
        # scale so the sampled correlation matrix (not the scatter) is sigma
        x = x * np.sqrt(cfg.theta / w)[:, None] * np.sqrt((cfg.theta - 2.0) / cfg.theta)
    if cfg.transform == "nonparanormal":
        choice = np.minimum((rng.uniform01(cfg.p) * 4).astype(int), 3)
        x = x.copy()
        for j in range(cfg.p):
            x[:, j] = _COLUMN_TRANSFORMS[choice[j]](x[:, j])
    return DataMatrix(x)
