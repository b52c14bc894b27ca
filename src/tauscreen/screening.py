"""Edge and neighborhood screening by thresholding a correlation estimate.

Three threshold rules are supported:

* ``fixed``: one constant cutoff gamma.
* ``rate``: the sample-size-scaled cutoff (2/3) * C1 * n^(-kappa), which keeps
  every sufficiently strong edge with high probability.
* ``fpr``: per-pair cutoffs (pi/2) * omega_hat * z / sqrt(n) with
  z = Phi^{-1}(1 - f / (p(p-1))), built from the jackknife variance estimates,
  which targets an expected false-positive budget of f non-edges. Phi^{-1}
  is ``statistics.NormalDist().inv_cdf`` at that argument, within 6 ulps of
  ``scipy.special.ndtri``. A budget f <= 2^-54 * p(p-1) rounds the argument
  to 1, so z is infinite and every cutoff is infinite, except the cutoff 0
  of a zero-variance pair.

Edges are kept on strict inequality |corr| > gamma. An edge set is an edge
array: the read-only (E, 2) intp array of its pairs (j, k), j < k, in
lexicographic order, which :func:`upper_pairs` alone builds. A partition is a
read-only array of one component label per node. Node indices are 0-based in
memory and 1-based in the edge and partition TSVs the package writes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidInputError, MissingInputError
from .io import write_rows
from .rankcorr import CorrMatrix


@dataclass(frozen=True)
class ThresholdSpec:
    """Which threshold rule to apply; exactly one mode is active."""

    mode: str
    gamma: float | None = None
    c1: float | None = None
    kappa: float | None = None
    f: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.mode == "fixed":
            if self.gamma is None or not 0 <= self.gamma < math.inf:
                raise InvalidInputError("fixed mode needs gamma >= 0 and finite")
        elif self.mode == "rate":
            if self.c1 is None or not 0 < self.c1 < math.inf:
                raise InvalidInputError("rate mode needs C1 > 0 and finite")
            if self.kappa is None or not 0 < self.kappa < 0.5:
                raise InvalidInputError("rate mode needs kappa in (0, 1/2)")
        elif self.mode == "fpr":
            has_f = self.f is not None
            has_q = self.q is not None
            if has_f == has_q:
                raise InvalidInputError("fpr mode needs exactly one of f or q")
            if has_f and not 0 < self.f < math.inf:
                raise InvalidInputError("fpr mode needs f > 0 and finite")
            if has_q and not 0 < self.q < 1:
                raise InvalidInputError("fpr mode needs q in (0, 1)")
        else:
            raise InvalidInputError(f"unknown threshold mode {self.mode!r}")

    @staticmethod
    def fixed(gamma: float) -> "ThresholdSpec":
        return ThresholdSpec("fixed", gamma=float(gamma))

    @staticmethod
    def rate(c1: float, kappa: float) -> "ThresholdSpec":
        return ThresholdSpec("rate", c1=float(c1), kappa=float(kappa))

    @staticmethod
    def fpr(f: float | None = None, q: float | None = None) -> "ThresholdSpec":
        return ThresholdSpec(
            "fpr",
            f=None if f is None else float(f),
            q=None if q is None else float(q),
        )

    def resolve_f(self, p: int) -> float:
        """False-positive budget f for dimension p.

        When only the rate q is known, f defaults to q * p(p-1)/2, i.e. q is
        interpreted against all unordered pairs. Callers holding the true
        non-edge count should convert q themselves and pass f explicitly.
        """
        if self.mode != "fpr":
            raise InvalidInputError("resolve_f is only meaningful in fpr mode")
        if self.f is not None:
            return self.f
        return self.q * p * (p - 1) / 2.0

    def cutoff(self, n: int) -> float:
        """The one cutoff of every pair at sample size n: gamma, or the rate
        rule's (2/3) * C1 * n^(-kappa). An fpr rule's cutoffs are per pair."""
        if self.mode == "fpr":
            raise InvalidInputError("an fpr threshold has no single cutoff")
        if self.mode == "fixed":
            return self.gamma
        return (2.0 / 3.0) * self.c1 * float(n) ** (-self.kappa)


def threshold_matrix(spec: ThresholdSpec, n: int, p: int, omega2: np.ndarray | None = None) -> np.ndarray:
    """Materialize the p x p matrix of per-pair cutoffs for a threshold rule.

    The fpr rule reads ``omega2``, the jackknife variances that
    :func:`rankcorr.jackknife_matrix` returns; only its shape is checked. The
    diagonal is set to 0 and never used (screening only inspects j < k).
    """
    if p < 1 or n < 2:
        raise InvalidInputError("need p >= 1 and n >= 2")
    if spec.mode != "fpr":
        out = np.full((p, p), spec.cutoff(n), dtype=np.float64)
    else:
        if omega2 is None:
            raise MissingInputError("fpr mode requires a jackknife variance matrix")
        if omega2.shape != (p, p):
            raise InvalidInputError(f"variance matrix has shape {omega2.shape}, expected p={p}")
        if n < 3:
            raise InvalidInputError("fpr mode needs n >= 3")
        if p < 2:
            raise InvalidInputError(f"fpr mode needs p >= 2 columns, got p={p}")
        f = spec.resolve_f(p)
        if not f < p * (p - 1) / 2.0:
            raise InvalidInputError(f"need f < p(p-1)/2, got f={f} with p={p}")
        level = 1.0 - f / (p * (p - 1))
        z = math.inf if level == 1.0 else NormalDist().inv_cdf(level)
        omega = np.sqrt(omega2)
        zero = omega == 0.0
        # a zero off the diagonal is a degenerate pair
        if np.count_nonzero(zero) > np.count_nonzero(np.diagonal(zero)):
            warnings.warn(
                "degenerate pair(s) with zero jackknife variance: "
                "their threshold is 0 and they are kept whenever |corr| > 0",
                stacklevel=2,
            )
        with np.errstate(invalid="ignore"):  # 0 * inf when z is inf
            out = (np.pi / 2.0) * omega * z / np.sqrt(n)
        out[zero] = 0.0
    np.fill_diagonal(out, 0.0)
    return out


def upper_pairs(mask: np.ndarray) -> np.ndarray:
    """The edge array of the pairs (j, k), j < k, where the p x p boolean
    ``mask`` is true."""
    pairs = np.argwhere(np.triu(mask, 1))
    pairs.flags.writeable = False
    return pairs


def screen_edges(corr: CorrMatrix, thresholds: np.ndarray) -> np.ndarray:
    """The edge array of the pairs (j, k), j < k, with |corr[j, k]| strictly
    above thresholds[j, k]."""
    if not isinstance(corr, CorrMatrix):
        raise InvalidInputError("screen_edges expects a CorrMatrix")
    if corr.kind not in ("kendall-sine", "pearson"):
        raise InvalidInputError(f"cannot screen on kind {corr.kind!r}; use kendall-sine or pearson")
    t = np.asarray(thresholds, dtype=np.float64)
    p = corr.dim
    if t.shape != (p, p):
        raise InvalidInputError(f"threshold matrix shape {t.shape} does not match p={p}")
    return upper_pairs(np.abs(corr.entries) > t)


def connected_components(p: int, edges: np.ndarray) -> np.ndarray:
    """The connected components of the graph on p nodes with the edge array
    ``edges``: a read-only array of each node's label, 1..k in order of each
    component's lowest node."""
    # Hook and shortcut: each node points at a lower or equal node, and after
    # the shortcut at its tree's root, the tree's lowest node. While an edge
    # joins two trees, the higher root hooks onto the lowest root it meets.
    roots = np.arange(p)
    j, k = edges.T
    while True:
        rj, rk = roots[j], roots[k]
        apart = rj != rk
        if not apart.any():
            break
        rj, rk = rj[apart], rk[apart]
        np.minimum.at(roots, np.maximum(rj, rk), np.minimum(rj, rk))
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
    labels = np.unique(roots, return_inverse=True)[1] + 1
    labels.flags.writeable = False
    return labels


def write_edges_tsv(path, edges: np.ndarray, values: np.ndarray | CorrMatrix) -> None:
    """Write an edge array as TSV with 1-based indices and the value of each
    edge in the square matrix ``values``."""
    v = values.entries if isinstance(values, CorrMatrix) else np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise InvalidInputError(f"value matrix has shape {v.shape}, expected a square matrix")
    j, k = edges.T
    write_rows(path, zip((j + 1).tolist(), (k + 1).tolist(), v[j, k].tolist()),
               delimiter="\t", header=("j", "j'", "value"))


def write_partition_tsv(path, labels: np.ndarray) -> None:
    """Write each node's component label as TSV with 1-based node indices."""
    write_rows(path, enumerate(labels.tolist(), 1), delimiter="\t",
               header=("node", "component"))
