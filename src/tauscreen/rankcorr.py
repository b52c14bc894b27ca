"""Kendall's tau statistics and derived correlation estimators.

This module provides the pairwise concordance (Kendall's tau) statistic, the
sine-mapped correlation matrix built from it, a plain Pearson baseline, and a
leave-one-out (jackknife) estimator of the asymptotic variance of the tau
statistic.

Conventions
-----------
* tau is the literal pairwise average ``2/(n(n-1)) * sum_{i<i'} sign(dx*dy)``:
  tied pairs contribute 0 through ``sign(0) == 0`` and the denominator is
  always ``n(n-1)/2`` (no tie correction).
* All pairwise statistics have exact integer numerators, summed by one
  sign kernel that takes the observations in blocks of rows, so the
  matrices agree bit-for-bit with the quadratic pairwise references,
  independent of evaluation order and block size.
* The kernel's memory is O(p n) per thread: one float32 buffer of p x 8n
  cells for a tau-only pass (8 observations a block), p x n for the
  jackknife (one a block).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InvalidInputError
from .linalg import check_symmetric

CORR_KINDS = ("kendall-raw", "kendall-sine", "pearson")


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """An n x p observation matrix with optional column labels."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise InvalidInputError(f"data must be 2-D, got shape {v.shape}")
        n, p = v.shape
        if n < 2:
            raise InvalidInputError(f"need at least 2 observations, got {n}")
        if p < 1:
            raise InvalidInputError("need at least 1 variable")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("data contains non-finite values")
        if self.labels is not None and len(self.labels) != p:
            raise InvalidInputError(
                f"{len(self.labels)} labels for {p} columns"
            )
        object.__setattr__(self, "values", v)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column_name(self, j: int) -> str:
        return self.labels[j] if self.labels is not None else str(j)


@dataclass(frozen=True, eq=False)
class CorrMatrix:
    """A p x p symmetric correlation estimate.

    ``kind`` records which estimator produced it: "kendall-raw" for plain tau,
    "kendall-sine" for the sine-mapped latent-correlation estimate, "pearson"
    for the linear baseline. Squareness, finiteness and exact symmetry are
    :func:`linalg.check_symmetric`'s.
    """

    entries: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in CORR_KINDS:
            raise InvalidInputError(f"unknown correlation kind {self.kind!r}")
        e = check_symmetric(self.entries)
        off = e[~np.eye(e.shape[0], dtype=bool)]
        if off.size and (np.min(off) < -1.0 or np.max(off) > 1.0):
            raise InvalidInputError("off-diagonal correlations must lie in [-1, 1]")
        if not np.all(np.diag(e) == 1.0):
            raise InvalidInputError("diagonal entries must equal 1")
        object.__setattr__(self, "entries", e)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class JackknifeVarMatrix:
    """Pairwise leave-one-out variance estimates; diagonal fixed at 0."""

    entries: np.ndarray

    def __post_init__(self):
        e = check_symmetric(self.entries)
        if np.any(e < 0):
            raise InvalidInputError("variance estimates must be nonnegative")
        object.__setattr__(self, "entries", e)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def as_data_matrix(data) -> DataMatrix:
    """Accept either a DataMatrix or a raw 2-D array."""
    if isinstance(data, DataMatrix):
        return data
    return DataMatrix(np.asarray(data, dtype=np.float64))


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.shape != yv.shape:
        raise InvalidInputError("x and y must have equal length")
    if xv.size < 2:
        raise InvalidInputError("need at least 2 observations")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise InvalidInputError("inputs contain non-finite values")
    return xv, yv


def kendall_tau_naive(x, y) -> float:
    """Kendall's tau by direct evaluation of all observation pairs.

    Serves as the quadratic-time reference implementation; tied pairs
    contribute zero and the denominator is n(n-1)/2.
    """
    xv, yv = _check_pair(x, y)
    n = xv.size
    sx = np.sign(xv[:, None] - xv[None, :])
    sy = np.sign(yv[:, None] - yv[None, :])
    total = float(np.sum(sx * sy))  # = 2 * sum over unordered pairs, exact
    return total / (n * (n - 1))


def _count_tied_pairs(sorted_vals: np.ndarray) -> int:
    """Number of unordered tied pairs in an already-sorted 1-D array."""
    if sorted_vals.size < 2:
        return 0
    change = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change + 1, [sorted_vals.size]))
    runs = ends - starts
    return int(np.sum(runs * (runs - 1)) // 2)


def _inversions(ranks: np.ndarray) -> int:
    """Strict inversions (i < j with ranks[i] > ranks[j]) via a Fenwick tree."""
    size = int(ranks.max()) + 2 if ranks.size else 1
    tree = [0] * size
    inv = 0
    seen = 0
    for r in ranks:
        # count previously inserted values <= r
        i = int(r) + 1
        le = 0
        while i > 0:
            le += tree[i - 1]
            i -= i & (-i)
        inv += seen - le
        # insert r
        i = int(r) + 1
        while i <= size - 1:
            tree[i - 1] += 1
            i += i & (-i)
        seen += 1
    return inv


def kendall_tau_fast(x, y) -> float:
    """Kendall's tau in O(n log n) by sorting and inversion counting.

    Agrees with :func:`kendall_tau_naive` exactly: both reduce to the same
    integer numerator over the fixed denominator n(n-1)/2.
    """
    xv, yv = _check_pair(x, y)
    n = xv.size
    order = np.lexsort((yv, xv))
    xs = xv[order]
    ys = yv[order]

    n0 = n * (n - 1) // 2
    ties_x = _count_tied_pairs(xs)
    ties_y = _count_tied_pairs(np.sort(yv))
    # joint ties: runs of identical (x, y); ys is sorted within each x-run
    pair_change = np.flatnonzero((xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]))
    starts = np.concatenate(([0], pair_change + 1))
    ends = np.concatenate((pair_change + 1, [n]))
    runs = ends - starts
    ties_xy = int(np.sum(runs * (runs - 1)) // 2)

    # Discordant pairs are exactly the strict inversions of y in x-order:
    # within x-ties y is ascending (lexsort), so those pairs never count.
    uniq = np.unique(ys)
    ranks = np.searchsorted(uniq, ys)
    discordant = _inversions(ranks)

    numerator = n0 - ties_x - ties_y + ties_xy - 2 * discordant
    return (2 * numerator) / (n * (n - 1))


# Cells of data ranked per block by _dense_ranks: the block's copy, sort
# indices and sorted copy then take 0.5 MB each, whatever the shape of the
# data (one unblocked sort raised a 1257 x 200 screen's peak RSS by 5 MB).
_RANK_BLOCK_CELLS = 1 << 16


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """p x n float32 dense ranks, one row per column of ``values``.

    Dense ranks keep every comparison (and every tie) of the column, and they
    are exact in float32 for n < 2^24, so their differences carry the same
    signs as the differences of the data. Each block of columns is ranked by
    one argsort of its contiguous transpose: a rank counts the value changes
    before its place in sorted order, so tied values share one rank whatever
    order the sort leaves them in.
    """
    n, p = values.shape
    ranks = np.empty((p, n), dtype=np.float32)
    width = max(1, _RANK_BLOCK_CELLS // n)
    for lo in range(0, p, width):
        cols = np.ascontiguousarray(values[:, lo : lo + width].T)
        order = np.argsort(cols, axis=1)
        ordered = np.take_along_axis(cols, order, axis=1)
        steps = np.zeros(cols.shape, dtype=np.float32)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
        np.cumsum(steps, axis=1, out=steps)
        np.put_along_axis(ranks[lo : lo + width], order, steps, axis=1)
    return ranks


# Rows of the tau-only pass whose sign blocks share one matrix product: at
# n ~ 100 one small product per row is mostly call overhead, while blocks of
# 8 rows keep each thread's buffer at p x 8n float32 cells.
_SIGN_BLOCK_ROWS = 8
# A block product's entry sums one term in {-1, 0, 1} per stacked sign row,
# so it is an exact float32 integer while the block has fewer rows than this.
_EXACT_WIDTH = 1 << 24


def _sign_rows(ranks: np.ndarray, rows: range,
               second: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The sums of :func:`_sign_moments` over the observations in ``rows`` of
    the n x p ``ranks``, with a buffer of their own (s1 not yet doubled when
    ``second`` is off).

    Without ``second``, the sign blocks A_i^T of up to ``_SIGN_BLOCK_ROWS``
    observations are stacked, observation i with its n - i - 1 later rows,
    into one block B of w < 2^24 rows, and B^T B is the sum of their R_i. The
    jackknife needs each R_i on its own, so with ``second`` a block holds one
    observation.
    """
    n, p = ranks.shape
    step = 1 if second else max(1, min(_SIGN_BLOCK_ROWS, (_EXACT_WIDTH - 1) // n))
    buf = np.empty(n * step * p, dtype=np.float32)
    s1 = np.zeros((p, p))
    s2 = np.zeros((p, p)) if second else None
    for b in range(0, len(rows), step):
        block = rows[b : b + step]
        los = [0 if second else i + 1 for i in block]
        width = n * len(los) - sum(los)
        a = buf[: width * p].reshape(width, p)
        end = 0
        for i, lo in zip(block, los):
            start, end = end, end + n - lo
            np.subtract(ranks[lo:], ranks[i], out=a[start:end])
        np.clip(a, -1.0, 1.0, out=a)  # = sign(a): rank differences are integers
        r = (a.T @ a).astype(np.float64)
        s1 += r
        if second:
            r *= r
            s2 += r
    return s1, s2


def _sign_moments(values: np.ndarray, second: bool,
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray | None]:
    """Sign-product moments over the observations, in blocks of rows.

    For observation i let A_i = sign(cols - col_i) (p x n) and R_i = A_i A_i^T.
    Returns s1 = sum_i R_i, the tau numerator of every column pair, and, when
    ``second`` is set, s2 = sum_i R_i**2 (elementwise), the leave-one-out
    second moment of the jackknife. Every R_i and partial sum is an exact
    integer: R_i and the tau-only block products (fewer than 2^24 sign rows
    each) in float32 while n < 2^24, s2 in float64 while n (n-1)^2 < 2^53.
    Without ``second``, row i only meets the rows after it and s1 doubles the
    half sum, which is the same integer for half the work; the rows of up to
    ``_SIGN_BLOCK_ROWS`` observations take one product (see
    :func:`_sign_rows`). Each thread holds one float32 buffer of p x 8n cells
    for the tau-only pass, of p x n for the jackknife.

    The rows are dealt to k = min(threads, n) parts, row i to part i mod k
    (interleaved, so the shrinking tau-only rows balance). The calling thread
    sums part 0 while k - 1 workers sum the rest; the matrix products release
    the GIL. The exact partials are added in part order, so the result is the
    same for every k.
    """
    n = values.shape[0]
    if n >= 1 << 24 or (second and n * (n - 1) ** 2 >= 1 << 53):
        raise InvalidInputError(
            f"n={n} is past the exact range of the sign kernel "
            "(n < 2^24 for tau, n(n-1)^2 < 2^53 for the jackknife)")
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    # n x p, so each observation's sign rows fill one contiguous slice of a
    # block (a p x n layout made strided writes: 14-24% slower tau-only passes
    # at 1257 x 200)
    ranks = np.ascontiguousarray(_dense_ranks(values).T)
    k = min(threads, n)
    parts = [range(t, n, k) for t in range(k)]
    with ThreadPoolExecutor(max_workers=max(k - 1, 1)) as pool:
        futures = [pool.submit(_sign_rows, ranks, rows, second) for rows in parts[1:]]
        s1, s2 = _sign_rows(ranks, parts[0], second)
        for future in futures:
            f1, f2 = future.result()
            s1 += f1
            if second:
                s2 += f2
    if not second:
        s1 *= 2.0
    return s1, s2


def _tau_from_numerator(total: np.ndarray, n: int) -> CorrMatrix:
    tau = total / (n * (n - 1))
    np.fill_diagonal(tau, 1.0)
    return CorrMatrix(tau, "kendall-raw")


def kendall_matrix(data, threads: int = 1) -> CorrMatrix:
    """Pairwise Kendall's tau matrix (kind "kendall-raw", unit diagonal).

    One tau-only pass of the sign kernel, its rows split over ``threads``
    and taken 8 observations a product: O(p^2 n^2) time, a float32 buffer
    of p x 8n cells per thread, and an exact integer numerator for every
    pair while n < 2^24, so the result does not depend on ``threads``.
    """
    dm = as_data_matrix(data)
    s1 = _sign_moments(dm.values, second=False, threads=threads)[0]
    return _tau_from_numerator(s1, dm.n)


def sine_transform(tau: CorrMatrix) -> CorrMatrix:
    """Map a raw tau matrix to the latent-correlation scale sin(pi/2 * tau)."""
    if not isinstance(tau, CorrMatrix) or tau.kind != "kendall-raw":
        raise InvalidInputError("sine_transform expects a kendall-raw CorrMatrix")
    out = np.sin((np.pi / 2.0) * tau.entries)
    np.fill_diagonal(out, 1.0)
    return CorrMatrix(out, "kendall-sine")


def pearson_matrix(data) -> CorrMatrix:
    """Sample Pearson correlation matrix.

    Columns are centered and scaled to unit variance (divisor n) first, so the
    result is a correlation matrix even for unstandardized input.
    """
    dm = as_data_matrix(data)
    v = dm.values
    n = dm.n
    centered = v - v.mean(axis=0)
    sd = np.sqrt(np.mean(centered**2, axis=0))
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        j = int(zero[0])
        raise DegenerateColumnError(dm.column_name(j))
    z = centered / sd
    corr = (z.T @ z) / n
    corr = (corr + corr.T) / 2.0
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrMatrix(corr, "pearson")


def jackknife_variance(data, j: int, jp: int) -> float:
    """Leave-one-out variance estimate for the tau statistic of columns j, jp.

    Direct evaluation: for each held-out observation i', average the sign
    products against all others, then take the scaled squared spread of those
    leave-one-out means around tau.
    """
    dm = as_data_matrix(data)
    n = dm.n
    if n < 3:
        raise InvalidInputError("jackknife variance needs n >= 3")
    if j == jp:
        raise InvalidInputError("column indices must differ")
    x = dm.values[:, j]
    y = dm.values[:, jp]
    g = np.sign(x[:, None] - x[None, :]) * np.sign(y[:, None] - y[None, :])
    colsums = g.sum(axis=0)  # sum over i != i' (diagonal is 0)
    tau = float(g.sum()) / (n * (n - 1))
    loo = colsums / (n - 1)
    return 4.0 * (n - 1) / (n - 2) ** 2 * float(np.sum((loo - tau) ** 2))


def jackknife_matrix(data, threads: int = 1) -> tuple[CorrMatrix, JackknifeVarMatrix]:
    """The raw tau matrix and the leave-one-out tau variance estimates of
    every column pair, from one sign pass.

    One O(p^2 n^2) pass of the sign kernel, one observation a product and a
    float32 buffer of p x n cells per thread, its rows split over
    ``threads``, yields both moments: s1 gives tau, bit-identical to
    :func:`kendall_matrix`, and s1 with s2 give omega^2. All intermediate
    sums are exact integers, so nothing depends on ``threads``.
    """
    dm = as_data_matrix(data)
    n = dm.n
    if n < 3:
        raise InvalidInputError("jackknife variance needs n >= 3")
    s1, s2 = _sign_moments(dm.values, second=True, threads=threads)
    tau = _tau_from_numerator(s1, n)
    t = tau.entries  # s1 / (n(n-1)) off the diagonal; omega^2's diagonal is zeroed below
    spread = s2 / (n - 1) ** 2 - 2.0 * t * s1 / (n - 1) + n * t * t
    omega2 = 4.0 * (n - 1) / (n - 2) ** 2 * spread
    omega2 = np.maximum(omega2, 0.0)
    np.fill_diagonal(omega2, 0.0)
    return tau, JackknifeVarMatrix(omega2)
