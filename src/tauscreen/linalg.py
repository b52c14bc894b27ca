"""Dense symmetric linear-algebra kernels used by the generators and diagnostics.

All functions are pure, deterministic, and operate on square symmetric
``numpy`` arrays in float64. Positive definiteness is always decided by a
Cholesky factorization; a pivot at or below ``1e-12 * max(diag)`` counts as
failure.
"""

from __future__ import annotations

import ctypes
import importlib

import numpy as np
from scipy.linalg import cho_solve

from .errors import InvalidInputError, SingularMatrixError

# Relative pivot floor below which a Cholesky factorization is treated as
# a positive-definiteness failure.
PD_PIVOT_RTOL = 1e-12

# numpy and scipy each bundle their own OpenBLAS (numpy's ILP64 build with a
# "64_" symbol suffix). Each row names an extension module linked against one
# of them, so a symbol lookup on that module's handle reaches that library,
# and the library's thread-count setter and getter.
_OPENBLAS = (
    ("numpy", "numpy._core._multiarray_umath",
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy.linalg._fblas",
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _openblas_calls() -> dict[str, tuple | None]:
    """Setter and getter of each bundled OpenBLAS, or None where this build
    has no such library (another BLAS, or another module layout)."""
    calls = {}
    for name, module, setter, getter in _OPENBLAS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            set_fn, get_fn = getattr(lib, setter), getattr(lib, getter)
        except (ImportError, OSError, AttributeError):
            calls[name] = None
            continue
        set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
        get_fn.argtypes, get_fn.restype = [], ctypes.c_int
        calls[name] = (set_fn, get_fn)
    return calls


def blas_threads() -> dict[str, int | None]:
    """Effective thread count of numpy's and of scipy's bundled OpenBLAS
    (None for a library this build does not have)."""
    return {name: None if fns is None else fns[1]()
            for name, fns in _openblas_calls().items()}


def pin_blas_threads() -> dict[str, int | None]:
    """Set numpy's and scipy's bundled OpenBLAS to one thread each.

    The program owns its parallelism: the sign kernel splits its rows over
    its own threads and ``bench`` runs table-mode replicates in a pool, so
    BLAS threads would only contend with them, and spin on the small
    products. With one BLAS thread every product also sums in one fixed
    order, so outputs do not depend on ``OPENBLAS_NUM_THREADS``. Returns
    :func:`blas_threads`.
    """
    for fns in _openblas_calls().values():
        if fns is not None:
            fns[0](1)
    return blas_threads()


def check_symmetric(m) -> np.ndarray:
    """Validate that ``m`` is a square, finite, exactly symmetric 2-D array.

    Returns the validated array as float64 (copying only if needed).
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInputError("matrix must have dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise InvalidInputError("matrix is not symmetric")
    return a


def eig_extremes(m) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    a = check_symmetric(m)
    w = np.linalg.eigvalsh(a)
    return float(w[0]), float(w[-1])


def cholesky_lower(m) -> np.ndarray:
    """Lower-triangular Cholesky factor L with L @ L.T == m.

    Raises SingularMatrixError if ``m`` is not positive definite, including
    the near-singular case where a pivot falls at or below
    ``PD_PIVOT_RTOL * max(diag(m))``.
    """
    a = check_symmetric(m)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
    pivots = np.diag(lower) ** 2
    if np.any(pivots <= PD_PIVOT_RTOL * float(np.max(np.diag(a)))):
        raise SingularMatrixError("matrix is numerically singular (tiny Cholesky pivot)")
    return lower


def invert_pd(m) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky.

    The result is explicitly symmetrized so that downstream exact-symmetry
    checks hold.
    """
    lower = cholesky_lower(m)
    inv = cho_solve((lower, True), np.eye(lower.shape[0]))
    return (inv + inv.T) / 2.0


def rescale_to_unit_diagonal(m) -> np.ndarray:
    """Two-sided diagonal rescaling D^{-1/2} m D^{-1/2} with D = diag(m).

    The output diagonal is set to exactly 1.
    """
    a = check_symmetric(m)
    d = np.diag(a)
    if np.any(d <= 0):
        raise InvalidInputError("all diagonal entries must be strictly positive")
    s = 1.0 / np.sqrt(d)
    out = a * np.outer(s, s)
    np.fill_diagonal(out, 1.0)
    return out
