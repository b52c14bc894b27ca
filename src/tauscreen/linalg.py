"""Dense symmetric linear-algebra kernels used by the generators and diagnostics.

All functions are pure, deterministic, and operate on square symmetric
``numpy`` arrays in float64. Positive definiteness is always decided by a
Cholesky factorization; a pivot at or below ``1e-12 * max(diag)`` counts as
failure.

Only :func:`invert_pd` needs scipy (its ``cho_solve`` fixes the simulated
bits). It imports ``scipy.linalg`` on its first call, so a process that never
inverts (``screen``, ``ingest-prices``, ``diagnose`` from files) loads no
scipy module and does not pay its import, some tenths of a second and
~30 MB of RSS.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import sys

import numpy as np

from .errors import InvalidInputError, SingularMatrixError

# Relative pivot floor below which a Cholesky factorization is treated as
# a positive-definiteness failure.
PD_PIVOT_RTOL = 1e-12

# numpy and scipy each bundle their own OpenBLAS (numpy's ILP64 build with a
# "64_" symbol suffix). Each row names an extension module linked against one
# of them, so a symbol lookup on that module's handle reaches that library,
# and the library's thread-count setter and getter. A library counts as
# loaded once its module's package (``numpy._core``, ``scipy.linalg``) is.
_OPENBLAS = (
    ("numpy", "numpy._core._multiarray_umath",
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy.linalg._fblas",
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _openblas_calls() -> dict[str, tuple | None]:
    """Setter and getter of each loaded bundled OpenBLAS, or None where this
    build has no such library (another BLAS, or another module layout). A
    library whose package is not imported yet has no key; nothing is
    imported here."""
    calls = {}
    for name, module, setter, getter in _OPENBLAS:
        if module.rpartition(".")[0] not in sys.modules:
            continue
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


def blas_threads() -> dict[str, int | str | None]:
    """Effective thread count of numpy's and of scipy's bundled OpenBLAS:
    ``"not loaded"`` for a library whose package is not imported yet, None
    for a library this build does not have."""
    calls = _openblas_calls()
    return {name: "not loaded" if name not in calls else None if calls[name] is None
            else calls[name][1]() for name, *_ in _OPENBLAS}


def pin_blas_threads() -> dict[str, int | str | None]:
    """Set each loaded bundled OpenBLAS (numpy's, and scipy's once
    ``scipy.linalg`` is imported) to one thread; imports nothing.

    The program owns its parallelism: the sign kernel splits its rows over
    its own threads and ``bench`` runs table-mode replicates in a pool, so
    BLAS threads would only contend with them, and spin on the small
    products. With one BLAS thread every product also sums in one fixed
    order, so outputs do not depend on ``OPENBLAS_NUM_THREADS``. scipy's
    library, if loaded later, takes numpy's count then (see
    :func:`invert_pd`). Returns :func:`blas_threads`.
    """
    for fns in _openblas_calls().values():
        if fns is not None:
            fns[0](1)
    return blas_threads()


@functools.cache
def _scipy_linalg():
    """``scipy.linalg``, imported on the first call, with its OpenBLAS set to
    numpy's current thread count: one under the CLI, which pins numpy's
    first, and the libraries' shared default for a library caller. Threads
    that call it first at once may each run it; each sets the same count."""
    import scipy.linalg

    calls = _openblas_calls()
    if calls.get("numpy") and calls.get("scipy"):
        calls["scipy"][0](calls["numpy"][1]())
    return scipy.linalg


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
    checks hold. The first call imports ``scipy.linalg`` for ``cho_solve``.
    """
    lower = cholesky_lower(m)
    inv = _scipy_linalg().cho_solve((lower, True), np.eye(lower.shape[0]))
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
