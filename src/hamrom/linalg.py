"""Dense and sparse linear-algebra kernels used throughout the package.

Thin SVD of dense snapshot matrices and reusable LU factorizations of either
a dense array (reduced models) or a ``scipy.sparse`` array (the full-order
stencil operators).
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "LuFactorization",
    "NumericalError",
    "RankError",
    "SingularMatrixError",
    "as_dense",
    "thin_svd_snapshots",
]


class NumericalError(RuntimeError):
    """A solver failed to produce a usable result."""


class RankError(NumericalError, ValueError):
    """More basis vectors were requested than a snapshot set's attained rank.

    Also a ``ValueError``: the request exceeds what the data can give.
    """


class SingularMatrixError(NumericalError):
    """A pivot fell below the singularity threshold during factorization."""


def as_dense(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite float64 2-D array."""
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def thin_svd_snapshots(Y, max_rank: int | None = None, rank_tol: float = 1e-12):
    """Thin SVD of a tall snapshot matrix (LAPACK ``gesdd``).

    Works on ``Y`` itself rather than on the Gram matrix ``Y.T @ Y``, whose
    squared condition number would lose every singular value below about
    ``1e-8 * sigma_1``.  NumPy's binding is used, not SciPy's: inside the
    Table 2 and sweep runs the SciPy call took about twice as long on 2
    cores, likely because SciPy's own OpenBLAS threads compete with the
    NumPy BLAS threads the rest of the pipeline uses.

    Parameters
    ----------
    Y : (n, m) array
        Snapshot columns, typically with n >> m.
    max_rank : int, optional
        Maximum number of basis columns to return (default: full rank).
    rank_tol : float
        Relative cutoff; singular values below ``rank_tol * sigma_1`` are
        treated as numerically zero and dropped.

    Returns
    -------
    phi : (n, k) array
        Left singular vectors, ``k = min(max_rank, numerical rank)``, with
        ``max |phi.T phi - I| <= 1e-12``.
    sigma : (d,) array
        The full retained spectrum (all ``d`` numerical-rank singular
        values), not just the first ``k``.
    """
    Y = as_dense(Y, "snapshot matrix")
    n, m = Y.shape
    limit = min(n, m)
    if max_rank is None:
        max_rank = limit
    if not 1 <= max_rank <= limit:
        raise ValueError(f"max_rank must be in [1, {limit}], got {max_rank}")
    if rank_tol < 0:
        raise ValueError("rank_tol must be non-negative")
    if not np.any(Y):
        warnings.warn("all-zero snapshot matrix: returning an empty basis")
        return np.zeros((n, 0)), np.zeros(0)
    try:
        U, sigma, _ = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    keep = (sigma > 0.0) & (sigma >= rank_tol * sigma[0])
    d = int(np.count_nonzero(keep))  # descending spectrum: keep is a prefix
    return U[:, : min(max_rank, d)], sigma[:d]


class LuFactorization:
    """Reusable partial-pivoting LU factorization of a square matrix.

    Factor once, then call :meth:`solve` for any number of right-hand sides;
    constant-coefficient time stepping reuses one factorization for thousands
    of solves.  A dense ``A`` is factored by LAPACK (``getrf``), a
    ``scipy.sparse`` one by SuperLU (``splu``, fill-reducing column order) in
    its own storage.  Both reject a pivot at or below ``1e-14`` of the
    largest entry of ``A`` (so an all-zero matrix is singular too).
    :meth:`factor` replaces the factors in place, for a Newton iteration
    that factors a new Jacobian every iteration; a rejected matrix leaves the
    previous factors in place.
    """

    def __init__(self, A):
        self.factor(A)

    def factor(self, A) -> None:
        """Factor ``A``, replacing any previous factors; raises
        :class:`SingularMatrixError` on a small pivot and then keeps the
        previous factors."""
        sparse = scipy.sparse.issparse(A)
        A = scipy.sparse.csc_array(A, dtype=float) if sparse else np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
            raise ValueError(f"A must be square and non-empty, got shape {A.shape}")
        scale = abs(A).max()
        if not np.isfinite(scale):  # the maximum propagates NaN and inf
            raise ValueError("A contains non-finite entries")
        if sparse:
            # imported here: the sparse solver package adds about 20 ms to
            # start-up (2 cores), and runs that factor no sparse matrix (a
            # sweep on a cached trajectory) never use it
            from scipy.sparse.linalg import splu

            try:
                lu = splu(A)
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise SingularMatrixError(str(exc)) from exc
            pivots = lu.U.diagonal()
            solve = lu.solve
        else:
            # the LAPACK routines themselves: the scipy.linalg wrappers cost
            # more than the work at reduced sizes (r <= 60)
            lu, piv, _ = scipy.linalg.lapack.dgetrf(A)
            pivots = lu.diagonal()
            solve = partial(_getrs, lu, piv)
        if np.abs(pivots).min() <= 1e-14 * scale:
            raise SingularMatrixError("pivot below 1e-14 of the matrix scale")
        self._solve = solve
        self.shape = A.shape

    def solve(self, rhs) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or a matrix of stacked columns.

        Skips any finiteness scan: callers on the time-stepping hot path
        handle divergence themselves.
        """
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.shape[0]}")
        return self._solve(b)


def _getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.lapack.dgetrs(lu, piv, b)[0]
