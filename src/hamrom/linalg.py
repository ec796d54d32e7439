"""Dense linear-algebra kernels used throughout the package.

Thin SVD of dense snapshot matrices and reusable LU factorizations of dense
arrays (the reduced models; the full-order stencils step in Fourier modes,
see :mod:`hamrom.avf`).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

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


# relative cutoff of the numerical rank: singular values below
# RANK_TOL * sigma_1 are treated as zero
RANK_TOL = 1e-12


def thin_svd_snapshots(Y):
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

    Returns
    -------
    phi : (n, d) array
        Left singular vectors of the ``d`` singular values at or above
        :data:`RANK_TOL` times ``sigma_1`` (the numerical rank), with
        ``max |phi.T phi - I| <= 1e-12``; callers take the leading columns.
    sigma : (d,) array
        The retained spectrum.
    """
    Y = as_dense(Y, "snapshot matrix")
    if not np.any(Y):
        warnings.warn("all-zero snapshot matrix: returning an empty basis")
        return np.zeros((Y.shape[0], 0)), np.zeros(0)
    try:
        U, sigma, _ = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    keep = (sigma > 0.0) & (sigma >= RANK_TOL * sigma[0])
    d = int(np.count_nonzero(keep))  # descending spectrum: keep is a prefix
    return U[:, :d], sigma[:d]


class LuFactorization:
    """Reusable partial-pivoting LU factorization of a dense square matrix.

    Factor once, then call :meth:`solve` for any number of right-hand sides;
    constant-coefficient time stepping reuses one factorization for thousands
    of solves.  ``A`` is factored by LAPACK (``getrf``), which rejects a
    pivot at or below ``1e-14`` of the largest entry of ``A`` (so an
    all-zero matrix is singular too).  :meth:`factor` replaces the factors
    in place, for a Newton iteration that factors a new Jacobian every
    iteration; a rejected matrix leaves the previous factors in place.
    """

    def __init__(self, A):
        self.factor(A)

    def factor(self, A) -> None:
        """Factor ``A``, replacing any previous factors; raises
        :class:`SingularMatrixError` on a small pivot and then keeps the
        previous factors."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
            raise ValueError(f"A must be square and non-empty, got shape {A.shape}")
        scale = np.abs(A).max()
        if not np.isfinite(scale):  # the maximum propagates NaN and inf
            raise ValueError("A contains non-finite entries")
        # the LAPACK routines themselves: the scipy.linalg wrappers cost more
        # than the work at reduced sizes (r <= 60)
        lu, piv, _ = scipy.linalg.lapack.dgetrf(A)
        if np.abs(lu.diagonal()).min() <= 1e-14 * scale:
            raise SingularMatrixError("pivot below 1e-14 of the matrix scale")
        self._lu, self._piv = lu, piv
        self.shape = A.shape

    def solve(self, rhs) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or a matrix of stacked columns.

        Skips any finiteness scan: callers on the time-stepping hot path
        handle divergence themselves.
        """
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.shape[0]}")
        return scipy.linalg.lapack.dgetrs(self._lu, self._piv, b)[0]
