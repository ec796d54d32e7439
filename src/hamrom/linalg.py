"""Dense linear-algebra kernels used throughout the package.

Thin SVD of dense snapshot matrices and reusable LU factorizations of dense
arrays (the reduced models; the full-order stencils step in Fourier modes,
see :mod:`hamrom.avf`).  The LU is the package's only use of SciPy, which
is imported by :func:`bind_lapack`, at the latest with the first
:class:`LuFactorization`.  :func:`one_blas_thread` pins the loaded OpenBLAS
libraries to one thread each while workers call into them side by side.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "PIVOT_TOL",
    "LuFactorization",
    "NumericalError",
    "RankError",
    "SingularMatrixError",
    "as_dense",
    "bind_lapack",
    "one_blas_thread",
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


# relative singularity threshold of a factorization: a pivot at or below
# PIVOT_TOL times the largest entry of the matrix is rejected
PIVOT_TOL = 1e-14

# SciPy's LAPACK routines themselves, bound by bind_lapack: the scipy.linalg
# wrappers cost more than the work at reduced sizes (r <= 60), and NumPy's
# solve cannot report the pivots that the singularity check reads
_getrf = _getrs = None


def bind_lapack() -> None:
    """Import SciPy's LAPACK and bind the routines of :class:`LuFactorization`,
    once per process.  The first factorization does it; a caller that times
    its reduced runs does it first, so that no run's time holds the import."""
    global _getrf, _getrs
    if _getrf is None:
        from scipy.linalg import lapack
        _getrf, _getrs = lapack.dgetrf, lapack.dgetrs


# the symbol names of OpenBLAS's thread-count calls across its builds: the
# scipy_ prefix and the 64_ suffix of the ILP64 wheels, or neither
_OPENBLAS_NAMES = [(f"{prefix}openblas_get_num_threads{suffix}",
                    f"{prefix}openblas_set_num_threads{suffix}")
                   for prefix in ("scipy_", "") for suffix in ("64_", "")]


def _loaded_openblas() -> list[tuple]:
    """The ``(get, set)`` thread-count calls of every OpenBLAS that NumPy
    or SciPy has loaded from its wheel's ``<package>.libs`` directory.  A
    library not loaded yet is left unloaded (``RTLD_NOLOAD``); a platform
    without that flag, or a BLAS without these calls, gives none."""
    nonload = getattr(os, "RTLD_NOLOAD", None)
    if nonload is None:
        return []
    found = []
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path), mode=nonload)
            except OSError:  # not loaded
                continue
            for get_name, set_name in _OPENBLAS_NAMES:
                get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    found.append((get, set_))
                    break
    return found


@contextmanager
def one_blas_thread() -> Iterator[int]:
    """Pin every loaded OpenBLAS to one thread inside the block, and give the
    number of workers that may call into it side by side: one per usable
    CPU, or one when no OpenBLAS could be pinned.  Each library's previous
    thread count is restored on exit, also when the block raises.

    The experiments' snapshot SVDs and QRs are faster on one OpenBLAS thread
    than on two (2 cores, min of 7: a 2000x201 SVD 31-32 against 51 ms, a
    2000x201 QR 20-27 against 45-53 ms, a 202x202 SVD 6-9 against 9-10 ms;
    docs/decisions.md), so a second core does more as a second worker than
    as a second BLAS thread.
    """
    pins = _loaded_openblas()
    previous = [get() for get, _ in pins]
    try:
        for _, set_ in pins:
            set_(1)
        yield len(os.sched_getaffinity(0)) if pins else 1
    finally:
        for (_, set_), count in zip(pins, previous):
            set_(count)


class LuFactorization:
    """Reusable partial-pivoting LU factorization of a dense square matrix.

    Factor once, then call :meth:`solve` for any number of right-hand sides;
    constant-coefficient time stepping reuses one factorization for thousands
    of solves.  ``A`` is factored by LAPACK (``getrf``), which rejects a
    pivot at or below :data:`PIVOT_TOL` of the largest entry of ``A`` (so an
    all-zero matrix is singular too).  :meth:`factor` replaces the factors
    in place, for a Newton iteration that refactors its Jacobian; a
    rejected matrix leaves the previous factors in place.
    """

    def __init__(self, A):
        bind_lapack()
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
            raise ValueError(f"A must be square and non-empty, got shape {A.shape}")
        self.factor(A)

    def factor(self, A: np.ndarray) -> None:
        """Factor ``A``, replacing any previous factors.

        ``A`` must be a non-empty square float array: unlike the
        constructor, this converts and checks nothing but the entries, so
        that a Newton iteration refactors without per-call validation.  The
        one scan of ``|A|`` serves both checks: a non-finite entry raises
        ValueError and a pivot at or below :data:`PIVOT_TOL` of the largest
        entry :class:`SingularMatrixError`; either keeps the previous factors.
        """
        scale = np.maximum.reduce(np.abs(A), axis=None)
        if not math.isfinite(scale):  # the maximum propagates NaN and inf
            raise ValueError("A contains non-finite entries")
        lu, piv, _ = _getrf(A)
        if np.minimum.reduce(np.abs(lu.diagonal())) <= PIVOT_TOL * scale:
            raise SingularMatrixError(f"pivot below {PIVOT_TOL:g} of the matrix scale")
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
        return _getrs(self._lu, self._piv, b)[0]
