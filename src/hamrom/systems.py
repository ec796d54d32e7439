"""Semi-discrete Hamiltonian systems on uniform periodic 1D grids.

Builds the finite-difference operators and benchmark initial data for the
linear wave and KdV test systems, packaged as polynomial-gradient flows

    du/dt = S (g0 + G1 u + G2(u, u)),

the single representation shared by full-order and reduced-order models.  It
carries the energy too, as a polynomial of the same terms.  Full-order
operators are sparse periodic stencils (``scipy.sparse`` CSR arrays); reduced
operators are dense r x r arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse

__all__ = [
    "DiagonalQuadratic",
    "EnergyPolynomial",
    "Grid1D",
    "PolyGradFlow",
    "ProjectedQuadratic",
    "TensorQuadratic",
    "build_kdv_fom",
    "build_wave_fom",
    "central_diff_matrix",
    "eval_energy",
    "eval_grad",
    "kdv_initial",
    "laplacian_matrix",
    "wave_initial",
]

STRUCTURE_TAGS = ("skew", "negative-semidefinite", "none")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid: ``n`` nodes covering ``length`` units.

    Nodes sit at ``origin + dx, ..., origin + length``; the left endpoint is
    identified with the right one by periodicity.
    """

    n: int
    length: float
    origin: float = 0.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("grid needs at least 3 points for the stencils")
        if not self.length > 0:
            raise ValueError("grid length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def points(self) -> np.ndarray:
        return self.origin + self.dx * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class DiagonalQuadratic:
    """Entrywise quadratic gradient term: ``G2(u, v)_i = coeff * u_i * v_i``."""

    coeff: float

    def eval(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.coeff * u * v

    def jacobian(self, a: np.ndarray) -> np.ndarray:
        """Matrix of ``v -> G2(a, v)``: ``diag(coeff * a)``, dense."""
        return np.diag(self.coeff * a)


@dataclass(frozen=True)
class TensorQuadratic:
    """Dense quadratic term ``G2(a, b)_p = sum_ij T[p, i, j] a_i b_j``.

    The tensor must be symmetric in its last two indices; full symmetry in all
    three is not required (plain Galerkin reductions break it).  ``a`` and
    ``b`` are vectors or (r, m) blocks of column vectors.
    """

    tensor: np.ndarray

    def __post_init__(self):
        T = self.tensor
        if T.ndim != 3 or T.shape[1] != T.shape[2] or T.shape[0] != T.shape[1]:
            raise ValueError(f"tensor must be (r, r, r), got {T.shape}")
        scale = np.abs(T).max()
        if scale > 0 and np.abs(T - T.transpose(0, 2, 1)).max() > 1e-12 * scale:
            raise ValueError("tensor is not symmetric in its last two indices")

    def eval(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        tb = self.tensor @ b
        return tb @ a if a.ndim == 1 else np.einsum("pik,ik->pk", tb, a)

    def jacobian(self, a: np.ndarray) -> np.ndarray:
        """Matrix of ``v -> G2(a, v)``: ``T a``, by the (i, j) symmetry."""
        return self.tensor @ a


@dataclass(frozen=True)
class ProjectedQuadratic:
    """On-the-fly reduced quadratic term: ``left @ (coeff * (B a) * (B b))``.

    Reference for the precomputed reduced tensor: same contract as
    :class:`TensorQuadratic` without the r^3 storage, at the cost of two
    basis applications per evaluation.
    """

    left: np.ndarray
    basis: np.ndarray
    coeff: float

    def eval(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.left @ (self.coeff * (self.basis @ a) * (self.basis @ b))

    def jacobian(self, a: np.ndarray) -> np.ndarray:
        """Matrix of ``v -> G2(a, v)``: ``left diag(coeff B a) B``."""
        return self.left @ ((self.coeff * (self.basis @ a))[:, None] * self.basis)


QuadraticTerm = Union[DiagonalQuadratic, TensorQuadratic, ProjectedQuadratic]
Operator = Union[np.ndarray, scipy.sparse.sparray]


@dataclass(frozen=True)
class EnergyPolynomial:
    """Gradient terms ``g0 + G1 u + G2(u, u)`` of an energy that is not the
    gradient of the flow it is attached to (plain Galerkin reductions)."""

    linear: Operator
    constant: Optional[np.ndarray] = None
    quadratic: Optional[QuadraticTerm] = None


@dataclass(frozen=True)
class PolyGradFlow:
    """Finite-dimensional flow ``du/dt = S (g0 + G1 u + G2(u, u))``.

    ``structure`` is S, ``linear`` the symmetric operator G1, ``constant`` the
    optional g0 and ``quadratic`` the optional degree-2 term.  S and G1 may
    be dense arrays or ``scipy.sparse`` arrays; only ``@``, ``.T`` and
    ``abs`` are used on them.

    The energy is the polynomial of these terms (or of ``energy_terms``)
    with ``energy_weight`` and ``energy_shift``, see :func:`eval_energy`.  A
    reduced model's energy is its reduced polynomial, not the energy of the
    decoded state: the two agree up to rounding, but nothing is decoded.

    ``structure_tag`` records what is known about S: ``"skew"`` flows conserve
    the energy under AVF stepping, ``"negative-semidefinite"`` flows dissipate
    it, and ``"none"`` drops the gradient-flow interpretation entirely (plain
    Galerkin reduced systems), in which case ``linear`` need not be symmetric.
    """

    structure: Operator
    linear: Operator
    constant: Optional[np.ndarray] = None
    quadratic: Optional[QuadraticTerm] = None
    structure_tag: str = "none"
    energy_weight: float = 1.0
    energy_shift: float = 0.0
    energy_terms: Optional[EnergyPolynomial] = None

    def __post_init__(self):
        S, G1 = self.structure, self.linear
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"structure operator must be square, got {S.shape}")
        n = S.shape[0]
        if G1.shape != (n, n):
            raise ValueError(f"linear operator must be {(n, n)}, got {G1.shape}")
        if self.constant is not None and self.constant.shape != (n,):
            raise ValueError("constant term has the wrong length")
        if self.structure_tag not in STRUCTURE_TAGS:
            raise ValueError(f"unknown structure_tag {self.structure_tag!r}")
        s_scale = abs(S).max()
        if self.structure_tag == "skew" and s_scale > 0:
            if abs(S + S.T).max() > 1e-13 * s_scale:
                raise ValueError("structure operator is not skew-symmetric")
        if self.structure_tag != "none":
            g_scale = abs(G1).max()
            if g_scale > 0 and abs(G1 - G1.T).max() > 1e-13 * g_scale:
                raise ValueError("linear gradient operator is not symmetric")
        if isinstance(self.quadratic, TensorQuadratic):
            if self.quadratic.tensor.shape[0] != n:
                raise ValueError("quadratic tensor dimension mismatch")
        if self.energy_terms is not None and self.energy_terms.linear.shape != (n, n):
            raise ValueError("energy polynomial dimension mismatch")

    @property
    def dim(self) -> int:
        return self.structure.shape[0]


def _as_state(u, dim: int, block: bool = False) -> np.ndarray:
    """Validated float state of shape (dim,), or (dim, m) columns if ``block``."""
    out = np.asarray(u, dtype=float)
    if out.shape != (dim,) and not (block and out.ndim == 2 and out.shape[0] == dim):
        raise ValueError(f"state must have shape ({dim},), got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("state contains non-finite entries")
    return out


def eval_grad(flow: PolyGradFlow, u) -> np.ndarray:
    """Gradient ``g0 + G1 u + G2(u, u)`` of the flow's generating functional.

    A state of shape (dim,) gives its gradient; a (dim, m) block of states
    gives the m gradients of its columns.
    """
    return _grad(flow, _as_state(u, flow.dim, block=True))


def _grad(flow: PolyGradFlow, u: np.ndarray) -> np.ndarray:
    """:func:`eval_grad` without the state validation (non-finite states pass)."""
    g = flow.linear @ u
    if flow.constant is not None:
        g = g + (flow.constant if u.ndim == 1 else flow.constant[:, None])
    if flow.quadratic is not None:
        g = g + flow.quadratic.eval(u, u)
    return g


def eval_energy(flow: PolyGradFlow, u):
    """Energy ``weight * (g0.u + u.G1 u / 2 + u.G2(u, u) / 3) + shift`` at ``u``.

    The terms are the flow's own gradient terms, or ``flow.energy_terms``
    when set.  On a skew (negative semidefinite) flow with symmetric terms
    this is the functional AVF stepping conserves (dissipates).  A state of
    shape (dim,) gives a float; a (dim, m) block of states gives the m
    energies of its columns.
    """
    u = _as_state(u, flow.dim, block=True)
    U = u.reshape(flow.dim, -1)
    terms = flow if flow.energy_terms is None else flow.energy_terms
    g = 0.5 * (terms.linear @ U)
    if terms.constant is not None:
        g = g + terms.constant[:, None]
    if terms.quadratic is not None:
        g = g + terms.quadratic.eval(U, U) / 3.0
    h = flow.energy_weight * np.einsum("ij,ij->j", U, g) + flow.energy_shift
    return float(h[0]) if u.ndim == 1 else h


def _periodic_stencil(n: int, weights: dict[int, float]) -> scipy.sparse.csr_array:
    """Sparse n x n periodic stencil: row i holds ``weights[k]`` in column
    ``(i + k) mod n``.  The offsets must stay distinct modulo n."""
    i = np.arange(n)
    rows = np.tile(i, len(weights))
    cols = np.concatenate([(i + k) % n for k in weights])
    vals = np.repeat(np.array(list(weights.values()), dtype=float), n)
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(n, n))


def central_diff_matrix(grid: Grid1D) -> scipy.sparse.csr_array:
    """Periodic central first-derivative matrix (entries ±1/(2 dx)), exactly
    skew-symmetric with zero row sums."""
    h = grid.dx
    return _periodic_stencil(grid.n, {1: 1.0 / (2.0 * h), -1: -1.0 / (2.0 * h)})


def laplacian_matrix(grid: Grid1D, scale: float = 1.0) -> scipy.sparse.csr_array:
    """Periodic three-point second-derivative matrix times ``scale``.

    Exactly symmetric, negative semidefinite for positive ``scale``, with
    zero row sums (constants are annihilated).
    """
    h = grid.dx
    off = scale / h**2
    return _periodic_stencil(grid.n, {0: -2.0 * scale / h**2, 1: off, -1: off})


def build_wave_fom(c: float, grid: Grid1D) -> PolyGradFlow:
    """Linear wave benchmark ``u_tt = c^2 u_xx`` as a canonical-structure flow.

    The state stacks the two fields: entries ``[:n]`` are the displacement u,
    entries ``[n:]`` the velocity v.  The energy is the quadratic form
    ``dx * x.G1 x / 2`` of the stacked gradient operator, which equals the
    dx-weighted discrete integral of ``v^2/2 + c^2 u_x^2 / 2`` with forward
    differences for ``u_x``.
    """
    if c <= 0:
        raise ValueError("wave speed must be positive")
    n = grid.n
    eye = scipy.sparse.eye_array(n, format="csr")
    S = scipy.sparse.block_array([[None, eye], [-eye, None]], format="csr")
    G1 = scipy.sparse.block_diag((-laplacian_matrix(grid, c * c), eye), format="csr")
    return PolyGradFlow(structure=S, linear=G1, structure_tag="skew", energy_weight=grid.dx)


def build_kdv_fom(alpha: float, rho: float, nu: float, grid: Grid1D) -> PolyGradFlow:
    """KdV benchmark ``u_t = alpha u u_x + rho u_x + nu u_xxx`` in flow form.

    The structure operator is the central first-derivative matrix; the
    gradient splits into ``G1 = rho I + nu B`` (B the periodic Laplacian) and
    the entrywise quadratic ``(alpha/2) u^2``.  The energy is the flow's
    polynomial with weight dx, which equals the dx-weighted sum of
    ``alpha/6 u^3 + rho/2 u^2 - nu/2 (forward-difference u)^2``.
    """
    n = grid.n
    S = central_diff_matrix(grid)
    G1 = rho * scipy.sparse.eye_array(n, format="csr") + nu * laplacian_matrix(grid)
    quad = DiagonalQuadratic(alpha / 2.0) if alpha != 0.0 else None
    return PolyGradFlow(
        structure=S, linear=G1, quadratic=quad, structure_tag="skew", energy_weight=grid.dx
    )


def _cubic_bump(s: np.ndarray) -> np.ndarray:
    """Compactly supported cubic spline bump: 1 at s=0, zero for s >= 2."""
    s = np.asarray(s, dtype=float)
    return np.where(
        s <= 1.0,
        1.0 - 1.5 * s**2 + 0.75 * s**3,
        np.where(s <= 2.0, 0.25 * (2.0 - s) ** 3, 0.0),
    )


def wave_initial(grid: Grid1D) -> np.ndarray:
    """Benchmark wave start state: cubic bump at midspan, zero velocity.

    The grid must cover [0, 1]; the bump is ``h(10 |x - 1/2|)`` with the cubic
    spline profile ``h``.
    """
    if abs(grid.origin) > 1e-12 or abs(grid.length - 1.0) > 1e-12:
        raise ValueError("wave benchmark initial data expects the unit interval")
    u0 = _cubic_bump(10.0 * np.abs(grid.points - 0.5))
    return np.concatenate([u0, np.zeros(grid.n)])


def kdv_initial(grid: Grid1D) -> np.ndarray:
    """Benchmark KdV start state: the soliton profile ``sech^2(x / sqrt 2)``."""
    x = grid.points
    return 1.0 / np.cosh(x / np.sqrt(2.0)) ** 2
