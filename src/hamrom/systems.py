"""Semi-discrete Hamiltonian systems on uniform periodic 1D grids.

Builds the finite-difference operators and benchmark initial data for the
linear wave and KdV test systems, packaged as polynomial-gradient flows

    du/dt = S (g0 + G1 u + G2(u, u)),

the single representation shared by full-order and reduced-order models.  It
carries the energy too, as a polynomial of the same terms.  Full-order
operators are block-circulant periodic stencils (:class:`PeriodicStencil`,
stored as the first column of each block); reduced operators are dense r x r
arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "DiagonalQuadratic",
    "EnergyPolynomial",
    "Grid1D",
    "PeriodicStencil",
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


def _integer(name: str, value) -> int:
    """``value`` as a Python int, a NumPy integer too, so that one value has
    one cache key; ValueError for anything else, bools and integral floats
    included."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        object.__setattr__(self, "n", _integer("n", self.n))
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


# A quadratic term is its ``eval``: G2 of two vectors, or column by column of
# two (dim, m) blocks, a (dim, 1) block pairing its column with every column
# of the other; ``eval(x[:, None], I)`` is then the matrix of ``v -> G2(x, v)``.
@dataclass(frozen=True)
class DiagonalQuadratic:
    """Entrywise quadratic gradient term: ``G2(u, v)_i = coeff * u_i * v_i``."""

    coeff: float

    def eval(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.coeff * u * v


@dataclass(frozen=True)
class TensorQuadratic:
    """Dense quadratic term ``G2(a, b)_p = sum_ij T[p, i, j] a_i b_j``.

    The tensor must be symmetric in its last two indices; full symmetry in all
    three is not required (plain Galerkin reductions break it).  The dense
    maps fold it into their Newton Jacobian rather than evaluating it.
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


class PeriodicStencil:
    """Block-circulant operator on ``b`` equal periodic fields of ``n`` points.

    ``columns`` is a (b, b, n) array: ``columns[i, j]`` is the first column of
    the n x n block that maps field j to field i, whose entry (p, q) is
    ``columns[i, j, (p - q) mod n]``.  ``@`` applies the operator to a state
    of shape (b n,) or a (b n, k) block as a sum of cyclic shifts (what
    ``np.roll`` gives, added as two slices) over the nonzero entries of
    ``columns``; ``.T`` is the transpose.
    """

    ndim = 2

    def __init__(self, columns):
        columns = np.asarray(columns, dtype=float)
        if columns.ndim != 3 or columns.shape[0] != columns.shape[1] or columns.shape[2] < 1:
            raise ValueError(f"stencil columns must be (b, b, n), got {columns.shape}")
        fields, _, n = columns.shape
        self.columns = columns
        self.shape = (fields * n, fields * n)
        self._terms = [(int(i), int(j), int(k), float(columns[i, j, k]))
                       for i, j, k in zip(*np.nonzero(columns))]

    @property
    def T(self) -> "PeriodicStencil":
        # block (i, j) of the transpose is block (j, i) transposed, whose
        # first column holds the entries at offsets -k mod n
        return PeriodicStencil(np.roll(self.columns.transpose(1, 0, 2)[..., ::-1], 1, axis=-1))

    def __matmul__(self, x):
        fields, _, n = self.columns.shape
        x = np.asarray(x)
        by_field = x.reshape((fields, n) + x.shape[1:])
        out = np.zeros(by_field.shape)
        # every term multiplies into one scratch field: each entry takes the
        # two roundings of `out += w * x`, and no term allocates
        scratch = np.empty(by_field.shape[1:])
        for i, j, k, w in self._terms:  # out[i] += w * np.roll(by_field[j], k, axis=0)
            out[i, k:] += np.multiply(by_field[j, : n - k], w, out=scratch[: n - k])
            if k:
                out[i, :k] += np.multiply(by_field[j, n - k :], w, out=scratch[:k])
        return out.reshape(x.shape)


QuadraticTerm = Union[DiagonalQuadratic, TensorQuadratic, ProjectedQuadratic]
Operator = Union[np.ndarray, PeriodicStencil]


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
    optional g0 and ``quadratic`` the optional degree-2 term.  S and G1 are
    both dense arrays or both :class:`PeriodicStencil` on the same fields;
    only ``@`` and ``.T`` are used on them.

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
        if isinstance(S, PeriodicStencil) and isinstance(G1, PeriodicStencil):
            if S.columns.shape[0] != G1.columns.shape[0]:
                raise ValueError("structure and linear stencils act on different field counts")
        elif not (isinstance(S, np.ndarray) and isinstance(G1, np.ndarray)):
            raise ValueError("structure and linear operators must both be dense arrays "
                             "or both periodic stencils")
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"structure operator must be square, got {S.shape}")
        n = S.shape[0]
        if G1.shape != (n, n):
            raise ValueError(f"linear operator must be {(n, n)}, got {G1.shape}")
        if self.constant is not None and self.constant.shape != (n,):
            raise ValueError("constant term has the wrong length")
        if self.structure_tag not in STRUCTURE_TAGS:
            raise ValueError(f"unknown structure_tag {self.structure_tag!r}")
        if self.structure_tag == "skew" and _asymmetric(S, 1.0):
            raise ValueError("structure operator is not skew-symmetric")
        if self.structure_tag != "none" and _asymmetric(G1, -1.0):
            raise ValueError("linear gradient operator is not symmetric")
        if isinstance(self.quadratic, TensorQuadratic):
            if self.quadratic.tensor.shape[0] != n:
                raise ValueError("quadratic tensor dimension mismatch")
        if self.energy_terms is not None and self.energy_terms.linear.shape != (n, n):
            raise ValueError("energy polynomial dimension mismatch")

    @property
    def dim(self) -> int:
        return self.structure.shape[0]


def _asymmetric(op: Operator, sign: float) -> bool:
    """Whether ``op + sign op^T`` exceeds 1e-13 of the largest entry of ``op``,
    entry by entry: a dense array's entries, a stencil's columns."""
    a, a_t = (x.columns if isinstance(x, PeriodicStencil) else x for x in (op, op.T))
    scale = np.abs(a).max()
    return scale > 0 and np.abs(a + sign * a_t).max() > 1e-13 * scale


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


def central_diff_matrix(grid: Grid1D) -> PeriodicStencil:
    """Periodic central first-derivative stencil ``(u[p+1] - u[p-1]) / (2 dx)``,
    exactly skew-symmetric with zero row sums."""
    column = np.zeros(grid.n)
    column[1], column[-1] = -1.0 / (2.0 * grid.dx), 1.0 / (2.0 * grid.dx)
    return PeriodicStencil(column[None, None])


def laplacian_matrix(grid: Grid1D, scale: float = 1.0) -> PeriodicStencil:
    """Periodic three-point second-derivative stencil times ``scale``.

    Exactly symmetric, negative semidefinite for positive ``scale``, with
    zero row sums (constants are annihilated).
    """
    h = grid.dx
    column = np.zeros(grid.n)
    column[0] = -2.0 * scale / h**2
    column[1] = column[-1] = scale / h**2
    return PeriodicStencil(column[None, None])


def build_wave_fom(c: float, grid: Grid1D) -> PolyGradFlow:
    """Linear wave benchmark ``u_tt = c^2 u_xx`` as a canonical-structure flow.

    The state is the two fields, stacked: entries ``[:n]`` are the
    displacement u, entries ``[n:]`` the velocity v.  The energy is the
    quadratic form ``dx * x.G1 x / 2`` of the stacked gradient operator,
    which equals the dx-weighted discrete integral of
    ``v^2/2 + c^2 u_x^2 / 2`` with forward differences for ``u_x``.
    """
    if c <= 0:
        raise ValueError("wave speed must be positive")
    S, G1 = np.zeros((2, 2, grid.n)), np.zeros((2, 2, grid.n))
    S[0, 1, 0], S[1, 0, 0] = 1.0, -1.0  # [[0, I], [-I, 0]]
    G1[0, 0] = laplacian_matrix(grid, -c * c).columns[0, 0]  # [[-c^2 B, 0], [0, I]]
    G1[1, 1, 0] = 1.0
    return PolyGradFlow(structure=PeriodicStencil(S), linear=PeriodicStencil(G1),
                        structure_tag="skew", energy_weight=grid.dx)


def build_kdv_fom(alpha: float, rho: float, nu: float, grid: Grid1D) -> PolyGradFlow:
    """KdV benchmark ``u_t = alpha u u_x + rho u_x + nu u_xxx`` in flow form.

    The structure operator is the central first-derivative stencil; the
    gradient splits into ``G1 = rho I + nu B`` (B the periodic Laplacian) and
    the entrywise quadratic ``(alpha/2) u^2``.  The energy is the flow's
    polynomial with weight dx, which equals the dx-weighted sum of
    ``alpha/6 u^3 + rho/2 u^2 - nu/2 (forward-difference u)^2``.
    """
    G1 = nu * laplacian_matrix(grid).columns
    G1[..., 0] += rho
    quad = DiagonalQuadratic(alpha / 2.0) if alpha != 0.0 else None
    return PolyGradFlow(
        structure=central_diff_matrix(grid), linear=PeriodicStencil(G1), quadratic=quad,
        structure_tag="skew", energy_weight=grid.dx,
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
