"""Reduced-order model construction by Galerkin projection.

Four variants share one code path:

* ``GROM``   - plain Galerkin reduction ``da/dt = Phi^T S grad(Phi a)``; the
  projected operator is folded into the gradient side, so the reduced flow
  carries no structure guarantee.
* ``SP0``    - structure-preserving reduction with the projected structure
  operator ``S_r = Phi^T S Phi``, which inherits skew-symmetry (or negative
  semidefiniteness) and therefore conserves (or dissipates) the energy.
* ``SP1``    - SP reduction on a basis enriched with the initial-state
  residual, so the initial energy is captured exactly.
* ``SP2``    - SP reduction on a shifted-snapshot basis with the affine ansatz
  ``u = u0 + Phi a`` and zero initial coefficients.

Two-field (wave) systems pass a pair of per-field bases; the stacked
block-diagonal basis runs through the same machinery and reproduces the
two-by-two reduced block structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .avf import AvfScheme, Trajectory, integrate
from .pod import PodBasis
from .systems import (
    DiagonalQuadratic,
    EnergyPolynomial,
    PolyGradFlow,
    TensorQuadratic,
    eval_energy,
    eval_grad,
)

__all__ = ["ReducedModel", "RomVariant", "encode", "reduce_operators", "run_rom", "stack_bases"]


class RomVariant(enum.Enum):
    """The four reduced-model flavors."""

    GROM = "G-ROM"
    SP0 = "SP-ROM-0"
    SP1 = "SP-ROM-1"
    SP2 = "SP-ROM-2"

    @classmethod
    def parse(cls, text: str) -> "RomVariant":
        key = str(text).strip()
        for member in cls:
            if key.upper() == member.name or key == member.value:
                return member
        raise ValueError(f"unknown ROM variant {text!r}")


@dataclass(frozen=True)
class ReducedModel:
    """A reduced flow plus the maps between full and reduced coordinates.

    ``bases`` are the per-field bases the model was reduced on (their
    spectra give the projection-error tails); ``basis_matrix`` is their
    column-major block-diagonal stack (one basis: its ``phi``); ``decode_offset``
    is the ansatz's shift (the initial state for shifted bases, else absent).
    """

    flow: PolyGradFlow
    bases: tuple[PodBasis, ...]
    basis_matrix: np.ndarray
    decode_offset: Optional[np.ndarray] = None


def encode(model: ReducedModel, u) -> np.ndarray:
    """Reduced coefficients of a full state: ``Phi^T (u - offset)``."""
    u = np.asarray(u, dtype=float)
    n = model.basis_matrix.shape[0]
    if u.shape != (n,):
        raise ValueError(f"state must have shape ({n},), got {u.shape}")
    if model.decode_offset is not None:
        u = u - model.decode_offset
    return model.basis_matrix.T @ u


def _reduced_tensors(lefts, phi: np.ndarray, coeff: float) -> list[TensorQuadratic]:
    """Project an entrywise quadratic term once per left factor:
    ``T[p, i, j] = coeff * sum_m left[p, m] phi[m, i] phi[m, j]``, stored dense:
    its ``i <= j`` half from an n x (r - i) block of basis products per index
    i (never all n x r^2 of them), mirrored, so exactly symmetric."""
    n, r = phi.shape
    tensors = [np.empty((left.shape[0], r, r)) for left in lefts]
    for i in range(r):
        W = phi[:, i:] * phi[:, i : i + 1]  # W[m, j - i] = phi[m, i] phi[m, j]
        for T, left in zip(tensors, lefts):
            np.matmul(left, W, out=T[:, i, i:])
            T[:, i:, i] = T[:, i, i:]
    return [TensorQuadratic(coeff * T) for T in tensors]


def stack_bases(bases: Sequence[PodBasis]) -> np.ndarray:
    """The column-major block-diagonal stack of per-field bases; one basis
    is its own ``phi``, not a copy."""
    if len(bases) == 1:
        return bases[0].phi
    phi = np.zeros((sum(b.phi.shape[0] for b in bases), sum(b.r for b in bases)), order="F")
    row = col = 0
    for b in bases:
        phi[row : row + b.phi.shape[0], col : col + b.r] = b.phi
        row, col = row + b.phi.shape[0], col + b.r
    return phi


def reduce_operators(
    fom: PolyGradFlow,
    basis: Union[PodBasis, Sequence[PodBasis]],
    variant: RomVariant,
) -> ReducedModel:
    """Assemble the reduced operators of ``fom`` for the requested variant.

    ``basis`` is a single basis or a per-field pair (stacked two-field
    systems).  Every variant projects the gradient terms of
    ``H(offset + Phi a)`` by ``Phi^T``: the constant ``g`` (``grad H(u0)``
    for SP-ROM-2, ``g0`` otherwise), the linear ``G1 Phi`` (plus SP-ROM-2's
    linearization ``2 coeff diag(u0) Phi`` of the quadratic term) and the
    entrywise quadratic term.  They give the reduced energy, with the full
    model's weight (and ``H(u0)`` as SP-ROM-2's shift).  The SP variants
    step them with ``S_r = Phi^T S Phi``; G-ROM keeps them as its
    ``energy_terms`` and steps the same terms projected by ``Phi^T S``.

    Raises ``ValueError`` on variant/basis mismatches: SP1 needs
    enrichment-processed bases, SP2 needs shifted-snapshot bases, and shifted
    bases are rejected everywhere else.
    """
    bases = (basis,) if isinstance(basis, PodBasis) else tuple(basis)
    if not bases:
        raise ValueError("at least one basis is required")
    if variant is RomVariant.SP1 and not all(b.enriched for b in bases):
        raise ValueError("SP-ROM-1 requires enrichment-processed bases")
    if variant is RomVariant.SP2:
        if any(b.shifted_reference is None for b in bases):
            raise ValueError("SP-ROM-2 requires bases built from shifted snapshots")
    elif any(b.shifted_reference is not None for b in bases):
        raise ValueError(f"shifted-snapshot bases are only valid for SP-ROM-2, not {variant.value}")

    phi = stack_bases(bases)
    if phi.shape[0] != fom.dim:
        raise ValueError(
            f"stacked basis has {phi.shape[0]} rows, full model has dimension {fom.dim}"
        )

    quad = fom.quadratic
    if quad is not None and not isinstance(quad, DiagonalQuadratic):
        raise ValueError("only entrywise (diagonal) quadratic terms can be reduced")
    coeff = quad.coeff if quad is not None else 0.0

    # the unprojected gradient terms of H(offset + Phi a) / weight
    offset, shift, g = None, fom.energy_shift, fom.constant
    linear_phi = fom.linear @ phi
    if variant is RomVariant.SP2:
        offset = np.concatenate([b.shifted_reference for b in bases])
        shift, g = eval_energy(fom, offset), eval_grad(fom, offset)
        if coeff:  # the quadratic term linearized at the offset: diag(2 coeff offset)
            linear_phi = linear_phi + (2.0 * coeff * offset)[:, None] * phi

    # G-ROM's flow projects the same terms by Phi^T S = (S^T Phi)^T as well
    lefts = [phi.T, (fom.structure.T @ phi).T] if variant is RomVariant.GROM else [phi.T]
    quadratics = _reduced_tensors(lefts, phi, coeff) if coeff else [None] * len(lefts)
    constant = phi.T @ g if g is not None else None
    linear = phi.T @ linear_phi
    linear = 0.5 * (linear + linear.T)
    energy_terms = None
    if variant is RomVariant.GROM:
        energy_terms = EnergyPolynomial(linear=linear, constant=constant, quadratic=quadratics[0])
        left = lefts[1]
        structure, tag = np.eye(phi.shape[1]), "none"
        constant = left @ g if g is not None else None
        linear = left @ linear_phi
    else:
        structure, tag = phi.T @ (fom.structure @ phi), fom.structure_tag
        if tag == "skew":
            structure = 0.5 * (structure - structure.T)  # make the inherited skew-symmetry exact

    flow = PolyGradFlow(
        structure=structure,
        linear=linear,
        constant=constant,
        quadratic=quadratics[-1],  # projected by the last left factor
        structure_tag=tag,
        energy_weight=fom.energy_weight,
        energy_shift=shift,
        energy_terms=energy_terms,
    )
    return ReducedModel(flow, bases, phi, decode_offset=offset)


def run_rom(model: ReducedModel, scheme: AvfScheme, initial_state) -> Trajectory:
    """Integrate the reduced flow from ``encode(model, initial_state)``; the
    trajectory stays in reduced coordinates.

    ``initial_state`` is the full-order start state (for shifted-basis
    models, whose offset is that state, it encodes to zero coefficients).
    The result's ``states`` are the r x m reduced coefficients at the
    recording times, and it carries the decode map: ``basis`` is the
    model's column-major ``basis_matrix`` itself, not a copy (for a
    single-field model the :class:`PodBasis` ``phi``) and ``offset`` its
    ``decode_offset``.
    :meth:`Trajectory.full_states` decodes a block of columns, as the error
    metrics do.  The energy series is the reduced energy polynomial at every
    step, equal to the full-order energy of the decoded state up to rounding.
    """
    reduced = integrate(model.flow, encode(model, initial_state), scheme)
    return replace(reduced, basis=model.basis_matrix, offset=model.decode_offset)
