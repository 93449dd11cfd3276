"""Deterministic error bounds for the projected low-rank residual gap.

For a sketch matrix Z and target rank k, the quantity of interest is the
squared residual gap

    ||(I - pi(Z)) A||^2 - ||(I - pi(Z)) A_tail||^2,

bounded through the tangent operator ``T = Omega_tail Omega_head^+`` and the
sine operator ``S = (I + T T^T)^{-1/2} T``, whose singular values are the
tangents and sines of the canonical angles between ``range(Z Omega_head^+)``
and the dominant left singular subspace.

The gap itself is evaluated in the left singular basis: with ``Q`` an
orthonormal basis of ``U^T Z``, the residual ``(I - pi(Z)) A`` has the Gram
matrix ``Sigma^2 - B^T B`` for ``B = Q^T Sigma`` (Halko, Martinsson & Tropp
2011), so no dense residual of ``A`` is ever formed.  The top eigenvalues of
that Gram and of its trailing block come from the residual-Gram solver the
Monte Carlo trials use, :func:`experiments._gram_top`: each block's own dense
Gram at or below 90 columns, and Lanczos above.

The reports of one sample share a private one-entry memo, keyed by a weak
reference to ``factors`` and a copy of ``Z``.  Until a call with another key
replaces it, it holds the angle operators of the last ``k``, ``B`` and the full
Gram's top eigenvalue, each built on first use as without it, bit for bit.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass

import numpy as np

from .experiments import _DENSE_RESIDUAL_LIMIT, _gram_top
from .linalg import (
    SvdFactors,
    _as_matrix,
    _check_head_rank,
    _check_norm,
    _operator_norms,
    norm as matrix_norm,
    orthonormal_basis,
    phi,
    pseudo_inverse,
)

__all__ = [
    'AngleOperators',
    'DeterministicBoundReport',
    'angle_operators',
    'deflated_spectral_gap_bound',
    'residual_gap_squared',
    'sine_tangent_gap_bound',
]


@dataclass(frozen=True)
class AngleOperators:
    """Tangent/sine operators of the canonical angles, with their spectra."""

    tangent: np.ndarray
    sine: np.ndarray
    tangent_sigma: np.ndarray
    sine_sigma: np.ndarray


def angle_operators(factors: SvdFactors, z, k) -> AngleOperators:
    """Tangent and sine operators of the sketch Z at target rank k.

    The sine operator is assembled from the SVD of the tangent operator,
    ``S = P diag(phi(t)) Q^T`` for ``T = P diag(t) Q^T``, which keeps the two
    spectra consistent by construction.

    Raises
    ------
    RankDeficiencyError
        If the head block ``Omega_head`` is not of full row rank; the bound
        hypotheses fail in that case.
    """
    z = _as_matrix(z, 'Z')
    omega_head = factors.left_head(k).T @ z
    omega_tail = factors.left_tail(k).T @ z
    _check_head_rank(omega_head, z)
    tangent = omega_tail @ pseudo_inverse(omega_head)
    p_fac, t_sigma, q_fac_t = np.linalg.svd(tangent, full_matrices=False)
    s_sigma = phi(t_sigma)
    sine = (p_fac * s_sigma) @ q_fac_t
    return AngleOperators(tangent, sine, np.atleast_1d(t_sigma), np.atleast_1d(s_sigma))


def _rotated_basis_product(factors: SvdFactors, z):
    """``B = Q[:r]^T Sigma`` (p x r) for an orthonormal basis Q of ``U^T Z``."""
    q = orthonormal_basis(factors.left().T @ z)
    return q[:factors.sigma.size].T * factors.sigma


class _Sample:
    """The memo's entry: its key, and the shared items built so far."""

    last = angles = b = top = None  # the memo's one entry; each item until first use

    def __init__(self, factors, z):
        self.factors = weakref.ref(factors)  # never keeps the factorization alive
        self.z = z.copy()  # so that editing Z in place misses

    @classmethod
    def of(cls, factors: SvdFactors, z) -> _Sample:
        """The entry of ``(factors, Z)``, replacing the last one unless its key matches."""
        key_z, entry = _as_matrix(z, 'Z'), cls.last  # read once: a racing thread costs a recomputation
        if entry is None or entry.factors() is not factors or not np.array_equal(entry.z, key_z):
            entry = cls.last = cls(factors, key_z)
        return entry

    def angles_at(self, factors, z, k):  # ``angles`` is ``(k, AngleOperators)``; every report checks ``k`` itself
        held = self.angles
        if held is None or held[0] != k:
            held = self.angles = (k, angle_operators(factors, z, k))
        return held[1]

    def basis_product(self, factors, z):
        if self.b is None:
            self.b = _rotated_basis_product(factors, z)
        return self.b

    def gram_top(self, factors, z):
        if self.top is None:
            self.top = _gram_top(factors.sigma**2, self.basis_product(factors, z), _DENSE_RESIDUAL_LIMIT)
        return self.top


def _check_matrix(a, factors: SvdFactors):
    """Raise ``ValueError`` unless ``a`` is a finite matrix of the shape of ``factors``."""
    if _as_matrix(a, 'A').shape != (factors.rows, factors.cols):
        raise ValueError(f'A has shape {np.shape(a)}, but its factors are {factors.rows}x{factors.cols}')


def residual_gap_squared(a, factors: SvdFactors, z, k, which) -> float:
    """``||(I - pi(Z)) A||^2 - ||(I - pi(Z)) A_tail||^2`` in the requested norm.

    The gap is computed from ``factors``, which must be the SVD of ``a``;
    ``a`` itself is only checked to be a finite matrix of their shape.
    """
    _check_matrix(a, factors)
    sig_head = factors.sigma_head(k)
    _check_norm(which)
    sample = _Sample.of(factors, z)
    b = sample.basis_product(factors, z)
    if which == 'frobenius':
        # the residual norms split over head and tail columns; the tail cancels
        return float(np.sum(sig_head**2) - np.sum(b[:, :k] ** 2))
    return sample.gram_top(factors, z) - _gram_top(factors.sigma[k:]**2, b[:, k:], _DENSE_RESIDUAL_LIMIT)


@dataclass(frozen=True)
class DeterministicBoundReport:
    """Evaluated deterministic bound with both candidate branches."""

    norm: str
    k: int
    lhs_gap: float
    bound_sine: float
    bound_tangent: float
    bound: float

    def as_dict(self):
        return asdict(self)


def _gap_report(ops, weights, which, k, lhs) -> DeterministicBoundReport:
    """Report of ``min(||S||^2 w_1^2, ||T diag(w)||^2)`` for the angle
    operators ``ops`` and head weights ``w``, with the evaluated gap ``lhs``."""
    bound_sine = _operator_norms(ops.sine_sigma, which) ** 2 * float(weights[0]) ** 2
    bound_tangent = matrix_norm(ops.tangent * weights[None, :], which) ** 2
    return DeterministicBoundReport(norm=which, k=k, lhs_gap=lhs, bound_sine=bound_sine,
                                    bound_tangent=bound_tangent, bound=min(bound_sine, bound_tangent))


def sine_tangent_gap_bound(a, factors: SvdFactors, z, k, which) -> DeterministicBoundReport:
    """Deterministic bound ``min(||S||^2 ||Sigma_head||_2^2, ||T Sigma_head||^2)``
    on the squared residual gap, together with the evaluated gap itself."""
    ops = _Sample.of(factors, z).angles_at(factors, z, k)
    return _gap_report(ops, factors.sigma_head(k), which, k, residual_gap_squared(a, factors, z, k, which))


def deflated_spectral_gap_bound(a, factors: SvdFactors, z, k) -> DeterministicBoundReport:
    """Sharper spectral bound on ``||(I - pi(Z)) A||_2^2 - sigma_{k+1}^2``.

    Uses the deflated head spectrum ``(Sigma_head^2 - sigma_{k+1}^2 I)^{1/2}``
    in place of ``Sigma_head``; ``a`` and the gap are as in :func:`residual_gap_squared`.
    """
    _check_matrix(a, factors)
    sample = _Sample.of(factors, z)
    ops = sample.angles_at(factors, z, k)
    s_next = factors.next_sigma(k)
    deflated = np.sqrt(np.clip(factors.sigma_head(k)**2 - s_next**2, 0.0, None))
    return _gap_report(ops, deflated, 'spectral', k, sample.gram_top(factors, z) - s_next**2)
