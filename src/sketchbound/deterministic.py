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
2011), so no dense residual of ``A`` is ever formed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import (
    RANK_TOL,
    SvdFactors,
    _as_matrix,
    _check_head,
    norm as matrix_norm,
    orthonormal_basis,
    pseudo_inverse,
)

__all__ = [
    'AngleOperators',
    'DeterministicBoundReport',
    'angle_operators',
    'deflated_spectral_gap_bound',
    'phi',
    'residual_gap_squared',
    'sine_tangent_gap_bound',
]


def phi(x):
    """The tangent-to-sine map ``x -> x / sqrt(1 + x^2)`` for x >= 0; 1.0
    where ``x^2`` overflows (x above about 1.34e154, and x = inf)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError('phi is defined for non-negative arguments')
    with np.errstate(over='ignore', invalid='ignore'):
        sq = x * x
        out = np.where(np.isinf(sq), 1.0, x / np.sqrt(1.0 + sq))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AngleOperators:
    """Tangent/sine operators of the canonical angles, with their spectra."""

    tangent: np.ndarray
    sine: np.ndarray
    tangent_sigma: np.ndarray
    sine_sigma: np.ndarray


def _check_head_rank(omega_head, w):
    """Raise :class:`RankDeficiencyError` unless ``omega_head``, the head
    block of the sketch ``w``, has full numerical row rank."""
    _check_head(np.linalg.svd(omega_head, compute_uv=False), float(np.linalg.norm(w)), RANK_TOL,
                'head block of the sketch is row-rank deficient', 'singular value')


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


def _residual_gram(factors: SvdFactors, z):
    """``Sigma^2 - B^T B``, the Gram matrix of ``(I - pi(Z)) A`` in the right singular
    basis; its trailing block from k on is that of the same residual of ``A_tail``."""
    b = _rotated_basis_product(factors, z)
    return np.diag(factors.sigma**2) - b.T @ b


def _check_matrix(a, factors: SvdFactors):
    """Raise ``ValueError`` unless ``a`` is a finite matrix of the shape of ``factors``."""
    if _as_matrix(a, 'A').shape != (factors.rows, factors.cols):
        raise ValueError(f'A has shape {np.shape(a)}, but its factors are {factors.rows}x{factors.cols}')


def _top_eigenvalue(gram):
    """Largest eigenvalue of a symmetric matrix; 0 for an empty one."""
    return float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0


def residual_gap_squared(a, factors: SvdFactors, z, k, which) -> float:
    """``||(I - pi(Z)) A||^2 - ||(I - pi(Z)) A_tail||^2`` in the requested norm.

    The gap is computed from ``factors``, which must be the SVD of ``a``;
    ``a`` itself is only checked to be a finite matrix of their shape.
    """
    _check_matrix(a, factors)
    sig_head = factors.sigma_head(k)
    if which == 'frobenius':
        # the residual norms split over head and tail columns; the tail cancels
        b = _rotated_basis_product(factors, z)
        return float(np.sum(sig_head**2) - np.sum(b[:, :k] ** 2))
    if which == 'spectral':
        gram = _residual_gram(factors, z)
        return _top_eigenvalue(gram) - _top_eigenvalue(gram[k:, k:])
    raise ValueError(f"norm must be 'spectral' or 'frobenius', got {which!r}")


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


def _operator_norms(sigma_values, which):
    if which == 'spectral':
        return float(sigma_values[0]) if sigma_values.size else 0.0
    return float(np.sqrt(np.sum(sigma_values**2)))


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
    ops = angle_operators(factors, z, k)
    return _gap_report(ops, factors.sigma_head(k), which, k, residual_gap_squared(a, factors, z, k, which))


def deflated_spectral_gap_bound(a, factors: SvdFactors, z, k) -> DeterministicBoundReport:
    """Sharper spectral bound on ``||(I - pi(Z)) A||_2^2 - sigma_{k+1}^2``.

    Uses the deflated head spectrum ``(Sigma_head^2 - sigma_{k+1}^2 I)^{1/2}``
    in place of ``Sigma_head``; ``a`` and the gap are as in :func:`residual_gap_squared`.
    """
    _check_matrix(a, factors)
    ops = angle_operators(factors, z, k)
    s_next = factors.next_sigma(k)
    deflated = np.sqrt(np.clip(factors.sigma_head(k)**2 - s_next**2, 0.0, None))
    lhs = _top_eigenvalue(_residual_gram(factors, z)) - s_next**2
    return _gap_report(ops, deflated, 'spectral', k, lhs)
