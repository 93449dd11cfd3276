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
    RankDeficiencyError,
    SvdFactors,
    _as_matrix,
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
    """The tangent-to-sine map ``x -> x / sqrt(1 + x^2)`` for x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError('phi is defined for non-negative arguments')
    out = x / np.sqrt(1.0 + x * x)
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
    s_head = np.linalg.svd(omega_head, compute_uv=False)
    # the scale guard catches head blocks that vanish outright, which a
    # purely relative test on round-off noise would miss
    degenerate = s_head[0] <= RANK_TOL * float(np.linalg.norm(w))
    if degenerate or s_head[-1] <= RANK_TOL * s_head[0]:
        raise RankDeficiencyError(
            f'head block of the sketch is row-rank deficient: '
            f'smallest singular value {s_head[-1]:.3e} (largest {s_head[0]:.3e})',
            smallest_singular_value=float(s_head[-1]),
        )


def angle_operators(factors: SvdFactors, z, k, mean=None) -> AngleOperators:
    """Tangent and sine operators of Z (optionally centered) at target rank k.

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
    w = z - _as_matrix(mean, 'mean') if mean is not None else z
    omega_head = factors.left_head(k).T @ w
    omega_tail = factors.left_tail(k).T @ w
    _check_head_rank(omega_head, w)
    tangent = omega_tail @ pseudo_inverse(omega_head)
    p_fac, t_sigma, q_fac_t = np.linalg.svd(tangent, full_matrices=False)
    s_sigma = phi(t_sigma)
    sine = (p_fac * s_sigma) @ q_fac_t
    return AngleOperators(tangent, sine, np.atleast_1d(t_sigma), np.atleast_1d(s_sigma))


def _rotated_basis_product(factors: SvdFactors, z):
    """``B = Q[:r]^T Sigma`` (p x r) for an orthonormal basis Q of ``U^T Z``.

    ``(I - pi(Z)) A`` has the Gram matrix ``Sigma^2 - B^T B`` in the right
    singular basis, and its restriction to a trailing block is that of the
    same residual of the tail ``A_tail``.
    """
    q = orthonormal_basis(factors.left().T @ z)
    return q[:factors.sigma.size].T * factors.sigma


def _top_eigenvalue(gram):
    """Largest eigenvalue of a symmetric matrix; 0 for an empty one."""
    return float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0


def residual_gap_squared(a, factors: SvdFactors, z, k, which) -> float:
    """``||(I - pi(Z)) A||^2 - ||(I - pi(Z)) A_tail||^2`` in the requested norm.

    The gap is computed from ``factors``, which must be the SVD of ``a``;
    ``a`` itself is only validated.
    """
    _as_matrix(a, 'A')
    sig_head = factors.sigma_head(k)
    b = _rotated_basis_product(factors, z)
    if which == 'frobenius':
        # the residual norms split over head and tail columns; the tail cancels
        return float(np.sum(sig_head**2) - np.sum(b[:, :k] ** 2))
    if which == 'spectral':
        gram = np.diag(factors.sigma**2) - b.T @ b
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
    return DeterministicBoundReport(
        norm=which,
        k=k,
        lhs_gap=lhs,
        bound_sine=bound_sine,
        bound_tangent=bound_tangent,
        bound=min(bound_sine, bound_tangent),
    )


def sine_tangent_gap_bound(a, factors: SvdFactors, z, k, which) -> DeterministicBoundReport:
    """Deterministic bound ``min(||S||^2 ||Sigma_head||_2^2, ||T Sigma_head||^2)``
    on the squared residual gap, together with the evaluated gap itself."""
    ops = angle_operators(factors, z, k)
    return _gap_report(ops, factors.sigma_head(k), which, k, residual_gap_squared(a, factors, z, k, which))


def deflated_spectral_gap_bound(a, factors: SvdFactors, z, k) -> DeterministicBoundReport:
    """Sharper spectral bound on ``||(I - pi(Z)) A||_2^2 - sigma_{k+1}^2``.

    Uses the deflated head spectrum ``(Sigma_head^2 - sigma_{k+1}^2 I)^{1/2}``
    in place of ``Sigma_head``. As in :func:`residual_gap_squared`, the gap is
    computed from ``factors``, which must be the SVD of ``a``.
    """
    _as_matrix(a, 'A')
    ops = angle_operators(factors, z, k)
    s_next = factors.next_sigma(k)
    deflated = np.sqrt(np.clip(factors.sigma_head(k)**2 - s_next**2, 0.0, None))
    b = _rotated_basis_product(factors, z)
    lhs = _top_eigenvalue(np.diag(factors.sigma**2) - b.T @ b) - s_next**2
    return _gap_report(ops, deflated, 'spectral', k, lhs)
