"""Deterministic error bounds for the projected low-rank residual gap.

For a sketch matrix Z and target rank k, the quantity of interest is the
squared residual gap

    ||(I - pi(Z)) A||^2 - ||(I - pi(Z)) A_tail||^2,

bounded through the tangent operator ``T = Omega_tail Omega_head^+`` and the
sine operator ``S = (I + T T^T)^{-1/2} T``, whose singular values are the
tangents and sines of the canonical angles between ``range(Z Omega_head^+)``
and the dominant left singular subspace.
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


def _check_head_rank(omega_head, w, rank_tol=RANK_TOL):
    """Raise :class:`RankDeficiencyError` unless ``omega_head``, the head
    block of the sketch ``w``, has full numerical row rank."""
    s_head = np.linalg.svd(omega_head, compute_uv=False)
    # the scale guard catches head blocks that vanish outright, which a
    # purely relative test on round-off noise would miss
    degenerate = s_head[0] <= rank_tol * float(np.linalg.norm(w))
    if degenerate or s_head[-1] <= rank_tol * s_head[0]:
        raise RankDeficiencyError(
            f'head block of the sketch is row-rank deficient: '
            f'smallest singular value {s_head[-1]:.3e} (largest {s_head[0]:.3e})',
            smallest_singular_value=float(s_head[-1]),
        )


def angle_operators(factors: SvdFactors, z, k, mean=None, rank_tol=RANK_TOL) -> AngleOperators:
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
    _check_head_rank(omega_head, w, rank_tol)
    tangent = omega_tail @ pseudo_inverse(omega_head)
    p_fac, t_sigma, q_fac_t = np.linalg.svd(tangent, full_matrices=False)
    s_sigma = phi(t_sigma)
    sine = (p_fac * s_sigma) @ q_fac_t
    return AngleOperators(tangent, sine, np.atleast_1d(t_sigma), np.atleast_1d(s_sigma))


def residual_gap_squared(a, factors: SvdFactors, z, k, which) -> float:
    """``||(I - pi(Z)) A||^2 - ||(I - pi(Z)) A_tail||^2`` in the requested norm."""
    a = _as_matrix(a, 'A')
    q = orthonormal_basis(z)
    tail = factors.tail_matrix(k)
    resid_full = a - q @ (q.T @ a)
    resid_tail = tail - q @ (q.T @ tail)
    return matrix_norm(resid_full, which) ** 2 - matrix_norm(resid_tail, which) ** 2


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


def sine_tangent_gap_bound(a, factors: SvdFactors, z, k, which) -> DeterministicBoundReport:
    """Deterministic bound ``min(||S||^2 ||Sigma_head||_2^2, ||T Sigma_head||^2)``
    on the squared residual gap, together with the evaluated gap itself."""
    ops = angle_operators(factors, z, k)
    sig_head = factors.sigma_head(k)
    bound_sine = _operator_norms(ops.sine_sigma, which) ** 2 * float(sig_head[0]) ** 2
    bound_tangent = matrix_norm(ops.tangent * sig_head[None, :], which) ** 2
    lhs = residual_gap_squared(a, factors, z, k, which)
    return DeterministicBoundReport(
        norm=which,
        k=k,
        lhs_gap=lhs,
        bound_sine=bound_sine,
        bound_tangent=bound_tangent,
        bound=min(bound_sine, bound_tangent),
    )


def deflated_spectral_gap_bound(a, factors: SvdFactors, z, k) -> DeterministicBoundReport:
    """Sharper spectral bound on ``||(I - pi(Z)) A||_2^2 - sigma_{k+1}^2``.

    Uses the deflated head spectrum ``(Sigma_head^2 - sigma_{k+1}^2 I)^{1/2}``
    in place of ``Sigma_head``.
    """
    a = _as_matrix(a, 'A')
    ops = angle_operators(factors, z, k)
    sig_head = factors.sigma_head(k)
    s_next = factors.next_sigma(k)
    deflated = np.sqrt(np.clip(sig_head**2 - s_next**2, 0.0, None))
    bound_sine = float(ops.sine_sigma[0]) ** 2 * float(deflated[0]) ** 2 if deflated.size else 0.0
    bound_tangent = matrix_norm(ops.tangent * deflated[None, :], 'spectral') ** 2
    q = orthonormal_basis(z)
    resid_full = a - q @ (q.T @ a)
    lhs = matrix_norm(resid_full, 'spectral') ** 2 - s_next**2
    return DeterministicBoundReport(
        norm='spectral',
        k=k,
        lhs_gap=lhs,
        bound_sine=bound_sine,
        bound_tangent=bound_tangent,
        bound=min(bound_sine, bound_tangent),
    )
