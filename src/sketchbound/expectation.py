"""Expected-error bounds for general Gaussian sketches.

Given ``Z ~ N(mean, C)`` the rotated sketch blocks ``Omega_head`` and
``Omega_tail`` are jointly Gaussian; conditioning the tail block on the head
block yields closed-form first and second moments of the tangent operator
``T = Omega_tail Omega_head^+``, from which bounds on

    E[ ||(I - pi(Z)) A|| - ||(I - pi(Z)) A_tail|| ]

follow in both the Frobenius and spectral norms.  All constants are exposed
so reports can be serialized and cross-checked against the closed-form
randomized-SVD specializations.

Note: the exact Frobenius second moment of ``M^+ N`` for a centered Gaussian
M is implemented in trace form, ``trace(N^T C^{-1} N) / (p - k - 1)``, the
quantity produced by the underlying inverse-Wishart moment.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from . import rsvd
from .linalg import (
    SvdFactors,
    _as_matrix,
    _check_head,
    _symmetric_part,
    _symmetrize,
    frobenius_norm,
    phi,
    spectral_norm,
)
from .sketching import GaussianSketch

__all__ = [
    'ExpectationBoundReport',
    'ProjectedCovariance',
    'TangentMomentConstants',
    'expect_pinv_norms',
    'expect_product_norms',
    'expected_frobenius_gap_bound',
    'expected_frobenius_gap_sq_bound',
    'expected_spectral_gap_bound',
    'expected_spectral_tail_bound',
    'mean_shift_term',
    'project_covariance',
    'project_sketch',
    'tangent_norm_constants',
]


@dataclass
class ProjectedCovariance:
    """Head and cross blocks of ``U^T C U``, and the trace and top eigenvalue of the
    conditional covariance ``tail - cross head^{-1} cross^T``: all the bounds read."""

    head: np.ndarray
    cross: np.ndarray
    conditional_trace: float
    conditional_top_eigenvalue: float
    _head_cho: tuple = field(repr=False)

    def solve_head(self, rhs):
        """Apply ``head^{-1}`` through the cached Cholesky factor."""
        return scipy.linalg.cho_solve(self._head_cho, rhs)


def _symmetric_moments(m):
    """Trace and top eigenvalue of the symmetric part of ``m``, each clipped at 0; ``m`` is not written."""
    m = _symmetric_part(np.array(m))
    return max(float(np.trace(m)), 0.0), max(float(np.linalg.eigvalsh(m)[-1]), 0.0)


def project_covariance(c, factors: SvdFactors, k) -> ProjectedCovariance:
    """Project a sketch covariance onto the head/tail left singular blocks.

    Raises ``RankDeficiencyError`` if the head block is numerically singular,
    where the expectation bounds do not apply: by the head rule against ``||C||_F``.

    Memory: an exactly symmetric ``c`` is read, not copied, and the tail block and
    the conditional covariance share one buffer, symmetrized in place; so beyond
    ``c`` and the factors the call holds at most two ``(n - k) x (n - k)`` arrays.
    """
    c = _symmetrize(_as_matrix(c, 'C'), 'C')
    u_head = factors.left_head(k)
    u_tail = factors.left_tail(k)
    c_head_cols = c @ u_head
    head, tail = (_symmetric_part(b) for b in (u_head.T @ c_head_cols, u_tail.T @ (c @ u_tail)))
    cross = u_tail.T @ c_head_cols
    _check_head(np.linalg.eigvalsh(head), scipy.linalg.norm(c.ravel()),
                'projected covariance head block is numerically singular', 'eigenvalue')
    head_cho = scipy.linalg.cho_factor(head)
    conditional = tail  # formed in the tail block's buffer
    conditional -= cross @ scipy.linalg.cho_solve(head_cho, cross.T)
    _symmetric_part(conditional)
    trace = max(float(np.trace(conditional)), 0.0)
    # the transpose of the symmetric C-ordered block is the same matrix in LAPACK's
    # order, so the solver works in its buffer, which nothing reads afterwards
    top = scipy.linalg.eigh(conditional.T, eigvals_only=True, subset_by_index=[len(tail) - 1] * 2,
                            overwrite_a=True)
    return ProjectedCovariance(head, cross, trace, max(float(top[0]), 0.0), head_cho)


def expect_product_norms(mean, covariance, n_mat):
    """Moments of ``||M N||`` for Gaussian M with the given column covariance.

    Returns
    -------
    (spectral_upper, frobenius_sq_exact)
        An upper bound on ``E ||M N||_2`` and the exact value of
        ``E ||M N||_F^2``.
    """
    mean = _as_matrix(mean, 'mean')
    covariance = _symmetrize(_as_matrix(covariance, 'covariance'), 'covariance')
    n_mat = _as_matrix(n_mat, 'N')
    if covariance.shape[0] != mean.shape[0]:
        raise ValueError('covariance must match the row dimension of the mean')
    if n_mat.shape[0] != mean.shape[1]:
        raise ValueError('N must be conformable with the columns of M')
    mn = mean @ n_mat
    trace_c, top_c = _symmetric_moments(covariance)
    spectral_upper = (
        spectral_norm(mn)
        + math.sqrt(top_c) * frobenius_norm(n_mat)
        + math.sqrt(trace_c) * spectral_norm(n_mat)
    )
    frobenius_sq_exact = frobenius_norm(mn) ** 2 + trace_c * frobenius_norm(n_mat) ** 2
    return spectral_upper, frobenius_sq_exact


def expect_pinv_norms(covariance, n_mat, p):
    """Moments of ``||M^+ N||`` for centered Gaussian M of k rows, p columns.

    Returns
    -------
    (frobenius_sq_exact, spectral_upper)
        The exact value ``trace(N^T C^{-1} N) / (p - k - 1)`` of
        ``E ||M^+ N||_F^2``, and an upper bound on ``E ||M^+ N||_2``.
    """
    covariance = _symmetrize(_as_matrix(covariance, 'covariance'), 'covariance')
    n_mat = _as_matrix(n_mat, 'N')
    k = covariance.shape[0]
    if p <= k + 1:
        raise ValueError(f'the inverse second moment requires p > k + 1, got p={p}, k={k}')
    try:
        cho = scipy.linalg.cho_factor(covariance)
    except np.linalg.LinAlgError as exc:
        raise ValueError('covariance must be positive definite') from exc
    trace_m, top_m = _symmetric_moments(n_mat.T @ scipy.linalg.cho_solve(cho, n_mat))
    return trace_m / (p - k - 1), rsvd._pinv_moments(k, p)[1] * math.sqrt(top_m)


@dataclass(frozen=True)
class TangentMomentConstants:
    """Constants for E||T N||: a dependence part plus a sampling part.

    The dependence parts vanish when the cross block of the projected
    covariance is zero; the sampling parts decay as the number of sketch
    columns grows.  ``total_frobenius_sq`` equals ``E ||T N||_F^2`` exactly,
    ``total_spectral`` upper-bounds ``E ||T N||_2``.
    """

    dep_spectral: float
    dep_frobenius: float
    sampling_spectral: float
    sampling_frobenius: float
    total_spectral: float
    total_frobenius_sq: float


def tangent_norm_constants(pc: ProjectedCovariance, n_mat, p) -> TangentMomentConstants:
    """Assemble the tangent-operator moment constants for a weight matrix N."""
    n_mat = _as_matrix(n_mat, 'N')
    k = pc.head.shape[0]
    if n_mat.shape[0] != k:
        raise ValueError(f'N must have {k} rows, got {n_mat.shape}')
    if p < k + 2:
        raise ValueError(f'need p >= k + 2, got p={p}, k={k}')
    solved = pc.solve_head(n_mat)
    dep = pc.cross @ solved
    dep_spectral = spectral_norm(dep)
    dep_frobenius = frobenius_norm(dep)
    trace_m, top_m = _symmetric_moments(n_mat.T @ solved)
    cond_top = math.sqrt(pc.conditional_top_eigenvalue)
    cond_fro = math.sqrt(pc.conditional_trace)
    sampling_spectral = (
        cond_top * math.sqrt(trace_m) / math.sqrt(p - k - 1)
        + rsvd._pinv_moments(k, p)[1] * cond_fro * math.sqrt(top_m)
    )
    sampling_frobenius = cond_fro * math.sqrt(trace_m) / math.sqrt(p - k - 1)
    try:
        total_frobenius_sq = dep_frobenius**2 + sampling_frobenius**2
    except OverflowError:
        total_frobenius_sq = math.inf
    total_spectral = dep_spectral + sampling_spectral
    if not math.isfinite(total_spectral + total_frobenius_sq):
        raise ValueError('the tangent moment constants overflow: the projected covariance is too ill-conditioned')
    return TangentMomentConstants(dep_spectral, dep_frobenius, sampling_spectral, sampling_frobenius,
                                  total_spectral, total_frobenius_sq)


def mean_shift_term(sketch, head_norm, p) -> float:
    """Extra bound term caused by a nonzero sketch mean; 0 for a centered one.

    Requires ``p < rank(covariance)`` when the mean is nonzero.
    """
    if not np.any(sketch.mean):
        return 0.0
    r = sketch.rank
    if p >= r:
        raise ValueError(f'nonzero-mean term requires p < rank of the covariance, got p={p}, rank={r}')
    scale = spectral_norm(sketch.mean) / math.sqrt(sketch.min_nonzero_eigenvalue)
    return rsvd._pinv_moments(p, r)[1] * scale * head_norm


@dataclass(frozen=True)
class ExpectationBoundReport:
    """Evaluated expectation bound with its intermediate constants."""

    norm: str
    variant: str
    k: int
    p: int
    mean_term: float
    constants: dict
    bound: float

    def as_dict(self):
        return asdict(self)


def _check_sketch_rows(factors: SvdFactors, sketch):
    """Raise ``ValueError`` unless ``sketch``, a :class:`GaussianSketch` or its mean, has a
    row per row of the ``A`` of ``factors``."""
    if sketch.shape[0] != factors.rows:
        raise ValueError(f'sketch has {sketch.shape[0]} rows, but A has {factors.rows}')


def project_sketch(factors: SvdFactors, sketch, k, p) -> ProjectedCovariance:
    """Check a bound request by :func:`rsvd._check_request` and project the covariance of
    its :class:`GaussianSketch`; anything else raises ``TypeError``, since on the RSVD sketch
    the theorems are the closed forms of :mod:`rsvd` (HMT 2011, section 10).

    Every theorem variant of one ``(factors, sketch, k, p)`` request needs the
    same projection, so it can be built once and passed to each of them as
    their optional ``projection``; without it, each variant builds its own.
    """
    if not isinstance(sketch, GaussianSketch):
        raise TypeError(f'the theorem bounds take a GaussianSketch, not {type(sketch).__name__}: on the RSVD sketch '
                        'they are the closed forms of sketchbound.rsvd, or pass rsvd_distribution(factors, q, p)')
    rsvd._check_request(factors.sigma, k, p, 0)
    _check_sketch_rows(factors, sketch)
    if sketch.shape[1] != p:
        raise ValueError(f'sketch has {sketch.shape[1]} columns, expected p={p}')
    return project_covariance(sketch.covariance, factors, k)


def expected_frobenius_gap_bound(factors, sketch, k, p, projection=None) -> ExpectationBoundReport:
    """Expectation bound on the Frobenius residual gap (unsquared metric)."""
    pc = project_sketch(factors, sketch, k, p) if projection is None else projection
    return _frobenius_report(pc, factors, sketch, k, p, squared=False)


def expected_frobenius_gap_sq_bound(factors, sketch, k, p, projection=None) -> ExpectationBoundReport:
    """Tighter bound on the squared Frobenius gap; centered sketches only."""
    pc = project_sketch(factors, sketch, k, p) if projection is None else projection
    if np.any(sketch.mean):
        raise ValueError('the squared-gap bound requires a zero-mean sketch')
    return _frobenius_report(pc, factors, sketch, k, p, squared=True)


def _frobenius_report(pc, factors, sketch, k, p, squared):
    """``mean_term + rsvd._frobenius_min(a_k, b_k, k, sigma_1, squared)``, for the Frobenius tangent constants
    weighted by ``diag(sigma_head)`` and by the identity; ``squared`` takes only a centered sketch, whose term is 0."""
    sig_head = factors.sigma_head(k)
    a_k = tangent_norm_constants(pc, np.diag(sig_head), p).total_frobenius_sq
    b_k = tangent_norm_constants(pc, np.eye(k), p).total_frobenius_sq
    mean_term = mean_shift_term(sketch, frobenius_norm(np.diag(sig_head)), p)
    bound = mean_term + rsvd._frobenius_min(a_k, b_k, k, float(sig_head[0]), squared)
    return ExpectationBoundReport(
        norm='frobenius', variant='thm3_squared' if squared else 'thm3', k=k, p=p, mean_term=mean_term,
        constants={'a_k': a_k, 'b_k': b_k}, bound=bound,
    )


def expected_spectral_gap_bound(factors, sketch, k, p, projection=None) -> ExpectationBoundReport:
    """Expectation bound on the spectral residual gap."""
    pc = project_sketch(factors, sketch, k, p) if projection is None else projection
    return _spectral_report(pc, factors, sketch, k, p, factors.sigma_head(k), 'thm4', ('c_k', 'd_k'))


def expected_spectral_tail_bound(factors, sketch, k, p, projection=None) -> ExpectationBoundReport:
    """Improved spectral bound on ``E||(I - pi(Z)) A||_2 - sigma_{k+1}``.

    Uses the deflated head spectrum; its identity-weighted constant equals
    the one of the plain spectral bound.
    """
    pc = project_sketch(factors, sketch, k, p) if projection is None else projection
    deflated = np.sqrt(np.clip(factors.sigma_head(k)**2 - factors.next_sigma(k)**2, 0.0, None))
    return _spectral_report(pc, factors, sketch, k, p, deflated, 'thm5', ('c_hat_k', 'd_hat_k'))


def _spectral_report(pc, factors, sketch, k, p, weights, variant, names):
    """``mean_term + min(c, phi(d) w_1)`` for head weights ``w``, with ``c``
    and ``d`` the spectral tangent constants weighted by ``diag(w)`` and by
    the identity; the mean term rests on ``sigma_1`` whatever ``w`` is."""
    c = tangent_norm_constants(pc, np.diag(weights), p).total_spectral
    d = tangent_norm_constants(pc, np.eye(k), p).total_spectral
    mean_term = mean_shift_term(sketch, float(factors.sigma_head(k)[0]), p)
    bound = mean_term + min(c, phi(d) * float(weights[0]))
    return ExpectationBoundReport(
        norm='spectral', variant=variant, k=k, p=p, mean_term=mean_term,
        constants=dict(zip(names, (c, d))), bound=bound,
    )
