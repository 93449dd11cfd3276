"""Closed-form expectation bounds for the randomized SVD sketch.

For ``Z = (A A^T)^q A G`` every bound constant reduces to sums of powers of
singular-value ratios, so the bounds become functions of the spectrum alone.
The reference baselines of Halko, Martinsson and Tropp are included for
comparison: they bound the full residual norm ``E||(I - pi(Z)) A||``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .linalg import PINV_TOL, _check_powers, _check_spectrum, phi

__all__ = [
    'RsvdBoundReport',
    'SpectrumProfile',
    'frobenius_bound',
    'hmt_frobenius',
    'hmt_power',
    'hmt_spectral',
    'improved_spectral_bound',
    'peak_index',
    'spectral_bound',
]


@dataclass(frozen=True)
class SpectrumProfile:
    """Spectrum plus sketch parameters (target rank k, columns p, powers q):
    ``sigma`` passes the one spectrum rule, ``linalg._check_spectrum``, and ``(k, p, q)``
    passes :func:`_check_request`; trailing zeros represent a rank-deficient tail."""

    sigma: np.ndarray
    k: int
    p: int
    q: int

    def __post_init__(self):
        sigma = _check_spectrum(self.sigma)
        object.__setattr__(self, 'sigma', sigma)
        _check_request(sigma, self.k, self.p, self.q)

    @classmethod
    def from_spectrum(cls, sigma, k, p, q):
        """Build a profile from a spectrum that passes the rule, zeroing values below ``PINV_TOL * sigma[0]``."""
        sigma = _check_spectrum(sigma).copy()
        if sigma[0] > 0:
            sigma[sigma <= PINV_TOL * sigma[0]] = 0.0
        return cls(sigma, k, p, q)

    def head(self):
        return self.sigma[:self.k]

    def positive_tail(self):
        tail = self.sigma[self.k:]
        return tail[tail > 0]


def _check_parameters(k, p, q):
    """The part of :func:`_check_request` that needs no spectrum, asked before one is loaded."""
    _check_powers(q)
    if not 1 <= k <= p - 2:
        raise ValueError(f'need 1 <= k <= p - 2, got k={k}, p={p}')


def _check_request(sigma, k, p, q):
    """Raise ``ValueError`` unless ``(k, p, q)`` on the descending spectrum ``sigma``
    of ``A`` has a bound: the one rule of bounds, empirical errors and sweep cells.

    It asks ``q >= 0``, ``1 <= k <= p - 2`` (the inverse-Wishart moment of HMT 2011,
    section 10, divides by ``p - k - 1``), ``p <= sigma.size`` and ``sigma_k >
    PINV_TOL * sigma_1``, i.e. ``rank(A) >= k``.  The derivation also assumes ``p <=
    min(rank(A), rank(C))``, deliberately not enforced: the bounds need only a
    nonsingular projected head block (checked by the projection) and stay valid
    for rank-deficient tails.
    """
    _check_parameters(k, p, q)
    sigma = np.asarray(sigma, dtype=float)
    if p > sigma.size:
        raise ValueError(f'p={p} exceeds the spectrum length {sigma.size}')
    if not sigma[k - 1] > PINV_TOL * sigma[0]:
        raise ValueError(f'need rank(A) >= k={k}: sigma_k={sigma[k - 1]:.3e} is not above {PINV_TOL:g} sigma_1')


@dataclass(frozen=True)
class RsvdBoundReport:
    """Closed-form bound value with its constants."""

    norm: str
    variant: str
    k: int
    p: int
    q: int
    constants: dict
    bound: float

    def as_dict(self):
        return asdict(self)


def _head_gamma_sums(profile: SpectrumProfile):
    head = profile.head()
    s_next = float(profile.sigma[profile.k])
    gam = s_next / head
    e1 = 4 * profile.q + 2
    return gam, float(np.sum(gam ** (4 * profile.q))), float(np.sum(gam**e1))


def _tail_ratio_sum(profile: SpectrumProfile, ref):
    """``sum((sigma_i / ref)^(4q+2))`` over the positive tail; 0 for an empty tail."""
    tail = profile.positive_tail()
    if tail.size == 0:
        return 0.0
    return float(np.sum((tail / ref) ** (4 * profile.q + 2)))


def _pinv_moments(k, p):
    """For a standard Gaussian ``k x p`` matrix ``G``, HMT 2011's ``E||G^+||_F^2 = k / (p - k - 1)``
    (Prop. 10.1), infinite at ``p = k + 1``, and bound ``e sqrt(p) / (p - k)`` on ``E||G^+||_2`` (Prop. 10.2)."""
    frobenius_sq = k / (p - k - 1) if p > k + 1 else math.inf
    return frobenius_sq, math.e * math.sqrt(p) / (p - k)


def _frobenius_min(a_k, b_k, k, top, squared=False):
    """The Frobenius bounds' ``min(sqrt(a_k), sqrt(k) phi(sqrt(b_k / k)) top)``, or the minimum of the squares."""
    sine = phi(math.sqrt(b_k / k))
    return min(a_k, k * sine**2 * top**2) if squared else min(math.sqrt(a_k), math.sqrt(k) * sine * top)


def frobenius_bound(profile: SpectrumProfile) -> RsvdBoundReport:
    """Frobenius-norm expectation bound for the randomized SVD."""
    k, p, q = profile.k, profile.p, profile.q
    s = profile.sigma
    s_next = float(s[k])
    _, head_4q, head_4q2 = _head_gamma_sums(profile)
    tail_sum = _tail_ratio_sum(profile, s_next)  # 0 for the empty positive tail of sigma_{k+1} = 0
    a_k = s_next**2 / (p - k - 1) * tail_sum * head_4q
    b_k = tail_sum * head_4q2 / (p - k - 1)
    bound = _frobenius_min(a_k, b_k, k, float(s[0]))
    return RsvdBoundReport(
        norm='frobenius', variant='frobenius', k=k, p=p, q=q,
        constants={'a_k': a_k, 'b_k': b_k}, bound=bound,
    )


def spectral_bound(profile: SpectrumProfile) -> RsvdBoundReport:
    """Spectral-norm expectation bound for the randomized SVD."""
    k, p, q = profile.k, profile.p, profile.q
    s = profile.sigma
    s_next = float(s[k])
    s_k = float(s[k - 1])
    _, head_4q, head_4q2 = _head_gamma_sums(profile)
    tail_k = math.sqrt(_tail_ratio_sum(profile, s_k))
    _, wishart = _pinv_moments(k, p)
    c_k = s_next / math.sqrt(p - k - 1) * math.sqrt(head_4q) + s_k * tail_k * wishart
    d_k = math.sqrt(head_4q2) / math.sqrt(p - k - 1) + tail_k * wishart
    bound = min(c_k, phi(d_k) * float(s[0]))
    return RsvdBoundReport(
        norm='spectral', variant='spectral', k=k, p=p, q=q,
        constants={'c_k': c_k, 'd_k': d_k}, bound=bound,
    )


def peak_index(profile: SpectrumProfile) -> int:
    """1-based head index maximizing ``sqrt(1 - gamma_i^2) (sigma_k / sigma_i)^(2q)``, with
    ``gamma_i = sigma_{k+1} / sigma_i``; ties break toward the smaller index.  The vector
    reads only ratios, so no scale of the spectrum overflows it."""
    head = profile.head()
    gam = float(profile.sigma[profile.k]) / head
    values = np.sqrt(np.clip(1.0 - gam**2, 0.0, None)) * (head[-1] / head) ** (2 * profile.q)
    return int(np.argmax(values)) + 1


def improved_spectral_bound(profile: SpectrumProfile) -> RsvdBoundReport:
    """Improved spectral bound on ``E||(I - pi(Z)) A||_2 - sigma_{k+1}``."""
    k, p, q = profile.k, profile.p, profile.q
    s = profile.sigma
    s_next = float(s[k])
    head = profile.head()
    gam, _, head_4q2 = _head_gamma_sums(profile)
    one_minus = np.clip(1.0 - gam**2, 0.0, None)
    ell = peak_index(profile)
    s_ell = float(head[ell - 1])
    _, wishart = _pinv_moments(k, p)
    c_hat_k = (
        s_next / math.sqrt(p - k - 1) * math.sqrt(float(np.sum(gam ** (4 * q) * one_minus)))
        + math.sqrt(one_minus[ell - 1]) * s_ell * math.sqrt(_tail_ratio_sum(profile, s_ell)) * wishart
    )
    d_hat_k = (
        math.sqrt(head_4q2) / math.sqrt(p - k - 1)
        + math.sqrt(_tail_ratio_sum(profile, float(head[k - 1]))) * wishart
    )
    deflated_top = math.sqrt(max(float(s[0]) ** 2 - s_next**2, 0.0))
    bound = min(c_hat_k, phi(d_hat_k) * deflated_top)
    return RsvdBoundReport(
        norm='spectral', variant='spectral_improved', k=k, p=p, q=q,
        constants={'c_hat_k': c_hat_k, 'd_hat_k': d_hat_k, 'ell': ell}, bound=bound,
    )


def _tail_norm_sq(sigma, k):
    """``sum(sigma[k:]^2)``; inf, without a warning, where the squares overflow."""
    tail = np.asarray(sigma, dtype=float)[k:]
    with np.errstate(over='ignore'):
        return float(np.sum(tail**2))


def hmt_frobenius(sigma, k, p) -> float:
    """Reference baseline on ``E||(I - pi(Z)) A||_F`` for the plain sketch."""
    _check_request(sigma, k, p, 0)
    return math.sqrt(1.0 + _pinv_moments(k, p)[0]) * math.sqrt(_tail_norm_sq(sigma, k))


def hmt_spectral(sigma, k, p) -> float:
    """Reference baseline on ``E||(I - pi(Z)) A||_2`` for the plain sketch."""
    _check_request(sigma, k, p, 0)
    frobenius_sq, wishart = _pinv_moments(k, p)
    return (1.0 + math.sqrt(frobenius_sq)) * float(sigma[k]) + wishart * math.sqrt(_tail_norm_sq(sigma, k))


def hmt_power(sigma, k, p, q) -> float:
    """Reference spectral baseline under q power iterations.

    Computed in ratio form so that tiny spectra cannot underflow.
    """
    _check_request(sigma, k, p, q)
    s_next = float(sigma[k])
    if s_next == 0.0:
        return 0.0
    tail = np.asarray(sigma[k:], dtype=float)
    tail = tail[tail > 0]
    ratio_sum = float(np.sum((tail / s_next) ** (2 * (2 * q + 1))))
    frobenius_sq, wishart = _pinv_moments(k, p)
    return s_next * (1.0 + math.sqrt(frobenius_sq) + wishart * math.sqrt(ratio_sum)) ** (1.0 / (2 * q + 1))
