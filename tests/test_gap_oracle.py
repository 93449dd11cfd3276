"""The forward error of the per-sample residual gaps, and below of the per-sample bounds
(derived in :func:`test_every_bound_is_within_its_derived_forward_error`), against a
60-digit reference.

``oracle.lhs_gaps`` evaluates the Frobenius, spectral and deflated gaps of a float
``A`` and ``Z`` in 60-digit arithmetic, from the residual ``(I - P_Z) A`` itself.
Here 27 seeded instances (tall 12x8, wide 8x12 and square 10x10 ``A`` with a
``j^-1`` spectrum, ``Z = (A A^T)^q A G`` at ``q <= 2``, ``1 <= k``, ``k + 2 <= p < r``)
assert, for each gap that ``residual_gap_squared`` and ``deflated_spectral_gap_bound``
report,

    |float - oracle| <= c eps sigma_1^2 kappa,
    kappa = kappa_2(Z) + 1 + 2 sigma_1 / (sigma_k - sigma_{k+1}),

with ``c`` counted from the steps of the float evaluation, not fitted.  To first
order in ``eps``, for an ``m x n`` ``A`` of rank ``r`` and ``P = P_Z``
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3 and 19; Wedin's
theorem on the perturbation of singular subspaces):

* ``orthonormal_basis(Z)``.  LAPACK's SVD is backward stable: ``Q_Z`` spans
  ``range(Z + dZ)`` with ``||dZ||_2 <= (m + n) eps ||Z||_2``, so ``||dP||_2 <=
  (m + n) eps kappa_2(Z)``.  A squared residual norm ``||(I - P) X||^2`` moves by at
  most ``2 ||X||^2 ||dP||_2``: the Frobenius gap, ``||(I - P) A_head||_F^2``, by
  ``2 k sigma_1^2 ||dP||_2``, the spectral gaps by ``(2 sigma_1^2 + 2 sigma_{k+1}^2)
  ||dP||_2``; at most ``4 k (m + n) eps sigma_1^2 kappa_2(Z)`` in all.
* ``linalg.svd(A)``.  The factors are an exact SVD of ``A + E`` with ``||E||_2 <=
  2 (m + n) eps sigma_1``, half of it the backward error and half the distance of
  the computed ``U`` from an orthonormal one.  ``sigma_{k+1}`` moves by at most
  ``||E||_2`` (Weyl), the head ``A_head = U_k Sigma_k V_k^T`` by at most ``||E||_2 (1 +
  2 sigma_1 / (sigma_k - sigma_{k+1}))`` (Wedin, for both singular subspaces), and
  the tail by as much again.  The Frobenius gap moves by at most ``2 ||A_head||_F
  ||dA_head||_F <= 2 sqrt(k) sigma_1 sqrt(2k) ||dA_head||_2``, each spectral gap by at
  most ``2 sigma_1 (||E||_2 + ||dA_tail||_2)``: ``8 k (m + n) eps sigma_1^2 (1 + 2
  sigma_1 / (sigma_k - sigma_{k+1}))`` bounds both.
* ``B``, its sums and its Gram.  Each entry of ``Q_Z^T U[:, :r]`` is an ``m``-term
  inner product of unit vectors, off by at most ``m eps``, so ``||dB||_F <= m eps
  sqrt(p r) sigma_1 <= m n eps sigma_1`` and a squared norm or Gram of ``B`` moves by
  at most ``2 m n eps sigma_1^2``.  The Frobenius gap sums ``p k`` squares of total
  at most ``k sigma_1^2``: ``k^2 p eps sigma_1^2``.  Forming ``Sigma^2 - B^T B``, and
  ``eigvalsh`` of it (backward stable; these Grams take the dense branch), add
  ``2 r eps sigma_1^2``.

Since ``kappa >= 1``, ``c = 12 k (m + n) + 2 m n + k^2 p + 2 r`` covers the sum.  The
largest share of the allowance used was 4.4e-4.
"""

import numpy as np
import pytest

import oracle
from sketchbound import linalg
from sketchbound.deterministic import deflated_spectral_gap_bound, residual_gap_squared, sine_tangent_gap_bound

EPS = np.finfo(float).eps
SHAPES = {'tall': (12, 8), 'wide': (8, 12), 'square': (10, 10)}


def haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def instance(shape, q, seed):
    """``(A, Z, k)``: ``A`` of the named shape with the spectrum ``j^-1``, ``Z = (A A^T)^q A G``."""
    rows, cols = SHAPES[shape]
    rng = np.random.default_rng([26, rows, cols, q, seed])
    r = min(rows, cols)
    a = (haar(rng, rows)[:, :r] * np.arange(1, r + 1, dtype=float) ** -1.0) @ haar(rng, cols)[:, :r].T
    k = int(rng.integers(1, r - 3))
    z = a @ rng.standard_normal((cols, int(rng.integers(k + 2, r))))
    for _ in range(q):
        z = a @ (a.T @ z)
    return a, z, k


def allowance(a, z, k, factors):
    """``c eps sigma_1^2 kappa`` of the module docstring."""
    (m, n), p, r, sigma = a.shape, z.shape[1], factors.sigma.size, factors.sigma
    z_sigma = np.linalg.svd(z, compute_uv=False)
    kappa = z_sigma[0] / z_sigma[-1] + 1 + 2 * sigma[0] / (sigma[k - 1] - sigma[k])
    return (12 * k * (m + n) + 2 * m * n + k * k * p + 2 * r) * EPS * sigma[0] ** 2 * kappa


@pytest.mark.parametrize('q', (0, 1, 2))
@pytest.mark.parametrize('shape', SHAPES)
def test_every_gap_is_within_its_derived_forward_error(shape, q):
    for seed in range(3):
        a, z, k = instance(shape, q, seed)
        factors = linalg.svd(a)
        got = {which: residual_gap_squared(a, factors, z, k, which) for which in linalg.NORMS}
        got['deflated'] = deflated_spectral_gap_bound(a, factors, z, k).lhs_gap
        want, allowed = oracle.lhs_gaps(a, z, k), allowance(a, z, k, factors)
        assert sorted(got) == sorted(want)
        excess = {key: abs(got[key] - float(want[key])) / allowed for key in want}
        assert max(excess.values()) <= 1.0, (seed, k, excess)


def bound_allowance(a, z, k, factors):
    """``c eps sigma_1^2 kappa`` of :func:`test_every_bound_is_within_its_derived_forward_error`."""
    (m, n), p, sigma = a.shape, z.shape[1], np.append(factors.sigma, np.zeros(a.shape[0] - factors.sigma.size))
    omega_head, omega_tail = factors.left_head(k).T @ z, factors.left_tail(k).T @ z
    head_min = np.linalg.svd(omega_head, compute_uv=False)[-1]
    kappa_h, rho = np.linalg.norm(z) / head_min, np.linalg.norm(omega_tail) / head_min
    sep = min(np.min(np.abs(np.delete(sigma, i) - sigma[i])) for i in range(k))
    kappa = sigma[0] / sep * kappa_h * (1 + rho) ** 2 * sigma[0] ** 2 / (sigma[k - 1] ** 2 - sigma[k] ** 2)
    d0 = 8 * k * (m + n) + 2 * m * m + k * k + k * p + k + p
    return ((2 * k + 4) * d0 + 35 * k * (m + n)) * EPS * sigma[0] ** 2 * kappa


@pytest.mark.parametrize('q', (0, 1, 2))
@pytest.mark.parametrize('shape', SHAPES)
def test_every_bound_is_within_its_derived_forward_error(shape, q):
    """``bound_sine``, ``bound_tangent`` and ``bound`` of the three per-sample reports against
    ``oracle.per_sample_bounds``, on the instances above:

        |float - oracle| <= c eps sigma_1^2 kappa,
        kappa = kappa_U kappa_h (1 + rho)^2 kappa_D,

    with ``kappa_U = sigma_1 / sep``, ``sep = min_{i <= k, j != i} |sigma_i - sigma_j|`` over
    ``j <= m`` (``sigma_j = 0`` past the rank), ``kappa_h = ||Z||_F / sigma_min(Omega_head)``,
    ``rho = ||Omega_tail||_F / sigma_min(Omega_head)`` and ``kappa_D = sigma_1^2 / (sigma_k^2 -
    sigma_{k+1}^2)``, every factor at least 1, and ``c`` counted from the steps of the float
    evaluation, not fitted.  To first order in ``eps``, for an ``m x n`` ``A``, ``p`` columns
    and ``Omega = U^T Z`` (Higham, ch. 3, 19 and 20; Stewart and Sun, ch. V):

    * ``Omega``.  As for the gaps, the factors are an exact SVD of ``A + E``, ``||E||_2 <=
      2 (m + n) eps sigma_1``.  The weights of ``T W`` tell the head vectors apart, so each
      moves by at most ``2 ||E||_2 / sep``, and the head block by ``2 sqrt(k) ||E||_2 / sep``
      in Frobenius norm; the tail enters only through its range, which moves by at most twice
      that.  The products ``U^T Z`` are ``m``-term inner products (``m^(3/2) eps ||Z||_F``) and
      the completion of ``U`` is orthonormal to ``m^2 eps``.  The pseudo-inverse is backward
      stable (``(k + p) eps`` on ``Omega_head``) and assembled from its SVD (``k^2 eps``), and
      ``Omega_tail Omega_head^+`` rounds by ``k p eps`` of ``kappa_h (1 + 2 rho)``.  All of it
      is a relative error ``delta <= d0 eps kappa_U`` of ``Omega``, ``d0 = 8 k (m + n) + 2 m^2
      + k^2 + k p + k + p``.
    * ``T = Omega_tail Omega_head^+``.  For a head of full row rank ``d(M^+) = -M^+ dM M^+ +
      (I - M^+ M) dM^T (M M^T)^-1``, so ``||dT||_F <= kappa_h (1 + 2 rho) delta``, and ``||T||_F
      <= rho``.
    * ``bound_tangent = ||T W||^2``.  It moves by at most ``2 ||T W|| (||dT W|| + ||T dW||)``
      plus the rounding of ``T W`` and of its norm, ``2 (m k + m + k) eps ||T W||^2``.  The
      head weights move by at most ``||E||_2``, the deflated ones by ``(4 (m + n) + 2) eps
      sigma_1 kappa_D^(1/2)``.  With ``w_1 <= sigma_1``: ``(4 d0 + 2 m k + 10 m + 8 n + 2 k + 6)
      eps sigma_1^2 kappa``.
    * ``bound_sine = ||S||^2 w_1^2``.  ``phi`` is 1-Lipschitz, the singular values of ``T``
      move by ``||dT||_F`` plus the SVD's ``(m + k) eps ||T||_2``, and ``||S||^2 <= k``:
      ``(2 k d0 + 2 k (m + k) + 8 k (m + n) + 13 k) eps sigma_1^2 kappa``.

    ``bound`` is the smaller of the two, so it moves by at most the larger error.  With ``k <=
    m``, ``c = (2 k + 4) d0 + 35 k (m + n)`` covers both.
    """
    for seed in range(3):
        a, z, k = instance(shape, q, seed)
        factors = linalg.svd(a)
        reports = {'frobenius': sine_tangent_gap_bound(a, factors, z, k, 'frobenius'),
                   'spectral': sine_tangent_gap_bound(a, factors, z, k, 'spectral'),
                   'deflated': deflated_spectral_gap_bound(a, factors, z, k)}
        want, allowed = oracle.per_sample_bounds(a, z, k), bound_allowance(a, z, k, factors)
        assert sorted(reports) == sorted(want)
        excess = {f'{name}.{key}': abs(getattr(reports[name], key) - float(value)) / allowed
                  for name, values in want.items() for key, value in values.items()}
        assert max(excess.values()) <= 1.0, (seed, k, excess)
