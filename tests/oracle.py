"""A 60-digit reference for the closed-form bounds, written from the formulas of the
paper's RSVD corollaries and of Halko, Martinsson and Tropp (HMT 2011, section 10),
and for the per-sample residual gaps and deterministic bounds, written from their
definitions (:func:`lhs_gaps`, :func:`per_sample_bounds`), not from the library's code.
Imported by ``test_closed_form_oracle.py`` and ``test_gap_oracle.py``; it holds no
tests of its own.

For ``Z = (A A^T)^q A G``, with ``G`` a standard Gaussian ``n x p`` matrix, the sketch
rotated into the singular basis of ``A`` has the head block ``Sigma_head^(2q+1) G_1``
and the tail block ``S G_2`` with ``S = Sigma_tail^(2q+1)``; ``G_1`` (``k x p``) and
``G_2`` are independent standard Gaussians.  Each constant is a moment of
``S G_2 G_1^+ W`` for a diagonal weight ``W`` of the head.  HMT's Prop. 10.1 and 10.2
give, with ``r = p - k - 1``:

    E||S G_2 G_1^+ W||_F^2 = ||S||_F^2 ||W||_F^2 / r
    E||S G_2 G_1^+ W||_2  <= ||S||_2 ||W||_F / sqrt(r) + ||S||_F ||W||_2 e sqrt(p) / (p - k)

The corollaries read them at three weights: ``Sigma_head^-2q`` (``a_k`` and ``c_k``),
``Sigma_head^-(2q+1)`` (``b_k``, ``d_k`` and ``d_hat_k``) and the deflated
``Sigma_head^-(2q+1) (Sigma_head^2 - sigma_{k+1}^2)^(1/2)`` (``c_hat_k``, whose
``||W||_2`` is attained at the 1-based head index ``ell``).  Every function takes the
spectrum as floats, converts each exactly and returns ``mpmath`` numbers.
"""

import mpmath

DIGITS = 60


def _phi(x):
    """The tangent-to-sine map ``x / sqrt(1 + x^2)``."""
    return x / mpmath.sqrt(1 + x * x)


def _spectrum(sigma, k, q):
    """``sigma`` as exact ``mpf``s, and the ``||S||_2``, ``||S||_F`` of ``S = Sigma_tail^(2q+1)``."""
    s = [mpmath.mpf(float(value)) for value in sigma]
    tail = [value ** (2 * q + 1) for value in s[k:]]
    return s, tail[0], mpmath.sqrt(mpmath.fsum(t * t for t in tail))


def _frobenius_moment(s_fro, w_fro, k, p):
    return s_fro**2 * w_fro**2 / (p - k - 1)


def _spectral_moment(s_two, s_fro, w_two, w_fro, k, p):
    return s_two * w_fro / mpmath.sqrt(p - k - 1) + s_fro * w_two * mpmath.e * mpmath.sqrt(p) / (p - k)


def cor_frobenius(sigma, k, p, q):
    """``a_k``, ``b_k`` and ``min(sqrt(a_k), sqrt(k) phi(sqrt(b_k / k)) sigma_1)``."""
    with mpmath.workdps(DIGITS):
        s, _, s_fro = _spectrum(sigma, k, q)
        a_k = _frobenius_moment(s_fro, mpmath.sqrt(mpmath.fsum(v ** (-4 * q) for v in s[:k])), k, p)
        b_k = _frobenius_moment(s_fro, mpmath.sqrt(mpmath.fsum(v ** (-4 * q - 2) for v in s[:k])), k, p)
        bound = min(mpmath.sqrt(a_k), mpmath.sqrt(k) * _phi(mpmath.sqrt(b_k / k)) * s[0])
        return {'a_k': a_k, 'b_k': b_k, 'bound': bound}


def _d_k(s, s_two, s_fro, k, p, q):
    """``d_k``: the spectral moment at the weight ``Sigma_head^-(2q+1)``."""
    w_fro = mpmath.sqrt(mpmath.fsum(v ** (-4 * q - 2) for v in s[:k]))
    return _spectral_moment(s_two, s_fro, s[k - 1] ** (-2 * q - 1), w_fro, k, p)


def cor_spectral(sigma, k, p, q):
    """``c_k``, ``d_k`` and ``min(c_k, phi(d_k) sigma_1)``."""
    with mpmath.workdps(DIGITS):
        s, s_two, s_fro = _spectrum(sigma, k, q)
        w_fro = mpmath.sqrt(mpmath.fsum(v ** (-4 * q) for v in s[:k]))
        c_k = _spectral_moment(s_two, s_fro, s[k - 1] ** (-2 * q), w_fro, k, p)
        d_k = _d_k(s, s_two, s_fro, k, p, q)
        return {'c_k': c_k, 'd_k': d_k, 'bound': min(c_k, _phi(d_k) * s[0])}


def deflated_weights(sigma, k, q):
    """The diagonal of the deflated weight, ``sigma_i^-(2q+1) sqrt(sigma_i^2 - sigma_{k+1}^2)``
    for the head ``i = 1..k``; ``ell`` is the 1-based index of its largest entry."""
    with mpmath.workdps(DIGITS):
        s = [mpmath.mpf(float(value)) for value in sigma[:k + 1]]
        return [v ** (-2 * q - 1) * mpmath.sqrt(v * v - s[k] ** 2) for v in s[:k]]


def peak_index(sigma, k, q):
    """``ell``: the 1-based index of the largest deflated weight, the first of equal ones."""
    weights = deflated_weights(sigma, k, q)
    with mpmath.workdps(DIGITS):
        return 1 + max(range(k), key=lambda i: (weights[i], -i))


def cor_spectral_improved(sigma, k, p, q, ell=None):
    """``c_hat_k``, ``d_hat_k``, ``ell`` and ``min(c_hat_k, phi(d_hat_k) sqrt(sigma_1^2 - sigma_{k+1}^2))``;
    given ``ell``, ``c_hat_k`` reads the weight's entry there instead of its largest."""
    with mpmath.workdps(DIGITS):
        s, s_two, s_fro = _spectrum(sigma, k, q)
        weights = deflated_weights(sigma, k, q)
        ell = peak_index(sigma, k, q) if ell is None else ell
        w_fro = mpmath.sqrt(mpmath.fsum(w * w for w in weights))
        c_hat = _spectral_moment(s_two, s_fro, weights[ell - 1], w_fro, k, p)
        d_hat = _d_k(s, s_two, s_fro, k, p, q)
        bound = min(c_hat, _phi(d_hat) * mpmath.sqrt(s[0] ** 2 - s[k] ** 2))
        return {'c_hat_k': c_hat, 'd_hat_k': d_hat, 'ell': ell, 'bound': bound}


def _hmt_terms(sigma, k, p, power):
    """HMT's ``1 + sqrt(k / (p - k - 1))``, ``e sqrt(p) / (p - k)`` and ``(sum_{j>k} sigma_j^(2 power))^(1/2)``."""
    s = [mpmath.mpf(float(value)) for value in sigma]
    tail = mpmath.sqrt(mpmath.fsum(v ** (2 * power) for v in s[k:]))
    return s, 1 + mpmath.sqrt(mpmath.mpf(k) / (p - k - 1)), mpmath.e * mpmath.sqrt(p) / (p - k), tail


def hmt_frobenius(sigma, k, p):
    """HMT Thm. 10.5: ``(1 + k / (p - k - 1))^(1/2) (sum_{j>k} sigma_j^2)^(1/2)``."""
    with mpmath.workdps(DIGITS):
        tail = _hmt_terms(sigma, k, p, 1)[3]
        return mpmath.sqrt(1 + mpmath.mpf(k) / (p - k - 1)) * tail


def hmt_spectral(sigma, k, p):
    """HMT Thm. 10.6: ``(1 + sqrt(k / (p - k - 1))) sigma_{k+1} + e sqrt(p) / (p - k) (sum_{j>k} sigma_j^2)^(1/2)``."""
    with mpmath.workdps(DIGITS):
        s, lead, wishart, tail = _hmt_terms(sigma, k, p, 1)
        return lead * s[k] + wishart * tail


def hmt_power(sigma, k, p, q):
    """HMT Cor. 10.10: the spectral bound of ``(A A^T)^q A``, whose singular values are
    ``sigma^(2q+1)``, to the power ``1 / (2q + 1)``."""
    with mpmath.workdps(DIGITS):
        s, lead, wishart, tail = _hmt_terms(sigma, k, p, 2 * q + 1)
        return (lead * s[k] ** (2 * q + 1) + wishart * tail) ** (mpmath.mpf(1) / (2 * q + 1))


def lhs_gaps(a, z, k):
    """The squared residual gaps of the per-sample reports, at 60 digits, for a float ``A``
    and sketch ``Z`` (both at most 12 on a side), each converted exactly:

        frobenius  ||(I - P_Z) A||_F^2 - ||(I - P_Z) A_tail||_F^2
        spectral   ||(I - P_Z) A||_2^2 - ||(I - P_Z) A_tail||_2^2
        deflated   ||(I - P_Z) A||_2^2 - sigma_{k+1}^2

    ``P_Z`` projects onto ``range(Z)``, through a QR of ``Z``; the residual norms are
    ``mp.svd_r``'s singular values of ``(I - P_Z) A`` and ``(I - P_Z) A_tail``, where
    ``A_tail = A - U_k Sigma_k V_k^T`` comes from ``mp.svd_r`` of ``A`` and
    ``sigma_{k+1}`` is 0 past the end of the spectrum."""
    with mpmath.workdps(DIGITS):
        a, z = mpmath.matrix(a.tolist()), mpmath.matrix(z.tolist())
        q = mpmath.qr(z, mode='skinny')[0]
        u, s, vt = mpmath.svd_r(a)  # s descending
        head = u[:, :k] * mpmath.diag([s[j] for j in range(k)]) * vt[:k, :]

        def residual(m):
            values = mpmath.svd_r(m - q * (q.T * m), compute_uv=False)
            return mpmath.fsum(v * v for v in values), max(values) ** 2
        full_fro, full_two = residual(a)
        tail_fro, tail_two = residual(a - head)
        s_next = s[k] if k < len(s) else mpmath.mpf(0)
        return {'frobenius': full_fro - tail_fro, 'spectral': full_two - tail_two,
                'deflated': full_two - s_next**2}


def _norm_sq(m, which):
    """``||m||_F^2`` or ``||m||_2^2``, from ``mp.svd_r``'s singular values."""
    values = mpmath.svd_r(m, compute_uv=False)
    return mpmath.fsum(v * v for v in values) if which == 'frobenius' else max(values) ** 2


def per_sample_bounds(a, z, k):
    """``bound_sine``, ``bound_tangent`` and ``bound`` of the three per-sample reports, at
    60 digits, for a float ``A`` and sketch ``Z`` (both at most 12 on a side), each converted
    exactly, and a head block ``Omega_head`` of full row rank.  With ``U Sigma V^T`` the full
    ``mp.svd_r`` of ``A`` and ``Omega = U^T Z`` split after its ``k``-th row, the paper's

        T = Omega_tail Omega_head^+,   Omega_head^+ = Omega_head^T (Omega_head Omega_head^T)^-1,
        S = (I + T T^T)^(-1/2) T,      through ``mp.eigsy`` of ``I + T T^T``,

    and, for head weights ``W = diag(w)``,

        bound_sine = ||S||^2 w_1^2,   bound_tangent = ||T W||^2,   bound = min of the two;

    ``frobenius`` and ``spectral`` take ``w = Sigma_head`` in their norm, ``deflated`` the
    spectral norm and ``w = (Sigma_head^2 - sigma_{k+1}^2)^(1/2)``, ``sigma_{k+1}`` 0 past
    the end of the spectrum."""
    with mpmath.workdps(DIGITS):
        a, z = mpmath.matrix(a.tolist()), mpmath.matrix(z.tolist())
        u, s = mpmath.svd_r(a, full_matrices=True)[:2]
        omega = u.T * z
        head, tail = omega[:k, :], omega[k:, :]
        t = tail * (head.T * mpmath.inverse(head * head.T))
        values, vectors = mpmath.eigsy(mpmath.eye(t.rows) + t * t.T)
        sine = vectors * mpmath.diag([1 / mpmath.sqrt(v) for v in values]) * vectors.T * t
        s_next = s[k] if k < len(s) else mpmath.mpf(0)
        plain = [s[i] for i in range(k)]
        weights = {'frobenius': plain, 'spectral': plain, 'deflated': [mpmath.sqrt(v * v - s_next**2) for v in plain]}
        reports = {}
        for name, w in weights.items():
            which = 'frobenius' if name == 'frobenius' else 'spectral'
            bound_sine = _norm_sq(sine, which) * w[0] ** 2
            bound_tangent = _norm_sq(t * mpmath.diag(w), which)
            reports[name] = {'bound_sine': bound_sine, 'bound_tangent': bound_tangent,
                             'bound': min(bound_sine, bound_tangent)}
        return reports
