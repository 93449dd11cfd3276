"""The forward error of every closed-form bound, against a 60-digit reference.

``oracle.py`` evaluates ``cor_frobenius``, ``cor_spectral``, ``cor_spectral_improved``
(with ``ell``) and the three HMT baselines in 60-digit arithmetic, from the formulas.
Here about 300 seeded requests (``n`` from 12 to 200, ``k <= 9``, ``p - k`` from 2
to 13, ``q <= 3``, on polynomial, geometric and log-uniform spectra scaled by 2^c,
``|c| <= 100``) assert, for each value and constant,

    |float - oracle| <= c u kappa |oracle|,      u = eps / 2 = 2^-53,

with ``c`` counted from the operations of the float evaluation, not fitted.

The error model (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 2-4):
every ``+ - * /`` and ``sqrt`` of floats rounds once, relative error at most ``u``;
``x ** m`` (C ``pow``) rounds within one ulp, ``2u``, and carries ``m`` times the
relative error of ``x``; a ``sqrt`` halves the relative error of its argument; a
sum of ``m`` positive terms, in any order, adds ``gamma_{m-1} ~ (m - 1) u`` to the
largest relative error of its terms; ``math.e`` is ``e`` rounded once.  The spectrum
is exact in both evaluations.  Counting to first order in ``u`` (the second-order
terms are below ``c^2 u^2``, under 1e-26 here):

* ``cor_frobenius``.  A head ratio ``gamma_i = sigma_{k+1} / sigma_i``: ``u``; its
  power ``m = 4q`` or ``4q + 2``: ``(m + 2) u``; the ``k``-term head sums ``(4q + 1 + k) u``
  and ``(4q + 3 + k) u``; the tail sum of ``(sigma_j / sigma_{k+1})^(4q+2)`` over ``n - k``
  terms: ``(4q + 3 + n - k) u``.  ``a_k`` and ``b_k`` add four and two roundings of
  products and quotients: ``(8q + n + 8) u`` each.  ``sqrt(a_k)``: half of that plus
  ``u``; the sine branch ``sqrt(k) phi(sqrt(b_k / k)) sigma_1``: half of ``b_k``'s plus
  ``7.5 u`` (``phi`` has condition number ``1 / (1 + x^2) <= 1`` and rounds 4 times,
  3u in all).  The ``min`` of two branches errs by at most the larger branch error.
  So ``c = 8q + n + 12``.
* ``cor_spectral``.  ``c_k``'s first term ``(2q + k/2 + 4.5) u``; the tail root
  ``sqrt(sum (sigma_j / sigma_k)^(4q+2))`` ``(2q + (n-k)/2 + 2.5) u``; HMT's ``e sqrt(p) /
  (p - k)`` ``4u``; the second term ``(2q + (n-k)/2 + 8.5) u``; their sum one ``u`` more.
  ``d_k`` likewise, ``(2q + n/2 + 8.5) u``, and ``phi(d_k) sigma_1`` 4u more.  So
  ``c = 2q + n/2 + 13``.
* ``cor_spectral_improved``.  Here ``1 - gamma_i^2`` cancels: ``gamma_i^2`` carries
  ``3u`` (``gamma_i``'s, doubled, and its own rounding), so ``1 - gamma_i^2`` carries
  ``(3 kappa_i + 1) u`` with ``kappa_i = gamma_i^2 / (1 - gamma_i^2)``, largest at
  ``i = k``.  ``c_hat_k`` counts ``(2q + n/2 + 12 + 1.5 kappa_k) u``, ``d_hat_k`` is
  ``d_k``, and the deflated ``sqrt(sigma_1^2 - sigma_{k+1}^2)`` carries ``(2 + kappa_1)
  u``, so ``phi(d_hat_k)`` times it ``(2q + n/2 + 14.5 + kappa_1) u``.  With
  ``kappa = 1 / (1 - gamma_k^2) = 1 + kappa_k`` and ``c = 2q + n/2 + 15``, ``c kappa``
  covers every one of them.
* ``hmt_frobenius``: ``k / (p - k - 1)``, one more ``+ 1`` and a root: ``2u``; the
  tail root ``((n - k) / 2 + 1) u``; the product ``u``: ``c = n/2 + 4``.
* ``hmt_spectral``: the first term ``3.5u``, the second ``((n - k)/2 + 6) u``, the sum
  ``u``: ``c = n/2 + 7``.
* ``hmt_power``: the base ``1 + sqrt(k/r) + e sqrt(p)/(p - k) sqrt(sum (sigma_j /
  sigma_{k+1})^(4q+2))`` carries ``(2q + (n-k)/2 + 8.5) u``; the power ``1 / (2q + 1)``
  divides it, rounds within ``2u``, and its rounded exponent adds ``ln(base) u``, with
  ``base <= 1 + 3 + 6.4 sqrt(200) < 95`` here, so ``ln(base) < 5``; the last product
  ``u``: ``c = 2q + n/2 + 17``.

Every ``kappa`` is 1 but ``cor_spectral_improved``'s.  ``ell`` is the argmax of
``sqrt(1 - gamma_i^2) (sigma_k / sigma_i)^(2q)``, each entry of which the library
computes within ``e_i = (1.5 kappa_i + 2q + 5.5) u``: so it must equal the oracle's
wherever the oracle's largest entry exceeds each other one by more than both their
error bounds.  At a nearer tie either index is right, and the oracle is evaluated at
the library's ``ell``, which must be one of the tied entries.
"""

import mpmath
import numpy as np

import oracle
from sketchbound import rsvd
from sketchbound.rsvd import SpectrumProfile

U = np.finfo(float).eps / 2


def spectrum(rng, family, n):
    """A descending spectrum of ``n`` values of the named family, scaled by ``2^c``, ``|c| <= 100``."""
    j = np.arange(1, n + 1, dtype=float)
    if family == 'polynomial':
        sigma = j ** -rng.uniform(0.5, 3.0)
    elif family == 'geometric':
        sigma = rng.uniform(0.5, 0.99) ** (j - 1)
    else:
        sigma = np.sort(np.exp(rng.uniform(np.log(1e-6), 0.0, n)))[::-1]
    return np.ldexp(sigma, int(rng.integers(-100, 101)))


def requests(count=300):
    rng = np.random.default_rng(26)
    for index in range(count):
        n, k, q = int(rng.integers(12, 201)), int(rng.integers(1, 10)), int(rng.integers(0, 4))
        p = k + int(rng.integers(2, min(13, n - k) + 1))
        family = ('polynomial', 'geometric', 'log-uniform')[index % 3]
        yield f'{index}-{family}-n{n}-k{k}-p{p}-q{q}', spectrum(rng, family, n), k, p, q


REQUESTS = list(requests())


def gamma_sq(sigma, k):
    """``gamma_i^2 = (sigma_{k+1} / sigma_i)^2`` over the head ``i = 1..k``."""
    return [(float(sigma[k]) / float(sigma[i])) ** 2 for i in range(k)]


def oracle_ell(sigma, k, q, ell):
    """The oracle's ``ell``, or ``ell``, the library's, where the largest deflated weight is
    not clear of another by both their error bounds; and whether the library's is right."""
    weights = oracle.deflated_weights(sigma, k, q)
    errors = [(1.5 * g / (1.0 - g) + 2 * q + 5.5) * U for g in gamma_sq(sigma, k)]
    best = oracle.peak_index(sigma, k, q) - 1
    with mpmath.workdps(oracle.DIGITS):
        tied = [i for i in range(k) if weights[i] * (1 + errors[i]) >= weights[best] * (1 - errors[best])]
    return (ell, ell - 1 in tied) if len(tied) > 1 else (best + 1, ell == best + 1)


def excess(got, want, c, kappa=1.0):
    """``|got - want| / (c u kappa |want|)``: above 1 where the float value errs by more than allowed."""
    with mpmath.workdps(oracle.DIGITS):
        return float(abs(mpmath.mpf(got) - want) / (c * U * kappa * abs(want)))


def request_errors(sigma, k, p, q):
    """``{(variant, key): excess}`` for every value and constant of one request, and
    whether the library's ``ell`` is right."""
    n, profile = sigma.size, SpectrumProfile(sigma, k, p, q)
    improved = rsvd.improved_spectral_bound(profile)
    ell, ell_right = oracle_ell(sigma, k, q, improved.constants['ell'])
    kappa = 1.0 / (1.0 - gamma_sq(sigma, k)[-1])
    checks = [
        ('cor_frobenius', rsvd.frobenius_bound(profile), oracle.cor_frobenius(sigma, k, p, q), 8 * q + n + 12, 1.0),
        ('cor_spectral', rsvd.spectral_bound(profile), oracle.cor_spectral(sigma, k, p, q), 2 * q + n / 2 + 13, 1.0),
        ('cor_spectral_improved', improved, oracle.cor_spectral_improved(sigma, k, p, q, ell),
         2 * q + n / 2 + 15, kappa),
    ]
    errors = {}
    for name, report, want, c, kap in checks:
        values = {'bound': report.bound, **report.constants}
        errors.update({(name, key): excess(values[key], value, c, kap) for key, value in want.items() if key != 'ell'})
    for name, args, c in (('hmt_frobenius', (k, p), n / 2 + 4), ('hmt_spectral', (k, p), n / 2 + 7),
                          ('hmt_power', (k, p, q), 2 * q + n / 2 + 17)):
        errors[name, 'bound'] = excess(getattr(rsvd, name)(sigma, *args), getattr(oracle, name)(sigma, *args), c)
    return errors, ell_right


def test_the_requests_span_the_stated_ranges():
    shapes = [(sigma.size, k, p, q) for _, sigma, k, p, q in REQUESTS]
    assert len(shapes) == 300
    assert min(n for n, *_ in shapes) >= 12 and max(n for n, *_ in shapes) <= 200
    assert {k for _, k, _, _ in shapes} == set(range(1, 10))
    assert {p - k for _, k, p, _ in shapes} == set(range(2, 14))
    assert {q for *_, q in shapes} == {0, 1, 2, 3}
    assert all(max(gamma_sq(sigma, k)) < 1.0 for _, sigma, k, _, _ in REQUESTS)  # so every kappa is finite


def test_every_closed_form_is_within_its_derived_forward_error():
    worst, wrong_ell = {}, []
    for request_id, sigma, k, p, q in REQUESTS:
        errors, ell_right = request_errors(sigma, k, p, q)
        if not ell_right:
            wrong_ell.append(request_id)
        for key, value in errors.items():
            if value > worst.get(key, (-1.0, None))[0]:
                worst[key] = value, request_id
    assert wrong_ell == []
    assert {key: value for key, value in worst.items() if value[0] > 1.0} == {}
    assert len(worst) == 3 * 3 + 3  # every value and constant of the six variants was compared
