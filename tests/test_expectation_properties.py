"""Property-based check of the theorem variants on the randomized-SVD sketch.

For ``Z = (A A^T)^q A G`` the covariance ``U diag(sigma^(4q+2)) U^T``
projects onto ``diag(sigma^(4q+2))``, and Theorems 3-5 reduce to the closed
forms of ``sketchbound.rsvd``: the paper's specialization.  It is checked on
the general code, the dense projection of ``rsvd_distribution``, whose theorem
reports are compared with the closed forms on ``SvdFactors(I, sigma, n)``, over
spectra spanning up to six decades, with ties at k, exactly zero tails and
q <= 3; the dense head rule may refuse a graded head, and nothing else.
Without a sketch, ``evaluate_bounds`` answers the theorem variants with their
corollaries: checked on a ``j^-2`` spectrum whose graded head the dense
projection refuses as singular, and on the thin factors of a tall matrix,
whose left factor is never completed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchbound.deterministic import phi
from sketchbound.experiments import evaluate_bounds
from sketchbound.linalg import RankDeficiencyError, SvdFactors, svd
from sketchbound.sketching import rsvd_distribution

THEOREMS = ('thm3', 'thm3_squared', 'thm4', 'thm5')
CLOSED_FORMS = ('cor_frobenius', 'cor_spectral', 'cor_spectral_improved')
REL_TOL = 1e-12


@st.composite
def spectra(draw):
    """``(sigma, k, p, q)``: singular values on a grid of 1/100 decade over six
    decades, so that distinct values differ by at least 2.3% and the deflated
    factors ``1 - (sigma_{k+1} / sigma_i)^2`` lose at most two digits to
    cancellation, optionally tied at k, with an exactly zero tail of any
    length that leaves the head positive."""
    n = draw(st.integers(3, 60))
    k = draw(st.integers(1, n - 2))
    p = draw(st.integers(k + 2, n))
    q = draw(st.integers(0, 3))
    steps = draw(st.lists(st.integers(0, 600), min_size=n, max_size=n))
    sigma = 10.0 ** (-np.sort(steps) / 100)
    if draw(st.booleans()):
        sigma[k] = sigma[k - 1]
    sigma[n - draw(st.integers(0, n - k)):] = 0.0
    return sigma, k, p, q


def diagonal(sigma):
    return SvdFactors(np.eye(sigma.size), sigma, sigma.size)


def assert_theorems_match_closed_forms(factors, k, p, q, theorems=None):
    """``theorems``, the theorem rows of a request, by default those of the RSVD sketch,
    match the closed forms."""
    reports = evaluate_bounds(CLOSED_FORMS, factors, k, p, q)
    reports.update(theorems or evaluate_bounds(THEOREMS, factors, k, p, q))
    a_k, b_k = reports['cor_frobenius']['a_k'], reports['cor_frobenius']['b_k']
    squared = min(a_k, k * phi(math.sqrt(b_k / k)) ** 2 * factors.sigma[0] ** 2)
    pairs = (
        ('thm3', reports['cor_frobenius']['bound']),
        ('thm3_squared', squared),
        ('thm4', reports['cor_spectral']['bound']),
        ('thm5', reports['cor_spectral_improved']['bound']),
    )
    for name, want in pairs:
        got = reports[name]['bound']
        assert abs(got - want) <= REL_TOL * max(abs(got), abs(want)), (name, got, want)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(spectra())
def test_theorem_variants_equal_the_closed_forms(request):
    sigma, k, p, q = request
    factors = diagonal(sigma)
    try:
        theorems = evaluate_bounds(THEOREMS, factors, k, p, q, rsvd_distribution(factors, q, p))
    except RankDeficiencyError:
        return  # the dense head rule refuses a head graded past RANK_TOL: the one refusal allowed
    assert_theorems_match_closed_forms(factors, k, p, q, theorems)


def test_graded_spectrum_the_dense_projection_refuses():
    n, k, p, q = 1000, 15, 30, 2
    factors = diagonal(np.arange(1, n + 1, dtype=float) ** -2.0)
    # the head diag(sigma^10) has condition number 15^20, past RANK_TOL
    with pytest.raises(RankDeficiencyError):
        evaluate_bounds(THEOREMS, factors, k, p, q, rsvd_distribution(factors, q, p))
    assert_theorems_match_closed_forms(factors, k, p, q)


def test_thin_factors_complete_no_left_factor(monkeypatch):
    rng = np.random.default_rng(30)
    u, _ = np.linalg.qr(rng.standard_normal((400, 20)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    factors = svd((u * 10.0 ** (-np.arange(20) / 10)) @ v.T)  # U is 400 x 20

    def refused(q):
        raise AssertionError('the left factor was completed')

    monkeypatch.setattr(SvdFactors, '_complete', staticmethod(refused))
    for q in (0, 1, 2):
        assert_theorems_match_closed_forms(factors, 5, 12, q)
