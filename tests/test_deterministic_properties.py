"""Property-based checks of the per-sample deterministic bounds.

The bounds hold for every sample, with no statistical slack, so they are
checked on drawn instances: random shapes, rank-deficient A, every target
rank k up to min(p, rows, cols), and plain Gaussian or power sketches.
The residual gap is also compared with a dense oracle that forms the
m x n residuals of A and of its tail explicitly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from sketchbound.deterministic import deflated_spectral_gap_bound, sine_tangent_gap_bound
from sketchbound.linalg import norm, orthonormal_basis, svd

GAP_TOL = 1e-9


def _haar(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@st.composite
def instances(draw):
    """``(A, Z, k)``: A of the drawn rank with singular values in [0.25, 2],
    and Z either Gaussian (q is None) or ``(A A^T)^q A G``."""
    rows, cols = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    rank = draw(st.integers(1, min(rows, cols)))
    q = draw(st.sampled_from((None, 0, 1, 2)))
    # a power sketch has rank at most rank(A), so its columns stop there
    p = draw(st.integers(1, rows if q is None else rank))
    k = draw(st.integers(1, min(p, rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = np.sort(rng.uniform(0.25, 2.0, rank))[::-1]
    a = (_haar(rows, rng)[:, :rank] * sigma) @ _haar(cols, rng)[:, :rank].T
    if q is None:
        z = rng.standard_normal((rows, p))
    else:
        z = a @ rng.standard_normal((cols, p))
        for _ in range(q):
            z = a @ (a.T @ z)
    return a, z, k


def dense_gaps(a, z, k):
    """Squared residual gaps from dense residuals: Frobenius, spectral, and
    the deflated ``||(I - pi(Z)) A||_2^2 - sigma_{k+1}^2``."""
    q = orthonormal_basis(z)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    tail = (u[:, k:] * s[k:]) @ vt[k:]
    resid_full = a - q @ (q.T @ a)
    resid_tail = tail - q @ (q.T @ tail)
    gaps = {which: norm(resid_full, which) ** 2 - norm(resid_tail, which) ** 2
            for which in ('frobenius', 'spectral')}
    s_next = s[k] if k < s.size else 0.0
    gaps['deflated'] = norm(resid_full, 'spectral') ** 2 - s_next**2
    return gaps, s[0] ** 2


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(instances())
def test_bounds_hold_and_gap_matches_dense_residuals(instance):
    a, z, k = instance
    factors = svd(a)
    reports = {
        'frobenius': sine_tangent_gap_bound(a, factors, z, k, 'frobenius'),
        'spectral': sine_tangent_gap_bound(a, factors, z, k, 'spectral'),
        'deflated': deflated_spectral_gap_bound(a, factors, z, k),
    }
    oracle, scale = dense_gaps(a, z, k)
    for name, rep in reports.items():
        assert rep.lhs_gap <= rep.bound + GAP_TOL, name
        assert rep.bound == min(rep.bound_sine, rep.bound_tangent), name
        assert abs(rep.lhs_gap - oracle[name]) <= GAP_TOL * scale, name
