"""Property-based check of the randomized-SVD Monte Carlo path.

RSVD trials are drawn in the left singular basis, from ``diag(sigma) V^T``,
and their residuals come from small Gram differences. Each sketch is
evaluated for several ks at once, as a sweep evaluates the ks that share
``(q, p)``, and every trial is compared, for each k, with a dense oracle that
draws the same sketch through A itself,
``rsvd_sketch(A, q, p, SeededStream(seed, t))``, and forms the residuals of A
and of its tail explicitly. The instances are tall, wide, square and
rank-deficient, with q <= 2 and p up to the row count, so the rotated sketch
is wide whenever p exceeds min(rows, cols).
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from sketchbound.experiments import NORMS, _collect_residuals
from sketchbound.linalg import RANK_TOL, norm, svd
from sketchbound.sketching import RsvdSketch, SeededStream, rsvd_sketch

TRIALS = 3
# A residual taken from the Gram form ||A||^2 - ||B||^2 carries an absolute
# error of a few eps * ||A||_F^2 in its square, and |sqrt(x + e) - sqrt(x)|
# <= sqrt(|e|), so it can be off by a few sqrt(eps) * ||A||_F; the kernel
# recomputes only values below 1e-6 ||A||_F from the explicit residual.
RESIDUAL_TOL = 8 * np.sqrt(np.finfo(float).eps)  # times ||A||_F


def _haar(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@st.composite
def instances(draw):
    """``(A, q, p, ks, seed)``: A of the drawn rank with singular values in
    [0.25, 2], p up to the row count and one to three distinct ks up to
    min(p, rank(A)), so each head block has full row rank with probability
    one."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rank = draw(st.integers(1, min(rows, cols)))
    q = draw(st.integers(0, 2))
    p = draw(st.integers(1, rows))
    ks = draw(st.lists(st.integers(1, min(p, rank)), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = np.sort(rng.uniform(0.25, 2.0, rank))[::-1]
    a = (_haar(rows, rng)[:, :rank] * sigma) @ _haar(cols, rng)[:, :rank].T
    return a, q, p, tuple(ks), draw(st.integers(0, 2**64 - 1))


def dense_residuals(a, z, k):
    """``{norm: (||(I - QQ^T) A||, ||(I - QQ^T) A_tail||)}`` with Q an
    orthonormal basis of range(Z), truncated as the kernel truncates it."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    tail = (u[:, k:] * s[k:]) @ vt[k:]
    uz, sz, _ = np.linalg.svd(z, full_matrices=False)
    q = uz[:, sz > RANK_TOL * sz[0]]
    return {which: (norm(a - q @ (q.T @ a), which), norm(tail - q @ (q.T @ tail), which))
            for which in NORMS}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(instances())
def test_rsvd_trials_match_dense_residuals(instance):
    a, q, p, ks, seed = instance
    factors = svd(a)
    scale = float(np.linalg.norm(a))
    # every k is evaluated on the same sketches, drawn once per trial
    results = _collect_residuals(factors, RsvdSketch(q=q, p=p), ks, TRIALS, NORMS,
                                 functools.partial(SeededStream, seed))
    for t in range(TRIALS):
        z = rsvd_sketch(a, q, p, SeededStream(seed, t))
        for k in ks:
            residuals, excluded = results[k]
            assert excluded == 0
            oracle = dense_residuals(a, z, k)
            for which in NORMS:
                full, tail = residuals[which][t]
                want_full, want_tail = oracle[which]
                assert abs(full - want_full) <= RESIDUAL_TOL * scale, (which, k, t)
                assert abs(tail - want_tail) <= RESIDUAL_TOL * scale, (which, k, t)
