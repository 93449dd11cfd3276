"""Monte Carlo experiment harness: synthetic matrices, empirical residual
errors, and reproducible parameter sweeps emitted as CSV/JSON.

Residual norms are evaluated in the left singular basis: for any unitarily
invariant norm, ``||(I - pi(Z)) A|| = ||(I - pi(U^T Z)) Sigma||``, so each
trial reduces to an SVD of the rotated sketch plus small Gram computations;
no dense projector is ever formed.  One rule gives every residual,
``||(I - q q^T) Sigma[:, k:]||``, with ``k = 0`` for the full one.
Randomized-SVD trials are drawn in that basis from the start:
``U^T (A A^T)^q A G = Sigma^(2q+1) V^T G``, and ``V^T G`` is standard
Gaussian for any fixed ``V`` with orthonormal columns, so every trial draws
``Sigma^(2q+1) G`` through one sparse ``diag(sigma)`` and reads no ``U``, ``V``
or ``A``.  Each of its ``2q + 1`` products is one rounded multiply per entry,
the bits a dense ``np.diag(sigma)`` product gives, at O(np) cost and memory.
A sweep's synthetic problem is ``diag(sigma)`` too, with ``U = V = I``: the
unseeded :func:`synthetic_matrix`, which holds no n x n array.

One solver, :func:`_gram_top`, finds the top eigenvalue of one residual Gram
``Sigma^2 - B^T B`` (HMT 2011) per call, of a trial here or of a per-sample gap
in :mod:`deterministic`.  Above a column limit, which each caller passes, it
runs ARPACK Lanczos and never forms the Gram; at or below it, ``eigvalsh`` of
the block's own Gram.  On Grams of 400 columns (p=30, one BLAS thread) Lanczos
took 0.4-0.8 ms against 4.9-5.4 ms for ``eigvalsh`` on the default, ``j^-2``,
gap and exp-decay spectra; in a later run, 4.2-4.7 ms (101-111 matvecs)
against 10.1-10.4 ms on the cluster ``1 - 1e-6 (j - 1)`` for j <= 60, then
``0.5 j^-1/2``.  On ``j^-1/2`` at p=30 the two cost the same near 115 columns,
0.3 ms each.  The limits differ until the benchmark names its spans by role:
:mod:`deterministic` passes :data:`_DENSE_RESIDUAL_LIMIT` (90), which took the
benchmark's ``deterministic_samples`` ops (300-400 columns) from 0.015 to
0.006 s, and the trials :data:`_DENSE_GRAM_LIMIT` (600), without which the
traced ``empirical_small`` run would fire no ``eigvalsh`` span, as its
self-test expects.

A value at round-off level is recomputed from the explicit residual ``R``:
by a dense SVD up to :data:`_DENSE_RESIDUAL_LIMIT` (90) columns, and above it
as ``||R v||`` for the Lanczos Ritz vector ``v`` of ``R^T R``.  Their
crossover, measured on round-off residuals of rank-60 problems at one BLAS
thread, lies near 92 columns (0.32 ms each); at 400 columns the dense SVD
takes 8.6 ms and Lanczos 1.4 ms.  Both Lanczos solves first divide their
operator by a power of two, the Gram by the one at or below ``max(sigma[k:]^2)`` and ``R``, in
place, by the one at or below its largest ``|entry|``, and scale the result
back; the division is exact, so the solve is the same at every scale.  It is
needed: ARPACK accepts a Ritz value ``theta`` once its residual bound falls
below ``tol * max(eps^(2/3), |theta|)``, so an operator whose eigenvalues lie
far below ``eps^(2/3)`` stops early.  Unnormalized, a Gram with ``sigma``
scaled by 2^-40 came back up to 6e-3 low, and the ``R^T R`` of a clustered
round-off residual (eigenvalues near 1e-32) 1.2e-4 low.  What ARPACK guarantees
on return (``tol = 1e-10``) is a Ritz value within ``tol * theta`` of an
eigenvalue of the normalized operator; being a Rayleigh quotient, it does not
exceed the largest one, and ``||R v||`` does not exceed ``||R||``.  Where
ARPACK fails, the dense solve answers.

Every Monte Carlo trial, of a sweep or of :func:`empirical_error`, is keyed
by ``(q, p, t)``: trial ``t`` of the sketches with ``q`` power passes and
``p`` columns (a :class:`GaussianSketch` of ``p`` columns counts as
``q = 0``) reads one stream index, which no synthetic matrix reads.  So
:func:`empirical_error` gives the numbers of the matching sweep cell, and the
cells of a sweep that share ``(q, p)`` share their sketches: no k enters the
sketch, its basis or its full residual, and a cell's rows depend on the seed
and its own parameters alone.  Trials run serially, or in a sweep on a
``ThreadPoolExecutor`` of one thread per CPU, with every BLAS library of the
process (numpy and scipy each bundle an OpenBLAS) at one thread, so for an
:class:`RsvdSketch` their bytes depend neither on the caller's BLAS threads
nor on the number of threads (a :class:`GaussianSketch` trial reads two
cached products, formed at the threads of the first call that reads them).
Without a thread setter (another BLAS, or no ``/proc``) they run serially at
the caller's BLAS threads.  The dense synthetic matrix is built at one BLAS thread too.
Threads take turns in ARPACK: one Lanczos solve runs at a time, under
:data:`_LANCZOS_LOCK`, while the other threads draw and factor their sketches
(the draw and the basis SVD release the interpreter lock).  The lock changes
no operand, so no bit.

Serial trials at one BLAS thread cost no speed-up: on 2 cores, 50
:func:`empirical_error` trials (k=5, p=20) on the n=2000 synthetic spectrum
took 0.80x (q=0) and 0.87x (q=2) as long as at two BLAS threads, medians of
five alternating pairs.  Spreading the trials of the
benchmark's 500x400 ``empirical_small`` over two threads cut p90 latency by
10% but raised peak RSS by 11%: single-matrix ``eigvalsh`` and
``svd(compute_uv=False)`` hold numpy's interpreter lock.

The bound variants are defined here once, in three tables split by calling
convention, and :func:`evaluate_bounds` serves both the sweeps and the
``sketchbound bounds`` command, which passes it a :class:`GaussianSketch` to
project; a sweep passes none, so :data:`THEOREM_COROLLARIES` answers its theorem variants.

:func:`emit` writes through :func:`linalg._write_atomic`, the package's one
file writer; its CSV and JSON files read back with ``csv`` and ``json``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import itertools
import json
import logging
import math
import numbers
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from . import expectation, rsvd
from .linalg import RANK_TOL, RankDeficiencyError, SvdFactors, _check_head_rank, _operator_norms, _write_atomic
from .sketching import (
    GaussianSketch,
    RsvdSketch,
    SeededStream,
    sample,
    standard_gaussian,
)

__all__ = [
    'EmpiricalStats',
    'SweepConfig',
    'SweepRow',
    'empirical_error',
    'emit',
    'evaluate_bounds',
    'run_sweep',
    'synthetic_matrix',
]

logger = logging.getLogger(__name__)

NORMS = ('spectral', 'frobenius')
METRICS = ('general', 'old')

_DENSE_GRAM_LIMIT = 600
_DENSE_RESIDUAL_LIMIT = 90
_BLAS_LOCK = threading.RLock()  # held while BLAS runs at one thread, process-wide
_LANCZOS_LOCK = threading.Lock()  # held around each ARPACK solve; takes no other lock inside


@functools.cache  # a ctypes.CDLL per sweep raised sweep_acceptance peak RSS from 107 to 114.6 MB
def _blas_thread_controls():
    """``(get, set)`` thread-count functions of every BLAS library mapped into
    the process at the first call (by name in ``/proc/self/maps``), or none if
    one lacks them; numpy's and scipy's OpenBLAS use ``scipy_openblas_`` names."""
    try:
        with open('/proc/self/maps') as maps:
            # the last field is the mapped file, or the inode where there is none
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return ()
    controls = []
    for path in paths:
        name = os.path.basename(path).lower()
        # extension modules such as scipy's _fblas reach the same library
        if name.startswith('lib') and any(tag in name for tag in ('blas', 'blis', 'mkl')):
            lib = ctypes.CDLL(path)
            found = [f'{prefix}_%s_num_threads{suffix}' for prefix in ('scipy_openblas', 'openblas')
                     for suffix in ('64_', '') if hasattr(lib, f'{prefix}_set_num_threads{suffix}')]
            if not found:
                return ()
            controls.append((ctypes.CFUNCTYPE(ctypes.c_int)((found[0] % 'get', lib)),
                             ctypes.CFUNCTYPE(None, ctypes.c_int)((found[0] % 'set', lib))))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Every BLAS library of the process at one thread for the block, and its
    earlier thread counts restored on exit; yields whether thread setters were
    found (without them the block runs at the caller's BLAS threads).

    The counts are process-wide, so one thread at a time holds the region;
    it is reentrant, and a nested region finds and restores one thread.
    """
    with _BLAS_LOCK:
        controls = _blas_thread_controls()
        counts = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(1)
        try:
            yield bool(controls)
        finally:
            for (_, set_threads), count in zip(controls, counts):
                set_threads(count)


def _haar_orthogonal(n, stream):
    """Haar-uniform n x n orthogonal matrix: QR of a standard Gaussian matrix
    with its ``R`` diagonal sign-fixed."""
    q, r = np.linalg.qr(standard_gaussian(n, n, stream))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _check_synthetic_n(n):
    if n < 11:
        raise ValueError('need n >= 11 for the synthetic spectrum')


def _synthetic_factors(n, seed=None):
    """The factors ``SvdFactors(U, sigma, n)`` of :func:`synthetic_matrix`,
    which draw no ``V`` and build no matrix: ``U`` is its ``U``, bit for bit."""
    _check_synthetic_n(n)
    sigma = np.concatenate([np.ones(10), np.arange(2, n - 8, dtype=float) ** -0.5])
    if seed is None:
        # U = I read-only, as n overlapping windows onto one unit vector of 2n - 1 floats
        u = np.lib.stride_tricks.sliding_window_view(np.eye(1, 2 * n - 1, n - 1)[0], n)[::-1]
    else:
        with _one_blas_thread():
            u = _haar_orthogonal(n, SeededStream(seed, 0))
    return SvdFactors(u, sigma, n)


def synthetic_matrix(n, seed=None):
    """Square test matrix with ten unit singular values and a ``j^(-1/2)`` tail,
    returned with its factors ``SvdFactors(U, sigma, n)``, which keep no ``V``.

    With no seed the problem is built in both singular bases: ``U = V = I``
    and the matrix is ``diag(sigma)``, since a trial reads ``A`` only through
    ``Sigma V^T G`` and ``V^T G`` is standard Gaussian for any fixed orthogonal
    ``V``: a Haar ``V`` cannot change the law of any residual.  It holds no n x n
    array: the matrix is sparse, and ``U`` a read-only O(n) view.  With a seed the
    singular vector factors are drawn Haar-uniformly, ``U`` from stream index 0
    and ``V`` from index 1, and the matrix is built at one BLAS thread, since
    the Haar QR's last bits depend on the thread count.
    """
    factors = _synthetic_factors(n, seed)
    if seed is None:
        return scipy.sparse.diags_array(factors.sigma), factors
    with _one_blas_thread():
        v = _haar_orthogonal(n, SeededStream(seed, 1))
        return (factors.left() * factors.sigma) @ v.T, factors


@dataclass(frozen=True)
class EmpiricalStats:
    """Sample statistics of the per-trial metric values (a float64 array)."""

    mean: float
    std: float
    values: np.ndarray
    excluded_trials: int

    @property
    def trials(self):
        return self.values.size

    def standard_error(self):
        return self.std / math.sqrt(max(self.values.size, 1))


def _binade(x):
    """``e`` with ``2^e <= x < 2^(e + 1)`` for a positive finite ``x`` (-1 for zero)."""
    return math.frexp(x)[1] - 1


def _lanczos_top(matvec, m, vector):
    """ARPACK Lanczos for the largest eigenvalue of the m x m symmetric operator
    ``matvec``: ``eigsh``'s eigenvalue array, with the unit Ritz vector if
    ``vector``, or None where ARPACK fails.

    The caller normalizes the operator by a power of two first: ARPACK's
    stopping test is ``bound <= tol * max(eps^(2/3), |theta|)``, so an operator
    whose eigenvalues lie far below ``eps^(2/3)`` stops early, or fails.

    Solves take turns under :data:`_LANCZOS_LOCK`.  ARPACK's reverse
    communication holds the interpreter lock between dozens of small BLAS and
    ufunc calls per solve, so two threads inside it at once hand that lock
    back and forth: 40 Gram solves (m=995, p=60, one BLAS thread) split over
    two threads ran at 0.74-0.77x the throughput of one thread.  Nothing
    inside the lock takes another lock.
    """
    op = scipy.sparse.linalg.LinearOperator((m, m), matvec=matvec, dtype=float)
    try:
        with _LANCZOS_LOCK:
            return scipy.sparse.linalg.eigsh(op, k=1, which='LA', v0=np.full(m, m**-0.5), tol=1e-10,
                                             maxiter=20 * m, return_eigenvectors=vector)
    except scipy.sparse.linalg.ArpackError:
        return None  # solved densely by the caller


def _gram_top(diag_sq, b, dense_limit):
    """Largest eigenvalue, unclipped, of the Gram ``diag(diag_sq) - b^T b``; 0.0 when it is empty.

    Above ``dense_limit`` columns it is solved by Lanczos on the Gram divided
    by the power of two at or below its largest ``diag_sq``, with matvec
    ``diag_sq * x - b^T (b x)``: the Gram is never formed.  At or below the
    limit, and wherever ARPACK fails, ``eigvalsh`` reads this Gram's own dense form.
    """
    if diag_sq.size > dense_limit:
        e = _binade(float(np.max(diag_sq)))
        w = _lanczos_top(lambda x: np.ldexp(diag_sq * x - b.T @ (b @ x), -e), diag_sq.size, False)
        if w is not None:
            return math.ldexp(float(w[0]), e)
    return float(np.linalg.eigvalsh(np.diag(diag_sq) - b.T @ b)[-1]) if diag_sq.size else 0.0


def _explicit_residual_norm(q, b, sigma, k, which):
    """``||Sigma[:, k:] - q b[:, k:]||``, the residual ``R`` formed explicitly; cancellation-free.

    Above :data:`_DENSE_RESIDUAL_LIMIT` columns, ``R`` is divided in place by
    the power of two at or below its largest ``|entry|``, and its spectral norm
    is ``||R v||`` for the Ritz vector ``v`` of Lanczos on ``R^T R``.
    """
    resid = -(q @ b[:, k:])
    cols = np.arange(sigma.size - k)
    resid[cols + k, cols] += sigma[k:]
    if which == 'frobenius':
        return float(np.linalg.norm(resid))
    if not min(resid.shape):
        return 0.0
    e = 0
    if resid.shape[1] > _DENSE_RESIDUAL_LIMIT:
        e = _binade(float(max(resid.max(), -resid.min())))
        np.ldexp(resid, -e, out=resid)
        found = _lanczos_top(lambda x: resid.T @ (resid @ x), resid.shape[1], True)
        if found is not None:
            return math.ldexp(float(np.linalg.norm(resid @ found[1][:, 0], 2)), e)
    return math.ldexp(float(np.linalg.norm(resid, 2)), e)


def _sketch_basis(w, sigma):
    """``(q, b)`` of one rotated sketch ``w``, the part of a trial that no ``k``
    enters: ``q`` is the orthonormal basis of range(w) and ``b = q[:n]^T Sigma``, ``n = sigma.size``."""
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    keep = s > RANK_TOL * s[0]
    q = u[:, keep]
    return q, q[:sigma.size, :].T * sigma[None, :]


def _residual_norms(q, b, sigma, k, norms):
    """``{norm: ||(I - q q^T) Sigma[:, k:]||}`` for the basis ``(q, b)`` of
    :func:`_sketch_basis`: ``k = 0`` gives the full residual, and ``k > 0`` the
    residual of the tail, whose columns are the last ``n - k`` of the full one.

    Values are read from the Gram ``G = diag(sigma[k:]^2) - b[:, k:]^T b[:, k:]``
    by :func:`_gram_top`.  Values that land at or below the noise floor
    ``1e-12 ||Sigma||_F^2`` are recomputed from the explicitly formed residual,
    since the difference form cannot resolve below sqrt(eps) times the data scale.

    ``G`` is PSD, so ``lambda_max(G) <= tr(G)``, the Frobenius square the
    kernel forms anyway; a trace at most half the floor therefore certifies
    that the spectral value lies below the floor, and the Gram eigensolve is
    skipped.  The computed eigenvalue exceeds the computed trace by at most
    about ``(r + 2) eps ||Sigma||_F^2`` (``r`` the basis width), far inside
    that half-floor margin, so every value keeps the bits the eigensolve
    would have led to.
    """
    sig_sq = sigma**2
    noise_floor = 1e-12 * float(np.sum(sig_sq))
    tail_sq, b_tail = sig_sq[k:], b[:, k:]
    trace = float(np.sum(tail_sq) - np.sum(b_tail**2))
    values = {}
    for which in norms:
        value_sq = trace
        if which == 'spectral' and trace > 0.5 * noise_floor:
            value_sq = _gram_top(tail_sq, b_tail, _DENSE_GRAM_LIMIT)
        values[which] = (_explicit_residual_norm(q, b, sigma, k, which) if value_sq <= noise_floor
                         else math.sqrt(value_sq))
    return values


def _rsvd_draw(trial_matrix, sketch, stream):
    """:func:`_collect_residuals`' draw of an :class:`RsvdSketch`: ``Sigma^(2q+1) G``
    from ``stream(t)`` and the shared ``trial_matrix``, the sparse ``diag(sigma)``
    (a dense one gives the same bits); it has no mean."""
    def draw(t):
        w = sketch.draw(trial_matrix, stream(t))
        return w, w
    return draw


def _gaussian_draw(factors, sketch, stream):
    """:func:`_collect_residuals`' draw of a :class:`GaussianSketch`: a sample from
    ``stream(t)``, rotated by the full left factor."""
    expectation._check_sketch_rows(factors, sketch)
    u_full = factors.left()
    rotated_mean = u_full.T @ sketch.mean if np.any(sketch.mean) else None

    def draw(t):
        w = u_full.T @ sample(sketch, stream(t))
        return w, w if rotated_mean is None else w - rotated_mean
    return draw


def _collect_residuals(sigma, draw, ks, trials, norms):
    """Run trials once and evaluate every ``k`` in ``ks`` on each sketch.

    Trial ``t`` reads ``draw(t)``: a rotated sketch ``w = U^T Z`` and its
    centered part ``w - U^T E[Z]``, whose head block must have full row rank.
    Returns ``{k: (residuals, excluded)}``, where ``residuals`` maps each norm
    to a ``(kept, 2)`` array of full and projected-tail residuals, one row per
    trial kept for that ``k``.  The basis and the full residuals of a sketch
    are computed once, whatever the number of ks; only the head-rank check and
    the tail residual are per ``k``.

    Trials whose centered head block fails the row-rank check are excluded and
    counted; the hypothesis holds with probability one, so exclusions flag
    numerical degeneracy rather than expected behavior.
    """
    residuals = {k: {which: np.empty((trials, 2)) for which in norms} for k in ks}
    kept = dict.fromkeys(ks, 0)
    for t in range(trials):
        w, centered = draw(t)
        ranked = []
        for k in ks:
            with contextlib.suppress(RankDeficiencyError):
                _check_head_rank(centered[:k], w)
                ranked.append(k)
        if not ranked:
            continue
        q, b = _sketch_basis(w, sigma)
        full = _residual_norms(q, b, sigma, 0, norms)
        for k in ranked:
            tail = _residual_norms(q, b, sigma, k, norms)
            for which in norms:
                residuals[k][which][kept[k]] = full[which], tail[which]
            kept[k] += 1
    return {k: ({which: values[:kept[k]] for which, values in residuals[k].items()}, trials - kept[k])
            for k in ks}


def _stats(residuals, sigma, k, which, metric, excluded):
    """Statistics of ``full - deflated``, the residual minus its tail reference."""
    full, tail_projected = residuals[:, 0], residuals[:, 1]
    # the old metric subtracts ||A_tail||, the operator norm of the tail spectrum
    values = full - (tail_projected if metric == 'general' else _operator_norms(sigma[k:], which))
    mean = float(np.mean(values)) if values.size else math.nan
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return EmpiricalStats(mean=mean, std=std, values=values, excluded_trials=excluded)


# bits of a trial's stream index given to t, p and q (see _trial_stream)
_TRIAL_FIELDS = (24, 24, 15)


def _trial_stream(seed, q, p, t):
    """Stream of trial ``t`` of the sketches ``(q, p)``: its index puts ``t``,
    ``p`` and ``q`` in fields of :data:`_TRIAL_FIELDS` bits under a set top
    bit, so it is injective in ``(q, p, t)`` and never one of the indices
    that the synthetic matrix reads (0 and 1)."""
    t_bits, p_bits, _ = _TRIAL_FIELDS
    return SeededStream(seed, 1 << 63 | q << (t_bits + p_bits) | p << t_bits | t)


def _check_trial_keys(seed, trials, p, qs):
    """Raise ``ValueError`` unless ``seed``, ``trials``, the widest sketch's
    ``p`` and each q of ``qs`` are integers that key :func:`_trial_stream`
    injectively, with the seed in ``[0, 2**64)``."""
    try:  # numpy integers pass, floats and booleans do not
        if any(isinstance(key, bool) for key in (seed, trials, p, *qs)):
            raise TypeError('a boolean is not an integer key')
        seed, trials, p, *qs = map(operator.index, (seed, trials, p, *qs))
    except TypeError as error:
        raise ValueError(f'seed, trials, p and q must be integers: {error}') from None
    SeededStream(seed)
    t_bits, p_bits, q_bits = _TRIAL_FIELDS
    if not 1 <= trials <= 1 << t_bits:
        raise ValueError(f'trials must be in [1, 2**{t_bits}]')
    if p >= 1 << p_bits:
        raise ValueError(f'sketch columns p (k + oversampling in a sweep) must be below 2**{p_bits}')
    if any(not 0 <= q < 1 << q_bits for q in qs):
        raise ValueError(f'q must be in [0, 2**{q_bits})')


def empirical_error(factors, sketch, k, trials, norm='frobenius', metric='general', seed=0):
    """Monte Carlo estimate of the residual error metric of the matrix ``A``
    whose SVD is ``factors``: the residuals depend on ``A`` through them alone.

    ``sketch`` is either a :class:`GaussianSketch` (drawn via its moments) or
    an :class:`RsvdSketch` (``(A A^T)^q A G``, whose rotation
    ``Sigma^(2q+1) V^T G`` has the law of ``Sigma^(2q+1) G``: each trial draws
    that through one sparse ``diag(sigma)``, built per call).  Trial ``t`` reads
    ``_trial_stream(seed, q, p, t)``, as in a sweep (``q = 0`` for a
    :class:`GaussianSketch` of ``p`` columns); the trials run serially at one
    BLAS thread, so concurrent calls, and sweeps, take turns.  A request that
    :func:`rsvd._check_request` refuses, or a sketch whose height is not ``A``'s,
    raises ``ValueError`` before any trial.
    """
    if norm not in NORMS:
        raise ValueError(f'norm must be one of {NORMS}, got {norm!r}')
    if metric not in METRICS:
        raise ValueError(f'metric must be one of {METRICS}, got {metric!r}')
    gaussian = isinstance(sketch, GaussianSketch)
    q, p = (0, sketch.shape[1]) if gaussian else (sketch.q, sketch.p)
    _check_trial_keys(seed, trials, p, (q,))
    rsvd._check_request(factors.sigma, k, p, q)
    stream = functools.partial(_trial_stream, seed, q, p)
    with _one_blas_thread():
        draw = (_gaussian_draw(factors, sketch, stream) if gaussian
                else _rsvd_draw(scipy.sparse.diags_array(factors.sigma), sketch, stream))
        residuals, excluded = _collect_residuals(factors.sigma, draw, (k,), trials, (norm,))[k]
    if excluded:
        logger.warning('%d of %d trials excluded by the head rank check', excluded, trials)
    return _stats(residuals[norm], factors.sigma, k, norm, metric, excluded)


# Bound variants, one table per calling convention. Every evaluation looks its
# function up in these dicts, so rebinding an entry (perfbench/spans.py does,
# to trace it) reroutes every caller; the first two therefore hold the bound
# functions themselves.
RSVD_VARIANTS = {
    'cor_frobenius': rsvd.frobenius_bound,
    'cor_spectral': rsvd.spectral_bound,
    'cor_spectral_improved': rsvd.improved_spectral_bound,
}
THEOREM_VARIANTS = {
    'thm3': expectation.expected_frobenius_gap_bound,
    'thm3_squared': expectation.expected_frobenius_gap_sq_bound,
    'thm4': expectation.expected_spectral_gap_bound,
    'thm5': expectation.expected_spectral_tail_bound,
}
# adapters to one signature; they look the baselines up on rsvd at each call
HMT_VARIANTS = {
    'hmt_frobenius': lambda sigma, k, p, q: rsvd.hmt_frobenius(sigma, k, p),
    'hmt_spectral': lambda sigma, k, p, q: rsvd.hmt_spectral(sigma, k, p),
    'hmt_power': lambda sigma, k, p, q: rsvd.hmt_power(sigma, k, p, q),
}
VARIANTS = tuple(RSVD_VARIANTS) + tuple(THEOREM_VARIANTS) + tuple(HMT_VARIANTS)
# On the RSVD sketch, taken when no sketch is given, each theorem is its corollary (HMT 2011, section 10).
THEOREM_COROLLARIES = {'thm3': 'cor_frobenius', 'thm3_squared': 'cor_frobenius', 'thm4': 'cor_spectral',
                       'thm5': 'cor_spectral_improved'}


def _theorem_row(name, corollary, sigma_1):
    """Report of theorem ``name`` on the RSVD sketch from its corollary's: no mean term and no ``ell``;
    ``thm3_squared`` takes the squared minimum, ``rsvd._frobenius_min(..., squared=True)``."""
    constants = {key: value for key, value in corollary.constants.items() if key != 'ell'}
    k, bound = corollary.k, corollary.bound
    if name == 'thm3_squared':
        bound = rsvd._frobenius_min(constants['a_k'], constants['b_k'], k, sigma_1, squared=True)
    return {'bound': bound, 'mean_term': 0.0, **constants}


def _check_variants(variants):
    """Raise ``ValueError`` unless ``variants`` names one or more of :data:`VARIANTS`, each once."""
    unknown = [name for name in variants if name not in VARIANTS]
    if unknown:
        raise ValueError(f'unknown bound variants: {unknown}')
    if not variants or len(set(variants)) < len(variants):
        raise ValueError(f'bound variants must name at least one variant, each once, got {list(variants)}')


def evaluate_bounds(variants, factors, k, p, q, sketch=None):
    """Report of each named variant, ``{name: {'bound': ..., constants...}}``;
    a variant list that :func:`_check_variants` refuses, or a request that
    :func:`rsvd._check_request` refuses, raises ``ValueError`` before any is
    evaluated, and a variant whose arithmetic overflows raises ``OverflowError``
    naming it and ``k, p, q``.

    The closed forms and the HMT baselines read ``factors.sigma`` alone, and so do
    the theorem variants given no sketch: on the RSVD sketch ``(q, p)`` they are their
    corollaries (:data:`THEOREM_COROLLARIES`).  Given a :class:`GaussianSketch`, against
    ``factors``, :func:`expectation.project_sketch` projects it once for all of them.
    """
    _check_variants(variants)
    rsvd._check_request(factors.sigma, k, p, q)
    profile = rsvd.SpectrumProfile.from_spectrum(factors.sigma, k, p, q)
    reports, projection = {}, None
    for name in variants:
        try:
            if name in HMT_VARIANTS:
                reports[name] = {'bound': HMT_VARIANTS[name](factors.sigma, k, p, q)}
            elif name in THEOREM_VARIANTS and sketch is not None:
                if projection is None:
                    projection = expectation.project_sketch(factors, sketch, k, p)
                result = THEOREM_VARIANTS[name](factors, sketch, k, p, projection)
                reports[name] = {'bound': result.bound, 'mean_term': result.mean_term, **result.constants}
            else:
                result = RSVD_VARIANTS[THEOREM_COROLLARIES.get(name, name)](profile)
                reports[name] = (_theorem_row(name, result, float(profile.sigma[0])) if name in THEOREM_VARIANTS
                                 else {'bound': result.bound, **result.constants})
        except OverflowError:  # float arithmetic's own, whose text names neither
            raise OverflowError(f'bound variant {name} overflows at k={k}, p={p}, q={q}') from None
    return reports


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for a reproducible bound-versus-empirical sweep."""

    n: int
    k_list: tuple
    oversampling_list: tuple
    q_list: tuple = (0,)
    trials: int = 100
    seed: int = 0
    norm_list: tuple = NORMS
    metric: str = 'general'
    bound_variants: tuple = tuple(RSVD_VARIANTS) + tuple(HMT_VARIANTS)
    output_path: str | None = None
    output_format: str = 'csv'

    def __post_init__(self):
        for name in ('k_list', 'oversampling_list', 'q_list', 'norm_list', 'bound_variants'):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f'{name} must be a list, got {getattr(self, name)!r}')
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
               for v in (self.n, *self.k_list, *self.oversampling_list, *self.q_list)):
            raise ValueError('n and the entries of k_list, oversampling_list and q_list must be integers')
        _check_synthetic_n(self.n)
        if self.metric not in METRICS:
            raise ValueError(f'metric must be one of {METRICS}')
        if any(norm not in NORMS for norm in self.norm_list):
            raise ValueError(f'norms must be among {NORMS}')
        _check_variants(self.bound_variants)
        if self.output_format not in ('csv', 'json'):
            raise ValueError("output_format must be 'csv' or 'json'")
        if not isinstance(self.output_path, (str, type(None))):
            raise ValueError(f'output_path must be a string or null, got {self.output_path!r}')
        if self.output_path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(self.output_path))):
            raise ValueError(f'output_path {self.output_path!r} is in a directory that does not exist')
        for name in ('k_list', 'oversampling_list', 'q_list', 'norm_list'):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f'{name} has duplicate entries')
        if any(k < 1 for k in self.k_list):
            raise ValueError('k must be positive')
        _check_trial_keys(self.seed, self.trials,
                          max(self.k_list, default=0) + max(self.oversampling_list, default=0), self.q_list)

    @classmethod
    def from_json(cls, path):
        with open(path) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f'a sweep config must be a JSON object, got {type(data).__name__}')
        fields = dataclasses.fields(cls)
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise ValueError(f'unknown sweep config keys: {sorted(unknown)}')
        missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in data]
        if missing:
            raise ValueError(f'missing sweep config keys: {missing}')
        return cls(**data)


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell: empirical statistics plus every requested bound."""

    k: int
    p: int
    oversampling: int
    q: int
    norm: str
    metric: str
    empirical_mean: float
    empirical_std: float
    bounds: dict


def _map_cells(work, count, workers):
    """``[work(i) for i in range(count)]`` on a pool of ``min(workers, count)``
    threads, at least one, while the calling thread waits.  The first failure in
    index order is re-raised once the started units finish; the rest are cancelled.
    Trials hold O(np), so the waiting thread costs little: in four alternating
    pairs of the benchmark's ``sweep_acceptance`` (2 cores, 0.110 s per op) peak
    RSS read 82.1-82.4 MB, against 81.4-82.1 MB for a pool that ran units in it."""
    with concurrent.futures.ThreadPoolExecutor(max(1, min(workers, count))) as pool:
        return list(pool.map(work, range(count)))


def _sweep_trials(sigma, cells, trials, norms, seed):
    """``(residuals, excluded)`` of each ``(k, q, p)`` of ``cells`` on ``sigma``, in order.

    The cells that share ``(q, p)`` are one unit of work: trial ``t`` draws
    one sketch from ``_trial_stream(seed, q, p, t)`` and one sparse
    ``diag(sigma)``, shared by all units, and :func:`_collect_residuals`
    evaluates each of their ks on it.  The units run on one thread per CPU at one BLAS thread
    (serially, at the caller's BLAS threads, where no thread setter is found).
    """
    groups = {}
    for k, q, p in cells:
        groups.setdefault((q, p), []).append(k)
    units = list(groups.items())
    trial_matrix = scipy.sparse.diags_array(sigma)

    def group_trials(i):
        (q, p), ks = units[i]
        draw = _rsvd_draw(trial_matrix, RsvdSketch(q=q, p=p), functools.partial(_trial_stream, seed, q, p))
        return _collect_residuals(sigma, draw, ks, trials, norms)

    with _one_blas_thread() as threaded:
        results = _map_cells(group_trials, len(units), len(os.sched_getaffinity(0)) if threaded else 1)
    by_group = dict(zip(groups, results))
    return [by_group[q, p][k] for k, q, p in cells]


def run_sweep(config: SweepConfig):
    """Evaluate bounds and empirical statistics over the configured grid.

    Rows are sorted by ``(k, q, p, norm)``.  Their bound columns are a pure function of
    the config on every OpenBLAS kernel family, their empirical columns within one family,
    and a cell's rows depend only on the seed and its own ``(k, q, p)``, so adding a k or an
    oversampling value to the grid leaves the other rows as they were.  The bounds are
    evaluated in the calling thread, one cell at a time, with no n x n matrix; then the trials
    run in :func:`_sweep_trials`, and the rows are assembled in cell order.
    BLAS runs at one thread until the sweep returns or raises (see the module
    docstring), and process-wide: other threads calling it meanwhile get one
    thread too, and sweeps started from several threads run one at a time.
    A cell that :func:`rsvd._check_request` refuses is skipped with a warning.
    """
    with _one_blas_thread():
        # the bounds read sigma alone and the residuals' law A only through sigma,
        # so the problem is the unseeded diag(sigma), which holds no n x n array
        factors = synthetic_matrix(config.n)[1]
        grid = itertools.product(sorted(config.k_list), sorted(config.q_list),
                                 sorted(config.oversampling_list))
        cells, bounds = [], []
        for k, q, rho in grid:
            p = k + rho
            try:
                rsvd._check_request(factors.sigma, k, p, q)
            except ValueError:
                logger.warning('skipping invalid cell k=%d, p=%d, q=%d', k, p, q)
                continue
            reports = evaluate_bounds(config.bound_variants, factors, k, p, q)
            bounds.append({name: report['bound'] for name, report in reports.items()})
            cells.append((k, q, rho, p))
        trials = _sweep_trials(factors.sigma, [(k, q, p) for k, q, _, p in cells], config.trials,
                               config.norm_list, config.seed)
    rows = []
    for (k, q, rho, p), cell_bound, (residuals, excluded) in zip(cells, bounds, trials):
        if excluded:
            logger.warning('cell k=%d p=%d q=%d: %d trials excluded', k, p, q, excluded)
        for which in sorted(config.norm_list):
            stats = _stats(residuals[which], factors.sigma, k, which, config.metric, excluded)
            rows.append(SweepRow(
                k=k, p=p, oversampling=rho, q=q, norm=which, metric=config.metric,
                empirical_mean=stats.mean, empirical_std=stats.std, bounds=dict(cell_bound),
            ))
    return rows


_BASE_COLUMNS = ('k', 'p', 'oversampling', 'q', 'norm', 'metric', 'empirical_mean', 'empirical_std')


def _row_cells(row, variant_names):
    cells = [str(row.k), str(row.p), str(row.oversampling), str(row.q), row.norm, row.metric,
             format(row.empirical_mean, '.17g'), format(row.empirical_std, '.17g')]
    cells.extend(format(row.bounds[name], '.17g') for name in variant_names)
    return cells


def emit(rows, output_format='csv', path='sweep.csv'):
    """Write sweep rows to CSV or JSON, atomically, one line at a time.

    Floats carry 17 significant digits, so parsing the file back with ``csv``
    or ``json`` reproduces the rows bit for bit.  A cell whose every trial was
    excluded, so whose mean is NaN, is refused before anything is written.
    """
    if not rows:
        raise ValueError('no rows to emit')
    empty = ', '.join(dict.fromkeys(f'k={r.k} p={r.p} q={r.q}' for r in rows if not math.isfinite(r.empirical_mean)))
    if empty:
        raise ValueError(f'every trial excluded by the head rank check in cell(s) {empty}; no file written')
    variant_names = list(rows[0].bounds)
    if any(list(r.bounds) != variant_names for r in rows):
        raise ValueError('all rows must carry the same bound variants')
    if output_format == 'csv':
        lines = itertools.chain([','.join(list(_BASE_COLUMNS) + variant_names)],
                                (','.join(_row_cells(row, variant_names)) for row in rows))
    elif output_format == 'json':
        lines = [json.dumps([dataclasses.asdict(row) for row in rows], indent=2)]
    else:
        raise ValueError("output_format must be 'csv' or 'json'")
    _write_atomic(path, lambda handle: handle.writelines(f'{line}\n'.encode() for line in lines))
