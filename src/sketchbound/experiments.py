"""Monte Carlo experiment harness: synthetic matrices, empirical residual
errors, and reproducible parameter sweeps emitted as CSV/JSON.

Residual norms are evaluated in the left singular basis: for any unitarily
invariant norm, ``||(I - pi(Z)) A|| = ||(I - pi(U^T Z)) Sigma||``, so each
trial reduces to an SVD of the rotated sketch plus small Gram computations;
no dense projector is ever formed.  Randomized-SVD trials are drawn in that
basis from the start: ``U^T (A A^T)^q A G = (R R^T)^q R G`` with
``R = diag(sigma) V^T``, so no trial forms ``A G`` or multiplies by ``U^T``.
A sweep's synthetic problem is ``diag(sigma)``, with ``U = V = I``: ``V^T G``
is standard Gaussian for any fixed orthogonal ``V``, so no trial's law changes.

Every Monte Carlo trial, of a sweep or of :func:`empirical_error`, is keyed
by ``(q, p, t)``: trial ``t`` of the sketches with ``q`` power passes and
``p`` columns (a :class:`GaussianSketch` of ``p`` columns counts as
``q = 0``) reads one stream index, which no synthetic matrix reads.  So
:func:`empirical_error` gives the numbers of the matching sweep cell, and the
cells of a sweep that share ``(q, p)`` share their sketches: no k enters the
sketch, its basis or its full residual, and a cell's rows depend on the seed
and its own parameters alone.  Trials run serially, or in a sweep on one
thread per CPU, with every BLAS library of the process (numpy and scipy each
bundle an OpenBLAS) at one thread, so for an :class:`RsvdSketch` their bytes
depend neither on the caller's BLAS threads nor on the number of threads (a
:class:`GaussianSketch` trial reads two cached products, formed at the
threads of the first call that reads them).  Without a thread setter
(another BLAS, or no ``/proc``) they run serially at the caller's BLAS
threads.  The dense synthetic matrix is built at one BLAS thread too.

Serial trials cost a large dense input the BLAS threads' speed-up: on 2
cores, 50 :func:`empirical_error` trials on the n=2000 synthetic matrix took
1.56x as long as at two BLAS threads.  Spreading the trials of the
benchmark's 500x400 ``empirical_small`` over two threads cut p90 latency by
10% but raised peak RSS by 11%: single-matrix ``eigvalsh`` and
``svd(compute_uv=False)`` hold numpy's interpreter lock.

The bound variants are defined here once, in three tables split by calling
convention, and :func:`evaluate_bounds` serves both the sweeps and the
``sketchbound bounds`` command.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import itertools
import json
import logging
import math
import operator
import os
import tempfile
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from . import expectation, rsvd
from .deterministic import _check_head_rank, _operator_norms
from .linalg import RANK_TOL, RankDeficiencyError, SvdFactors, _as_matrix
from .sketching import (
    GaussianSketch,
    RsvdSketch,
    SeededStream,
    rsvd_distribution,
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
    'load_rows',
    'run_sweep',
    'synthetic_matrix',
]

logger = logging.getLogger(__name__)

NORMS = ('spectral', 'frobenius')
METRICS = ('general', 'old')

_DENSE_GRAM_LIMIT = 600
_BLAS_LOCK = threading.RLock()  # held while BLAS runs at one thread, process-wide


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


def synthetic_matrix(n, seed, *, left_basis=False):
    """Square test matrix with ten unit singular values and a ``j^(-1/2)`` tail.

    The singular vector factors are drawn Haar-uniformly, ``U`` from stream
    index 0 and ``V`` from index 1; the exact factors are returned alongside
    the assembled matrix, built at one BLAS thread since the Haar QR's last
    bits depend on the thread count.  With ``left_basis`` the problem is built
    in both singular bases: ``U = V = I`` (one shared identity), the matrix is
    ``diag(sigma)`` and the seed is unused, since a trial reads ``A`` only
    through ``Sigma V^T G`` and ``V^T G`` is standard Gaussian for any fixed
    orthogonal ``V``: a Haar ``V`` cannot change the law of any residual.
    """
    if n < 11:
        raise ValueError('need n >= 11 for the synthetic spectrum')
    sigma = np.concatenate([np.ones(10), np.arange(2, n - 8, dtype=float) ** -0.5])
    if left_basis:
        identity = np.eye(n)
        factors = SvdFactors(identity, sigma, identity)
        return factors.rotated(), factors
    with _one_blas_thread():
        v = _haar_orthogonal(n, SeededStream(seed, 1))
        u = _haar_orthogonal(n, SeededStream(seed, 0))
        return (u * sigma) @ v.T, SvdFactors(u, sigma, v)


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


def _gram_top_eigenvalue(diag_sq, b):
    """Largest eigenvalue of ``diag(diag_sq) - b^T b`` (clipped at zero)."""
    m = diag_sq.size
    if m > _DENSE_GRAM_LIMIT:
        op = scipy.sparse.linalg.LinearOperator(
            (m, m), matvec=lambda x: diag_sq * x - b.T @ (b @ x), dtype=float)
        try:
            w = scipy.sparse.linalg.eigsh(op, k=1, which='LA', v0=np.full(m, m**-0.5), tol=1e-10,
                                          maxiter=20 * m, return_eigenvectors=False)
            return max(float(w[0]), 0.0)
        except scipy.sparse.linalg.ArpackError:
            pass  # ARPACK failed: solved densely below
    gram = np.diag(diag_sq) - b.T @ b
    return max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)


def _explicit_residual_norm(q, b, diag, which):
    """``||diag_embed(diag) - q b||`` formed explicitly; cancellation-free."""
    resid = -(q @ b)
    m = diag.size
    resid[np.arange(m), np.arange(m)] += diag
    if which == 'frobenius':
        return float(np.linalg.norm(resid))
    return float(np.linalg.norm(resid, 2)) if min(resid.shape) else 0.0


def _residual_norm(q, b, diag, trace, noise_floor, which):
    """``||diag_embed(diag) - q b||`` from the Gram ``G = diag^2 - b^T b``
    whose trace is ``trace``, or from the explicit residual at the noise floor."""
    value_sq = trace
    if which == 'spectral' and trace > 0.5 * noise_floor:
        value_sq = _gram_top_eigenvalue(diag**2, b)
    if value_sq <= noise_floor:
        return _explicit_residual_norm(q, b, diag, which)
    return math.sqrt(value_sq)


def _sketch_residuals(w, sigma, norms):
    """Basis of one rotated sketch ``w`` and its full residual norms, the part
    of a trial that no ``k`` enters.

    Returns ``(q, b, {norm: residual_full})``: ``q`` is the orthonormal basis
    of range(w) and ``b = q[:m]^T Sigma``, which :func:`_tail_residuals` reads.
    Residuals are evaluated through small Gram differences
    ``G = diag^2 - b^T b``; values that land at or below the noise floor
    ``1e-12 ||Sigma||_F^2`` are recomputed from the explicitly formed
    residual, since the difference form cannot resolve below sqrt(eps) times
    the data scale.

    ``G`` is PSD, so ``lambda_max(G) <= tr(G)``, the Frobenius square the
    kernel forms anyway; a trace at most half the floor therefore certifies
    that the spectral value lies below the floor, and the Gram eigensolve is
    skipped.  The computed eigenvalue exceeds the computed trace by at most
    about ``(r + 2) eps ||Sigma||_F^2`` (``r`` the basis width), far inside
    that half-floor margin, so every value keeps the bits the eigensolve
    would have led to.
    """
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    keep = s > RANK_TOL * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    q = u[:, keep]
    b = q[:sigma.size, :].T * sigma[None, :]
    sig_sq = sigma**2
    noise_floor = 1e-12 * float(np.sum(sig_sq))
    trace = float(np.sum(sig_sq) - np.sum(b**2))
    return q, b, {which: _residual_norm(q, b, sigma, trace, noise_floor, which) for which in norms}


def _tail_residuals(q, b, sigma, k, norms):
    """``{norm: residual_tail_projected}`` of the sketch whose basis ``q`` and
    ``b`` :func:`_sketch_residuals` returned: the residual of the tail
    ``Sigma`` with its first ``k`` singular values zeroed, by the same rules."""
    sig_sq = sigma**2
    noise_floor = 1e-12 * float(np.sum(sig_sq))
    sigma_tail = sigma.copy()
    sigma_tail[:k] = 0.0
    b_tail = b.copy()
    b_tail[:, :k] = 0.0
    trace = float(np.sum(sig_sq[k:]) - np.sum(b_tail**2))
    return {which: _residual_norm(q, b_tail, sigma_tail, trace, noise_floor, which) for which in norms}


def _collect_residuals(factors, sketch, ks, trials, norms, stream):
    """Run trials once and evaluate every ``k`` in ``ks`` on each sketch.

    Trial ``t`` draws from ``stream(t)``.  Returns ``{k: (residuals,
    excluded)}``, where ``residuals`` maps each norm to a ``(kept, 2)`` array
    of full and projected-tail residuals, one row per trial kept for that
    ``k``.  The basis and the full residuals of a sketch are computed once,
    whatever the number of ks; only the head-rank check and the tail
    residual are per ``k``.

    An :class:`RsvdSketch` is drawn from ``factors.rotated()``, already in the
    left singular basis; a :class:`GaussianSketch` is sampled, then rotated.
    Trials whose rotated head block fails the row-rank check are excluded and
    counted; the hypothesis holds with probability one, so exclusions flag
    numerical degeneracy rather than expected behavior.
    """
    sigma = factors.sigma
    gaussian = isinstance(sketch, GaussianSketch)
    if gaussian:
        u_full = factors.left()
    else:
        # validated once here, so the per-trial draws skip the check
        rotated = _as_matrix(factors.rotated(), 'the rotated matrix')
    rotated_mean = u_full.T @ sketch.mean if gaussian and np.any(sketch.mean) else None
    residuals = {k: {which: np.empty((trials, 2)) for which in norms} for k in ks}
    kept = dict.fromkeys(ks, 0)
    for t in range(trials):
        if gaussian:
            w = u_full.T @ sample(sketch, stream(t))
        else:
            w = sketch.draw(rotated, stream(t), check_finite=False)
        ranked = []
        for k in ks:
            head = w[:k] - rotated_mean[:k] if rotated_mean is not None else w[:k]
            with contextlib.suppress(RankDeficiencyError):
                _check_head_rank(head, w)
                ranked.append(k)
        if not ranked:
            continue
        q, b, full = _sketch_residuals(w, sigma, norms)
        for k in ranked:
            tail = _tail_residuals(q, b, sigma, k, norms)
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
    try:  # numpy integers pass, floats do not
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


def empirical_error(a, factors, sketch, k, trials, norm='frobenius', metric='general', seed=0):
    """Monte Carlo estimate of the residual error metric.

    ``factors`` must be the SVD of ``a``: the residuals are evaluated from
    the factors alone, so only the shapes of the two are checked to agree.
    ``sketch`` is either a :class:`GaussianSketch` (drawn via its moments) or
    an :class:`RsvdSketch` (``(A A^T)^q A G``, drawn in the left singular
    basis as ``Sigma^(2q+1) V^T G``).  Trial ``t`` reads
    ``_trial_stream(seed, q, p, t)``, as in a sweep (``q = 0`` for a
    :class:`GaussianSketch` of ``p`` columns); the trials run serially at one
    BLAS thread, so concurrent calls, and sweeps, take turns.
    """
    a = _as_matrix(a, 'A')
    if a.shape != (factors.rows, factors.cols):
        raise ValueError(f'A has shape {a.shape}, but its factors are {factors.rows}x{factors.cols}')
    if norm not in NORMS:
        raise ValueError(f'norm must be one of {NORMS}, got {norm!r}')
    if metric not in METRICS:
        raise ValueError(f'metric must be one of {METRICS}, got {metric!r}')
    q, p = (0, sketch.shape[1]) if isinstance(sketch, GaussianSketch) else (sketch.q, sketch.p)
    _check_trial_keys(seed, trials, p, (q,))
    with _one_blas_thread():
        residuals, excluded = _collect_residuals(
            factors, sketch, (k,), trials, (norm,), functools.partial(_trial_stream, seed, q, p))[k]
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


def evaluate_bounds(variants, factors, k, p, q, sketch=None):
    """Report of each named variant, ``{name: {'bound': ..., constants...}}``.

    The closed forms and the HMT baselines depend on ``factors.sigma`` only.
    The theorem variants evaluate ``sketch``, a :class:`GaussianSketch`
    expressed against ``factors``; it is needed only when one is named, and
    its projected covariance is built once for all of them.
    """
    reports = {}
    profile = projection = None
    for name in variants:
        if name in RSVD_VARIANTS:
            if profile is None:
                profile = rsvd.SpectrumProfile.from_spectrum(factors.sigma, k, p, q)
            result = RSVD_VARIANTS[name](profile)
            reports[name] = {'bound': result.bound, **result.constants}
        elif name in THEOREM_VARIANTS:
            if projection is None:
                # a request the projection rejects is left to the variant,
                # which raises the error its own checks meet first
                with contextlib.suppress(ValueError):
                    projection = expectation.project_sketch(factors, sketch, k, p)
            result = THEOREM_VARIANTS[name](factors, sketch, k, p, projection)
            reports[name] = {'bound': result.bound, 'mean_term': result.mean_term, **result.constants}
        else:
            reports[name] = {'bound': HMT_VARIANTS[name](factors.sigma, k, p, q)}
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
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ('k_list', 'oversampling_list', 'q_list', 'norm_list'):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f'{name} has duplicate entries')
        if any(k < 1 for k in self.k_list):
            raise ValueError('k must be positive')
        _check_trial_keys(self.seed, self.trials,
                          max(self.k_list, default=0) + max(self.oversampling_list, default=0), self.q_list)
        if self.metric not in METRICS:
            raise ValueError(f'metric must be one of {METRICS}')
        if any(norm not in NORMS for norm in self.norm_list):
            raise ValueError(f'norms must be among {NORMS}')
        unknown = set(self.bound_variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f'unknown bound variants: {sorted(unknown)}')
        if self.output_format not in ('csv', 'json'):
            raise ValueError("output_format must be 'csv' or 'json'")

    @classmethod
    def from_json(cls, path):
        with open(path) as handle:
            data = json.load(handle)
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f'unknown sweep config keys: {sorted(unknown)}')
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
    """``[work(i) for i in range(count)]``, computed by the calling thread and
    ``workers - 1`` helper threads that take indices from one shared counter.

    The first exception raised stops the other threads from taking more
    indices and is re-raised here once all of them have stopped.

    This is not ``concurrent.futures.ThreadPoolExecutor``: the executor
    leaves the calling thread idle while ``workers`` helpers each hold a
    glibc malloc arena.  Swapped in, it raised the benchmark's
    ``sweep_acceptance`` peak RSS from 107.1 MB to 113.4-120.7 MB over three
    runs (2 cores, BLAS at one thread), with no change in time per sweep.
    """
    results = [None] * count
    indices = iter(range(count))
    lock = threading.Lock()
    stop = threading.Event()
    failures = []

    def drain():
        while not stop.is_set():
            with lock:
                i = next(indices, None)
            if i is None:
                return
            results[i] = work(i)

    def helper():
        try:
            drain()
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)
            stop.set()

    threads = [threading.Thread(target=helper) for _ in range(min(workers, count) - 1)]
    for thread in threads:
        thread.start()
    try:
        drain()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return results


def _sweep_trials(factors, cells, trials, norms, seed):
    """``(residuals, excluded)`` of each ``(k, q, p)`` of ``cells``, in order.

    The cells that share ``(q, p)`` are one unit of work: trial ``t`` draws
    one sketch from ``_trial_stream(seed, q, p, t)``, and
    :func:`_collect_residuals` evaluates each of their ks on it.  The units
    run on one thread per CPU at one BLAS thread (serially, at the caller's
    BLAS threads, where no thread setter is found).
    """
    groups = {}
    for k, q, p in cells:
        groups.setdefault((q, p), []).append(k)
    units = list(groups.items())

    def group_trials(i):
        (q, p), ks = units[i]
        return _collect_residuals(factors, RsvdSketch(q=q, p=p), ks, trials, norms,
                                  functools.partial(_trial_stream, seed, q, p))

    with _one_blas_thread() as threaded:
        results = _map_cells(group_trials, len(units), len(os.sched_getaffinity(0)) if threaded else 1)
    by_group = dict(zip(groups, results))
    return [by_group[q, p][k] for k, q, p in cells]


def run_sweep(config: SweepConfig):
    """Evaluate bounds and empirical statistics over the configured grid.

    Rows are sorted by ``(k, q, p, norm)``; the whole sweep is a pure
    function of the config, and a cell's rows depend only on the seed and its
    own ``(k, q, p)``, so adding a k or an oversampling value to the grid
    leaves the other rows as they were.  The bounds are evaluated in the
    calling thread, one cell at a time; then the trials run in
    :func:`_sweep_trials`, and the rows are assembled in cell order.  BLAS
    runs at one thread until the sweep returns or raises (see the module
    docstring), and process-wide: other threads calling it meanwhile get one
    thread too, and sweeps started from several threads run one at a time.
    """
    with _one_blas_thread():
        # the bounds read sigma alone and the residuals' law A only through sigma,
        # so the problem is diag(sigma) and one factors object serves both the
        # trials and the theorem variants
        factors = synthetic_matrix(config.n, config.seed, left_basis=True)[1]
        theorems = any(name in THEOREM_VARIANTS for name in config.bound_variants)
        grid = itertools.product(sorted(config.k_list), sorted(config.q_list),
                                 sorted(config.oversampling_list))
        cells, bounds = [], []
        for k, q, rho in grid:
            p = k + rho
            if k > p - 2 or p > factors.rank():
                logger.warning('skipping invalid cell k=%d, p=%d, q=%d', k, p, q)
                continue
            # before any trial runs, and the sketch dropped at once, so a cell's
            # n x n theorem matrices never add to the trials' memory or the next cell's
            sketch = rsvd_distribution(factors, q, p) if theorems else None
            reports = evaluate_bounds(config.bound_variants, factors, k, p, q, sketch)
            del sketch
            bounds.append({name: report['bound'] for name, report in reports.items()})
            cells.append((k, q, rho, p))
        trials = _sweep_trials(factors, [(k, q, p) for k, q, _, p in cells], config.trials,
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
    """Write sweep rows to CSV or JSON, atomically.

    Floats carry 17 significant digits, so parsing the file back reproduces
    the rows bit for bit.
    """
    if not rows:
        raise ValueError('no rows to emit')
    variant_names = list(rows[0].bounds)
    if any(list(r.bounds) != variant_names for r in rows):
        raise ValueError('all rows must carry the same bound variants')
    if output_format == 'csv':
        lines = [','.join(list(_BASE_COLUMNS) + variant_names)]
        lines.extend(','.join(_row_cells(row, variant_names)) for row in rows)
        payload = '\n'.join(lines) + '\n'
    elif output_format == 'json':
        payload = json.dumps([dataclasses.asdict(row) for row in rows], indent=2) + '\n'
    else:
        raise ValueError("output_format must be 'csv' or 'json'")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix='.emit-')
    try:
        with os.fdopen(fd, 'w') as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_rows(path, output_format='csv'):
    """Parse a file produced by :func:`emit` back into sweep rows."""
    if output_format == 'json':
        with open(path) as handle:
            data = json.load(handle)
        return [SweepRow(**row) for row in data]
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(',')
    variant_names = header[len(_BASE_COLUMNS):]
    rows = []
    for line in lines[1:]:
        cells = line.split(',')
        base = dict(zip(_BASE_COLUMNS, cells))
        rows.append(SweepRow(
            k=int(base['k']), p=int(base['p']), oversampling=int(base['oversampling']),
            q=int(base['q']), norm=base['norm'], metric=base['metric'],
            empirical_mean=float(base['empirical_mean']), empirical_std=float(base['empirical_std']),
            bounds={name: float(value) for name, value in zip(variant_names, cells[len(_BASE_COLUMNS):])},
        ))
    return rows
