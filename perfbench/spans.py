"""In-memory spans around sketchbound's public functions and the numpy/scipy
kernels beneath them, and the per-layer metrics computed from them.

Each hook replaces one name in the namespace its caller looks it up in: for
example ``experiments.standard_gaussian`` is a different binding from
``sketching.standard_gaussian``, ``cli.svd`` from ``linalg.svd``, and the
closed-form bounds the CLI dispatches sit in ``cli._RSVD_VARIANTS``. The
numpy and scipy kernels are traced only under ``experiments``, by giving that
module copies of ``np`` and ``scipy`` whose ``linalg`` entry points are
wrapped. ``installed`` patches every hook and restores the originals on exit,
so untraced ops run the unmodified program.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import logging
import os
import time
import types

import numpy as np
import scipy.sparse.linalg

from sketchbound import cli, deterministic, expectation, experiments, rsvd, sketching
from sketchbound.sketching import GaussianSketch


class Tracer:
    """Spans ``[name, start, end, parent index, op id]`` and per-name counters."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = None
        self._open = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count`` adds counters from its arguments."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
            self.spans.append(span)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + '.raised'] += 1
                raise
            finally:
                span[1], span[2] = start, time.perf_counter()
                self._open.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result
        return traced


def _module_copy(module, **overrides):
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(vars(module), **overrides)
    return copy


def _normals(counts, args, result):
    counts['sketching.standard_gaussian.normals'] += args['rows'] * args['cols']


def _gemm_flops(counts, args, result):
    m, n = np.shape(args['a'])
    counts['sketching.rsvd_sketch.gemm_flops'] += 2 * m * n * args['p'] * (2 * args['q'] + 1)


def _emit_bytes(counts, args, result):
    counts['experiments.emit.bytes'] += os.path.getsize(args['path'])


def _read_bytes(counts, args, result):
    counts['linalg.read_matrix_market.bytes'] += os.path.getsize(args['path'])


def _empirical_trials(counts, args, result):
    counts['experiments.trials'] += result.trials + result.excluded_trials
    counts['experiments.trials_excluded'] += result.excluded_trials


def _sweep_trials(counts, args, result):
    cells = {(row.k, row.q, row.p) for row in result}
    counts['experiments.trials'] += len(cells) * args['config'].trials


class _SweepExclusions(logging.Handler):
    """Counts the trials ``run_sweep`` reports excluded, one warning per cell."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if record.msg.startswith('cell '):
            self.counts['experiments.trials_excluded'] += record.args[-1]


def _norm2(tracer):
    """``np.linalg.norm`` with only the spectral (``ord=2``) calls traced."""
    traced = tracer.wrap('kernel.norm2', np.linalg.norm)

    def norm(x, ord=None, axis=None, keepdims=False):
        return (traced if ord == 2 else np.linalg.norm)(x, ord, axis, keepdims)
    return norm


def _hooks(t):
    """``(namespace, name, replacement)`` for every traced binding."""
    gaussian = t.wrap('sketching.standard_gaussian', sketching.standard_gaussian, _normals)
    np_linalg = _module_copy(
        np.linalg, svd=t.wrap('kernel.svd', np.linalg.svd),
        eigvalsh=t.wrap('kernel.eigvalsh', np.linalg.eigvalsh), norm=_norm2(t),
    )
    sparse_linalg = _module_copy(scipy.sparse.linalg, eigsh=t.wrap('kernel.eigsh', scipy.sparse.linalg.eigsh))
    hooks = [
        (experiments, 'run_sweep', t.wrap('experiments.run_sweep', experiments.run_sweep, _sweep_trials)),
        (experiments, 'empirical_error',
         t.wrap('experiments.empirical_error', experiments.empirical_error, _empirical_trials)),
        (experiments, 'synthetic_matrix', t.wrap('experiments.synthetic_matrix', experiments.synthetic_matrix)),
        (experiments, 'emit', t.wrap('experiments.emit', experiments.emit, _emit_bytes)),
        (experiments, 'standard_gaussian', gaussian),
        (experiments, 'np', _module_copy(np, linalg=np_linalg)),
        (experiments, 'scipy', _module_copy(
            scipy, sparse=_module_copy(scipy.sparse, linalg=sparse_linalg))),
        (sketching, 'standard_gaussian', gaussian),
        (sketching, 'rsvd_sketch', t.wrap('sketching.rsvd_sketch', sketching.rsvd_sketch, _gemm_flops)),
        (cli, 'rsvd_distribution', t.wrap('sketching.rsvd_distribution', cli.rsvd_distribution)),
        (GaussianSketch, 'from_moments',
         classmethod(t.wrap('sketching.from_moments', vars(GaussianSketch)['from_moments'].__func__))),
        (expectation, 'project_covariance',
         t.wrap('expectation.project_covariance', expectation.project_covariance)),
        (deterministic, 'angle_operators', t.wrap('deterministic.angle_operators', deterministic.angle_operators)),
        (deterministic, 'residual_gap_squared',
         t.wrap('deterministic.residual_gap_squared', deterministic.residual_gap_squared)),
        (deterministic, 'orthonormal_basis', t.wrap('linalg.orthonormal_basis', deterministic.orthonormal_basis)),
        (deterministic, 'pseudo_inverse', t.wrap('linalg.pseudo_inverse', deterministic.pseudo_inverse)),
        (cli, 'svd', t.wrap('linalg.svd', cli.svd)),
        (cli, 'read_matrix_market', t.wrap('linalg.read_matrix_market', cli.read_matrix_market, _read_bytes)),
        (cli, 'main', t.wrap('cli.main', cli.main)),
    ]
    for name in ('frobenius_bound', 'spectral_bound', 'improved_spectral_bound'):
        hooks.append((rsvd, name, t.wrap('rsvd.closed_form', getattr(rsvd, name))))
    for name in ('hmt_frobenius', 'hmt_spectral', 'hmt_power'):
        hooks.append((rsvd, name, t.wrap('rsvd.hmt', getattr(rsvd, name))))
    for name in ('expected_frobenius_gap_bound', 'expected_frobenius_gap_sq_bound',
                 'expected_spectral_gap_bound', 'expected_spectral_tail_bound'):
        hooks.append((expectation, name, t.wrap('expectation.bounds', getattr(expectation, name))))
    for name in ('sine_tangent_gap_bound', 'deflated_spectral_gap_bound'):
        hooks.append((deterministic, name, t.wrap('deterministic.bounds', getattr(deterministic, name))))
    # the CLI dispatches through tables built at import time
    for table, span in ((cli._RSVD_VARIANTS, 'rsvd.closed_form'), (cli._THM_VARIANTS, 'expectation.bounds')):
        for key, fn in table.items():
            hooks.append((table, key, t.wrap(span, fn)))
    return hooks


@contextlib.contextmanager
def installed(tracer):
    """Route the program's calls through ``tracer`` for the duration of the block."""
    originals = []
    handler = _SweepExclusions(tracer.counts)
    logger = logging.getLogger('sketchbound.experiments')
    try:
        for namespace, name, replacement in _hooks(tracer):
            table = namespace if isinstance(namespace, dict) else vars(namespace)
            originals.append((namespace, name, table[name]))
            _assign(namespace, name, replacement)
        logger.addHandler(handler)
        yield tracer
    finally:
        logger.removeHandler(handler)
        for namespace, name, original in reversed(originals):
            _assign(namespace, name, original)


def _assign(namespace, name, value):
    if isinstance(namespace, dict):
        namespace[name] = value
    else:
        setattr(namespace, name, value)


# counters whose metric name differs from the counter key
_COUNTER_ALIASES = {'kernel.eigsh.fallbacks': 'kernel.eigsh.raised'}


def layer_totals(tracer):
    """Per-name totals: ``.calls``, ``.s`` (wall) and ``.self_s`` (wall minus child spans)."""
    totals = collections.Counter()
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    for index, (name, start, end, _, _) in enumerate(tracer.spans):
        totals[name + '.calls'] += 1
        totals[name + '.s'] += end - start
        totals[name + '.self_s'] += end - start - child_time[index]
    for key, value in tracer.counts.items():
        totals[key] += value
    for metric, key in _COUNTER_ALIASES.items():
        totals[metric] = totals[key]
    return totals


def span_names(tracer):
    return {span[0] for span in tracer.spans}
