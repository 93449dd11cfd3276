"""Per-trial layer breakdown of one acceptance-sweep cell, from the span hooks.

    python3 perfbench/breakdown.py [--k 15] [--rho 100] [--trials 20]

Runs ``run_sweep`` on the single cell (n=1000, q=0, both norms) untraced,
traced, and untraced again, and prints the time per trial of each layer:
the Gaussian draw (``standard_gaussian`` under ``rsvd_sketch``), ``A @ G``
(``rsvd_sketch`` self time), the head-check and basis SVDs, the ARPACK
spectral residuals, and the rest of ``run_sweep`` (``U^T Z``, the Frobenius
residual and bookkeeping). The tracing overhead is the traced wall time over
the mean of the two untraced ones.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _by_name(tracer, name, parent=None):
    """Durations of the spans called ``name`` (under a parent called ``parent``)."""
    spans = tracer.spans
    return [end - start for span_name, start, end, up, _ in spans
            if span_name == name and (parent is None or (up is not None and spans[up][0] == parent))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--k', type=int, default=15)
    parser.add_argument('--rho', type=int, default=100)
    parser.add_argument('--trials', type=int, default=20)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), 'src'))
    import spans
    from sketchbound import experiments

    config = experiments.SweepConfig(n=1000, k_list=(args.k,), oversampling_list=(args.rho,),
                                     trials=args.trials, seed=1)
    experiments.run_sweep(config)  # warm-up
    walls = []
    tracer = spans.Tracer()
    for traced in (False, True, False):
        start = time.perf_counter()
        if traced:
            with spans.installed(tracer):
                experiments.run_sweep(config)
        else:
            experiments.run_sweep(config)
        walls.append(time.perf_counter() - start)

    totals = spans.layer_totals(tracer)
    trials = args.trials
    svd = _by_name(tracer, 'kernel.svd')
    rows = [
        ('draw (standard_gaussian)', sum(_by_name(tracer, 'sketching.standard_gaussian', 'sketching.rsvd_sketch'))),
        ('A @ G (rsvd_sketch self)', totals['sketching.rsvd_sketch.self_s']),
        ('head-check SVD', sum(svd[0::2])),
        ('basis SVD', sum(svd[1::2])),
        ('ARPACK (2 eigsh)', totals['kernel.eigsh.s']),
        ('run_sweep self (U^T Z, residuals)', totals['experiments.run_sweep.self_s']),
        ('synthetic matrix (per call)', totals['experiments.synthetic_matrix.s'] * trials),
        ('traced run_sweep', totals['experiments.run_sweep.s']),
    ]
    print(f'k={args.k} p={args.k + args.rho} q=0 trials={trials}; ms per trial')
    for label, seconds in rows:
        print(f'  {label:36s} {1e3 * seconds / trials:8.2f}')
    overhead = walls[1] / (0.5 * (walls[0] + walls[2]))
    print(f'  tracing overhead ratio {overhead:.3f} (untraced {walls[0]:.3f}s, {walls[2]:.3f}s; traced {walls[1]:.3f}s)')
    return 0


if __name__ == '__main__':
    import run
    os.environ.update(run.blas_env())  # before numpy is first imported
    sys.exit(main())
