"""Command line interface.

Subcommands::

    sketchbound gen-matrix --n 1000 --seed 0 --out A.mtx
    sketchbound bounds --synthetic-n 200 --k 5 --p 20 --q 1 --variant cor_frobenius,hmt_frobenius
    sketchbound sweep --config sweep.json
    sketchbound empirical --matrix A.mtx --k 5 --p 20 --q 0 --trials 50 --seed 7

Exit codes: 0 on success, 2 on precondition violations (a malformed request or
sweep config, an SVD that does not converge, or an overflow), 1 on I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import expectation, experiments, rsvd
from .linalg import FactorizationError, _write_atomic, read_matrix_market, svd, write_matrix_market
from .sketching import GaussianSketch, RsvdSketch, rsvd_distribution

# the evaluator's own dispatch tables, bound here under the names that
# perfbench/spans.py wraps in place
_RSVD_VARIANTS = experiments.RSVD_VARIANTS
_THM_VARIANTS = experiments.THEOREM_VARIANTS


def _build_parser():
    parser = argparse.ArgumentParser(prog='sketchbound',
                                     description='Low-rank sketching error bounds and Monte Carlo checks.')
    sub = parser.add_subparsers(dest='command', required=True)

    gen = sub.add_parser('gen-matrix', help='write the synthetic test matrix in Matrix Market format')
    gen.add_argument('--n', type=int, required=True)
    gen.add_argument('--seed', type=int, default=0)
    gen.add_argument('--out', required=True)

    # the problem and request flags that bounds and empirical share
    problem = argparse.ArgumentParser(add_help=False)
    src = problem.add_mutually_exclusive_group(required=True)
    src.add_argument('--matrix', help='Matrix Market file holding A')
    src.add_argument('--synthetic-n', type=int, help='use the synthetic test matrix of this order')
    problem.add_argument('--k', type=int, required=True)
    problem.add_argument('--p', type=int, required=True)
    problem.add_argument('--q', type=int, default=0)
    problem.add_argument('--out', help='write the JSON report here instead of stdout')

    bounds = sub.add_parser('bounds', parents=[problem], help='evaluate bound variants as a JSON report')
    bounds.add_argument('--seed', type=int, default=0, help='seed for the synthetic matrix')
    bounds.add_argument('--variant',
                        help='comma-separated list among: ' + ', '.join(experiments.VARIANTS))
    bounds.add_argument('--mean', help='Matrix Market file with the sketch mean (thm variants)')
    bounds.add_argument('--cov', help='Matrix Market file with the sketch covariance (thm variants)')

    sweep = sub.add_parser('sweep', help='run a sweep described by a JSON config file')
    sweep.add_argument('--config', required=True)

    emp = sub.add_parser('empirical', parents=[problem], help='Monte Carlo residual statistics as JSON')
    emp.add_argument('--trials', type=int, default=100)
    emp.add_argument('--seed', type=int, default=0,
                     help='seed of the trial streams, keyed as a sweep keys them; a --synthetic-n problem '
                          'draws nothing, so mean and std are those of the sweep row (k, p, q) of this seed')
    emp.add_argument('--norm', choices=experiments.NORMS, default='frobenius')
    emp.add_argument('--metric', choices=experiments.METRICS, default='general')
    return parser


def _load_problem(args, seed=None):
    """SVD factors of the requested matrix, read by every bound and trial alone;
    the synthetic problem of no seed is ``diag(sigma)``, and a seeded one draws
    only its ``U``."""
    if args.matrix is not None:
        return svd(read_matrix_market(args.matrix))
    return experiments._synthetic_factors(args.synthetic_n, seed)


def _non_finite(report, path=''):
    """``(key path, value)`` of the first non-finite float in a report of nested
    dicts, lists and tuples, such as ``('variants.hmt_frobenius.bound', inf)``, or None."""
    if isinstance(report, float):
        return None if math.isfinite(report) else (path, report)
    if isinstance(report, dict):
        items = report.items()
    else:
        items = enumerate(report) if isinstance(report, (list, tuple)) else ()
    for key, value in items:
        found = _non_finite(value, f'{path}.{key}' if path else str(key))
        if found is not None:
            return found
    return None


def _write_json(report, out):
    found = _non_finite(report)
    if found is not None:  # JSON cannot carry it; named here, not by the encoder, whose text varies
        raise ValueError(f'{found[0]} is {found[1]}, which JSON cannot carry; no report written')
    payload = json.dumps(report, indent=2, allow_nan=False) + '\n'
    if out:
        _write_atomic(out, lambda handle: handle.write(payload.encode()))
    else:
        print(payload, end='')


def _cmd_gen_matrix(args):
    a, _ = experiments.synthetic_matrix(args.n, args.seed)
    write_matrix_market(args.out, a)
    print(args.out)
    return 0


def _cmd_bounds(args):
    # refuse what can be refused before the problem is loaded and factored
    variants = list(experiments.VARIANTS)
    if args.variant is not None:
        variants = [v.strip() for v in args.variant.split(',') if v.strip()]
    experiments._check_variants(variants)
    rsvd._check_parameters(args.k, args.p, args.q)
    if (args.mean is None) != (args.cov is None):
        raise ValueError('--mean and --cov must be given together')
    factors = _load_problem(args, args.seed)
    sketch = None
    if args.mean is not None:
        # the sketch's shape is checked for every variant list, before the covariance is read and factored
        mean = read_matrix_market(args.mean)
        expectation._check_sketch_rows(factors, mean)
        if mean.shape[1] != args.p:
            raise ValueError(f'sketch mean has {mean.shape[1]} columns, expected p={args.p}')
        sketch = GaussianSketch.from_moments(mean, read_matrix_market(args.cov))
        if args.variant is None and sketch.mean.any():
            # the squared-gap bound holds for zero-mean sketches only
            variants.remove('thm3_squared')
    elif any(name in _THM_VARIANTS for name in variants):
        sketch = rsvd_distribution(factors, args.q, args.p)
    report = {'k': args.k, 'p': args.p, 'q': args.q,
              'variants': experiments.evaluate_bounds(variants, factors, args.k, args.p, args.q, sketch)}
    _write_json(report, args.out)
    return 0


def _cmd_sweep(args):
    config = experiments.SweepConfig.from_json(args.config)
    path = config.output_path or 'sweep.' + config.output_format
    experiments.emit(experiments.run_sweep(config), config.output_format, path)
    print(path)
    return 0


def _cmd_empirical(args):
    # the residuals' law depends on A only through sigma, so a synthetic
    # problem is diag(sigma); bounds keep the real U
    sketch = RsvdSketch(q=args.q, p=args.p)
    rsvd._check_parameters(args.k, args.p, args.q)
    experiments._check_trial_keys(args.seed, args.trials, args.p, (args.q,))
    factors = _load_problem(args)
    stats = experiments.empirical_error(
        factors, sketch, args.k, args.trials,
        norm=args.norm, metric=args.metric, seed=args.seed,
    )
    if not stats.trials:
        # the mean of no trials is NaN, which JSON cannot carry
        raise ValueError(f'all {stats.excluded_trials} trials excluded by the head rank check; no report written')
    _write_json({
        'k': args.k, 'p': args.p, 'q': args.q, 'norm': args.norm, 'metric': args.metric,
        'trials': stats.trials, 'excluded_trials': stats.excluded_trials,
        'mean': stats.mean, 'std': stats.std,
    }, args.out)
    return 0


_COMMANDS = {
    'gen-matrix': _cmd_gen_matrix,
    'bounds': _cmd_bounds,
    'sweep': _cmd_sweep,
    'empirical': _cmd_empirical,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f'sketchbound: I/O error: {exc}', file=sys.stderr)
        return 1
    except (ValueError, FactorizationError, OverflowError) as exc:
        print(f'sketchbound: {exc}', file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
