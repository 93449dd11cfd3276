"""One benchmark process, started fresh by ``run.py``.

    worker.py prepare --spec SPEC            write the inputs and op list of a run
    worker.py setup   --spec SPEC --out OUT  import, load, one warm-up op, exit
    worker.py measure --spec SPEC --out OUT --seconds S --trace 0|1

``setup`` and ``measure`` write the ``perf_counter`` reading at which their
first warm-up op completed; on Linux that clock is ``CLOCK_MONOTONIC``, shared
by every process, so the parent subtracts its own reading taken before the
spawn to get the set-up time. ``measure`` then replays the op list in a closed
loop with one client for the given seconds. With ``--trace 1`` each op runs
twice, untraced and traced in alternating order, so the tracing overhead is
measured on the same ops.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, 'src'))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import golden  # noqa: E402
import workloads  # noqa: E402


def _timed(workload, op):
    """Run one op; returns ``(seconds, output or None, error or None)``."""
    workload.reset()
    start = time.perf_counter()
    try:
        workload.run(op)
    except (Exception, SystemExit) as exc:  # argparse exits on bad argv
        return time.perf_counter() - start, None, f'{type(exc).__name__}: {exc}'
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.output(op), None
    except (OSError, RuntimeError) as exc:
        return elapsed, None, f'no output: {exc}'


def _blas_info():
    """OpenBLAS version string and live thread count, read from the loaded library."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), 'numpy.libs', '*openblas*'))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ('scipy_openblas', 'openblas'):
            for suffix in ('64_', ''):
                try:
                    threads = getattr(lib, f'{prefix}_get_num_threads{suffix}')
                    config = getattr(lib, f'{prefix}_get_config{suffix}')
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                return config().decode(), int(threads())
    return 'unknown', None


def provenance():
    import sketchbound
    blas, threads = _blas_info()
    return {
        'sketchbound_version': sketchbound.__version__,
        'python': platform.python_version(),
        'numpy': np.__version__,
        'scipy': scipy.__version__,
        'openblas': blas,
        'blas_threads': threads,
    }


class Run:
    """Op bookkeeping of one process: every op is checked after the timed loop."""

    def __init__(self, spec):
        self.workload = workloads.WORKLOADS[spec['workload']](spec, golden.load())
        self.records = []

    def op(self, index, phase):
        op = self.workload.ops[index % len(self.workload.ops)]
        seconds, output, error = _timed(self.workload, op)
        self.records.append(dict(phase=phase, index=index, op=op, seconds=seconds, output=output, error=error))

    def check(self):
        failures = []
        for record in self.records:
            errors = [record['error']] if record['error'] else self.workload.check(record['op'], record['output'])
            if errors:
                failures.append({'op': record['op']['id'], 'phase': record['phase'], 'errors': errors[:5]})
        return failures


def _setup(spec):
    run = Run(spec)
    run.op(0, phase='warmup')
    first_done = time.perf_counter()
    return run, first_done


def cmd_prepare(spec, args):
    cls = workloads.WORKLOADS[spec['workload']]
    spec.update(cls.generate(spec['seed'], spec['inputs_dir'], spec['run_dir'], golden.load()))
    spec['config_sha256'] = workloads.json_sha256(cls.config)
    spec['ops_sha256'] = workloads.json_sha256(spec['ops'])
    with open(args.spec, 'w') as handle:
        json.dump(spec, handle, indent=1)


def cmd_setup(spec, args):
    run, first_done = _setup(spec)
    failures = run.check()
    return {'first_op_done': first_done, 'attempted': len(run.records), 'failures': failures}


def cmd_measure(spec, args):
    run, first_done = _setup(spec)
    tracer = None
    if args.trace:
        import spans  # only traced runs load the hooks
        tracer = spans.Tracer()
    start = time.perf_counter()
    index = 0
    # a traced run covers the whole op list at least once, so every span the
    # workload should fire gets the chance to
    while time.perf_counter() - start < args.seconds or (tracer and index < len(run.workload.ops)):
        if tracer is None:
            run.op(index, phase='timed')
        else:
            # alternate which copy runs first so neither inherits warmer caches
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = index
                    with spans.installed(tracer):
                        run.op(index, phase='traced')
                else:
                    run.op(index, phase='untraced')
        index += 1
    section = time.perf_counter() - start
    failures = run.check()
    result = {
        'first_op_done': first_done,
        'attempted': len(run.records),
        'failures': failures,
        'section_s': section,
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        'provenance': provenance(),
    }
    for phase in ('timed', 'untraced', 'traced'):
        result[phase] = [r['seconds'] for r in run.records if r['phase'] == phase]
    if tracer is not None:
        result.update(_trace_summary(run, tracer, index, args))
    return result


def _trace_summary(run, tracer, traced_ops, args):
    import spans
    by_phase = {}
    for record in run.records:
        if record['phase'] in ('traced', 'untraced'):
            by_phase[(record['index'], record['phase'])] = record['output']
    mismatched = sum(1 for i in range(traced_ops)
                     if by_phase.get((i, 'traced')) != by_phase.get((i, 'untraced')))
    missing = sorted(set(run.workload.expected_spans) - spans.span_names(tracer))
    with open(os.path.join(os.path.dirname(args.out), 'spans.json'), 'w') as handle:
        json.dump({'fields': ['name', 'start', 'end', 'parent', 'op'], 'spans': tracer.spans,
                   'counts': dict(tracer.counts)}, handle)
    return {
        'traced_ops': traced_ops,
        'layer_totals': dict(spans.layer_totals(tracer)),
        'trace_output_mismatches': mismatched,
        'missing_spans': missing,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('command', choices=('prepare', 'setup', 'measure'))
    parser.add_argument('--spec', required=True)
    parser.add_argument('--out')
    parser.add_argument('--seconds', type=float, default=0.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        spec = json.load(handle)
    command = {'prepare': cmd_prepare, 'setup': cmd_setup, 'measure': cmd_measure}[args.command]
    try:
        result = command(spec, args)
    except Exception:
        traceback.print_exc()
        return 1
    if args.out:
        tmp = args.out + '.tmp'
        with open(tmp, 'w') as handle:
            json.dump(result, handle)
        os.replace(tmp, args.out)
    return 0


if __name__ == '__main__':
    sys.exit(main())
