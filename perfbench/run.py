"""sketchbound benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see ``workloads.py``):

* ``sweep_acceptance``       the paper's n=1000 Monte Carlo sweep, run_sweep + emit
* ``empirical_small``        ``sketchbound empirical`` on a 500x400 rank-60 matrix file
* ``bounds_cli``             ``sketchbound bounds`` with all variants on the n=1000 matrix
* ``deterministic_samples``  per-sample deterministic bounds on seeded (A, Z, k)

Every run is one client in a closed loop inside one worker process, with BLAS
pinned to one thread: BLAS results depend on the thread count in the last bit,
so the golden reference holds for one count only, and one thread runs these
sizes about as fast as two on a two-core machine while busy-waiting far less. Inputs are written from the seed before anything is timed.
With ``--trace 0`` the last line of output holds the end-to-end metrics of
``BENCHMARK.json``; ``setup_s`` is the median over three fresh interpreters of
the time to the first completed warm-up op. With ``--trace 1`` it holds the
per-layer metrics, each normalised per traced op, from spans kept in memory
and written to ``.perfbench/runs/<run>/spans.json``.

An op fails if it raises or exits non-zero, if its output is non-finite, if a
bound value differs from ``golden.json``, or if it breaks its workload's
check (within-run determinism, 3-standard-error domination of the sweep's
empirical means, ``lhs_gap <= bound`` for the deterministic bounds). Context
lines (provenance, sample counts, failures) precede the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import golden

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREADS = 1


def blas_env():
    threads = str(BLAS_THREADS)
    return {'OPENBLAS_NUM_THREADS': threads, 'OMP_NUM_THREADS': threads, 'MKL_NUM_THREADS': threads}


class RunFailed(Exception):
    pass


class Runner:
    """Spawns the worker processes of one run and waits for each to end."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **blas_env(), PYTHONHASHSEED='0')

    def worker(self, command, spec, out=None, extra=()):
        """Run ``worker.py``; returns ``(perf_counter before spawn, result or None)``."""
        argv = [sys.executable, os.path.join(HERE, 'worker.py'), command, '--spec', spec, *extra]
        if out:
            argv += ['--out', out]
        log_path = os.path.join(self.run_dir, f'{os.path.basename(out or command)}.log')
        with open(log_path, 'w') as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RunFailed(f'worker {command} timed out; see {log_path}')
        if code != 0:
            with open(log_path) as log:
                tail = log.read()[-2000:]
            raise RunFailed(f'worker {command} exited with {code}:\n{tail}')
        if out is None:
            return spawned, None
        with open(out) as handle:
            return spawned, json.load(handle)


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method='inclusive')[8]


def _tail(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100, method='inclusive')[pct - 1]


def end_to_end(setups, measure):
    latencies = measure['timed']
    return {
        'setup_s': statistics.median(setups),
        'op_p50_s': statistics.median(latencies),
        'op_p90_s': _p90(latencies),
        'ops_per_s': len(latencies) / measure['section_s'],
        'peak_rss_mb': measure['peak_rss_mb'],
    }


def per_layer(names, measure):
    totals = measure['layer_totals']
    ops = measure['traced_ops']
    values = {name: totals.get(name, 0.0) / ops for name in names if not name.startswith('trace.')}
    values['trace.overhead_ratio'] = statistics.median(measure['traced']) / statistics.median(measure['untraced'])
    return values


def run(args, bench):
    run_dir = os.path.join('.perfbench', 'runs', f'{args.workload}-s{args.seed}-t{args.trace}')
    inputs_dir = os.path.join('.perfbench', 'inputs')
    os.makedirs(os.path.join(run_dir, 'out'), exist_ok=True)
    os.makedirs(inputs_dir, exist_ok=True)
    spec_path = os.path.join(run_dir, 'spec.json')
    with open(spec_path, 'w') as handle:
        json.dump({'workload': args.workload, 'seed': args.seed, 'run_dir': run_dir,
                   'inputs_dir': inputs_dir}, handle)
    try:
        setups, results = _collect(args, Runner(run_dir), run_dir, spec_path)
    finally:
        # per-run matrix files are large and the seed makes them again
        for name in os.listdir(run_dir):
            if name.endswith('.mtx'):
                os.remove(os.path.join(run_dir, name))
    with open(spec_path) as handle:
        spec = json.load(handle)
    measure = results[-1]

    attempted = sum(r['attempted'] for r in results)
    failures = [f for r in results for f in r['failures']]
    problems = []
    if args.trace:
        metric_specs = bench['per_layer']
        metrics = per_layer([m['name'] for m in metric_specs], measure)
        if measure['missing_spans']:
            problems.append(f"spans that never fired: {measure['missing_spans']}")
        if measure['trace_output_mismatches']:
            problems.append(f"{measure['trace_output_mismatches']} traced outputs differ from untraced")
    else:
        metric_specs = bench['end_to_end']
        metrics = end_to_end(setups, measure)

    latencies = measure['traced'] if args.trace else measure['timed']
    provenance = dict(measure['provenance'], git_commit=golden._git_commit(os.getcwd()),
                      source_sha256=_source_sha256(), nproc=os.cpu_count(),
                      affinity_cpus=len(os.sched_getaffinity(0)), blas_threads_pinned=BLAS_THREADS,
                      workload=args.workload, seed=args.seed, config_sha256=spec['config_sha256'],
                      ops_sha256=spec['ops_sha256'])
    print('provenance ' + json.dumps(provenance, sort_keys=True))
    tail = _tail(latencies)
    print(f'samples ops={len(latencies)} setups={len(setups)}'
          + (f' p{tail[0]}={tail[1]:.6g}s (highest percentile with 10 samples beyond)' if tail else ''))
    print(f'error_rate {len(failures)}/{attempted}')
    for failure in failures[:10]:
        print(f'failed {json.dumps(failure)}')
    for problem in problems:
        print(f'check failed: {problem}')

    summary = {
        'correct': not failures and not problems,
        'attempted': attempted,
        'failed': len(failures),
        'metrics': {m['name']: {'value': metrics[m['name']], 'unit': m['unit']} for m in metric_specs},
    }
    with open(os.path.join(run_dir, 'result.json'), 'w') as handle:
        json.dump(dict(summary, provenance=provenance, setups_s=setups, latencies_s=latencies), handle, indent=1)
    print(json.dumps(summary))
    return 0


def _collect(args, runner, run_dir, spec_path):
    """Prepare the inputs, then time set-up in fresh interpreters and measure in the last one."""
    runner.worker('prepare', spec_path)
    setups, results = [], []
    setup_runs = 0 if args.trace else SETUP_SAMPLES - 1
    for index in range(setup_runs):
        spawned, result = runner.worker('setup', spec_path, os.path.join(run_dir, f'setup{index}.json'))
        setups.append(result['first_op_done'] - spawned)
        results.append(result)
    spawned, measure = runner.worker('measure', spec_path, os.path.join(run_dir, 'measure.json'),
                                     ('--seconds', str(args.seconds), '--trace', str(args.trace)))
    setups.append(measure['first_op_done'] - spawned)
    results.append(measure)
    return setups, results


def _source_sha256():
    """Content hash of the program's sources; identifies checkouts that are not git repositories."""
    digest = hashlib.sha256()
    package = os.path.join('src', 'sketchbound')
    for name in sorted(os.listdir(package)):
        if name.endswith('.py'):
            with open(os.path.join(package, name), 'rb') as handle:
                digest.update(name.encode() + b'\0' + handle.read())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join('src', 'sketchbound', '__init__.py')):
        print('run.py: no src/sketchbound here; run from the root of a sketchbound checkout', file=sys.stderr)
        return 2
    with open('BENCHMARK.json') as handle:
        bench = json.load(handle)
    if args.workload not in {w['name'] for w in bench['workloads']}:
        print(f'run.py: unknown workload {args.workload!r}', file=sys.stderr)
        return 2
    try:
        return run(args, bench)
    except RunFailed as exc:
        print(f'run.py: {exc}', file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
