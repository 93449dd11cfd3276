"""Golden reference: every bound value the benchmark's ops emit, bit for bit.

``golden.json`` was captured by running this file at the seed commit of the
benchmark from the root of a checkout:

    python3 perfbench/golden.py

It covers the whole request pool of ``bounds_cli`` and ``deterministic_samples``
(any workload seed draws from those pools), the bound columns of the
acceptance sweep (they depend on the spectrum only, not on the seed), and the
sha256 of every pooled input file. Floats are stored as ``float.hex``.
Empirical columns are not captured: they are checked within a run instead.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), 'golden.json')


def load():
    with open(PATH) as handle:
        return json.load(handle)


def _git_commit(root):
    """HEAD of the checkout read from ``.git`` directly; None outside a git checkout."""
    try:
        with open(os.path.join(root, '.git', 'HEAD')) as handle:
            head = handle.read().strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, '.git', ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, '.git', 'packed-refs')) as handle:
            for line in handle:
                if line.rstrip().endswith(' ' + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def capture(root):
    sys.path.insert(0, os.path.join(root, 'src'))
    import numpy as np
    import workloads
    import worker
    from sketchbound import cli, deterministic, experiments, linalg

    # inputs are generated afresh here, never taken from a run's cache
    out_dir = os.path.join(root, '.perfbench', 'golden')
    inputs_dir = os.path.join(out_dir, 'inputs')
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(inputs_dir)
    hexed = workloads._hex_floats

    config = dict(workloads.SweepAcceptance.config, seed=0)
    csv_path = os.path.join(out_dir, 'sweep.csv')
    experiments.emit(experiments.run_sweep(experiments.SweepConfig(**config)), 'csv', csv_path)
    with open(csv_path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(',')
    sweep = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(',')))
        key = f"k{row['k']}-p{row['p']}-q{row['q']}-{row['norm']}"
        sweep[key] = {name: float(row[name]).hex() for name in header[8:]}

    files = workloads.bounds_input_files(inputs_dir, None)
    inputs = {name: workloads.sha256_file(path) for name, path in files.items()}
    bounds = {}
    report_path = os.path.join(out_dir, 'report.json')
    for request_id in sorted(workloads._bounds_pool()):
        if cli.main(workloads.bounds_argv(request_id, files, report_path)) != 0:
            raise RuntimeError(f'bounds request {request_id} failed')
        with open(report_path) as handle:
            bounds[request_id] = hexed(json.load(handle)['variants'])

    det = {}
    for instance_id in sorted(workloads._det_pool()):
        paths = workloads.det_input_files(instance_id, inputs_dir, None)
        inputs.update({os.path.basename(p): workloads.sha256_file(p) for p in paths.values()})
        a = np.load(paths['A'])
        reports = workloads.det_reports(deterministic, a, linalg.svd(a), np.load(paths['Z']),
                                        workloads.det_k(instance_id))
        det[instance_id] = [hexed({key: r[key] for key in ('bound_sine', 'bound_tangent', 'bound')})
                            for r in reports]

    reference = {
        'captured_at': {'commit': _git_commit(root), **worker.provenance()},
        'inputs': inputs, 'sweep': sweep, 'bounds': bounds, 'deterministic': det,
    }
    with open(PATH, 'w') as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write('\n')
    return 0


if __name__ == '__main__':
    import run
    os.environ.update(run.blas_env())  # before numpy is first imported
    sys.exit(capture(os.getcwd()))
