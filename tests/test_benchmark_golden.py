"""The benchmark's golden bits, guarded in tier-1.

``perfbench/golden.json`` pins bound values that the benchmark refuses to see
move. A sample of them is recomputed here and compared as ``float.hex``: every
bound column of the acceptance sweep, one deterministic instance per
(shape, q) class, and one zero-mean ``bounds --matrix`` request at q=2, the
route most sensitive to round-off.

``perfbench/workloads.py`` and ``golden.json`` are read, never written; every
input is made under ``tmp_path`` by the benchmark's own generators, and its
sha256 is checked against the reference. The golden values were captured at
one BLAS thread, so each check runs under ``experiments._one_blas_thread()``
and is skipped where no thread setter is found.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from sketchbound import cli, deterministic, experiments, linalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope='module')
def workloads():
    spec = importlib.util.spec_from_file_location('perfbench_workloads',
                                                  os.path.join(ROOT, 'perfbench', 'workloads.py'))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope='module')
def golden():
    with open(os.path.join(ROOT, 'perfbench', 'golden.json')) as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def one_blas_thread():
    with experiments._one_blas_thread() as found:
        if not found:
            pytest.skip('no BLAS thread setter: the golden bits hold at one BLAS thread only')
        yield


def test_sweep_bound_columns(workloads, golden):
    # the bounds read the spectrum alone, so one trial per cell is enough
    config = experiments.SweepConfig(**dict(workloads.SweepAcceptance.config, trials=1))
    rows = experiments.run_sweep(config)
    actual = {f'k{row.k}-p{row.p}-q{row.q}-{row.norm}': row.bounds for row in rows}
    assert sorted(actual) == sorted(golden['sweep'])
    assert workloads._golden_mismatches(golden['sweep'], actual, 'sweep') == []


def test_one_deterministic_instance_per_class(workloads, golden, tmp_path):
    first_of_class = {}
    for instance_id, shape_q in workloads._det_pool().items():
        first_of_class.setdefault(shape_q, instance_id)
    assert len(first_of_class) == 9
    errors = []
    for instance_id in first_of_class.values():
        files = workloads.det_input_files(instance_id, str(tmp_path), golden)  # raises on a sha256 mismatch
        a, z = np.load(files['A']), np.load(files['Z'])
        reports = workloads.det_reports(deterministic, a, linalg.svd(a), z, workloads.det_k(instance_id))
        for index, (want, got) in enumerate(zip(golden['deterministic'][instance_id], reports, strict=True)):
            errors += workloads._golden_mismatches(want, got, f'{instance_id}[{index}]')
    assert errors == []


def test_zero_mean_bounds_request_at_q2(workloads, golden, tmp_path):
    request = 'k15-p65-q2'
    matrix = str(tmp_path / 'bounds-A.mtx')
    workloads._ensure(matrix, workloads._make_bounds_matrix, golden['inputs']['bounds-A.mtx'])
    out = tmp_path / 'report.json'
    assert cli.main(workloads.bounds_argv(request, {'bounds-A.mtx': matrix}, str(out))) == 0
    report = json.loads(out.read_text())
    assert list(report['variants']) == list(experiments.VARIANTS)
    assert workloads._golden_mismatches(golden['bounds'][request], report['variants'], request) == []
