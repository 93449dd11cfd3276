"""The part of the program that must not depend on the OpenBLAS kernel family:
the head rule's decision on a head block of round-off, and the bound values of
the spectrum route, in a sweep and in a ``bounds`` report.  OpenBLAS picks its
kernels once, at load time, so each family runs in a child process that
differs from the others only in ``OPENBLAS_CORETYPE``.  Samples and
dense-route bounds are bit-identical only within one family; they are not
compared across families.  Within each family, the readers of a tall left
factor must give the same bits whether it was completed first or not, its
completion must be square, C-ordered and orthogonal with the thin factor's bits
in its first columns, and ``linalg.svd`` must give the bits and the layout of
``np.linalg.svd`` at one BLAS thread.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import sketchbound

CHILD = r'''
import contextlib, ctypes, hashlib, io, json, os
import numpy as np
import scipy.linalg
from sketchbound import cli, experiments, expectation, linalg
from left_factor_readers import completion_input, completion_mismatches, reader_bits, svd_inputs, svd_mismatches

factors = linalg.svd(np.random.default_rng(4).standard_normal((40, 40)))
tail = factors.left_tail(3)
refused = []
for scale in (1.0, 1e4, 1e8):
    try:
        expectation.project_covariance(scale * (tail @ tail.T), factors, 3)
        refused.append(False)
    except linalg.RankDeficiencyError:
        refused.append(True)
config = experiments.SweepConfig(n=60, k_list=[3, 8], oversampling_list=[2, 10], q_list=[0, 1], trials=2,
                                 bound_variants=experiments.VARIANTS)
bounds = [value.hex() for row in experiments.run_sweep(config) for value in row.bounds.values()]
report = io.StringIO()
with contextlib.redirect_stdout(report):
    assert cli.main(['bounds', '--synthetic-n', '60', '--seed', '3', '--k', '5', '--p', '20', '--q', '1', '--variant',
                     ','.join(list(experiments.RSVD_VARIANTS) + list(experiments.HMT_VARIANTS))]) == 0
corenames = []
with open('/proc/self/maps') as maps:
    paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
for path in sorted(p for p in paths if 'openblas' in os.path.basename(p).lower()):
    lib = ctypes.CDLL(path)
    symbols = [s for s in ('scipy_openblas_get_corename64_', 'scipy_openblas_get_corename',
                           'openblas_get_corename64_', 'openblas_get_corename') if hasattr(lib, s)]
    if symbols:
        get = getattr(lib, symbols[0])
        get.argtypes, get.restype = [], ctypes.c_char_p
        corenames.append(get().decode())
    else:
        corenames.append(None)
order_free = reader_bits(complete_first=False) == reader_bits(complete_first=True)
svd_mismatched = {name: found for name, a in svd_inputs().items() if (found := svd_mismatches(a))}
thins = {width: completion_input(40, width) for width in (1, 17, 39)}
completion_failed = {width: found for width, thin in thins.items()
                     if (found := completion_mismatches(thin, linalg.SvdFactors(thin.copy(), [1.0], 1).left()))}
print(json.dumps({'corenames': corenames, 'refused': refused, 'order_free': order_free,
                  'svd_mismatched': svd_mismatched, 'completion_failed': completion_failed,
                  'bounds': hashlib.sha256(' '.join(bounds).encode()).hexdigest(),
                  'report': hashlib.sha256(report.getvalue().encode()).hexdigest()}))
'''

FAMILIES = (None, 'Haswell')


def run_child(family):
    """The child's report with ``OPENBLAS_CORETYPE`` unset, or set to ``family``."""
    env = {key: value for key, value in os.environ.items() if key != 'OPENBLAS_CORETYPE'}
    if family is not None:
        env['OPENBLAS_CORETYPE'] = family
    src = str(pathlib.Path(sketchbound.__file__).resolve().parents[1])
    tests = str(pathlib.Path(__file__).resolve().parent)
    env['PYTHONPATH'] = os.pathsep.join(filter(None, (src, tests, env.get('PYTHONPATH'))))
    done = subprocess.run([sys.executable, '-c', CHILD], env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(done.stdout)


@pytest.mark.skipif(not os.path.exists('/proc/self/maps'), reason='the BLAS libraries are found by /proc/self/maps')
def test_head_rule_and_spectrum_route_bounds_agree_across_kernel_families():
    hashes = {}
    for family in FAMILIES:
        report = run_child(family)
        assert report['order_free'], f'completing U first changed a reader\'s bits under {report["corenames"]}'
        assert report['svd_mismatched'] == {}, f'linalg.svd is not np.linalg.svd under {report["corenames"]}'
        assert report['completion_failed'] == {}, \
            f'completing U failed {report["completion_failed"]} under {report["corenames"]}'
        names = report['corenames']
        if not names or None in names or (family and any(n.lower() != family.lower() for n in names)):
            continue  # this BLAS cannot report, or did not take, the family
        assert report['refused'] == [True, True, True], f'a round-off head accepted under {names}'
        hashes[tuple(names)] = report['bounds'], report['report']
    if len(hashes) < 2:
        pytest.skip(f'fewer than two kernel families could be run: {sorted(hashes)}')
    assert len(set(hashes.values())) == 1, hashes
