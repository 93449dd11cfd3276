"""Every request the benchmark makes passes the package's request rule.

``perfbench/workloads.py`` is read, never written. A request the rule refused
would end a benchmark op in an error, so each one is checked against
``rsvd._check_request`` on the spectrum of its workload's input. (The sweep's
cells are covered by ``test_benchmark_golden.py``, which finds a row for each.)
"""

import numpy as np
import pytest

import harness_modules

from sketchbound import rsvd


@pytest.fixture(scope='module')
def workloads():
    return harness_modules.load('workloads')


def test_bounds_pool_requests_pass_the_rule(workloads):
    sigma = workloads._synthetic_spectrum(workloads.SYNTHETIC_N)
    for k, p, q, _ in workloads._bounds_pool().values():
        rsvd._check_request(sigma, k, p, q)


def test_empirical_small_requests_pass_the_rule(workloads):
    c = workloads.EmpiricalSmall.config
    # the rank-r input's singular values, its tail at zero rather than round-off
    sigma = np.zeros(min(c['shape']))
    sigma[:c['rank']] = np.exp(-np.arange(c['rank']) / c['decay'])
    for k in range(c['k_range'][0], c['k_range'][1] + 1):
        for p in (c['p_below'], c['p_above']):
            for q in c['q']:
                rsvd._check_request(sigma, k, p, q)
