"""The package's one integer rule, ``linalg._check_integers``, at every entry point that takes a
count, a size, a rank or a seed: each refuses a float, a ``bool``, a string and a 1-D array with
``ValueError`` from the rule, before any work, and takes a numpy integer with the bits of a Python int."""

import dataclasses
import json
import re

import numpy as np
import pytest

from sketchbound import deterministic, experiments, rsvd
from sketchbound.expectation import expected_frobenius_gap_bound, expected_spectral_tail_bound
from sketchbound.experiments import SweepConfig, empirical_error, evaluate_bounds, run_sweep, synthetic_matrix
from sketchbound.linalg import SvdFactors, svd
from sketchbound.rsvd import SpectrumProfile, frobenius_bound, hmt_frobenius, hmt_power, hmt_spectral
from sketchbound.sketching import RsvdSketch, SeededStream, rsvd_distribution, rsvd_sketch, standard_gaussian

RNG = np.random.default_rng(38)
A = RNG.standard_normal((12, 9))
F = svd(A)
Z = RNG.standard_normal((12, 6))
SYNTHETIC = synthetic_matrix(60)[1]
SIGMA = SYNTHETIC.sigma
SKETCH = rsvd_distribution(F, 0, 6)
SWEEP = dict(n=30, k_list=[3], oversampling_list=[3], q_list=[0], trials=2, seed=1, norm_list=['spectral'])


def _sweep(**entries):
    """The rows of a one-cell sweep with ``entries`` in place of its own."""
    lists = {name: [value] for name, value in entries.items() if name.endswith('_list')}
    return run_sweep(SweepConfig(**{**SWEEP, **entries, **lists}))


# (entry point of one integer x, a valid integer for it); each x is an argument of the public call
ENTRY_POINTS = {
    'check_parameters-k': (lambda x: rsvd._check_parameters(x, 6, 0), 2),
    'check_request-p': (lambda x: rsvd._check_request(SIGMA, 3, x, 0), 10),
    'spectrum_profile-q': (lambda x: frobenius_bound(SpectrumProfile(SIGMA, 3, 10, x)), 2),
    'hmt_frobenius-k': (lambda x: hmt_frobenius(SIGMA, x, 10), 2),
    'hmt_spectral-p': (lambda x: hmt_spectral(SIGMA, 3, x), 10),
    'hmt_power-p': (lambda x: hmt_power(SIGMA, 3, x, 1), 10),
    'hmt_power-q': (lambda x: hmt_power(SIGMA, 3, 10, x), 2),
    'theorem-k': (lambda x: expected_frobenius_gap_bound(F, SKETCH, x, 6), 2),
    'theorem-p': (lambda x: expected_spectral_tail_bound(F, rsvd_distribution(F, 0, 6), 2, x), 6),
    'evaluate_bounds-k': (lambda x: evaluate_bounds(['cor_frobenius', 'thm4', 'hmt_power'], SYNTHETIC, x, 10, 0), 2),
    'evaluate_bounds-p': (lambda x: evaluate_bounds(['cor_frobenius'], SYNTHETIC, 3, x, 0), 10),
    'evaluate_bounds-q': (lambda x: evaluate_bounds(['cor_spectral'], SYNTHETIC, 3, 10, x), 2),
    'evaluate_bounds-theorem-k': (lambda x: evaluate_bounds(['thm3', 'thm5'], F, x, 6, 0, SKETCH), 2),
    'empirical_error-k': (lambda x: empirical_error(SYNTHETIC, RsvdSketch(0, 10), x, 3), 2),
    'empirical_error-trials': (lambda x: empirical_error(SYNTHETIC, RsvdSketch(0, 10), 3, x), 2),
    'empirical_error-seed': (lambda x: empirical_error(SYNTHETIC, RsvdSketch(1, 10), 3, 3, seed=x), 2),
    'rsvd_sketch-q': (lambda x: rsvd_sketch(A, x, 3, SeededStream(4)), 2),
    'rsvd_sketch-p': (lambda x: rsvd_sketch(A, 1, x, SeededStream(4)), 2),
    'rsvd_distribution-q': (lambda x: rsvd_distribution(F, x, 6).cov_sqrt, 2),
    'rsvd_distribution-p': (lambda x: rsvd_distribution(F, 0, x).mean, 2),
    'RsvdSketch-q': (lambda x: empirical_error(SYNTHETIC, RsvdSketch(x, 10), 3, 3), 2),
    'RsvdSketch-p': (lambda x: empirical_error(SYNTHETIC, RsvdSketch(0, x), 3, 3), 10),
    'SvdFactors-cols': (lambda x: SvdFactors(np.eye(3), [1.0, 0.5], x).cols, 2),
    'left_head-k': (lambda x: F.left_head(x), 2),
    'left_tail-k': (lambda x: F.left_tail(x), 2),
    'sigma_head-k': (lambda x: F.sigma_head(x), 2),
    'next_sigma-k': (lambda x: F.next_sigma(x), 2),
    'angle_operators-k': (lambda x: deterministic.angle_operators(F, Z, x), 2),
    'residual_gap_squared-k': (lambda x: deterministic.residual_gap_squared(A, F, Z, x, 'spectral'), 2),
    'sine_tangent_gap_bound-k': (lambda x: deterministic.sine_tangent_gap_bound(A, F, Z, x, 'frobenius'), 2),
    'deflated_spectral_gap_bound-k': (lambda x: deterministic.deflated_spectral_gap_bound(A, F, Z, x), 2),
    'SeededStream-master_seed': (lambda x: standard_gaussian(3, 2, SeededStream(x)), 2),
    'SeededStream-stream_index': (lambda x: standard_gaussian(3, 2, SeededStream(5, x)), 2),
    'standard_gaussian-rows': (lambda x: standard_gaussian(x, 3, SeededStream(5)), 2),
    'standard_gaussian-cols': (lambda x: standard_gaussian(3, x, SeededStream(5)), 2),
    'synthetic_matrix-n': (lambda x: synthetic_matrix(x)[0].toarray(), 20),
    'synthetic_matrix-seed': (lambda x: synthetic_matrix(20, x)[0], 2),
    'check_trial_keys-q': (lambda x: experiments._check_trial_keys(0, 2, 10, (0, x)), 2),
    'SweepConfig-n': (lambda x: _sweep(n=x), 30),
    'SweepConfig-k_list': (lambda x: _sweep(k_list=x), 2),
    'SweepConfig-oversampling_list': (lambda x: _sweep(oversampling_list=x), 2),
    'SweepConfig-q_list': (lambda x: _sweep(q_list=x), 2),
    'SweepConfig-trials': (lambda x: _sweep(trials=x), 2),
    'SweepConfig-seed': (lambda x: _sweep(seed=x), 2),
}


def _bits(result):
    """``result`` as JSON text, whose floats carry every bit; a numpy value as its Python one."""
    def plain(value):
        if isinstance(value, (np.ndarray, np.generic)):
            return value.tolist()
        return dataclasses.asdict(value)
    return json.dumps(result, default=plain, sort_keys=True)


@pytest.mark.parametrize('value', [2.5, 2.0, True, '2', np.array([2])],
                         ids=['half', 'float', 'bool', 'string', 'array'])
@pytest.mark.parametrize('name', ENTRY_POINTS)
def test_a_non_integer_is_refused_by_the_rule(name, value):
    call, _ = ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=rf'must be (an integer|integers), got {re.escape(repr(value))}$'):
        call(value)


@pytest.mark.parametrize('name', ENTRY_POINTS)
def test_a_numpy_integer_gives_the_bits_of_a_python_int(name):
    call, good = ENTRY_POINTS[name]
    assert _bits(call(np.int64(good))) == _bits(call(good))


# (call, the argument its refusal names): inputs that earlier versions evaluated, or refused
# with an unrelated error (``IndexError``, ``TypeError``, numpy's 0-d array error) or only later
DEFECTS = {
    'cor_frobenius-half-p': (lambda: evaluate_bounds(['cor_frobenius'], SYNTHETIC, 3, 10.5, 0), 'p'),
    'cor_spectral-half-q': (lambda: evaluate_bounds(['cor_spectral'], SYNTHETIC, 3, 10, 0.5), 'q'),
    'hmt_power-half-p': (lambda: hmt_power(SIGMA, 3, 10.5, 1), 'p'),
    'RsvdSketch-half-q': (lambda: RsvdSketch(q=0.5, p=10), 'q'),
    'rsvd_distribution-half-q': (lambda: rsvd_distribution(SYNTHETIC, 0.5, 10), 'q'),
    'empirical_error-float-k': (lambda: empirical_error(SYNTHETIC, RsvdSketch(0, 10), 3.0, 3), 'k'),
    'report-bool-k': (lambda: deterministic.sine_tangent_gap_bound(A, F, Z, True, 'spectral'), 'k'),
    'evaluate_bounds-bool-k': (lambda: evaluate_bounds(['cor_frobenius'], SYNTHETIC, True, 4, 0), 'k'),
    'SvdFactors-float-cols': (lambda: SvdFactors(np.eye(3), [1.0, 0.5], 60.0), 'cols'),
    'synthetic_matrix-float-n': (lambda: synthetic_matrix(60.0), 'n'),
    'SeededStream-float-seed': (lambda: SeededStream(1.5), 'master_seed'),
}


@pytest.mark.parametrize('name', DEFECTS)
def test_a_non_integer_is_refused_naming_its_argument(name):
    call, argument = DEFECTS[name]
    with pytest.raises(ValueError, match=f'^{argument} must be an integer, got '):
        call()
