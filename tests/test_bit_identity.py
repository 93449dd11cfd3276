"""Bit-identity guard: every bound value of ``sketchbound bounds``, of the
bound columns of ``run_sweep`` and of the per-sample deterministic bounds,
the empirical columns of a sweep under both metrics, and the per-trial values
of two sampled Gaussian sketches and of round-off-level residuals, compared
as ``float.hex`` with a reference.

``data/bound_values.json`` holds the values of a reference commit. Recapture
it only when bound values are meant to change, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_bit_identity.py

which prints, for each group, the keys that moved and the largest change of
each, absolute and relative to the largest old magnitude in the group.
"""

import functools
import json
import math
import os
import tempfile

import numpy as np

from sketchbound import cli, deterministic, experiments
from sketchbound.linalg import svd, write_matrix_market
from sketchbound.sketching import GaussianSketch, RsvdSketch, rsvd_distribution

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), 'data', 'bound_values.json')
CLI_CASES = ((3, 8, 0), (5, 20, 1), (10, 40, 2))
# a --mean/--cov request: nonzero mean, dense covariance unrelated to A's basis
MEAN_COV_CASE = (5, 20, 1)
# (rows, cols, k) of the tall, wide and square deterministic instances; each
# is sketched with q = 0 and q = 1 power passes
DET_SHAPES = ((30, 20, 4), (20, 30, 6), (24, 24, 5))
DET_SKETCH_COLUMNS = 9
# (rows, cols) of the tall, wide and square rank-deficient problems whose
# sketches have more columns than A has rank, so every residual is round-off
ROUNDOFF_SHAPES = ((40, 25), (25, 40), (30, 30))
ROUNDOFF_RANK = 6
ALL_VARIANTS = (
    'cor_frobenius', 'cor_spectral', 'cor_spectral_improved',
    'thm3', 'thm3_squared', 'thm4', 'thm5',
    'hmt_frobenius', 'hmt_spectral', 'hmt_power',
)


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    return value


def _mean_cov_files(directory, n, p):
    """Matrix Market files of a small nonzero mean and a dense well-conditioned
    covariance, built without BLAS so their bits do not depend on its threads."""
    rng = np.random.default_rng(20221020)
    b = rng.standard_normal((n, n))
    cov = np.einsum('ik,jk->ij', b, b) / n + 1e-3 * np.eye(n)
    paths = os.path.join(directory, 'mean.mtx'), os.path.join(directory, 'cov.mtx')
    write_matrix_market(paths[0], 0.05 * rng.standard_normal((n, p)))
    write_matrix_market(paths[1], cov)
    return paths


def _deterministic_instance(rows, cols, q):
    """A with decaying column scales and ``Z = (A A^T)^q A G``, built without
    BLAS so their bits do not depend on its threads."""
    rng = np.random.default_rng([rows, cols, q])
    a = rng.standard_normal((rows, cols)) / np.arange(1, cols + 1)
    z = np.einsum('ij,jk->ik', a, rng.standard_normal((cols, DET_SKETCH_COLUMNS)))
    for _ in range(q):
        z = np.einsum('ij,jk->ik', a, np.einsum('ji,jk->ik', a, z))
    return a, z


def deterministic_bound_values():
    """``bound_sine``, ``bound_tangent`` and ``bound`` of the three per-sample
    reports of each instance; ``lhs_gap`` moves at round-off and is left out."""
    values = {}
    for rows, cols, k in DET_SHAPES:
        for q in (0, 1):
            a, z = _deterministic_instance(rows, cols, q)
            factors = svd(a)
            reports = (
                deterministic.sine_tangent_gap_bound(a, factors, z, k, 'frobenius'),
                deterministic.sine_tangent_gap_bound(a, factors, z, k, 'spectral'),
                deterministic.deflated_spectral_gap_bound(a, factors, z, k),
            )
            values[f'{rows}x{cols}-k{k}-q{q}'] = [
                {key: getattr(r, key).hex() for key in ('bound_sine', 'bound_tangent', 'bound')}
                for r in reports
            ]
    return values


def sweep_empirical_values(metric='general'):
    """``empirical_mean`` and ``empirical_std`` of every row of a small sweep
    over both norms and q up to 2, with enough trials for a nonzero spread."""
    config = experiments.SweepConfig(
        n=60, k_list=(3, 5), oversampling_list=(2, 7, 20), q_list=(0, 1, 2), trials=4, seed=3,
        metric=metric, bound_variants=('hmt_frobenius',),
    )
    return {
        f'k{row.k}-p{row.p}-q{row.q}-{row.norm}': [row.empirical_mean.hex(), row.empirical_std.hex()]
        for row in experiments.run_sweep(config)
    }


def sampled_sketch_values():
    """Per-trial values of ``empirical_error`` for two sketches drawn through
    ``sample``: a nonzero-mean, dense-covariance sketch from its moments, and
    the distribution of a randomized-SVD sketch."""
    _, factors = experiments.synthetic_matrix(60, 3)
    k, p = 5, 20
    rng = np.random.default_rng(20221020)
    b = rng.standard_normal((60, 60))
    cov = np.einsum('ik,jk->ij', b, b) / 60 + 1e-3 * np.eye(60)
    sketches = {
        'moments': GaussianSketch.from_moments(0.05 * rng.standard_normal((60, p)), cov),
        'rsvd-q1': rsvd_distribution(factors, 1, p),
    }
    return {
        f'{name}-{norm}': [
            value.hex() for value in experiments.empirical_error(factors, sketch, k, 4, norm, seed=3).values
        ]
        for name, sketch in sketches.items()
        for norm in experiments.NORMS
    }


def roundoff_values():
    """Per-trial values of ``empirical_error`` with ``p >= rank(A)``, both
    norms and q up to 2: residuals at round-off level, which the kernel
    recomputes from the explicitly formed residual."""
    values = {}
    for rows, cols in ROUNDOFF_SHAPES:
        rng = np.random.default_rng([rows, cols, ROUNDOFF_RANK])
        a = np.einsum('ij,jk->ik', rng.standard_normal((rows, ROUNDOFF_RANK)),
                      rng.standard_normal((ROUNDOFF_RANK, cols)))
        factors = svd(a)
        for q in (0, 1, 2):
            sketch = RsvdSketch(q=q, p=ROUNDOFF_RANK + 2)
            for norm in experiments.NORMS:
                stats = experiments.empirical_error(factors, sketch, 3, 3, norm, seed=q)
                values[f'{rows}x{cols}-q{q}-{norm}'] = [value.hex() for value in stats.values]
    return values


@functools.cache
def bound_values():
    """Every variant's report from the CLI and every bound column of a sweep."""
    reports = {}
    with tempfile.TemporaryDirectory() as directory:
        out = os.path.join(directory, 'report.json')
        for k, p, q in CLI_CASES:
            argv = ['bounds', '--synthetic-n', '60', '--seed', '3',
                    '--k', str(k), '--p', str(p), '--q', str(q), '--out', out]
            if cli.main(argv) != 0:
                raise RuntimeError(f'bounds request {argv} failed')
            with open(out) as handle:
                reports[f'k{k}-p{p}-q{q}'] = _hexed(json.load(handle)['variants'])
        k, p, q = MEAN_COV_CASE
        mean, cov = _mean_cov_files(directory, 60, p)
        argv = ['bounds', '--synthetic-n', '60', '--seed', '3',
                '--k', str(k), '--p', str(p), '--q', str(q), '--mean', mean, '--cov', cov,
                '--variant', ','.join(v for v in ALL_VARIANTS if v != 'thm3_squared'), '--out', out]
        if cli.main(argv) != 0:
            raise RuntimeError(f'bounds request {argv} failed')
        with open(out) as handle:
            reports[f'k{k}-p{p}-q{q}-meancov'] = _hexed(json.load(handle)['variants'])
    # bound columns depend on the spectrum only, so one trial and one norm suffice
    config = experiments.SweepConfig(
        n=60, k_list=(3, 5), oversampling_list=(2, 7, 20), q_list=(0, 1, 2), trials=1, seed=3,
        norm_list=('frobenius',), bound_variants=ALL_VARIANTS,
    )
    sweep = {f'k{row.k}-p{row.p}-q{row.q}': _hexed(row.bounds) for row in experiments.run_sweep(config)}
    return {
        'sweep_empirical': sweep_empirical_values(),
        'sweep_empirical_old': sweep_empirical_values('old'),
        'sampled_sketches': sampled_sketch_values(),
        'bounds': reports, 'sweep': sweep, 'deterministic': deterministic_bound_values(),
        'roundoff': roundoff_values(),
    }


def _reference():
    with open(PATH) as handle:
        return json.load(handle)


def test_cli_bound_values_unchanged():
    got, want = bound_values()['bounds'], _reference()['bounds']
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # the key order too


def test_sweep_bound_columns_unchanged():
    got, want = bound_values()['sweep'], _reference()['sweep']
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def test_sweep_empirical_columns_unchanged():
    got, want = bound_values()['sweep_empirical'], _reference()['sweep_empirical']
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def test_sweep_old_metric_columns_unchanged():
    got, want = bound_values()['sweep_empirical_old'], _reference()['sweep_empirical_old']
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def test_sampled_sketch_values_unchanged():
    got, want = bound_values()['sampled_sketches'], _reference()['sampled_sketches']
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def test_deterministic_bound_values_unchanged():
    got, want = bound_values()['deterministic'], _reference()['deterministic']
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def test_roundoff_residual_values_unchanged():
    got, want = bound_values()['roundoff'], _reference()['roundoff']
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def _leaves(value, path=()):
    """``(path, leaf)`` of every leaf of nested dicts and lists."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaves(item, (*path, key))
    else:
        yield path, value


def _float(leaf):
    """A ``float.hex`` leaf as a float; None where it is missing or not a float."""
    try:
        return float.fromhex(leaf)
    except (TypeError, ValueError):
        return None


def _move(old, new, scale):
    """``(size, text)`` of a leaf that moved from ``old`` to ``new``: an integer
    move reads ``old -> new``; a float move gives its absolute change and that
    change relative to ``scale``; a leaf missing on one side, or neither an
    integer nor a float, moved infinitely far."""
    if type(old) is int and type(new) is int:
        return abs(new - old), f'{old} -> {new}'
    old, new = _float(old), _float(new)
    change = math.inf if old is None or new is None else abs(new - old)
    return change, f'{change:.2e} / {change / scale if scale else math.inf:.2e}'


def moved_keys(old, new):
    """One line per group: its keys whose values moved from ``old`` to ``new``,
    each by the path of its leaf that moved most, with that leaf's move.  A
    float's change is given absolute and relative to the largest finite old
    magnitude in the group, so that a move of round-off size reads as one even
    where the old value is round-off too."""
    lines = []
    for group in dict.fromkeys([*new, *old]):
        before, after = old.get(group, {}), new.get(group, {})
        olds = (abs(x) for _, leaf in _leaves(before) if (x := _float(leaf)) is not None and math.isfinite(x))
        scale = max(olds, default=0.0)
        moved = []
        for key in dict.fromkeys([*before, *after]):
            was, now = dict(_leaves(before.get(key))), dict(_leaves(after.get(key)))
            moves = [(*_move(was.get(path), now.get(path), scale), path) for path in dict.fromkeys([*was, *now])
                     if was.get(path) != now.get(path)]
            if moves:
                _, text, path = max(moves, key=lambda move: move[0])
                moved.append(f"{'.'.join(map(str, (key, *path)))} {text}")
        line = f'{group}: {len(moved)} of {len(after)} keys moved'
        if moved:
            line += (f' (largest move, absolute / relative to the largest old magnitude {scale:.2e}): '
                     + ', '.join(moved))
        lines.append(line)
    return lines


def test_moved_keys_reads_changes_against_the_groups_largest_value():
    # the old value 2^-52 halves: relative to itself that is 0.5, against the
    # group's largest magnitude 4 it is 2.78e-17, a round-off move; a moved
    # leaf is named by its path, and an integer one by its old and new value
    old = {'roundoff': {'tiny': (2.0**-52).hex(), 'pair': {'spectral': (4.0).hex(), 'frobenius': (3.0).hex()},
                        'still': (1.0).hex()},
           'other': {'a': (1.0).hex()},
           'bounds': {'k10-p40-q2': {'cor_spectral_improved': {'bound': (2.0).hex(), 'ell': 10}}}}
    new = {'roundoff': {'tiny': (2.0**-53).hex(), 'pair': {'spectral': (4.0).hex(), 'frobenius': (3.5).hex()},
                        'still': (1.0).hex()},
           'other': {'a': (1.0).hex(), 'b': 'x'}, 'fresh': {'c': (2.0).hex()},
           'bounds': {'k10-p40-q2': {'cor_spectral_improved': {'bound': (2.0).hex(), 'ell': 1}}}}
    heading = '(largest move, absolute / relative to the largest old magnitude'
    assert moved_keys(old, new) == [
        f'roundoff: 2 of 3 keys moved {heading} 4.00e+00): tiny 1.11e-16 / 2.78e-17, '
        'pair.frobenius 5.00e-01 / 1.25e-01',
        f'other: 1 of 2 keys moved {heading} 1.00e+00): b inf / inf',
        f'fresh: 1 of 1 keys moved {heading} 0.00e+00): c inf / inf',
        f'bounds: 1 of 1 keys moved {heading} 2.00e+00): k10-p40-q2.cor_spectral_improved.ell 10 -> 1',
    ]
    assert moved_keys(old, old) == ['roundoff: 0 of 3 keys moved', 'other: 0 of 1 keys moved',
                                    'bounds: 0 of 1 keys moved']


if __name__ == '__main__':
    try:
        previous = _reference()
    except FileNotFoundError:
        previous = {}
    values = bound_values()
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, 'w') as handle:
        json.dump(values, handle, indent=1)
        handle.write('\n')
    print('\n'.join(moved_keys(previous, values)))
