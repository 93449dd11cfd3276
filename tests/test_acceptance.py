"""Acceptance suite: one test per contract criterion.

Each test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (run pytest with
``-s`` to see them on success) and asserts the criterion at its stated
tolerance, including the runtime cap where one is stated.
"""

import functools
import math
import time

import numpy as np
import pytest

from sketchbound.deterministic import (
    angle_operators,
    deflated_spectral_gap_bound,
    phi,
    sine_tangent_gap_bound,
)
from sketchbound.expectation import (
    expect_pinv_norms,
    expect_product_norms,
    expected_frobenius_gap_bound,
    expected_frobenius_gap_sq_bound,
    expected_spectral_gap_bound,
    expected_spectral_tail_bound,
    project_covariance,
    tangent_norm_constants,
)
from sketchbound.experiments import (
    SweepConfig,
    _sweep_trials,
    emit,
    run_sweep,
    synthetic_matrix,
)
from sketchbound.linalg import SvdFactors, orthonormal_basis, psd_order, svd
from sketchbound.rsvd import (
    SpectrumProfile,
    frobenius_bound,
    hmt_frobenius,
    hmt_power,
    hmt_spectral,
    improved_spectral_bound,
    spectral_bound,
)
from sketchbound.sketching import rsvd_distribution

ACC_SEED = 20240901
SYNTHETIC_N = 1000
RHO_GRID = tuple(range(2, 100, 10)) + (100,)
TRIALS = 100


def _report(number, ok, detail):
    print(f'\nACCEPTANCE {number:2d} {"PASS" if ok else "FAIL"}: {detail}')
    assert ok, f'criterion {number}: {detail}'


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


@functools.cache
def _deterministic_instances():
    """200 random instances (n=60, m=40, p=12) with k cycling over 1..10."""
    instances = []
    for index in range(200):
        rng = np.random.default_rng(ACC_SEED + index)
        a = rng.standard_normal((60, 40))
        z = rng.standard_normal((60, 12))
        instances.append((a, svd(a), z, index % 10 + 1))
    return instances


@functools.cache
def _synthetic_problem():
    return synthetic_matrix(SYNTHETIC_N, ACC_SEED)


@functools.cache
def _sweep_residuals():
    """Full and projected-tail residuals for k in {5, 15} over the oversampling
    grid, from the trial phase that ``run_sweep`` runs."""
    _, factors = _synthetic_problem()
    cell_list = [(k, rho) for k in (5, 15) for rho in RHO_GRID]
    results = _sweep_trials(factors, [(k, 0, k + rho) for k, rho in cell_list], TRIALS,
                            ('spectral', 'frobenius'), ACC_SEED)
    cells = {cell: residuals for cell, (residuals, _) in zip(cell_list, results)}
    return cells, sum(excluded for _, excluded in results)


def _mean_se(values):
    values = np.asarray(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def test_criterion_01_ordering_chain():
    with _Timer() as timer:
        worst = np.inf
        ok = True
        for a, factors, z, k in _deterministic_instances():
            ops = angle_operators(factors, z, k)
            q = orthonormal_basis(z)
            u_head = factors.left_head(k)
            projected = u_head.T @ u_head - (q.T @ u_head).T @ (q.T @ u_head)
            sine_gram = ops.sine.T @ ops.sine
            tangent_gram = ops.tangent.T @ ops.tangent
            first = psd_order(projected, sine_gram, 1e-9)
            second = psd_order(sine_gram, tangent_gram, 1e-9)
            worst = min(worst, first.min_eigenvalue_of_difference,
                        second.min_eigenvalue_of_difference)
            ok = ok and first.satisfied and second.satisfied
    ok = ok and timer.elapsed < 30.0
    _report(1, ok, f'200 instances, worst ordering slack {worst:.3e} (>= -1e-9), '
                   f'{timer.elapsed:.1f}s')


def test_criterion_02_deterministic_bounds():
    with _Timer() as timer:
        max_violation = -np.inf
        improved_gap = np.inf
        for a, factors, z, k in _deterministic_instances():
            rep_f = sine_tangent_gap_bound(a, factors, z, k, 'frobenius')
            rep_s = sine_tangent_gap_bound(a, factors, z, k, 'spectral')
            rep_d = deflated_spectral_gap_bound(a, factors, z, k)
            for rep in (rep_f, rep_s, rep_d):
                max_violation = max(max_violation, rep.lhs_gap - rep.bound)
            improved_gap = min(improved_gap, rep_s.bound - rep_d.bound)
        ok = max_violation <= 1e-9 and improved_gap >= -1e-12
    ok = ok and timer.elapsed < 30.0
    _report(2, ok, f'max lhs-bound violation {max_violation:.3e} (<= 1e-9), '
                   f'min plain-minus-improved {improved_gap:.3e} (>= 0), {timer.elapsed:.1f}s')


def test_criterion_03_moment_identities():
    with _Timer() as timer:
        details = []
        ok = True
        # product moments: exact Frobenius second moment, spectral upper bound
        for index, (k, p) in enumerate([(2, 6), (3, 8), (4, 12), (2, 10), (4, 7)]):
            rng = np.random.default_rng(ACC_SEED + 10 * index)
            mean = rng.standard_normal((k, p))
            b = rng.standard_normal((k, k))
            cov = b @ b.T / k
            n_mat = rng.standard_normal((p, p))
            upper, frob_sq = expect_product_norms(mean, cov, n_mat)
            draws = 10_000
            g = rng.standard_normal((draws, k, p))
            products = (mean + np.linalg.cholesky(cov + 1e-13 * np.eye(k)) @ g) @ n_mat
            frob_vals = np.sum(products**2, axis=(1, 2))
            z_score = (frob_vals.mean() - frob_sq) / (frob_vals.std(ddof=1) / math.sqrt(draws))
            spec_ok = np.linalg.norm(products, ord=2, axis=(1, 2)).mean() <= upper
            ok = ok and abs(z_score) < 5 and spec_ok
            details.append(f'{z_score:+.2f}')
        # pseudo-inverse moments, trace form
        for index, (k, p) in enumerate([(2, 8), (3, 10), (4, 12), (2, 12), (3, 9)]):
            rng = np.random.default_rng(ACC_SEED + 100 + 10 * index)
            b = rng.standard_normal((k, k))
            cov = b @ b.T / k + 0.2 * np.eye(k)
            n_mat = rng.standard_normal((k, k))
            frob_sq, upper = expect_pinv_norms(cov, n_mat, p)
            draws = 100_000
            g = rng.standard_normal((draws, k, p))
            prods = np.linalg.pinv(np.linalg.cholesky(cov) @ g) @ n_mat
            frob_vals = np.sum(prods**2, axis=(1, 2))
            z_score = (frob_vals.mean() - frob_sq) / (frob_vals.std(ddof=1) / math.sqrt(draws))
            spec_ok = np.linalg.norm(prods, ord=2, axis=(1, 2)).mean() <= upper
            ok = ok and abs(z_score) < 5 and spec_ok
            details.append(f'{z_score:+.2f}')
    ok = ok and timer.elapsed < 120.0
    _report(3, ok, f'moment z-scores {" ".join(details)} (|z| < 5), spectral uppers hold, '
                   f'{timer.elapsed:.1f}s')


def test_criterion_04_tangent_moments_end_to_end():
    with _Timer() as timer:
        n, m, k, p, draws = 30, 20, 3, 8, 10_000
        rng = np.random.default_rng(ACC_SEED + 777)
        factors = svd(rng.standard_normal((n, m)))
        b = rng.standard_normal((n, n))
        cov = b @ b.T / n
        pc = project_covariance(cov, factors, k)
        assert np.max(np.abs(pc.cross)) > 1e-3  # genuinely correlated blocks
        n_mat = np.diag(factors.sigma[:k])
        consts = tangent_norm_constants(pc, n_mat, p)
        rot = factors.left().T @ np.linalg.cholesky(cov + 1e-13 * np.eye(n))
        g = rng.standard_normal((draws, n, p))
        w = rot @ g
        tangents = w[:, k:, :] @ np.linalg.pinv(w[:, :k, :])
        weighted = tangents @ n_mat
        frob_vals = np.sum(weighted**2, axis=(1, 2))
        z_score = (frob_vals.mean() - consts.total_frobenius_sq) / \
            (frob_vals.std(ddof=1) / math.sqrt(draws))
        spec_mean = np.linalg.norm(weighted, ord=2, axis=(1, 2)).mean()
        ok = abs(z_score) < 5 and spec_mean <= consts.total_spectral
    ok = ok and timer.elapsed < 120.0
    _report(4, ok, f'E||TN||_F^2 z-score {z_score:+.2f} (|z| < 5), '
                   f'E||TN||_2 {spec_mean:.3f} <= {consts.total_spectral:.3f}, {timer.elapsed:.1f}s')


def test_criterion_05_oversampling_sweep_domination():
    with _Timer() as timer:
        _, factors = _synthetic_problem()
        cells, excluded_total = _sweep_residuals()
        sigma = factors.sigma
        eye = np.eye(SYNTHETIC_N)
        diag_factors = SvdFactors(eye, sigma, eye.copy())
        ok = excluded_total == 0
        worst_slack = np.inf
        ratios = {}
        for k in (5, 15):
            for rho in RHO_GRID:
                p = k + rho
                profile = SpectrumProfile.from_spectrum(sigma, k, p, 0)
                bound_f = frobenius_bound(profile).bound
                bound_s = spectral_bound(profile).bound
                data_f = cells[(k, rho)]['frobenius']
                data_s = cells[(k, rho)]['spectral']
                mean_f, se_f = _mean_se(data_f[:, 0] - data_f[:, 1])
                mean_s, se_s = _mean_se(data_s[:, 0] - data_s[:, 1])
                ok = ok and mean_f <= bound_f + 3 * se_f and mean_s <= bound_s + 3 * se_s
                worst_slack = min(worst_slack, bound_f - mean_f, bound_s - mean_s)
                if k == 15 and rho in (2, 100):
                    sketch = rsvd_distribution(diag_factors, 0, p)
                    bound_sq = expected_frobenius_gap_sq_bound(diag_factors, sketch, k, p).bound
                    mean_sq, se_sq = _mean_se(data_f[:, 0] ** 2 - data_f[:, 1] ** 2)
                    ok = ok and mean_sq <= bound_sq + 3 * se_sq
                    ratios[rho] = bound_sq / mean_sq
        tightening = ratios[100] < ratios[2]
        ok = ok and tightening
    ok = ok and timer.elapsed < 600.0
    _report(5, ok, f'all means below bounds (min slack {worst_slack:.3f}), excluded trials '
                   f'{excluded_total}, squared-ratio {ratios[2]:.2f} -> {ratios[100]:.2f} '
                   f'tightening={tightening}, {timer.elapsed:.1f}s')


def test_criterion_06_numeric_anchor():
    with _Timer() as timer:
        _, factors = _synthetic_problem()
        sigma = factors.sigma
        eye = np.eye(SYNTHETIC_N)
        diag_factors = SvdFactors(eye, sigma, eye.copy())
        k = 20
        values = {}
        for p in (32, 102):
            sketch = rsvd_distribution(diag_factors, 0, p)
            report = expected_frobenius_gap_sq_bound(diag_factors, sketch, k, p)
            values[p] = report.bound
            # closed-form assembly must agree
            closed = frobenius_bound(SpectrumProfile.from_spectrum(sigma, k, p, 0)).constants
            assembled = min(closed['a_k'],
                            k * phi(math.sqrt(closed['b_k'] / k)) ** 2 * sigma[0] ** 2)
            assert report.bound == pytest.approx(assembled, rel=1e-9)
        ok = 0.5 <= values[102] < 5.0 and values[32] > 5.0
    _report(6, ok, f'k=20 squared-gap bound: {values[102]:.3f} in [0.5, 5) at p=102, '
                   f'{values[32]:.3f} > 5 at p=32, {timer.elapsed:.1f}s')


def test_criterion_07_comparison_ordering():
    with _Timer() as timer:
        _, factors = _synthetic_problem()
        cells, _ = _sweep_residuals()
        sigma = factors.sigma
        k = 15
        ok = True
        frobenius_margin = np.inf
        spectral_margin = np.inf
        for rho in RHO_GRID:
            p = k + rho
            profile = SpectrumProfile.from_spectrum(sigma, k, p, 0)
            ours_f = frobenius_bound(profile).bound
            if rho <= 20:
                frobenius_margin = min(frobenius_margin, hmt_frobenius(sigma, k, p) - ours_f)
                ok = ok and ours_f < hmt_frobenius(sigma, k, p)
            plain = spectral_bound(profile).bound
            improved = improved_spectral_bound(profile).bound
            ok = ok and improved <= plain + 1e-12
            data_s = cells[(k, rho)]['spectral']
            old_mean, old_se = _mean_se(data_s[:, 0] - sigma[k])
            ok = ok and old_mean <= improved + 3 * old_se and old_mean <= plain + 3 * old_se
            spectral_margin = min(spectral_margin, improved - old_mean)
    ok = ok and timer.elapsed < 600.0
    _report(7, ok, f'ours < HMT (margin {frobenius_margin:.3f}) for rho <= 20, improved <= plain '
                   f'and both dominate old-metric curve (margin {spectral_margin:.3f}), '
                   f'{timer.elapsed:.1f}s')


def test_criterion_08_power_iteration_suite():
    with _Timer() as timer:
        _, factors = _synthetic_problem()
        sigma = factors.sigma
        bound_fns = (frobenius_bound, spectral_bound, improved_spectral_bound)
        values = {
            (k, q, rho): tuple(fn(SpectrumProfile.from_spectrum(sigma, k, k + rho, q)).bound
                               for fn in bound_fns)
            for k in (5, 15) for q in (0, 1, 2) for rho in RHO_GRID
        }
        ok = True
        for k in (5, 15):
            for q in (0, 1, 2):
                for i, rho in enumerate(RHO_GRID[1:], start=1):
                    prev = values[(k, q, RHO_GRID[i - 1])]
                    ok = ok and all(b <= a + 1e-12 for a, b in zip(prev, values[(k, q, rho)]))
            for rho in RHO_GRID:
                for q in (1, 2):
                    prev = values[(k, q - 1, rho)]
                    ok = ok and all(b <= a + 1e-12 for a, b in zip(prev, values[(k, q, rho)]))
        base = frobenius_bound(SpectrumProfile.from_spectrum(sigma, 15, 65, 0)).bound
        factors_gain = [base / frobenius_bound(
            SpectrumProfile.from_spectrum(sigma, 15, 65, q)).bound for q in (1, 2)]
        ok = ok and all(gain >= 2.0 for gain in factors_gain)
    ok = ok and timer.elapsed < 900.0
    _report(8, ok, f'bounds non-increasing in p and q over the grid; q>=1 gain at rho=50: '
                   f'{factors_gain[0]:.1f}x, {factors_gain[1]:.1f}x (>= 2x), {timer.elapsed:.1f}s')


def test_criterion_09_cross_module_consistency():
    with _Timer() as timer:
        n, m = 26, 18
        worst = 0.0
        for index in range(20):
            rng = np.random.default_rng(ACC_SEED + 300 + index)
            sigma = np.sort(np.exp(rng.uniform(np.log(0.7), np.log(1.4), m)))[::-1]
            qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
            qv, _ = np.linalg.qr(rng.standard_normal((m, m)))
            factors = SvdFactors(qu, sigma, qv)
            k = int(rng.integers(1, 6))
            p = int(rng.integers(k + 2, 11))
            q = int(rng.integers(0, 3))
            sketch = rsvd_distribution(factors, q, p)
            profile = SpectrumProfile.from_spectrum(sigma, k, p, q)
            pairs = [
                (expected_frobenius_gap_bound(factors, sketch, k, p), frobenius_bound(profile)),
                (expected_spectral_gap_bound(factors, sketch, k, p), spectral_bound(profile)),
                (expected_spectral_tail_bound(factors, sketch, k, p), improved_spectral_bound(profile)),
            ]
            for general, closed in pairs:
                rel = abs(general.bound - closed.bound) / max(closed.bound, 1e-300)
                worst = max(worst, rel)
    ok = worst < 1e-10 and timer.elapsed < 60.0
    _report(9, ok, f'20 spectra, worst closed-vs-general relative difference {worst:.2e} '
                   f'(< 1e-10), {timer.elapsed:.1f}s')


def test_criterion_10_sweep_determinism(tmp_path):
    with _Timer() as timer:
        config = SweepConfig(
            n=SYNTHETIC_N,
            k_list=(5, 15),
            oversampling_list=RHO_GRID,
            q_list=(0,),
            trials=TRIALS,
            seed=ACC_SEED,
            norm_list=('spectral', 'frobenius'),
            metric='general',
        )
        first = tmp_path / 'sweep-a.csv'
        second = tmp_path / 'sweep-b.csv'
        emit(run_sweep(config), 'csv', first)
        emit(run_sweep(config), 'csv', second)
        ok = first.read_bytes() == second.read_bytes()
    _report(10, ok, f'two full sweeps produced byte-identical CSV '
                    f'({first.stat().st_size} bytes), {timer.elapsed:.1f}s')
