import math
import re

import numpy as np
import pytest

from sketchbound.expectation import (
    expect_pinv_norms,
    expect_product_norms,
    expected_frobenius_gap_bound,
    expected_frobenius_gap_sq_bound,
    expected_spectral_gap_bound,
    expected_spectral_tail_bound,
    mean_shift_term,
    project_covariance,
    project_sketch,
    tangent_norm_constants,
)
from sketchbound.experiments import THEOREM_VARIANTS, evaluate_bounds, synthetic_matrix
from sketchbound.linalg import RankDeficiencyError, SvdFactors, phi, svd
from sketchbound.rsvd import SpectrumProfile, frobenius_bound, spectral_bound
from sketchbound.sketching import GaussianSketch, RsvdSketch, SeededStream, rsvd_distribution, standard_gaussian


def random_factors(seed, n=12, m=9):
    return svd(np.random.default_rng(seed).standard_normal((n, m)))


def random_psd(seed, n, scale=1.0):
    b = np.random.default_rng(seed).standard_normal((n, n))
    return scale * (b @ b.T) / n


def schur_moments(c, f, k):
    """Trace and top eigenvalue of the Schur complement of the head block of
    ``U^T C U``: the conditional covariance of the tail block."""
    projected = f.left().T @ c @ f.left()
    head, cross = projected[:k, :k], projected[k:, :k]
    schur = projected[k:, k:] - cross @ np.linalg.solve(head, cross.T)
    return np.trace(schur), np.linalg.eigvalsh(0.5 * (schur + schur.T))[-1]


class TestProjectCovariance:
    def test_identity_covariance(self):
        f = random_factors(0)
        pc = project_covariance(np.eye(12), f, 3)
        assert np.allclose(pc.head, np.eye(3), atol=1e-12)
        assert np.max(np.abs(pc.cross)) < 1e-12
        assert pc.conditional_trace == pytest.approx(9.0, abs=1e-12)
        assert pc.conditional_top_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_gram_covariance_decouples(self):
        a = np.random.default_rng(1).standard_normal((12, 9))
        f = svd(a)
        pc = project_covariance(a @ a.T, f, 4)
        assert np.allclose(pc.head, np.diag(f.sigma[:4] ** 2), atol=1e-10)
        assert np.max(np.abs(pc.cross)) < 1e-10
        assert pc.conditional_trace == pytest.approx(np.sum(f.sigma[4:] ** 2), abs=1e-10)
        assert pc.conditional_top_eigenvalue == pytest.approx(f.sigma[4] ** 2, abs=1e-10)

    def test_blocks_and_schur_complement(self):
        f = random_factors(2)
        c = random_psd(3, 12)
        k = 5
        pc = project_covariance(c, f, k)
        u = f.left()
        projected = u.T @ c @ u
        assert np.max(np.abs(pc.head - projected[:k, :k])) < 1e-10
        assert np.max(np.abs(pc.cross - projected[k:, :k])) < 1e-10
        trace, top = schur_moments(c, f, k)
        assert pc.conditional_trace == pytest.approx(trace, rel=1e-10)
        assert pc.conditional_top_eigenvalue == pytest.approx(top, rel=1e-10)

    def test_conditional_moments_of_the_psd_schur_complement(self):
        for seed in range(10):
            f = random_factors(seed, n=15, m=10)
            c = random_psd(seed + 100, 15)
            pc = project_covariance(c, f, 4)
            trace, top = schur_moments(c, f, 4)
            scale = np.linalg.norm(c, 2)
            assert abs(pc.conditional_trace - trace) <= 1e-10 * scale
            assert abs(pc.conditional_top_eigenvalue - top) <= 1e-10 * scale
            assert 0.0 <= pc.conditional_top_eigenvalue <= pc.conditional_trace

    def test_singular_head_raises(self):
        f = random_factors(4)
        tail = f.left_tail(3)
        c = tail @ tail.T  # covariance supported on the tail subspace
        with pytest.raises(RankDeficiencyError):
            project_covariance(c, f, 3)

    @pytest.mark.parametrize('scale', [1e-12, 1.0, 1e4, 1e8, 1e12])
    def test_round_off_head_is_singular_at_every_scale(self, scale):
        """A covariance supported on the tail has a head block of pure round-off,
        whose eigenvalues may come out positive and well graded: the head rule
        refuses it by its scale, ``||C||_F``, on any BLAS kernel."""
        f = svd(np.random.default_rng(4).standard_normal((40, 40)))
        tail = f.left_tail(3)
        with pytest.raises(RankDeficiencyError, match='projected covariance head block is numerically singular'):
            project_covariance(scale * (tail @ tail.T), f, 3)


class TestExpectProductNorms:
    def test_deterministic_factor(self):
        mean = np.random.default_rng(1).standard_normal((3, 4))
        n_mat = np.random.default_rng(2).standard_normal((4, 4))
        upper, frob_sq = expect_product_norms(mean, np.zeros((3, 3)), n_mat)
        assert upper == pytest.approx(np.linalg.norm(mean @ n_mat, 2))
        assert frob_sq == pytest.approx(np.linalg.norm(mean @ n_mat) ** 2)

    def test_identity_second_moment(self):
        k, p = 3, 5
        _, frob_sq = expect_product_norms(np.zeros((k, p)), np.eye(k), np.eye(p))
        assert frob_sq == pytest.approx(k * p)

    def test_monte_carlo(self):
        k, p, draws = 3, 5, 10_000
        rng = np.random.default_rng(7)
        mean = rng.standard_normal((k, p))
        cov = random_psd(8, k)
        n_mat = rng.standard_normal((p, p))
        upper, frob_sq = expect_product_norms(mean, cov, n_mat)
        root = np.linalg.cholesky(cov + 1e-14 * np.eye(k))
        g = rng.standard_normal((draws, k, p))
        products = (mean + root @ g) @ n_mat
        frob_vals = np.sum(products**2, axis=(1, 2))
        spec_vals = np.linalg.norm(products, ord=2, axis=(1, 2))
        se = frob_vals.std(ddof=1) / math.sqrt(draws)
        assert abs(frob_vals.mean() - frob_sq) < 5 * se
        assert spec_vals.mean() <= upper


class TestExpectPinvNorms:
    def test_identity_closed_form(self):
        k, p = 3, 8
        frob_sq, _ = expect_pinv_norms(np.eye(k), np.eye(k), p)
        assert frob_sq == pytest.approx(k / (p - k - 1))

    def test_zero_weight(self):
        frob_sq, upper = expect_pinv_norms(np.eye(3), np.zeros((3, 3)), 8)
        assert frob_sq == 0.0
        assert upper == 0.0

    def test_requires_enough_columns(self):
        with pytest.raises(ValueError):
            expect_pinv_norms(np.eye(3), np.eye(3), 4)

    def test_monte_carlo(self):
        k, p, draws = 3, 8, 100_000
        rng = np.random.default_rng(11)
        cov = random_psd(12, k) + 0.3 * np.eye(k)
        n_mat = rng.standard_normal((k, k))
        frob_sq, upper = expect_pinv_norms(cov, n_mat, p)
        root = np.linalg.cholesky(cov)
        g = rng.standard_normal((draws, k, p))
        pinvs = np.linalg.pinv(root @ g)
        prods = pinvs @ n_mat
        frob_vals = np.sum(prods**2, axis=(1, 2))
        se = frob_vals.std(ddof=1) / math.sqrt(draws)
        assert abs(frob_vals.mean() - frob_sq) < 5 * se
        spec_vals = np.linalg.norm(prods, ord=2, axis=(1, 2))
        assert spec_vals.mean() <= upper


class TestTangentNormConstants:
    def test_identity_covariance_closed_form(self):
        n, k, p = 12, 3, 7
        f = random_factors(20, n=n, m=10)
        pc = project_covariance(np.eye(n), f, k)
        consts = tangent_norm_constants(pc, np.eye(k), p)
        assert consts.dep_spectral < 1e-12
        assert consts.dep_frobenius < 1e-12
        expected_f = math.sqrt(n - k) * math.sqrt(k) / math.sqrt(p - k - 1)
        assert consts.sampling_frobenius == pytest.approx(expected_f, rel=1e-10)
        expected_sp = math.sqrt(k) / math.sqrt(p - k - 1) + \
            math.e * math.sqrt(p) / (p - k) * math.sqrt(n - k)
        assert consts.sampling_spectral == pytest.approx(expected_sp, rel=1e-10)

    def test_requires_oversampling(self):
        f = random_factors(21)
        pc = project_covariance(np.eye(12), f, 3)
        with pytest.raises(ValueError):
            tangent_norm_constants(pc, np.eye(3), 4)

    def test_monte_carlo_second_moment(self):
        n, m, k, p, draws = 10, 7, 2, 6, 20_000
        f = random_factors(22, n=n, m=m)
        c = random_psd(23, n)
        pc = project_covariance(c, f, k)
        n_mat = np.diag(f.sigma[:k])
        consts = tangent_norm_constants(pc, n_mat, p)
        root = np.linalg.cholesky(c + 1e-13 * np.eye(n))
        rot = f.left().T @ root
        rng = np.random.default_rng(24)
        g = rng.standard_normal((draws, n, p))
        w = rot @ g
        pinv_heads = np.linalg.pinv(w[:, :k, :])
        tangents = w[:, k:, :] @ pinv_heads
        vals_f = np.sum((tangents @ n_mat) ** 2, axis=(1, 2))
        se = vals_f.std(ddof=1) / math.sqrt(draws)
        assert abs(vals_f.mean() - consts.total_frobenius_sq) < 5 * se
        vals_sp = np.linalg.norm(tangents @ n_mat, ord=2, axis=(1, 2))
        assert vals_sp.mean() <= consts.total_spectral


class TestMeanShiftTerm:
    def _sketch(self, mean, rank, lam_min):
        n = mean.shape[0]
        return GaussianSketch.from_moments(mean, np.diag([lam_min] * rank + [0.0] * (n - rank)))

    def test_zero_mean(self):
        sk = self._sketch(np.zeros((5, 3)), 5, 1.0)
        assert mean_shift_term(sk, 2.0, 3) == 0.0

    def test_analytic_value(self):
        mean = np.zeros((100, 36))
        mean[0, 0] = 1.0
        sk = self._sketch(mean, 100, 1.0)
        assert mean_shift_term(sk, 1.0, 36) == pytest.approx(math.e * 10.0 / 64.0, rel=1e-12)

    def test_requires_margin(self):
        sk = self._sketch(np.ones((5, 3)), 3, 1.0)
        with pytest.raises(ValueError):
            mean_shift_term(sk, 1.0, 3)

    def test_monte_carlo_inequality(self):
        n, m, k, p, draws = 12, 8, 2, 5, 1000
        a = np.random.default_rng(40).standard_normal((n, m))
        u_head = svd(a).left_head(k)
        a_head = u_head @ (u_head.T @ a)
        cov = random_psd(41, n) + 0.2 * np.eye(n)
        mean = 0.1 * np.random.default_rng(42).standard_normal((n, p))
        sk = GaussianSketch.from_moments(mean, cov)
        term = mean_shift_term(sk, np.linalg.norm(a_head), p)
        shifted = np.empty(draws)
        centered = np.empty(draws)
        for t in range(draws):
            w = sk.cov_sqrt @ standard_gaussian(n, p, SeededStream(43, t))
            for values, z in ((shifted, mean + w), (centered, w)):
                q, _ = np.linalg.qr(z)
                values[t] = np.linalg.norm(a_head - q @ (q.T @ a_head))
        assert shifted.mean() <= term + centered.mean() + 1e-12


def rank_deficient_factors(seed, n=10, m=6, rank=3):
    rng = np.random.default_rng(seed)
    qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.zeros(m)
    sigma[:rank] = [4.0, 2.0, 1.0]
    return SvdFactors(qu[:, :m], sigma, m)


class TestTheoremBounds:
    def test_exact_rank_head_gives_zero_bound(self):
        f = rank_deficient_factors(50)
        sketch = rsvd_distribution(f, 0, 5)
        # assembling U diag(lam) U^T and projecting back leaves O(eps * ||C||)
        # noise in the conditional block, which the bound sees at sqrt scale
        for fn in (expected_frobenius_gap_bound, expected_spectral_gap_bound,
                   expected_spectral_tail_bound, expected_frobenius_gap_sq_bound):
            report = fn(f, sketch, 3, 5)
            assert report.bound == pytest.approx(0.0, abs=1e-6)

    def test_flat_spectrum_tail_bound_is_mean_term(self):
        rng = np.random.default_rng(51)
        qu, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        sigma = np.array([2.0, 2.0, 2.0, 1.0, 0.5, 0.4, 0.3, 0.2])
        f = SvdFactors(qu, sigma, 8)
        sketch = rsvd_distribution(f, 0, 4)
        report = expected_spectral_tail_bound(f, sketch, 2, 4)
        assert report.mean_term == 0.0
        assert report.bound == 0.0

    def test_improved_constants_ordering(self):
        for seed in range(6):
            f = random_factors(seed + 60, n=14, m=10)
            c = random_psd(seed + 70, 14) + 0.05 * np.eye(14)
            sketch = GaussianSketch.from_moments(np.zeros((14, 6)), c)
            plain = expected_spectral_gap_bound(f, sketch, 3, 6)
            improved = expected_spectral_tail_bound(f, sketch, 3, 6)
            assert improved.constants['c_hat_k'] <= plain.constants['c_k'] + 1e-12
            assert improved.constants['d_hat_k'] == plain.constants['d_k']
            assert improved.bound <= plain.bound + 1e-12

    def test_matches_closed_forms_for_rsvd_sketch(self):
        f = random_factors(80, n=15, m=11)
        k, p = 3, 8
        sketch = rsvd_distribution(f, 0, p)
        profile = SpectrumProfile.from_spectrum(f.sigma, k, p, 0)
        thm3 = expected_frobenius_gap_bound(f, sketch, k, p)
        closed_f = frobenius_bound(profile)
        assert thm3.constants['a_k'] == pytest.approx(closed_f.constants['a_k'], rel=1e-10)
        assert thm3.constants['b_k'] == pytest.approx(closed_f.constants['b_k'], rel=1e-10)
        thm4 = expected_spectral_gap_bound(f, sketch, k, p)
        closed_s = spectral_bound(profile)
        assert thm4.constants['c_k'] == pytest.approx(closed_s.constants['c_k'], rel=1e-10)
        assert thm4.constants['d_k'] == pytest.approx(closed_s.constants['d_k'], rel=1e-10)

    def test_squared_variant_requires_zero_mean(self):
        f = random_factors(81)
        sketch = GaussianSketch.from_moments(np.ones((12, 5)), np.eye(12))
        with pytest.raises(ValueError, match='zero-mean'):
            expected_frobenius_gap_sq_bound(f, sketch, 2, 5)

    def test_squared_variant_below_a_k(self):
        f = random_factors(82)
        sketch = rsvd_distribution(f, 1, 6)
        report = expected_frobenius_gap_sq_bound(f, sketch, 2, 6)
        assert report.bound <= report.constants['a_k'] + 1e-15
        assert report.variant == 'thm3_squared'

    def test_parameter_validation(self):
        f = random_factors(83)
        sketch = rsvd_distribution(f, 0, 4)
        with pytest.raises(ValueError):
            expected_frobenius_gap_bound(f, sketch, 3, 4)  # k > p - 2
        with pytest.raises(ValueError):
            expected_frobenius_gap_bound(f, sketch, 1, 5)  # p mismatch

    def test_shared_projection_gives_identical_reports(self):
        f = random_factors(85, n=14, m=10)
        k, p = 3, 6
        sketch = GaussianSketch.from_moments(0.1 * np.ones((14, p)), random_psd(86, 14) + 0.05 * np.eye(14))
        pc = project_sketch(f, sketch, k, p)
        for fn in (expected_frobenius_gap_bound, expected_spectral_gap_bound, expected_spectral_tail_bound):
            assert fn(f, sketch, k, p, pc) == fn(f, sketch, k, p)

    def test_request_errors_come_first_whatever_the_variant_order(self, monkeypatch):
        f = random_factors(87)
        sketch = GaussianSketch.from_moments(np.ones((12, 5)), np.eye(12))
        for variants in (['thm3_squared', 'thm3'], ['thm3', 'thm3_squared']):
            with pytest.raises(ValueError, match='1 <= k <= p - 2'):  # not the zero-mean error
                evaluate_bounds(variants, f, 4, 5, 0, sketch)
        singular = GaussianSketch.from_moments(np.zeros((12, 5)), np.diag([1.0, 0.0] * 6))
        with pytest.raises(RankDeficiencyError):
            evaluate_bounds(['thm4'], SvdFactors(np.eye(12, 9), f.sigma, 9), 2, 5, 0, singular)
        # without a sketch, the RSVD request raises what its dense route raises before any
        # covariance is formed: k outside [1, p - 2], or a head entry sigma_2 = 1e-200 below
        # the rule's rank cutoff; one above it whose sigma_2^30 underflows to zero the dense
        # route refuses, and the closed forms, which read ratios of sigma, answer
        underflowed = SvdFactors(np.eye(7), np.array([1.0, 1e-200, 1e-250, 0.0, 0.0, 0.0, 0.0]), 7)
        graded = SvdFactors(np.eye(7), np.array([1.0, 1e-11, 1e-12, 0.0, 0.0, 0.0, 0.0]), 7)
        requests = [(variants, factors, k, p, q)
                    for variants in (['thm3_squared', 'thm3'], ['thm5', 'thm4'])
                    for factors, k, p, q in ((f, 4, 5, 0), (f, 0, 5, 0), (underflowed, 2, 5, 1), (graded, 2, 5, 7))]
        errors = []
        for variants, factors, k, p, q in requests:
            with pytest.raises(ValueError) as dense:
                evaluate_bounds(variants, factors, k, p, q, rsvd_distribution(factors, q, p))
            errors.append(dense.value)
        assert isinstance(errors[-1], RankDeficiencyError)

        def refused(self):
            raise AssertionError('the covariance was formed')

        monkeypatch.setattr(GaussianSketch, 'covariance', property(refused))
        for (variants, factors, k, p, q), error in zip(requests, errors):
            if factors is graded and q == 7:
                assert list(evaluate_bounds(variants, factors, k, p, q)) == variants
                continue
            with pytest.raises(type(error), match=f'^{re.escape(str(error))}$'):
                evaluate_bounds(variants, factors, k, p, q)

    def test_report_serialization_keys(self):
        f = random_factors(84)
        sketch = rsvd_distribution(f, 0, 6)
        report = expected_spectral_tail_bound(f, sketch, 2, 6)
        data = report.as_dict()
        assert set(data['constants']) == {'c_hat_k', 'd_hat_k'}
        assert {'norm', 'variant', 'k', 'p', 'mean_term', 'bound'} <= set(data)


class TestRsvdSketchTheorems:
    """On the RSVD sketch ``(q, p)`` the theorem rows of :func:`evaluate_bounds` read the
    spectrum alone, whatever ``U`` is; the theorem functions take its distribution."""

    @pytest.mark.parametrize('k, p, q', [(15, 30, 2), (15, 30, 3), (40, 60, 2)])
    def test_theorems_match_the_closed_forms_on_a_haar_basis(self, k, p, q):
        # the dense projection of U diag(sigma^(4q+2)) U^T is off by up to 2e-9 here
        _, f = synthetic_matrix(400, seed=3)
        profile = SpectrumProfile.from_spectrum(f.sigma, k, p, q)
        reports = evaluate_bounds(['thm3', 'thm4'], f, k, p, q)
        for name, closed in (('thm3', frobenius_bound), ('thm4', spectral_bound)):
            want = closed(profile).bound
            assert abs(reports[name]['bound'] - want) <= 1e-14 * want

    @pytest.mark.parametrize('q, c', [(2, -200), (2, 200), (5, -60), (5, 60)])
    def test_theorem_rows_are_the_corollaries_at_extreme_scales(self, q, c, recwarn):
        """The n=400 synthetic spectrum times 2^c, where the head ``sigma^(4q+2)`` of a
        projection from the spectrum underflows (c < 0) or its constants overflow (c > 0)."""
        sigma = synthetic_matrix(400)[1].sigma * 2.0**c
        k, p = 5, 20
        reports = evaluate_bounds([*THEOREM_VARIANTS, 'cor_frobenius', 'cor_spectral', 'cor_spectral_improved'],
                                  SvdFactors(np.eye(400), sigma, 400), k, p, q)
        for name, corollary in (('thm3', 'cor_frobenius'), ('thm4', 'cor_spectral'), ('thm5', 'cor_spectral_improved')):
            assert reports[name]['bound'] == reports[corollary]['bound']
        a_k, b_k = reports['cor_frobenius']['a_k'], reports['cor_frobenius']['b_k']
        assert reports['thm3_squared']['bound'] == min(a_k, k * phi(math.sqrt(b_k / k)) ** 2 * float(sigma[0]) ** 2)
        assert all(math.isfinite(reports[name]['bound']) for name in THEOREM_VARIANTS)
        assert not recwarn.list

    def test_is_centered(self):
        f = random_factors(93)
        sketch = rsvd_distribution(f, 1, 6)
        assert mean_shift_term(sketch, 2.0, 6) == 0.0
        for theorem in THEOREM_VARIANTS.values():
            assert theorem(f, sketch, 2, 6).mean_term == 0.0
        report = expected_frobenius_gap_sq_bound(f, sketch, 2, 6)
        assert report.variant == 'thm3_squared'
        assert report.bound <= report.constants['a_k'] + 1e-15

    def test_project_sketch_refuses_another_p(self):
        f = random_factors(94)
        with pytest.raises(ValueError, match='^sketch has 7 columns, expected p=6$'):
            project_sketch(f, rsvd_distribution(f, 0, 7), 2, 6)
        with pytest.raises(ValueError, match='^sketch has 5 columns, expected p=6$'):
            expected_spectral_gap_bound(f, rsvd_distribution(f, 0, 5), 2, 6)
        # the RSVD sketch itself is refused: its theorem bounds are the closed forms
        refusal = '^the theorem bounds take a GaussianSketch, not RsvdSketch: on the RSVD sketch they are the closed'
        for theorem in (project_sketch, *THEOREM_VARIANTS.values()):
            with pytest.raises(TypeError, match=refusal):
                theorem(f, RsvdSketch(0, 6), 2, 6)
        with pytest.raises(TypeError, match=refusal):
            evaluate_bounds(['cor_spectral', 'thm4'], f, 2, 6, 0, RsvdSketch(0, 6))
