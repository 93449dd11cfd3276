import math
import warnings

import numpy as np
import pytest

from sketchbound.deterministic import phi
from sketchbound.experiments import synthetic_matrix
from sketchbound.rsvd import (
    SpectrumProfile,
    frobenius_bound,
    hmt_frobenius,
    hmt_power,
    hmt_spectral,
    improved_spectral_bound,
    peak_index,
    spectral_bound,
)


def random_profile(seed, m=14, k=3, p=8, q=1):
    rng = np.random.default_rng(seed)
    sigma = np.sort(np.exp(rng.uniform(np.log(0.5), np.log(2.0), m)))[::-1]
    return SpectrumProfile(sigma, k, p, q)


class TestProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumProfile(np.array([2.0, 1.0, 0.5]), 2, 3, 0)  # k > p - 2
        with pytest.raises(ValueError):
            SpectrumProfile(np.array([2.0, 1.0, 0.5]), 1, 4, 0)  # p > length
        with pytest.raises(ValueError):
            SpectrumProfile(np.array([2.0, 1.0, 0.5]), 1, 3, -1)

    def test_from_spectrum_truncates_noise_tail(self):
        sigma = np.array([2.0, 1.0, 0.5, 1e-14])
        profile = SpectrumProfile.from_spectrum(sigma, 1, 3, 0)
        assert profile.positive_tail().size == 2


class TestFrobeniusBound:
    def test_hand_evaluated_sums(self):
        profile = SpectrumProfile(np.array([2.0, 1.0, 0.5]), 1, 3, 0)
        report = frobenius_bound(profile)
        assert report.constants['a_k'] == pytest.approx(1.25, rel=1e-12)
        assert report.constants['b_k'] == pytest.approx(0.3125, rel=1e-12)
        expected = min(math.sqrt(1.25), phi(math.sqrt(0.3125)) * 2.0)
        assert report.bound == pytest.approx(expected, rel=1e-12)

    def test_exact_rank_head(self):
        profile = SpectrumProfile(np.array([3.0, 2.0, 0.0, 0.0]), 2, 4, 0)
        report = frobenius_bound(profile)
        assert report.constants['a_k'] == 0.0
        assert report.bound == 0.0

    def test_monte_carlo_domination(self):
        # metric drawn on the diagonal representative of the spectrum
        sigma = np.array([2.0, 1.0, 0.5])
        profile = SpectrumProfile(sigma, 1, 3, 0)
        bound = frobenius_bound(profile).bound
        rng = np.random.default_rng(0)
        vals = np.empty(10_000)
        tail = np.array([0.0, 1.0, 0.5])
        for t in range(vals.size):
            z = np.diag(sigma) @ rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(z)
            proj = lambda mat: mat - q @ (q.T @ mat)
            vals[t] = np.linalg.norm(proj(np.diag(sigma))) - np.linalg.norm(proj(np.diag(tail)))
        assert vals.mean() <= bound


class TestSpectralBound:
    def test_hand_evaluated_sums(self):
        profile = SpectrumProfile(np.array([2.0, 1.0, 0.5]), 1, 3, 0)
        report = spectral_bound(profile)
        c_expected = 1.0 + 2.0 * math.sqrt(0.3125) * math.e * math.sqrt(3.0) / 2.0
        assert report.constants['c_k'] == pytest.approx(c_expected, rel=1e-12)
        d_expected = 0.5 + math.sqrt(0.3125) * math.e * math.sqrt(3.0) / 2.0
        assert report.constants['d_k'] == pytest.approx(d_expected, rel=1e-12)
        assert report.bound == pytest.approx(min(c_expected, phi(d_expected) * 2.0), rel=1e-12)

    def test_exact_rank_head(self):
        profile = SpectrumProfile(np.array([3.0, 2.0, 0.0, 0.0]), 2, 4, 0)
        assert spectral_bound(profile).bound == 0.0

    def test_monte_carlo_domination(self):
        sigma = np.array([2.0, 1.0, 0.5])
        profile = SpectrumProfile(sigma, 1, 3, 0)
        bound = spectral_bound(profile).bound
        rng = np.random.default_rng(1)
        vals = np.empty(10_000)
        tail = np.array([0.0, 1.0, 0.5])
        for t in range(vals.size):
            z = np.diag(sigma) @ rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(z)
            proj = lambda mat: mat - q @ (q.T @ mat)
            vals[t] = np.linalg.norm(proj(np.diag(sigma)), 2) - np.linalg.norm(proj(np.diag(tail)), 2)
        assert vals.mean() <= bound


class TestPeakIndex:
    def test_single_pass_always_first(self):
        assert peak_index(random_profile(0, q=0)) == 1

    def test_threshold_below_head(self):
        profile = SpectrumProfile(np.array([10.0, 9.0, 1.0, 0.5]), 2, 4, 1)
        assert peak_index(profile) == 2

    def test_threshold_inside_head(self):
        profile = SpectrumProfile(np.array([2.0, 1.3, 1.0, 0.9]), 2, 4, 1)
        assert peak_index(profile) == 2

    def test_threshold_above_head(self):
        profile = SpectrumProfile(np.array([1.05, 1.02, 1.0, 0.9]), 2, 4, 2)
        assert peak_index(profile) == 1

    def test_matches_direct_maximization(self):
        for seed in range(40):
            profile = random_profile(seed, q=1 + seed % 3)
            s = profile.sigma
            k, q = profile.k, profile.q
            gam = s[k] / s[:k]
            direct = np.sqrt(np.clip(1 - gam**2, 0, None)) / s[:k] ** (2 * q)
            ell = peak_index(profile)
            chosen = math.sqrt(max(1 - (s[k] / s[ell - 1]) ** 2, 0)) / s[ell - 1] ** (2 * q)
            assert chosen == pytest.approx(np.max(direct), rel=1e-12)


class TestImprovedSpectralBound:
    def test_flat_head_collapses(self):
        profile = SpectrumProfile(np.array([2.0, 2.0, 2.0, 1.0, 0.5]), 2, 4, 0)
        report = improved_spectral_bound(profile)
        assert report.bound == 0.0

    def test_never_looser_than_plain(self):
        for seed in range(25):
            profile = random_profile(seed, q=seed % 3)
            plain = spectral_bound(profile)
            improved = improved_spectral_bound(profile)
            assert improved.constants['c_hat_k'] <= plain.constants['c_k'] + 1e-12
            assert improved.constants['d_hat_k'] == pytest.approx(plain.constants['d_k'], rel=1e-14)
            assert improved.bound <= plain.bound + 1e-12

    def test_reports_peak(self):
        profile = SpectrumProfile(np.array([10.0, 9.0, 1.0, 0.5]), 2, 4, 1)
        assert improved_spectral_bound(profile).constants['ell'] == 2


class TestMonotonicity:
    @pytest.mark.parametrize('bound_fn', [frobenius_bound, spectral_bound, improved_spectral_bound])
    def test_non_increasing_in_p(self, bound_fn):
        sigma = random_profile(5, m=30).sigma
        for q in (0, 1, 2):
            values = [bound_fn(SpectrumProfile(sigma, 4, p, q)).bound for p in range(6, 30, 3)]
            assert np.all(np.diff(values) <= 1e-12)

    @pytest.mark.parametrize('bound_fn', [frobenius_bound, spectral_bound, improved_spectral_bound])
    def test_non_increasing_in_q(self, bound_fn):
        sigma = random_profile(6, m=30).sigma
        for p in (7, 12, 20):
            values = [bound_fn(SpectrumProfile(sigma, 4, p, q)).bound for q in range(5)]
            assert np.all(np.diff(values) <= 1e-12)


class TestHmtBaselines:
    def test_exact_rank_head_frobenius(self):
        assert hmt_frobenius(np.array([3.0, 1.0, 0.0, 0.0]), 2, 4) == 0.0

    def test_hand_value(self):
        value = hmt_frobenius(np.array([2.0, 1.0, 0.5]), 1, 3)
        assert value == pytest.approx(math.sqrt(2.0) * math.sqrt(1.25), rel=1e-12)
        assert value == pytest.approx(1.5811, abs=5e-5)

    def test_spectral_value(self):
        sigma = np.array([2.0, 1.0, 0.5])
        expected = (1 + 1.0) * 1.0 + math.e * math.sqrt(3.0) / 2.0 * math.sqrt(1.25)
        assert hmt_spectral(sigma, 1, 3) == pytest.approx(expected, rel=1e-12)

    def test_power_limit_is_next_singular_value(self):
        sigma = np.array([2.0, 1.0, 0.5, 0.25])
        assert hmt_power(sigma, 1, 3, 200) == pytest.approx(1.0, rel=1e-2)

    def test_power_no_underflow_for_tiny_spectra(self):
        sigma = np.array([2e-3, 1e-3, 5e-4])
        assert hmt_power(sigma, 1, 3, 200) == pytest.approx(1e-3, rel=1e-2)

    def test_power_reduces_to_spectral_at_q_zero(self):
        sigma = np.array([4.0, 2.0, 1.0, 0.5])
        assert hmt_power(sigma, 1, 3, 0) == pytest.approx(hmt_spectral(sigma, 1, 3), rel=1e-12)

    @staticmethod
    def assert_corollaries_contain_hmt_at_q_zero(sigma, k, p):
        """At q=0 the first branches of the corollaries are HMT's bounds on the full
        residual: ``sqrt(||Sigma_tail||_F^2 + a_k)`` and ``sigma_{k+1} + c_k``."""
        profile = SpectrumProfile(sigma, k, p, 0)
        a_k = frobenius_bound(profile).constants['a_k']
        c_k = spectral_bound(profile).constants['c_k']
        assert math.sqrt(np.sum(sigma[k:] ** 2) + a_k) == pytest.approx(hmt_frobenius(sigma, k, p), rel=1e-15)
        assert sigma[k] + c_k == pytest.approx(hmt_spectral(sigma, k, p), rel=1e-15)

    @pytest.mark.parametrize('k', [5, 15, 40])
    def test_corollaries_equal_hmt_at_q_zero_on_the_default_spectrum(self, k):
        sigma = synthetic_matrix(1000)[1].sigma
        for oversampling in tuple(range(2, 100, 10)) + (100,):
            self.assert_corollaries_contain_hmt_at_q_zero(sigma, k, k + oversampling)

    def test_corollaries_equal_hmt_at_q_zero_over_six_decades(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(8, 201))
            sigma = np.sort(10.0 ** rng.uniform(-6, 0, n))[::-1]
            k = int(rng.integers(1, n - 1))
            self.assert_corollaries_contain_hmt_at_q_zero(sigma, k, int(rng.integers(k + 2, n + 1)))

    def test_overflowing_tail_is_inf_without_a_warning(self):
        sigma = np.ldexp(np.array([4.0, 2.0, 1.0, 0.5]), 600)
        with warnings.catch_warnings():
            warnings.simplefilter('error')
            assert hmt_frobenius(sigma, 1, 3) == math.inf
            assert hmt_spectral(sigma, 1, 3) == math.inf

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hmt_frobenius(np.array([2.0, 1.0]), 1, 2)
        with pytest.raises(ValueError):
            hmt_power(np.array([2.0, 1.0, 0.5]), 1, 3, -1)
