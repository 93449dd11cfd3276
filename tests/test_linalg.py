import re
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.linalg

from left_factor_readers import completion_input, completion_mismatches, reader_bits, svd_inputs, svd_mismatches

from sketchbound.expectation import expect_pinv_norms, expect_product_norms
from sketchbound.experiments import evaluate_bounds
from sketchbound.linalg import (
    RankDeficiencyError,
    SvdFactors,
    canonical_angle_sines,
    frobenius_norm,
    norm,
    orthonormal_basis,
    pseudo_inverse,
    psd_order,
    read_matrix_market,
    spectral_norm,
    _symmetric_part,
    _symmetrize,
    svd,
    write_matrix_market,
)
from sketchbound.sketching import GaussianSketch

RNG = np.random.default_rng(1234)


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestSvd:
    def test_diagonal_values_sorted(self):
        f = svd(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(f.sigma, [3.0, 2.0, 1.0])

    def test_rank_one_outer_product(self):
        u = np.array([2.0, 0.0, 0.0])
        v = np.array([0.0, 5.0])
        f = svd(np.outer(u, v))
        assert abs(f.sigma[0] - 10.0) < 1e-12
        assert np.all(f.sigma[1:] < 1e-12)

    def test_construct_then_recover(self):
        rng = np.random.default_rng(7)
        q1 = random_orthogonal(3, rng)
        q2 = random_orthogonal(3, rng)
        a = q1 @ np.diag([7.0, 4.0, 1.0]) @ q2.T
        f = svd(a)
        assert np.max(np.abs(f.sigma - [7.0, 4.0, 1.0])) < 1e-10

    @pytest.mark.parametrize('shape', [(6, 4), (4, 6), (5, 5), (30, 7)])
    def test_invariants(self, shape):
        a = RNG.standard_normal(shape)
        f = svd(a)
        n, m = shape
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
        r = min(n, m)
        u, u_thin = f.left(), f.left_head(r)
        # a Gaussian A has full rank, so A^T U_thin = V Sigma gives the thin V back
        v = a.T @ u_thin / f.sigma
        tol = 1e-12 * max(shape)
        assert np.max(np.abs(u.T @ u - np.eye(n))) < tol
        assert np.max(np.abs(v.T @ v - np.eye(r))) < tol
        rel = np.linalg.norm((u_thin * f.sigma) @ v.T - a, 2) / np.linalg.norm(a, 2)
        assert rel < 1e-10

    def test_partition_accessors(self):
        a = RNG.standard_normal((8, 5))
        f = svd(a)
        k = 2
        assert f.left_head(k).shape == (8, 2)
        assert f.left_tail(k).shape == (8, 6)
        head, tail = f.left_head(k).T @ a, f.left_tail(k).T @ a
        assert np.allclose(np.linalg.svd(head, compute_uv=False), f.sigma_head(k), atol=1e-12)
        assert np.linalg.norm(tail) == pytest.approx(np.linalg.norm(f.sigma[k:]), rel=1e-12)
        assert np.allclose(f.left_head(k) @ head + f.left_tail(k) @ tail, a, atol=1e-12)
        assert f.next_sigma(5) == 0.0
        with pytest.raises(ValueError):
            f.left_head(0)

    # NaN passes the sorted and non-negative test; it, a 2-D, a 0-d and an empty spectrum are
    # refused at construction, not by a later IndexError or numpy's "truth value ... is ambiguous"
    @pytest.mark.parametrize('sigma', ([1.0, np.nan], [np.inf, 1.0], [[1.0, 0.5]], 1.0, []))
    def test_factors_reject_nonfinite_singular_values(self, sigma):
        with pytest.raises(ValueError, match='finite'):
            SvdFactors(np.eye(2), sigma, 2)

    @pytest.mark.parametrize('shape', [(7, 4), (4, 7)])
    def test_factors_keep_the_column_count_and_no_right_factor(self, shape):
        a = RNG.standard_normal(shape)
        f = svd(a)
        f.left()  # the completed U of the tall case is cached too
        assert (f.rows, f.cols) == a.shape and f.sigma.size == min(a.shape)
        v_shapes = {(shape[1], min(shape)), (min(shape), shape[1])}
        assert all(np.shape(value) not in v_shapes for value in vars(f).values() if isinstance(value, np.ndarray))

    @pytest.mark.parametrize('cols', [2.0, '2', None])
    def test_factors_refuse_a_non_integer_column_count(self, cols):
        with pytest.raises(ValueError, match='cols must be an integer'):
            SvdFactors(np.eye(2), [1.0, 0.5], cols)
        assert SvdFactors(np.eye(2), [1.0, 0.5], np.int64(2)).cols == 2

    @pytest.mark.parametrize('u, cols', [(np.eye(3), 2), (np.eye(2), 3)])
    def test_factors_refuse_more_singular_values_than_rows_or_columns(self, u, cols):
        with pytest.raises(ValueError, match=rf'3 singular values for a {u.shape[0]}x{cols} matrix'):
            SvdFactors(u, [3.0, 2.0, 1.0], cols)

    @pytest.mark.parametrize('u', [np.eye(5)[:, :2], np.ones(5), np.eye(3, 5)])
    def test_factors_refuse_a_left_factor_narrower_than_the_spectrum_or_wider_than_tall(self, u):
        with pytest.raises(ValueError, match='U must be 2-D with a column per singular value and no more columns'):
            SvdFactors(u, [3.0, 2.0, 1.0], 5)
        # square and thin factors pass, as criterion 9's 26x26 U with 18 singular values does
        assert SvdFactors(np.eye(5)[:, :3], [3.0, 2.0, 1.0], 5).left_head(3).shape == (5, 3)
        assert SvdFactors(np.eye(26), np.linspace(18.0, 1.0, 18), 20).left_tail(18).shape == (26, 8)

    def test_completed_factor_holds_one_buffer(self):
        rows, cols, k = 600, 400, 7
        a = RNG.standard_normal((rows, cols))
        tracemalloc.start()
        try:
            f = svd(a)
            f.left()
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full U and O(rows) besides; a second, thin copy of U would add rows * cols floats
        assert traced <= 8 * (rows * rows + 16 * rows)
        assert np.shares_memory(f.left_head(k), f.left()) and np.shares_memory(f.left_tail(k), f.left())
        assert np.array_equal(f.left_head(cols), f.left()[:, :cols])

    def test_readers_give_the_same_bits_whether_u_was_completed_first_or_not(self):
        assert reader_bits(complete_first=False) == reader_bits(complete_first=True)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize('name', list(svd_inputs()))
    def test_factors_have_numpys_bits_and_layout(self, name):
        assert svd_mismatches(svd_inputs()[name]) == []


class TestLeftFactorCompletion:
    ROWS = 40

    @pytest.mark.parametrize('width', [1, 17, ROWS - 1])
    def test_completion_keeps_the_thin_bits_and_runs_no_svd(self, monkeypatch, width):
        thin = completion_input(self.ROWS, width)
        f = SvdFactors(thin.copy(), np.linspace(2.0, 1.0, width), width)

        def refused(*args, **kwargs):
            raise AssertionError('the completion ran an SVD')

        monkeypatch.setattr(scipy.linalg, 'svd', refused)
        monkeypatch.setattr(scipy.linalg, 'null_space', refused)
        mismatches = completion_mismatches(thin, f.left())
        assert mismatches == [], mismatches

    # a null-space completion made the repeated column's U 6x7, and kept the scaled one's
    # |U^T U - I| = 1.25; the R of U's QR shows both
    @pytest.mark.parametrize('u, deviation', [
        (np.eye(6)[:, [0, 1, 0]], '1.000e+00'),
        (1.5 * np.eye(6)[:, :3], '5.000e-01'),
        (np.where(np.eye(6)[:, :3] == 1.0, 1.0, np.nan), 'nan'),
    ], ids=['repeated-column', 'scaled', 'nan'])
    def test_a_thin_factor_without_orthonormal_columns_is_refused(self, u, deviation):
        f = SvdFactors(u, [3.0, 2.0, 1.0], 3)
        for read in (f.left, lambda: f.left_tail(1)):
            with pytest.raises(ValueError, match=f'orthonormal columns: .* up to {re.escape(deviation)}'):
                read()

    # a completion holds the full U, its complement and LAPACK's work at once: 1.44 and 1.34
    # rows^2 floats here; a QR of the C-ordered U, which makes its own copy, reached 1.57 and 1.37
    @pytest.mark.parametrize('rows, cols', [(400, 300), (600, 400)])
    def test_completion_peak_is_at_most_one_and_a_half_full_factors(self, rows, cols):
        f = svd(RNG.standard_normal((rows, cols)))
        tracemalloc.start()
        try:
            f.left()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * rows * rows


class TestOrthonormalBasis:
    def test_identity_columns(self):
        z = np.eye(5)[:, :3]
        q = orthonormal_basis(z)
        assert np.allclose(np.abs(q), z)

    def test_span_closure(self):
        e1 = np.array([1.0, 0, 0])
        e2 = np.array([0, 1.0, 0])
        q = orthonormal_basis(np.column_stack([e1, e1 + e2]))
        proj = q @ (q.T @ e2)
        assert np.allclose(proj, e2, atol=1e-12)

    def test_projector_fixes_range(self):
        z = RNG.standard_normal((50, 8))
        q = orthonormal_basis(z)
        assert np.linalg.norm(z - q @ (q.T @ z)) < 1e-12 * np.linalg.norm(z)

    def test_rank_deficiency_reports_columns(self):
        z = RNG.standard_normal((20, 3))
        z = np.column_stack([z, z[:, 0] + z[:, 1], z[:, 1]])
        with pytest.raises(RankDeficiencyError) as info:
            orthonormal_basis(z)
        assert info.value.deficient_columns == 2


class TestPseudoInverse:
    def test_diagonal(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_right_inverse(self):
        m = RNG.standard_normal((3, 5))
        assert np.max(np.abs(m @ pseudo_inverse(m) - np.eye(3))) < 1e-10

    def test_penrose_identities(self):
        m = RNG.standard_normal((6, 4))
        pinv = pseudo_inverse(m)
        scale = np.linalg.norm(m, 2)
        assert np.max(np.abs(m @ pinv @ m - m)) < 1e-10 * scale
        assert np.max(np.abs(pinv @ m @ pinv - pinv)) < 1e-10
        assert np.max(np.abs((m @ pinv).T - m @ pinv)) < 1e-10
        assert np.max(np.abs((pinv @ m).T - pinv @ m)) < 1e-10


class TestNorms:
    def test_diagonal(self):
        m = np.diag([3.0, 1.0])
        assert spectral_norm(m) == pytest.approx(3.0)
        assert frobenius_norm(m) == pytest.approx(np.sqrt(10.0))

    def test_zero(self):
        z = np.zeros((3, 2))
        assert spectral_norm(z) == 0.0
        assert frobenius_norm(z) == 0.0

    def test_frobenius_matches_singular_values(self):
        m = RNG.standard_normal((9, 6))
        s = np.linalg.svd(m, compute_uv=False)
        assert frobenius_norm(m) ** 2 == pytest.approx(np.sum(s**2), rel=1e-10)

    def test_dispatch(self):
        m = RNG.standard_normal((4, 4))
        assert norm(m, 'spectral') == spectral_norm(m)
        assert norm(m, 'frobenius') == frobenius_norm(m)
        with pytest.raises(ValueError):
            norm(m, 'nuclear')

    def test_norm_sandwich(self):
        for seed in range(10):
            m = np.random.default_rng(seed).standard_normal((7, 4))
            sp, fr = spectral_norm(m), frobenius_norm(m)
            assert sp <= fr + 1e-12
            assert fr <= 2.0 * sp + 1e-12  # sqrt(min(rows, cols)) = 2

    def test_strong_submultiplicativity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.standard_normal((5, 6))
            nmid = rng.standard_normal((6, 4))
            q = rng.standard_normal((4, 7))
            for which in ('spectral', 'frobenius'):
                lhs = norm(m @ nmid @ q, which)
                assert lhs <= spectral_norm(m) * norm(nmid, which) * spectral_norm(q) + 1e-10


class TestPsdOrder:
    def test_zero_below_identity(self):
        report = psd_order(np.zeros((3, 3)), np.eye(3), 1e-12)
        assert report.satisfied
        assert report.min_eigenvalue_of_difference == pytest.approx(1.0)

    def test_violated(self):
        report = psd_order(2 * np.eye(2), np.eye(2), 1e-12)
        assert not report.satisfied
        assert report.min_eigenvalue_of_difference == pytest.approx(-1.0)

    def test_conjugation_preserves_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            m = m @ m.T
            g = rng.standard_normal((4, 3))
            n = m + g @ g.T
            assert psd_order(m, n, 1e-10).satisfied
            q = rng.standard_normal((4, 5))
            assert psd_order(q.T @ m @ q, q.T @ n @ q, 1e-9).satisfied

    def test_transitive(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        m = m @ m.T
        n = m + 0.1 * np.eye(4)
        g = rng.standard_normal((4, 2))
        p = n + g @ g.T
        tol = 1e-10
        assert psd_order(m, n, tol).satisfied
        assert psd_order(n, p, tol).satisfied
        assert psd_order(m, p, 2 * tol).satisfied

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psd_order(np.eye(2), np.eye(3), 1e-12)


class TestSymmetrize:
    SYMMETRIC = np.array([[2.0, 0.5, -1.0], [0.5, 1.0, 0.25], [-1.0, 0.25, 3.0]])
    ASYMMETRIC = np.array([[2.0, 0.5, -1.0], [0.75, 1.0, 0.3], [-1.5, 0.125, 3.0]])

    @pytest.mark.parametrize('log2_scale', [-60, 0])
    def test_relative_asymmetry_is_refused_at_every_scale(self, log2_scale):
        a = self.SYMMETRIC.copy()
        a[0, 1] *= 1 + 1e-6
        with pytest.raises(ValueError, match='not symmetric'):
            _symmetrize(np.ldexp(a, log2_scale))

    @pytest.mark.parametrize('log2_scale', [-600, -60, 0, 60, 600])
    def test_symmetric_matrix_is_accepted_at_every_scale(self, log2_scale):
        a = np.ldexp(self.SYMMETRIC, log2_scale)
        np.testing.assert_array_equal(_symmetrize(a), a)

    @pytest.mark.parametrize('log2_scale', [-1070, 0, 1000])
    def test_exactly_symmetric_matrix_is_returned_itself(self, log2_scale):
        a = np.ldexp(self.SYMMETRIC, log2_scale)  # at -1070 its entries are subnormal
        assert _symmetrize(a) is a
        assert a.tobytes() == (0.5 * (a + a.T)).tobytes()  # the average it stands for

    def test_exactly_symmetric_matrix_above_half_the_largest_double_does_not_overflow(self):
        a = np.ldexp(self.SYMMETRIC, 1022)  # its largest entry, 3 * 2^1022, is above DBL_MAX / 2
        assert _symmetrize(a) is a

    def test_nearly_symmetric_matrix_is_averaged_into_a_new_array(self):
        a = self.SYMMETRIC.copy()
        a[0, 1] += 1e-14
        out = _symmetrize(a)
        assert out is not a and out.tobytes() == (0.5 * (a + a.T)).tobytes()
        assert np.array_equal(out, out.T)

    def test_symmetric_part_overwrites_and_returns_its_argument(self):
        b = self.ASYMMETRIC.copy()
        assert _symmetric_part(b) is b
        assert np.array_equal(b, b.T) and not np.array_equal(b, self.ASYMMETRIC)

    @pytest.mark.parametrize('order', ['C', 'F'])
    @pytest.mark.parametrize('log2_scale', [-1000, -600, -60, 0, 60, 600, 1000])
    def test_symmetric_part_has_the_copying_forms_bits(self, log2_scale, order):
        b = np.array(np.ldexp(self.ASYMMETRIC, log2_scale), order=order)
        want = 0.5 * (b + b.T)
        assert _symmetric_part(b).tobytes() == want.tobytes()

    def test_a_read_only_covariance_is_read_and_never_written(self):
        """An exactly symmetric covariance is used as given, not copied; every reader
        of it that symmetrizes in place must do so on a copy of its own."""
        rng = np.random.default_rng(37)
        n, k, p = 12, 3, 8
        g = rng.standard_normal((n, n))
        c = g @ g.T / n + np.eye(n)
        c = 0.5 * (c + c.T)
        kept = c.copy()
        c.flags.writeable = False
        mean = 0.1 * rng.standard_normal((n, p))
        expect_product_norms(mean, c, rng.standard_normal((p, 4)))
        expect_pinv_norms(c, rng.standard_normal((n, 5)), n + 4)
        factors = svd(rng.standard_normal((n, 10)))
        reports = evaluate_bounds(['thm3', 'thm4', 'thm5'], factors, k, p, 0, GaussianSketch.from_moments(mean, c))
        assert all(np.isfinite(report['bound']) for report in reports.values())
        assert not c.flags.writeable and c.tobytes() == kept.tobytes()


class TestCanonicalAngles:
    def test_identical_subspaces(self):
        # sqrt(1 - cos^2) cannot resolve angles below sqrt(machine eps)
        q = orthonormal_basis(RNG.standard_normal((10, 3)))
        assert np.max(canonical_angle_sines(q, q)) < 1e-7

    def test_orthogonal_subspaces(self):
        e = np.eye(4)
        sines = canonical_angle_sines(e[:, :1], e[:, 1:2])
        assert sines[0] == pytest.approx(1.0)

    def test_planar_rotation(self):
        theta = 0.3
        q1 = np.eye(3)[:, :1]
        q2 = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]])
        assert canonical_angle_sines(q1, q2)[0] == pytest.approx(np.sin(theta), abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match='orthonormal'):
            canonical_angle_sines(np.ones((4, 2)), np.eye(4)[:, :2])


class TestMatrixMarket:
    def test_round_trip(self, tmp_path):
        m = RNG.standard_normal((5, 3))
        path = tmp_path / 'm.mtx'
        write_matrix_market(path, m)
        header = path.read_text().splitlines()[0]
        assert header.startswith('%%MatrixMarket matrix array real general')
        back = read_matrix_market(path)
        assert np.allclose(back, m, atol=1e-14)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix_market(tmp_path / 'absent.mtx')

    def test_complex_file_is_refused(self, tmp_path):
        path = tmp_path / 'c.mtx'
        scipy.io.mmwrite(str(path), np.diag([1 + 5j, 1 + 7j]))
        with pytest.raises(ValueError, match='complex'):
            read_matrix_market(path)

    def test_failed_write_names_the_target_not_the_temporary_file(self, tmp_path):
        path = tmp_path / 'absent' / 'm.mtx'
        with pytest.raises(FileNotFoundError) as info:
            write_matrix_market(path, np.eye(2))
        assert info.value.filename == str(path)
        assert '.tmp-' not in str(info.value)
