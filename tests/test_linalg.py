import numpy as np
import pytest
import scipy.io

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
    _symmetrize,
    svd,
    write_matrix_market,
)

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

    @pytest.mark.parametrize('sigma', ([1.0, np.nan], [np.inf, 1.0]))
    def test_factors_reject_nonfinite_singular_values(self, sigma):
        # NaN passes the sorted and non-negative test; it is refused at construction
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
        with pytest.raises(TypeError):
            SvdFactors(np.eye(2), [1.0, 0.5], cols)
        assert SvdFactors(np.eye(2), [1.0, 0.5], np.int64(2)).cols == 2

    @pytest.mark.parametrize('u, cols', [(np.eye(3), 2), (np.eye(2), 3)])
    def test_factors_refuse_more_singular_values_than_rows_or_columns(self, u, cols):
        with pytest.raises(ValueError, match=rf'3 singular values for a {u.shape[0]}x{cols} matrix'):
            SvdFactors(u, [3.0, 2.0, 1.0], cols)

    @pytest.mark.parametrize('u', [np.eye(5)[:, :2], np.ones(5)])
    def test_factors_refuse_a_left_factor_narrower_than_the_spectrum(self, u):
        with pytest.raises(ValueError, match='U must be 2-D with a column per singular value'):
            SvdFactors(u, [3.0, 2.0, 1.0], 5)
        # square and thin factors pass, as criterion 9's 26x26 U with 18 singular values does
        assert SvdFactors(np.eye(5)[:, :3], [3.0, 2.0, 1.0], 5).left_head(3).shape == (5, 3)
        assert SvdFactors(np.eye(26), np.linspace(18.0, 1.0, 18), 20).left_tail(18).shape == (26, 8)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


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
