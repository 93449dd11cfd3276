import numpy as np
import pytest
import scipy.sparse

from sketchbound import rsvd
from sketchbound.linalg import NotPositiveSemidefiniteError, svd
from sketchbound.sketching import (
    GaussianSketch,
    RsvdSketch,
    SeededStream,
    rsvd_distribution,
    rsvd_sketch,
    sample,
    standard_gaussian,
)

# one-sided normal quantile at 1.96
P_ABOVE_196 = 0.024997895148220428


class TestSeededStream:
    def test_determinism(self):
        s = SeededStream(987654321, 4)
        g1 = standard_gaussian(6, 5, s)
        g2 = standard_gaussian(6, 5, SeededStream(987654321, 4))
        assert np.array_equal(g1, g2)

    def test_distinct_streams_differ(self):
        g1 = standard_gaussian(6, 5, SeededStream(1, 0))
        g2 = standard_gaussian(6, 5, SeededStream(1, 1))
        assert not np.array_equal(g1, g2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SeededStream(1, -2)

    def test_master_seed_outside_64_bits_rejected(self):
        # -1 and 2**64 + 5 would alias the streams of 2**64 - 1 and 5
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError, match='master_seed'):
                SeededStream(seed)

    def test_largest_master_seed_draws(self):
        g = standard_gaussian(4, 3, SeededStream(2**64 - 1, 2))
        assert np.array_equal(g, standard_gaussian(4, 3, SeededStream(2**64 - 1, 2)))
        assert not np.array_equal(g, standard_gaussian(4, 3, SeededStream(0, 2)))


class TestStandardGaussian:
    def test_moments_of_pooled_entries(self):
        g = standard_gaussian(1000, 1000, SeededStream(2024))
        assert abs(g.var() - 1.0) < 0.01
        assert abs(g.mean()) < 0.005

    def test_upper_tail_fraction(self):
        g = standard_gaussian(1000, 1000, SeededStream(77))
        frac = np.mean(g > 1.96)
        assert abs(frac - P_ABOVE_196) < 0.002

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            standard_gaussian(0, 3, SeededStream(1))


class TestGaussianSketch:
    def test_from_moments_validates_psd(self):
        mean = np.zeros((2, 2))
        with pytest.raises(NotPositiveSemidefiniteError):
            GaussianSketch.from_moments(mean, np.diag([1.0, -0.2]))

    def test_rank_and_smallest_eigenvalue(self):
        cov = np.diag([4.0, 1.0, 0.0])
        sk = GaussianSketch.from_moments(np.zeros((3, 2)), cov)
        assert sk.rank == 2
        assert sk.min_nonzero_eigenvalue == pytest.approx(1.0)
        assert np.linalg.norm(sk.cov_sqrt @ sk.cov_sqrt - cov, 2) < 1e-9 * 4.0

    def test_lazy_root_matches_eager_formula_bits(self):
        b = np.random.default_rng(4).standard_normal((9, 9))
        cov = b @ b.T
        sk = GaussianSketch.from_moments(np.zeros((9, 2)), cov)
        w, vec = np.linalg.eigh(0.5 * (cov + cov.T))
        root = (vec * np.sqrt(np.clip(w, 0.0, None))) @ vec.T
        assert np.array_equal(sk.cov_sqrt, 0.5 * (root + root.T))
        assert sk.cov_sqrt is sk.cov_sqrt

    def test_zero_covariance_sample_is_mean(self):
        mean = np.arange(6.0).reshape(3, 2)
        sk = GaussianSketch.from_moments(mean, np.zeros((3, 3)))
        z = sample(sk, SeededStream(9))
        assert np.array_equal(z, mean)

    def test_sample_mean_law_of_large_numbers(self):
        n, p, draws = 4, 3, 100_000
        sk = GaussianSketch.from_moments(np.zeros((n, p)), np.eye(n))
        acc = np.zeros((n, p))
        for t in range(draws):
            acc += sample(sk, SeededStream(31, t))
        assert np.max(np.abs(acc / draws)) < 4.0 / np.sqrt(draws)

    def test_sample_column_covariance(self):
        n, p, draws = 4, 3, 30_000
        b = np.random.default_rng(0).standard_normal((n, n))
        cov = b @ b.T
        sk = GaussianSketch.from_moments(np.zeros((n, p)), cov)
        acc = np.zeros((n, n))
        for t in range(draws):
            z = sample(sk, SeededStream(8, t))
            acc += z @ z.T
        emp = acc / (draws * p)
        rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
        assert rel < 0.05

    def test_fixed_direction_variance(self):
        n, p, draws = 5, 2, 20_000
        b = np.random.default_rng(1).standard_normal((n, n))
        cov = b @ b.T / n
        sk = GaussianSketch.from_moments(np.zeros((n, p)), cov)
        w = np.random.default_rng(2).standard_normal(n)
        samples = np.empty(draws * p)
        for t in range(draws):
            samples[t * p:(t + 1) * p] = w @ sample(sk, SeededStream(3, t))
        target = w @ cov @ w
        se = target * np.sqrt(2.0 / (samples.size - 1))
        assert abs(samples.var(ddof=1) - target) < 5 * se


class TestRsvdSketch:
    def test_single_pass_is_plain_product(self):
        a = np.random.default_rng(4).standard_normal((7, 5))
        stream = SeededStream(12)
        z = rsvd_sketch(a, 0, 3, stream)
        g = standard_gaussian(5, 3, stream)
        assert np.array_equal(z, a @ g)

    def test_identity_matrix_passes_gaussian_through(self):
        stream = SeededStream(13)
        z = rsvd_sketch(np.eye(6), 2, 4, stream)
        assert np.allclose(z, standard_gaussian(6, 4, stream), atol=1e-14)

    def test_power_iteration_matches_explicit_product(self):
        a = np.random.default_rng(5).standard_normal((6, 4))
        stream = SeededStream(14)
        z = rsvd_sketch(a, 1, 3, stream)
        g = standard_gaussian(4, 3, stream)
        explicit = a @ a.T @ a @ g
        assert np.max(np.abs(z - explicit)) < 1e-12

    @pytest.mark.parametrize('q', (0, 2))
    def test_sparse_matrix_matches_its_dense_copy(self, q):
        a = scipy.sparse.random_array((40, 30), density=0.2, rng=np.random.default_rng(6), format='csr')
        dense = a.toarray()
        z = rsvd_sketch(a, q, 5, SeededStream(15))
        want = rsvd_sketch(dense, q, 5, SeededStream(15))
        assert np.linalg.norm(z - want) <= 1e-12 * np.linalg.norm(want)

    def test_sparse_matrix_with_a_nan_is_refused(self):
        a = scipy.sparse.random_array((20, 10), density=0.3, rng=np.random.default_rng(7), format='csr')
        a.data[3] = np.nan
        with pytest.raises(ValueError, match='non-finite'):
            rsvd_sketch(a, 0, 3, SeededStream(16))

    def test_draw_helper(self):
        a = np.eye(4)
        spec = RsvdSketch(q=0, p=2)
        z = spec.draw(a, SeededStream(1))
        assert z.shape == (4, 2)
        with pytest.raises(ValueError, match='p must be positive'):
            RsvdSketch(q=0, p=0)

    @pytest.mark.parametrize('refuse', (
        lambda q: RsvdSketch(q=q, p=2),
        lambda q: rsvd_sketch(np.eye(4), q, 2, SeededStream(1)),
        lambda q: rsvd_distribution(svd(np.eye(4)), q, 2),
        lambda q: rsvd._check_parameters(1, 3, q),
    ), ids=['RsvdSketch', 'rsvd_sketch', 'rsvd_distribution', 'check_parameters'])
    def test_negative_powers_are_refused_in_one_message(self, refuse):
        with pytest.raises(ValueError, match=r'^q must be non-negative, got q=-1$'):
            refuse(-1)


class TestRsvdDistribution:
    def test_diagonal_single_pass(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        sk = rsvd_distribution(f, 0, 3)
        assert np.allclose(sk.covariance, np.diag([9.0, 4.0, 1.0]), atol=1e-12)

    def test_covariance_formed_on_first_read_as_the_eager_product(self):
        f = svd(np.random.default_rng(10).standard_normal((30, 12)))
        for q in (0, 1, 2):
            sk = rsvd_distribution(f, q, 6)
            assert 'covariance' not in vars(sk)
            u = f.left()
            lam = np.zeros(30)
            lam[:12] = f.sigma ** (4 * q + 2)
            c = (u * lam) @ u.T
            assert sk.covariance.tobytes() == (0.5 * (c + c.T)).tobytes()
            assert sk.covariance is sk.covariance  # cached

    def test_mean_is_zero(self):
        f = svd(np.random.default_rng(6).standard_normal((5, 4)))
        for q in (0, 1, 3):
            assert not np.any(rsvd_distribution(f, q, 2).mean)

    def test_power_covariance_matches_direct_assembly(self):
        a = np.random.default_rng(7).standard_normal((20, 10))
        f = svd(a)
        sk = rsvd_distribution(f, 1, 4)
        direct = np.linalg.matrix_power(a @ a.T, 3)
        rel = np.linalg.norm(sk.covariance - direct, 2) / np.linalg.norm(direct, 2)
        assert rel < 1e-10
        assert sk.rank == 10

    def test_equidistributed_with_direct_draws(self):
        # compare empirical covariances of a fixed 5-dim projection of vec(Z)
        # between the two sampling routes; family-wise level 1e-3
        n, m, q, p, draws = 10, 8, 1, 4, 4000
        a = np.random.default_rng(8).standard_normal((n, m))
        f = svd(a)
        dist = rsvd_distribution(f, q, p)
        proj = np.random.default_rng(9).standard_normal((5, n * p)) / np.sqrt(n * p)
        ya = np.empty((draws, 5))
        yb = np.empty((draws, 5))
        for t in range(draws):
            ya[t] = proj @ rsvd_sketch(a, q, p, SeededStream(100, t)).ravel()
            yb[t] = proj @ sample(dist, SeededStream(200, t)).ravel()
        ca = ya.T @ ya / draws
        cb = yb.T @ yb / draws
        var_a = (np.outer(np.diag(ca), np.diag(ca)) + ca**2) / draws
        var_b = (np.outer(np.diag(cb), np.diag(cb)) + cb**2) / draws
        z_scores = np.abs(ca - cb) / np.sqrt(var_a + var_b)
        # normal quantile for two-sided 1e-3 Bonferroni over 15 unique entries
        assert np.max(z_scores) < 4.1

