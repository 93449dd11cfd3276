import numpy as np
import pytest

from sketchbound.deterministic import (
    angle_operators,
    deflated_spectral_gap_bound,
    phi,
    residual_gap_squared,
    sine_tangent_gap_bound,
)
from sketchbound.linalg import (
    PINV_TOL,
    RankDeficiencyError,
    SvdFactors,
    canonical_angle_sines,
    orthonormal_basis,
    pseudo_inverse,
    psd_order,
    svd,
)


def random_instance(seed, n=24, m=16, p=8):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m))
    return a, svd(a), rng.standard_normal((n, p))


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestPhi:
    def test_values(self):
        assert phi(0.0) == 0.0
        assert phi(1.0) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert abs(phi(1e8) - 1.0) < 1e-8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            phi(-0.1)

    def test_is_one_where_the_square_overflows(self):
        assert phi(1e155) == phi(np.inf) == 1.0
        assert np.array_equal(phi(np.array([0.5, 1e155, np.inf])), [phi(0.5), 1.0, 1.0])

    def test_keeps_its_bits_wherever_the_square_is_finite(self):
        x = np.concatenate([np.geomspace(1e-300, 1.3e154, 4001), [np.sqrt(np.finfo(float).max)]])
        assert np.all(np.isfinite(x * x))
        assert phi(x).tobytes() == (x / np.sqrt(1.0 + x * x)).tobytes()

    def test_increasing_and_concave(self):
        x = np.linspace(0.0, 5.0, 200)
        y = phi(x)
        diffs = np.diff(y)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 1e-12)


class TestAngleOperators:
    def test_aligned_sketch_has_zero_angles(self):
        a, f, _ = random_instance(0)
        k = 3
        ops = angle_operators(f, f.left_head(k), k)
        assert np.max(np.abs(ops.tangent)) < 1e-12
        assert np.max(np.abs(ops.sine)) < 1e-12

    def test_two_dimensional_rotation(self):
        theta = 0.3
        f = svd(np.diag([2.0, 1.0]))
        z = np.array([[np.cos(theta)], [np.sin(theta)]])
        ops = angle_operators(f, z, 1)
        assert ops.tangent_sigma[0] == pytest.approx(np.tan(theta), abs=1e-12)
        assert ops.sine_sigma[0] == pytest.approx(np.sin(theta), abs=1e-12)

    def test_sines_are_phi_of_tangents(self):
        for seed in range(8):
            _, f, z = random_instance(seed)
            ops = angle_operators(f, z, 4)
            assert np.max(np.abs(ops.sine_sigma - phi(ops.tangent_sigma))) < 1e-10

    def test_matches_canonical_angles(self):
        for seed in range(6):
            _, f, z = random_instance(seed, n=30, m=20, p=10)
            k = 5
            ops = angle_operators(f, z, k)
            omega = f.left_head(k).T @ z
            basis = orthonormal_basis(z @ pseudo_inverse(omega))
            sines = canonical_angle_sines(basis, f.left_head(k))
            assert np.max(np.abs(np.sort(ops.sine_sigma) - np.sort(sines))) < 1e-9

    def test_rank_deficient_head_raises(self):
        a, f, _ = random_instance(1)
        k = 3
        z = f.left_tail(k)[:, :5] @ np.random.default_rng(2).standard_normal((5, 4))
        with pytest.raises(RankDeficiencyError) as info:
            angle_operators(f, z, k)
        assert info.value.smallest_singular_value < 1e-12


class TestResidualGap:
    def test_aligned_sketch_gives_zero(self):
        a, f, _ = random_instance(4)
        k = 4
        for which in ('spectral', 'frobenius'):
            gap = residual_gap_squared(a, f, f.left_head(k), k, which)
            assert abs(gap) < 1e-10

    def test_range_capturing_sketch_gives_zero(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((12, 4))
        a = base @ rng.standard_normal((4, 8))
        f = svd(a)
        k = int(np.sum(f.sigma > PINV_TOL * f.sigma[0]))  # the numerical rank, 4
        z = a @ rng.standard_normal((8, k))
        for which in ('spectral', 'frobenius'):
            assert abs(residual_gap_squared(a, f, z, k, which)) < 1e-9

    def test_frobenius_gap_nonnegative_and_splits(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((40, 30))
            f = svd(a)
            z = rng.standard_normal((40, 9))
            k = 4
            gap = residual_gap_squared(a, f, z, k, 'frobenius')
            assert gap >= 0.0
            q = orthonormal_basis(z)
            head = f.left_head(k) @ (f.left_head(k).T @ a)
            head_term = np.linalg.norm(head - q @ (q.T @ head)) ** 2
            assert gap == pytest.approx(head_term, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize('evaluate', [
    lambda a, f, z: residual_gap_squared(a, f, z, 2, 'frobenius'),
    lambda a, f, z: residual_gap_squared(a, f, z, 2, 'spectral'),
    lambda a, f, z: sine_tangent_gap_bound(a, f, z, 2, 'spectral'),
    lambda a, f, z: deflated_spectral_gap_bound(a, f, z, 2),
], ids=['gap-frobenius', 'gap-spectral', 'sine-tangent', 'deflated'])
def test_factors_must_match_the_shape_of_a(evaluate):
    a, f, z = random_instance(7)
    evaluate(a, f, z)
    for wrong in (a.T, a[:-1], a[:, :-1]):
        with pytest.raises(ValueError, match='but its factors are 24x16'):
            evaluate(wrong, f, z)


class TestSineTangentBound:
    def test_aligned_sketch(self):
        a, f, _ = random_instance(6)
        rep = sine_tangent_gap_bound(a, f, f.left_head(3), 3, 'frobenius')
        assert rep.bound < 1e-10
        assert abs(rep.lhs_gap) < 1e-10

    @pytest.mark.parametrize('which', ['spectral', 'frobenius'])
    def test_bound_dominates_gap(self, which):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((60, 40))
            f = svd(a)
            z = rng.standard_normal((60, 12))
            rep = sine_tangent_gap_bound(a, f, z, 5, which)
            assert rep.lhs_gap <= rep.bound + 1e-9
            assert rep.bound == min(rep.bound_sine, rep.bound_tangent)

    def test_sine_branch_wins_for_steep_angles(self):
        theta = np.pi / 2 - 0.05
        a = np.diag([2.0, 1.0])
        f = svd(a)
        z = np.array([[np.cos(theta)], [np.sin(theta)]])
        rep = sine_tangent_gap_bound(a, f, z, 1, 'spectral')
        assert rep.bound_sine < rep.bound_tangent


class TestDeflatedSpectralBound:
    def test_reduces_to_plain_bound_for_exact_rank(self):
        rng = np.random.default_rng(7)
        u = random_orthogonal(8, rng)
        v = random_orthogonal(6, rng)
        sigma = np.array([5.0, 3.0, 2.0, 0.0, 0.0, 0.0])
        a = (u[:, :6] * sigma) @ v.T
        f = svd(a)
        z = rng.standard_normal((8, 5))
        k = 3
        deflated = deflated_spectral_gap_bound(a, f, z, k)
        plain = sine_tangent_gap_bound(a, f, z, k, 'spectral')
        assert deflated.bound == pytest.approx(plain.bound, rel=1e-9)

    def test_flat_spectrum_gives_zero_bound(self):
        rng = np.random.default_rng(8)
        u = random_orthogonal(6, rng)
        sigma = np.array([2.0, 2.0, 2.0, 1.0, 0.5, 0.1])
        a = (u * sigma) @ random_orthogonal(6, rng).T
        f = svd(a)
        z = rng.standard_normal((6, 4))
        rep = deflated_spectral_gap_bound(a, f, z, 2)
        assert rep.bound < 1e-12
        assert rep.lhs_gap <= 1e-9

    def test_tighter_than_plain_spectral(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((30, 20))
            f = svd(a)
            z = rng.standard_normal((30, 8))
            deflated = deflated_spectral_gap_bound(a, f, z, 3)
            plain = sine_tangent_gap_bound(a, f, z, 3, 'spectral')
            assert deflated.bound <= plain.bound + 1e-12
            assert deflated.lhs_gap <= deflated.bound + 1e-9

    def test_target_rank_equal_to_rows(self):
        # no tail subspace is left, so the sine spectrum is empty
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        f = svd(a)
        z = rng.standard_normal((6, 6))
        rep = deflated_spectral_gap_bound(a, f, z, 6)
        plain = sine_tangent_gap_bound(a, f, z, 6, 'spectral')
        assert rep.bound == plain.bound == 0.0
        assert abs(rep.lhs_gap) < 1e-9


class TestOrderingChain:
    def test_projector_sine_tangent_chain(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((30, 20))
            f = svd(a)
            z = rng.standard_normal((30, 9))
            k = 4
            ops = angle_operators(f, z, k)
            q = orthonormal_basis(z)
            uk = f.left_head(k)
            projected = uk.T @ uk - (q.T @ uk).T @ (q.T @ uk)
            sine_gram = ops.sine.T @ ops.sine
            tangent_gram = ops.tangent.T @ ops.tangent
            assert psd_order(projected, sine_gram, 1e-9).satisfied
            assert psd_order(sine_gram, tangent_gram, 1e-9).satisfied
