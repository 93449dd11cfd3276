import importlib.util
import os

import numpy as np
import pytest
import scipy.sparse.linalg

from sketchbound import deterministic, experiments
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


def dense_lhs(f, z, k):
    """The spectral and deflated gaps from ``eigvalsh`` of each block's own dense
    Gram ``Sigma^2 - B^T B``, formed as the dense branch forms it: the oracle of the Lanczos one."""
    q = orthonormal_basis(f.left().T @ z)
    b = q[:f.sigma.size].T * f.sigma
    sig_sq = f.sigma**2

    def top(diag_sq, block):
        return float(np.linalg.eigvalsh(np.diag(diag_sq) - block.T @ block)[-1]) if diag_sq.size else 0.0
    full = top(sig_sq, b)
    return full - top(sig_sq[k:], b[:, k:]), full - f.next_sigma(k) ** 2


def spectrum_instance(rows, cols, spectrum, seed=0):
    """``(a, factors, z, k)`` for one named spectrum: the benchmark pool's
    ``j^-1/2`` with ``Z = A G``, G of 30 columns; a graded ``j^-2`` with
    ``Z = (A A^T)^2 A G``, G of 8 columns, the most ``Z`` keeps of full rank;
    ten equal leading values; sixty distinct ones within 6e-5, ``1 - 1e-6 (j - 1)``,
    then ``0.5 j^-1/2``; or rank 20, where ``Z = [A G, W]`` with 20 and 10
    columns holds the whole range of ``A``, so the Gram is round-off."""
    rng = np.random.default_rng([seed, rows, cols])
    r = min(rows, cols)
    j = np.arange(1, r + 1, dtype=float)
    sigma, q, k, p = {
        'pool': (j**-0.5, 0, 8, 30),
        'graded': (j**-2.0, 2, 3, 8),
        'cluster': (np.where(j <= 10, 1.0, 0.5 / j), 0, 5, 30),
        'near-cluster': (np.where(j <= 60, 1 - 1e-6 * (j - 1), 0.5 * j**-0.5), 0, 5, 30),
        'round-off': (np.where(j <= 20, j**-0.5, 0.0), 0, 6, 20),
    }[spectrum]
    a = (random_orthogonal(rows, rng)[:, :r] * sigma) @ random_orthogonal(cols, rng)[:, :r].T
    z = a @ rng.standard_normal((cols, p))
    for _ in range(q):
        z = a @ (a.T @ z)
    if spectrum == 'round-off':
        z = np.hstack([z, rng.standard_normal((rows, 10))])
    return a, svd(a), z, k


def lhs_pair(a, f, z, k):
    return residual_gap_squared(a, f, z, k, 'spectral'), deflated_spectral_gap_bound(a, f, z, k).lhs_gap


@pytest.fixture
def eigsh_calls(monkeypatch):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', counting)
    return calls


SHAPES = {'tall': (150, 120), 'wide': (110, 160), 'square': (130, 130)}
SPECTRA = ('pool', 'graded', 'cluster', 'near-cluster', 'round-off')


class TestLanczosGramBranch:
    """Above ``experiments._DENSE_RESIDUAL_LIMIT`` columns the residual Gram's top
    eigenvalues are solved by Lanczos; at or below it, and where ARPACK fails, densely."""

    @pytest.mark.parametrize('spectrum', SPECTRA)
    @pytest.mark.parametrize('shape', SHAPES)
    def test_agrees_with_the_dense_oracle(self, eigsh_calls, shape, spectrum):
        a, f, z, k = spectrum_instance(*SHAPES[shape], spectrum)
        assert f.sigma.size - k > experiments._DENSE_RESIDUAL_LIMIT
        got, want = lhs_pair(a, f, z, k), dense_lhs(f, z, k)
        assert len(eigsh_calls) == 3  # the full Gram twice and its trailing block once
        assert np.abs(np.subtract(got, want)).max() <= 1e-12 * f.sigma[0] ** 2

    @pytest.mark.parametrize('shape', SHAPES)
    def test_arpack_failure_gives_the_dense_bits(self, monkeypatch, shape):
        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', failing)
        for spectrum in SPECTRA:
            a, f, z, k = spectrum_instance(*SHAPES[shape], spectrum)
            assert lhs_pair(a, f, z, k) == dense_lhs(f, z, k)

    @pytest.mark.parametrize('rows, cols, k, solves', [
        (120, 90, 8, 0), (70, 100, 5, 0), (40, 30, 4, 0),
        # the full Gram above the limit, its trailing block at or below it
        (150, 95, 5, 2), (150, 95, 10, 2),
    ])
    def test_at_or_below_the_limit_the_block_keeps_the_dense_bits(self, eigsh_calls, rows, cols, k, solves):
        a, f, z, _ = spectrum_instance(rows, cols, 'pool')
        spectral, deflated = lhs_pair(a, f, z, k)
        want_spectral, want_deflated = dense_lhs(f, z, k)
        assert len(eigsh_calls) == solves
        if solves:
            assert abs(spectral - want_spectral) <= 1e-12 * f.sigma[0] ** 2
            assert abs(deflated - want_deflated) <= 1e-12 * f.sigma[0] ** 2
        else:
            assert (spectral, deflated) == (want_spectral, want_deflated)


def test_gap_is_within_the_bound_on_every_benchmark_instance():
    """``lhs_gap <= bound + 1e-9`` for the three bounds of all 27 instances of the
    benchmark's deterministic pool, whose Grams (300 to 400 columns) take the Lanczos branch."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'perfbench', 'workloads.py')
    spec = importlib.util.spec_from_file_location('perfbench_workloads', path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = workloads._det_pool()
    assert len(pool) == 27
    with experiments._one_blas_thread():  # a third of the time at two BLAS threads
        for instance_id in pool:
            a, z = workloads._det_arrays(instance_id)
            reports = workloads.det_reports(deterministic, a, svd(a), z, workloads.det_k(instance_id))
            assert all(r['lhs_gap'] <= r['bound'] + 1e-9 for r in reports), instance_id
