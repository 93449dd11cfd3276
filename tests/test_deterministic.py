import concurrent.futures
import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import harness_modules

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
def test_a_new_invalid_a_is_refused_after_a_valid_call(evaluate):
    """``A`` is checked once per memo entry, and a new object is a new entry."""
    a, f, z = random_instance(7)
    want = evaluate(a, f, z)
    nan = a.copy()
    nan[3, 2] = np.nan
    with pytest.raises(ValueError, match='A contains non-finite entries'):
        evaluate(nan, f, z)
    for wrong in (a.T, a[:-1], a[:, :-1]):
        with pytest.raises(ValueError, match='but its factors are 24x16'):
            evaluate(wrong, f, z)
    assert evaluate(a, f, z) == want


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
    Gram ``Sigma^2 - B^T B``, formed as the dense branch forms it from the code's own
    ``B``: the oracle of the Lanczos one, on the same Gram."""
    b = deterministic._rotated_basis_product(f, z)
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
        assert len(eigsh_calls) == 2  # the full Gram once and its trailing block once
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
        (150, 95, 5, 1), (150, 95, 10, 1),
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
    workloads = harness_modules.load('workloads')
    pool = workloads._det_pool()
    assert len(pool) == 27
    with experiments._one_blas_thread():  # a third of the time at two BLAS threads
        for instance_id in pool:
            a, z = workloads._det_arrays(instance_id)
            reports = workloads.det_reports(deterministic, a, svd(a), z, workloads.det_k(instance_id))
            assert all(r['lhs_gap'] <= r['bound'] + 1e-9 for r in reports), instance_id


def report_bits(a, f, z, k, order=(0, 1, 2), cold=False):
    """The three per-sample reports, in the benchmark's order, as hex strings, evaluated
    in ``order``; with ``cold``, each one after the memo is cleared."""
    calls = (lambda: sine_tangent_gap_bound(a, f, z, k, 'frobenius'),
             lambda: sine_tangent_gap_bound(a, f, z, k, 'spectral'),
             lambda: deflated_spectral_gap_bound(a, f, z, k))
    got = {}
    for index in order:
        if cold:
            deterministic._Sample.last = None
        got[index] = [v.hex() if isinstance(v, float) else v for v in calls[index]().as_dict().values()]
    return [got[index] for index in range(3)]


def counting(monkeypatch, namespace, name):
    """Route ``namespace.name`` through a wrapper; returns the list of its calls."""
    calls, original = [], getattr(namespace, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(namespace, name, wrapper)
    return calls


class TestSampleMemo:
    """The three reports of one ``(factors, Z)`` share one evaluation, and keep the bits
    of a cold one: each report evaluated after the memo is cleared."""

    def test_every_benchmark_instance_keeps_its_cold_bits(self, monkeypatch):
        workloads = harness_modules.load('workloads')
        angles = counting(monkeypatch, deterministic, 'angle_operators')
        bases = counting(monkeypatch, deterministic, 'orthonormal_basis')
        with experiments._one_blas_thread():
            for instance_id in workloads._det_pool():
                a, z = workloads._det_arrays(instance_id)
                f, k = svd(a), workloads.det_k(instance_id)
                cold = report_bits(a, f, z, k, cold=True)
                deterministic._Sample.last = None
                del angles[:], bases[:]
                assert report_bits(a, f, z, k) == cold, instance_id
                assert (len(angles), len(bases)) == (1, 1)
                deterministic._Sample.last = None
                assert report_bits(a, f, z, k, order=(2, 1, 0)) == cold, instance_id

    def test_an_in_place_edit_of_z_misses(self):
        a, f, z, k = spectrum_instance(150, 120, 'pool')
        before = report_bits(a, f, z, k)
        z[:, 0] *= 2.0
        after = report_bits(a, f, z, k)
        assert after != before
        assert after == report_bits(a, f, z, k, cold=True)

    def test_another_k_gets_its_cold_bits(self):
        a, f, z, _ = spectrum_instance(150, 120, 'pool')
        for k in (8, 3, 8):
            assert report_bits(a, f, z, k) == report_bits(a, f, z, k, cold=True)

    def test_a_rank_deficient_head_leaves_nothing_a_valid_call_reads(self):
        a, f, _ = random_instance(1)
        # the head block at k=3 has a zero row; at k=2 it has full row rank
        z = f.left()[:, [0, 1, 5, 6]] @ np.random.default_rng(3).standard_normal((4, 4))
        cold = report_bits(a, f, z, 2, cold=True)
        for _ in range(2):
            deterministic._Sample.last = None
            with pytest.raises(RankDeficiencyError):
                sine_tangent_gap_bound(a, f, z, 3, 'frobenius')
            assert report_bits(a, f, z, 2) == cold
            with pytest.raises(RankDeficiencyError):
                deflated_spectral_gap_bound(a, f, z, 3)

    def test_holds_no_live_reference_to_the_factors(self):
        a, f, z = random_instance(5)
        cold = report_bits(a, f, z, 3, cold=True)
        alive = weakref.ref(f)
        del f
        gc.collect()
        assert alive() is None and deterministic._Sample.last.factors() is None
        assert report_bits(a, svd(a), z, 3) == cold

    def test_threads_get_the_serial_bits(self):
        instances = [spectrum_instance(*SHAPES[shape], 'pool') for shape in ('tall', 'wide')]
        start = threading.Barrier(2)
        interval = sys.getswitchinterval()
        with experiments._one_blas_thread():
            serial = [report_bits(*instance, cold=True) for instance in instances]

            def run(instance):
                start.wait(timeout=60)
                return [report_bits(*instance) for _ in range(20)]

            sys.setswitchinterval(1e-6)
            try:
                with concurrent.futures.ThreadPoolExecutor(2) as pool:
                    results = list(pool.map(run, instances, timeout=300))
            finally:
                sys.setswitchinterval(interval)
        assert results == [[bits] * 20 for bits in serial]


class TestOneCheckOfA:
    """``A`` is keyed by identity and checked once per memo entry, not once per report;
    it is never read, so its check is the only thing a new ``A`` costs."""

    def test_the_three_reports_check_a_once(self, monkeypatch):
        a, f, z = random_instance(11)
        deterministic._Sample.last = None
        checks = counting(monkeypatch, deterministic, '_check_matrix')
        report_bits(a, f, z, 3)
        for which in ('frobenius', 'spectral'):
            residual_gap_squared(a, f, z, 3, which)
        assert len(checks) == 1
        report_bits(a.copy(), f, z, 3)  # another object is another key
        assert len(checks) == 2

    def test_an_in_place_edit_of_a_is_not_checked_again(self):
        a, f, z = random_instance(12)
        before = report_bits(a, f, z, 3)
        a[0, 0] = np.nan  # A is never read: the entry of (A, factors, Z) still serves it
        assert report_bits(a, f, z, 3) == before
        with pytest.raises(ValueError, match='A contains non-finite entries'):
            report_bits(a, f, z, 3, cold=True)

    def test_a_list_is_keyed_by_identity_too(self, monkeypatch):
        a, f, z = random_instance(13)
        cold = report_bits(a, f, z, 3, cold=True)
        checks = counting(monkeypatch, deterministic, '_check_matrix')
        listed = a.tolist()  # takes no weak reference, so the entry holds it
        assert report_bits(listed, f, z, 3) == report_bits(listed, f, z, 3) == cold
        assert len(checks) == 1
        report_bits(a.tolist(), f, z, 3)
        assert len(checks) == 2


class TestOneScanOfZ:
    """A memo hit compares ``Z`` with the entry's checked copy and does not check it again;
    ``Z`` is checked when an entry is made and once by ``angle_operators``."""

    def test_the_three_reports_check_z_twice(self, monkeypatch):
        a, f, z = random_instance(14)
        deterministic._Sample.last = None
        names, original = [], deterministic._as_matrix

        def wrapper(m, name='matrix'):
            names.append(name)
            return original(m, name)

        monkeypatch.setattr(deterministic, '_as_matrix', wrapper)
        report_bits(a, f, z, 3)
        assert names.count('Z') == 2

    @pytest.mark.parametrize('report', range(3))
    @pytest.mark.parametrize('edit, error', [
        (lambda z: np.where(np.arange(z.shape[1]) == 0, np.nan, z), '^Z contains non-finite entries$'),
        (lambda z: z[:, 0], r'^Z must be 2-D with at least one row and column, got shape \(24,\)$'),
        (lambda z: z[:-1], r'^matmul: .*\(size 23 is different from 24\)$'),
    ], ids=['nan', 'one-d', 'short'])
    def test_an_invalid_z_after_a_valid_call_is_refused(self, report, edit, error):
        a, f, z = random_instance(15)
        cold = report_bits(a, f, z, 3, cold=True)
        calls = (lambda m: sine_tangent_gap_bound(a, f, m, 3, 'frobenius'),
                 lambda m: sine_tangent_gap_bound(a, f, m, 3, 'spectral'),
                 lambda m: deflated_spectral_gap_bound(a, f, m, 3))
        with pytest.raises(ValueError, match=error):
            calls[report](edit(z))
        assert report_bits(a, f, z, 3) == cold


def test_as_dict_is_the_fields_without_a_deep_copy():
    """``as_dict`` gives ``dataclasses.asdict``'s items, in order, on all 81 reports of the
    benchmark's deterministic pool, and a new dict each time."""
    workloads = harness_modules.load('workloads')
    with experiments._one_blas_thread():
        for instance_id in workloads._det_pool():
            a, z = workloads._det_arrays(instance_id)
            f, k = svd(a), workloads.det_k(instance_id)
            for report in (sine_tangent_gap_bound(a, f, z, k, 'frobenius'),
                           sine_tangent_gap_bound(a, f, z, k, 'spectral'), deflated_spectral_gap_bound(a, f, z, k)):
                row = report.as_dict()
                assert list(row.items()) == list(dataclasses.asdict(report).items()), instance_id
                row['bound'] = None
                assert report.as_dict()['bound'] == report.bound


COMPLEMENT_RTOL = 1e-14


def null_space_completion(q):
    """``[q, null_space(q^T)]``: an orthogonal completion from another basis of ``range(q)^perp``."""
    return np.hstack([q, scipy.linalg.null_space(q.T)])


def bound_values(a, z, k):
    """``bound_sine``, ``bound_tangent`` and ``bound`` of the three per-sample reports."""
    f = svd(a)
    reports = [sine_tangent_gap_bound(a, f, z, k, 'frobenius'), sine_tangent_gap_bound(a, f, z, k, 'spectral'),
               deflated_spectral_gap_bound(a, f, z, k)]
    return np.array([(r.bound_sine, r.bound_tangent, r.bound) for r in reports])


@pytest.mark.parametrize('seed', range(20))
def test_bounds_do_not_depend_on_the_basis_of_the_complement(monkeypatch, seed):
    """For ``Z = A G`` the complement's rows of ``U^T Z`` are round-off, and the bounds keep
    their bits under another orthogonal completion of a tall ``U``; for a general ``Z`` they
    agree to ``COMPLEMENT_RTOL`` (1.0e-15 was the largest relative difference over 40 instances)."""
    rng = np.random.default_rng([35, seed])
    rows = int(rng.integers(20, 140))
    cols = int(rng.integers(5, rows))
    p = int(rng.integers(4, min(cols, 30) + 1))
    k = int(rng.integers(1, p - 1))
    a = rng.standard_normal((rows, cols)) * np.geomspace(1.0, 1e-3, cols)
    in_range, general = a @ rng.standard_normal((cols, p)), rng.standard_normal((rows, p))
    shipped = [bound_values(a, z, k) for z in (in_range, general)]
    monkeypatch.setattr(SvdFactors, '_complete', staticmethod(null_space_completion))
    reference = [bound_values(a, z, k) for z in (in_range, general)]
    assert shipped[0].tobytes() == reference[0].tobytes()
    np.testing.assert_allclose(shipped[1], reference[1], rtol=COMPLEMENT_RTOL, atol=0.0)
