import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import sketchbound
from sketchbound import experiments, sketching
from sketchbound.deterministic import angle_operators
from sketchbound.experiments import (
    THEOREM_VARIANTS,
    VARIANTS,
    SweepConfig,
    SweepRow,
    emit,
    empirical_error,
    run_sweep,
    synthetic_matrix,
)
from sketchbound.linalg import RankDeficiencyError, SvdFactors, orthonormal_basis, svd
from sketchbound.rsvd import SpectrumProfile, frobenius_bound, spectral_bound
from sketchbound.sketching import (
    GaussianSketch,
    RsvdSketch,
    SeededStream,
    rsvd_distribution,
    rsvd_sketch,
    standard_gaussian,
)


class TestSyntheticMatrix:
    def test_spectrum_values(self):
        _, f = synthetic_matrix(50, seed=0)
        assert np.all(f.sigma[:10] == 1.0)
        assert f.sigma[10] == pytest.approx(2.0**-0.5)
        assert f.sigma[11] == pytest.approx(3.0**-0.5)
        assert f.sigma[-1] == pytest.approx((50 - 9) ** -0.5)

    def test_factors_are_orthogonal(self):
        n = 80
        a, f = synthetic_matrix(n, seed=1)
        # every singular value is positive, so A^T U = V Sigma gives V back
        for q in (f.left(), a.T @ f.left() / f.sigma):
            assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-12 * n

    def test_factors_match_an_independent_svd(self):
        a, f = synthetic_matrix(40, seed=2)
        recomputed = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(recomputed - f.sigma)) < 1e-12

    def test_deterministic(self):
        a1, _ = synthetic_matrix(30, seed=5)
        a2, _ = synthetic_matrix(30, seed=5)
        assert np.array_equal(a1, a2)
        a3, _ = synthetic_matrix(30, seed=6)
        assert not np.array_equal(a1, a3)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            synthetic_matrix(10, seed=0)

    @pytest.mark.parametrize('n', (11, 60, 300))
    def test_haar_factor_matches_numpy_qr(self, n):
        # the dense route's factor bits: the sign-fixed Q of numpy's QR
        stream = SeededStream(8, 1)
        q, r = np.linalg.qr(standard_gaussian(n, n, stream))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        assert np.array_equal(experiments._haar_orthogonal(n, stream), q * signs)

    def test_haar_factors_are_built_at_one_blas_thread(self, monkeypatch, blas_threads):
        seen = []
        qr = np.linalg.qr

        def recording(a, *args, **kwargs):
            seen.append([get() for get, _ in blas_threads])
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, 'qr', recording)
        synthetic_matrix(40, seed=3)
        assert seen == [[1] * len(blas_threads)] * 2
        assert [get() for get, _ in blas_threads] == [2] * len(blas_threads)

    def test_factors_do_not_depend_on_the_callers_blas_threads(self):
        # the dense route: the left-basis problem draws nothing, so its factors
        # could not depend on BLAS threads
        script = (
            'import hashlib\n'
            'from sketchbound import experiments\n'
            'a, factors = experiments.synthetic_matrix(1000, 5)\n'
            'print(hashlib.sha256(a.tobytes() + factors.left().tobytes()).hexdigest())\n'
        )
        hashes = {fresh_interpreter(script, (), pinning) for pinning in ({}, {'OPENBLAS_NUM_THREADS': '1'})}
        assert len(hashes) == 1

    def test_left_basis_problem_is_the_diagonal_spectrum(self, monkeypatch):
        _, f = synthetic_matrix(40, seed=3)

        def refused(self):
            raise AssertionError('a stream was read')

        # no stream enters the problem
        monkeypatch.setattr(SeededStream, 'generator', refused)
        matrix, g = synthetic_matrix(40)
        assert scipy.sparse.issparse(matrix)
        dense = matrix.toarray()
        assert np.array_equal(dense, np.diag(f.sigma))
        assert np.array_equal(np.signbit(dense), np.zeros((40, 40), dtype=bool))
        assert np.array_equal(g.sigma, f.sigma)
        assert np.array_equal(g.left(), np.eye(40)) and g.cols == 40
        assert not g.left().flags.writeable


class TestDiagonalProblemLaw:
    """Trials drawn from ``diag(sigma)`` have the residual law of draws through
    the dense Haar ``A``: ``V^T G`` is standard Gaussian for any fixed orthogonal ``V``."""

    TRIALS = 300
    CASES = {12: (3, 8), 30: (5,)}  # p -> the ks evaluated on its sketches

    @pytest.mark.parametrize('q', (0, 1, 2))
    def test_residual_means_match_the_dense_haar_problem(self, q):
        norms = ('spectral', 'frobenius')
        a, dense = synthetic_matrix(60, 61)
        sigma = dense.sigma

        def through_a(t):
            # the reference side: A's own sketch, rotated into its left singular basis
            w = dense.left().T @ rsvd_sketch(a, q, p, SeededStream(2000 + q, t))
            return w, w

        for p, ks in self.CASES.items():
            draw = experiments._rsvd_draw(np.diag(sigma), RsvdSketch(q=q, p=p),
                                          functools.partial(SeededStream, 1000 + q))
            got = experiments._collect_residuals(sigma, draw, ks, self.TRIALS, norms)
            want = experiments._collect_residuals(sigma, through_a, ks, self.TRIALS, norms)
            for k in ks:
                assert got[k][1] == want[k][1] == 0
                for which in norms:
                    # full and tail residuals, each within 4 combined standard errors
                    x, y = got[k][0][which], want[k][0][which]
                    se = np.hypot(np.std(x, axis=0, ddof=1), np.std(y, axis=0, ddof=1)) / math.sqrt(self.TRIALS)
                    assert np.all(se > 0)
                    assert np.all(np.abs(np.mean(x, axis=0) - np.mean(y, axis=0)) <= 4 * se), (p, k, which)


class TestGramTopEigenvalue:
    @staticmethod
    def problem(m, seed):
        rng = np.random.default_rng(seed)
        diag_sq = np.sort(rng.uniform(0.1, 1.0, m))[::-1] ** 2
        b = rng.standard_normal((6, m)) * np.sqrt(diag_sq) / 3
        return diag_sq, b

    def test_arpack_error_falls_back_to_dense(self, monkeypatch):
        m = experiments._DENSE_GRAM_LIMIT + 1
        diag_sq, b = self.problem(m, 30)

        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', failing)
        dense = float(np.linalg.eigvalsh(np.diag(diag_sq) - b.T @ b)[-1])
        assert experiments._gram_top(diag_sq, b, experiments._DENSE_GRAM_LIMIT) == max(dense, 0.0)

    def test_arpack_and_dense_branches_agree_above_the_limit(self, monkeypatch):
        m = experiments._DENSE_GRAM_LIMIT + 1
        diag_sq, b = self.problem(m, 31)
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def counting(*args, **kwargs):
            calls.append(args)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', counting)
        arpack = experiments._gram_top(diag_sq, b, experiments._DENSE_GRAM_LIMIT)
        monkeypatch.setattr(experiments, '_DENSE_GRAM_LIMIT', m)
        dense = experiments._gram_top(diag_sq, b, experiments._DENSE_GRAM_LIMIT)
        assert len(calls) == 1
        assert arpack == pytest.approx(dense, rel=1e-9)

    @pytest.mark.parametrize('seed', (31, 32, 33))
    @pytest.mark.parametrize('log2_scale', (-30, -40, 200))
    def test_arpack_branch_is_scale_invariant(self, seed, log2_scale):
        # sigma scaled by 2^-40 once left the unnormalized solve 4e-3 to 6e-3 low
        diag_sq, b = self.problem(experiments._DENSE_GRAM_LIMIT + 1, seed)
        diag_sq, b = np.ldexp(diag_sq, 2 * log2_scale), np.ldexp(b, log2_scale)
        dense = float(np.linalg.eigvalsh(np.diag(diag_sq) - b.T @ b)[-1])
        top = experiments._gram_top(diag_sq, b, experiments._DENSE_GRAM_LIMIT)
        assert top == pytest.approx(dense, rel=1e-9, abs=0)

    @pytest.mark.parametrize('log2_scale', (-250, 250))
    def test_arpack_branch_commutes_with_powers_of_two(self, log2_scale):
        diag_sq, b = self.problem(experiments._DENSE_GRAM_LIMIT + 1, 31)
        scaled = experiments._gram_top(np.ldexp(diag_sq, 2 * log2_scale), np.ldexp(b, log2_scale),
                                       experiments._DENSE_GRAM_LIMIT)
        top = experiments._gram_top(diag_sq, b, experiments._DENSE_GRAM_LIMIT)
        assert scaled == math.ldexp(top, 2 * log2_scale)


def low_rank_factors(rows, cols, rank, seed=0):
    """Haar factors of a rows x cols matrix with the benchmark's ``exp(-j/20)``
    head of ``rank`` values, then exact zeros."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    sigma = np.zeros(min(rows, cols))
    sigma[:rank] = np.exp(-np.arange(rank) / 20.0)
    return SvdFactors(u[:, :sigma.size], sigma, cols)


class TestExplicitResidualNorm:
    """Above ``_DENSE_RESIDUAL_LIMIT`` columns the explicit spectral residual is
    ``||R v||`` for the Lanczos Ritz vector ``v`` of ``R^T R``, after ``R`` is
    normalized by a power of two; below it, a dense SVD."""

    @staticmethod
    def dense_and_lanczos(monkeypatch, evaluate):
        """``evaluate()`` on the dense path, then on the Lanczos path (checking that it ran)."""
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def counting(*args, **kwargs):
            calls.append(args)
            return eigsh(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(experiments, '_DENSE_RESIDUAL_LIMIT', math.inf)
            dense = evaluate()
        monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', counting)
        lanczos = evaluate()
        assert calls
        return dense, lanczos

    @staticmethod
    def roundoff_spectral(factors, sketch, ks):
        """Full and tail spectral residuals of one trial whose sketch captures range(A)."""
        if isinstance(sketch, RsvdSketch):
            draw = experiments._rsvd_draw(scipy.sparse.diags_array(factors.sigma), sketch,
                                          functools.partial(SeededStream, 11))
        else:
            draw = experiments._gaussian_draw(factors, sketch, functools.partial(SeededStream, 11))
        q, b = experiments._sketch_basis(draw(0)[0], factors.sigma)
        return [experiments._explicit_residual_norm(q, b, factors.sigma, k, 'spectral') for k in ks]

    @pytest.mark.parametrize('q', (0, 1, 2))
    @pytest.mark.parametrize('shape', [
        (experiments._DENSE_RESIDUAL_LIMIT + 30, experiments._DENSE_RESIDUAL_LIMIT + 10),
        (experiments._DENSE_RESIDUAL_LIMIT + 10, experiments._DENSE_RESIDUAL_LIMIT + 30),
        (experiments._DENSE_RESIDUAL_LIMIT + 10,) * 2,
        (500, 400), (400, 500), (400, 400),
    ])
    def test_agrees_with_the_dense_norm_on_roundoff_residuals(self, monkeypatch, shape, q):
        factors = low_rank_factors(*shape, rank=12, seed=sum(shape) + q)
        ks = (0, 5)
        assert all(factors.sigma.size - k > experiments._DENSE_RESIDUAL_LIMIT for k in ks)
        dense, lanczos = self.dense_and_lanczos(
            monkeypatch, lambda: self.roundoff_spectral(factors, RsvdSketch(q=q, p=16), ks))
        assert max(dense) < 1e-13
        assert lanczos == pytest.approx(dense, rel=1e-9, abs=0)

    def test_gaussian_sketch_residual_with_more_rows_than_columns(self, monkeypatch):
        rows, cols, rank, p = 260, experiments._DENSE_RESIDUAL_LIMIT + 20, 8, 10
        factors = low_rank_factors(rows, cols, rank, seed=7)
        # a covariance on range(A), so p >= rank columns capture it
        head = factors.left_head(rank)
        sketch = GaussianSketch.from_moments(np.zeros((rows, p)), head @ head.T)
        dense, lanczos = self.dense_and_lanczos(monkeypatch, lambda: self.roundoff_spectral(factors, sketch, (0, 3)))
        # the sampled root of a rank-deficient covariance leaves a residual under the kernel's noise floor
        assert max(dense) ** 2 <= 1e-12 * np.sum(factors.sigma**2)
        assert lanczos == pytest.approx(dense, rel=1e-9, abs=0)

    @staticmethod
    def given_residual(r):
        """``(q, b, sigma)`` whose explicit residual at ``k = 0`` is ``r``."""
        return np.eye(r.shape[0]), -r, np.zeros(r.shape[1])

    @staticmethod
    def clustered_residual(m, log2_scale, seed=0):
        """An m x m residual at round-off size whose singular values cluster within 1% of the top one."""
        rng = np.random.default_rng(seed)
        left, _ = np.linalg.qr(rng.standard_normal((m, m)))
        right, _ = np.linalg.qr(rng.standard_normal((m, m)))
        s = np.sort(1.0 - 1e-2 * rng.uniform(size=m))[::-1]
        return np.ldexp((left * s) @ right.T, log2_scale)

    def test_arpack_error_falls_back_to_dense(self, monkeypatch):
        r = self.clustered_residual(experiments._DENSE_RESIDUAL_LIMIT + 1, -53)

        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', failing)
        assert experiments._explicit_residual_norm(*self.given_residual(r), 0, 'spectral') == np.linalg.norm(r, 2)

    @pytest.mark.parametrize('log2_scale', (-53, -106, -500))
    def test_clustered_roundoff_residual(self, log2_scale):
        # unnormalized (theta below eps^(2/3) in R^T R), each came back 1.2e-4 low
        r = self.clustered_residual(400, log2_scale)
        got = experiments._explicit_residual_norm(*self.given_residual(r), 0, 'spectral')
        assert got == pytest.approx(np.linalg.norm(r, 2), rel=1e-9, abs=0)

    @pytest.mark.parametrize('log2_scale', (-500, 500))
    def test_commutes_with_powers_of_two(self, log2_scale):
        factors = low_rank_factors(150, 130, 12, seed=3)
        w = RsvdSketch(q=1, p=16).draw(scipy.sparse.diags_array(factors.sigma), SeededStream(3))
        q, b = experiments._sketch_basis(w, factors.sigma)
        c = math.ldexp(1.0, log2_scale)
        for k in (0, 5):
            value = experiments._explicit_residual_norm(q, b, factors.sigma, k, 'spectral')
            scaled = experiments._explicit_residual_norm(q, c * b, c * factors.sigma, k, 'spectral')
            assert value > 0 and scaled == c * value

    def test_small_residuals_stay_dense(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError('Lanczos below the limit')

        monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', refused)
        r = self.clustered_residual(experiments._DENSE_RESIDUAL_LIMIT, -53)
        assert experiments._explicit_residual_norm(*self.given_residual(r), 0, 'spectral') == np.linalg.norm(r, 2)


class TestLanczosTurns:
    """One ARPACK solve runs at a time, whichever thread calls it."""

    @staticmethod
    def solves():
        """A Gram solve above ``_DENSE_GRAM_LIMIT`` and an explicit residual above ``_DENSE_RESIDUAL_LIMIT``."""
        gram = TestGramTopEigenvalue.problem(experiments._DENSE_GRAM_LIMIT + 1, 34)
        r = TestExplicitResidualNorm.clustered_residual(experiments._DENSE_RESIDUAL_LIMIT + 10, -53)
        resid = TestExplicitResidualNorm.given_residual(r)
        return [lambda: experiments._gram_top(*gram, experiments._DENSE_GRAM_LIMIT),
                lambda: experiments._explicit_residual_norm(*resid, 0, 'spectral')]

    def test_threads_take_turns_and_keep_the_serial_bits(self, monkeypatch):
        solves = self.solves()
        serial = [solve() for solve in solves]
        eigsh = scipy.sparse.linalg.eigsh
        inside, overlaps, guard = [], [], threading.Lock()

        def exclusive(*args, **kwargs):
            with guard:
                inside.append(None)
                overlaps.append(len(inside))
            try:
                time.sleep(0.01)  # widen the window another solve could enter
                return eigsh(*args, **kwargs)
            finally:
                with guard:
                    inside.pop()

        monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', exclusive)
        start = threading.Barrier(2)

        def run(order):
            start.wait()
            return [solves[i]() for i in order]

        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            results = list(pool.map(run, ([0, 1, 0, 1], [1, 0, 1, 0])))
        assert len(overlaps) == 8 and max(overlaps) == 1
        assert results == [serial * 2, serial[::-1] * 2]

    def test_a_failed_solve_releases_the_turn(self, monkeypatch):
        gram, resid = self.solves()
        serial = resid()
        with monkeypatch.context() as patch:
            patch.setattr(experiments, '_DENSE_GRAM_LIMIT', math.inf)
            dense = gram()
        eigsh = scipy.sparse.linalg.eigsh
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise scipy.sparse.linalg.ArpackError(-9999)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(experiments.scipy.sparse.linalg, 'eigsh', first_fails)
        assert gram() == dense
        assert not experiments._LANCZOS_LOCK.locked()
        results = []
        # a daemon thread, so a solve left waiting for the turn cannot hang the test run
        thread = threading.Thread(target=lambda: results.append(resid()), daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), 'the solve after an ArpackError never got its turn'
        assert results == [serial] and len(calls) == 2


def rank_deficient_problem(seed=0, n=20, m=8, rank=4):
    """An n x m matrix whose singular values are the first ``rank`` of
    3, 2, 1, 0.5, then exact zeros."""
    rng = np.random.default_rng(seed)
    qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qv, _ = np.linalg.qr(rng.standard_normal((m, m)))
    r = min(n, m)
    sigma = np.zeros(r)
    sigma[:rank] = [3.0, 2.0, 1.0, 0.5][:rank]
    a = (qu[:, :r] * sigma) @ qv[:, :r].T
    return a, SvdFactors(qu[:, :r], sigma, m)


def trial_residuals(w, sigma, k, norms):
    """``{norm: (full, tail)}`` of one rotated sketch, by the kernel's one residual rule."""
    q, b = experiments._sketch_basis(w, sigma)
    full, tail = (experiments._residual_norms(q, b, sigma, j, norms) for j in (0, k))
    return {which: (full[which], tail[which]) for which in norms}


class TestRoundOffCertificate:
    """A residual Gram ``G`` is PSD, so ``lambda_max(G) <= tr(G)``: a
    Frobenius square at most half the noise floor certifies that the spectral
    value is read off the explicit residual, without a Gram eigensolve."""

    @pytest.fixture
    def spies(self, monkeypatch):
        gram_calls, explicit_calls = [], []
        gram, explicit = experiments._gram_top, experiments._explicit_residual_norm

        def counting_gram(diag_sq, b, dense_limit):
            value = gram(diag_sq, b, dense_limit)
            gram_calls.append(value)
            return value

        def recording_explicit(q, b, sigma, k, which):
            explicit_calls.append((q, b, sigma, k, which))
            return explicit(q, b, sigma, k, which)

        monkeypatch.setattr(experiments, '_gram_top', counting_gram)
        monkeypatch.setattr(experiments, '_explicit_residual_norm', recording_explicit)
        return gram_calls, explicit_calls, gram, explicit

    @pytest.mark.parametrize('q', [0, 1, 2])
    @pytest.mark.parametrize('rows, cols', [
        (40, 25), (25, 40), (30, 30),
        (experiments._DENSE_RESIDUAL_LIMIT + 20, experiments._DENSE_RESIDUAL_LIMIT + 10),
        (experiments._DENSE_GRAM_LIMIT + 20, experiments._DENSE_GRAM_LIMIT + 10),
    ])
    def test_p_at_or_above_the_rank_skips_the_eigensolve(self, spies, rows, cols, q):
        gram_calls, explicit_calls, gram, explicit = spies
        rank, k = 4, 3
        _, factors = rank_deficient_problem(rows + cols, rows, cols, rank)
        noise_floor = 1e-12 * float(np.sum(factors.sigma**2))
        for p in (rank, rank + 2):
            w = RsvdSketch(q=q, p=p).draw(np.diag(factors.sigma), SeededStream(q, p))
            del explicit_calls[:]
            out = trial_residuals(w, factors.sigma, k, ('spectral', 'frobenius'))
            assert gram_calls == []
            # one explicit residual per norm and side: the full ones, then the tails
            assert [args[4] for args in explicit_calls] == ['spectral', 'frobenius'] * 2
            assert [args[3] for args in explicit_calls] == [0, 0, k, k]
            for which, calls in (('spectral', explicit_calls[::2]), ('frobenius', explicit_calls[1::2])):
                assert out[which] == tuple(explicit(*args) for args in calls)
            for _, b, sigma, j, _ in explicit_calls[::2]:
                assert gram(sigma[j:]**2, b[:, j:], experiments._DENSE_GRAM_LIMIT) <= noise_floor

    def test_a_trace_just_above_half_the_floor_runs_the_eigensolve(self, spies):
        gram_calls, explicit_calls, _, explicit = spies
        rank = 6
        # the sketch spans the first rank coordinates exactly, so both
        # residuals are t e_rank with t^2 at 0.75 of the noise floor
        t_sq = 0.75e-12 * rank / (1 - 0.75e-12)
        sigma = np.append(np.ones(rank), math.sqrt(t_sq))
        noise_floor = 1e-12 * float(np.sum(sigma**2))
        w = np.zeros((rank + 1, rank))
        w[:rank] = np.random.default_rng(5).standard_normal((rank, rank))
        out = trial_residuals(w, sigma, 2, ('spectral',))
        assert len(gram_calls) == 2
        assert all(0.5 * noise_floor < value <= noise_floor for value in gram_calls)
        assert out['spectral'] == tuple(explicit(*args) for args in explicit_calls)
        assert out['spectral'] == pytest.approx((math.sqrt(t_sq),) * 2, rel=1e-6)


class TestEmpiricalError:
    def test_captured_range_gives_zero(self):
        _, f = rank_deficient_problem()
        stats = empirical_error(f, RsvdSketch(q=0, p=6), k=4, trials=10, seed=3)
        assert abs(stats.mean) < 1e-10
        assert stats.excluded_trials == 0

    def test_general_metric_nonnegative_per_trial(self):
        _, f = synthetic_matrix(40, seed=7)
        for which in ('spectral', 'frobenius'):
            stats = empirical_error(f, RsvdSketch(q=0, p=10), k=4, trials=25,
                                    norm=which, metric='general', seed=8)
            assert stats.values.dtype == np.float64 and stats.values.size == stats.trials == 25
            assert np.all(stats.values >= -1e-12)

    def test_old_metric_uses_tail_norm(self):
        a, f = synthetic_matrix(40, seed=9)
        stats = empirical_error(f, RsvdSketch(q=0, p=12), k=3, trials=5,
                                norm='spectral', metric='old', seed=10)
        # trial t draws from the sweep's key of (q, p, t) = (0, 12, t), through
        # A V = U Sigma, whose sketch rotates to the trial's Sigma G
        v = np.linalg.svd(a, full_matrices=False)[2].T
        full = []
        for t in range(5):
            q = orthonormal_basis(rsvd_sketch(a @ v, 0, 12, SeededStream(10, 1 << 63 | 12 << 24 | t)))
            full.append(np.linalg.norm(a - q @ (q.T @ a), 2))
        assert stats.values == pytest.approx(np.array(full) - f.sigma[3], abs=1e-10)

    def test_trials_do_not_reuse_the_synthetic_matrix_streams(self, monkeypatch):
        n, p, seed = 30, 8, 5
        _, f = synthetic_matrix(n, seed)
        draws = []
        gaussian = sketching.standard_gaussian

        def recording(rows, cols, stream):
            draws.append((stream, gaussian(rows, cols, stream)))
            return draws[-1][1]

        monkeypatch.setattr(sketching, 'standard_gaussian', recording)
        empirical_error(f, RsvdSketch(q=1, p=p), 3, 2, seed=seed)
        streams = [stream for stream, _ in draws]
        assert streams == [experiments._trial_stream(seed, 1, p, t) for t in range(2)]
        assert streams == [SeededStream(seed, 1 << 63 | 1 << 48 | p << 24 | t) for t in range(2)]
        # nor are their draws the first n p normals of the matrices factored into U and V
        for (_, g), matrix_index in zip(draws, (0, 1)):
            shared = standard_gaussian(n, n, SeededStream(seed, matrix_index)).ravel()[:n * p]
            assert not np.array_equal(g, shared.reshape(n, p))

    def test_gaussian_sketch_reads_the_q0_keys(self, monkeypatch):
        _, f = synthetic_matrix(30, seed=6)
        streams = []
        gaussian = sketching.standard_gaussian

        def recording(rows, cols, stream):
            streams.append(stream)
            return gaussian(rows, cols, stream)

        monkeypatch.setattr(sketching, 'standard_gaussian', recording)
        empirical_error(f, rsvd_distribution(f, 2, 9), 3, 3, seed=6)
        assert streams == [experiments._trial_stream(6, 0, 9, t) for t in range(3)]

    @pytest.mark.parametrize('q', (0, 1, 2))
    def test_equals_the_sweep_row_of_its_cell(self, q):
        config = small_config(n=120, k_list=(3, 8), oversampling_list=(2, 9), q_list=(q,), trials=5, seed=11)
        _, f = synthetic_matrix(config.n)
        for metric in experiments.METRICS:
            rows = run_sweep(dataclasses.replace(config, metric=metric))
            assert len(rows) == 2 * 2 * 2
            for row in rows:
                stats = empirical_error(f, RsvdSketch(q=row.q, p=row.p), row.k, config.trials,
                                        row.norm, metric, seed=config.seed)
                assert (stats.mean, stats.std) == (row.empirical_mean, row.empirical_std)

    def test_bytes_do_not_depend_on_the_callers_blas_threads(self):
        script = (
            'import hashlib\n'
            'from sketchbound import experiments\n'
            'from sketchbound.sketching import RsvdSketch\n'
            '_, factors = experiments.synthetic_matrix(400, 3)\n'
            'digest = hashlib.sha256()\n'
            'for k in (5, 20):\n'
            '    for q in (0, 1, 2):\n'
            '        for norm in experiments.NORMS:\n'
            '            sketch = RsvdSketch(q=q, p=k + 10)\n'
            '            digest.update(experiments.empirical_error(factors, sketch, k, 3, norm, seed=7).values)\n'
            'print(digest.hexdigest())\n'
        )
        hashes = {fresh_interpreter(script, (), pinning) for pinning in ({}, {'OPENBLAS_NUM_THREADS': '1'})}
        assert len(hashes) == 1

    @pytest.mark.parametrize('trials, q, p, seed, grid', [
        (0, 0, 5, 0, dict(trials=0)),
        (2**24 + 1, 0, 5, 0, dict(trials=2**24 + 1)),
        (4, 2**15, 5, 0, dict(q_list=(2**15,))),
        (4, 0, 2**24, 0, dict(oversampling_list=(2**24 - 3,))),
        (2.0, 0, 5, 0, dict(trials=2.0)),
        (4, 0, 5, 1.5, dict(seed=1.5)),
        (True, 0, 5, 0, dict(trials=True)),
        (4, 0, 5, True, dict(seed=True)),
    ])
    def test_rejects_keys_outside_the_trial_fields(self, monkeypatch, trials, q, p, seed, grid):
        _, f = synthetic_matrix(20)

        def refused(*args, **kwargs):
            raise AssertionError('trials ran')

        monkeypatch.setattr(experiments, '_collect_residuals', refused)
        with pytest.raises(ValueError) as sweep_error:
            small_config(**grid)
        with pytest.raises(ValueError, match='must be') as error:
            empirical_error(f, RsvdSketch(q=q, p=p), 2, trials, seed=seed)
        assert str(error.value) == str(sweep_error.value)

    def test_rank_deficient_head_excludes_every_trial(self):
        a, f = rank_deficient_problem()
        k, p = 5, 7  # the head block has a zero row: rank(A) = 4 < k
        for which in ('spectral', 'frobenius'):
            with pytest.raises(ValueError, match=r'^need rank\(A\) >= k=5: sigma_k=0\.000e\+00'):
                empirical_error(f, RsvdSketch(q=0, p=p), k, trials=6, norm=which, seed=3)
        with pytest.raises(RankDeficiencyError):
            angle_operators(f, rsvd_sketch(a, 0, p, SeededStream(3, 0)), k)
        # the request rule accepts this cell, but its q=5 sketch grades the head rows
        # below the head rank check's relative cutoff, so every trial is excluded
        graded = synthetic_matrix(200)[1]
        for which in ('spectral', 'frobenius'):
            stats = empirical_error(graded, RsvdSketch(q=5, p=154), 150, trials=3, norm=which, seed=3)
            assert (stats.trials, stats.excluded_trials) == (0, 3)

    def test_rsvd_trials_read_the_spectrum_alone(self):
        # the same spectrum with U = V = I gives the same values, bit for bit
        a, _ = synthetic_matrix(50, seed=23)
        f = svd(a)
        g = SvdFactors(np.eye(50), f.sigma, 50)
        for q in (0, 2):
            for which in ('spectral', 'frobenius'):
                got, want = (empirical_error(h, RsvdSketch(q=q, p=12), 4, 5, which, seed=24) for h in (f, g))
                assert np.array_equal(got.values, want.values)

    def test_rsvd_trials_never_complete_the_left_factor(self, monkeypatch):
        a = np.random.default_rng(21).standard_normal((30, 12))
        f = svd(a)  # tall: U is 30x12, so left() would append a null space

        def left(self):
            raise AssertionError('the RSVD path completed the left factor')

        monkeypatch.setattr(SvdFactors, 'left', left)
        for which in ('spectral', 'frobenius'):
            stats = empirical_error(f, RsvdSketch(q=1, p=8), 3, trials=4, norm=which, seed=22)
            assert stats.trials == 4

    def test_deterministic_given_seed(self):
        _, f = synthetic_matrix(30, seed=11)
        kwargs = dict(norm='frobenius', metric='general', seed=12)
        s1 = empirical_error(f, RsvdSketch(q=1, p=8), 3, 10, **kwargs)
        s2 = empirical_error(f, RsvdSketch(q=1, p=8), 3, 10, **kwargs)
        assert s1.mean == s2.mean and s1.std == s2.std

    def test_gaussian_sketch_with_mean(self):
        a, f = synthetic_matrix(25, seed=13)
        mean = 0.01 * np.ones((25, 6))
        sketch = GaussianSketch.from_moments(mean, a @ a.T)
        stats = empirical_error(f, sketch, k=2, trials=8, seed=14)
        assert stats.trials == 8
        assert np.isfinite(stats.mean)

    def test_gaussian_sketch_of_another_height_is_refused_before_any_trial(self, monkeypatch):
        _, f = synthetic_matrix(40, seed=13)
        sketch = GaussianSketch.from_moments(np.zeros((30, 8)), np.eye(30))
        monkeypatch.setattr(experiments, '_collect_residuals', lambda *args: pytest.fail('a trial ran'))
        with pytest.raises(ValueError, match='sketch has 30 rows, but A has 40'):
            empirical_error(f, sketch, k=3, trials=4, seed=14)

    def test_bound_domination_spot_check(self):
        _, f = synthetic_matrix(60, seed=15)
        k, p = 4, 12
        stats = empirical_error(f, RsvdSketch(q=0, p=p), k, trials=60,
                                norm='spectral', metric='general', seed=16)
        bound = spectral_bound(SpectrumProfile.from_spectrum(f.sigma, k, p, 0)).bound
        assert stats.mean <= bound + 3 * stats.standard_error()

    def test_matches_distribution_sampling_route(self):
        _, f = synthetic_matrix(30, seed=17)
        k, p = 3, 9
        direct = empirical_error(f, RsvdSketch(q=1, p=p), k, trials=50,
                                 norm='frobenius', seed=18)
        dist = rsvd_distribution(f, 1, p)
        via_moments = empirical_error(f, dist, k, trials=50, norm='frobenius', seed=19)
        pooled = np.hypot(direct.standard_error(), via_moments.standard_error())
        assert abs(direct.mean - via_moments.mean) < 5 * pooled

    def test_validation(self):
        _, f = synthetic_matrix(20, seed=20)
        with pytest.raises(ValueError):
            empirical_error(f, RsvdSketch(q=0, p=5), 2, 0)
        with pytest.raises(ValueError):
            empirical_error(f, RsvdSketch(q=0, p=5), 2, 5, norm='nuclear')
        with pytest.raises(ValueError):
            empirical_error(f, RsvdSketch(q=0, p=5), 2, 5, metric='weird')


class TestRsvdSketchBinding:
    """Every RSVD trial draws through ``sketching.rsvd_sketch``, the binding a
    profiler wraps to time the sketches: once per trial, from an r x r matrix."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        shapes = []
        draw = sketching.rsvd_sketch

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return draw(a, *args, **kwargs)

        monkeypatch.setattr(sketching, 'rsvd_sketch', counting)
        return shapes

    def test_run_sweep_draws_once_per_trial(self, shapes):
        config = small_config(n=50, k_list=(3, 5), oversampling_list=(2, 4), q_list=(0, 1), trials=3)
        run_sweep(config)
        # the ks share each (q, p): p is 5, 7 for k=3 and 7, 9 for k=5
        assert shapes == [(50, 50)] * (2 * 3 * config.trials)

    @pytest.mark.parametrize('shape', [(30, 12), (12, 30), (20, 20)])
    def test_empirical_error_draws_once_per_trial(self, shapes, shape):
        f = svd(np.random.default_rng(25).standard_normal(shape))
        empirical_error(f, RsvdSketch(q=1, p=6), 3, 4, seed=26)
        assert shapes == [(min(shape),) * 2] * 4


class TestSparseTrialMatrix:
    """Trials sketch through a sparse ``diag(sigma)``: every off-diagonal term of
    a dense diagonal product is an exact zero, so both give the same bits."""

    @staticmethod
    def _sigma():
        sigma = np.sort(np.random.default_rng(27).uniform(0.0, 2.0, 60))[::-1]
        sigma[-7:] = 0.0  # exact zeros, whose products keep their signs either way
        return sigma

    @pytest.mark.parametrize('q', range(4))
    def test_sparse_and_dense_diagonals_draw_the_same_bits(self, q):
        sigma = self._sigma()
        sparse, dense = scipy.sparse.diags_array(sigma), np.diag(sigma)
        for p in (3, 17):
            stream = functools.partial(SeededStream, 28 + q)
            got = experiments._rsvd_draw(sparse, RsvdSketch(q=q, p=p), stream)
            want = experiments._rsvd_draw(dense, RsvdSketch(q=q, p=p), stream)
            for t in range(3):
                assert got(t)[0].tobytes() == want(t)[0].tobytes()
            z = rsvd_sketch(sparse, q, p, SeededStream(29, q))
            assert isinstance(z, np.ndarray)
            assert z.tobytes() == rsvd_sketch(dense, q, p, SeededStream(29, q)).tobytes()

    def test_one_sweep_cell_allocates_no_n_by_n_array(self):
        n = 3000
        # the synthetic spectrum, built without synthetic_matrix's dense diag(sigma)
        sigma = np.concatenate([np.ones(10), np.arange(2, n - 8, dtype=float) ** -0.5])
        tracemalloc.start()
        try:
            results = experiments._sweep_trials(sigma, [(5, 0, 15), (5, 2, 15)], 2, ('frobenius',), 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(excluded == 0 for _, excluded in results)
        # a dense diag(sigma) alone is n * n * 8 bytes, 72 MB
        assert peak < n * n * 8 / 4, peak


class TestSweepMemory:
    """A sweep reads its problem through the spectrum alone, so nothing on its
    path, bounds or trials, holds an n x n array."""

    @pytest.mark.parametrize('q', (0, 2))
    def test_one_cell_sweep_allocates_no_n_by_n_array(self, q):
        n = 4000
        config = SweepConfig(n=n, k_list=(5,), oversampling_list=(10,), q_list=(q,), trials=2, seed=31,
                             bound_variants=VARIANTS)
        tracemalloc.start()
        try:
            rows = run_sweep(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 2 and all(math.isfinite(row.empirical_mean) for row in rows)
        assert list(rows[0].bounds) == list(VARIANTS)
        # one n x n float64 array is n * n * 8 bytes, 122 MiB
        assert peak < n * n * 8 / 4, peak


@pytest.fixture
def blas_threads():
    """The process's BLAS thread controls, each set to two threads for the test."""
    controls = experiments._blas_thread_controls()
    assert controls, 'no OpenBLAS thread setter found in this process'
    counts = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield controls
    for (_, set_threads), count in zip(controls, counts):
        set_threads(count)


def fresh_interpreter(script, args, pinning):
    """Stdout of ``script`` run with ``args`` in a fresh interpreter, with the
    three thread-count variables removed from its environment and ``pinning``
    added; OpenBLAS reads its thread count when it loads."""
    src = os.path.dirname(os.path.dirname(sketchbound.__file__))
    env = {name: value for name, value in os.environ.items()
           if name not in ('OPENBLAS_NUM_THREADS', 'GOTO_NUM_THREADS', 'OMP_NUM_THREADS')}
    env['PYTHONPATH'] = os.pathsep.join(filter(None, (src, os.environ.get('PYTHONPATH'))))
    return subprocess.run([sys.executable, '-c', script, *map(str, args)], env={**env, **pinning},
                          check=True, timeout=300, capture_output=True, text=True).stdout


def small_config(tmp_path=None, **overrides):
    settings = dict(
        n=40,
        k_list=(3,),
        oversampling_list=(2, 5),
        q_list=(0, 1),
        trials=4,
        seed=21,
        norm_list=('spectral', 'frobenius'),
        metric='general',
    )
    settings.update(overrides)
    return SweepConfig(**settings)


class TestRunSweep:
    def test_single_cell_row(self):
        config = small_config(k_list=(3,), oversampling_list=(4,), q_list=(0,),
                              norm_list=('frobenius',), trials=1)
        rows = run_sweep(config)
        assert len(rows) == 1
        row = rows[0]
        assert (row.k, row.p, row.oversampling, row.q) == (3, 7, 4, 0)
        assert row.norm == 'frobenius' and row.metric == 'general'
        assert row.empirical_std == 0.0
        assert set(row.bounds) == set(config.bound_variants)
        assert all(v >= 0 for v in row.bounds.values())

    def test_rows_sorted_and_complete(self):
        rows = run_sweep(small_config())
        keys = [(r.k, r.q, r.p, r.norm) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 2 * 2 * 2  # q x oversampling x norm

    def test_closed_forms_match_library_calls(self):
        config = small_config(q_list=(1,), oversampling_list=(6,), norm_list=('frobenius',))
        row = run_sweep(config)[0]
        _, f = synthetic_matrix(config.n, config.seed)
        profile = SpectrumProfile.from_spectrum(f.sigma, 3, 9, 1)
        assert row.bounds['cor_frobenius'] == frobenius_bound(profile).bound

    def test_thm_variants_match_closed_forms(self):
        config = small_config(q_list=(0,), oversampling_list=(5,),
                              bound_variants=('cor_frobenius', 'cor_spectral', 'thm3', 'thm4'))
        row = run_sweep(config)[0]
        assert row.bounds['thm3'] == pytest.approx(row.bounds['cor_frobenius'], rel=1e-10)
        assert row.bounds['thm4'] == pytest.approx(row.bounds['cor_spectral'], rel=1e-10)

    def test_theorem_variants_form_no_covariance(self, projection_calls, monkeypatch):
        reads = []
        monkeypatch.setattr(GaussianSketch, 'covariance', property(reads.append))
        config = small_config(n=60, k_list=(3, 5), oversampling_list=(4, 8), q_list=(0, 2),
                              norm_list=('frobenius',), trials=1, bound_variants=VARIANTS)
        rows = run_sweep(config)
        assert len(rows) == 8
        assert all(math.isfinite(row.bounds[name]) for row in rows for name in THEOREM_VARIANTS)
        assert projection_calls == []
        assert reads == []

    def test_builds_the_problem_without_a_draw_or_a_qr(self, monkeypatch):
        # every trial draws through sketching.standard_gaussian; the problem,
        # diag(sigma), needs neither a draw through this binding nor any QR
        def refuse(name):
            def refused(*args, **kwargs):
                raise AssertionError(f'a sweep called {name}')
            return refused

        monkeypatch.setattr(experiments, 'standard_gaussian', refuse('experiments.standard_gaussian'))
        monkeypatch.setattr(np.linalg, 'qr', refuse('np.linalg.qr'))
        monkeypatch.setattr(scipy.linalg, 'qr', refuse('scipy.linalg.qr'))
        rows = run_sweep(small_config(n=40, bound_variants=VARIANTS))
        assert len(rows) == 8

    def test_every_trial_draws_from_one_shared_diagonal(self, monkeypatch):
        matrices = []
        draw = sketching.rsvd_sketch

        def recording(a, *args, **kwargs):
            matrices.append(a)
            return draw(a, *args, **kwargs)

        monkeypatch.setattr(os, 'sched_getaffinity', lambda pid: {0, 1})
        monkeypatch.setattr(sketching, 'rsvd_sketch', recording)
        config = small_config(bound_variants=VARIANTS)
        rows = run_sweep(config)
        # one draw per trial of each (q, p) group, here one group per cell
        assert len(matrices) == config.trials * len(rows) // 2
        assert all(a is matrices[0] for a in matrices)
        assert np.array_equal(matrices[0].toarray(), np.diag(synthetic_matrix(config.n, config.seed)[1].sigma))

    def test_worker_count_does_not_change_the_bytes(self, monkeypatch, tmp_path):
        config = small_config(n=60, k_list=(3, 5), oversampling_list=(2, 5, 9), q_list=(0, 1, 2),
                              trials=4, bound_variants=VARIANTS)
        payloads = []
        for workers in (1, 2):
            monkeypatch.setattr(os, 'sched_getaffinity', lambda pid: set(range(workers)))
            path = tmp_path / f'sweep-{workers}.csv'
            emit(run_sweep(config), 'csv', path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    @staticmethod
    def _fresh_interpreter_csvs(tmp_path, pinning):
        """The n=1000 sweep's CSV bytes in this process, then with 1 and 2
        workers in a fresh interpreter (see :func:`fresh_interpreter`)."""
        config = SweepConfig(n=1000, k_list=(5,), oversampling_list=(2, 52), trials=2, seed=5)
        emit(run_sweep(config), 'csv', tmp_path / 'here.csv')
        script = (
            'import os, sys\n'
            'from sketchbound import experiments\n'
            'config = experiments.SweepConfig(n=1000, k_list=(5,), oversampling_list=(2, 52), trials=2, seed=5)\n'
            'for workers, path in zip((1, 2), sys.argv[1:]):\n'
            '    os.sched_getaffinity = lambda pid: set(range(workers))\n'
            '    experiments.emit(experiments.run_sweep(config), "csv", path)\n'
        )
        paths = [tmp_path / 'one.csv', tmp_path / 'two.csv']
        fresh_interpreter(script, paths, pinning)
        return [path.read_bytes() for path in (tmp_path / 'here.csv', *paths)]

    def test_worker_count_does_not_change_the_bytes_with_pinned_blas(self, tmp_path):
        payloads = self._fresh_interpreter_csvs(tmp_path, {'OPENBLAS_NUM_THREADS': '1'})
        assert len(set(payloads)) == 1
        assert len(payloads[0].decode().splitlines()) == 1 + 2 * 2

    def test_worker_count_does_not_change_the_bytes_with_unpinned_blas(self, tmp_path):
        # the same bytes as in this process, and so as with BLAS pinned
        payloads = self._fresh_interpreter_csvs(tmp_path, {})
        assert len(set(payloads)) == 1
        assert len(payloads[0].decode().splitlines()) == 1 + 2 * 2

    def test_trials_run_with_single_threaded_blas_and_its_counts_return(self, monkeypatch, blas_threads):
        counts = [get() for get, _ in blas_threads]
        seen = []
        collect = experiments._collect_residuals

        def recording(*args, **kwargs):
            seen.append([get() for get, _ in blas_threads])
            return collect(*args, **kwargs)

        monkeypatch.setattr(os, 'sched_getaffinity', lambda pid: {0, 1})
        monkeypatch.setattr(experiments, '_collect_residuals', recording)
        rows = run_sweep(small_config())
        assert len(seen) == len(rows) // 2
        assert all(during == [1] * len(blas_threads) for during in seen)
        assert [get() for get, _ in blas_threads] == counts

    def test_sweeps_from_two_threads_run_one_at_a_time(self, monkeypatch, blas_threads):
        # each sweep's trials wait briefly for the other's; overlapping sweeps
        # would meet, and the later one would restore the count set to one
        counts = [get() for get, _ in blas_threads]
        meeting = threading.Barrier(2, timeout=0.5)
        met = []
        collect = experiments._collect_residuals

        def meeting_point(*args, **kwargs):
            with contextlib.suppress(threading.BrokenBarrierError):
                meeting.wait()
                met.append(threading.get_ident())
            return collect(*args, **kwargs)

        monkeypatch.setattr(os, 'sched_getaffinity', lambda pid: {0})
        monkeypatch.setattr(experiments, '_collect_residuals', meeting_point)
        results = []
        sweeps = [threading.Thread(target=lambda: results.append(run_sweep(small_config())))
                  for _ in range(2)]
        for sweep in sweeps:
            sweep.start()
        for sweep in sweeps:
            sweep.join(timeout=60)
        assert not any(sweep.is_alive() for sweep in sweeps)
        assert len(results) == 2 and results[0] == results[1]
        assert met == []
        assert [get() for get, _ in blas_threads] == counts

    def test_without_thread_setters_the_trials_run_in_one_worker(self, monkeypatch):
        config = small_config(n=60, k_list=(3, 5), oversampling_list=(2, 9), q_list=(0, 2), trials=3)
        expected = run_sweep(config)
        workers = []
        map_cells = experiments._map_cells

        def recording(work, count, workers_given):
            workers.append(workers_given)
            return map_cells(work, count, workers_given)

        monkeypatch.setattr(experiments, '_blas_thread_controls', lambda: ())
        monkeypatch.setattr(os, 'sched_getaffinity', lambda pid: {0, 1})
        monkeypatch.setattr(experiments, '_map_cells', recording)
        assert run_sweep(config) == expected
        assert workers == [1]

    @pytest.mark.parametrize('cpus', (1, 2, 3))
    def test_one_worker_per_cpu_with_thread_setters(self, monkeypatch, cpus):
        config = small_config(n=60, k_list=(3, 5), oversampling_list=(2, 9), q_list=(0, 2), trials=3)
        expected = run_sweep(config)
        workers = []
        map_cells = experiments._map_cells

        def recording(work, count, workers_given):
            workers.append(workers_given)
            return map_cells(work, count, workers_given)

        monkeypatch.setattr(os, 'sched_getaffinity', lambda pid: set(range(cpus)))
        monkeypatch.setattr(experiments, '_map_cells', recording)
        assert run_sweep(config) == expected
        assert workers == [cpus]

    @pytest.mark.parametrize('workers', (1, 2))
    def test_a_failing_cell_surfaces(self, monkeypatch, blas_threads, workers):
        draw = sketching.rsvd_sketch
        counts = [get() for get, _ in blas_threads]

        def failing(a, q, p, *args, **kwargs):
            # the grid's third cell: k=3, q=1, oversampling 2
            if (q, p) == (1, 5):
                raise RuntimeError('cell 2 failed')
            return draw(a, q, p, *args, **kwargs)

        monkeypatch.setattr(os, 'sched_getaffinity', lambda pid: set(range(workers)))
        monkeypatch.setattr(sketching, 'rsvd_sketch', failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match='cell 2 failed'):
            run_sweep(small_config())
        assert threading.active_count() == threads
        assert [get() for get, _ in blas_threads] == counts

    def test_adding_a_k_or_an_oversampling_value_leaves_the_other_rows(self, tmp_path):
        # k=1 and oversampling 3 sort first and in the middle; k=1 shares p=5 with k=3
        base = small_config(n=60, k_list=(3,), oversampling_list=(2, 4, 7), trials=4)
        lines = []
        for i, config in enumerate((base, dataclasses.replace(base, k_list=(1, 3)),
                                    dataclasses.replace(base, oversampling_list=(2, 3, 4, 7)))):
            path = tmp_path / f'sweep-{i}.csv'
            emit(run_sweep(config), 'csv', path)
            lines.append(path.read_text().splitlines())
        for grown in lines[1:]:
            assert len(grown) > len(lines[0])
            assert set(lines[0]) <= set(grown)

    def test_trial_streams_are_keyed_by_q_p_and_trial(self, monkeypatch):
        # the trials draw through this binding; the problem build does not
        streams = []
        gaussian = sketching.standard_gaussian

        def recording(rows, cols, stream):
            streams.append(stream)
            return gaussian(rows, cols, stream)

        monkeypatch.setattr(sketching, 'standard_gaussian', recording)
        config = small_config(k_list=(3, 5), oversampling_list=(2, 4, 7), q_list=(0, 1), trials=4)
        run_sweep(config)
        # the ks share each (q, p): p is 5, 7, 10 for k=3 and 7, 9, 12 for k=5
        expected = {experiments._trial_stream(config.seed, q, p, t)
                    for q in (0, 1) for p in (5, 7, 9, 10, 12) for t in range(config.trials)}
        assert len(streams) == len(expected) and set(streams) == expected
        # no stream of the synthetic matrix's V (index 1) or U (index 0)
        assert SeededStream(config.seed, 0) not in expected and SeededStream(config.seed, 1) not in expected
        assert all(stream.stream_index >= 1 << 63 for stream in streams)

    def test_stream_index_fields_fill_64_bits_without_overlap(self):
        t_bits, p_bits, q_bits = experiments._TRIAL_FIELDS
        assert t_bits + p_bits + q_bits == 63
        assert experiments._trial_stream(7, 0, 0, 0) == SeededStream(7, 1 << 63)
        top = experiments._trial_stream(7, 2**q_bits - 1, 2**p_bits - 1, 2**t_bits - 1)
        assert top == SeededStream(7, 2**64 - 1)
        fields = {(q, p, t): experiments._trial_stream(7, q, p, t).stream_index
                  for q in (0, 1, 2**q_bits - 1) for p in (0, 1, 2**p_bits - 1) for t in (0, 1, 2**t_bits - 1)}
        assert len(set(fields.values())) == len(fields)

    def test_ks_sharing_a_sketch_get_identical_full_residuals(self):
        _, factors = synthetic_matrix(60)
        norms = ('spectral', 'frobenius')
        results = experiments._sweep_trials(factors.sigma, [(3, 1, 9), (5, 1, 9), (3, 1, 12)], 4, norms, 21)
        (shared_a, excluded_a), (shared_b, excluded_b), (other, _) = results
        assert excluded_a == excluded_b == 0
        for which in norms:
            assert np.array_equal(shared_a[which][:, 0], shared_b[which][:, 0])
            assert not np.array_equal(shared_a[which][:, 1], shared_b[which][:, 1])
            assert not np.array_equal(shared_a[which][:, 0], other[which][:, 0])

    def test_improved_spectral_column_never_looser(self):
        config = small_config(q_list=(0, 1), oversampling_list=(4, 8),
                              bound_variants=('thm4', 'thm5'))
        for row in run_sweep(config):
            assert row.bounds['thm5'] <= row.bounds['thm4'] + 1e-12

    def test_invalid_cells_skipped(self, caplog):
        config = small_config(oversampling_list=(1, 4))
        rows = run_sweep(config)
        assert all(row.oversampling == 4 for row in rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(metric='bogus')
        with pytest.raises(ValueError):
            small_config(bound_variants=('nonsense',))
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError, match='need n >= 11'):
            small_config(n=10)

    @pytest.mark.parametrize('name, values', [
        ('k_list', (3, 5, 3)), ('oversampling_list', (2, 2)), ('q_list', (0, 1, 0)),
        ('norm_list', ('spectral', 'frobenius', 'spectral')),
    ])
    def test_config_rejects_duplicate_grid_entries(self, name, values):
        with pytest.raises(ValueError, match=f'{name} has duplicate entries'):
            small_config(**{name: values})

    @pytest.mark.parametrize('variants', ((), ('cor_frobenius', 'cor_frobenius')))
    def test_config_and_evaluate_bounds_refuse_an_empty_or_repeating_variant_list(self, variants):
        with pytest.raises(ValueError) as config_error:
            small_config(bound_variants=variants)
        with pytest.raises(ValueError) as bounds_error:
            experiments.evaluate_bounds(variants, synthetic_matrix(20)[1], 2, 6, 0)
        assert str(bounds_error.value) == str(config_error.value) == (
            f'bound variants must name at least one variant, each once, got {list(variants)}')

    def test_config_keeps_the_grid_inside_the_stream_index_fields(self):
        t_bits, p_bits, q_bits = experiments._TRIAL_FIELDS
        small_config(trials=2**t_bits, q_list=(0, 2**q_bits - 1), oversampling_list=(2, 2**p_bits - 4))
        for overrides in (dict(trials=2**t_bits + 1), dict(q_list=(-1, 0)), dict(q_list=(2**q_bits,)),
                          dict(k_list=(0, 3)), dict(oversampling_list=(2, 2**p_bits - 3))):
            with pytest.raises(ValueError):
                small_config(**overrides)

    @pytest.mark.parametrize('seed', (-1, 2**64))
    def test_config_rejects_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match='master_seed must be in'):
            small_config(seed=seed)
        small_config(seed=2**64 - 1)

    def test_unknown_variants_are_refused_as_the_config_refuses_them(self):
        with pytest.raises(ValueError) as config_error:
            small_config(bound_variants=('cor_frobenius', 'bogus'))
        with pytest.raises(ValueError) as bounds_error:
            experiments.evaluate_bounds(['cor_frobenius', 'bogus'], synthetic_matrix(20)[1], 2, 6, 0)
        assert str(bounds_error.value) == str(config_error.value) == "unknown bound variants: ['bogus']"

    def test_a_string_is_refused_as_a_variant_list_by_name(self):
        refusal = r"^bound variants must be a list of names, got the string 'cor_frobenius'$"
        with pytest.raises(ValueError, match=refusal):
            experiments.evaluate_bounds('cor_frobenius', synthetic_matrix(20)[1], 2, 6, 0)

    def test_from_json(self, tmp_path):
        path = tmp_path / 'config.json'
        path.write_text(json.dumps({
            'n': 40, 'k_list': [3], 'oversampling_list': [4], 'q_list': [0],
            'trials': 2, 'seed': 1, 'norm_list': ['frobenius'],
        }))
        config = SweepConfig.from_json(path)
        assert config.k_list == (3,)
        bad = tmp_path / 'bad.json'
        bad.write_text(json.dumps({'n': 40, 'k_list': [3], 'oversampling_list': [4], 'zzz': 1}))
        with pytest.raises(ValueError, match='unknown'):
            SweepConfig.from_json(bad)


    def test_from_json_rejects_the_removed_m_key(self, tmp_path):
        path = tmp_path / 'config.json'
        path.write_text(json.dumps({'n': 40, 'k_list': [3], 'oversampling_list': [4], 'm': 40}))
        with pytest.raises(ValueError, match="unknown sweep config keys: \\['m'\\]"):
            SweepConfig.from_json(path)


class TestSweepWorkers:
    def test_no_thread_controls_without_proc_maps(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError('/proc/self/maps')

        monkeypatch.setattr(experiments, 'open', no_proc, raising=False)
        assert experiments._blas_thread_controls.__wrapped__() == ()

    def test_no_thread_controls_when_a_blas_library_lacks_setters(self, monkeypatch):
        opened = []

        def bare_library(path):
            opened.append(path)
            return types.SimpleNamespace()

        monkeypatch.setattr(experiments.ctypes, 'CDLL', bare_library)
        assert experiments._blas_thread_controls.__wrapped__() == ()
        assert opened and 'blas' in os.path.basename(opened[0]).lower()

    def test_one_blas_thread_nests_and_restores_the_counts(self, blas_threads):
        with experiments._one_blas_thread():
            with experiments._one_blas_thread() as threaded:
                assert threaded
            assert [get() for get, _ in blas_threads] == [1] * len(blas_threads)
        assert [get() for get, _ in blas_threads] == [2] * len(blas_threads)

    def test_a_failing_unit_is_raised_and_the_units_not_started_are_cancelled(self):
        threads = threading.active_count()
        assert experiments._map_cells(lambda i: i, 40, 4) == list(range(40))
        assert experiments._map_cells(lambda i: i, 0, 4) == []
        assert threading.active_count() == threads
        ran = []

        def work(i):
            ran.append(i)
            if i == 0:
                raise RuntimeError('unit 0 failed')
            time.sleep(0.01)
            return i

        with pytest.raises(RuntimeError, match='unit 0 failed'):
            experiments._map_cells(work, 400, 4)
        assert 0 in ran and len(ran) < 40
        assert threading.active_count() == threads

    def test_every_index_is_computed_once_under_contention(self):
        calls = []

        def work(i):
            calls.append(i)
            return float(np.sum(np.full(50, i)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = experiments._map_cells(work, 400, 8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(400))
        assert results == [50.0 * i for i in range(400)]


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        rows = run_sweep(small_config())
        path = tmp_path / 'sweep.csv'
        emit(rows, 'csv', path)
        with open(path, newline='') as handle:
            header, *lines = csv.reader(handle)
        parsed = [SweepRow(*map(int, line[:4]), *line[4:6], *map(float, line[6:8]),
                           bounds=dict(zip(header[8:], map(float, line[8:])))) for line in lines]
        assert parsed == rows

    def test_json_round_trip(self, tmp_path):
        rows = run_sweep(small_config(trials=2))
        path = tmp_path / 'sweep.json'
        emit(rows, 'json', path)
        assert [SweepRow(**row) for row in json.loads(path.read_text())] == rows

    def test_header_layout(self, tmp_path):
        rows = run_sweep(small_config(trials=1, oversampling_list=(4,), q_list=(0,)))
        path = tmp_path / 'sweep.csv'
        emit(rows, 'csv', path)
        header = path.read_text().splitlines()[0]
        assert header.startswith('k,p,oversampling,q,norm,metric,empirical_mean,empirical_std,')
        assert len(path.read_text().splitlines()) == 1 + len(rows)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], 'csv', tmp_path / 'x.csv')

    @pytest.mark.parametrize('output_format', ('csv', 'json'))
    def test_rows_of_cells_with_every_trial_excluded_are_refused(self, tmp_path, output_format):
        rows = [SweepRow(k=k, p=k + 4, oversampling=4, q=1, norm=norm, metric='general',
                         empirical_mean=mean, empirical_std=0.0, bounds={'cor_frobenius': 1.0})
                for k, mean in ((2, 0.5), (3, math.nan), (5, math.nan)) for norm in experiments.NORMS]
        with pytest.raises(ValueError, match=r'every trial excluded by the head rank check in '
                                             r'cell\(s\) k=3 p=7 q=1, k=5 p=9 q=1; no file written'):
            emit(rows, output_format, tmp_path / f'rows.{output_format}')
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_bytes(self, tmp_path):
        config = small_config()
        p1, p2 = tmp_path / 'a.csv', tmp_path / 'b.csv'
        emit(run_sweep(config), 'csv', p1)
        emit(run_sweep(config), 'csv', p2)
        assert p1.read_bytes() == p2.read_bytes()
