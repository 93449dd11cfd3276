import json
import math
import weakref

import numpy as np
import pytest
import scipy.io
import scipy.linalg

from sketchbound import cli, experiments, linalg, sketching
from sketchbound.cli import main
from sketchbound.experiments import VARIANTS, empirical_error, synthetic_matrix
from sketchbound.linalg import read_matrix_market, write_matrix_market
from sketchbound.rsvd import SpectrumProfile, frobenius_bound
from sketchbound.sketching import GaussianSketch, RsvdSketch, rsvd_distribution


def run_cli(*argv):
    return main(list(argv))


def mean_cov_args(tmp_path, n, p, mean_scale):
    """``--mean``/``--cov`` arguments for a dense covariance and a scaled mean."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((n, n))
    mean_path, cov_path = tmp_path / 'mean.mtx', tmp_path / 'cov.mtx'
    write_matrix_market(mean_path, mean_scale * rng.standard_normal((n, p)))
    write_matrix_market(cov_path, b @ b.T / n + 1e-3 * np.eye(n))
    return ('--mean', str(mean_path), '--cov', str(cov_path))


class TestGenMatrix:
    def test_writes_matrix_market(self, tmp_path, capsys):
        out = tmp_path / 'a.mtx'
        assert run_cli('gen-matrix', '--n', '20', '--seed', '3', '--out', str(out)) == 0
        a = read_matrix_market(out)
        expected, _ = synthetic_matrix(20, 3)
        assert np.allclose(a, expected, atol=1e-14)
        assert str(out) in capsys.readouterr().out

    def test_failed_write_leaves_the_earlier_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / 'a'  # no .mtx suffix is appended
        out.write_text('earlier matrix\n')
        mmwrite = scipy.io.mmwrite

        def failing(target, m):
            mmwrite(target, m)
            raise OSError('disk full')

        with monkeypatch.context() as patch:
            patch.setattr(scipy.io, 'mmwrite', failing)
            assert run_cli('gen-matrix', '--n', '20', '--out', str(out)) == 1
        assert 'disk full' in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ['a']
        assert out.read_text() == 'earlier matrix\n'
        assert run_cli('gen-matrix', '--n', '20', '--out', str(out)) == 0
        assert [path.name for path in tmp_path.iterdir()] == ['a']
        assert np.array_equal(read_matrix_market(out), synthetic_matrix(20, 0)[0])


class TestBounds:
    def test_synthetic_rsvd_report(self, capsys):
        assert run_cli('bounds', '--synthetic-n', '40', '--seed', '1',
                       '--k', '3', '--p', '9', '--q', '1',
                       '--variant', 'cor_frobenius,hmt_power') == 0
        report = json.loads(capsys.readouterr().out)
        assert report['k'] == 3 and report['p'] == 9 and report['q'] == 1
        _, f = synthetic_matrix(40, 1)
        profile = SpectrumProfile.from_spectrum(f.sigma, 3, 9, 1)
        expected = frobenius_bound(profile)
        assert report['variants']['cor_frobenius']['bound'] == pytest.approx(expected.bound)
        assert report['variants']['cor_frobenius']['a_k'] == pytest.approx(expected.constants['a_k'])
        assert 'hmt_power' in report['variants']

    def test_seeded_synthetic_problem_draws_only_its_left_factor(self, monkeypatch, capsys):
        _, factors = synthetic_matrix(60, 3)
        drawn = []
        haar = experiments._haar_orthogonal

        def recording(n, stream):
            drawn.append(stream.stream_index)
            return haar(n, stream)

        monkeypatch.setattr(experiments, '_haar_orthogonal', recording)
        assert run_cli('bounds', '--synthetic-n', '60', '--seed', '3', '--k', '4', '--p', '8') == 0
        assert drawn == [0]  # U's stream alone: no V, no matrix
        loaded = experiments._synthetic_factors(60, 3)
        assert np.array_equal(loaded.left(), factors.left()) and np.array_equal(loaded.sigma, factors.sigma)
        assert loaded.cols == factors.cols

    def test_matrix_file_input(self, tmp_path, capsys):
        a, _ = synthetic_matrix(25, 2)
        path = tmp_path / 'a.mtx'
        write_matrix_market(path, a)
        assert run_cli('bounds', '--matrix', str(path), '--k', '2', '--p', '8',
                       '--variant', 'cor_spectral') == 0
        report = json.loads(capsys.readouterr().out)
        assert report['variants']['cor_spectral']['bound'] > 0

    def test_theorem_variants_with_descriptor_moments(self, tmp_path, capsys):
        a, _ = synthetic_matrix(20, 4)
        matrix_path = tmp_path / 'a.mtx'
        write_matrix_market(matrix_path, a)
        mean_path = tmp_path / 'mean.mtx'
        cov_path = tmp_path / 'cov.mtx'
        write_matrix_market(mean_path, np.zeros((20, 7)))
        write_matrix_market(cov_path, a @ a.T)
        assert run_cli('bounds', '--matrix', str(matrix_path), '--k', '3', '--p', '7',
                       '--variant', 'thm3,thm4,thm5',
                       '--mean', str(mean_path), '--cov', str(cov_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert {'thm3', 'thm4', 'thm5'} == set(report['variants'])
        assert report['variants']['thm5']['c_hat_k'] <= report['variants']['thm4']['c_k'] + 1e-12

    def test_zero_mean_theorem_sketch_built_once(self, monkeypatch, projection_calls, capsys):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return rsvd_distribution(*args, **kwargs)

        monkeypatch.setattr(cli, 'rsvd_distribution', counting)
        assert run_cli('bounds', '--synthetic-n', '60', '--k', '3', '--p', '8') == 0
        assert len(calls) == 1
        assert len(projection_calls) == 1  # shared by the four theorem variants
        assert list(json.loads(capsys.readouterr().out)['variants']) == list(VARIANTS)

    def test_mean_cov_theorem_variants_project_covariance_once(self, tmp_path, projection_calls, capsys):
        assert run_cli('bounds', '--synthetic-n', '60', '--k', '3', '--p', '8',
                       '--variant', 'thm3,thm4,thm5', *mean_cov_args(tmp_path, 60, 8, 0.05)) == 0
        assert list(json.loads(capsys.readouterr().out)['variants']) == ['thm3', 'thm4', 'thm5']
        assert len(projection_calls) == 1

    def test_mean_cov_request_never_forms_the_root(self, tmp_path, monkeypatch, capsys):
        built = []
        from_moments = GaussianSketch.from_moments

        def recording(cls, *args, **kwargs):
            built.append(from_moments(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(GaussianSketch, 'from_moments', classmethod(recording))
        assert run_cli('bounds', '--synthetic-n', '60', '--seed', '3', '--k', '4', '--p', '8',
                       *mean_cov_args(tmp_path, 60, 8, 0.05)) == 0
        [sketch] = built
        assert 'cov_sqrt' not in vars(sketch)  # the deferred root was never formed

    def test_rsvd_theorem_request_never_forms_the_root(self, monkeypatch, capsys):
        built = []

        def recording(*args, **kwargs):
            built.append(rsvd_distribution(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, 'rsvd_distribution', recording)
        assert run_cli('bounds', '--synthetic-n', '60', '--seed', '3', '--k', '4', '--p', '8') == 0
        [sketch] = built
        assert 'cov_sqrt' not in vars(sketch)
        root = sketch.cov_sqrt
        assert vars(sketch)['cov_sqrt'] is root  # formed on first read, then cached

    @pytest.mark.parametrize('mean_scale, omitted', [(0.05, ['thm3_squared']), (0.0, [])])
    def test_moments_default_variants(self, tmp_path, capsys, mean_scale, omitted):
        # the squared-gap bound is left out of the default list for a nonzero mean only
        assert run_cli('bounds', '--synthetic-n', '60', '--k', '3', '--p', '8',
                       *mean_cov_args(tmp_path, 60, 8, mean_scale)) == 0
        report = json.loads(capsys.readouterr().out)['variants']
        assert list(report) == [v for v in VARIANTS if v not in omitted]
        assert (report['thm3']['mean_term'] > 0) == bool(mean_scale)

    def test_nonzero_mean_named_squared_gap_variant_fails(self, tmp_path, capsys):
        assert run_cli('bounds', '--synthetic-n', '60', '--k', '3', '--p', '8',
                       '--variant', 'thm3,thm3_squared', *mean_cov_args(tmp_path, 60, 8, 0.05)) == 2
        assert 'the squared-gap bound requires a zero-mean sketch' in capsys.readouterr().err

    def test_unknown_variant_is_precondition_error(self):
        assert run_cli('bounds', '--synthetic-n', '30', '--k', '2', '--p', '6',
                       '--variant', 'wat') == 2

    @pytest.mark.parametrize('variant', ('', ' , ', 'cor_frobenius,hmt_power,cor_frobenius'))
    def test_empty_or_repeating_variant_list_is_precondition_error(self, capsys, variant):
        assert run_cli('bounds', '--synthetic-n', '30', '--k', '3', '--p', '8', '--variant', variant) == 2
        captured = capsys.readouterr()
        assert 'must name at least one variant, each once' in captured.err and captured.out == ''

    def test_k_out_of_range_is_precondition_error(self):
        assert run_cli('bounds', '--synthetic-n', '30', '--k', '5', '--p', '6',
                       '--variant', 'cor_frobenius') == 2

    def test_complex_matrix_file_is_precondition_error(self, tmp_path, capsys):
        path = tmp_path / 'c.mtx'
        scipy.io.mmwrite(str(path), np.diag([1 + 5j, 1 + 7j, 1 + 9j]))
        assert run_cli('bounds', '--matrix', str(path), '--k', '1', '--p', '3', '--variant', 'cor_frobenius') == 2
        assert 'complex' in capsys.readouterr().err

    def test_missing_matrix_file_is_io_error(self, tmp_path):
        assert run_cli('bounds', '--matrix', str(tmp_path / 'none.mtx'),
                       '--k', '2', '--p', '6', '--variant', 'cor_frobenius') == 1

    def test_report_is_replaced_atomically(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / 'report.json'
        out.write_text('previous report\n')
        request = ('bounds', '--synthetic-n', '30', '--k', '2', '--p', '6', '--variant', 'cor_frobenius',
                   '--out', str(out))

        def failing(src, dst):
            raise OSError('replace failed')

        with monkeypatch.context() as patch:
            patch.setattr(linalg.os, 'replace', failing)
            assert run_cli(*request) == 1
        assert 'replace failed' in capsys.readouterr().err
        assert out.read_text() == 'previous report\n'
        assert [path.name for path in tmp_path.iterdir()] == ['report.json']  # no .tmp-* left
        assert run_cli(*request) == 0
        assert json.loads(out.read_text())['k'] == 2
        plain = tmp_path / 'plain.json'
        plain.write_text('')
        assert out.stat().st_mode == plain.stat().st_mode  # the mode a plain open gives


def _sweep_request(document):
    def request(tmp_path, monkeypatch):
        path = tmp_path / 'config.json'
        path.write_text(json.dumps(document))
        return ('sweep', '--config', str(path))
    return request


def _unconverged_svd_request(tmp_path, monkeypatch):
    path = tmp_path / 'a.mtx'
    write_matrix_market(path, np.eye(12))

    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError('SVD did not converge')

    monkeypatch.setattr(scipy.linalg, 'svd', unconverged)
    return ('bounds', '--matrix', str(path), '--k', '2', '--p', '6')


def _cli_request(*argv):
    return lambda tmp_path, monkeypatch: argv


def _moments_request(a_scale, head, tail):
    """A ``bounds --mean/--cov`` request on ``a_scale diag(linspace(2, 1, 12))`` at k=2,
    p=5, with a zero mean and the diagonal covariance ``diag([head] * 2 + [tail] * 10)``."""
    def request(tmp_path, monkeypatch):
        a, mean, cov = (tmp_path / name for name in ('a.mtx', 'mean.mtx', 'cov.mtx'))
        write_matrix_market(a, a_scale * np.diag(np.linspace(2, 1, 12)))
        write_matrix_market(mean, np.zeros((12, 5)))
        write_matrix_market(cov, np.diag([head] * 2 + [tail] * 10))
        return ('bounds', '--matrix', str(a), '--k', '2', '--p', '5', '--mean', str(mean), '--cov', str(cov))
    return request


def _sketch_shape_request(rows, cols, *variant):
    """``bounds --p 8`` on the 40-row synthetic matrix with ``rows x cols`` ``--mean`` and
    ``rows x rows`` ``--cov`` files, for all variants or the ``--variant`` list given."""
    def request(tmp_path, monkeypatch):
        return ('bounds', '--synthetic-n', '40', '--k', '3', '--p', '8', *variant,
                *mean_cov_args(tmp_path, rows, cols, 0.05))
    return request


def _round_off_head_request(scale):
    """A ``--mean/--cov`` request whose covariance is supported on the tail of
    ``A``: its head block is round-off, which BLAS kernels may return well graded."""
    def request(tmp_path, monkeypatch):
        a = np.random.default_rng(4).standard_normal((40, 40))
        tail = linalg.svd(a).left_tail(3)
        paths = [tmp_path / name for name in ('a.mtx', 'mean.mtx', 'cov.mtx')]
        for path, m in zip(paths, (a, np.zeros((40, 8)), scale * (tail @ tail.T))):
            write_matrix_market(path, m)
        return ('bounds', '--matrix', str(paths[0]), '--mean', str(paths[1]), '--cov', str(paths[2]),
                '--k', '3', '--p', '8', '--variant', 'thm3,thm4', '--out', 'report.json')
    return request


def _overflowing_bound_request(variant, *out):
    """``bounds --q 1`` for one variant on the seeded n=30 matrix times 2^600, whose bound overflows."""
    def request(tmp_path, monkeypatch):
        write_matrix_market(tmp_path / 'a.mtx', synthetic_matrix(30, 1)[0] * 2.0**600)
        return ('bounds', '--matrix', str(tmp_path / 'a.mtx'), '--k', '3', '--p', '8', '--q', '1',
                '--variant', variant, *out)
    return request


def _non_json(variant):
    return f'variants.{variant}.bound is inf, which JSON cannot carry; no report written'


SWEEP = {'n': 30, 'k_list': [3], 'oversampling_list': [3], 'trials': 2}
EMPIRICAL_30 = ('empirical', '--synthetic-n', '30')


@pytest.mark.parametrize('make_request, message', [
    (_sweep_request([SWEEP]), 'a sweep config must be a JSON object, got list'),
    (_sweep_request({'k_list': [3], 'oversampling_list': [3]}), "missing sweep config keys: ['n']"),
    (_sweep_request({**SWEEP, 'k_list': 5}), 'k_list must be a list, got 5'),
    (_sweep_request({**SWEEP, 'n': 'abc'}), 'n and the entries of k_list, oversampling_list and q_list must be'),
    (_sweep_request({**SWEEP, 'n': 40.5}), 'n and the entries of k_list, oversampling_list and q_list must be'),
    (_sweep_request({**SWEEP, 'q_list': [True]}), 'n and the entries of k_list, oversampling_list and q_list must'),
    (_sweep_request({**SWEEP, 'trials': True}), 'seed, trials, p and q must be integers'),
    (_sweep_request({**SWEEP, 'output_path': 5}), 'output_path must be a string or null, got 5'),
    (_sweep_request({**SWEEP, 'norm_list': 'spectral'}), "norm_list must be a list, got 'spectral'"),
    (_sweep_request({**SWEEP, 'bound_variants': 'thm3'}), "bound_variants must be a list, got 'thm3'"),
    (_unconverged_svd_request, 'SVD did not converge on a (12, 12) input'),
    # a healthy head whose weights 1e150 sigma overflow the squared tangent constants
    (_moments_request(1e150, 100.0, 1e10), 'the tangent moment constants overflow'),
    # a head of 1e-160 against ||C||_F near 3e160 is refused by the head rule's scale test
    (_moments_request(1.0, 1e-160, 1e160), 'projected covariance head block is numerically singular'),
    (_sketch_shape_request(30, 8), 'sketch has 30 rows, but A has 40'),
    # refused whether or not a theorem variant reads the sketch
    (_sketch_shape_request(30, 8, '--variant', 'cor_frobenius'), 'sketch has 30 rows, but A has 40'),
    (_sketch_shape_request(40, 7, '--variant', 'cor_frobenius'), 'sketch mean has 7 columns, expected p=8'),
    (_round_off_head_request(1.0), 'projected covariance head block is numerically singular'),
    (_round_off_head_request(1e8), 'projected covariance head block is numerically singular'),
    (_overflowing_bound_request('hmt_frobenius'), _non_json('hmt_frobenius')),
    (_overflowing_bound_request('hmt_frobenius', '--out', 'report.json'), _non_json('hmt_frobenius')),
    (_overflowing_bound_request('hmt_spectral'), _non_json('hmt_spectral')),
    # the first non-finite value is named by its key, whichever variants follow it
    (_overflowing_bound_request('hmt_frobenius,hmt_spectral,cor_spectral,hmt_power'), _non_json('hmt_frobenius')),
    (_overflowing_bound_request('cor_spectral,hmt_power,hmt_spectral'), _non_json('hmt_spectral')),
    # an OverflowError, whose own text is the C library's
    (_overflowing_bound_request('cor_frobenius'), 'bound variant cor_frobenius overflows at k=3, p=8, q=1'),
    (_overflowing_bound_request('cor_frobenius', '--out', 'report.json'),
     'bound variant cor_frobenius overflows at k=3, p=8, q=1'),
    (_cli_request(*EMPIRICAL_30, '--k', '0', '--p', '5'), 'need 1 <= k <= p - 2, got k=0, p=5'),
    (_cli_request(*EMPIRICAL_30, '--k', '-3', '--p', '5'), 'need 1 <= k <= p - 2, got k=-3, p=5'),
    (_cli_request(*EMPIRICAL_30, '--k', '31', '--p', '35'), 'p=35 exceeds the spectrum length 30'),
    (_cli_request(*EMPIRICAL_30, '--k', '2', '--p', '3'), 'need 1 <= k <= p - 2, got k=2, p=3'),
    (_cli_request(*EMPIRICAL_30, '--k', '2', '--p', '40'), 'p=40 exceeds the spectrum length 30'),
    (_cli_request('bounds', '--synthetic-n', '30', '--k', '2', '--p', '6', '--q', '-1', '--variant', 'hmt_frobenius'),
     'q must be non-negative, got q=-1'),
], ids=['not-an-object', 'missing-key', 'k-scalar', 'n-string', 'n-float', 'q-bool', 'trials-bool',
        'output-path-int', 'norms-string', 'variants-string', 'svd-unconverged', 'constants-overflow',
        'covariance-head-below-scale', 'sketch-height', 'sketch-height-corollary', 'sketch-width-corollary',
        'round-off-head', 'round-off-head-1e8', 'infinite-bound',
        'infinite-bound-out', 'infinite-spectral-bound', 'four-variants', 'finite-variants-first',
        'overflowing-bound', 'overflowing-bound-out',
        'empirical-k-zero', 'empirical-k-negative', 'empirical-k-above-n', 'empirical-p-below-k-plus-2',
        'empirical-p-above-n', 'bounds-q-negative'])
def test_malformed_request_exits_2_without_a_traceback(tmp_path, monkeypatch, capsys, make_request, message):
    monkeypatch.chdir(tmp_path)  # a sweep with no output_path writes to the working directory
    argv = make_request(tmp_path, monkeypatch)
    before = sorted(tmp_path.iterdir())
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == '' and 'Traceback' not in captured.err
    assert f'sketchbound: {message}' in captured.err
    assert sorted(tmp_path.iterdir()) == before  # nothing written


@pytest.mark.parametrize('argv, message', [
    (('bounds', '--variant', 'thm4,thm4'), 'bound variants must name at least one variant, each once'),
    (('bounds', '--variant', 'wat'), "unknown bound variants: ['wat']"),
    (('bounds', '--variant', 'thm3', '--mean', 'mean.mtx'), '--mean and --cov must be given together'),
    (('empirical', '--trials', '0'), 'trials must be in [1, 2**'),
    (('empirical', '--q', '-1'), 'q must be non-negative, got q=-1'),
    (('empirical', '--seed', '-1'), 'master_seed must be in [0, 2**64), got -1'),
    (('bounds', '--k', '4', '--p', '5'), 'need 1 <= k <= p - 2, got k=4, p=5'),
    (('bounds', '--q', '-1'), 'q must be non-negative, got q=-1'),
    (('empirical', '--k', '0'), 'need 1 <= k <= p - 2, got k=0, p=20'),
], ids=['bounds-repeating-variant', 'bounds-unknown-variant', 'bounds-mean-without-cov',
        'empirical-no-trials', 'empirical-q-negative', 'empirical-seed-negative',
        'bounds-p-below-k-plus-2', 'bounds-q-negative', 'empirical-k-zero'])
@pytest.mark.parametrize('source', (('--synthetic-n', '3000'), ('--matrix', 'A.mtx')), ids=['synthetic', 'matrix'])
def test_malformed_request_is_refused_before_the_problem_is_loaded(monkeypatch, capsys, argv, message, source):
    def refused(*args, **kwargs):
        raise AssertionError('the problem was loaded')
    monkeypatch.setattr(cli, '_load_problem', refused)
    command, *flags = argv
    assert run_cli(command, *source, '--k', '5', '--p', '20', *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == '' and f'sketchbound: {message}' in captured.err


def test_overflowing_sketch_covariance_is_refused_by_name(tmp_path, capsys, recwarn):
    """On the seeded n=30 matrix times 2^600 at q=1, ``sigma^6`` overflows: the
    default variant list exits 2 with no numpy warning, while the library call,
    on the RSVD sketch, answers thm4 with its corollary."""
    a = synthetic_matrix(30, 1)[0] * 2.0**600
    write_matrix_market(tmp_path / 'a.mtx', a)
    assert run_cli('bounds', '--matrix', str(tmp_path / 'a.mtx'), '--k', '3', '--p', '8', '--q', '1') == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'sketchbound: the RSVD sketch covariance sigma^6 overflows at q=1\n'
    reports = experiments.evaluate_bounds(('thm4', 'cor_spectral'), linalg.svd(a), 3, 8, 1)
    assert reports['thm4']['bound'] == reports['cor_spectral']['bound']
    assert not recwarn.list


@pytest.mark.parametrize('indent', [None, 2])
@pytest.mark.parametrize('report, where', [
    ({'k': 3, 'variants': {'a': {'bound': 1.0}, 'b': {'bound': -math.inf, 'c_k': math.nan}}},
     'variants.b.bound is -inf'),
    ({'rows': [{'mean': 1.0}, {'mean': np.float64('nan')}]}, 'rows.1.mean is nan'),
])
def test_non_json_value_is_named_by_its_key_path(monkeypatch, capsys, report, where, indent):
    """The refusal names the first non-finite value by its key path, with the
    same text whichever encoder ``json.dumps`` picks (C without indent, Python with)."""
    dumps = cli.json.dumps
    monkeypatch.setattr(cli.json, 'dumps', lambda obj, **kw: dumps(obj, **dict(kw, indent=indent)))
    with pytest.raises(ValueError) as info:
        cli._write_json(report, None)
    assert str(info.value) == f'{where}, which JSON cannot carry; no report written'
    assert capsys.readouterr().out == ''


@pytest.mark.parametrize('k, p, q', [
    (2, 6, 0), (2, 6, 1), (0, 5, 0), (-3, 5, 0), (31, 35, 0), (2, 3, 0), (2, 40, 0), (2, 6, -1),
])
def test_bounds_empirical_and_a_sweep_agree_on_a_request(caplog, capsys, k, p, q):
    """Every bound variant alone, ``empirical`` and a one-cell sweep all answer
    the request on the n=30 synthetic problem, or all refuse it: the commands
    exit 2, and the sweep refuses its config or skips the cell with a warning."""
    request = ('--synthetic-n', '30', '--k', str(k), '--p', str(p), '--q', str(q))
    codes = {run_cli('bounds', *request, '--variant', name) for name in VARIANTS}
    codes.add(run_cli('empirical', *request, '--trials', '2'))
    try:
        config = experiments.SweepConfig(n=30, k_list=[k], oversampling_list=[p - k], q_list=[q], trials=2,
                                         bound_variants=VARIANTS)
    except ValueError:
        rows = []
    else:
        with caplog.at_level('WARNING', logger='sketchbound.experiments'):
            rows = experiments.run_sweep(config)
        assert bool(rows) != (f'skipping invalid cell k={k}, p={p}, q={q}' in caplog.text)
    assert codes == ({0} if rows else {2})


def matrix_alive_at(monkeypatch, matrix_path, name):
    """List that records, each time ``experiments.<name>`` is entered, whether
    the array ``cli.read_matrix_market`` returned for ``matrix_path`` is alive."""
    refs, alive = [], []
    read, entered = cli.read_matrix_market, getattr(experiments, name)

    def reading(path):
        matrix = read(path)
        if str(path) == str(matrix_path):
            refs.append(weakref.ref(matrix))
        return matrix

    def entering(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return entered(*args, **kwargs)

    monkeypatch.setattr(cli, 'read_matrix_market', reading)
    monkeypatch.setattr(experiments, name, entering)
    return alive


class TestMatrixReleased:
    """No command holds the dense ``--matrix`` input once it is factored."""

    @pytest.fixture
    def matrix_path(self, tmp_path):
        path = tmp_path / 'a.mtx'
        write_matrix_market(path, synthetic_matrix(30, 5)[0])
        return path

    @pytest.mark.parametrize('moments', (False, True))
    def test_bounds(self, tmp_path, monkeypatch, capsys, matrix_path, moments):
        alive = matrix_alive_at(monkeypatch, matrix_path, 'evaluate_bounds')
        extra = mean_cov_args(tmp_path, 30, 8, 0.05) if moments else ()
        assert run_cli('bounds', '--matrix', str(matrix_path), '--k', '3', '--p', '8', '--q', '1', *extra) == 0
        assert alive == [[False]]

    def test_empirical(self, monkeypatch, capsys, matrix_path):
        alive = matrix_alive_at(monkeypatch, matrix_path, 'empirical_error')
        assert run_cli('empirical', '--matrix', str(matrix_path), '--k', '3', '--p', '8',
                       '--trials', '3') == 0
        assert alive == [[False]]


class TestSweep:
    def test_runs_config_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / 'rows.csv'
        config = {
            'n': 30, 'k_list': [3], 'oversampling_list': [3, 6], 'q_list': [0],
            'trials': 3, 'seed': 5, 'norm_list': ['frobenius'],
            'output_path': str(out),
        }
        config_path = tmp_path / 'config.json'
        config_path.write_text(json.dumps(config))
        assert run_cli('sweep', '--config', str(config_path)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert str(out) in capsys.readouterr().out

    def test_bad_config_key(self, tmp_path):
        config_path = tmp_path / 'config.json'
        config_path.write_text(json.dumps({'n': 30, 'k_list': [3], 'oversampling_list': [3],
                                           'bogus': True}))
        assert run_cli('sweep', '--config', str(config_path)) == 2

    @pytest.mark.parametrize('key, value, message', [
        ('seed', -1, 'master_seed must be in'),
        ('seed', 2**64, 'master_seed must be in'),
        ('seed', 1.5, 'must be integers'),
        ('trials', 2.0, 'must be integers'),
    ])
    def test_bad_trial_key_is_refused_before_any_bound(self, tmp_path, monkeypatch, capsys, key, value, message):
        def refused(*args, **kwargs):
            raise AssertionError('a bound was evaluated')

        monkeypatch.setattr(experiments, 'evaluate_bounds', refused)
        config_path = tmp_path / 'config.json'
        config_path.write_text(json.dumps({'n': 30, 'k_list': [3], 'oversampling_list': [3], key: value,
                                           'output_path': str(tmp_path / 'rows.csv')}))
        assert run_cli('sweep', '--config', str(config_path)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / 'rows.csv').exists()

    def test_too_small_n_is_refused_when_the_config_is_read(self, tmp_path, monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError('the sweep ran')

        monkeypatch.setattr(experiments, 'run_sweep', refused)
        out = tmp_path / 'rows.csv'
        config_path = tmp_path / 'config.json'
        config_path.write_text(json.dumps({'n': 5, 'k_list': [3], 'oversampling_list': [3],
                                           'output_path': str(out)}))
        assert run_cli('sweep', '--config', str(config_path)) == 2
        assert 'need n >= 11' in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli('sweep', '--config', str(tmp_path / 'none.json')) == 1

    def test_missing_output_directory_is_refused_before_any_trial(self, tmp_path, monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError('a trial ran')

        monkeypatch.setattr(experiments, '_sweep_trials', refused)
        out = tmp_path / 'absent' / 'rows.csv'
        config_path = tmp_path / 'config.json'
        config_path.write_text(json.dumps({'n': 30, 'k_list': [3], 'oversampling_list': [3],
                                           'output_path': str(out)}))
        assert run_cli('sweep', '--config', str(config_path)) == 2
        assert 'does not exist' in capsys.readouterr().err
        assert not out.parent.exists()

    def test_every_trial_of_a_cell_excluded_is_precondition_error(self, tmp_path, capsys):
        # k=150 leaves the q=5 sketch's head numerically rank-deficient in every trial
        out = tmp_path / 'rows.csv'
        config_path = tmp_path / 'config.json'
        config_path.write_text(json.dumps({
            'n': 200, 'k_list': [150], 'oversampling_list': [4], 'q_list': [5],
            'trials': 4, 'seed': 3, 'output_path': str(out),
        }))
        assert run_cli('sweep', '--config', str(config_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert ('sketchbound: every trial excluded by the head rank check in cell(s) k=150 p=154 q=5; '
                'no file written') in captured.err
        assert not out.exists()


class TestEmpirical:
    def test_json_statistics(self, capsys):
        assert run_cli('empirical', '--synthetic-n', '30', '--k', '3', '--p', '8',
                       '--q', '0', '--trials', '5', '--seed', '2',
                       '--norm', 'frobenius', '--metric', 'general') == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats['trials'] == 5
        assert stats['excluded_trials'] == 0
        assert stats['mean'] > 0
        assert stats['std'] >= 0

    def test_negative_seed_is_precondition_error(self, capsys):
        assert run_cli('empirical', '--synthetic-n', '30', '--k', '3', '--p', '8',
                       '--trials', '2', '--seed', '-1') == 2
        assert 'master_seed' in capsys.readouterr().err

    def test_every_trial_excluded_is_precondition_error(self, tmp_path, capsys):
        # k above the rank of A is refused by the request rule before any trial
        rng = np.random.default_rng(0)
        matrix, out = tmp_path / 'rank3.mtx', tmp_path / 'report.json'
        write_matrix_market(matrix, rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10)))
        request = ('--matrix', str(matrix), '--k', '5', '--p', '8')
        assert run_cli('empirical', *request, '--trials', '3', '--out', str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert 'sketchbound: need rank(A) >= k=5' in captured.err
        assert not out.exists()
        # the bounds of the same request are refused by the same rule
        assert run_cli('bounds', *request) == 2
        assert 'sketchbound: need rank(A) >= k=5' in capsys.readouterr().err
        # a request the rule accepts, whose q=5 sketch grades the head rows below the
        # head rank check's relative cutoff, so that every trial is excluded
        synthetic = ('--synthetic-n', '200', '--k', '150', '--p', '154', '--q', '5', '--trials', '3')
        assert run_cli('empirical', *synthetic, '--out', str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert 'sketchbound: all 3 trials excluded by the head rank check; no report written' in captured.err
        assert not out.exists()

    def test_deterministic_across_runs(self, capsys):
        args = ('empirical', '--synthetic-n', '25', '--k', '2', '--p', '6',
                '--trials', '4', '--seed', '9')
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize('norm', ('spectral', 'frobenius'))
    def test_synthetic_problem_draws_nothing(self, monkeypatch, capsys, norm):
        _, factors = synthetic_matrix(40)
        stats = empirical_error(factors, RsvdSketch(q=1, p=9), 3, 6, norm=norm, seed=4)
        streams = []
        gaussian = sketching.standard_gaussian

        def refused(rows, cols, stream):
            raise AssertionError('the synthetic problem read a stream')

        def recording(rows, cols, stream):
            streams.append(stream)
            return gaussian(rows, cols, stream)

        monkeypatch.setattr(experiments, 'standard_gaussian', refused)
        monkeypatch.setattr(sketching, 'standard_gaussian', recording)
        assert run_cli('empirical', '--synthetic-n', '40', '--k', '3', '--p', '9', '--q', '1',
                       '--trials', '6', '--seed', '4', '--norm', norm) == 0
        report = json.loads(capsys.readouterr().out)
        assert streams == [experiments._trial_stream(4, 1, 9, t) for t in range(6)]
        assert (report['trials'], report['excluded_trials']) == (6, 0)
        assert (report['mean'], report['std']) == (stats.mean, stats.std)

    @pytest.mark.parametrize('q, metric', ((0, 'general'), (2, 'old')))
    def test_report_is_the_sweep_row_of_its_cell(self, capsys, q, metric):
        config = experiments.SweepConfig(n=80, k_list=(4,), oversampling_list=(7,), q_list=(q,),
                                         trials=6, seed=13, metric=metric)
        for row in experiments.run_sweep(config):
            assert run_cli('empirical', '--synthetic-n', '80', '--k', '4', '--p', str(row.p), '--q', str(q),
                           '--trials', '6', '--seed', '13', '--norm', row.norm, '--metric', metric) == 0
            report = json.loads(capsys.readouterr().out)
            assert (report['mean'], report['std']) == (row.empirical_mean, row.empirical_std)
