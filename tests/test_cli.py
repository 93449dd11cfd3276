import json

import numpy as np
import pytest

from sketchbound import cli, experiments, sketching
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

    def test_k_out_of_range_is_precondition_error(self):
        assert run_cli('bounds', '--synthetic-n', '30', '--k', '5', '--p', '6',
                       '--variant', 'cor_frobenius') == 2

    def test_missing_matrix_file_is_io_error(self, tmp_path):
        assert run_cli('bounds', '--matrix', str(tmp_path / 'none.mtx'),
                       '--k', '2', '--p', '6', '--variant', 'cor_frobenius') == 1


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

    def test_missing_config_file(self, tmp_path):
        assert run_cli('sweep', '--config', str(tmp_path / 'none.json')) == 1

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
        rng = np.random.default_rng(0)
        matrix, out = tmp_path / 'rank3.mtx', tmp_path / 'report.json'
        write_matrix_market(matrix, rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10)))
        request = ('--matrix', str(matrix), '--k', '5', '--p', '8')
        assert run_cli('empirical', *request, '--trials', '3', '--out', str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert 'sketchbound: all 3 trials excluded by the head rank check' in captured.err
        assert not out.exists()
        # the bounds of the same request are refused too
        assert run_cli('bounds', *request) == 2

    def test_deterministic_across_runs(self, capsys):
        args = ('empirical', '--synthetic-n', '25', '--k', '2', '--p', '6',
                '--trials', '4', '--seed', '9')
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize('norm', ('spectral', 'frobenius'))
    def test_synthetic_problem_draws_nothing(self, monkeypatch, capsys, norm):
        a, factors = synthetic_matrix(40, 4, left_basis=True)
        stats = empirical_error(a, factors, RsvdSketch(q=1, p=9), 3, 6, norm=norm, seed=4)
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
