"""The benchmark's patch points and spans: every binding that
``perfbench/spans.py`` wraps must exist where the benchmark looks it up, and
every span a workload expects must fire, so that renaming or removing one, or
a refactor that routes around one, fails here in milliseconds, and not only in
the benchmark's own self-test. The sweep and bounds ops run on tiny inputs
with the hooks installed; the benchmark's files are only read."""

import numpy as np

from harness_modules import load

from sketchbound.linalg import svd


def _fired(spans, run):
    """Names of the spans that ``run()`` records with every hook installed."""
    tracer = spans.Tracer()
    with spans.installed(tracer):
        run()
    return spans.span_names(tracer)


def test_every_traced_binding_exists():
    spans = load('spans')
    hooks = spans._hooks(spans.Tracer())
    missing = [(getattr(namespace, '__name__', type(namespace).__name__), name) for namespace, name, _ in hooks
               if name not in (namespace if isinstance(namespace, dict) else vars(namespace))]
    assert not missing


def test_a_sweep_fires_every_expected_span(tmp_path):
    spans, workloads = load('spans'), load('workloads')
    experiments = spans.experiments
    # one cell whose n - k tail is above the dense Gram limit, so the spectral residual runs ARPACK
    config = experiments.SweepConfig(**dict(workloads.SweepAcceptance.config, n=700, k_list=[5],
                                            oversampling_list=[10], output_path=str(tmp_path / 'sweep.csv')))

    def run():
        experiments.emit(experiments.run_sweep(config), 'csv', config.output_path)

    assert set(workloads.SweepAcceptance.expected_spans) - _fired(spans, run) == set()


def test_bounds_requests_fire_every_expected_span(tmp_path):
    spans, workloads = load('spans'), load('workloads')
    n, k, p, q = 30, 3, 8, 1
    rng = np.random.default_rng(0)
    paths = {name: str(tmp_path / f'{name}.mtx') for name in ('a', 'mean', 'cov')}
    b = rng.standard_normal((n, n))
    workloads.write_mtx(paths['a'], rng.standard_normal((n, n)))
    workloads.write_mtx(paths['mean'], 0.05 * rng.standard_normal((n, p)))
    workloads.write_mtx(paths['cov'], b @ b.T / n + 1e-3 * np.eye(n))
    zero_mean = ['bounds', '--matrix', paths['a'], '--k', str(k), '--p', str(p), '--q', str(q),
                 '--out', str(tmp_path / 'report.json')]
    mean_cov = zero_mean + ['--mean', paths['mean'], '--cov', paths['cov'],
                            '--variant', ','.join(workloads.MEANCOV_VARIANTS)]

    def run():
        assert [spans.cli.main(argv) for argv in (zero_mean, mean_cov)] == [0, 0]

    assert set(workloads.BoundsCli.expected_spans) - _fired(spans, run) == set()


def test_empirical_requests_fire_every_expected_span(tmp_path):
    spans, workloads = load('spans'), load('workloads')
    (rows, cols), rank, k = (150, 120), 8, 3
    rng = np.random.default_rng(0)
    path = str(tmp_path / 'a.mtx')
    workloads.write_mtx(path, (workloads._haar(rng, rows, rank) * np.exp(-np.arange(rank) / 20.0))
                        @ workloads._haar(rng, cols, rank).T)

    def request(p):
        def run():
            assert spans.cli.main(['empirical', '--matrix', path, '--k', str(k), '--p', str(p), '--trials', '2',
                                   '--norm', 'spectral', '--out', str(tmp_path / 'report.json')]) == 0
        return run

    # p above the rank: round-off residuals of more columns than the dense limit, by Lanczos
    above = _fired(spans, request(rank + 4))
    assert {'kernel.norm2', 'kernel.eigsh'} <= above and 'kernel.eigvalsh' not in above
    # p below the rank: the dense Gram eigensolve
    below = _fired(spans, request(rank - 2))
    assert 'kernel.eigvalsh' in below and 'kernel.norm2' not in below
    assert set(workloads.EmpiricalSmall.expected_spans) - (above | below) == set()


def test_deterministic_bounds_fire_every_expected_span():
    spans, workloads = load('spans'), load('workloads')
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 20)) / np.arange(1, 21)
    z = a @ rng.standard_normal((20, 9))
    factors = svd(a)

    def run():
        assert len(workloads.det_reports(spans.deterministic, a, factors, z, 4)) == 3

    assert set(workloads.DeterministicSamples.expected_spans) - _fired(spans, run) == set()
