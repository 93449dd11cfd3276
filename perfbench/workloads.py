"""The four benchmark workloads: seeded inputs, the ops they run, and the
checks every op output must pass.

Inputs are made here with numpy alone, never with sketchbound, so a change to
the program cannot change what it is fed. Workloads whose bound values are
compared with the golden reference (``golden.json``) draw their requests from
a fixed pool that the reference covers. The seed picks the parameters that do
not set an op's cost (k, random draws, pool members of one kind); the kinds
of op, and their order, are the same for every seed. Every prefix of a run
then has the same cost mix, set-up is always timed on the same kind of op,
and the spread between seeds is the machine's, not the inputs'.

Each workload class has two halves:

* ``generate(seed, inputs_dir, run_dir)`` runs before any timing and returns
  the JSON-serialisable spec (op list and input files) for the worker;
* an instance, built from that spec inside the measuring process, runs one
  op at a time (``run``) and judges its output afterwards (``check``).

Program functions are looked up on their module at call time, so the tracing
hooks in ``spans.py`` see the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

SYNTHETIC_N = 1000
SWEEP_RHO = (2, 12, 22, 32, 42, 52, 62, 72, 82, 92, 100)
ALL_VARIANTS = (
    'cor_frobenius', 'cor_spectral', 'cor_spectral_improved', 'thm3', 'thm3_squared',
    'thm4', 'thm5', 'hmt_frobenius', 'hmt_spectral', 'hmt_power',
)
# thm3_squared is defined for zero-mean sketches only, so requests with a
# --mean file ask for every other variant
MEANCOV_VARIANTS = tuple(v for v in ALL_VARIANTS if v != 'thm3_squared')

# Fixed generator seeds of the pooled inputs the golden reference covers.
BOUNDS_MATRIX_SEED = 20221017
BOUNDS_COV_SEED = 20221018
DET_POOL_SEED = 20221019


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, 'rb') as handle:
        for block in iter(lambda: handle.read(1 << 20), b''):
            digest.update(block)
    return digest.hexdigest()


def json_sha256(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _write_atomic(path, data):
    tmp = f'{path}.tmp-{os.getpid()}'
    with open(tmp, 'wb') as handle:
        handle.write(data)
    os.replace(tmp, path)


def write_mtx(path, m):
    """Dense Matrix Market file whose entries parse back bit for bit."""
    body = '\n'.join(map(repr, m.ravel(order='F').tolist()))
    header = f'%%MatrixMarket matrix array real general\n{m.shape[0]} {m.shape[1]}\n'
    _write_atomic(path, (header + body + '\n').encode())


def write_npy(path, m):
    tmp = f'{path}.tmp-{os.getpid()}.npy'
    np.save(tmp, m)
    os.replace(tmp, path)


def _haar(rng, rows, cols):
    """Orthonormal columns drawn Haar-uniformly (sign-fixed QR of a Gaussian)."""
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _synthetic_spectrum(n):
    """The paper's test spectrum: ten unit values, then ``j^(-1/2)``."""
    return np.concatenate([np.ones(10), np.arange(2, n - 8, dtype=float) ** -0.5])


def _ensure(path, make, expected_sha):
    """Create a pooled input once per checkout; it must match the reference.

    A cached file that does not match (say, a run was killed mid-write) is
    made again; a fresh file that does not match means the generator no
    longer reproduces the inputs the golden values were captured on.
    """
    for attempt in range(2):
        if attempt or not os.path.exists(path):
            make(path)
        if expected_sha is None or sha256_file(path) == expected_sha:
            return
    raise RuntimeError(f'{os.path.basename(path)} does not match the golden reference input')


def _hex_floats(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex_floats(v) for v in value]
    return value


def _all_finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def _golden_mismatches(expected, actual, where):
    """Keys of ``expected`` whose value ``actual`` lacks or differs in (floats as hex)."""
    errors = []
    for key, want in expected.items():
        got = actual.get(key) if isinstance(actual, dict) else None
        if isinstance(want, dict):
            errors += _golden_mismatches(want, got, f'{where}.{key}')
        elif _hex_floats(got) != want:
            errors.append(f'{where}.{key}: {_hex_floats(got)} != golden {want}')
    return errors


class _Workload:
    """Shared plumbing: an op's output is the file the program wrote, read back."""

    name = ''
    config = {}
    expected_spans = ()
    out_name = 'report.json'

    def __init__(self, spec, golden):
        self.golden = golden
        self.ops = spec['ops']
        os.makedirs(os.path.join(spec['run_dir'], 'out'), exist_ok=True)
        self.out_path = os.path.join(spec['run_dir'], 'out', self.out_name)
        self.first_output = {}

    def reset(self):
        """Drop the previous output, so an op that fails cannot pass it off as its own."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def output(self, op):
        with open(self.out_path, 'rb') as handle:
            return handle.read()

    def check(self, op, output):
        """Errors of one op output; empty when the op is correct."""
        errors = self._check(op, output)
        first = self.first_output.setdefault(op['id'], output)
        if output != first:
            errors.append('output differs from an earlier run of the same op')
        return errors

    def _check(self, op, output):
        raise NotImplementedError


class SweepAcceptance(_Workload):
    """The paper's headline Monte Carlo sweep, ``run_sweep`` then ``emit``."""

    name = 'sweep_acceptance'
    out_name = 'sweep.csv'
    # Two trials per cell keep an op near one second while leaving a sample
    # standard deviation for the 3-standard-error domination check.
    config = {
        'n': SYNTHETIC_N, 'k_list': [5, 15], 'oversampling_list': list(SWEEP_RHO),
        'q_list': [0], 'trials': 2, 'norm_list': ['spectral', 'frobenius'],
        'metric': 'general', 'output_format': 'csv',
    }
    expected_spans = (
        'experiments.run_sweep', 'experiments.synthetic_matrix', 'experiments.emit',
        'sketching.standard_gaussian', 'sketching.rsvd_sketch', 'kernel.svd', 'kernel.eigsh',
        'rsvd.closed_form', 'rsvd.hmt',
    )

    @classmethod
    def generate(cls, seed, inputs_dir, run_dir, golden):
        path = os.path.join(run_dir, 'sweep.json')
        config = dict(cls.config, seed=seed, output_path=os.path.join(run_dir, 'out', 'sweep.csv'))
        _write_atomic(path, json.dumps(config, indent=2).encode())
        return {'ops': [{'id': 'sweep'}], 'files': {'config': path}}

    def __init__(self, spec, golden):
        super().__init__(spec, golden)
        from sketchbound import experiments
        self.experiments = experiments
        self.sweep_config = experiments.SweepConfig.from_json(spec['files']['config'])

    def run(self, op):
        rows = self.experiments.run_sweep(self.sweep_config)
        self.experiments.emit(rows, 'csv', self.sweep_config.output_path)

    def _check(self, op, output):
        lines = output.decode().splitlines()
        header = lines[0].split(',')
        golden = self.golden['sweep']
        errors = []
        seen = set()
        for line in lines[1:]:
            row = dict(zip(header, line.split(',')))
            key = f"k{row['k']}-p{row['p']}-q{row['q']}-{row['norm']}"
            seen.add(key)
            values = {name: float(row[name]) for name in header[6:]}
            if not all(math.isfinite(v) for v in values.values()):
                errors.append(f'{key}: non-finite value')
                continue
            if key not in golden:
                errors.append(f'{key}: row not in the golden reference')
                continue
            errors += _golden_mismatches(golden[key], values, key)
            bound = values['cor_frobenius' if row['norm'] == 'frobenius' else 'cor_spectral']
            slack = 3 * values['empirical_std'] / math.sqrt(self.sweep_config.trials)
            if values['empirical_mean'] > bound + slack:
                errors.append(f'{key}: empirical mean exceeds its bound by more than 3 SE')
        if seen != set(golden):
            errors.append(f'rows {sorted(set(golden) ^ seen)} missing or unexpected')
        return errors


def _bounds_pool():
    """Request id -> (k, p, q, with_mean_cov); the golden reference covers all."""
    pool = {}
    for k in (5, 10, 15):
        for rho in (5, 20, 50):
            for q in (0, 1, 2):
                pool[f'k{k}-p{k + rho}-q{q}'] = (k, k + rho, q, False)
    for k, p in ((5, 25), (10, 40), (15, 65)):
        for q in (0, 1, 2):
            pool[f'k{k}-p{p}-q{q}-meancov'] = (k, p, q, True)
    return pool


def _make_bounds_matrix(path):
    rng = np.random.default_rng(BOUNDS_MATRIX_SEED)
    u = _haar(rng, SYNTHETIC_N, SYNTHETIC_N)
    v = _haar(rng, SYNTHETIC_N, SYNTHETIC_N)
    write_mtx(path, (u * _synthetic_spectrum(SYNTHETIC_N)) @ v.T)


def _make_bounds_cov(path):
    """A well-conditioned dense covariance unrelated to the singular basis."""
    rng = np.random.default_rng(BOUNDS_COV_SEED)
    b = rng.standard_normal((SYNTHETIC_N, SYNTHETIC_N))
    c = b @ b.T / SYNTHETIC_N + 1e-3 * np.eye(SYNTHETIC_N)
    write_mtx(path, 0.5 * (c + c.T))


def _make_bounds_mean(p):
    def make(path):
        write_mtx(path, 0.05 * np.random.default_rng([BOUNDS_COV_SEED, p]).standard_normal((SYNTHETIC_N, p)))
    return make


def bounds_input_files(inputs_dir, golden):
    """Write (once) and verify the pooled Matrix Market inputs of ``bounds_cli``."""
    shas = golden['inputs'] if golden else {}
    makers = {'bounds-A.mtx': _make_bounds_matrix, 'bounds-cov.mtx': _make_bounds_cov}
    for k, p, q, meancov in _bounds_pool().values():
        if meancov:
            makers[f'bounds-mean-p{p}.mtx'] = _make_bounds_mean(p)
    files = {}
    for name, make in makers.items():
        path = os.path.join(inputs_dir, name)
        _ensure(path, make, shas.get(name))
        files[name] = path
    return files


def bounds_argv(request_id, files, out_path):
    k, p, q, meancov = _bounds_pool()[request_id]
    argv = ['bounds', '--matrix', files['bounds-A.mtx'], '--k', str(k), '--p', str(p),
            '--q', str(q), '--out', out_path]
    if meancov:
        argv += ['--mean', files[f'bounds-mean-p{p}.mtx'], '--cov', files['bounds-cov.mtx'],
                 '--variant', ','.join(MEANCOV_VARIANTS)]
    return argv


class _CliWorkload(_Workload):
    """Each op is one ``sketchbound`` request through ``cli.main``."""

    def __init__(self, spec, golden):
        super().__init__(spec, golden)
        from sketchbound import cli
        self.cli = cli

    def run(self, op):
        code = self.cli.main(op['argv'])
        if code != 0:
            raise RuntimeError(f'sketchbound exited with code {code}')


class BoundsCli(_CliWorkload):
    """``sketchbound bounds --matrix`` on the n=1000 synthetic matrix file."""

    name = 'bounds_cli'
    # The op list is two blocks of four requests: three zero-mean all-variant
    # requests, one per q, then one general Gaussian sketch given by
    # --mean/--cov files.
    config = {'n': SYNTHETIC_N, 'blocks': 2, 'zero_mean_q': [0, 1, 2], 'mean_cov_per_block': 1,
              'pool': sorted(_bounds_pool())}
    expected_spans = (
        'cli.main', 'linalg.read_matrix_market', 'linalg.svd', 'rsvd.closed_form', 'rsvd.hmt',
        'sketching.rsvd_distribution', 'sketching.from_moments', 'expectation.bounds',
        'expectation.project_covariance',
    )

    @classmethod
    def generate(cls, seed, inputs_dir, run_dir, golden):
        files = bounds_input_files(inputs_dir, golden)
        rng = np.random.default_rng(seed)
        pool = _bounds_pool()
        zero = [rid for rid, entry in pool.items() if not entry[3]]
        meancov = [rid for rid, entry in pool.items() if entry[3]]
        ids = []
        for _ in range(cls.config['blocks']):
            block = [str(rng.choice([rid for rid in zero if pool[rid][2] == q])) for q in cls.config['zero_mean_q']]
            block += [str(rid) for rid in rng.choice(meancov, cls.config['mean_cov_per_block'], replace=False)]
            ids += block
        out_path = os.path.join(run_dir, 'out', 'report.json')
        return {'ops': [{'id': rid, 'argv': bounds_argv(rid, files, out_path)} for rid in ids],
                'files': files}

    def _check(self, op, output):
        report = json.loads(output)
        if not _all_finite(report):
            return ['non-finite value in the report']
        return _golden_mismatches(self.golden['bounds'][op['id']], report['variants'], op['id'])


class EmpiricalSmall(_CliWorkload):
    """``sketchbound empirical --matrix`` on a 500x400 rank-60 matrix file."""

    name = 'empirical_small'
    # p_below < rank <= p_above: above the rank every residual is at
    # round-off level and is recomputed from the explicit residual
    config = {'shape': [500, 400], 'rank': 60, 'decay': 20.0, 'p_below': 40, 'p_above': 72,
              'q': [0, 1, 2], 'norms': ['frobenius', 'spectral'], 'k_range': [2, 20], 'trials': 4}
    expected_spans = (
        'cli.main', 'linalg.read_matrix_market', 'linalg.svd', 'experiments.empirical_error',
        'sketching.rsvd_sketch', 'sketching.standard_gaussian', 'kernel.svd', 'kernel.eigvalsh',
        'kernel.norm2',
    )

    @classmethod
    def generate(cls, seed, inputs_dir, run_dir, golden):
        c = cls.config
        rng = np.random.default_rng(seed)
        (m, n), rank = c['shape'], c['rank']
        sigma = np.exp(-np.arange(rank) / c['decay'])
        path = os.path.join(run_dir, 'empirical-A.mtx')
        write_mtx(path, (_haar(rng, m, rank) * sigma) @ _haar(rng, n, rank).T)
        out_path = os.path.join(run_dir, 'out', 'report.json')
        ops = []
        for q in c['q']:
            for norm in c['norms']:
                for p in (c['p_below'], c['p_above']):
                    k = int(rng.integers(c['k_range'][0], c['k_range'][1] + 1))
                    trial_seed = int(rng.integers(2**31))
                    ops.append({
                        'id': f'k{k}-p{p}-q{q}-{norm}-s{trial_seed}',
                        'trials': c['trials'],
                        'argv': ['empirical', '--matrix', path, '--k', str(k), '--p', str(p),
                                 '--q', str(q), '--trials', str(c['trials']), '--seed', str(trial_seed),
                                 '--norm', norm, '--metric', 'general', '--out', out_path],
                    })
        return {'ops': ops, 'files': {'matrix': path}}

    def _check(self, op, output):
        report = json.loads(output)
        errors = []
        if not _all_finite(report):
            errors.append('non-finite value in the report')
        if report['trials'] + report['excluded_trials'] != op['trials']:
            errors.append('trial count does not add up')
        return errors


DET_SKETCH_COLUMNS = 30


def _det_pool():
    """Instance id -> (rows, cols, q) for the per-sample deterministic checks."""
    pool = {}
    for rows, cols in ((400, 300), (500, 350), (600, 400)):
        for q in (0, 1, 2):
            for variant in range(3):
                pool[f'{rows}x{cols}-q{q}-v{variant}'] = (rows, cols, q)
    return pool


def _det_params(instance_id):
    """``(rows, cols, q, k)`` of a pooled instance and the generator for its arrays."""
    rows, cols, q = _det_pool()[instance_id]
    rng = np.random.default_rng([DET_POOL_SEED, *instance_id.encode()])
    return (rows, cols, q, int(rng.integers(3, 16))), rng


def det_k(instance_id):
    return _det_params(instance_id)[0][3]


def _det_arrays(instance_id):
    """``A`` with a ``j^(-1/2)`` spectrum and ``Z = (A A^T)^q A G``, G with 30 columns."""
    (rows, cols, q, _), rng = _det_params(instance_id)
    p = DET_SKETCH_COLUMNS
    sigma = np.arange(1, cols + 1, dtype=float) ** -0.5
    a = (_haar(rng, rows, cols) * sigma) @ _haar(rng, cols, cols).T
    z = a @ rng.standard_normal((cols, p))
    for _ in range(q):
        z = a @ (a.T @ z)
    return a, z


def det_input_files(instance_id, inputs_dir, golden):
    """Write (once) and verify the ``.npy`` inputs of one pooled instance."""
    shas = golden['inputs'] if golden else {}
    files = {}
    for part in ('A', 'Z'):
        name = f'det-{instance_id}-{part}.npy'
        path = os.path.join(inputs_dir, name)

        def make(target, part=part):
            a, z = _det_arrays(instance_id)
            write_npy(target, a if part == 'A' else z)
        _ensure(path, make, shas.get(name))
        files[part] = path
    return files


def det_reports(deterministic, a, factors, z, k):
    """The three per-sample bounds of one instance, as plain dicts."""
    return [
        deterministic.sine_tangent_gap_bound(a, factors, z, k, 'frobenius').as_dict(),
        deterministic.sine_tangent_gap_bound(a, factors, z, k, 'spectral').as_dict(),
        deterministic.deflated_spectral_gap_bound(a, factors, z, k).as_dict(),
    ]


class DeterministicSamples(_Workload):
    """Per-sample deterministic bounds on seeded (A, Z, k) instances."""

    name = 'deterministic_samples'
    # one instance per (shape, q) class, so every op list has the same mix
    config = {'pool': sorted(_det_pool()), 'per_class': 1, 'sketch_columns': DET_SKETCH_COLUMNS,
              'lhs_tolerance': 1e-9}
    expected_spans = (
        'deterministic.bounds', 'deterministic.angle_operators', 'deterministic.residual_gap_squared',
        'linalg.orthonormal_basis', 'linalg.pseudo_inverse',
    )

    @classmethod
    def generate(cls, seed, inputs_dir, run_dir, golden):
        rng = np.random.default_rng(seed)
        classes = {}
        for instance_id, shape_q in _det_pool().items():
            classes.setdefault(shape_q, []).append(instance_id)
        ids = [str(rng.choice(members)) for members in classes.values()]
        files = {rid: det_input_files(rid, inputs_dir, golden) for rid in ids}
        return {'ops': [{'id': rid, 'k': det_k(rid)} for rid in ids], 'files': files}

    def __init__(self, spec, golden):
        super().__init__(spec, golden)
        from sketchbound import deterministic, linalg
        self.deterministic = deterministic
        self.instances = {}
        for rid, files in spec['files'].items():
            a = np.load(files['A'])
            factors = linalg.svd(a)
            factors.left()  # the full left factor is cached lazily; build it before timing
            self.instances[rid] = (a, factors, np.load(files['Z']))

    def reset(self):
        self.last = None

    def run(self, op):
        a, factors, z = self.instances[op['id']]
        self.last = det_reports(self.deterministic, a, factors, z, op['k'])

    def output(self, op):
        if self.last is None:
            raise RuntimeError('the op produced no reports')
        return json.dumps(_hex_floats(self.last)).encode()

    def _check(self, op, output):
        reports = [{k: float.fromhex(v) if isinstance(v, str) and k != 'norm' else v
                    for k, v in r.items()} for r in json.loads(output)]
        errors = []
        for index, report in enumerate(reports):
            if not _all_finite(report):
                errors.append(f'report {index}: non-finite value')
            if report['lhs_gap'] > report['bound'] + self.config['lhs_tolerance']:
                errors.append(f'report {index}: lhs_gap exceeds the bound')
        golden = self.golden['deterministic'][op['id']]
        for index, (want, got) in enumerate(zip(golden, reports)):
            errors += _golden_mismatches(want, got, f"{op['id']}[{index}]")
        return errors


WORKLOADS = {w.name: w for w in (SweepAcceptance, EmpiricalSmall, BoundsCli, DeterministicSamples)}
