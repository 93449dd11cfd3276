"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, one short traced run must be correct, must fire every
span its workload lists (``expected_spans`` in ``workloads.py``), must keep
the outputs of traced ops byte-identical to the untraced ones, and must report
exactly the per-layer metrics of ``BENCHMARK.json``. A copy of the benchmark
without the program next to it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(cwd, workload):
    argv = [sys.executable, os.path.join(cwd, 'perfbench', 'run.py'), '--workload', workload,
            '--seed', '7', '--seconds', '1', '--trace', '1']
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    root = os.getcwd()
    with open('BENCHMARK.json') as handle:
        bench = json.load(handle)
    layer_names = [m['name'] for m in bench['per_layer']]
    failures = []
    for workload in (w['name'] for w in bench['workloads']):
        proc = _run(root, workload)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            failures.append(f'{workload}: exit {proc.returncode}\n{proc.stderr[-1000:]}')
            continue
        result = json.loads(lines[-1])
        if not result['correct'] or result['failed']:
            failures.append(f'{workload}: not correct\n' + '\n'.join(lines[:-1]))
        if list(result['metrics']) != layer_names:
            failures.append(f'{workload}: per-layer metrics differ from BENCHMARK.json')
        print(f'{workload}: correct={result["correct"]} attempted={result["attempted"]}')

    bare = os.path.join(root, '.perfbench', 'selftest-bare')
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, 'perfbench'), ignore=shutil.ignore_patterns('__pycache__'))
    shutil.copy('BENCHMARK.json', bare)
    proc = _run(bare, bench['workloads'][0]['name'])
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append('a copy without the program did not fail cleanly')
    shutil.rmtree(bare)

    for failure in failures:
        print('FAIL ' + failure)
    print('selftest ' + ('failed' if failures else 'passed'))
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
