"""The benchmark harness's modules, loaded read-only for the tests that guard it.

:func:`load` compiles ``perfbench/<name>.py`` from its source into a fresh
module, so nothing is written under ``perfbench/`` (not even a bytecode cache)
and nothing is added to ``sys.modules``.
"""

import pathlib
import types

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / 'perfbench'


def load(name):
    """A fresh module ``perfbench_<name>`` run from ``perfbench/<name>.py``."""
    path = PERFBENCH / f'{name}.py'
    module = types.ModuleType(f'perfbench_{name}')
    module.__file__ = str(path)
    exec(compile(path.read_text(), path, 'exec'), vars(module))
    return module
