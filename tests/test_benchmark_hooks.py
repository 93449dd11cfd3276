"""The benchmark's patch points: every binding that ``perfbench/spans.py``
wraps must exist where the benchmark looks it up, so that renaming or
removing one fails here, in milliseconds, and not only in the benchmark's
own self-test. The hooks are built, never installed, and no op runs."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    spec = importlib.util.spec_from_file_location('perfbench_spans', os.path.join(ROOT, 'perfbench', 'spans.py'))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    spans = _spans()
    hooks = spans._hooks(spans.Tracer())
    missing = [(getattr(namespace, '__name__', type(namespace).__name__), name) for namespace, name, _ in hooks
               if name not in (namespace if isinstance(namespace, dict) else vars(namespace))]
    assert not missing
