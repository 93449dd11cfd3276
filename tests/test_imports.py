"""The package's import structure: every import sits at module level, and the
modules of ``sketchbound`` import one another without a cycle, so each one
is fully loaded before another reads it."""

import ast
import pathlib

import sketchbound

PACKAGE = pathlib.Path(sketchbound.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob('*.py'))}


def package_imports(node):
    """The package modules that one ``import`` or ``from ... import`` statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:  # the package's modules are one level deep, so a relative import is from the package
        base = '.'.join(filter(None, ('sketchbound' if node.level else '', node.module)))
        names = [base] + [f'{base}.{alias.name}' for alias in node.names]
    return {name.split('.')[1] for name in names if name.startswith('sketchbound.')} & set(MODULES)


def test_no_function_holds_an_import():
    found = [f'{module}.py:{inner.lineno} in {node.name}'
             for module, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_no_module_builds_its_own_threads():
    """Sweep threads come from one ``ThreadPoolExecutor``: no module constructs
    a ``threading.Thread`` or ``threading.Event`` of its own."""
    banned = {'Thread', 'Event'}
    found = [f'{module}.py:{node.lineno}'
             for module, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in banned
             and isinstance(node.value, ast.Name) and node.value.id == 'threading'
             or isinstance(node, ast.ImportFrom) and node.module == 'threading'
             and any(alias.name in banned for alias in node.names)]
    assert found == []


def test_module_imports_form_an_acyclic_graph():
    graph = {module: set().union(*(package_imports(node) for node in tree.body
                                   if isinstance(node, (ast.Import, ast.ImportFrom))))
             for module, tree in MODULES.items()}
    assert graph['__init__'] >= {'deterministic', 'experiments', 'linalg'}  # the parser sees the package
    done, path = set(), []

    def visit(module):
        assert module not in path, f"import cycle: {' -> '.join(path[path.index(module):] + [module])}"
        if module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                visit(target)
            path.pop()
            done.add(module)

    for module in graph:
        visit(module)
