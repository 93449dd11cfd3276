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


def uses_outside(reads, home_module, home_function):
    """The lines of the package where ``reads(tree)`` finds a use outside the function
    ``home_module.home_function``, and the lines of that function where it finds one."""
    home = set().union(*(reads(node) for node in MODULES[home_module].body
                         if isinstance(node, ast.FunctionDef) and node.name == home_function))
    found = sorted(f'{module}.py:{line}' for module, tree in MODULES.items()
                   for line in reads(tree) - (home if module == home_module else set()))
    return found, home


def test_math_e_is_read_only_in_pinv_moments():
    """HMT's bound ``e sqrt(p) / (p - k)`` on ``E||G^+||_2`` has one home,
    ``rsvd._pinv_moments``: no other code of the package reads ``math.e``."""
    def reads(tree):
        return {node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == 'e'
                and isinstance(node.value, ast.Name) and node.value.id == 'math'
                or isinstance(node, ast.ImportFrom) and node.module == 'math'
                and any(alias.name == 'e' for alias in node.names)}
    found, home = uses_outside(reads, 'rsvd', '_pinv_moments')
    assert found == []
    assert home  # the guard is not vacuous


def test_the_symmetric_part_is_formed_only_in_symmetric_part():
    """``0.5 (B + B^T)`` has one home, ``linalg._symmetric_part``: no other code of the
    package adds a matrix to its transpose, as ``x + x.T`` or ``np.add(x, x.T, ...)``."""
    def is_pair(a, b):
        return any(isinstance(t, ast.Attribute) and t.attr == 'T' and ast.dump(t.value) == ast.dump(other)
                   for t, other in ((a, b), (b, a)))

    def reads(tree):
        return {node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and is_pair(node.left, node.right)
                or isinstance(node, ast.Call) and ast.unparse(node.func) == 'np.add' and len(node.args) >= 2
                and is_pair(*node.args[:2])}
    found, home = uses_outside(reads, 'linalg', '_symmetric_part')
    assert found == []
    assert home


def test_the_spectrum_rule_is_the_only_reader_of_np_diff():
    """A spectrum is checked in one place, ``linalg._check_spectrum``, the package's only ``np.diff``."""
    def reads(tree):
        return {node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and ast.unparse(node) == 'np.diff'}
    found, home = uses_outside(reads, 'linalg', '_check_spectrum')
    assert found == []
    assert home
