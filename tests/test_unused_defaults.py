"""Guard against knobs that nothing turns and facts stated twice.

Every defaulted parameter of a function in ``src/conewave`` must be set
by some call in ``src/``, ``scripts/`` or ``tests/``; a default that no
call overrides is a constant and should be written as one.  Calls are
matched to definitions by name (the called name or attribute), so a
parameter counts as set when any call of that name passes it by keyword,
by position, or through ``*args`` / ``**kwargs``.

Three more checks keep each fact in one place: no function takes a
dimension ``d`` beside a discretization ``disc`` (which carries
``disc.d``), ``radialode.integrate`` is the only caller of
``_rk45.solve``, and the Frobenius seeds are built for a whole batch of
lam, never one lam per loop pass.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conewave"
CALLER_DIRS = ("src", "scripts", "tests")

# _rk45.solve(max_steps) is set only by the benchmark's self-test, which
# checks the step budget; the benchmark directory is not a caller here.
ALLOWED = {("_rk45", "solve", "max_steps")}


def _defaulted_params(tree):
    """(function name, [(param name, positional index or None)]) per def.

    A class's ``__init__`` is reported under the class name, which is how
    it is called.  Methods drop ``self``/``cls`` from the positional index.
    """
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, cls=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                shift = 1 if cls is not None and positional and \
                    positional[0].arg in ("self", "cls") else 0
                first_default = len(positional) - len(args.defaults)
                params = [(a.arg, i - shift)
                          for i, a in enumerate(positional) if i >= first_default]
                params += [(a.arg, None) for a, dflt in
                           zip(args.kwonlyargs, args.kw_defaults) if dflt is not None]
                name = cls if child.name == "__init__" and cls else child.name
                if params:
                    out.append((name, params))
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return out


def _calls_by_name():
    calls = {}
    for sub in CALLER_DIRS:
        for path in sorted((ROOT / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = _called_name(node)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _called_name(node):
    """The called name or attribute of a call node, else None."""
    func = node.func if isinstance(node, ast.Call) else None
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _is_set(call, param, index):
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def unset_defaults():
    calls = _calls_by_name()
    unset = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, params in _defaulted_params(ast.parse(path.read_text())):
            for param, index in params:
                if not any(_is_set(c, param, index) for c in calls.get(name, ())):
                    unset.add((path.stem, name, param))
    return unset


def test_every_default_is_set_by_some_call():
    assert unset_defaults() == ALLOWED


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def test_no_function_takes_d_beside_disc():
    both = []
    for stem, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if {"d", "disc"} <= names:
                    both.append(f"{stem}.{node.name}")
    assert both == []


def _calls_rk45_solve(call):
    func = call.func
    return (isinstance(func, ast.Name) and func.id == "solve"
            or isinstance(func, ast.Attribute) and func.attr == "solve"
            and isinstance(func.value, ast.Name) and func.value.id == "_rk45")


def test_rk45_solve_is_called_only_by_integrate():
    callers = []

    def visit(node, stem, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, stem, child.name)
                continue
            if isinstance(child, ast.Call) and _calls_rk45_solve(child):
                callers.append(f"{stem}.{owner}")
            visit(child, stem, owner)

    for stem, tree in _package_trees():
        visit(tree, stem, "<module>")
    assert callers == ["radialode.integrate"]


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def test_seeds_are_not_built_per_lambda():
    per_lambda = []
    for stem, tree in _package_trees():
        for loop in ast.walk(tree):
            if not isinstance(loop, _LOOPS):
                continue
            per_lambda += [f"{stem}:{node.lineno}" for node in ast.walk(loop)
                           if _called_name(node) in ("seed_origin", "seed_one")]
    assert per_lambda == []
