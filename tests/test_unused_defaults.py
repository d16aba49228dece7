"""Guard against knobs that nothing turns and facts stated twice.

Every defaulted parameter of a function in ``src/conewave`` must be set
by some call in ``src/``, ``scripts/`` or ``tests/``; a default that no
call overrides is a constant and should be written as one.  Calls are
matched to definitions by name (the called name or attribute), so a
parameter counts as set when any call of that name passes it by keyword
or by position before any ``*args``; a ``*args`` / ``**kwargs``
pass-through sets nothing.

More checks keep each fact in one place: no function takes a
dimension ``d`` beside a discretization ``disc`` (which carries
``disc.d``), ``radialode.integrate`` is the only caller of
``_rk45.solve`` (and the only one that passes it value-only samples),
every RHS call of a ``green-check`` run is one (batch, 2) state at one
scalar abscissa, and ``radialode.integrate`` alone builds the Frobenius
seeds, for a whole batch of lam, never one lam per loop pass.

The last checks keep work done once: the blowup fit's independent runs
(its coarse T grid and the detuned pair of the instability demo) are one
stacked evolution each, each re-fit of its error bar is one run at T*,
the fit and its error bar build one coarse grid, and the nonlinearity
checks its dimension only on the first call for a d.

No module of ``src/``, ``tests/`` or ``scripts/`` imports a name it
never reads; the bindings through which the benchmark's tracer patches
the library are read by the tracer and carry ``# noqa: F401``.

Finally, library code reaches every top-level function and class of
``src/conewave``, so a single-lam or test-only copy of a library path
cannot come back unnoticed; oracles that only tests call live in
``tests/closed_forms.py``.  Library code is ``scripts/``, the
module-level code of ``src/`` and the functions and classes these
reach, transitively; a name read only inside unreached code, or only
imported, is not reached.  Methods are not scanned one by one: a class
counts as reached as a whole.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from conewave import blowup as bl
from conewave import cli
from conewave import collocation as co
from conewave import model
from conewave import radialode as ro

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
    if any(kw.arg == param for kw in call.keywords):
        return True
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    n_positional = starred[0] if starred else len(call.args)
    return index is not None and n_positional > index


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


def test_pass_through_sets_no_default():
    # a wrapper solve(g, *args, **kwargs) sets the parameter it names
    # before the star, and none that the star arguments may carry
    call = ast.parse("solve(g, *args, **kwargs)").body[0].value
    assert _is_set(call, "g", 0)
    assert not _is_set(call, "rtol", 1)
    assert not _is_set(call, "max_steps", None)


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


def _calls(call, name, module):
    """Whether call is ``name(...)`` or ``module.name(...)``."""
    func = call.func
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name) and func.value.id == module)


def _callers(name, module, keyword=None):
    """'module.function' of every call of name (bare or as module.name) in
    src/conewave, one entry per call; with keyword, only the calls that
    pass that keyword argument."""
    callers = []

    def visit(node, stem, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, stem, child.name)
                continue
            if (isinstance(child, ast.Call) and _calls(child, name, module)
                    and (keyword is None
                         or any(kw.arg == keyword for kw in child.keywords))):
                callers.append(f"{stem}.{owner}")
            visit(child, stem, owner)

    for stem, tree in _package_trees():
        visit(tree, stem, "<module>")
    return callers


def test_rk45_solve_is_called_only_by_integrate():
    assert _callers("solve", "_rk45") == ["radialode.integrate"]


def test_green_check_rhs_calls_are_one_state_at_one_abscissa(
        monkeypatch, tmp_path):
    # one RK45 path: checkpoints are landed on and quadrature nodes are
    # Hermite samples, so no RHS call sees an array of abscissae
    shapes = []
    batch_rhs = ro._batch_rhs

    def recorded(d, lam_arr, *args):
        f = batch_rhs(d, lam_arr, *args)
        batch = len(lam_arr)

        def rhs(x, y):
            shapes.append((np.ndim(x), y.shape, batch))
            return f(x, y)
        return rhs

    monkeypatch.setattr(ro, "_batch_rhs", recorded)
    assert cli.cmd_green_check(cli.RunConfig(), tmp_path) == cli.EXIT_OK
    assert len(shapes) > 1000
    assert all(nd == 0 and shape == (batch, 2) for nd, shape, batch in shapes)


def test_only_integrate_passes_rk45_samples():
    # value-only points are declared by one caller, so no option elsewhere
    # chooses between a Hermite value and a landed step
    assert _callers("solve", "_rk45", "samples") == ["radialode.integrate"]


def test_frobenius_seeds_are_built_only_by_integrate():
    # the Frobenius pairs at 0 and 1 are known to one function; the
    # resolvent's rho = 1 trace comes from the equation, not from them
    for name in ("seed_one", "seed_origin"):
        assert set(_callers(name, "frobenius")) == {"radialode.integrate"}


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


@pytest.fixture(scope="module")
def small_fit():
    return bl.fit_blowup_time(
        co.build(4, 32), bl.bump_perturbation(delta=0.1, amplitude=0.05),
        tau_max=4.0)


def test_fit_grid_is_one_evolution(evolutions, fit_stages):
    fit = bl.fit_blowup_time(
        co.build(4, 32), bl.bump_perturbation(delta=0.1, amplitude=0.05),
        tau_max=4.0)
    # the coarse 5-point grid, then one run per coarse secant step; the
    # fine warm start, its Newton step, then one run per fine secant step
    coarse, fine = fit_stages(evolutions, fit.n_evolutions, 32, tau_max=4.0)
    assert len(evolutions) == len(coarse) + len(fine)


def test_each_refit_is_one_run_at_t_star(small_fit, evolutions,
                                        monkeypatch):
    starts, initial_data = [], bl.initial_data
    monkeypatch.setattr(bl, "initial_data", lambda disc, T, v:
                        starts.append(T) or initial_data(disc, T, v))
    err = bl.refinement_error(small_fit)
    # (N, 2 dtau), then the coarse grid at dtau, one state each
    assert [entry[:3] for entry in evolutions] == [(32, 0.02, 1),
                                                   (21, 0.01, 1)]
    assert starts == [small_fit.T_star] * 2
    assert err["n_evolutions_err"] == 2


def test_coarse_grid_is_built_once(monkeypatch):
    # the fit builds it and the error bar's (2N/3, dtau) re-fit reuses it
    built, build = [], bl.build
    monkeypatch.setattr(bl, "build",
                        lambda d, N: built.append(N) or build(d, N))
    fit = bl.fit_blowup_time(
        co.build(4, 32), bl.bump_perturbation(delta=0.1, amplitude=0.05),
        tau_max=4.0)
    bl.refinement_error(fit)
    assert built == [21]


def test_instability_pair_is_one_evolution(evolutions):
    bl.instability_demo(co.build(4, 32), tau_max=1.0)
    assert [entry[2] for entry in evolutions] == [2]  # the detuned pair


def test_nonlinearity_checks_d_once(monkeypatch):
    x = np.linspace(-0.5, 0.5, 7)
    first = model.nonlinearity(5, x)

    def fail(*args, **kwargs):
        raise AssertionError("check_dimension called again")

    monkeypatch.setattr(model, "check_dimension", fail)
    assert np.array_equal(model.nonlinearity(5, x), first)


def _names_read(node):
    """Every name and attribute read under node; imports do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _names_reached_by_library_code():
    """The names that library code reaches: those read in scripts/ and
    in the module-level code of src/, then, to a fixed point, those read
    in the top-level functions and classes of src/ so reached."""
    defs, todo = {}, set()
    for path in sorted((ROOT / "scripts").rglob("*.py")):
        todo |= _names_read(ast.parse(path.read_text(), str(path)))
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                todo |= _names_read(node)
    reached = set()
    while todo:
        reached |= todo
        todo = {name for node_name in todo for node in defs.get(node_name, ())
                for name in _names_read(node)} - reached
    return reached


def test_library_code_reaches_every_definition():
    reached = _names_reached_by_library_code()
    unused = {f"{stem}.{node.name}" for stem, tree in _package_trees()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in reached}
    assert unused == set()


def _unused_imports(path):
    """'file: name' of each name that ``path`` imports and never reads.

    A binding marked ``# noqa: F401`` on its line counts as read: the
    benchmark's tracer patches the library through it.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if (name not in read
                        and "# noqa: F401" not in lines[alias.lineno - 1]):
                    unused.append(f"{path.relative_to(ROOT)}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_reads():
    unused = [item for sub in CALLER_DIRS
              for path in sorted((ROOT / sub).rglob("*.py"))
              for item in _unused_imports(path)]
    assert unused == []
