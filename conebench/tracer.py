"""Outside-in span tracer.

The tracer wraps functions of the conewave package from outside:
it replaces each function at every module binding that refers to it, so
a name imported into another module (``from .evolve import evolve``) is
traced too.  Each wrapped call records one span (name, start, end,
parent span) in memory; hot callbacks are counted instead of spanned.
``uninstall`` puts every original object back.

A binding the caller names but that no longer exists, or that no longer
refers to the wrapped object, raises ``BindingError`` at install time,
so a renamed or removed layer stops the traced run instead of silently
dropping out of the numbers.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "conewave"  # bindings of a wrapped function are searched here


class BindingError(RuntimeError):
    """A binding the tracer must wrap is missing or names another object."""


def resolve(path):
    """Resolve ``"pkg.module:attr.sub"`` to (owner, attribute name, value).

    The final attribute must live in the owner's own namespace, so a
    method inherited from a base class is reported rather than shadowed.
    """
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise BindingError(f"{path}: cannot import {module_name}") from exc
    *parents, attr = attr_path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise BindingError(f"{path}: {name!r} is missing")
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise BindingError(f"{path}: {attr!r} is missing")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Span and counter store for one traced run.

    ``spans`` holds tuples (span id, parent id, name, start, end, nested)
    with times from ``time.perf_counter``; parent id 0 is the root and
    ``nested`` is true when an enclosing span has the same name.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self._stack = [0]
        self._active = Counter()
        self._next_id = 1
        self._patches = []

    # -- spans ------------------------------------------------------------

    def active(self, name):
        """True while a span called ``name`` is open."""
        return self._active[name] > 0

    def count(self, name, n=1):
        self.counters[name] += n

    def _enter(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        nested = self._active[name] > 0
        self._stack.append(sid)
        self._active[name] += 1
        return sid, parent, nested, time.perf_counter()

    def _exit(self, name, sid, parent, nested, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        self.spans.append((sid, parent, name, t0, t1, nested))

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        state = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, *state)

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _package_modules():
        return [m for n, m in list(sys.modules.items()) if m is not None
                and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def wrap(self, name, path, aliases=(), hook=None):
        """Trace ``path`` as span ``name`` at every binding in the package.

        ``aliases`` are further bindings (same path syntax) that must refer
        to the same object.  ``hook(call, args, kwargs)``, if given,
        performs the call and may read its arguments and result to update
        counters.
        """
        owner, attr, original = resolve(path)
        targets = {(id(owner), attr): (owner, attr)}
        for alias in aliases:
            a_owner, a_attr, value = resolve(alias)
            if value is not original:
                raise BindingError(f"{alias} no longer refers to {path}")
            targets[(id(a_owner), a_attr)] = (a_owner, a_attr)
        for module in self._package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    targets[(id(module), key)] = (module, key)

        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent, nested, t0 = tracer._enter(name)
            try:
                if hook is None:
                    return original(*args, **kwargs)
                return hook(original, args, kwargs)
            except Exception:
                tracer.count(name + ".raised")
                raise
            finally:
                tracer._exit(name, sid, parent, nested, t0)

        for t_owner, t_attr in targets.values():
            self._patches.append((t_owner, t_attr, vars(t_owner)[t_attr]))
            setattr(t_owner, t_attr, traced)

    def uninstall(self):
        """Restore every patched binding, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _children(spans):
    children = defaultdict(list)
    for _, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    return children


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    is not counted twice.  Self time is a span's duration minus the part
    of it that its child spans cover.
    """
    children = _children(spans)
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, _, name, t0, t1, nested in spans:
        row = stats[name]
        row["calls"] += 1
        if not nested:
            row["s"] += t1 - t0
        row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
    return dict(stats)


def child_coverage(spans, name):
    """Per span called ``name``: the share of its duration its children cover."""
    children = _children(spans)
    return [_covered(children.get(sid, ()), t0, t1) / (t1 - t0)
            for sid, _, n, t0, t1, _ in spans if n == name and t1 > t0]


def write_spans(path, spans, run_id):
    """Write spans as CSV: run_id, span_id, parent_id, name, start_s, end_s."""
    with open(path, "w") as fh:
        fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
        for sid, parent, name, t0, t1, _ in spans:
            fh.write(f"{run_id},{sid},{parent},{name},{t0!r},{t1!r}\n")
