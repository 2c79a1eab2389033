"""Outside-in layer trace of illum: timing wrappers around the public
functions of each module, installed without changing a byte of ``src/``.

``Installation`` replaces every reference to a traced function that the
``illum`` package holds -- module globals, re-exports in ``illum``, and
functions stored in module-level lists, tuples and dicts such as the lemma
ledger -- so that no call reaches the original, and checks that none is left.
Each wrapper records one span: calls, self time (duration minus the time of
nested spans), the caller's span name, and for a few functions a work count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: modules whose public functions are traced; the span prefix drops "illum."
#: and a leading underscore
MODULES = (
    "illum._kernels",
    "illum.geometry",
    "illum.balls",
    "illum.piercing",
    "illum.polygons",
    "illum.capbody",
    "illum.lemmas",
    "illum.jsonio",
    "illum.cli",
)

#: exact-arithmetic leaves called millions of times by the polygon solver;
#: their time stays in the calling span instead of drowning it in overhead
SCALAR_HELPERS = {
    "illum.geometry": {
        "as_fraction", "frac_vec", "cross2", "dot", "angle_cmp", "ccw_rel_lt",
        "in_halfopen_arc", "in_open_arc", "is_exact_coords",
    },
}

#: public methods traced as spans "module.Class.method"
METHODS = {"illum.capbody": (("CapBodySpec", "boundary_sample_set"),)}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: span -> (work counter name, count from (args, kwargs, result))
WORK = {
    "kernels.count_covering": (
        "pairs",
        lambda a, k, r: len(_arg(a, k, 0, "points")) * len(_arg(a, k, 1, "centers")),
    ),
    "kernels.count_illuminating": (
        "pairs",
        lambda a, k, r: len(_arg(a, k, 0, "normals")) * len(_arg(a, k, 2, "dirs")),
    ),
    "balls.ball_grid": ("points", lambda a, k, r: len(r)),
    "geometry.sphere_sample": ("points", lambda a, k, r: len(r)),
    "piercing.min_mfold_pierce": ("arcs", lambda a, k, r: _arg(a, k, 0, "system").n),
    "capbody.CapBodySpec.boundary_sample_set": ("points", lambda a, k, r: len(r.points)),
}


def traced_functions():
    """(span name, owner, attribute, function) for every traced function."""
    out = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        prefix = module_name.split(".")[-1].lstrip("_")
        skip = SCALAR_HELPERS.get(module_name, set())
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == module_name
                and attr not in skip
            ):
                out.append((f"{prefix}.{attr}", module, attr, obj))
        for cls_name, method in METHODS.get(module_name, ()):
            cls = getattr(module, cls_name)
            out.append(
                (f"{prefix}.{cls_name}.{method}", cls, method, vars(cls)[method])
            )
    return out


class Tracer:
    """Span aggregates of one traced pass, keyed by span name."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.work = Counter()
        self.edges = Counter()  # (caller span or None, span) -> calls

    def wrap(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += duration - frame[1]
                    tracer.edges[(parent, name)] += 1
            if work is not None:
                count = work(args, kwargs, result)
                with tracer._lock:
                    tracer.work[name] += count
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def layer_self_s(self, prefix: str) -> float:
        """Self time of the span ``prefix`` and of every span below it in the
        naming ("jsonio" sums the whole module)."""
        return sum(
            s for name, s in self.self_s.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def coverage(self, wall: float) -> float:
        """Share of ``wall`` spent in traced layers below the CLI dispatcher:
        all span self time except ``cli.run``'s own."""
        return (sum(self.self_s.values()) - self.self_s["cli.run"]) / wall


def _illum_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "illum" or name.startswith("illum."))
    ]


def _swap(value, table, undo, depth=0):
    """``value`` with traced functions replaced by their wrappers; lists and
    dicts are patched in place (recording how to undo), tuples rebuilt."""
    hit = table.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if depth >= 2:
        return value
    if isinstance(value, tuple):
        items = tuple(_swap(v, table, undo, depth + 1) for v in value)
        return items if any(a is not b for a, b in zip(items, value)) else value
    if isinstance(value, (list, dict)):
        keys = range(len(value)) if isinstance(value, list) else list(value)
        for key in keys:
            old = value[key]
            new = _swap(old, table, undo, depth + 1)
            if new is not old:
                value[key] = new
                undo.append(functools.partial(value.__setitem__, key, old))
    return value


def escaped_references(table) -> list[str]:
    """Places in the illum package that still reach an original function."""
    found = []

    def visit(where, value, depth):
        hit = table.get(id(value))
        if hit is not None and hit[0] is value:
            found.append(where)
        elif depth < 2 and isinstance(value, (tuple, list)):
            for i, v in enumerate(value):
                visit(f"{where}[{i}]", v, depth + 1)
        elif depth < 2 and isinstance(value, dict):
            for k, v in value.items():
                visit(f"{where}[{k!r}]", v, depth + 1)

    for module in _illum_modules():
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            visit(f"{module.__name__}.{attr}", value, 0)
            if inspect.isclass(value) and value.__module__.startswith("illum"):
                for name, member in vars(value).items():
                    visit(f"{module.__name__}.{attr}.{name}", member, 1)
    return found


class Installation:
    """Wrappers installed into the illum package; ``remove`` restores it."""

    def __init__(self, tracer: Tracer):
        entries = traced_functions()
        self.table = {}  # id(original) -> (original, wrapper)
        self._undo = []
        for name, _, _, fn in entries:
            counter = WORK.get(name, (None, None))[1]
            self.table[id(fn)] = (fn, tracer.wrap(name, fn, counter))
        try:
            for module in _illum_modules():
                for key, old in list(vars(module).items()):
                    if key.startswith("__"):
                        continue
                    new = _swap(old, self.table, self._undo)
                    if new is not old:
                        setattr(module, key, new)
                        self._undo.append(functools.partial(setattr, module, key, old))
            for _, owner, attr, fn in entries:
                if inspect.isclass(owner):
                    setattr(owner, attr, self.table[id(fn)][1])
                    self._undo.append(functools.partial(setattr, owner, attr, fn))
            leftover = escaped_references(self.table)
            if leftover:
                raise RuntimeError(f"calls would escape the trace via {leftover}")
        except BaseException:
            self.remove()
            raise

    def remove(self):
        while self._undo:
            self._undo.pop()()
