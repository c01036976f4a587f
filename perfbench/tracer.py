"""A tracer that wraps hhalg's public functions and methods from outside.

Every public module-level function of a layer module, and every public method
(and __init__) of a class defined there, is replaced by a span wrapper in
every hhalg module that bound it by name, and in module-level dicts such as
the CLI's command table; methods are patched on their class.  A span records
calls, total time and self time (its time minus the time of its child spans).
The hottest scalar methods of GroundRing are only counted (normalize, inv)
or left alone (add, mul, ...), and their time falls to the calling span.

Hooks add exact work counts at the same boundaries: matrix cells per Smith
form, the distinct-input ratio of Smith forms, entries scanned by
apply_coords, resolution stage ranks, bar-complex generators, cache hits.
Hook time is kept out of every span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("ground", "linalg", "base", "algebra", "defs", "resolve",
          "hochschild", "dg", "azumaya", "morita", "cache", "cli")
# the bench harness: time outside every span
ROOT = "bench"

# counted only, under these metric names
COUNTED = {"ground.GroundRing.normalize": "ground.normalize.calls",
           "ground.GroundRing.inv": "ground.inv.calls"}
SKIPPED_CLASSES = {"ground.GroundRing"}


def _modules():
    return {layer: importlib.import_module(f"hhalg.{layer}") for layer in LAYERS}


def _all_hhalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "hhalg" or name.startswith("hhalg.")) and m is not None]


def public_callables():
    """[(key, owner, attr, function, is_static)] for every traced callable.

    owner is the defining module for functions and the class for methods;
    key is "<layer>.<name>" or "<layer>.<Class>.<method>", with __init__
    keyed as "<layer>.<Class>".
    """
    out = []
    for layer, mod in _modules().items():
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{name}", mod, name, obj, False))
            elif inspect.isclass(obj):
                ckey = f"{layer}.{name}"
                for attr, v in sorted(vars(obj).items()):
                    if attr != "__init__" and attr.startswith("_"):
                        continue
                    key = ckey if attr == "__init__" else f"{ckey}.{attr}"
                    if ckey in SKIPPED_CLASSES and key not in COUNTED:
                        continue
                    if isinstance(v, staticmethod):
                        out.append((key, obj, attr, v.__func__, True))
                    elif inspect.isfunction(v):
                        out.append((key, obj, attr, v, False))
    return out


class Tracer:
    """Install with `with Tracer() as tr:`; read tr.spans and tr.counts after."""

    KNOWN_COUNTS = frozenset({
        "ground.normalize.calls", "ground.inv.calls",
        "linalg.smith_normal_form.cells", "linalg.smith_normal_form.max_cells",
        "linalg.smith_normal_form.z_cells", "linalg.ExactMatrix.cells",
        "base.apply_coords.entries_scanned", "base.slice_matrix.cells",
        "resolve.stage_rank_sum", "hochschild.bar_generators",
        "cache.hit", "cache.miss", "cache.store.bytes",
    })

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0])  # key -> calls, self seconds
        self.counts = defaultdict(int)
        self._smith_inputs = set()
        self._undo = []
        self._stack = [0.0]  # child-time accumulators; [0] is the root
        self._root_t0 = None

    # -- hooks: exact work counts at the span boundaries ------------------
    def _hooks(self):
        c = self.counts

        def smith(args, kwargs, result):
            M = args[0]
            cells = M.rows * M.cols
            c["linalg.smith_normal_form.cells"] += cells
            if cells > c["linalg.smith_normal_form.max_cells"]:
                c["linalg.smith_normal_form.max_cells"] = cells
            if M.ground.kind == "Z":
                c["linalg.smith_normal_form.z_cells"] += cells
            self._smith_inputs.add(hash((M.ground.kind, M.ground.p, M.rows, M.cols,
                                         tuple(map(tuple, M.data)))))

        def matrix_init(args, kwargs, result):
            c["linalg.ExactMatrix.cells"] += args[0].rows * args[0].cols

        def apply_coords(args, kwargs, result):
            c["base.apply_coords.entries_scanned"] += len(args[0].entries)

        def slice_matrix(args, kwargs, result):
            c["base.slice_matrix.cells"] += result[0].rows * result[0].cols

        def resolution(args, kwargs, result):
            c["resolve.stage_rank_sum"] += sum(st.rank for st in result.stages)

        def bar(args, kwargs, result):
            c["hochschild.bar_generators"] += sum(t.rank for t in args[0].terms)

        def load(args, kwargs, result):
            c["cache.miss" if result is None else "cache.hit"] += 1

        def store(args, kwargs, result):
            c["cache.store.bytes"] += len(args[2].encode())

        return {
            "linalg.smith_normal_form": smith,
            "linalg.ExactMatrix": matrix_init,
            "base.HomogeneousMap.apply_coords": apply_coords,
            "base.HomogeneousMap.slice_matrix": slice_matrix,
            "resolve.minimal_resolution": resolution,
            "resolve.free_resolution": resolution,
            "hochschild.BarCochainComplex": bar,
            "cache.load": load,
            "cache.store": store,
        }

    # -- wrappers -----------------------------------------------------------
    def _span(self, key, fn, hook):
        stats = self.spans[key]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - stack.pop()
                stack[-1] += dur
            if hook is not None:
                hook(args, kwargs, result)
                stack[-1] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove -------------------------------------------------
    def __enter__(self):
        hooks = self._hooks()
        replaced = {}  # id(original function) -> wrapper
        for key, owner, attr, fn, static in public_callables():
            if key in COUNTED:
                w = self._counter(COUNTED[key], fn)
            else:
                w = self._span(key, fn, hooks.get(key))
            replaced[id(fn)] = w
            if inspect.isclass(owner):
                self._set(owner, attr, staticmethod(w) if static else w)
        # rebind every module-level name and dict value that holds an original
        for mod in _all_hhalg_modules():
            for name, val in list(vars(mod).items()):
                if id(val) in replaced and inspect.isfunction(val):
                    self._set(mod, name, replaced[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and id(v) in replaced:
                            self._undo.append((val.__setitem__, k, v))
                            val[k] = replaced[id(v)]
        self._root_t0 = time.perf_counter()
        return self

    def _set(self, owner, attr, value):
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), attr,
                           vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._root_t0
        for setter, k, v in reversed(self._undo):
            setter(k, v)
        self._undo.clear()
        self.counts["linalg.smith_normal_form.distinct"] = len(self._smith_inputs)
        return False

    def layer_self_s(self):
        """Self seconds per layer; ROOT gets the time outside every span."""
        out = {layer: 0.0 for layer in LAYERS}
        for key, (_, self_s) in self.spans.items():
            out[key.split(".")[0]] += self_s
        out[ROOT] = self.wall_s - self._stack[0]
        return out


class ProfileCounter:
    """An independent call counter for the traced callables via sys.setprofile."""

    def __init__(self):
        self.codes = {fn.__code__: key for key, _, _, fn, _ in public_callables()}
        self.calls = defaultdict(int)

    def _profile(self, frame, event, arg):
        if event == "call":
            key = self.codes.get(frame.f_code)
            if key is not None:
                self.calls[key] += 1

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


def traced_calls(tracer):
    """Calls per traced key, in ProfileCounter's keying."""
    out = {key: s[0] for key, s in tracer.spans.items() if s[0]}
    out.update({key: tracer.counts[name] for key, name in COUNTED.items()
                if tracer.counts[name]})
    return out
