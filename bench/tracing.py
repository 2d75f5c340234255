"""Spans around the public functions of every `lipkin` module.

The tracer patches the package from outside: no file of `lipkin`
changes.  Each public function defined in a layer module is replaced by a
wrapper at every binding site, because `from .eigen import ...` binds one
function under several module names (`lipkin.excpt.det_state_at` is the
same object as `lipkin.eigen.det_state_at`).  Spans stay in memory until
`remove()`; a span's root is the enclosing `cli.main` call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("core", "eigen", "analysis", "excpt", "logfit", "cli")

# span fields
FID, PARENT, START, END, ERROR, INFO = range(6)


def _arg_getter(fn, name):
    """Fast positional-or-keyword argument lookup for a hook."""
    params = list(inspect.signature(fn).parameters.values())
    index = [p.name for p in params].index(name)
    default = params[index].default

    def get(args, kwargs):
        if len(args) > index:
            return args[index]
        return kwargs.get(name, default)
    return get


def _hooks(modules):
    """Per-function extra counts recorded in a span's INFO field.

    A function that is missing or whose argument was renamed gets no
    hook; its counts then read 0.
    """
    hooks = {}

    def real_levels(getters):
        vectors, = getters

        def hook(args, kwargs, result):
            values = getattr(result, "values", result)
            return len(values), bool(vectors(args, kwargs))
        return hook

    def det_steps(getters):
        n_of, parity_of = getters

        def hook(args, kwargs, result):
            n = n_of(args, kwargs)
            parity = getattr(parity_of(args, kwargs), "value", None)
            return n // 2 + 1 if parity == "even" else (n + 1) // 2
        return hook

    def scan_cells(getters):
        grid_of, = getters

        def hook(args, kwargs, result):
            grid = grid_of(args, kwargs)
            nx, ny = (grid, grid) if isinstance(grid, int) else grid
            return nx * ny, len(result)
        return hook

    wanted = [
        ("eigen", "eig_real_tridiag", ("want_vectors",), real_levels),
        ("eigen", "det_state_at", ("n_particles", "parity"), det_steps),
        ("excpt", "ep_scan", ("grid",), scan_cells),
    ]
    for layer, attr, params, make in wanted:
        fn = getattr(modules[layer], attr, None)
        try:
            getters = [_arg_getter(fn, p) for p in params]
        except (TypeError, ValueError):
            continue
        hooks[f"{layer}.{attr}"] = make(getters)
    return hooks


class Tracer:
    """Install with `with Tracer(package):`; read `names` and `spans`.

    A span is [fid, parent, start, end, error, info]: the index into
    `names`, the parent span's index (-1 at a root), perf_counter times,
    the name of an exception that left the function (or None), and the
    hook's extra counts (or None).
    """

    def __init__(self, package):
        self.package = package
        self.modules = {layer: importlib.import_module(
            f"{package.__name__}.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, hook):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [fid, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                try:
                    span[INFO] = hook(args, kwargs, result)
                except Exception as exc:  # a hook must never break a run
                    span[INFO] = f"hook failed: {exc!r}"
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        hooks = _hooks(self.modules)
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, name,
                                                         hooks.get(name)))
        for module in (self.package, *self.modules.values()):
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def aggregate(self) -> dict:
        """Per-function totals and the derived per-layer counts.

        Returns {name: {"calls", "self_s", "total_s", "errors"}} plus the
        "_counts" entry of counts that need the span tree.
        """
        names, spans = self.names, self.spans
        child = [0.0] * len(spans)
        in_refine = [False] * len(spans)
        in_pair = [False] * len(spans)
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                        "errors": 0} for name in names}
        counts = dict.fromkeys(("levels", "vector_calls", "steps", "cells",
                                "kept", "newton_evals", "pair_eig_calls"), 0)
        for i, span in enumerate(spans):
            name = names[span[FID]]
            parent = span[PARENT]
            duration = span[END] - span[START]
            if parent >= 0:
                child[parent] += duration
                in_refine[i] = in_refine[parent]
                in_pair[i] = in_pair[parent]
            in_refine[i] = in_refine[i] or name == "excpt.ep_refine"
            in_pair[i] = in_pair[i] or name == "excpt.ep_pair_id"
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["errors"] += span[ERROR] is not None
            info = span[INFO]
            if name == "eigen.eig_real_tridiag" and isinstance(info, tuple):
                counts["levels"] += info[0]
                counts["vector_calls"] += info[1]
            elif name == "eigen.det_state_at":
                counts["newton_evals"] += in_refine[i]
                if isinstance(info, int):
                    counts["steps"] += info
            elif name == "excpt.ep_scan" and isinstance(info, tuple):
                counts["cells"] += info[0]
                counts["kept"] += info[1]
            if name.startswith("eigen.eig_") and in_pair[i]:
                counts["pair_eig_calls"] += 1
        for i, span in enumerate(spans):
            stats[names[span[FID]]]["self_s"] += (span[END] - span[START]
                                                  - child[i])
        stats["_counts"] = counts
        return stats

    def write(self, path: Path, commands: list[list[str]]) -> None:
        """Write the spans as JSON; times in microseconds from the first
        span, each span tagged with the index of its root `cli.main`."""
        t0 = self.spans[0][START] if self.spans else 0.0
        roots = []
        for i, span in enumerate(self.spans):
            roots.append(i if span[PARENT] < 0 else roots[span[PARENT]])
        doc = {
            "names": self.names,
            "commands": commands,
            "fields": ["fid", "parent", "root", "start_us", "duration_us",
                       "error"],
            "spans": [[s[FID], s[PARENT], roots[i],
                       round((s[START] - t0) * 1e6, 1),
                       round((s[END] - s[START]) * 1e6, 1), s[ERROR]]
                      for i, s in enumerate(self.spans)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
