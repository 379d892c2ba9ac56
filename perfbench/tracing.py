"""In-memory span tracer that wraps the public functions of every stemc module.

`Tracer.install` replaces each public module-level function, method and
static method defined in a `stemc.*` module with a wrapper that records a
span (function, start, end, parent span, command id, population). A function
is replaced wherever a `stemc.*` namespace binds it, found by identity, so
names imported with `from .x import f` are covered too. `uninstall` puts the
originals back. Nothing is patched outside the process that calls `install`.

Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

POPULATION_CLASS = "netsim.Population"
DRIVERS = ("netsim.run_batch", "netsim.run_pipeline")


def stemc_modules() -> list:
    import stemc
    names = sorted(m.name for m in pkgutil.iter_modules(stemc.__path__))
    return [stemc] + [importlib.import_module(f"stemc.{n}") for n in names]


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def public_callables(modules) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, qualified name, raw attribute) of every target."""
    found = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((mod, name, f"{_short(mod.__name__)}.{name}", obj))
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, staticmethod):
                        found.append((obj, attr, f"{_short(mod.__name__)}.{name}.{attr}", raw))
    return found


class Tracer:
    """Records spans in memory; `write` saves them when the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # (function id, start, end, parent span, command id, population)
        self.spans: list[tuple[int, float, float, int, int, str | None]] = []
        self.counters: dict[tuple, float] = defaultdict(float)
        self.command = -1
        self.population: str | None = None
        self._stack: list[int] = []
        self._wrapped: dict[Callable, Callable] = {}
        self._methods: list[tuple[type, str, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, qualname: str,
              after: Callable | None) -> Callable:
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        sets_population = qualname.startswith(POPULATION_CLASS + ".")
        resets_population = qualname in DRIVERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sets_population:
                self.population = args[0].name
            elif resets_population:
                self.population = None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.command, self.population)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self, hooks: dict[str, Callable] | None = None) -> None:
        """Wrap every public stemc function; `hooks` run after named calls.

        Wrappers are made on the first call and reused after `uninstall`.
        """
        modules = stemc_modules()
        if not self._wrapped:
            hooks = hooks or {}
            for owner, attr, qualname, raw in public_callables(modules):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if fn not in self._wrapped:
                    self._wrapped[fn] = self._wrap(fn, qualname, hooks.get(qualname))
                if inspect.isclass(owner):
                    self._methods.append((owner, attr, raw))
        for owner, attr, raw in self._methods:
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrapped[fn]
            self._restore.append((owner, attr, raw))
            setattr(owner, attr,
                    staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrapped:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, self._wrapped[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def write(self, path: Path, workload: str, commands: list[dict], summary: dict) -> None:
        """Spans as columns (times in microseconds from the first span)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        cols = {"function": [], "start_us": [], "end_us": [], "parent": [],
                "command": [], "population": []}
        for fid, start, end, parent, cmd, pop in self.spans:
            cols["function"].append(fid)
            cols["start_us"].append(round((start - t0) * 1e6, 1))
            cols["end_us"].append(round((end - t0) * 1e6, 1))
            cols["parent"].append(parent)
            cols["command"].append(cmd)
            cols["population"].append(pop)
        doc = {"workload": workload, "functions": self.names, "commands": commands,
               "spans": cols, "summary": summary}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
