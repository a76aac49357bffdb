"""Counting and self-time wrappers installed from outside around circuitnull.

A traced worker calls ``LayerTracer().install()`` before its timed section.
Every public function of the measured modules, and every public method of
the classes they define, is replaced by a wrapper that counts calls and adds
up self time: the call's duration minus the time spent in wrapped calls it
made. Totals are kept in memory per name; no per-call record is kept, since
one sweep makes hundreds of thousands of calls.

The wrapper is rebound under every ``circuitnull`` namespace that holds the
original, so ``partitions.bit_rank`` and ``polynomials.bit_rank`` are counted
as ``gf2.bit_rank`` along with direct calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("gf2", "graphs", "interlace", "partitions", "polynomials", "permutations")


class LayerTracer:
    """In-memory call counts and self times, keyed ``<module>.<qualname>``."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._child_s = [0.0]

    def _wrap(self, name: str, fn):
        calls, self_s, child_s = self.calls, self.self_s, self._child_s
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - child_s.pop()
                calls[name] += 1
                child_s[-1] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap the public callables of every module in ``MODULES``."""
        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"circuitnull.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for name, module in list(sys.modules.items()):
            if name != "circuitnull" and not name.startswith("circuitnull."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _wrap_methods(self, short: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def snapshot(self) -> dict[str, float]:
        """Flat metrics: ``<name>.calls``, ``<name>.self_s`` and ``<module>.self_s``."""
        out: dict[str, float] = {}
        for short in MODULES:
            out[f"{short}.self_s"] = 0.0
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name.split('.', 1)[0]}.self_s"] += self.self_s[name]
        return out
