"""Per-layer tracing by wrapping the program's public functions.

``Tracer.install`` replaces every public function and method of the
layer modules with a wrapper that counts calls and accumulates self
time: a call's duration minus the time spent in wrapped calls nested in
it, so the self times of all wrapped functions add up to the traced
wall time.  Module-level functions are replaced in every module that
imported them.  The program's own files are not changed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "netsim",
    "mining",
    "merkle",
    "blocks",
    "chain",
    "confirmation",
    "ledger",
    "crypto",
    "baseline",
    "adversary",
)

# Leaf helpers called millions of times per run whose body is cheaper
# than the wrapper: wrapping them would multiply the traced run time.
# Their cost is counted as self time of their callers.
UNWRAPPED = {
    "crypto.sha256",
    "chain.VoterTree.has",
    "chain.VoterTree.chainlen",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []

    def wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap the layer modules' public functions and methods in place."""
        modules = {layer: importlib.import_module(f"prismsim.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNWRAPPED:
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # rebind every alias made by ``from .x import f`` in any prismsim module
        for module in [m for n, m in sys.modules.items() if n.startswith("prismsim")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or f"{layer}.{cls.__name__}.{attr}" in UNWRAPPED:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self.wrap(f"{layer}.{attr}", obj))
