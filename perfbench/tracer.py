"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function with a timing
wrapper wherever the package holds a reference to it (its own module,
the package namespace, and modules that imported it by name), so calls
between modules are seen without touching the package source. ``remove``
puts the originals back. Per function it keeps the call count, the
inclusive busy time and the self time (busy time minus the busy time of
traced calls made inside it).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

PACKAGE = "optomech_bistab"
MODULES = ("params", "steady", "dynamics", "quantum", "harness", "cli")

# "<module>.<function>" of the package, plus numpy's eigvals as a counter
TRACED = (
    "params.derive_model",
    "steady.steady_states",
    "steady.working_point_from_eta",
    "steady.hysteresis",
    "dynamics.decay_rate",
    "dynamics.solve_lyapunov",
    "quantum.log_negativity",
    "harness.figure_command",
    "harness.sweep",
    "harness.evaluate_point",
    "harness.write_csv",
)
EIGVALS = "numpy.linalg.eigvals"


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, busy seconds, self seconds]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for acc in self.stats.values():
            acc[:] = [0, 0.0, 0.0]

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {name: tuple(acc) for name, acc in self.stats.items()}

    def _wrap(self, name: str, fn):
        stack = self._stack
        acc = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        linalg = importlib.import_module("numpy.linalg")
        self._patch(linalg, "eigvals", self._wrap(EIGVALS, linalg.eigvals))

    def _patch(self, mod, attr: str, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def remove(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
