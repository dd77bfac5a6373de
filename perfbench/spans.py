"""Per-layer tracing by wrapping the package's public functions from outside.

Every public function defined in one of the six traced modules is wrapped
at every module namespace that binds it, so a call made through any of
those names opens a span.  Spans nest: ``hamiltonian.flux_sweep`` calls
``assemble`` and ``eigenvalues`` through its own module globals, and those
calls become its children.  A span is keyed by the function that runs
(``<defining module>.<function name>``), not by the name it was called
through, so ``hamiltonian.jacobi_eigvals`` and ``_kernels.jacobi_eigvals``
feed one key.

Spans are aggregated as they close (calls, total time, self time, and
per-function counters) instead of being stored, because the decision
workload opens tens of thousands of them.  Self time is a span's duration
minus the durations of its direct children; the program is single
threaded, so children never overlap.

The wrappers are installed only around the timed call of a traced op
(:meth:`Tracer.on`), never around the benchmark's own oracle checks.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import warnings
from collections import defaultdict

PACKAGE = "moebius_csr"
MODULES = ("lattice", "hamiltonian", "_kernels", "csr_cost", "decision", "cli")

# Function keys the per-layer metrics read.  A key that no traced module
# binds (for instance after a refactor deletes a kernel twin) is reported
# as absent and contributes nothing; it never stops the run.
JACOBI = (
    "_kernels.jacobi_eigvals",
    "_kernels.jacobi_eigvals_numpy",
    "_kernels.jacobi_eigvals_compiled",
)
SUMS = (
    "_kernels.sum_all",
    "_kernels.sum_ring_products",
    "_kernels.sum_rung_products",
    "_kernels.sum_antipodal_products",
)
BUILDS = ("lattice.build_moebius", "lattice.build_cylinder")
EXPECTED = JACOBI + SUMS + BUILDS + (
    "hamiltonian.assemble",
    "hamiltonian.eigenvalues",
    "hamiltonian.total_energy",
    "hamiltonian.flux_sweep",
    "csr_cost.total_hcsr",
    "decision.optimize_constrained",
    "decision.optimize_oracle",
    "decision.hcsr_of_c",
    "decision.stationary_closed_form",
    "decision.comparative_statics",
    "cli.main",
)


def _shape(x):
    return getattr(x, "shape", ())


def _jacobi(counters, args, kwargs, result):
    n = _shape(args[0])[0] if args else 0
    counters["dim_sum"] += n
    counters["dim3_sum"] += n**3


def _eigenvalues(counters, args, kwargs, result):
    h = args[0] if args else kwargs.get("h")
    d = _shape(h)[0]
    counters["dim_max"] = max(counters["dim_max"], d)
    # the doubled path runs exactly when the input has a nonzero imaginary part
    imag = getattr(h, "imag", None)
    if imag is not None and imag.any():
        counters["complex"] += 1


def _build(counters, args, kwargs, result):
    counters["sites"] += getattr(result, "n_sites", 0)


def _sum(loads_per_cell):
    def observe(counters, args, kwargs, result):
        shape = _shape(args[0]) if args else ()
        if len(shape) == 2:
            counters["bytes"] += 8 * loads_per_cell(*shape)

    return observe


def _hcsr(counters, args, kwargs, result):
    c = args[0] if args else kwargs.get("c")
    counters["points"] += int(getattr(c, "size", 1))


# Counters recorded per function key, computed from arguments and results
# after the span has closed.  Bytes are float64 operands the loop loads,
# computed from the array shape, not measured.
OBSERVERS = {
    **{key: _jacobi for key in JACOBI},
    "hamiltonian.eigenvalues": _eigenvalues,
    **{key: _build for key in BUILDS},
    "_kernels.sum_all": _sum(lambda r, c: r * c),
    "_kernels.sum_ring_products": _sum(lambda r, c: 2 * r * c),
    "_kernels.sum_rung_products": _sum(lambda r, c: 2 * r * (c - 1)),
    "_kernels.sum_antipodal_products": _sum(lambda r, c: 2 * r),
    "decision.hcsr_of_c": _hcsr,
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters = defaultdict(int)


class Tracer:
    """Wraps the traced modules' public functions and aggregates spans."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.warnings: dict[str, int] = defaultdict(int)
        self.missing_modules: list[str] = []
        self._stack: list[list] = []
        self._bindings: list[tuple] = []  # (module, name, original, wrapper)
        self.bound_names: set[str] = set()
        for short in MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                self.missing_modules.append(short)
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE) or owner not in MODULES:
                    continue
                key = f"{owner}.{obj.__name__}"
                self.bound_names.update((key, f"{short}.{name}"))
                self._bindings.append((module, name, obj, self._wrap(key, obj)))

    @property
    def absent(self) -> list[str]:
        """Expected keys that no traced module defines or binds."""
        return sorted(set(EXPECTED) - self.bound_names)

    def _wrap(self, key, fn):
        stats = self.stats
        stack = self._stack
        observe = OBSERVERS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat = stats[key]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(stat.counters, args, kwargs, result)
            return result

        return traced

    def _showwarning(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, RuntimeWarning) and self._stack:
            self.warnings[self._stack[-1][0].partition(".")[0]] += 1

    @contextlib.contextmanager
    def on(self):
        """Trace calls made inside the block; count their RuntimeWarnings."""
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always", RuntimeWarning)
                warnings.showwarning = self._showwarning
                yield self
        finally:
            for module, name, original, _ in self._bindings:
                setattr(module, name, original)
            self._stack.clear()

    # -- aggregation helpers for the per-layer metrics --------------------

    def total(self, keys) -> float:
        return sum((self.stats[k].total for k in keys if k in self.stats), 0.0)

    def self_time(self, key) -> float:
        return self.stats[key].self_time if key in self.stats else 0.0

    def calls(self, keys) -> int:
        return sum(self.stats[k].calls for k in keys if k in self.stats)

    def counter(self, keys, name) -> int:
        return sum(self.stats[k].counters[name] for k in keys if k in self.stats)
