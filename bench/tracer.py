"""In-memory span tracer installed around freepacket's public functions.

The package binds names with `from .x import y`, so a function is looked up
in several module namespaces (`freepacket.cli` finds `propagate_spectral` in
its own globals, `freepacket.evolution` finds `to_momentum` in its own, and
so on).  `installed()` replaces the function object in every namespace that
holds it, so every call path records a span, and restores the originals on
exit.

A span is (name, op, parent, start, end); the parent is the enclosing span
or -1.  Self time is a span's duration minus the time its child spans cover
(the calls are sequential, so children never overlap).  Counters labelled
"computed" are derived from array sizes, not measured, and so repeat exactly
for the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("numerics", "packets", "evolution", "observables", "cli")

# Span names that group several functions or shorten a long one; every other
# public function is traced as "<layer>.<function>".
_SPAN_ALIASES = {
    "to_momentum": "numerics.fft",
    "from_momentum": "numerics.fft",
    "propagate_spectral": "evolution.spectral",
    "propagate_quadrature": "evolution.quadrature",
    "asymptotic_form": "evolution.asymptotic",
    "short_time_approx": "evolution.short_time",
}

# Closed-form evaluators and the parameter holding their sample points.
_EVALUATOR_POINTS = {
    "gaussian_chi": "x",
    "hermite_gauss": "x",
    "derivative_packet": "x",
    "derivative_packet_asymptote": "x",
    "square_initial": "x",
    "square_exact": "x",
    "square_momentum": "p",
}

_COMPLEX_BYTES = np.dtype(complex).itemsize


def _quadrature_columns(psi0) -> int:
    # propagate_quadrature drops the columns whose trapezoid-weighted sample
    # is exactly zero; count them the same way.
    weights = np.full(psi0.grid.n, psi0.grid.step)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return int(np.count_nonzero(weights * psi0.values))


class Tracer:
    """Records spans and counters while installed; aggregates per layer."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, float, float] | None] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)

    def _count(self, fname: str, bound: inspect.BoundArguments):
        args = bound.arguments
        c = self.counters
        if fname in ("to_momentum", "from_momentum"):
            c["numerics.fft_calls"] += 1
            c["numerics.fft_points"] += args["f"].grid.n
        elif fname == "propagate_spectral":
            c["evolution.spectral_calls"] += 1
        elif fname == "moments":
            c["observables.moments_calls"] += 1
        elif fname == "main":
            c["cli.calls"] += 1
        elif fname in ("propagate_quadrature", "asymptotic_form"):
            field = args["psi0" if fname == "propagate_quadrature" else "phi0"]
            n = field.grid.n
            cols = _quadrature_columns(field) if fname == "propagate_quadrature" else n
            c["evolution.kernel_evals"] += n * cols
            c["evolution.kernel_bytes"] += n * cols * _COMPLEX_BYTES
        elif fname in _EVALUATOR_POINTS:
            c["packets.points_evaluated"] += int(np.size(args[_EVALUATOR_POINTS[fname]]))

    def _wrap(self, fn, layer: str):
        fname = fn.__name__
        span_name = _SPAN_ALIASES.get(fname, f"{layer}.{fname}")
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_name = self._stack[-1] if self._stack else (-1, "")
            # a recursive call (square_exact for t < 0) is one evaluation
            if parent_name != span_name:
                self._count(fname, signature.bind(*args, **kwargs))
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append((index, span_name))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, self.op, parent, start, end)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of freepacket's layer modules."""
        layers = {layer: sys.modules[f"freepacket.{layer}"] for layer in LAYERS}
        modules = [sys.modules["freepacket"], *layers.values()]
        replaced = []
        for layer, module in layers.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, layer)
                for namespace in modules:
                    if namespace.__dict__.get(name) is fn:
                        setattr(namespace, name, wrapper)
                        replaced.append((namespace, name, fn))
        try:
            yield self
        finally:
            for namespace, name, fn in replaced:
                setattr(namespace, name, fn)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, _, _, start, end) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return dict(totals)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, _, parent, start, end in self.spans if parent < 0)

    def count_outputs(self, out_dir: Path):
        """Computed output counters of one CLI call: files, bytes and CSV rows."""
        for path in out_dir.iterdir():
            data = path.read_bytes()
            self.counters["cli.files_written"] += 1
            self.counters["cli.bytes_written"] += len(data)
            if path.suffix == ".csv":
                self.counters["cli.rows_written"] += data.count(b"\n") - 1

    def dump(self, path: Path):
        """Write the spans as tab-separated lines, times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", newline="\n") as handle:
            handle.write("index\top\tparent\tname\tstart_us\tend_us\n")
            for index, (name, op, parent, start, end) in enumerate(self.spans):
                handle.write(
                    f"{index}\t{op}\t{parent}\t{name}\t"
                    f"{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                )
