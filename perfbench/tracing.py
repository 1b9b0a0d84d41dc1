"""Spans and counts taken at fieldchannel's layer boundaries, from outside.

The package is not instrumented: `Tracer` wraps its public functions where
the callers look them up (module attributes and class attributes) and
counts the 4x4 eigen-decompositions it asks numpy.linalg for. `install`
and `uninstall` swap the wrappers in and out, so untraced operations run
the package's own functions.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# spans kept in full for the trace file; every span is aggregated
KEPT_OPS = 3


def _overlap_span(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    truncated = config.bob.variant.startswith("truncated")
    return "channel.overlap_truncated" if truncated else "channel.overlap_closed"


def _count_nodes(counts, result, args, kwargs):
    counts["smearing.gl_nodes"] += len(result[0])


def _count_radii(counts, result, args, kwargs):
    counts["propagation.shell_points"] += int(np.size(args[1]))


class Tracer:
    """Records (name, start, end, parent) spans of one operation at a time
    and aggregates them, with the counts, over the successful operations."""

    def __init__(self):
        self._spans: list = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._patches: list = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.rows = 0
        self.kept: list = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        spans, stack, counts = self._spans, self._stack, self._counts

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, time.perf_counter(), parent)
                stack.pop()
            if count is not None:
                count(counts, result, args, kwargs)
            return result

        return wrapper

    def _count_eig(self, fn):
        counts = self._counts

        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            if shape[-2:] == (4, 4):
                counts["qmath.eigh4"] += math.prod(shape[:-2])
            return fn(a, *args, **kwargs)

        return wrapper

    def attach(self) -> None:
        """Build the wrappers for every place the package looks a target up."""
        from fieldchannel import channel, observables, qmath, smearing

        targets = [
            (channel.overlap_matrix, _overlap_span, None),
            (channel.assemble_rho, "channel.assemble_rho", None),
            (qmath.coherent_information, "qmath.coherent_information", None),
            (observables.check_conditions, "observables.check_conditions", None),
            (smearing.adaptive_quadrature, "smearing.adaptive_quadrature", None),
            (smearing.gauss_legendre_panels, "smearing.gauss_legendre_panels", _count_nodes),
        ]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fieldchannel" or n.startswith("fieldchannel."))]
        for fn, name, count in targets:
            wrapper = self._wrap(name, fn, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn, wrapper))
        raw = vars(qmath.DensityMatrix)["from_matrix"]
        self._patches.append((qmath.DensityMatrix, "from_matrix", raw,
                              staticmethod(self._wrap("qmath.validate", raw.__func__))))
        shell_call = vars(smearing.GaussianShellProfile)["__call__"]
        self._patches.append((smearing.GaussianShellProfile, "__call__", shell_call,
                              self._wrap("propagation.shell_profile", shell_call, _count_radii)))
        for attr in ("eigvalsh", "eigh", "eigvals", "eig"):
            fn = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, fn, self._count_eig(fn)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def finish_op(self, index: int, start: float, end: float, ok: bool, rows: int) -> None:
        """Close one traced operation: aggregate its spans if it succeeded."""
        spans = [("op", start, end, -1)] + [
            (name, s, e, parent + 1) for name, s, e, parent in self._spans]
        if ok:
            child = [0.0] * len(spans)
            for name, s, e, parent in spans[1:]:
                child[parent] += e - s
            for i, (name, s, e, _) in enumerate(spans):
                self.calls[name] += 1
                self.total_s[name] += e - s
                self.self_s[name] += e - s - child[i]
            self.counts.update(self._counts)
            self.rows += rows
            if len(self.kept) < KEPT_OPS:
                self.kept.append({"op": index, "spans": [
                    [name, round((s - start) * 1e6, 3), round((e - start) * 1e6, 3), parent]
                    for name, s, e, parent in spans]})
        self._spans.clear()
        self._stack.clear()
        self._counts.clear()
