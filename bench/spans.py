"""In-memory span tracer that wraps library functions from outside the package.

A span is recorded around each call of a wrapped function: its name, start,
end, the span that was open when it began, and whether it belongs to set-up
or to the operation.
Wrapping replaces the function in every ``irgalab`` module namespace (and in
its owner) that binds the same object, because the package looks those
names up at call time.  Methods are replaced on their class.

Self time of a span is its duration minus the durations of its direct
children; the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time
from array import array
from collections import defaultdict

ROOT_SPAN = "bench.op"

# (span name, owning module, attribute path).  ``irga.check_conjecture``
# records ``.float`` or ``.exact`` by the carrier of its argument, and
# ``sos.oracle`` is the closure that ``sos.exact_entry_oracle`` returns.
TARGETS = (
    ("numpy.random.default_rng", "numpy.random", "default_rng"),
    ("numpy.linalg.inv", "numpy.linalg", "inv"),
    ("irga.search_counterexample", "irgalab.irga", "search_counterexample"),
    ("irga.check_conjecture", "irgalab.irga", "check_conjecture"),
    ("polytext.parse_expression", "irgalab.polytext", "parse_expression"),
    ("polytext.ParsedExpression.evaluate", "irgalab.polytext", "ParsedExpression.evaluate"),
    ("sos.identity_test", "irgalab.sos", "identity_test"),
    ("sos.oracle", "irgalab.sos", "exact_entry_oracle"),
    ("linalg.adjugate_entry", "irgalab.linalg", "adjugate_entry"),
    ("linalg.inverse", "irgalab.linalg", "inverse"),
    ("linalg.Matrix.inverse", "irgalab.linalg", "Matrix.inverse"),
    ("linalg.Matrix.det", "irgalab.linalg", "Matrix.det"),
    ("spdd.make_gauge", "irgalab.spdd", "make_gauge"),
    ("spdd.make_spdd", "irgalab.spdd", "make_spdd"),
    ("spdd.verify_majorization_theorem", "irgalab.spdd", "verify_majorization_theorem"),
    ("majorization.birkhoff", "irgalab.majorization", "birkhoff"),
    ("search.run", "irgalab.search", "run"),
)

SPAN_NAMES = tuple(
    name
    for target, _, _ in TARGETS
    for name in (
        (target, target + ".float", target + ".exact")
        if target == "irga.check_conjecture"
        else (target,)
    )
)


def _in_package(module_name: str) -> bool:
    return module_name == "irgalab" or module_name.startswith("irgalab.")


class Tracer:
    """Spans of one process, kept in flat arrays until written out."""

    def __init__(self):
        self._name_ids: dict = {}
        self.names: list = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_in_op = array("b")
        self.counts: dict = defaultdict(int)
        self.in_op = False
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_in_op.append(self.in_op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        """``fn`` with a span around each call; ``name`` may be a function of the arguments."""
        tracer = self
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name_of(args) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def run_op(self, fn, *args):
        """Call ``fn`` under the root span; return (result, wall seconds)."""
        self.in_op = True
        index = self._open(ROOT_SPAN)
        try:
            result = fn(*args)
        finally:
            self._close(index)
            self.in_op = False
        return result, self.end[index] - self.start[index]

    # -- installing --------------------------------------------------------

    def install(self):
        """Replace every target that exists; a missing one simply records no calls."""
        matrix_cls = getattr(importlib.import_module("irgalab.linalg"), "Matrix", None)
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            if name == "sos.oracle":
                wrapper = self._oracle_factory(original)
            elif name == "irga.check_conjecture":
                wrapper = self.wrap(
                    lambda args: "irga.check_conjecture."
                    + ("exact" if isinstance(args[0], matrix_cls) else "float"),
                    original,
                )
            elif name == "numpy.linalg.inv":
                wrapper = self._counted_inv(self.wrap(name, original))
            else:
                wrapper = self.wrap(name, original)
            self._patch(owner, attr, wrapper)
            if outer:
                continue
            for module in list(sys.modules.values()):
                if module is owner or not _in_package(getattr(module, "__name__", "")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _oracle_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return tracer.wrap("sos.oracle", factory(*args, **kwargs))

        return traced_factory

    def _counted_inv(self, inv):
        """Count the n x n matrices numpy inverts and the bytes it reads and writes."""
        tracer = self

        @functools.wraps(inv)
        def counted(a, *args, **kwargs):
            result = inv(a, *args, **kwargs)
            shape = getattr(a, "shape", ())
            batch = 1
            for size in shape[:-2]:
                batch *= size
            tracer.counts["irga.kernel_matrices"] += batch
            tracer.counts["irga.kernel_bytes_computed"] += getattr(a, "nbytes", 0) + getattr(result, "nbytes", 0)
            return result

        return counted

    # -- summarising -------------------------------------------------------

    def self_times(self) -> list:
        duration = [e - s for s, e in zip(self.start, self.end)]
        own = list(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= duration[index]
        return own

    def summary(self) -> dict:
        """Per-layer metrics over every recorded span: set-up plus the operation.

        ``calls`` and ``self_s`` are totals; ``p50_ms`` is the median inclusive
        duration of one call.  Every name in SPAN_NAMES is present.
        """
        own = self.self_times()
        calls = defaultdict(int)
        selfs = defaultdict(float)
        durations = defaultdict(list)
        for index, name_id in enumerate(self.name_id):
            name = self.names[name_id]
            duration = self.end[index] - self.start[index]
            keys = (name, "irga.check_conjecture") if name.startswith("irga.check_conjecture.") else (name,)
            for key in keys:
                calls[key] += 1
                selfs[key] += own[index]
                durations[key].append(duration)
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = selfs[name]
            out[name + ".p50_ms"] = 1e3 * statistics.median(durations[name]) if durations[name] else 0.0
        out.update(self.counts)
        # What the named layers leave unexplained is the root span's self time.
        wall = sum(durations[ROOT_SPAN])
        out["trace.attributed_frac"] = 1.0 - selfs[ROOT_SPAN] / wall if wall else 0.0
        return out

    def write(self, path):
        """Write every span as tab-separated text: in_op (0 = set-up), name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("in_op\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for index in range(len(self.start)):
                handle.write(
                    f"{self.span_in_op[index]}\t{names[self.name_id[index]]}\t"
                    f"{self.start[index]:.9f}\t{self.end[index]:.9f}\t{self.parent[index]}\n"
                )
