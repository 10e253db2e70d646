"""Outside-in span tracer for the public functions of each sixvertex layer.

Every traced function is replaced, for the duration of a traced pass, by a
wrapper that records one span (name, start, end, parent) in memory.  The
wrapper is installed in *every* module namespace that holds the function:
``vertex_model``, ``f_basis``, ``bethe`` and ``coordinate_wf`` bind names
with ``from .x import y``, so patching only the defining module would leave
their calls untraced.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import defaultdict

# Layer (module) -> public functions whose calls are timed.
TRACED = {
    "tensor_core": ("embed_two_site", "site_operator"),
    "vertex_model": (
        "monodromy_matrix",
        "monodromy_entries",
        "transfer_matrix",
        "random_lattice",
        "random_spectral_point",
    ),
    "f_basis": (
        "factorizing_operator",
        "factorization_residual",
        "f_matrix_element_residual",
        "diagonal_a",
        "quasilocal_b",
        "quasilocal_c",
        "site_creation",
        "exchange_residual",
    ),
    "bethe": ("solve_bethe_roots", "bae_residuals", "bethe_vector", "eigenstate_residual"),
    "coordinate_wf": ("psi_formula", "wave_table", "periodicity_check"),
    "dwbc": ("dwbc_sum", "dwbc_recurrence", "random_input"),
    "verify": ("run_verify",),
}

WAVE_TABLE_PROVENANCES = ("formula", "oracle")


def _wave_table_name(args, kwargs):
    provenance = args[3] if len(args) > 3 else kwargs.get("provenance", "formula")
    return f"coordinate_wf.wave_table.{provenance}"


def _span_names():
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            if fn == "wave_table":
                names += [f"{module}.{fn}.{p}" for p in WAVE_TABLE_PROVENANCES]
            else:
                names.append(f"{module}.{fn}")
    return tuple(names) + ("numpy.linalg.inv",)


# Span names as reported; wave_table is split by provenance.
SPAN_NAMES = _span_names()

# Functions whose argument sizes feed the computed work counts.
_SIZE_OF = {
    "vertex_model.monodromy_matrix": lambda args, kwargs: args[1].length,
    "dwbc.dwbc_sum": lambda args, kwargs: args[0].size,
    "dwbc.dwbc_recurrence": lambda args, kwargs: args[0].size,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-level span, such as one whole pass."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, name_of=None, size_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            if size_of:
                self.sizes[span_name].append(size_of(args, kwargs))
            idx = self._open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def install(self):
        """Patch each traced function in every sixvertex namespace binding it."""
        import numpy

        replacements = {}
        for module, functions in TRACED.items():
            mod = sys.modules[f"sixvertex.{module}"]
            for fn in functions:
                name = f"{module}.{fn}"
                original = getattr(mod, fn)
                replacements[id(original)] = self._wrap(
                    name,
                    original,
                    name_of=_wave_table_name if fn == "wave_table" else None,
                    size_of=_SIZE_OF.get(name),
                )
        namespaces = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "sixvertex" or key.startswith("sixvertex."))
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        inv = numpy.linalg.inv
        self._restore.append((numpy.linalg, "inv", inv))
        numpy.linalg.inv = self._wrap("numpy.linalg.inv", inv)

    def uninstall(self):
        while self._restore:
            ns, attr, value = self._restore.pop()
            setattr(ns, attr, value)

    def layer_totals(self):
        """Per span name: call count and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - child_time[idx]
        return totals

    def calls_under(self, name, parent_name):
        """Calls of ``name`` whose direct traced parent is ``parent_name``."""
        return sum(
            1
            for span_name, _, _, parent in self.spans
            if span_name == name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def computed_counts(self):
        """Exact work counts derived from call arguments (not measured)."""
        lengths = self.sizes.get("vertex_model.monodromy_matrix", [])
        dwbc_sum_sizes = self.sizes.get("dwbc.dwbc_sum", [])
        dwbc_rec_sizes = self.sizes.get("dwbc.dwbc_recurrence", [])
        return {
            # the monodromy acts on L sites plus the auxiliary one
            "vertex_model.monodromy_matrix.computed.dim_max": max(
                (1 << (n + 1) for n in lengths), default=0
            ),
            # one dense dim x dim product per site: L * dim^3 multiply-adds
            "vertex_model.monodromy_matrix.computed.matmul_cmacs": sum(
                n * (1 << (n + 1)) ** 3 for n in lengths
            ),
            "dwbc.dwbc_sum.computed.terms": sum(math.factorial(m) for m in dwbc_sum_sizes),
            "dwbc.dwbc_recurrence.computed.subsets": sum(1 << m for m in dwbc_rec_sizes),
        }

    def export(self):
        """Spans as plain lists, with names interned into a table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
        }

