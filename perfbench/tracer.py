"""Span tracing for one ``mimosel mc`` process, installed from outside the package.

The package imports functions by name (``from .metrics import
sum_spectral_efficiency``), so a wrapper only takes effect when it replaces
the name in the module that looks it up. :data:`TARGETS` lists every
(module, attribute) pair that is replaced and the span name recorded for it.

A span is one row ``(name, start_ns, end_ns, parent, raised, macs, model)``.
``parent`` is the row index of the enclosing span in the same process, or -1.
``macs`` is the selector's op-ledger MAC count for the call and ``model`` the
closed-form cost of :func:`mimosel.complexity.model_cost` for the same
(U, M, selected K, L); both are 0 for spans that are not selectors.

Rows stay in memory and are written as ``spans-<pid>-<seq>.npy`` into the
trace directory: by :meth:`Tracer.flush` at the end of the process, and by
pool workers at the end of every trial chunk (forked workers inherit the
wrappers, so their spans would otherwise be lost).
"""

from __future__ import annotations

import os
import time

SPAN_NAMES = (
    "channel.generate_iid_rayleigh",
    "seeding.stream",
    "numerics.gram_schmidt_extend",
    "metrics.sum_spectral_efficiency",
    "metrics.zf_post_snr",
    "selectors.run_selection",
    "selectors.ssus",
    "selectors.sus",
    "selectors.gzf",
    "selectors.mcore_plus",
    "selectors.random",
    "selectors.exhaustive",
    "harness.run_trial",
    "harness.emit",
)
SPAN_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
# Selectors that mimosel.complexity.model_cost has a closed-form model for.
MODELED = ("ssus", "sus", "gzf", "mcore_plus")
COLUMNS = ("name", "start_ns", "end_ns", "parent", "raised", "macs", "model")

# (module, attribute looked up there, span name)
TARGETS = (
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "generate_iid_rayleigh", "channel.generate_iid_rayleigh"),
    ("harness", "stream", "seeding.stream"),
    ("harness", "run_selection", "selectors.run_selection"),
    ("harness", "sum_spectral_efficiency", "metrics.sum_spectral_efficiency"),
    ("selectors", "stream", "seeding.stream"),
    ("selectors", "gram_schmidt_extend", "numerics.gram_schmidt_extend"),
    ("selectors", "sum_spectral_efficiency", "metrics.sum_spectral_efficiency"),
    ("selectors", "ss_us", "selectors.ssus"),
    ("selectors", "sus", "selectors.sus"),
    ("selectors", "gzf", "selectors.gzf"),
    ("selectors", "mcore_plus", "selectors.mcore_plus"),
    ("selectors", "random_select", "selectors.random"),
    ("selectors", "exhaustive_oracle", "selectors.exhaustive"),
    ("metrics", "zf_post_snr", "metrics.zf_post_snr"),
    ("cli", "emit", "harness.emit"),
)

# The tracer of this process; forked pool workers inherit it.
_active: "Tracer | None" = None


class Tracer:
    """Records spans around the package functions named in :data:`TARGETS`."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list = []
        self.stack: list[int] = []
        self.pid = os.getpid()
        self.seq = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        global _active
        import mimosel.cli
        import mimosel.harness
        import mimosel.metrics
        import mimosel.selectors
        from mimosel.complexity import CostQuery, model_cost
        from mimosel.numerics import OpLedger
        from mimosel.selectors import Algorithm

        self._ledger_type = OpLedger
        self._model_cost = lambda *query: model_cost(CostQuery(*query))
        self._modeled = {name: Algorithm(name) for name in MODELED}
        modules = {
            "cli": mimosel.cli,
            "harness": mimosel.harness,
            "metrics": mimosel.metrics,
            "selectors": mimosel.selectors,
        }
        for mod_name, attr, span in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if span.startswith("selectors.") and span != "selectors.run_selection":
                wrapper = self._selector_wrapper(SPAN_ID[span], original)
            else:
                wrapper = self._wrapper(SPAN_ID[span], original)
            setattr(module, attr, wrapper)
        self._chunk = mimosel.harness._trial_chunk
        self._saved.append((mimosel.harness, "_trial_chunk", self._chunk))
        mimosel.harness._trial_chunk = traced_chunk
        _active = self

    def uninstall(self) -> None:
        global _active
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        _active = None

    def _open(self) -> tuple[int, int]:
        if self.pid != os.getpid():
            # First span in a forked worker: drop the rows copied from the parent.
            self.pid = os.getpid()
            self.spans, self.stack, self.seq = [], [], 0
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index, parent

    def _wrapper(self, name_id: int, fn):
        def traced(*args, **kwargs):
            index, parent = self._open()
            raised = 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[index] = (name_id, start, end, parent, raised, 0, 0)

        return traced

    def _selector_wrapper(self, name_id: int, fn):
        method = self._modeled.get(SPAN_NAMES[name_id].split(".", 1)[1])

        def traced(*args):
            ledger = args[-1] if isinstance(args[-1], self._ledger_type) else None
            before = ledger.complex_macs if ledger is not None else 0
            index, parent = self._open()
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args)
                return result
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                macs = ledger.complex_macs - before if ledger is not None else 0
                model = 0
                if method is not None and result is not None:
                    m, u = args[0].shape
                    l = getattr(args[1], "num_bases", 1)
                    model = self._model_cost(method, u, m, len(result.selected), l)
                self.spans[index] = (
                    name_id, start, end, parent, int(result is None), macs, model
                )

        return traced

    def flush(self) -> None:
        """Write the finished rows of this process and start a new batch."""
        import numpy as np

        if not self.spans:
            return
        rows = np.asarray(self.spans, dtype=np.int64).reshape(-1, len(COLUMNS))
        path = os.path.join(self.out_dir, f"spans-{self.pid}-{self.seq}.npy")
        np.save(path, rows)
        self.spans, self.seq = [], self.seq + 1


def traced_chunk(args):
    """Stand-in for ``harness._trial_chunk``: run the chunk, then write its spans."""
    try:
        return _active._chunk(args)
    finally:
        if _active.pid == os.getpid():
            _active.flush()
