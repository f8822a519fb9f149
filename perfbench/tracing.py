"""Span tracing from outside the program, and the per-layer report.

The benchmark never edits ``src/``: :class:`Tracer` wraps the public
(and a few operator-level) functions of each layer in place for the
duration of a traced pass, records one span per call — name, start,
end, parent — in flat in-memory arrays, and writes them out when the
run ends.  A layer's *self* time is its spans' durations minus the part
their child spans cover.  Every part of a traced pass, the benchmark's
own untimed work included, runs under a root span, so the self times of
all layers should sum to the pass's wall time clocked from outside; the
runner reports what they miss.

Hot leaf functions whose only interesting number is how often they run
(``extended_gcd``, ``SCTable.order_of``) get a call counter instead of
a span; their time stays in the enclosing layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics

#: (module, attribute, span layer or None, call counter or None).
#: ``attribute`` is ``func`` or ``Class.method``.
LAYER_SPECS: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = (
    ("repro.xmlkit.parser", "parse_document", "xmlkit.parse", None),
    ("repro.xmlkit.tree", "XmlElement.document_position", "xmlkit.document_position", None),
    ("repro.labeling.base", "LabelingScheme.label_tree", "labeling.build", None),
    # OrderedDocument inserts through the inherited insert_leaf, which
    # PrimeScheme.insert_leaf_ordered also delegates to: one layer.
    ("repro.labeling.base", "LabelingScheme.insert_leaf", "labeling.insert_leaf_ordered", None),
    ("repro.labeling.prime", "PrimeScheme.delete", "labeling.delete", None),
    ("repro.primes.crt", "solve_congruences", "primes.crt", "primes.solve_congruences.calls"),
    ("repro.primes.crt", "CongruenceSystem.set_residues", "primes.crt", "primes.set_residues.calls"),
    ("repro.primes.crt", "CongruenceSystem.append", "primes.crt", None),
    ("repro.primes.crt", "CongruenceSystem.remove", "primes.crt", None),
    ("repro.primes.euclid", "extended_gcd", None, "primes.extended_gcd.calls"),
    ("repro.order.document", "OrderedDocument.insert_child", "order.update", None),
    ("repro.order.document", "OrderedDocument.insert_before", "order.update", None),
    ("repro.order.document", "OrderedDocument.insert_after", "order.update", None),
    ("repro.order.document", "OrderedDocument.delete", "order.update", None),
    ("repro.order.sc_table", "SCTable.shift_orders_from", "order.shift_orders_from", None),
    ("repro.order.sc_table", "SCTable.order_of", None, "order.order_of.calls"),
    ("repro.query.xpath", "parse_query", "query.parse_query", None),
    ("repro.query.planner", "Planner.plan_step", "query.planner", None),
    ("repro.query.planner", "Planner.twig_cost", "query.planner", None),
    ("repro.query.planner", "Planner.chain_cost", "query.planner", None),
    ("repro.query.engine", "QueryEngine._choose_step_strategy", "query.planner", None),
    ("repro.query.engine", "QueryEngine._maybe_evaluate_twig", "query.planner", None),
    ("repro.query.engine", "QueryEngine.evaluate", "query.evaluate", None),
    ("repro.query.engine", "QueryEngine._seed_context", "query.op.seed", None),
    ("repro.query.engine", "QueryEngine._apply_step", "query.op.scan", None),
    ("repro.query.engine", "QueryEngine._apply_structural_merge", "query.op.merge", None),
    ("repro.query.engine", "QueryEngine._apply_window_step", "query.op.window", None),
    ("repro.query.engine", "QueryEngine._evaluate_twig", "query.op.twig", None),
    ("repro.query.store", "LabelStore.build", "query.store_build", None),
    ("repro.query.store", "LabelStore.insert_row", "query.live.patch", None),
    ("repro.query.store", "LabelStore.delete_subtree", "query.live.patch", None),
    ("repro.query.store", "LabelStore.refresh_labels", "query.live.patch", None),
    ("repro.query.window", "WindowIndex.apply_insert", "query.live.patch", None),
    ("repro.query.window", "WindowIndex.apply_delete", "query.live.patch", None),
    ("repro.query.store", "LabelStore.frozen_copy", "query.store.frozen_copy", None),
    ("repro.query.persist", "load_store", "query.persist.load", None),
    ("repro.query.live", "LiveCollection.publish_view", "query.live.publish", None),
    ("repro.query.live", "LiveCollection._build_engine", "query.live.engine_build", None),
    ("repro.query.live", "LiveCollection.insert_child", "query.live", None),
    ("repro.query.live", "LiveCollection.insert_before", "query.live", None),
    ("repro.query.live", "LiveCollection.insert_after", "query.live", None),
    ("repro.query.live", "LiveCollection.delete", "query.live", None),
    ("repro.query.live", "LiveCollection.apply_batch", "query.live", None),
    ("repro.durable.wal", "WriteAheadLog.append", "durable.wal.append", None),
    ("repro.durable.collection", "DurableCollection.insert_child", "durable.collection", None),
    ("repro.durable.collection", "DurableCollection.insert_before", "durable.collection", None),
    ("repro.durable.collection", "DurableCollection.insert_after", "durable.collection", None),
    ("repro.durable.collection", "DurableCollection.delete", "durable.collection", None),
    ("repro.durable.collection", "DurableCollection.apply_batch", "durable.collection", None),
    ("repro.durable.collection", "DurableCollection.encode_batch", "durable.encode_batch", None),
    ("repro.durable.collection", "DurableCollection.resolve_batch", "durable.resolve_batch", None),
    ("repro.durable.recovery", "recover", "durable.recovery", None),
    ("repro.durable.recovery", "apply_operation", "durable.recovery.apply_operation", None),
    ("repro.durable.snapshot", "restore_collection", "durable.snapshot.restore", None),
    ("repro.durable.snapshot", "write_snapshot", "durable.snapshot.write", None),
    ("repro.resilient.collection", "ResilientCollection.insert_child", "resilient", None),
    ("repro.resilient.collection", "ResilientCollection.insert_before", "resilient", None),
    ("repro.resilient.collection", "ResilientCollection.insert_after", "resilient", None),
    ("repro.resilient.collection", "ResilientCollection.delete", "resilient", None),
    ("repro.resilient.collection", "ResilientCollection.apply_batch", "resilient", None),
    ("repro.replica.tailer", "WalTailer.poll", "replica.tailer_poll", None),
    ("repro.replica.collection", "ReplicaCollection.poll", "replica.poll", None),
    ("repro.replica.collection", "ReplicaCollection._bootstrap", "replica.bootstrap", None),
    ("repro.shard.router", "ShardRouter.apply", "shard.mutate", None),
    ("repro.shard.router", "ShardRouter.query", "shard.scatter_gather", None),
)

#: A span opened under an ancestor of the given layer is renamed: WAL
#: records applied by a replica's poll are replica apply work, the same
#: function run by recovery is recovery replay.
RENAMES: Dict[str, Tuple[str, str]] = {
    "durable.recovery.apply_operation": ("replica.poll", "replica.apply"),
}

#: Layers reported by inclusive time (``<layer>.ms``): the router waits on
#: worker processes whose own spans the parent cannot see.
INCLUSIVE_LAYERS = ("shard.mutate", "shard.scatter_gather")


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Dict[str, int] = {}
        self._stack: List[int] = []
        self.active = False
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        # Forked shard workers inherit the patched functions; they must not
        # record (or pay for) spans nobody reads.
        os.register_at_fork(after_in_child=self._deactivate_in_child)

    def _deactivate_in_child(self) -> None:
        if os.getpid() != self._pid:
            self.active = False

    # ------------------------------------------------------------------
    # Spans

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, name: str) -> int:
        rename = RENAMES.get(name)
        if rename is not None:
            ancestor = self._name_ids.get(rename[0])
            if ancestor is not None and any(self.span_name[i] == ancestor for i in self._stack):
                name = rename[1]
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Trace the block as root span ``name``, with program metrics on.

        Outside phases the tracer records nothing and the library's
        metrics stay off, so untimed work (crash tails, oracles) leaves
        no trace and bumps no counter.
        """
        self.active = True
        metrics.enable()
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            metrics.disable()
            self.active = False

    @contextmanager
    def untraced(self, name: str) -> Iterator[None]:
        """Record the block as one opaque root span ``name``, with tracing
        and the library's metrics off inside (untimed benchmark work)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the block as span ``name`` (nothing outside a phase)."""
        if not self.active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def paused(self, name: str) -> Iterator[None]:
        """Record the block as one opaque span ``name`` (an inline check)."""
        if not self.active:
            yield
            return
        index = self._open(name)
        self.active = False
        metrics.disable()
        try:
            yield
        finally:
            metrics.enable()
            self.active = True
            self._close(index)

    # ------------------------------------------------------------------
    # Wrapping the program's layers

    def _wrap(self, func: Callable, layer: Optional[str], calls: Optional[str]) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return func(*args, **kwargs)
            if calls is not None:
                tracer.calls[calls] = tracer.calls.get(calls, 0) + 1
            if layer is None:
                return func(*args, **kwargs)
            index = tracer._open(layer)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def install(self) -> None:
        """Patch every layer in :data:`LAYER_SPECS`.

        A module-level function is replaced in every loaded ``repro``
        module that imported it by name, so callers that bound it at
        import time are traced too.
        """
        for module_name, attribute, layer, calls in LAYER_SPECS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self._wrap(raw.__func__, layer, calls))
                elif isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(raw.__func__, layer, calls))
                else:
                    patched = self._wrap(raw, layer, calls)
                self._patches.append((owner, method, raw))
                setattr(owner, method, patched)
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, layer, calls)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not name.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, key, original))
                        setattr(loaded, key, wrapper)

    def uninstall(self) -> None:
        """Undo every patch (newest first) and stop recording."""
        self.active = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Report

    def self_times_ms(self) -> Dict[str, float]:
        """Self time per layer, in milliseconds."""
        count = len(self.span_start)
        self_s = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                self_s[parent] -= self.span_end[i] - self.span_start[i]
        totals: Dict[str, float] = {}
        for i in range(count):
            name = self.names[self.span_name[i]]
            totals[name] = totals.get(name, 0.0) + self_s[i] * 1000.0
        return totals

    def inclusive_ms(self, layer: str) -> float:
        """Wall time inside outermost spans of ``layer``, in milliseconds."""
        target = self._name_ids.get(layer)
        if target is None:
            return 0.0
        total = 0.0
        for i in range(len(self.span_start)):
            if self.span_name[i] != target:
                continue
            parent = self.span_parent[i]
            nested = False
            while parent >= 0:
                if self.span_name[parent] == target:
                    nested = True
                    break
                parent = self.span_parent[parent]
            if not nested:
                total += self.span_end[i] - self.span_start[i]
        return total * 1000.0

    def write(self, path: Path) -> None:
        """Write every span as CSV: id, parent, request, name, start_s, end_s.

        ``request`` is the id of the enclosing ``bench.call`` span (one
        client call), shared by every span that call caused; -1 outside
        client calls.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        call = self._name_ids.get("bench.call", -2)
        request = array("i")
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,request,name,start_s,end_s\n")
            origin = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_start)):
                parent = self.span_parent[i]
                # A parent is always opened, so numbered, before its children.
                request.append(i if self.span_name[i] == call else request[parent] if parent >= 0 else -1)
                out.write(
                    f"{i},{parent},{request[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i] - origin:.9f},{self.span_end[i] - origin:.9f}\n"
                )
