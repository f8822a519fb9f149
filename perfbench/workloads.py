"""The three benchmark workloads, each driven through the public stack.

Every workload is one closed-loop client in this process with zero think
time: it issues the next call only when the previous one returned.
Inputs (documents, operation and query streams) come from the seed and
are built before any timer starts.  Each workload exposes the steps the
runner drives: ``setup`` (timed; the first instance serves the loop,
later ones are built beside it and released), ``prepare_restart``
(untimed: leaves the persisted state a restart brings back), ``step``
(one loop iteration of timed client calls), ``restart`` (timed;
``drop_restart`` releases its state) and ``check`` (the oracles).  The
runner interleaves the repeated set-ups and restarts with slices of the
loop, so every metric samples the whole run rather than one moment of it.

Library defaults are used throughout: SC group size 5, ``fsync="always"``
and ``strategy="scan"`` on the durable, resilient, replica and shard
stacks, the ``auto`` planner where ``repro query`` uses it.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from random import Random
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.response import build_query_corpus
from repro.datasets.shakespeare import hamlet, play
from repro.durable import recovery
from repro.durable.snapshot import collection_fingerprint
from repro.obs.audit import audit_ordered_document
from repro.query import persist
from repro.query.engine import QueryEngine
from repro.query.live import LiveCollection
from repro.query.naive import NaiveEvaluator
from repro.query.store import LabelStore
from repro.replica.collection import ReplicaCollection
from repro.resilient.collection import ResilientCollection
from repro.shard.service import ShardedCollection
from repro.xmlkit import parser
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

from common import FAILED, Bag, Recorder, quantile
from mutations import MutationMix, Op, apply_op, apply_routed, preorder
from querymix import QUADRATIC_SHAPES, QueryMix


def _hamlet(size: str) -> XmlElement:
    return hamlet() if size == "full" else play(seed=8, acts=2, node_budget=300)


def _fingerprint_problems(label: str, expected: LiveCollection, got: LiveCollection) -> List[str]:
    if collection_fingerprint(expected) != collection_fingerprint(got):
        return [f"{label}: fingerprint differs"]
    return []


def _audit_problems(label: str, collection: LiveCollection) -> List[str]:
    problems = []
    for index, document in enumerate(collection.ordered_documents):
        report = audit_ordered_document(document)
        if not report.ok:
            problems.append(f"{label}: document {index} audit: {report.summary()}")
    return problems


def _positions(root: XmlElement) -> Dict[int, int]:
    return {id(node): position for position, node in enumerate(root.iter_preorder())}


class Workload:
    """Common state: the seeded RNG and the recorder."""

    name = ""
    #: Set-ups per metric run: the serving instance's, and the rest
    #: spread over the loop's slices.
    SETUPS = 1
    #: Restarts per metric run, one after each slice of the loop.
    RESTARTS = 1
    #: Whether the host's speed is measured on every CPU rather than the
    #: client's (set where worker processes do much of the work).
    REFERENCE_ON_EVERY_CPU = False
    #: Full bags of mutation calls in the crash tail a restart replays.
    TAIL_BAGS = 2

    def __init__(self, seed: int, size: str, recorder: Recorder):
        self.rng = Random(seed)
        self.size = size
        self.rec = recorder
        #: The state the last ``restart`` brought back, for ``check``.
        self.restarted: Any = None

    def drop_restart(self) -> None:
        """Release the last restart's state."""
        self.restarted = None

    def close(self) -> None:
        """Release everything (idempotent)."""


class HamletWrites(Workload):
    """Order-sensitive writes on Hamlet through ResilientCollection, with
    a replica following the primary's log and serving reads.

    One loop round, from one thread: 1-4 mutation calls on the primary,
    one replica ``poll`` (tail, apply, publish a view), then 1-3 reads
    per mutation call on the replica's latest view.

    Restart: a second collection is created from the same document, takes
    a fixed tail of mutation calls and is abandoned without ``close()`` (a
    simulated crash); each restart times ``recover`` of its directory.
    """

    name = "hamlet-writes"
    SETUPS = 5
    RESTARTS = 10
    TAIL_BAGS = 1
    #: The crash tail's four batches: one bag of sizes, so every seed's
    #: tail holds 36 single ops and 25 batched inserts.
    TAIL_BATCH_SIZES = (1, 4, 4, 16)

    #: Share of non-quadratic replica reads checked against NaiveEvaluator.
    CHECK_SHARE = 0.1

    def __init__(self, seed: int, size: str, recorder: Recorder):
        super().__init__(seed, size, recorder)
        self.mix = MutationMix(self.rng.randrange(2**31), batches=True)
        self.tail_mix = MutationMix(self.rng.randrange(2**31), batches=True, batch_sizes=self.TAIL_BATCH_SIZES)
        self.queries = QueryMix(self.rng.randrange(2**31))
        self.sampler = Random(self.rng.randrange(2**31))
        self.calls_per_round = Bag(self.rng, (1, 2, 3, 4))
        self.reads_per_call = Bag(self.rng, (1, 2, 3))
        self.log: List[Op] = []
        self.collection: Optional[ResilientCollection] = None
        self.replica: Optional[ReplicaCollection] = None
        self.mutations = 0
        self.batch_ops = 0
        self.visible: List[float] = []
        self.checked = 0

    def setup(self, directory: Path) -> float:
        documents = [_hamlet(self.size)]
        started = time.perf_counter()
        collection = ResilientCollection.create(directory, documents)
        replica = ReplicaCollection(directory)
        elapsed = time.perf_counter() - started
        if self.collection is None:
            self.collection, self.replica, self.directory = collection, replica, directory
            self.wal_start = os.path.getsize(directory / recovery.WAL_NAME)
        else:
            replica.close()
            collection.close()
        return elapsed

    def prepare_restart(self, directory: Path) -> None:
        crashed = ResilientCollection.create(directory, [_hamlet(self.size)])
        try:
            for _ in range(self.TAIL_BAGS * self.tail_mix.bag_size):
                nodes = preorder(crashed.documents[0])
                apply_op(crashed, self.tail_mix.draw(0, nodes), nodes)
            self.crashed_fingerprint = collection_fingerprint(crashed.live)
            self.problems = _audit_problems("crashed", crashed.live)
        finally:
            # Abandoned, never closed.  Only the log's file handle is
            # released, as the kernel would; with fsync="always" every
            # acknowledged record is already on disk.
            crashed.durable.wal.close()
        self.crash_directory = directory

    def _mutate(self) -> Optional[float]:
        """One mutation call on the primary; the time it was acknowledged."""
        assert self.collection is not None
        nodes = preorder(self.collection.documents[0])
        op = self.mix.draw(0, nodes)
        self.log.append(op)
        kind = f"batch{len(op['ops'])}" if op["op"] == "batch" else "write"
        committed = self.rec.call(kind, lambda: apply_op(self.collection, op, nodes))
        if committed is FAILED:
            return None
        self.mutations += committed
        if kind != "write":
            self.batch_ops += committed
        return time.perf_counter()

    def step(self) -> None:
        assert self.replica is not None
        calls = self.calls_per_round.next()
        acks = [self._mutate() for _ in range(calls)]
        if self.rec.call("poll", self.replica.poll) is FAILED:
            return
        published = time.perf_counter()
        self.visible.extend(published - ack for ack in acks if ack is not None)
        for _ in range(sum(self.reads_per_call.next() for _ in range(calls))):
            view = self.replica.read_view()
            text = self.queries.next()
            rows = self.rec.call("read", lambda: view.query(text))
            if (
                rows is not FAILED
                and self.queries.shape_of[text] not in QUADRATIC_SHAPES
                and self.sampler.random() < self.CHECK_SHARE
            ):
                with self.rec.oracle():
                    self._check_read(text, rows)

    def _check_read(self, text: str, rows: Sequence[Any]) -> None:
        """Replica rows vs NaiveEvaluator on the primary at the same seq."""
        assert self.collection is not None and self.replica is not None
        if self.replica.applied_seq != self.collection.durable.last_seq:
            self.rec.fail(f"replica at seq {self.replica.applied_seq}, primary {self.collection.durable.last_seq}")
            return
        self.checked += 1
        replica_positions = _positions(self.replica.live.documents[0])
        primary_root = self.collection.documents[0]
        primary_positions = _positions(primary_root)
        got = [replica_positions[id(row.node)] for row in rows]
        want = [primary_positions[id(node)] for node in NaiveEvaluator([primary_root]).evaluate(text)]
        if got != want:
            self.rec.fail(f"replica read {text}: {len(got)} rows, naive {len(want)}")

    def restart(self) -> float:
        started = time.perf_counter()
        self.restarted = recovery.recover(self.crash_directory)
        return time.perf_counter() - started

    def check(self) -> List[str]:
        assert self.collection is not None and self.replica is not None
        wal_bytes = os.path.getsize(self.directory / recovery.WAL_NAME) - self.wal_start
        self.rec.notes["wal_bytes_per_op"] = wal_bytes / max(1, self.mutations)
        batch_s = sum(sum(v) for k, v in self.rec.samples.items() if k.startswith("batch"))
        if batch_s:
            self.rec.notes["batch_ops_per_s"] = self.batch_ops / batch_s
        self.rec.notes["oracle_checked_reads"] = self.checked
        if self.visible:
            self.rec.notes["visible_p50_ms"] = quantile(self.visible, 0.5) * 1000.0
            self.rec.notes["visible_p90_ms"] = quantile(self.visible, 0.9) * 1000.0
        # Built only now, so the timed phases never carried its heap.
        twin = LiveCollection([_hamlet(self.size)], strategy="scan")
        for op in self.log:
            apply_op(twin, op, preorder(twin.documents[0]))
        live = self.collection.live
        recovered = self.restarted.collection
        problems = self.problems + _fingerprint_problems("twin vs primary", twin, live)
        if collection_fingerprint(recovered) != self.crashed_fingerprint:
            problems.append("recovered vs crashed collection: fingerprint differs")
        problems += _audit_problems("primary", live)
        problems += _audit_problems("recovered", recovered)
        self.replica.catch_up()
        problems += _fingerprint_problems("replica vs primary", live, self.replica.live)
        problems += [f"replica view audit: {v}" for v in self.replica.read_view().audit()]
        return problems

    def close(self) -> None:
        if self.collection is not None:
            self.replica.close()
            self.collection.close()
            self.collection = self.replica = None


class PaperQueries(Workload):
    """The Table 2 query stream over the replicated play corpus.

    Restart: the serving label store is saved once; each restart times
    ``load_store`` of that file and a fresh engine over it.
    """

    name = "paper-queries"
    SETUPS = 3
    RESTARTS = 6

    def __init__(self, seed: int, size: str, recorder: Recorder):
        super().__init__(seed, size, recorder)
        corpus = build_query_corpus() if size == "full" else build_query_corpus(plays=2, replicate=2)
        self.texts = [serialize(document) for document in corpus]
        self.mix = QueryMix(self.rng.randrange(2**31))
        #: The rows of each text's first evaluation.
        self.results: Dict[str, List[Any]] = {}
        self.engine: Optional[QueryEngine] = None

    def setup(self, directory: Path) -> float:
        started = time.perf_counter()
        documents = [parser.parse_document(text) for text in self.texts]
        store = LabelStore.build(documents, scheme="prime")
        engine = QueryEngine(store)
        elapsed = time.perf_counter() - started
        if self.engine is None:
            self.documents, self.store, self.engine = documents, store, engine
        return elapsed

    def prepare_restart(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / "store.rpls"
        persist.save_store(self.store, self.path)

    def step(self) -> None:
        assert self.engine is not None
        text = self.mix.next()
        rows = self.rec.call("read", lambda: self.engine.evaluate(text))
        if rows is FAILED:
            return
        # The first answer to a text is checked against NaiveEvaluator at
        # the end; every later answer to it must be the same rows.
        with self.rec.oracle():
            first = self.results.setdefault(text, list(rows))
            if rows is not first and list(rows) != first:
                self.rec.fail(f"{text}: repeated evaluation gave {len(rows)} rows, first {len(first)}")

    def restart(self) -> float:
        started = time.perf_counter()
        self.restarted = QueryEngine(persist.load_store(self.path))
        return time.perf_counter() - started

    def check(self) -> List[str]:
        problems: List[str] = []
        naive = NaiveEvaluator(self.documents)
        # The quadratic shapes cost seconds per text over the whole corpus,
        # so they are checked on one seeded document each (an order axis
        # never leaves its document).
        for text, rows in self.results.items():
            if self.mix.shape_of[text] in QUADRATIC_SHAPES:
                doc = self.rng.randrange(len(self.documents))
                expected = [id(node) for node in NaiveEvaluator([self.documents[doc]]).evaluate(text)]
                got = [id(row.node) for row in rows if row.doc_id == doc]
                where = f" in document {doc}"
            else:
                expected = [id(node) for node in naive.evaluate(text)]
                got = [id(row.node) for row in rows]
                where = ""
            if got != expected:
                problems.append(f"{text}{where}: {len(got)} rows, naive {len(expected)}")
        self.rec.notes["oracle_checked_texts"] = len(self.results)
        for text in list(self.results)[:9]:
            got = [(row.doc_id, row.element_id) for row in self.restarted.evaluate(text)]
            want = [(row.doc_id, row.element_id) for row in self.results[text]]
            if got != want:
                problems.append(f"reloaded store answers {text} differently")
        return problems


class ShardedMixed(Workload):
    """Routed writes plus scatter-gather queries on a two-worker fleet.

    Restart: a second fleet is created from the same documents, takes a
    fixed tail of routed writes and is closed; each restart times
    ``ShardedCollection.open`` of its directory.
    """

    name = "sharded-mixed"
    SETUPS = 8
    RESTARTS = 16
    REFERENCE_ON_EVERY_CPU = True

    DOCUMENTS = 8
    SHARDS = 2
    #: Every play has four acts and is grown to ``NODES`` elements (no
    #: seeded four-act play is larger), so the seed changes the plays'
    #: content but not their shape or size.
    ACTS = 4
    NODES = 950
    #: Share of non-quadratic scatter-gathers checked against NaiveEvaluator.
    CHECK_SHARE = 0.5

    def __init__(self, seed: int, size: str, recorder: Recorder):
        super().__init__(seed, size, recorder)
        self.documents = [
            self._play(seed * 16 + index, self.ACTS) if size == "full"
            else play(seed=seed * 16 + index, acts=1)
            for index in range(self.DOCUMENTS)
        ]
        self.twin = LiveCollection([d.copy() for d in self.documents], strategy="scan")
        self.mix = MutationMix(self.rng.randrange(2**31))
        self.tail_mix = MutationMix(self.rng.randrange(2**31))
        self.queries = QueryMix(self.rng.randrange(2**31))
        self.sampler = Random(self.rng.randrange(2**31))
        self.targets = Bag(self.rng, range(self.DOCUMENTS))
        self.service: Optional[ShardedCollection] = None
        self.problems: List[str] = []
        self.steps = 0
        self.checked = 0
        self.quadratic_checked = False

    @staticmethod
    def _play(seed: int, acts: int, nodes: int = NODES) -> XmlElement:
        """A play grown to ``nodes`` elements (kept as is if already larger)."""
        base = play(seed=seed, acts=acts)
        size = sum(1 for _ in base.iter_preorder())
        return base if size >= nodes else play(seed=seed, acts=acts, node_budget=nodes)

    def setup(self, directory: Path) -> float:
        documents = [d.copy() for d in self.documents]
        started = time.perf_counter()
        service = ShardedCollection.create(directory, documents, shards=self.SHARDS)
        elapsed = time.perf_counter() - started
        if self.service is None:
            self.service = service
            self._spread_workers(service)
        else:
            service.close()
        return elapsed

    @staticmethod
    def _spread_workers(service: ShardedCollection) -> None:
        """Give each serving worker a CPU of its own, as a deployment with
        one worker per core would.  Left to the scheduler, both workers
        sometimes share the client's CPU for a whole run; every
        scatter-gather then runs its two halves one after the other, and
        reads take about a third longer than in runs where they do not."""
        cpus = sorted(os.sched_getaffinity(0))
        for health in service.status():
            if health.pid is not None:
                os.sched_setaffinity(health.pid, {cpus[health.shard_id % len(cpus)]})

    def prepare_restart(self, directory: Path) -> None:
        twin = LiveCollection([d.copy() for d in self.documents], strategy="scan")
        source = ShardedCollection.create(directory, [d.copy() for d in self.documents], shards=self.SHARDS)
        try:
            for _ in range(self.TAIL_BAGS * self.tail_mix.bag_size):
                doc = self.targets.next()
                nodes = preorder(twin.documents[doc])
                op = self.tail_mix.draw(doc, nodes)
                apply_routed(source, op)
                apply_op(twin, op, nodes)
            self.source_expected = [serialize(root) for root in twin.documents]
            self.problems += self._identity_problems("restart source fleet", source, self.source_expected)
        finally:
            source.close()
        self.source_directory = directory

    def step(self) -> None:
        doc = self.targets.next()
        nodes = preorder(self.twin.documents[doc])
        op = self.mix.draw(doc, nodes)
        if self.rec.call("write", lambda: apply_routed(self.service, op)) is FAILED:
            return
        with self.rec.oracle():
            apply_op(self.twin, op, nodes)
        self.steps += 1
        if self.steps % 4:
            return
        text = self.queries.next()
        result = self.rec.call("read", lambda: self.service.query(text))
        if result is FAILED:
            return
        if not result.complete:
            self.rec.fail(f"{text}: incomplete answer, missing {sorted(result.missing_shards)}")
            return
        quadratic = self.queries.shape_of[text] in QUADRATIC_SHAPES
        if quadratic and self.quadratic_checked:
            return
        if self.sampler.random() < self.CHECK_SHARE:
            self.quadratic_checked |= quadratic
            with self.rec.oracle():
                self._check_query(text, result.rows)

    def _check_query(self, text: str, rows: Sequence[Any]) -> None:
        self.checked += 1
        roots = self.twin.documents
        doc_of = {id(root): doc for doc, root in enumerate(roots)}
        want = sorted((doc_of[id(n.root)], n.tag, n.depth, n.text) for n in NaiveEvaluator(roots).evaluate(text))
        got = sorted((row.doc, row.tag, row.depth, row.text) for row in rows)
        if got != want:
            self.rec.fail(f"scatter-gather {text}: {len(got)} rows, naive {len(want)}")

    def _identity_problems(self, label: str, service: ShardedCollection, expected: List[str]) -> List[str]:
        got = [service.serialize_document(doc) for doc in range(self.DOCUMENTS)]
        problems = [f"{label}: document {doc} differs from the twin" for doc in range(self.DOCUMENTS) if got[doc] != expected[doc]]
        problems += [f"{label}: shard {s} audit: {v}" for s, found in service.audit().items() for v in found]
        return problems

    def restart(self) -> float:
        started = time.perf_counter()
        self.restarted = ShardedCollection.open(self.source_directory)
        return time.perf_counter() - started

    def drop_restart(self) -> None:
        """Check the reopened fleet, then close it: the next reopen needs
        the shard directories to itself."""
        if self.restarted is not None:
            self.problems += self._identity_problems("reopened fleet", self.restarted, self.source_expected)
            self.restarted.close()
            self.restarted = None

    def check(self) -> List[str]:
        assert self.service is not None
        self.rec.notes["oracle_checked_queries"] = self.checked
        self.drop_restart()
        expected = [serialize(root) for root in self.twin.documents]
        return self.problems + self._identity_problems("fleet", self.service, expected)

    def close(self) -> None:
        self.drop_restart()
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (HamletWrites, PaperQueries, ShardedMixed)}
