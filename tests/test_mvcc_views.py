"""MVCC read views: isolation, audits, and the threaded soak.

The soak is the acceptance test for the concurrency story: N reader
threads run the paper's nine Table 2 queries against whatever view is
latest while a randomized mutation stream (singles and batches) runs on
the writer.  Every view a reader touches must be internally audit-clean,
and sampled views must be byte-identical to an independent replay of the
operation history up to the sequence number the view claims — a reader
may see *stale* state, never *wrong* state.
"""

from dataclasses import fields, replace

import pytest

from repro.bench.response import PAPER_QUERIES
from repro.datasets.shakespeare import play
from repro.durable import DurableCollection, collection_fingerprint
from repro.durable.recovery import apply_operation
from repro.durable.wal import scan_wal
from repro.errors import QueryEvaluationError
from repro.query.live import BatchOp, LiveCollection
from repro.query.store import ElementRow
from repro.replica import ReaderPool
from repro.xmlkit.parser import parse_document

DOC = "<r><a><a1/><a2/></a><b/><c/></r>"


class TestReadViewBasics:
    def test_view_is_isolated_from_later_writes(self):
        live = LiveCollection([parse_document(DOC)])
        view = live.publish_view(applied_seq=0)
        before = view.count("//*")
        live.insert_child(live.documents[0], 0, tag="new")
        assert view.count("//*") == before
        assert live.count("//*") == before + 1

    def test_stale_view_rejects_rows_born_after_it(self):
        live = LiveCollection([parse_document(DOC)])
        view = live.publish_view()
        live.insert_child(live.documents[0], 0, tag="new")
        fresh = live.publish_view()
        new_row = next(r for r in fresh.engine.store.rows if r.tag == "new")
        with pytest.raises(QueryEvaluationError):
            view.engine.store.ops.order_key(new_row)

    def test_audit_flags_structural_damage(self):
        live = LiveCollection([parse_document(DOC)])
        view = live.publish_view()
        assert view.audit() == []
        # Rows are shared with the writer and never written in place, so
        # the damage goes into the view's own row list as a new row.
        rows = view.engine.store.rows
        rows[2] = replace(rows[2], parent_id=10_000)
        assert view.audit() != []

    def test_versions_are_monotonic(self):
        live = LiveCollection([parse_document(DOC)])
        first = live.publish_view(applied_seq=1)
        second = live.publish_view(applied_seq=2)
        assert second.version == first.version + 1
        assert live.latest_view() is second

    def test_read_view_publishes_lazily_once(self):
        live = LiveCollection([parse_document(DOC)])
        assert live.latest_view() is None
        view = live.read_view()
        assert live.read_view() is view


class TestPublicationIsolation:
    """Views share rows with the writer; nothing the writer does later —
    residue-overflow relabel cascades, inserts, deletes, batches — may
    show through a view published before it."""

    @staticmethod
    def capture(view):
        store = view.engine.store
        return {
            "rows": [
                (row, tuple(getattr(row, f.name) for f in fields(ElementRow)))
                for row in store.rows
            ],
            "order_keys": {row.element_id: store.ops.order_key(row) for row in store.rows},
            "windows": store.windows.columns(),
            "answers": {
                text: [row.element_id for row in view.query(text)]
                for _, text in PAPER_QUERIES
            },
        }

    @staticmethod
    def assert_unchanged(view, captured):
        now = TestPublicationIsolation.capture(view)
        assert len(now["rows"]) == len(captured["rows"])
        for (row, values), (was, was_values) in zip(now["rows"], captured["rows"]):
            assert row is was
            assert values == was_values
        assert now["order_keys"] == captured["order_keys"]
        assert now["windows"] == captured["windows"]
        assert now["answers"] == captured["answers"]
        assert view.audit() == []

    @staticmethod
    def sc_order(live):
        """Per document: element ids sorted by the live SC-table orders."""
        store = live.engine.store
        result = {}
        for doc_id in store.doc_ids:
            sc_table = live.ordered_documents[doc_id].sc_table
            result[doc_id] = [
                row.element_id
                for row in sorted(
                    store.rows_in_doc(doc_id),
                    key=lambda row: 0
                    if row.depth == 0
                    else sc_table.order_of(row.label.self_label),
                )
            ]
        return result

    def test_view_is_frozen_across_relabels_inserts_and_deletes(self):
        live = LiveCollection(
            [play(seed=2, acts=2, node_budget=500), play(seed=3, acts=1, node_budget=250)]
        )
        live.count("//LINE")  # a cached engine: writes patch its store in place
        view = live.publish_view()
        writer_rows = live.engine.store.rows
        # Share-on-publish: the view holds the writer's row objects.
        assert all(a is b for a, b in zip(view.engine.store.rows, writer_rows))
        captured = self.capture(view)
        sc_at_publish = self.sc_order(live)

        relabeled = 0
        root = live.documents[0]
        for i in range(30):  # front inserts shift every order: small primes overflow
            report = live.insert_child(root, 0, tag="SPEECH")
            relabeled += len(report.relabeled_nodes)
        assert relabeled > 0, "no residue-overflow relabel cascade was forced"
        speeches = [n for n in root.iter_preorder() if n.tag == "SPEECH"]
        for node in speeches[5:25:4]:
            live.delete(node)
        second = live.documents[1]
        middle = list(second.iter_preorder())[len(list(second.iter_preorder())) // 2]
        live.insert_after(middle, tag="LINE")
        live.apply_batch(
            [BatchOp.insert_child(second, 0, tag="LINE") for _ in range(6)]
        )
        assert live.check()

        # The writer's rows moved on: relabeled rows were swapped, not
        # written, so the view still holds the old objects with old labels.
        writer = live.engine.store
        swapped = [
            row for row, _ in captured["rows"]
            if writer.row_of(row.node) not in (None, row)
        ]
        assert swapped
        assert all(writer.row_of(row.node).label != row.label for row in swapped)

        self.assert_unchanged(view, captured)
        # Each document's view order keys sort as the SC orders did at publish.
        store = view.engine.store
        for doc_id, expected in sc_at_publish.items():
            keyed = sorted(store.rows_in_doc(doc_id), key=store.ops.order_key)
            assert [row.element_id for row in keyed] == expected

        fresh = live.publish_view()
        assert fresh.audit() == []
        assert fresh.count("//*") == live.count("//*")

    def test_view_survives_a_writer_rebuild(self):
        live = LiveCollection([play(seed=4, acts=1, node_budget=250)])
        view = live.publish_view()
        lines = view.count("//LINE")
        captured = self.capture(view)
        live.compact()  # invalidates the writer's engine: the next read rebuilds
        live.insert_child(live.documents[0], 0, tag="LINE")
        assert live.count("//LINE") == lines + 1
        self.assert_unchanged(view, captured)
        assert view.count("//LINE") == lines


class TestThreadedSoak:
    """N readers vs a randomized 500+-op mutation stream."""

    OPERATIONS = 500
    READERS = 4

    def test_soak_views_stay_clean_and_historically_exact(self, tmp_path):
        from random import Random

        primary = DurableCollection.create(
            tmp_path / "col",
            [play(seed=5, acts=3, node_budget=600)],
            fsync="never",
        )
        queries = [text for _, text in PAPER_QUERIES]
        seen_views = {}

        pool = ReaderPool(
            primary.live.latest_view,
            queries,
            threads=self.READERS,
            current_seq=lambda: primary.last_seq,
        ).start()

        rng = Random(99)
        root = primary.documents[0]
        step = 0
        while step < self.OPERATIONS:
            roll = rng.random()
            position = rng.randrange(max(1, len(root.children)))
            if roll < 0.10:
                count = rng.randint(2, 5)
                primary.bulk_insert([(root, position, "SPEECH")] * count)
            elif roll < 0.20 and len(root.children) > 4:
                victim = root.children[position]
                if victim.tag == "SPEECH":
                    primary.delete(victim)
                else:
                    primary.insert_child(root, position, tag="SPEECH")
            else:
                primary.insert_child(root, position, tag="SPEECH")
            # The writer publishes after every mutation; every 10th carries
            # a fingerprint (computed under the publish lock, so it names
            # exactly the state the view captured) for the history oracle.
            sample = step % 10 == 0
            view = primary.live.publish_view(
                applied_seq=primary.last_seq, fingerprint=sample
            )
            if sample:
                seen_views[view.applied_seq] = view
            step += 1

        report = pool.stop()
        assert report.errors == 0
        assert report.reads > 0

        # Every sampled view is internally audit-clean.
        for seq, view in sorted(seen_views.items()):
            assert view.audit() == [], f"view at seq {seq} failed its audit"

        # Byte-identity oracle: replay the WAL history into a twin and
        # fingerprint it at each sampled LSN.
        records = scan_wal(primary.directory / "wal.log").records
        # The twin must match the primary's config exactly: the fingerprint
        # covers group size and strategy, and create() pins strategy="scan".
        twin = LiveCollection([play(seed=5, acts=3, node_budget=600)], strategy="scan")
        applied = 0
        for record in records:
            apply_operation(twin, record.op)
            applied = record.seq
            if applied in seen_views:
                view = seen_views[applied]
                assert collection_fingerprint(twin) == view.fingerprint, (
                    f"view at seq {applied} diverged from its history"
                )
        assert applied == primary.last_seq
        # Staleness was actually measured (the whole point of follower
        # reads) and bounded by the stream length.
        assert report.staleness_samples
        assert report.max_staleness <= self.OPERATIONS
        primary.close()
