"""Crash recovery: the crash matrix, snapshot fallback, and replay fidelity.

The central claim of the durability subsystem is *byte-identical*
recovery: crash the process at any WAL record boundary, recover, and the
collection's entire durable state (trees, prime labels, generator
positions, SC grouping, accumulated cost) matches a run that never
crashed.  These tests enforce the claim exhaustively — one simulated
crash at **every** record boundary of a 200+-operation randomized
workload — plus the corruption-fallback half of the protocol.
"""

import os
import random

import pytest

from repro.durable import (
    CrashAfterAppends,
    DurableCollection,
    InjectedCrash,
    TornAppend,
    collection_fingerprint,
    recover,
)
from repro.durable.recovery import snapshot_path
from repro.durable.faults import flip_bit, truncate_file
from repro.errors import RecoveryError
from repro.xmlkit.parser import parse_document

BASE_DOC = "<r><a><a1/><a2/></a><b/><c><d/></c></r>"
EXTRA_DOC = "<p><q>text</q><q/></p>"
OPERATIONS = 200
WORKLOAD_SEED = 23
#: Crash runs honor the CI fault-injection matrix: recovery must be
#: byte-identical under every fsync policy (the policy moves the loss
#: window, not the replay semantics).  Locally defaults to the fast one.
FSYNC = os.environ.get("REPRO_WAL_FSYNC", "never")


def apply_operation_number(collection, rng, step):
    """Apply the ``step``-th workload operation.

    Choices depend only on the rng stream and current state, so two runs
    from the same starting point perform the identical sequence.
    """
    roll = rng.random()
    if roll < 0.04:
        collection.add_document(parse_document(EXTRA_DOC))
        return
    if roll < 0.07:
        collection.compact()
        return
    roots = collection.documents
    root = roots[rng.randrange(len(roots))]
    nodes = list(root.iter_preorder())
    target = nodes[rng.randrange(len(nodes))]
    if roll < 0.60:
        collection.insert_child(target, rng.randint(0, len(target.children)))
    elif roll < 0.75 and target is not root:
        collection.insert_before(target, tag=f"n{step}")
    elif roll < 0.90 and target is not root:
        collection.insert_after(target, tag=f"n{step}")
    elif target is not root:
        collection.delete(target)
    else:
        collection.insert_child(target, 0)


def run_workload(collection, operations, checkpoint_at=None):
    """Run the deterministic workload; returns per-step fingerprints.

    ``fingerprints[k]`` is the state after ``k`` operations (index 0 =
    the freshly created collection).  Stops early — recording nothing for
    the interrupted step — if an injected crash fires.
    """
    rng = random.Random(WORKLOAD_SEED)
    fingerprints = [collection_fingerprint(collection.live)]
    for step in range(operations):
        try:
            apply_operation_number(collection, rng, step)
        except InjectedCrash:
            break
        fingerprints.append(collection_fingerprint(collection.live))
        if checkpoint_at is not None and step + 1 == checkpoint_at:
            collection.checkpoint()
    return fingerprints


@pytest.fixture(scope="module")
def reference_fingerprints(tmp_path_factory):
    """Fingerprints after each of the workload's operations, no crash."""
    workdir = tmp_path_factory.mktemp("reference")
    collection = DurableCollection.create(
        workdir / "col", [parse_document(BASE_DOC)], fsync="never"
    )
    fingerprints = run_workload(collection, OPERATIONS)
    collection.close()
    assert len(fingerprints) == OPERATIONS + 1
    return fingerprints


class TestCrashMatrix:
    def test_recovery_is_byte_identical_at_every_record_boundary(
        self, tmp_path, reference_fingerprints
    ):
        """One crash per WAL record boundary, 0..OPERATIONS."""
        mismatches = []
        for crash_after in range(OPERATIONS + 1):
            workdir = tmp_path / f"crash-{crash_after}"
            collection = DurableCollection.create(
                workdir,
                [parse_document(BASE_DOC)],
                fsync=FSYNC,
                faults=CrashAfterAppends(crash_after),
            )
            survived = run_workload(collection, OPERATIONS)
            applied = len(survived) - 1
            assert applied == min(crash_after, OPERATIONS)
            recovered = recover(workdir)
            if (
                collection_fingerprint(recovered.collection)
                != reference_fingerprints[applied]
            ):
                mismatches.append(crash_after)
        assert mismatches == []

    @pytest.mark.parametrize("checkpoint_at", [1, 50, 120])
    def test_crashes_after_a_checkpoint_recover_identically(
        self, tmp_path, reference_fingerprints, checkpoint_at
    ):
        """A mid-run checkpoint changes the recovery *path* (snapshot base
        + shorter replay) but must not change the recovered state."""
        for crash_after in (checkpoint_at, checkpoint_at + 7, OPERATIONS):
            workdir = tmp_path / f"ckpt-{checkpoint_at}-{crash_after}"
            collection = DurableCollection.create(
                workdir,
                [parse_document(BASE_DOC)],
                fsync=FSYNC,
                faults=CrashAfterAppends(crash_after),
            )
            survived = run_workload(
                collection, OPERATIONS, checkpoint_at=checkpoint_at
            )
            applied = len(survived) - 1
            recovered = recover(workdir)
            assert (
                collection_fingerprint(recovered.collection)
                == reference_fingerprints[applied]
            )
            if applied > checkpoint_at:
                assert recovered.info.generation == 2
                assert recovered.info.replayed_records == applied - checkpoint_at

    # 16 is the record-header boundary; 17 tears one byte into the payload
    # (v3 binary payloads are only a few bytes, so larger cuts could cover
    # a whole record and tear nothing).
    @pytest.mark.parametrize("keep_bytes", [0, 1, 8, 15, 16, 17])
    def test_torn_final_record_recovers_to_the_previous_boundary(
        self, tmp_path, reference_fingerprints, keep_bytes
    ):
        torn_at = 60
        workdir = tmp_path / f"torn-{keep_bytes}"
        collection = DurableCollection.create(
            workdir,
            [parse_document(BASE_DOC)],
            fsync=FSYNC,
            faults=TornAppend(at=torn_at, keep_bytes=keep_bytes),
        )
        survived = run_workload(collection, OPERATIONS)
        assert len(survived) - 1 == torn_at - 1
        recovered = recover(workdir)
        assert recovered.info.torn_bytes == keep_bytes
        assert (
            collection_fingerprint(recovered.collection)
            == reference_fingerprints[torn_at - 1]
        )


class TestSnapshotFallback:
    def build(self, workdir, ops_before=30, ops_after=20):
        collection = DurableCollection.create(
            workdir, [parse_document(BASE_DOC)], fsync=FSYNC
        )
        rng = random.Random(WORKLOAD_SEED)
        for step in range(ops_before):
            apply_operation_number(collection, rng, step)
        collection.checkpoint()  # generation 2
        for step in range(ops_before, ops_before + ops_after):
            apply_operation_number(collection, rng, step)
        fingerprint = collection_fingerprint(collection.live)
        collection.close()
        return fingerprint

    @pytest.mark.parametrize("damage", ["flip-header", "flip-middle", "truncate"])
    def test_corrupt_latest_generation_falls_back_and_still_replays(
        self, tmp_path, damage
    ):
        fingerprint = self.build(tmp_path)
        latest = snapshot_path(tmp_path, 2)
        if damage == "flip-header":
            flip_bit(latest, 6)
        elif damage == "flip-middle":
            flip_bit(latest, latest.stat().st_size // 2, 5)
        else:
            truncate_file(latest, latest.stat().st_size // 3)
        recovered = recover(tmp_path)
        assert recovered.info.generation == 1
        assert recovered.info.skipped_generations == [2]
        # generation 1 predates every WAL record, so the full history replays
        assert collection_fingerprint(recovered.collection) == fingerprint

    def test_all_generations_corrupt_is_a_recovery_error(self, tmp_path):
        self.build(tmp_path)
        flip_bit(snapshot_path(tmp_path, 1), 10)
        flip_bit(snapshot_path(tmp_path, 2), 10)
        with pytest.raises(RecoveryError) as excinfo:
            recover(tmp_path)
        assert "generation" in str(excinfo.value)

    def test_empty_directory_is_a_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path)

    def test_missing_directory_is_a_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path / "never-created")


class TestReplayFidelity:
    def test_recovery_reports_replayed_counts(self, tmp_path):
        collection = DurableCollection.create(
            tmp_path / "col", [parse_document(BASE_DOC)], fsync="always"
        )
        rng = random.Random(1)
        for step in range(25):
            apply_operation_number(collection, rng, step)
        collection.close()
        recovered = recover(tmp_path / "col")
        assert recovered.info.replayed_records == 25
        assert recovered.info.generation == 1
        assert recovered.info.audit_checks > 0
        assert recovered.collection.check()

    def test_recovered_collection_answers_queries(self, tmp_path):
        collection = DurableCollection.create(
            tmp_path / "col", [parse_document(BASE_DOC)], fsync="always"
        )
        collection.insert_child(collection.documents[0], 0, tag="z")
        collection.add_document(parse_document(EXTRA_DOC))
        expected = {
            query: collection.count(query) for query in ("//q", "//z", "//*")
        }
        collection.close()
        recovered = DurableCollection.open(tmp_path / "col")
        for query, count in expected.items():
            assert recovered.count(query) == count
        recovered.close()


class TestReplayAddressing:
    """WAL addresses are preorder positions.  A collection with cached
    window columns (a replica applying what it polls) resolves them by pre
    rank; one without (recovery) walks the tree and builds no engine."""

    def test_pre_rank_lookup_equals_the_walk_after_single_ops_and_batches(
        self, tmp_path
    ):
        from repro.durable.recovery import _node_at
        from repro.query import BatchOp
        from repro.replica import ReplicaCollection

        rng = random.Random(11)
        primary = DurableCollection.create(
            tmp_path / "col",
            [parse_document(BASE_DOC), parse_document("<s><t/><u><v/></u></s>")],
            fsync="never",
        )
        replica = ReplicaCollection(tmp_path / "col")
        checked = 0
        try:
            for step in range(60):
                root = primary.documents[rng.randrange(2)]
                nodes = list(root.iter_preorder())
                target = nodes[rng.randrange(len(nodes))]
                roll = rng.random()
                if roll < 0.2:
                    primary.apply_batch(
                        [BatchOp.insert_child(target, 0, tag=f"b{step}")]
                        + [BatchOp.insert_child(root, 0, tag=f"c{step}")] * 2
                    )
                elif roll < 0.35 and target is not root and len(nodes) > 6:
                    primary.delete(target)
                elif roll < 0.55 and target is not root:
                    primary.insert_after(target, tag=f"a{step}")
                elif roll < 0.7 and target is not root:
                    primary.insert_before(target, tag=f"p{step}")
                else:
                    primary.insert_child(target, len(target.children), tag=f"n{step}")
                replica.poll()
                live = replica.live
                for doc, doc_root in enumerate(live.documents):
                    for position, walked in enumerate(doc_root.iter_preorder()):
                        assert live.cached_node_at(doc, position) is walked
                        assert _node_at(live, doc, position) is walked
                        checked += 1
                    assert live.cached_node_at(doc, position + 1) is None
            assert replica.applied_seq == primary.last_seq
            assert collection_fingerprint(replica.live) == collection_fingerprint(
                primary.live
            )
        finally:
            replica.close()
            primary.close()
        assert checked > 1000

    def test_without_an_engine_the_walk_answers_and_none_is_built(self):
        from repro.durable.recovery import _node_at
        from repro.obs import metrics
        from repro.query import LiveCollection

        live = LiveCollection([parse_document(BASE_DOC)])
        walk = list(live.documents[0].iter_preorder())
        with metrics.collecting() as registry:
            for position, walked in enumerate(walk):
                assert live.cached_node_at(0, position) is None
                assert _node_at(live, 0, position) is walked
            rebuilds = registry.counter_value("live.engine_rebuilds")
        assert rebuilds == 0
