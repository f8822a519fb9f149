"""Seeded order-sensitive mutation stream, addressed by preorder position.

Operations are drawn as plain dicts in the WAL's addressed currency
(``doc`` index plus preorder positions), so one stream can drive an
in-process collection, its in-memory twin and a shard fleet alike.
Targets are uniform over document order, so the shift span each insert
causes varies from the whole document to nothing.
"""

from __future__ import annotations

from random import Random
from typing import Any, Dict, List, Sequence

from repro.query.live import BatchOp
from repro.xmlkit.tree import XmlElement

from common import Bag

Op = Dict[str, Any]

#: Tags for new elements: two the Table 2 queries select, two they ignore.
TAGS = ("LINE", "SPEECH", "STAGEDIR", "NOTE")

#: Batch sizes of the ``hamlet-writes`` mix: 1 shows the fixed per-batch
#: cost, 16 its amortization.
BATCH_SIZES = (1, 4, 16)


def preorder(root: XmlElement) -> List[XmlElement]:
    """The document's nodes in preorder; index = preorder position."""
    return list(root.iter_preorder())


class MutationMix:
    """Draws single ops (and optionally batches) from seeded bags.

    Single ops are 2/3 ``insert_child``, 1/12 each ``insert_before`` and
    ``insert_after``, and 1/6 leaf ``delete``.  With ``batches`` set, one
    draw in ten is an ``apply_batch`` of inserts, its size cycling
    through ``batch_sizes``.  Kinds and sizes come from bags (exact
    shares per run).  Targets are uniform over document order, stratified: each
    draw falls in the next of :data:`STRATA` equal slices of the
    document, taken from a bag, so a run's shift spans cover the
    document evenly whatever the seed.
    """

    #: Slices of document order the target draws cycle through.
    STRATA = 20

    def __init__(self, seed: int, batches: bool = False, batch_sizes: Sequence[int] = BATCH_SIZES):
        self._rng = Random(seed)
        singles = ["insert_child"] * 8 + ["insert_before", "insert_after"] + ["delete"] * 2
        self.bag_size = 40 if batches else len(singles)
        self._kinds = Bag(self._rng, singles * 3 + ["batch"] * 4 if batches else singles)
        self._inserts = Bag(self._rng, ["insert_child"] * 8 + ["insert_before", "insert_after"])
        self._sizes = Bag(self._rng, batch_sizes)
        self._strata = Bag(self._rng, range(self.STRATA))

    def _position(self, count: int, low: int = 0) -> int:
        """A stratified uniform position in ``[low, count)``."""
        share = (self._strata.next() + self._rng.random()) / self.STRATA
        return low + min(int(share * (count - low)), count - low - 1)

    def draw(self, doc: int, nodes: Sequence[XmlElement]) -> Op:
        """One operation against document ``doc`` whose preorder is ``nodes``."""
        kind = self._kinds.next()
        if kind == "batch":
            size = self._sizes.next()
            return {"op": "batch", "ops": [self._insert(doc, nodes, self._inserts.next()) for _ in range(size)]}
        if kind == "delete":
            node = nodes[self._position(len(nodes), 1)]
            while node.children:
                node = node.children[0]
            return {"op": "delete", "doc": doc, "node": nodes.index(node)}
        return self._insert(doc, nodes, kind)

    def _insert(self, doc: int, nodes: Sequence[XmlElement], kind: str) -> Op:
        rng = self._rng
        tag = rng.choice(TAGS)
        if kind == "insert_child":
            parent = self._position(len(nodes))
            index = rng.randint(0, len(nodes[parent].children))
            return {"op": kind, "doc": doc, "parent": parent, "index": index, "tag": tag}
        return {"op": kind, "doc": doc, "ref": self._position(len(nodes), 1), "tag": tag}


def batch_ops(op: Op, nodes: Sequence[XmlElement]) -> List[BatchOp]:
    """Resolve a drawn batch against one collection's pre-batch preorder."""
    resolved: List[BatchOp] = []
    for sub in op["ops"]:
        if sub["op"] == "insert_child":
            resolved.append(BatchOp.insert_child(nodes[sub["parent"]], sub["index"], tag=sub["tag"]))
        elif sub["op"] == "insert_before":
            resolved.append(BatchOp.insert_before(nodes[sub["ref"]], tag=sub["tag"]))
        else:
            resolved.append(BatchOp.insert_after(nodes[sub["ref"]], tag=sub["tag"]))
    return resolved


def apply_op(collection: Any, op: Op, nodes: Sequence[XmlElement]) -> int:
    """Apply ``op`` through ``collection``'s public mutation verbs.

    Works for any in-process collection (Live, Durable, Resilient).
    Returns the number of mutations the call committed.
    """
    kind = op["op"]
    if kind == "batch":
        collection.apply_batch(batch_ops(op, nodes))
        return len(op["ops"])
    if kind == "insert_child":
        collection.insert_child(nodes[op["parent"]], op["index"], tag=op["tag"])
    elif kind == "insert_before":
        collection.insert_before(nodes[op["ref"]], tag=op["tag"])
    elif kind == "insert_after":
        collection.insert_after(nodes[op["ref"]], tag=op["tag"])
    else:
        collection.delete(nodes[op["node"]])
    return 1


def apply_routed(service: Any, op: Op) -> None:
    """Apply a single ``op`` through a ShardedCollection's routed verbs."""
    kind = op["op"]
    if kind == "insert_child":
        service.insert_child(op["doc"], op["parent"], op["index"], op["tag"])
    elif kind == "insert_before":
        service.insert_before(op["doc"], op["ref"], op["tag"])
    elif kind == "insert_after":
        service.insert_after(op["doc"], op["ref"], op["tag"])
    else:
        service.delete(op["doc"], op["node"])
