"""Measure the three gaps the benchmark records as findings (none is fixed).

Usage (from the root of a checkout)::

    python3 perfbench/findings.py [--rounds 40] [--json OUT]

1. ``batch_of_one``: on full Hamlet through ``ResilientCollection``
   (defaults, ``fsync="always"``), one ``insert_child`` call against one
   ``apply_batch`` holding the same single insert, alternating, at the same
   seeded targets.
2. ``publish_vs_write``: a ``DurableCollection`` primary on Hamlet takes
   one write, then ``ReplicaCollection.poll()`` applies and publishes it;
   the poll's ``publish_view`` share is timed by wrapping that method on
   the replica's own collection.
3. ``scan_vs_auto``: one round of the nine Table 2 queries over
   ``build_query_corpus()`` (12 plays x 5) with ``strategy="scan"`` (the
   durable, replica and shard default) against ``"auto"`` (what
   ``repro query`` uses).

Each figure is a median over ``--rounds`` samples (rounds of the query
set for the third).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1000.0


def _timed(func: Callable[[], Any]) -> float:
    started = time.perf_counter()
    func()
    return time.perf_counter() - started


def batch_of_one(rounds: int, directory: Path) -> Dict[str, float]:
    from repro.datasets.shakespeare import hamlet
    from repro.query.live import BatchOp
    from repro.resilient.collection import ResilientCollection

    rng = Random(1)
    collection = ResilientCollection.create(directory, [hamlet()])
    single: List[float] = []
    batch: List[float] = []
    try:
        for index in range(2 * rounds):
            nodes = list(collection.documents[0].iter_preorder())
            parent = nodes[rng.randrange(len(nodes))]
            if index % 2:
                single.append(_timed(lambda: collection.insert_child(parent, 0, tag="LINE")))
            else:
                op = BatchOp.insert_child(parent, 0, tag="LINE")
                batch.append(_timed(lambda: collection.apply_batch([op])))
    finally:
        collection.close()
    return {
        "single_op_p50_ms": _median_ms(single),
        "batch_of_one_p50_ms": _median_ms(batch),
        "ratio": statistics.median(batch) / statistics.median(single),
    }


def publish_vs_write(rounds: int, directory: Path) -> Dict[str, float]:
    from repro.datasets.shakespeare import hamlet
    from repro.durable.collection import DurableCollection
    from repro.replica.collection import ReplicaCollection

    rng = Random(2)
    primary = DurableCollection.create(directory, [hamlet()])
    replica = ReplicaCollection(directory)
    live = replica.live
    publish = live.publish_view
    publishes: List[float] = []

    def timed_publish(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return publish(*args, **kwargs)
        finally:
            publishes.append(time.perf_counter() - started)

    live.publish_view = timed_publish  # type: ignore[method-assign]
    writes: List[float] = []
    polls: List[float] = []
    try:
        replica.poll()
        publishes.clear()
        for _ in range(rounds):
            nodes = list(primary.documents[0].iter_preorder())
            parent = nodes[rng.randrange(len(nodes))]
            writes.append(_timed(lambda: primary.insert_child(parent, 0, tag="LINE")))
            polls.append(_timed(replica.poll))
    finally:
        replica.close()
        primary.close()
    return {
        "write_p50_ms": _median_ms(writes),
        "poll_p50_ms": _median_ms(polls),
        "publish_view_p50_ms": _median_ms(publishes),
        "publish_share_of_poll": statistics.median(publishes) / statistics.median(polls),
    }


def scan_vs_auto(rounds: int) -> Dict[str, float]:
    from repro.bench.response import PAPER_QUERIES, build_query_corpus
    from repro.query.engine import QueryEngine
    from repro.query.store import LabelStore

    store = LabelStore.build(build_query_corpus(), scheme="prime")
    figures: Dict[str, float] = {}
    for strategy in ("scan", "auto"):
        engine = QueryEngine(store, strategy=strategy)
        samples = [
            _timed(lambda: [engine.evaluate(text) for _, text in PAPER_QUERIES])
            for _ in range(max(3, rounds // 8))
        ]
        figures[f"{strategy}_round_ms"] = _median_ms(samples)
    figures["ratio"] = figures["scan_round_ms"] / figures["auto_round_ms"]
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--json", type=Path, help="also write the figures here")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"findings: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as temp:
        figures = {
            "batch_of_one": batch_of_one(args.rounds, Path(temp) / "batch"),
            "publish_vs_write": publish_vs_write(args.rounds, Path(temp) / "replica"),
            "scan_vs_auto": scan_vs_auto(args.rounds),
        }
    for finding, values in figures.items():
        print(f"{finding}: " + "  ".join(f"{name}={value:.4g}" for name, value in values.items()))
    if args.json:
        args.json.write_text(json.dumps(figures, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
