"""Seeded query mix over the nine Table 2 shapes (shared by every read workload).

The stream covers the paper's nine query shapes uniformly, with their
positional predicates filled in (35 distinct texts).  It is drawn as a
shuffled bag: each bag holds every shape equally often and each of its
predicate values equally often, in an order the seed picks, so every
run issues the same shares of each shape and predicate — the
latency percentiles of a short run do not depend on which seed drew a
heavy predicate more often — while the order, and so the stream, is the
seed's.  A future result or plan cache has to show its gain against
:meth:`QueryMix.repeat_share`, which this makes a stated property of
the mix rather than an accident of nine fixed strings.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Tuple

from common import Bag

#: (shape, template, predicate range).  Templates follow Table 2 verbatim;
#: ``{}`` is the positional predicate the seed fills.  ``None`` marks the
#: three shapes that carry no positional predicate in the paper.
SHAPES: Tuple[Tuple[str, str, Tuple[int, int] | None], ...] = (
    ("Q1", "/PLAY//ACT[{}]", (1, 5)),
    ("Q2", "/PLAY//ACT[{}]//Following::ACT", (1, 5)),
    ("Q3", "/PLAY//ACT//PERSONA", None),
    ("Q4", "/ACT[{}]//Following::SPEECH", (1, 5)),
    ("Q5", "/SPEECH[{}]//Preceding::LINE", (1, 6)),
    ("Q6", "/PLAY//ACT[{}]//LINE", (1, 5)),
    ("Q7", "/ACT//Following-Sibling::SPEECH[{}]", (1, 6)),
    ("Q8", "/PLAY//SPEECH", None),
    ("Q9", "/PLAY//LINE", None),
)

#: Shapes whose step runs an order axis from every descendant of the
#: context (``//Following::``).  The tree-walking NaiveEvaluator pays
#: O(context subtree x document) for them — seconds per query on a
#: Hamlet-sized document — so oracles check them at a lower rate.
QUADRATIC_SHAPES = frozenset({"Q2", "Q4"})


#: One bag: every shape 30 times (the least common multiple of the
#: predicate range sizes 1, 5 and 6), its predicate values equally often.
BAG: Tuple[Tuple[str, str], ...] = tuple(
    (shape, template.format(value))
    for shape, template, bounds in SHAPES
    for values in [list(range(bounds[0], bounds[1] + 1)) if bounds else [None]]
    for value in values * (30 // len(values))
)


class QueryMix:
    """A seeded stream of Table 2 query texts, with repetition bookkeeping."""

    def __init__(self, seed: int):
        self._bag = Bag(Random(seed), BAG)
        self.issued = 0
        self.counts: Dict[str, int] = {}
        self.shape_of: Dict[str, str] = dict((text, shape) for shape, text in BAG)

    def next(self) -> str:
        """The next query text of the stream."""
        _, text = self._bag.next()
        self.issued += 1
        self.counts[text] = self.counts.get(text, 0) + 1
        return text

    def repeat_share(self) -> float:
        """Share of issued queries whose text was issued before."""
        if not self.issued:
            return 0.0
        return 1.0 - len(self.counts) / self.issued
