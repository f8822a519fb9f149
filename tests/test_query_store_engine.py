"""Unit + integration tests for the label store and query engine."""

import pytest

from repro.errors import QueryEvaluationError
from repro.labeling.prefix import Bits
from repro.query.engine import QueryEngine
from repro.query.store import LabelStore, check_prefix
from repro.xmlkit.builder import element
from repro.xmlkit.parser import parse_document

SCHEMES = ["interval", "prime", "prefix-2"]

DOC_A = """
<play>
  <title/>
  <act><title/><scene><speech><line/><line/></speech></scene></act>
  <act><title/><scene><speech><line/></speech><speech><line/></speech></scene></act>
  <act><title/><scene><speech><line/><line/><line/></speech></scene></act>
</play>
"""

DOC_B = """
<play>
  <title/>
  <act><scene><speech><line/></speech></scene></act>
  <act><scene><speech><line/></speech><speech><line/><line/></speech></scene></act>
</play>
"""


@pytest.fixture(params=SCHEMES)
def engine(request):
    documents = [parse_document(DOC_A), parse_document(DOC_B)]
    return QueryEngine(LabelStore.build(documents, scheme=request.param))


class TestStoreBuild:
    def test_row_count_matches_nodes(self):
        documents = [parse_document(DOC_A), parse_document(DOC_B)]
        store = LabelStore.build(documents, scheme="interval")
        expected = sum(d.stats().node_count for d in documents)
        assert len(store) == expected

    def test_unknown_scheme_rejected(self):
        with pytest.raises(QueryEvaluationError):
            LabelStore.build([parse_document(DOC_A)], scheme="dewey")

    def test_empty_collection_rejected(self):
        with pytest.raises(QueryEvaluationError):
            LabelStore.build([], scheme="prime")

    def test_rows_with_tag_index(self):
        store = LabelStore.build([parse_document(DOC_A)], scheme="prime")
        assert len(store.rows_with_tag(0, "act")) == 3
        assert store.rows_with_tag(0, "nothing") == []
        assert store.rows_with_tag(5, "act") == []

    def test_check_prefix_udf(self):
        assert check_prefix(Bits.from_string("10"), Bits.from_string("100"))
        assert not check_prefix(Bits.from_string("10"), Bits.from_string("10"))
        assert not check_prefix(Bits.from_string("11"), Bits.from_string("100"))


class TestBasicQueries:
    def test_descendant_count(self, engine):
        # DOC_A holds 7 lines (2 + 1 + 1 + 3), DOC_B holds 4 (1 + 1 + 2).
        assert engine.count("/play//line") == 11

    def test_child_step(self, engine):
        assert engine.count("/play/act") == 5
        assert engine.count("/play/line") == 0  # lines are not direct children

    def test_first_step_matches_any_depth(self, engine):
        assert engine.count("/act") == 5
        assert engine.count("/speech") == 7

    def test_positional_first_step_per_document(self, engine):
        rows = engine.evaluate("/act[3]")
        assert len(rows) == 1  # only DOC_A has a third act

    def test_positional_inner_step_per_context(self, engine):
        # each act's 1st speech: acts with >= 1 speech -> 5 results
        assert engine.count("/play//act//speech[1]") == 5

    def test_results_sorted_and_unique(self, engine):
        rows = engine.evaluate("/play//line")
        ids = [row.element_id for row in rows]
        assert len(set(ids)) == len(ids)
        keys = [(row.doc_id, engine.store.ops.order_key(row)) for row in rows]
        assert keys == sorted(keys)

    def test_query_cannot_start_with_axis(self, engine):
        with pytest.raises(QueryEvaluationError):
            engine.evaluate("/Following::act")


class TestOrderAxes:
    def test_following_plain(self, engine):
        # acts following each act[1]: DOC_A has 2, DOC_B has 1
        assert engine.count("/play//act[1]/Following::act") == 3

    def test_following_expanded_reaches_inside(self, engine):
        # //Following:: from the last act still finds lines *inside* it
        # (descendant-or-self expansion), so the count is non-zero.
        assert engine.count("/act[3]//Following::line") > 0

    def test_preceding_expanded(self, engine):
        count = engine.count("/speech[2]//Preceding::line")
        assert count > 0

    def test_following_sibling_expanded(self, engine):
        # speeches that follow a sibling speech somewhere in an act's subtree
        assert engine.count("/act//Following-Sibling::speech") == 2

    def test_preceding_sibling_plain(self, engine):
        # each play's 2nd speech opens its scene, so no preceding siblings...
        assert engine.count("/play//speech[2]/Preceding-Sibling::speech") == 0
        # ...but each play's 3rd speech has exactly one.
        assert engine.count("/play//speech[3]/Preceding-Sibling::speech") == 2

    def test_all_schemes_agree(self):
        documents = [parse_document(DOC_A), parse_document(DOC_B)]
        queries = [
            "/play//act",
            "/play//act[2]//line",
            "/act[1]//Following::speech",
            "/speech[3]//Preceding::line",
            "/act//Following-Sibling::act[1]",
            "/play//scene//speech[2]",
        ]
        counts = {}
        for scheme in SCHEMES:
            engine = QueryEngine(LabelStore.build(documents, scheme=scheme))
            counts[scheme] = [engine.count(q) for q in queries]
        assert counts["interval"] == counts["prime"] == counts["prefix-2"]


class TestAgainstTreeTruth:
    """The engine (labels only) must agree with direct tree evaluation."""

    def test_descendants_match_tree_walk(self):
        documents = [parse_document(DOC_A)]
        engine = QueryEngine(LabelStore.build(documents, scheme="prime"))
        rows = engine.evaluate("/play//speech")
        from_tree = documents[0].find_by_tag("speech")
        assert {id(r.node) for r in rows} == {id(n) for n in from_tree}

    def test_following_matches_document_order_walk(self):
        document = parse_document(DOC_A)
        engine = QueryEngine(LabelStore.build([document], scheme="prime"))
        act2 = document.find_by_tag("act")[1]
        rows = engine.evaluate("/act[2]/Following::speech")
        preorder = list(document.iter_preorder())
        position = {id(n): i for i, n in enumerate(preorder)}
        expected = {
            id(n)
            for n in document.find_by_tag("speech")
            if position[id(n)] > position[id(act2)] and not act2.is_ancestor_of(n)
        }
        assert {id(r.node) for r in rows} == expected


class TestEngineMisc:
    def test_accepts_parsed_query(self, engine):
        from repro.query.xpath import parse_query

        assert engine.count(parse_query("/play//act")) == 5

    def test_doc_ids_filter_restricts_evaluation(self, engine):
        everywhere = engine.count("/play//act")
        only_first = len(engine.evaluate("/play//act", doc_ids={0}))
        only_second = len(engine.evaluate("/play//act", doc_ids={1}))
        assert only_first + only_second == everywhere
        assert len(engine.evaluate("/play//act", doc_ids=set())) == 0

    def test_empty_steps_rejected(self, engine):
        from repro.query.ast import Query

        with pytest.raises(QueryEvaluationError):
            engine.evaluate(Query(steps=()))


class TestRefreshLabels:
    """Rows are immutable: a refresh swaps in new rows everywhere."""

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_refresh_swaps_rows_and_leaves_the_old_ones_alone(self, shuffled):
        built = LabelStore.build([parse_document("<r><a><b/></a><c/><d/></r>")])
        rows = list(built.rows)
        if shuffled:  # a hand-assembled store whose rows are not in id order
            rows = rows[::-1]
        store = LabelStore(rows, built.ops)
        targets = [row.node for row in rows if row.tag in ("b", "d")]
        before = {id(row): (row, row.label) for row in rows}
        assert store.refresh_labels(targets, lambda node: f"new-{node.tag}") == 2
        for node in targets:
            new = store.row_of(node)
            old, label = next(
                (row, label) for row, label in before.values() if row.node is node
            )
            assert new is not old and old.label == label
            assert new.label == f"new-{node.tag}"
            assert new in store.rows and old not in store.rows
            assert store.rows_with_tag(new.doc_id, new.tag) == [new]
            assert new in store.rows_in_doc(new.doc_id)
        assert [row.element_id for row in store.rows] == [row.element_id for row in rows]
