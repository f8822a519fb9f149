"""Shared fixtures: a menagerie of tree shapes every scheme must handle."""

from __future__ import annotations

import pytest

from repro.datasets.random_tree import RandomTreeBuilder, chain_tree, perfect_tree, star_tree
from repro.xmlkit.builder import element
from repro.xmlkit.tree import XmlElement


@pytest.fixture
def paper_tree() -> XmlElement:
    """The running example shape of the paper's Figures 2/9: a root with
    three children, the first of which has two children of its own."""
    return element(
        "root",
        element("a", element("a1"), element("a2")),
        element("b"),
        element("c"),
    )


@pytest.fixture
def book_tree() -> XmlElement:
    """Figure 6's repeated-pattern example: a book with three authors."""
    return element(
        "book",
        element("title"),
        element("author"),
        element("author"),
        element("author"),
    )


@pytest.fixture
def gcd_calls(monkeypatch):
    """Every ``extended_gcd`` call (CRT merges and modular inverses alike)
    is appended to the returned list for the duration of the test."""
    import repro.primes.crt as crt
    import repro.primes.euclid as euclid

    calls = []
    real = euclid.extended_gcd

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(euclid, "extended_gcd", counting)
    monkeypatch.setattr(crt, "extended_gcd", counting)
    return calls


def tree_menagerie():
    """A list of (name, tree) covering the structural corner cases."""
    return [
        ("single", element("only")),
        ("chain", chain_tree(6)),
        ("star", star_tree(12)),
        ("perfect-2-3", perfect_tree(2, 3)),
        ("perfect-3-2", perfect_tree(3, 2)),
        ("lopsided", element(
            "r",
            element("a", element("b", element("c", element("d")))),
            element("e"),
        )),
        ("random-60", RandomTreeBuilder(seed=7, max_depth=5, max_fanout=6).build(60)),
        ("random-200", RandomTreeBuilder(seed=11, max_depth=7, max_fanout=9).build(200)),
    ]


@pytest.fixture(params=tree_menagerie(), ids=lambda pair: pair[0])
def any_tree(request) -> XmlElement:
    name, tree = request.param
    return tree.copy()  # tests may mutate; keep the originals pristine
