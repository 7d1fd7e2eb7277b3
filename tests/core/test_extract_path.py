"""The iterative witness search against its recursive oracle.

:func:`repro.core.single_path.extract_path` keeps its pending sub-goals
on an explicit stack, so witnesses longer than the interpreter's
recursion limit come out whole; on every small graph the search must
return exactly the path the recursive search
(:mod:`single_path_oracle`) returns.
"""

from __future__ import annotations

import sys

import pytest

from repro import CFPQEngine, parse_grammar
from repro.core.single_path import (
    build_single_path_index,
    extract_path,
    path_is_valid,
)
from repro.grammar.cnf import to_cnf
from repro.grammar.symbols import Nonterminal
from repro.graph.generators import (
    random_graph,
    two_cycles,
    word_chain,
    worst_case_dyck_graph,
)

from single_path_oracle import extract_path_recursive
from test_semiring_differential import make_case

S = Nonterminal("S")
ANBN = "S -> a S b | a b"
DYCK = "S -> a S b | a b | S S"


def _assert_matches_oracle(index) -> int:
    """Every (A, i, j) of *index*: both searches give the same path."""
    graph = index.graph
    checked = 0
    for (i, j), entries in index.cells.items():
        for nonterminal in entries:
            source, target = graph.node_at(i), graph.node_at(j)
            assert (extract_path(index, nonterminal, source, target)
                    == extract_path_recursive(index, nonterminal, source,
                                              target))
            checked += 1
    return checked


def _grammar(text: str):
    return parse_grammar(text, terminals=["a", "b"])


SMALL_GRAPHS = {
    "chain-aabb": lambda: (word_chain(["a", "a", "b", "b"]), _grammar(ANBN)),
    "two-cycles-2-3": lambda: (two_cycles(2, 3), _grammar(DYCK)),
    "two-cycles-3-4": lambda: (two_cycles(3, 4), _grammar(DYCK)),
    **{f"random-{seed}": (lambda seed=seed: (
        random_graph(8, 20, ["a", "b"], seed=seed), to_cnf(_grammar(DYCK))))
       for seed in range(5)},
}


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_iterative_search_equals_recursive_oracle(name):
    graph, grammar = SMALL_GRAPHS[name]()
    index = build_single_path_index(graph, grammar)
    assert _assert_matches_oracle(index) > 0


@pytest.mark.parametrize("seed", range(8))
def test_iterative_search_equals_oracle_on_random_grammars(seed):
    graph, grammar = make_case(seed)
    index = build_single_path_index(graph, grammar, normalize=False)
    _assert_matches_oracle(index)


def test_every_dyck_witness_beyond_the_recursion_limit():
    """Worst-case Dyck graph: witnesses run to ~1,300 edges, deeper than
    the default recursion limit, and each is found whole."""
    engine = CFPQEngine(worst_case_dyck_graph(25), _grammar(ANBN))
    index = engine.single_path_index()
    graph = engine.graph
    pairs = engine.relational("S")
    longest = 0
    for source, target in pairs:
        path = engine.single_path("S", source, target)
        assert len(path) == engine.path_length("S", source, target)
        assert path[0][0] == graph.node_id(source)
        assert path[-1][2] == graph.node_id(target)
        assert path_is_valid(index, path)
        half = len(path) // 2
        assert [label for _i, label, _j in path] == ["a"] * half + ["b"] * half
        longest = max(longest, len(path))
    assert len(pairs) == 650
    assert longest > sys.getrecursionlimit()
