"""The lazy :class:`ContextFreeRelations` view against eager pair sets.

``solve_matrix`` hands its closed matrices to the relations object,
which reads a relation only when it is asked for.  Every accessor must
answer exactly as an eagerly built object over ``{A: M_A.to_pair_set()}``
does, on every backend and closure strategy; and nothing that reads the
engine's closed matrices afterwards may mutate them.
"""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro import CFPQEngine
from repro.core.batch import BatchQuery, solve_batch
from repro.core.closure import available_strategies
from repro.core.matrix_cfpq import solve_matrix
from repro.core.relations import ContextFreeRelations
from repro.grammar import parse_grammar
from repro.grammar.symbols import Nonterminal
from repro.graph import LabeledGraph, two_cycles, word_chain
from repro.service import QueryService

S = Nonterminal("S")


def _nullable_case():
    """``S`` derives ε, so ``R_S`` holds the whole diagonal."""
    return two_cycles(2, 3), parse_grammar("S -> a S b | S S | eps",
                                           terminals=["a", "b"])


def _tuple_node_case():
    """Node objects are tuples (as in the repeated datasets)."""
    edges = [((copy, "x"), "a", (copy, "y")) for copy in range(2)]
    edges += [((copy, "y"), "a", (copy, "z")) for copy in range(2)]
    edges += [((copy, "z"), "b", (copy, "w")) for copy in range(2)]
    edges += [((copy, "w"), "b", (copy, "v")) for copy in range(2)]
    edges.append(((0, "v"), "b", (1, "x")))
    return (LabeledGraph.from_edges(edges),
            parse_grammar("S -> a S b | a b", terminals=["a", "b"]))


def _empty_nonterminal_case():
    """``X`` only derives the label ``c``, which no edge carries."""
    return word_chain(["a", "a", "b", "b"]), parse_grammar(
        """
        S -> a S b | a b | X
        X -> c
        """,
        terminals=["a", "b", "c"],
    )


CASES = {
    "nullable-diagonal": _nullable_case,
    "tuple-nodes": _tuple_node_case,
    "empty-nonterminal": _empty_nonterminal_case,
}


def _eager(result) -> ContextFreeRelations:
    """The oracle: every relation materialized up front."""
    return ContextFreeRelations(
        result.relations.graph,
        {nt: matrix.to_pair_set() for nt, matrix in result.matrices.items()},
    )


def _assert_agree(lazy: ContextFreeRelations,
                  eager: ContextFreeRelations) -> None:
    graph = eager.graph
    assert lazy.nonterminals == eager.nonterminals
    for nt in eager.nonterminals | {Nonterminal("Missing")}:
        assert lazy.count(nt) == eager.count(nt)
        assert lazy.node_pairs(nt) == eager.node_pairs(nt)
        for source, target in itertools.product(graph.nodes, repeat=2):
            assert (lazy.contains(nt, source, target)
                    == eager.contains(nt, source, target))
        assert lazy.pairs(nt) == eager.pairs(nt)
        assert lazy.diff(eager, nt) == (frozenset(), frozenset())
        assert eager.diff(lazy, nt) == (frozenset(), frozenset())
    assert list(lazy.triples()) == list(eager.triples())
    assert lazy.as_dict() == eager.as_dict()
    assert repr(lazy) == repr(eager)
    assert lazy.same_as(eager) and eager.same_as(lazy)
    restricted = lazy.restrict_to(["S"])
    assert restricted.nonterminals == {S}
    assert restricted.same_as(eager.restrict_to(["S"]))
    assert restricted.node_pairs(S) == eager.node_pairs(S)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("strategy", available_strategies())
def test_lazy_view_equals_eager_pair_sets(backend_name, strategy, case):
    graph, grammar = CASES[case]()
    result = solve_matrix(graph, grammar, backend=backend_name,
                          strategy=strategy)
    eager = _eager(result)
    assert eager.pairs(S), "every case derives some S pair"

    # A fresh view over the matrices answers before any relation is
    # materialized, and again after every one has been.
    fresh = ContextFreeRelations(graph, result.matrices)
    assert fresh.as_dict() == eager.as_dict()
    assert fresh.node_pairs(S) == eager.node_pairs(S)
    _assert_agree(fresh, eager)
    _assert_agree(result.relations, eager)

    # Reading the view left the matrices as they were.
    assert _eager(result).as_dict() == eager.as_dict()


def test_empty_and_nullable_relations_are_read_from_the_matrix():
    graph, grammar = _empty_nonterminal_case()
    relations = solve_matrix(graph, grammar).relations
    X = Nonterminal("X")
    assert X in relations.nonterminals
    assert relations.count(X) == 0
    assert relations.node_pairs(X) == frozenset()
    assert relations.pairs(X) == frozenset()

    graph, grammar = _nullable_case()
    relations = solve_matrix(graph, grammar).relations
    diagonal = {(node, node) for node in graph.nodes}
    assert diagonal <= relations.node_pairs(S)


def test_pairs_are_built_once_and_cached(backend_name):
    graph, grammar = _tuple_node_case()
    relations = solve_matrix(graph, grammar, backend=backend_name).relations
    first = relations.pairs(S)
    assert relations.pairs("S") is first
    assert relations.pairs(S) is first


def test_frozenset_sources_are_not_copied():
    pairs = frozenset({(0, 1)})
    relations = ContextFreeRelations(word_chain(["a"]), {S: pairs})
    assert relations.pairs(S) is pairs


@pytest.mark.parametrize("materialize", [False, True])
def test_pickle_round_trip(backend_name, materialize):
    graph, grammar = _tuple_node_case()
    result = solve_matrix(graph, grammar, backend=backend_name)
    relations = result.relations
    if materialize:
        relations.pairs(S)
    restored = pickle.loads(pickle.dumps(relations))
    assert restored.same_as(_eager(result))
    assert restored.node_pairs(S) == relations.node_pairs(S)
    assert restored.as_dict() == relations.as_dict()


def test_count_and_node_pairs_build_no_pair_set(backend_name, monkeypatch):
    graph, grammar = _tuple_node_case()
    engine = CFPQEngine(graph, grammar, backend=backend_name)
    matrix = engine.solve().matrices[S]
    expected = matrix.nnz()

    def refuse(self):
        raise AssertionError("a pair set was materialized")

    monkeypatch.setattr(type(matrix), "to_pair_set", refuse)
    assert engine.count("S") == expected
    assert len(engine.relational("S")) == expected
    assert engine.relations().count(S) == expected


def test_readers_of_the_closed_matrices_do_not_mutate_them():
    """The service, a warm batch and an incremental solver all start
    from the engine's closed matrices (or its graph); none of them may
    change what the engine's cached relations answer."""
    graph = two_cycles(3, 4)
    grammar = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
    engine = CFPQEngine(graph, grammar)
    before = engine.relational("S")
    matrices = engine.solve().matrices
    closed_before = {nt: matrix.to_pair_set()
                     for nt, matrix in matrices.items()}

    QueryService.from_engine(engine)
    nodes = sorted(graph.nodes)
    queries = [BatchQuery(S, sources=frozenset({source}))
               for source in nodes]
    queries.append(BatchQuery(S, sources=frozenset(nodes[:2]),
                              targets=frozenset(nodes[-2:]),
                              semantics="membership"))
    answers = solve_batch(engine.graph, engine.grammar, queries,
                          normalize=False, closed_matrices=matrices)
    assert frozenset().union(*answers[:-1]) == before

    solver = engine.incremental()
    solver.add_edges([(0, "a", "new"), ("new", "b", 1)])
    solver.remove_edges([(0, "a", 1)])
    assert solver.relations().node_pairs(S) != before

    assert engine.relational("S") == before
    assert {nt: matrix.to_pair_set()
            for nt, matrix in matrices.items()} == closed_before
