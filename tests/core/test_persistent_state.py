"""Differential tests for the persistent incremental state.

:class:`~repro.core.incremental.IncrementalCFPQ` keeps one closed matrix
per non-terminal across batches, and the counting support store keeps
its annotated matrices across batches; neither is rebuilt per update.
Seeded random interleavings of batch inserts, DRed deletes, tuple-path
inserts and inserts that create nodes (the matrices change shape) run
on funding and on small random graphs, under the ``delta`` and
``blocked`` strategies.  After every step:

* every non-terminal's pairs equal a fresh ``solve_matrix``, and the
  persistent matrices (when present) hold exactly the fact sets;
* the counting store's supports equal a ``support_mode="tuples"``
  solver's, entry for entry;
* ``last_changes`` is exactly the cells that entered or left;
* halfway through, the solver is replaced by one warm-started from its
  ``export_state`` on a copy of the graph, and the later steps still
  agree.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_semiring_differential import make_case  # noqa: E402

from repro.core.incremental import IncrementalCFPQ  # noqa: E402
from repro.core.matrix_cfpq import solve_matrix  # noqa: E402
from repro.datasets.registry import build_graph  # noqa: E402
from repro.grammar.builders import same_generation_query1  # noqa: E402
from repro.grammar.parser import parse_grammar  # noqa: E402
from repro.graph.labeled_graph import LabeledGraph  # noqa: E402

STRATEGIES = ("delta", "blocked")

#: ``a`` is both a base rule and part of composites, so one fact can
#: hold edge and split supports at once.
_SMALL_GRAMMAR = "S -> a S b | a b | S S | a"


def _copy(graph: LabeledGraph) -> LabeledGraph:
    """An independent graph with the same nodes in the same id order."""
    return LabeledGraph.from_edges(list(graph.edges()),
                                   nodes=list(graph.nodes))


def _relations(solver: IncrementalCFPQ) -> dict:
    return {nt: solver.pairs(nt) for nt in solver.grammar.nonterminals}


def _random_steps(rng: random.Random, graph: LabeledGraph, labels,
                  count: int) -> list:
    """``count`` (kind, edges) steps over *graph*'s nodes.  Deletes
    mostly pick present edges, so DRed has work; ``grow`` inserts reach
    a node the graph does not have yet."""
    nodes = list(graph.nodes)
    edges = sorted(graph.edges(), key=repr)

    def edge():
        return (rng.choice(nodes), rng.choice(labels), rng.choice(nodes))

    steps = []
    for index in range(count):
        kind = rng.choice(("add_edges", "remove_edges", "add_edge",
                           "grow"))
        if kind == "remove_edges":
            batch = [rng.choice(edges) if edges and rng.random() < 0.8
                     else edge() for _ in range(rng.randint(1, 2))]
        elif kind == "grow":
            new_node = ("new", index)
            nodes.append(new_node)
            batch = [(rng.choice(nodes), rng.choice(labels), new_node),
                     edge()]
        elif kind == "add_edge":
            batch = [edge()]
        else:
            batch = [edge() for _ in range(rng.randint(1, 3))]
        edges.extend(e for e in batch if kind != "remove_edges")
        steps.append((kind, batch))
    return steps


def _apply(solver: IncrementalCFPQ, kind: str, batch: list) -> int:
    if kind == "remove_edges":
        return solver.remove_edges(batch)
    if kind == "add_edge":
        return solver.add_edge(*batch[0])
    return solver.add_edges(batch)


def _check_step(counting: IncrementalCFPQ, tuples: IncrementalCFPQ,
                before: dict, where) -> None:
    after = _relations(counting)
    scratch = solve_matrix(counting.graph, counting.grammar,
                           backend="sparse", normalize=False)
    for nonterminal, pairs in after.items():
        assert pairs == scratch.matrices[nonterminal].to_pair_set(), \
            (where, nonterminal)
    if counting._matrices is not None:
        # The kept matrices mirror the fact sets; their size may trail
        # the node count until the next batch pads them.
        for nonterminal, pairs in after.items():
            assert counting._matrices[nonterminal].to_pair_set() == pairs, \
                (where, nonterminal)
    assert _relations(tuples) == after, where
    assert counting._supports == tuples._supports, where
    expected_changes = {
        nonterminal: before[nonterminal] ^ pairs
        for nonterminal, pairs in after.items()
        if before[nonterminal] ^ pairs
    }
    changes = {nonterminal: set(pairs)
               for nonterminal, pairs in counting.last_changes.items()
               if pairs}
    assert changes == expected_changes, where


def _run(graph: LabeledGraph, grammar, strategy: str, steps: list,
         **options) -> None:
    counting = IncrementalCFPQ(_copy(graph), grammar, backend="sparse",
                               strategy=strategy, support_mode="counting",
                               **options)
    tuples = IncrementalCFPQ(_copy(graph), grammar, backend="sparse",
                             strategy=strategy, support_mode="tuples",
                             **options)
    for index, (kind, batch) in enumerate(steps):
        if index == len(steps) // 2:
            counting = IncrementalCFPQ(
                _copy(counting.graph), grammar, backend="sparse",
                strategy=strategy, warm_state=counting.export_state(),
                support_mode="counting", **options)
            assert counting.initial_closure_iterations == 0
        before = _relations(counting)
        assert _apply(counting, kind, batch) == _apply(tuples, kind, batch), \
            (strategy, index, kind)
        _check_step(counting, tuples, before, (strategy, index, kind))


def _delete_first(steps: list, graph: LabeledGraph) -> list:
    """Lead with a deletion so both support stores are live from the
    first step on."""
    first = sorted(graph.edges(), key=repr)[0]
    return [("remove_edges", [first])] + steps


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(6))
def test_small_graphs(strategy, seed):
    if seed % 2:
        graph, grammar = make_case(seed, max_nodes=6)
    else:
        grammar = parse_grammar(_SMALL_GRAMMAR, terminals=["a", "b"])
        rng = random.Random(seed)
        graph = LabeledGraph.from_edges(
            [(rng.randrange(5), rng.choice("ab"), rng.randrange(5))
             for _ in range(8)], nodes=list(range(5)))
    rng = random.Random(0x5EA1 ^ seed)
    steps = _random_steps(rng, graph, ["a", "b"], 14)
    if graph.edge_count:
        steps = _delete_first(steps, graph)
    _run(graph, grammar, strategy, steps, tile_size=2)


@pytest.mark.parametrize("strategy, steps, options", [
    ("delta", 6, {}),
    # The blocked support closure costs seconds per step here: fewer
    # steps, on a 3 × 3 tile grid.
    ("blocked", 3, {"tile_size": 256}),
])
def test_funding(strategy, steps, options):
    graph = build_graph("funding", use_cache=False)
    labels = sorted({label for _s, label, _t in graph.edges()})
    rng = random.Random(0xF00D)
    plan = _delete_first(_random_steps(rng, graph, labels, steps), graph)
    _run(graph, same_generation_query1(), strategy, plan, **options)


def test_insert_only_batches_build_the_state_once():
    """The state matrices are built by the first batch and then kept:
    later batches on an unchanged node count do not rebuild them."""
    grammar = parse_grammar(_SMALL_GRAMMAR, terminals=["a", "b"])
    solver = IncrementalCFPQ(
        LabeledGraph.from_edges([(0, "a", 1)], nodes=list(range(4))),
        grammar, backend="sparse")
    assert solver._matrices is None
    solver.add_edges([(1, "b", 2)])
    state = solver._matrices
    assert state is not None
    solver.add_edges([(2, "a", 3), (3, "b", 0)])
    assert solver._matrices is state
    solver.add_edge(0, "b", 3)  # the tuple path makes the state stale
    assert solver._matrices is None


@pytest.mark.parametrize("failing", ["relational", "supports"])
def test_failed_batch_drops_the_kept_matrices(monkeypatch, failing):
    """A closure run that raises part-way may have merged some of its
    frontier: the solver drops its matrices (the counting store its
    supports) instead of keeping a half-updated state, and later
    updates rebuild them."""
    import repro.core.incremental as incremental
    from repro.core.semiring import AnnotatedBackend

    grammar = parse_grammar(_SMALL_GRAMMAR, terminals=["a", "b"])
    graph = LabeledGraph.from_edges(
        [(0, "a", 1), (1, "b", 2), (2, "a", 3), (3, "b", 0)],
        nodes=list(range(4)))
    solver = IncrementalCFPQ(_copy(graph), grammar, backend="sparse",
                             support_mode="counting")
    solver.remove_edges([(3, "b", 0)])
    assert solver._matrices is not None
    assert solver._support_store.active

    real_closure = incremental.run_closure

    def failing_closure(matrices, rules, backend, **options):
        if isinstance(backend, AnnotatedBackend) == (failing == "supports"):
            raise RuntimeError("closure failed")
        return real_closure(matrices, rules, backend, **options)

    monkeypatch.setattr(incremental, "run_closure", failing_closure)
    with pytest.raises(RuntimeError):
        solver.add_edges([(3, "b", 0)])
    if failing == "relational":
        assert solver._matrices is None
    else:
        assert solver._matrices is not None
        assert not solver._support_store.active
    monkeypatch.undo()

    solver.remove_edges([(3, "b", 0)])
    solver.add_edges([(3, "b", 0), (0, "b", 3)])
    tuples = IncrementalCFPQ(_copy(solver.graph), grammar,
                             backend="sparse", support_mode="tuples")
    tuples.remove_edges([(9, "a", 9)])  # activates the oracle's store
    assert _relations(solver) == _relations(tuples)
    assert solver._supports == tuples._supports
