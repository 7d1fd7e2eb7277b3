"""Single-path query semantics (Section 5 of the paper), on the
semiring-generalized closure engine.

The relational answer says *that* a path exists; the single-path
semantics must also *present one path* per triple ``(A, m, n)``.  The
paper's Section 5 modifies the closure to store, with each non-terminal
in a cell, a **path length**: cells hold pairs ``(A, l_A)``;
initialization uses length 1; when ``A`` enters cell ``(i, j)`` through
``A → B C`` with ``(B, l_B) ∈ a[i,r]`` and ``(C, l_C) ∈ a[r,j]`` its
length is ``l_A = l_B + l_C``, and a recorded length is never replaced
by a *different* derivation's length (the paper: "the non-terminal A is
not added ... with an associated path length l2 for all l2 ≠ l1").

In semiring terms (this module's formulation) that is exactly the
closure ``M_A ← M_A ⊕ (M_B ⊗ M_C)`` over the **length semiring**
(:class:`repro.core.semiring.LengthSemiring`): ⊗ adds sub-path lengths
across the midpoint, ⊕/merge keeps the minimum — the canonical,
iteration-order-free form of the paper's no-update rule (see the
semiring module docstring).  The index is therefore built by the same
strategy-pluggable engine (:func:`repro.core.closure.run_closure`) as
the relational answer: ``naive``, semi-naive ``delta`` and tiled
``blocked`` all yield byte-identical annotations.

A concrete path of exactly the recorded length is recovered by the
simple search the paper sketches after Theorem 5: split on the midpoint
``r`` and rule ``A → B C`` whose recorded lengths add up, then recover
both halves.  The search keeps its pending halves on an explicit stack,
so a witness may be longer than Python's recursion limit.

:class:`SinglePathIndex` holds the annotated closure;
:func:`extract_path` performs the search, and
:func:`repro.core.engine.CFPQEngine.single_path` wires it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator

from ..errors import PathNotFoundError
from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal, Terminal
from ..graph.labeled_graph import LabeledGraph
from .relations import ContextFreeRelations
from .semiring import LENGTH_SEMIRING, solve_annotated

#: A path is a sequence of labeled edges (source_id, label, target_id).
PathEdge = tuple[int, str, int]
Path = tuple[PathEdge, ...]

#: Cell storage: (i, j) -> {A: recorded length}.
_Cells = dict[tuple[int, int], dict[Nonterminal, int]]


@dataclass(frozen=True)
class SinglePathIndex:
    """The length-annotated closure ``a_cf`` of Section 5."""

    graph: LabeledGraph
    grammar: CFG
    cells: _Cells
    iterations: int

    def length_of(self, nonterminal: Nonterminal, source_id: int,
                  target_id: int) -> int | None:
        """The recorded length ``l_A`` for ``(A, i, j)``, or None when
        ``(i, j) ∉ R_A``."""
        return self.cells.get((source_id, target_id), {}).get(nonterminal)

    def relations(self) -> ContextFreeRelations:
        """Project the annotation away — by Theorem 2 this is the
        relational-semantics answer."""
        by_nonterminal: dict[Nonterminal, set[tuple[int, int]]] = {
            nt: set() for nt in self.grammar.nonterminals
        }
        for (i, j), entries in self.cells.items():
            for nonterminal in entries:
                by_nonterminal[nonterminal].add((i, j))
        return ContextFreeRelations(self.graph, by_nonterminal)

    def entry_count(self) -> int:
        """Total (cell, non-terminal) entries."""
        return sum(len(entries) for entries in self.cells.values())

    @cached_property
    def _edge_labels(self) -> dict[tuple[int, int], list[str]]:
        """Edge labels by ``(source id, target id)``, built on the first
        extraction."""
        edge_labels: dict[tuple[int, int], list[str]] = {}
        for i, label, j in self.graph.edges_by_id():
            edge_labels.setdefault((i, j), []).append(label)
        return edge_labels

    @cached_property
    def _midpoints(self) -> dict[int, list[int]]:
        """Per row ``i``, the columns ``r`` of its non-empty cells in
        :attr:`cells` order, built on the first extraction."""
        midpoints: dict[int, list[int]] = {}
        for i, r in self.cells:
            midpoints.setdefault(i, []).append(r)
        return midpoints


def build_single_path_index(graph: LabeledGraph, grammar: CFG,
                            normalize: bool = True,
                            strategy: str | None = None,
                            **strategy_options) -> SinglePathIndex:
    """Compute the length-annotated transitive closure of Section 5.

    The fixpoint runs on :func:`repro.core.closure.run_closure` over the
    length semiring, so any registered closure *strategy* (``delta`` by
    default, ``naive``, ``blocked``, plug-ins) applies — extra keyword
    options (``tile_size``, ``scheduler``) are forwarded to it; all
    strategies produce identical annotations.
    """
    working_grammar = ensure_cnf(grammar) if normalize else grammar
    working_grammar.require_cnf("single-path CFPQ")
    result = solve_annotated(graph, working_grammar, LENGTH_SEMIRING,
                             strategy=strategy, normalize=False,
                             **strategy_options)
    return SinglePathIndex(graph=graph, grammar=working_grammar,
                           cells=result.cells(),
                           iterations=result.iterations)


def extract_path(index: SinglePathIndex, nonterminal: Nonterminal | str,
                 source: Hashable, target: Hashable) -> Path:
    """Find one path ``source π target`` with ``A ⇒* l(π)`` whose length
    equals the recorded ``l_A`` — the paper's "simple search".

    Raises :class:`PathNotFoundError` when ``(source, target) ∉ R_A``.
    """
    if isinstance(nonterminal, str):
        nonterminal = Nonterminal(nonterminal)
    graph = index.graph
    source_id = graph.node_id(source)
    target_id = graph.node_id(target)
    length = index.length_of(nonterminal, source_id, target_id)
    if length is None:
        raise PathNotFoundError(
            f"({source!r}, {target!r}) is not in R_{nonterminal}"
        )
    if length == 0:
        # Nullable non-terminal: the witness is the empty path i π i.
        return ()

    grammar = index.grammar
    edge_labels = index._edge_labels
    path: list[PathEdge] = []
    # Goals (head, i, j, length) still to spell, leftmost on top.
    stack = [(nonterminal, source_id, target_id, length)]
    while stack:
        head, i, j, needed = stack.pop()
        if needed > 1:
            left_goal, right_goal = _split(index, head, i, j, needed)
            stack.append(right_goal)
            stack.append(left_goal)
            continue
        for label in edge_labels.get((i, j), ()):
            if head in grammar.heads_for_terminal(Terminal(label)):
                path.append((i, label, j))
                break
        else:
            raise PathNotFoundError(
                f"inconsistent index: no terminal edge for {head} at ({i}, {j})"
            )
    return tuple(path)


def _split(index: SinglePathIndex, head: Nonterminal, i: int, j: int,
           needed: int) -> tuple[tuple, tuple]:
    """The sub-goals ``(B, i, r, l_B)`` and ``(C, r, j, l_C)`` of the
    first rule ``head → B C`` (in rule order) and midpoint ``r`` (in
    :attr:`SinglePathIndex.cells` order) whose recorded lengths add up
    to *needed*.

    Zero-length (nullable-diagonal) operands are skipped:
    ε-elimination guarantees an equivalent strict split, and requiring
    ``l_B, l_C >= 1`` makes every sub-goal strictly shorter, so the
    search terminates on cyclic closures.
    """
    cells = index.cells
    midpoints = index._midpoints.get(i, ())
    for rule in index.grammar.productions_for(head):
        if not rule.is_binary_rule:
            continue
        left, right = rule.body
        for r in midpoints:
            left_length = cells[(i, r)].get(left)
            if left_length is None or left_length < 1 or left_length >= needed:
                continue
            right_length = cells.get((r, j), {}).get(right)
            if right_length is None or left_length + right_length != needed:
                continue
            return (left, i, r, left_length), (right, r, j, right_length)
    raise PathNotFoundError(
        f"inconsistent index: cannot split ({i}, {j}) for {head} at length {needed}"
    )


def path_word(path: Path) -> tuple[str, ...]:
    """The label word ``l(π)`` of a path."""
    return tuple(label for _source, label, _target in path)


def path_is_valid(index: SinglePathIndex, path: Path) -> bool:
    """Check that every edge of *path* exists in the graph and the edges
    are contiguous."""
    graph = index.graph
    previous_target: int | None = None
    for source_id, label, target_id in path:
        if previous_target is not None and source_id != previous_target:
            return False
        source = graph.node_at(source_id)
        target = graph.node_at(target_id)
        if not graph.has_edge(source, label, target):
            return False
        previous_target = target_id
    return True


def iter_single_paths(index: SinglePathIndex, nonterminal: Nonterminal | str,
                      ) -> Iterator[tuple[int, int, Path]]:
    """Yield ``(i, j, path)`` for every pair of ``R_A`` — the full
    single-path semantics answer for one non-terminal."""
    if isinstance(nonterminal, str):
        nonterminal = Nonterminal(nonterminal)
    for (i, j), entries in sorted(index.cells.items()):
        if nonterminal in entries:
            yield (i, j, extract_path(index, nonterminal,
                                      index.graph.node_at(i),
                                      index.graph.node_at(j)))
