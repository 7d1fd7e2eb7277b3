"""The recursive witness search, kept as the oracle for
:func:`repro.core.single_path.extract_path`.

It is the paper's "simple search" written as a plain recursion: it
scans :attr:`SinglePathIndex.cells` for every split, so it is slow and
limited by the interpreter's recursion depth, but it is easy to check
by eye.  The production search must return byte-identical witnesses.
"""

from __future__ import annotations

from repro.core.single_path import Path, SinglePathIndex
from repro.errors import PathNotFoundError
from repro.grammar.symbols import Nonterminal, Terminal


def extract_path_recursive(index: SinglePathIndex,
                           nonterminal: Nonterminal | str,
                           source, target) -> Path:
    """One witness of the recorded length for ``(A, source, target)``."""
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
        return ()

    grammar = index.grammar
    edge_labels: dict[tuple[int, int], list[str]] = {}
    for i, label, j in graph.edges_by_id():
        edge_labels.setdefault((i, j), []).append(label)

    def search(head: Nonterminal, i: int, j: int, needed: int) -> Path:
        if needed == 1:
            for label in edge_labels.get((i, j), ()):
                if head in grammar.heads_for_terminal(Terminal(label)):
                    return ((i, label, j),)
            raise PathNotFoundError(
                f"inconsistent index: no terminal edge for {head} at "
                f"({i}, {j})"
            )
        for rule in grammar.productions_for(head):
            if not rule.is_binary_rule:
                continue
            left, right = rule.body
            for (row, r), entries in index.cells.items():
                if row != i:
                    continue
                left_length = entries.get(left)
                if (left_length is None or left_length < 1
                        or left_length >= needed):
                    continue
                right_length = index.cells.get((r, j), {}).get(right)
                if (right_length is None
                        or left_length + right_length != needed):
                    continue
                return (search(left, i, r, left_length)
                        + search(right, r, j, right_length))
        raise PathNotFoundError(
            f"inconsistent index: cannot split ({i}, {j}) for {head} at "
            f"length {needed}"
        )

    return search(nonterminal, source_id, target_id, length)
