"""Query results: the context-free relations ``R_A``.

The paper defines ``R_A = {(n, m) | ∃ nπm, l(π) ∈ L(G_A)}`` and the
relational query semantics returns the triples ``(A, m, n)``.
:class:`ContextFreeRelations` is the result object every solver in this
library produces, so engines and baselines are interchangeable and
directly comparable in tests.

The object is a lazy view: a query usually asks for one start
non-terminal's ``R_S``, so a relation held as a closed matrix is turned
into pairs only when, and only for the non-terminal that, it is asked
for.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping

from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..matrices.base import BooleanMatrix

#: A node pair, by dense node id.
IdPair = tuple[int, int]


class ContextFreeRelations:
    """All relations ``R_A`` of one query evaluation over one graph.

    Each non-terminal keeps the source it was given.  A pair iterable
    is frozen once (a ``frozenset`` is kept as is).  A closed
    :class:`~repro.matrices.base.BooleanMatrix` is read on demand:
    :meth:`pairs` builds its dense-id frozenset the first time the
    non-terminal is asked for and caches it, :meth:`count` is the
    matrix's ``nnz`` and :meth:`node_pairs` maps its nonzero
    coordinates straight to node objects.  The view does not copy the
    matrices it holds, so they must not be mutated afterwards.  Two
    threads asking for the same relation first may both build it; the
    sets are equal and the last one is kept.
    """

    __slots__ = ("_graph", "_relations")

    def __init__(self, graph: LabeledGraph,
                 relations: Mapping[Nonterminal,
                                    BooleanMatrix | Iterable[IdPair]]):
        self._graph = graph
        self._relations: dict[Nonterminal,
                              BooleanMatrix | frozenset[IdPair]] = {
            nonterminal: source
            if isinstance(source, (BooleanMatrix, frozenset))
            else frozenset(source)
            for nonterminal, source in relations.items()
        }

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledGraph:
        """The queried graph."""
        return self._graph

    @property
    def nonterminals(self) -> frozenset[Nonterminal]:
        """Non-terminals with a (possibly empty) recorded relation."""
        return frozenset(self._relations)

    def pairs(self, nonterminal: Nonterminal | str) -> frozenset[IdPair]:
        """``R_A`` as dense-id pairs (empty when nothing was derived);
        built from a matrix source on first access, then cached."""
        nonterminal = _as_nonterminal(nonterminal)
        source = self._relations.get(nonterminal, frozenset())
        if isinstance(source, BooleanMatrix):
            source = self._relations[nonterminal] = source.to_pair_set()
        return source

    def node_pairs(self, nonterminal: Nonterminal | str,
                   ) -> frozenset[tuple[Hashable, Hashable]]:
        """``R_A`` as original node objects."""
        nodes = self._graph.nodes
        return frozenset([(nodes[i], nodes[j])
                          for i, j in self._iter_pairs(nonterminal)])

    def contains(self, nonterminal: Nonterminal | str, source: Hashable,
                 target: Hashable) -> bool:
        """Membership test ``(source, target) ∈ R_A`` by node object."""
        pair = (self._graph.node_id(source), self._graph.node_id(target))
        return pair in self.pairs(nonterminal)

    def count(self, nonterminal: Nonterminal | str) -> int:
        """``|R_A|`` — the paper's ``#results`` column."""
        source = self._relations.get(_as_nonterminal(nonterminal), ())
        if isinstance(source, BooleanMatrix):
            return source.nnz()
        return len(source)

    def triples(self) -> Iterator[tuple[Nonterminal, int, int]]:
        """All result triples ``(A, m, n)`` — the relational semantics
        answer as defined in the paper's introduction."""
        for nonterminal in sorted(self._relations, key=lambda nt: nt.name):
            for i, j in sorted(self._iter_pairs(nonterminal)):
                yield (nonterminal, i, j)

    def restrict_to(self, nonterminals: Iterable[Nonterminal | str],
                    ) -> "ContextFreeRelations":
        """Keep only the requested relations (e.g. original grammar
        non-terminals, hiding CNF helper symbols)."""
        wanted = {_as_nonterminal(nt) for nt in nonterminals}
        return ContextFreeRelations(
            self._graph,
            {nt: source for nt, source in self._relations.items()
             if nt in wanted},
        )

    def _iter_pairs(self, nonterminal: Nonterminal | str,
                    ) -> Iterable[IdPair]:
        """``R_A``'s dense-id pairs, straight from the source (no set
        is built for a matrix source)."""
        source = self._relations.get(_as_nonterminal(nonterminal), ())
        if isinstance(source, BooleanMatrix):
            return source.nonzero_pairs()
        return source

    # ------------------------------------------------------------------
    # Comparisons (used throughout the cross-implementation tests)
    # ------------------------------------------------------------------
    def same_as(self, other: "ContextFreeRelations",
                nonterminals: Iterable[Nonterminal | str] | None = None) -> bool:
        """Equality of relations, optionally restricted to a symbol set.

        When *nonterminals* is None, compares every non-terminal known to
        either side (missing means empty).
        """
        if nonterminals is None:
            names = self.nonterminals | other.nonterminals
        else:
            names = {_as_nonterminal(nt) for nt in nonterminals}
        return all(self.pairs(nt) == other.pairs(nt) for nt in names)

    def diff(self, other: "ContextFreeRelations",
             nonterminal: Nonterminal | str) -> tuple[frozenset[IdPair], frozenset[IdPair]]:
        """(only-here, only-there) pair sets for one non-terminal —
        handy when a cross-implementation test fails."""
        mine = self.pairs(nonterminal)
        theirs = other.pairs(nonterminal)
        return (mine - theirs, theirs - mine)

    def as_dict(self) -> dict[str, list[IdPair]]:
        """JSON-friendly form: name -> sorted pair list."""
        return {
            nt.name: sorted(self._iter_pairs(nt))
            for nt in sorted(self._relations, key=lambda nt: nt.name)
        }

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{nt.name}:{self.count(nt)}"
            for nt in sorted(self._relations, key=lambda nt: nt.name)
        )
        return f"ContextFreeRelations({sizes})"


def _as_nonterminal(value: Nonterminal | str) -> Nonterminal:
    return value if isinstance(value, Nonterminal) else Nonterminal(value)
