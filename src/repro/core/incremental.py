"""Incremental CFPQ: maintaining relations under edge insertions *and*
deletions.

Graph databases mutate; recomputing the whole closure per update wastes
the work already done.  Two complementary engines keep the relations
``R_A`` at the fixpoint:

**Insertions** exploit that Algorithm 1's fixpoint is a *monotone*
least fixpoint (Theorem 3's argument: facts are only ever added), so
the closure supports semi-naive delta propagation at two granularities:

* :meth:`IncrementalCFPQ.add_edge` — tuple-granular: seed a worklist
  with the new base facts ``{(A, u, v) | (A → x) ∈ P}`` and propagate
  only their consequences through the pair rules (the Hellings step
  started from the delta);
* :meth:`IncrementalCFPQ.add_edges` — **matrix-granular batch path**:
  convert the whole insertion batch into per-non-terminal delta
  matrices and hand them to the closure engine as an
  ``initial_frontier`` (:func:`repro.core.closure.run_closure`), so a
  bulk load runs as a handful of frontier × matrix products instead of
  one worklist pop per derived fact.  The solver's ``strategy`` /
  ``scheduler`` / ``tile_size`` options apply: with
  ``strategy="blocked"`` the inserted edges become a *tile-granular*
  frontier on the parallel tile engine of :mod:`repro.core.tiles`.

**Deletions** break monotonicity, so :meth:`IncrementalCFPQ.remove_edges`
runs support-counted **delete-and-rederive** (DRed) over the same
machinery: every fact carries its *derivation supports* (the terminal
edges, ``("empty",)`` nullability marks and binary ``(rule, midpoint)``
splits that derive it in one step).  Removing edges (1) **over-deletes**
the downward closure of the touched facts — count-blind, which is what
makes the phase sound on cyclic derivations where support counts alone
would keep self-supporting facts alive — while discarding the
invalidated supports, then (2) **re-derives**: the over-deleted facts
whose remaining supports are non-empty are exactly the ones one-step
derivable from the survivors, and one ``initial_frontier`` closure run
seeded with them restores everything still derivable.

The batch path's state **stays in matrices**.  The solver keeps one
closed matrix per non-terminal on its batch backend and hands it to
every closure run, which leaves it closed for the next one; the new
facts of a run are read off the non-terminals whose entry count moved,
as a ``difference`` against a pre-run ``clone``, and DRed drops the
over-deleted pairs with one ``difference`` per touched non-terminal.
The matrices are built from the fact sets lazily, on the first batch
(insert-only and read-only services that never batch never pay for
them), and again only after a tuple-granular :meth:`~IncrementalCFPQ.add_edge`
made them stale; new nodes only pad them.  The fact sets and their
by-source / by-target indexes stay beside the matrices: over-deletion,
:meth:`~IncrementalCFPQ.targets_from`, :meth:`~IncrementalCFPQ.export_state`
and snapshots read them.

The support index itself is **matrix-granular** by default
(:class:`CountingSupportIndex`): supports live as counting-semiring
annotations (:class:`repro.core.semiring.CountingSemiring`, cap 1) on
per-non-terminal annotated matrices, built by one counting closure on
the first deletion and then closed in place, batch after batch, by the
same ``union_update`` / ``mxm_into`` kernels every batch insertion and
re-derivation already runs — one representation for derivation counting
and deletion support.  The original tuple-set index survives as
:class:`TupleSupportIndex` (``support_mode="tuples"``, or the
``REPRO_SUPPORT_MODE`` environment variable), demoted to a differential
test oracle.  Either way the index is built lazily on the first
deletion; insertion-only workloads never pay for it.

:class:`IncrementalSinglePathCFPQ` layers the Section-5 length
annotations on the same engine: batches run the closure over the
length-semiring adapter (:mod:`repro.core.semiring`), rebuilding its
length matrices from the per-fact lengths on every batch, and deletions
recompute the lengths of the affected facts from the surviving
canonical lengths, so :meth:`~IncrementalSinglePathCFPQ.length_of`
equals a from-scratch :class:`~repro.core.single_path.SinglePathIndex`
after every update.

This realizes the dynamic-graph direction implied by the paper's
"graph databases" motivation, and it doubles as yet another
differential-testing angle: after any interleaved insert/delete
sequence the incremental state must equal a from-scratch solve
(property-tested in ``tests/core/test_incremental.py``).
"""

from __future__ import annotations

import os
from collections import defaultdict, deque
from typing import Hashable, Iterable

from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal, Terminal
from ..graph.labeled_graph import Edge, LabeledGraph
from ..obs.trace import get_tracer
from .closure import run_closure
from .relations import ContextFreeRelations
from .semiring import (SUPPORT_SEMIRING, AnnotatedBackend, AnnotatedMatrix,
                       CountingSemiring)

#: A derived fact ``(A, i, j)`` by dense node ids.
Fact = tuple[Nonterminal, int, int]

#: One one-step derivation of a fact: ``("edge", label)`` for a base
#: edge, ``("empty",)`` for the empty path of a nullable non-terminal,
#: ``("split", B, C, r)`` for a pair rule applied at midpoint ``r``.
Support = tuple

#: Recognized values of ``IncrementalCFPQ(support_mode=...)`` and the
#: ``REPRO_SUPPORT_MODE`` environment variable.
SUPPORT_MODES = ("counting", "tuples")


def _default_support_mode() -> str:
    mode = os.environ.get("REPRO_SUPPORT_MODE", "counting").strip().lower()
    return mode if mode in SUPPORT_MODES else "counting"


class TupleSupportIndex:
    """The original tuple-set DRed support index, demoted to a
    differential-test oracle (``support_mode="tuples"``).

    One plain ``dict`` maps each fact to the set of its one-step
    derivation supports, maintained by per-fact set mutations.  The
    matrix-granular :class:`CountingSupportIndex` must agree with this
    index entry-for-entry after any interleaved insert/delete sequence
    (property-tested in ``tests/core/test_incremental.py``).
    """

    mode = "tuples"

    def __init__(self) -> None:
        self._supports: dict[Fact, set[Support]] | None = None

    @property
    def active(self) -> bool:
        return self._supports is not None

    def ensure(self, solver: "IncrementalCFPQ") -> None:
        """Build the fact → supports index on first use (one recount
        over the current facts; later updates maintain it)."""
        if self._supports is not None:
            return
        self._supports = {
            (nonterminal, i, j): self._compute(solver, nonterminal, i, j)
            for nonterminal, pairs in solver._facts.items()
            for (i, j) in pairs
        }

    @staticmethod
    def _compute(solver: "IncrementalCFPQ", nonterminal: Nonterminal,
                 i: int, j: int) -> set[Support]:
        """All one-step derivations of ``(A, i, j)`` from the current
        graph and fact indexes."""
        found: set[Support] = set()
        if i == j and nonterminal in solver._nullable:
            found.add(("empty",))
        for label in solver._terminals_for_head.get(nonterminal, ()):
            if solver.graph.has_edge_id(i, label, j):
                found.add(("edge", label))
        for left, right in solver._bodies_for_head.get(nonterminal, ()):
            for r in solver._by_source.get((left, i), ()):
                if j in solver._by_source.get((right, r), ()):
                    found.add(("split", left, right, r))
        return found

    def supports_of(self, fact: Fact) -> frozenset:
        assert self._supports is not None
        return frozenset(self._supports.get(fact, ()))

    def seed_fact(self, fact: Fact, support: Support) -> None:
        assert self._supports is not None
        self._supports[fact] = {support}

    def add_support(self, fact: Fact, support: Support) -> None:
        assert self._supports is not None
        recorded = self._supports.get(fact)
        if recorded is not None:
            recorded.add(support)

    def discard(self, fact: Fact, support: Support) -> None:
        assert self._supports is not None
        recorded = self._supports.get(fact)
        if recorded is not None:
            recorded.discard(support)

    def pop(self, fact: Fact) -> None:
        assert self._supports is not None
        self._supports.pop(fact, None)

    def entry_count(self) -> int:
        if self._supports is None:
            return 0
        return sum(len(entries) for entries in self._supports.values())

    def export(self) -> dict[Fact, set[Support]] | None:
        if self._supports is None:
            return None
        return {fact: set(entries)
                for fact, entries in self._supports.items()}

    def load(self, solver: "IncrementalCFPQ", mapping: dict) -> None:
        self._supports = {
            fact: set(entries) for fact, entries in mapping.items()
        }

    def after_batch(self, solver: "IncrementalCFPQ",
                    support_seeds: dict | None,
                    new_facts: list[Fact]) -> None:
        """After a batch closure added *new_facts*: compute their
        supports, register the split supports they newly provide to
        existing consequences, and fold the batch's base-fact seed
        supports (new edge labels / empty paths) into pre-existing
        facts."""
        if self._supports is None:
            return
        supports = self._supports
        for fact in new_facts:
            supports[fact] = self._compute(solver, *fact)
        for nonterminal, i, j in new_facts:
            for head, right in solver._rules_by_left.get(nonterminal, ()):
                for k in solver._by_source.get((right, j), ()):
                    recorded = supports.get((head, i, k))
                    if recorded is not None:
                        recorded.add(("split", nonterminal, right, j))
            for head, left in solver._rules_by_right.get(nonterminal, ()):
                for k in solver._by_target.get((left, i), ()):
                    recorded = supports.get((head, k, j))
                    if recorded is not None:
                        recorded.add(("split", left, nonterminal, i))
        for nonterminal, cells in (support_seeds or {}).items():
            for (i, j), value in cells.items():
                recorded = supports.get((nonterminal, i, j))
                if recorded is not None:
                    recorded.update(entry for entry, _count in value)


class CountingSupportIndex:
    """Matrix-granular DRed supports carried by the counting semiring.

    The support of a fact *is* its counting-semiring annotation: a
    ``frozenset`` of ``(entry, count)`` pairs whose entry keys are
    exactly the tuple-set supports (``("edge", label)`` / ``("empty",)``
    / ``("split", B, C, r)``).  The index is one persistent annotated
    matrix per non-terminal (tagged ``symbol=nonterminal``), built by a
    single counting-closure solve on the first deletion and kept across
    batches: after every batch the same ``union_update``/``mxm_into``
    kernels the relational closure runs close these matrices **in
    place**, with the batch's base facts (or the re-derivation
    survivors) as the ``initial_frontier``.  Per-tuple inserts and the
    DRed over-deletion read and write single cells, so single-edge
    updates stay O(delta).  The matrices are only re-shaped — never
    rebuilt from another representation — when the node count grows.

    With the default cap-1 semiring (``SUPPORT_SEMIRING``) the values
    are *value-blind*: a cell gaining an extra derivation entry does not
    re-enter the semi-naive frontier, which is precisely the tuple-set
    index's registration semantics.
    """

    mode = "counting"

    def __init__(self, semiring: CountingSemiring | None = None) -> None:
        self.semiring = semiring if semiring is not None else SUPPORT_SEMIRING
        self._matrices: dict[Nonterminal, AnnotatedMatrix] | None = None

    @property
    def active(self) -> bool:
        return self._matrices is not None

    def ensure(self, solver: "IncrementalCFPQ") -> None:
        """First deletion: one counting-semiring closure over the
        current graph yields every fact's full one-step support set."""
        if self._matrices is not None:
            return
        from .semiring import solve_annotated

        result = solve_annotated(solver.graph, solver.grammar, self.semiring,
                                 strategy=solver.strategy, normalize=False,
                                 **solver.strategy_options)
        self._matrices = result.matrices

    def _matrix(self, nonterminal: Nonterminal) -> AnnotatedMatrix:
        assert self._matrices is not None
        return self._matrices[nonterminal]

    def supports_of(self, fact: Fact) -> frozenset:
        nonterminal, i, j = fact
        return self.semiring.supports(
            self._matrix(nonterminal).value_at(i, j))

    def seed_fact(self, fact: Fact, support: Support) -> None:
        nonterminal, i, j = fact
        self._matrix(nonterminal).set_value(i, j,
                                            frozenset({(support, 1)}))

    def add_support(self, fact: Fact, support: Support) -> None:
        nonterminal, i, j = fact
        matrix = self._matrix(nonterminal)
        value = matrix.value_at(i, j)
        if value is None:
            return
        merged, changed = self.semiring.merge(value,
                                              frozenset({(support, 1)}))
        if changed:
            matrix.set_value(i, j, merged)

    def discard(self, fact: Fact, support: Support) -> None:
        nonterminal, i, j = fact
        matrix = self._matrix(nonterminal)
        value = matrix.value_at(i, j)
        if value is None:
            return
        trimmed = frozenset(item for item in value if item[0] != support)
        if trimmed != value:
            matrix.set_value(i, j, trimmed)

    def pop(self, fact: Fact) -> None:
        nonterminal, i, j = fact
        self._matrix(nonterminal).pop_value(i, j)

    def entry_count(self) -> int:
        if self._matrices is None:
            return 0
        return sum(len(value)
                   for matrix in self._matrices.values()
                   for _i, _j, value in matrix.nonzero_cells())

    def export(self) -> dict[Fact, set[Support]] | None:
        if self._matrices is None:
            return None
        return {
            (nonterminal, i, j): set(self.semiring.supports(value))
            for nonterminal, matrix in self._matrices.items()
            for i, j, value in matrix.nonzero_cells()
        }

    def load(self, solver: "IncrementalCFPQ", mapping: dict) -> None:
        cells: dict[Nonterminal, dict[tuple[int, int], frozenset]] = {
            nonterminal: {} for nonterminal in solver.grammar.nonterminals
        }
        for (nonterminal, i, j), entries in mapping.items():
            cells.setdefault(nonterminal, {})[(i, j)] = \
                frozenset((entry, 1) for entry in entries)
        n = solver.graph.node_count
        self._matrices = {
            nonterminal: AnnotatedMatrix(self.semiring, (n, n), by_pair,
                                         symbol=nonterminal)
            for nonterminal, by_pair in cells.items()
        }

    def _resized(self, n: int) -> dict[Nonterminal, AnnotatedMatrix]:
        """The support matrices at shape ``(n, n)``: the node count only
        grows, and cell writes never check bounds, so a shape change
        re-wraps the cells once instead of on every batch."""
        assert self._matrices is not None
        for nonterminal, matrix in self._matrices.items():
            if matrix.shape != (n, n):
                self._matrices[nonterminal] = AnnotatedMatrix(
                    self.semiring, (n, n), matrix.nonzero_cells(),
                    symbol=nonterminal)
        return self._matrices

    def after_batch(self, solver: "IncrementalCFPQ",
                    support_seeds: dict | None,
                    new_facts: list[Fact]) -> None:
        """Advance the support matrices through the same frontier-seeded
        closure the relational batch just ran, in place: the seeds' base
        supports merge into their cells, and every product fired off the
        presence delta contributes its ``("split", B, C, r)`` entry to
        the head cell — which is exactly the registration the tuple
        oracle does one set-mutation at a time."""
        if self._matrices is None or not support_seeds:
            return
        backend = AnnotatedBackend(self.semiring)
        n = solver.graph.node_count
        frontier = {
            nonterminal: backend.from_cells((n, n), cells,
                                            symbol=nonterminal)
            for nonterminal, cells in support_seeds.items()
        }
        try:
            result = run_closure(self._resized(n), solver._pair_rules,
                                 backend, strategy=solver.strategy,
                                 initial_frontier=frontier,
                                 **solver.strategy_options)
        except BaseException:
            # A half-merged frontier leaves no trustworthy supports:
            # deactivate the index, the next deletion recounts it.
            self._matrices = None
            raise
        self._matrices = result.matrices


def _make_support_store(mode: str):
    if mode not in SUPPORT_MODES:
        raise ValueError(
            f"unknown support_mode {mode!r}: expected one of {SUPPORT_MODES}")
    return TupleSupportIndex() if mode == "tuples" else CountingSupportIndex()


class IncrementalCFPQ:
    """A CFPQ solver whose graph can mutate after the initial solve.

    >>> solver = IncrementalCFPQ(graph, grammar)
    >>> solver.relations().pairs("S")
    >>> solver.add_edge("u", "a", "v")       # tuple-granular propagation
    >>> solver.add_edges(batch)              # matrix-granular batch
    >>> solver.remove_edges(batch)           # DRed delete + re-derive
    >>> solver.relations().pairs("S")        # always at the fixpoint

    All mutators return the number of facts that entered (``add_*``) or
    left (``remove_*``) the relations — the seeded base facts count,
    matching :class:`IncrementalSinglePathCFPQ`.

    After every mutator call :attr:`last_changes` holds the exact
    per-non-terminal delta of that call (the cells whose matrix content
    changed), which is what the query-service layer
    (:mod:`repro.service.query_service`) uses for fine-grained cache
    invalidation.

    *warm_state* (a mapping produced by :meth:`export_state`, typically
    via a snapshot — :mod:`repro.service.snapshot`) seeds the solver
    from an already-closed fact set instead of running the initial
    closure: construction is O(|facts|) and
    :attr:`initial_closure_iterations` is 0.
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 backend: str = "pyset", strategy: str = "delta",
                 warm_state: "dict | None" = None,
                 support_mode: str | None = None,
                 **strategy_options):
        self.graph = graph
        self.grammar = ensure_cnf(grammar)
        self.backend = backend
        self.strategy = strategy
        self.strategy_options = strategy_options

        self._facts: dict[Nonterminal, set[tuple[int, int]]] = defaultdict(set)
        self._by_source: dict[tuple[Nonterminal, int], set[int]] = defaultdict(set)
        self._by_target: dict[tuple[Nonterminal, int], set[int]] = defaultdict(set)
        self._rules_by_left: dict[Nonterminal, list[tuple[Nonterminal, Nonterminal]]] = \
            defaultdict(list)
        self._rules_by_right: dict[Nonterminal, list[tuple[Nonterminal, Nonterminal]]] = \
            defaultdict(list)
        self._bodies_for_head: dict[Nonterminal, list[tuple[Nonterminal, Nonterminal]]] = \
            defaultdict(list)
        self._pair_rules: list[tuple[Nonterminal, Nonterminal, Nonterminal]] = []
        for rule in self.grammar.binary_rules:
            left, right = rule.body  # type: ignore[misc]
            self._rules_by_left[left].append((rule.head, right))   # type: ignore[index,arg-type]
            self._rules_by_right[right].append((rule.head, left))  # type: ignore[index,arg-type]
            self._bodies_for_head[rule.head].append((left, right))  # type: ignore[arg-type]
            self._pair_rules.append((rule.head, left, right))       # type: ignore[arg-type]
        self._terminals_for_head: dict[Nonterminal, list[str]] = defaultdict(list)
        for rule in self.grammar.terminal_rules:
            self._terminals_for_head[rule.head].append(rule.body[0].label)  # type: ignore[union-attr]
        self._nullable = self.grammar.nullable_diagonal

        #: DRed support index (counting matrices by default, tuple sets
        #: as the oracle).  Inactive until the first deletion:
        #: insertion-only workloads never build it.
        self.support_mode = support_mode if support_mode is not None \
            else _default_support_mode()
        self._support_store = _make_support_store(self.support_mode)

        self._edge_insertions = 0
        self._edge_removals = 0
        self._batch_updates = 0
        self._propagated_facts = 0
        self._facts_removed = 0

        #: Active per-call change recorder (None outside a mutator).
        self._change_recorder: dict[Nonterminal, set[tuple[int, int]]] | None = None
        self._last_changes: dict[Nonterminal, frozenset[tuple[int, int]]] = {}
        self._initial_iterations = 0

        #: The closed matrix of every non-terminal on the batch backend,
        #: kept across batches (None until the first batch needs it, or
        #: after a tuple-granular mutation made it stale).  It mirrors
        #: ``_facts`` at shape ``_matrices_size``, which trails the node
        #: count until the next batch pads it.
        self._matrices: dict | None = None
        self._matrices_size = -1

        if warm_state is not None:
            self._seed_from_state(warm_state)
        else:
            self._seed_from_engine(backend, strategy)
        # Keep the stats contract of the worklist-seeded version: every
        # initially derived fact counts as one propagation.
        self._propagated_facts = sum(
            len(pairs) for pairs in self._facts.values()
        )

    def _seed_from_engine(self, backend: str, strategy: str) -> None:
        """Initial solve: run the matrix closure engine to the fixpoint
        and seed the tuple-level indexes from the closed matrices.
        Annotated subclasses override this to seed from the semiring
        engine instead."""
        from .matrix_cfpq import solve_matrix

        result = solve_matrix(self.graph, self.grammar, backend=backend,
                              normalize=False, strategy=strategy,
                              **self.strategy_options)
        self._initial_iterations = result.stats.iterations
        for nonterminal, matrix in result.matrices.items():
            for i, j in matrix.nonzero_pairs():
                self._record(nonterminal, i, j)

    def _seed_from_state(self, state: dict) -> None:
        """Warm start: adopt an already-closed fact set (and, when
        present, the DRed support index) without running any closure."""
        for nonterminal, pairs in state.get("facts", {}).items():
            for i, j in pairs:
                self._record(nonterminal, i, j)
        supports = state.get("supports")
        if supports is not None:
            self._support_store.load(self, supports)

    def export_state(self) -> dict:
        """The solver's closed state as plain containers — the inverse
        of the ``warm_state`` constructor argument (used by the
        snapshot store)."""
        state: dict = {
            "facts": {
                nonterminal: set(pairs)
                for nonterminal, pairs in self._facts.items() if pairs
            },
        }
        supports = self._support_store.export()
        if supports is not None:
            state["supports"] = supports
        return state

    @property
    def _supports(self) -> dict[Fact, set[Support]] | None:
        """Read-only tuple-set view of the DRed support index (None
        until a deletion activates it) — the snapshot encoding and the
        differential tests consume this shape regardless of which store
        maintains the supports."""
        return self._support_store.export()

    # ------------------------------------------------------------------
    # Exact per-call deltas (cache-invalidation feed)
    # ------------------------------------------------------------------
    @property
    def last_changes(self) -> dict[Nonterminal, frozenset[tuple[int, int]]]:
        """The exact per-non-terminal cell delta of the most recent
        mutator call: for insertions the genuinely new facts (plus, on
        the single-path solver, cells whose length annotation was
        refined), for deletions the facts permanently removed plus cells
        re-derived with a different annotation.  Empty mapping when the
        last call changed nothing."""
        return self._last_changes

    @property
    def initial_closure_iterations(self) -> int:
        """Closure rounds run by the initial solve (0 after a warm
        start from ``warm_state``)."""
        return self._initial_iterations

    def _begin_change_log(self) -> None:
        self._change_recorder = {}

    def _commit_change_log(self) -> None:
        recorder = self._change_recorder or {}
        self._change_recorder = None
        self._last_changes = {
            nonterminal: frozenset(pairs)
            for nonterminal, pairs in recorder.items()
        }

    def _log_change(self, nonterminal: Nonterminal,
                    pair: tuple[int, int]) -> None:
        if self._change_recorder is not None:
            self._change_recorder.setdefault(nonterminal, set()).add(pair)

    # ------------------------------------------------------------------
    # Mutation: insertion
    # ------------------------------------------------------------------
    def add_edge(self, source: Hashable, label: str, target: Hashable) -> int:
        """Insert one edge and propagate its consequences at tuple
        granularity.

        Returns the number of **new facts** — seeded base facts,
        nullable-diagonal facts of freshly created nodes and everything
        derived from them (0 when the edge adds nothing, e.g. a
        duplicate).  Once deletion support is active the propagation
        additionally maintains the derivation supports, so single-edge
        inserts stay O(delta) instead of re-running the batch path.
        """
        self._begin_change_log()
        # The tuple path records facts one at a time, past the state
        # matrices: the next batch rebuilds them from the fact sets.
        self._matrices = None
        try:
            return self._add_edge(source, label, target)
        finally:
            self._commit_change_log()

    def _add_edge(self, source: Hashable, label: str, target: Hashable) -> int:
        store = self._support_store if self._support_store.active else None
        already_present = self.graph.has_edge(source, label, target)
        new_nodes = [node for node in dict.fromkeys((source, target))
                     if not self.graph.has_node(node)]
        self.graph.add_edge(source, label, target)
        self._edge_insertions += 1

        delta: deque[Fact] = deque()
        seeded = 0
        for node in new_nodes:
            node_id = self.graph.node_id(node)
            for head in self._nullable:
                if (node_id, node_id) not in self._facts[head]:
                    self._record(head, node_id, node_id)
                    delta.append((head, node_id, node_id))
                    seeded += 1
                    if store is not None:
                        store.seed_fact((head, node_id, node_id), ("empty",))
        if not already_present:
            i = self.graph.node_id(source)
            j = self.graph.node_id(target)
            for head in self.grammar.heads_for_terminal(Terminal(label)):
                if (i, j) not in self._facts[head]:
                    self._record(head, i, j)
                    delta.append((head, i, j))
                    seeded += 1
                    if store is not None:
                        store.seed_fact((head, i, j), ("edge", label))
                elif store is not None:
                    # The fact pre-exists: the fresh edge still becomes
                    # one of its derivation supports.
                    store.add_support((head, i, j), ("edge", label))
        return seeded + self._propagate(delta)

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert a batch of edges through the matrix-granular path.

        The batch is converted into per-non-terminal seed matrices (base
        facts of the new edges plus nullable diagonals of new nodes) and
        closed by one ``initial_frontier`` run of the configured closure
        strategy — no per-tuple worklist.  Returns the number of new
        facts.
        """
        self._begin_change_log()
        try:
            return self._add_edges(edges)
        finally:
            self._commit_change_log()

    def _add_edges(self, edges: Iterable[Edge]) -> int:
        edges = list(edges)
        nodes_before = self.graph.node_count
        new_edges: list[tuple[int, str, int]] = []
        for source, label, target in edges:
            self._edge_insertions += 1
            if self.graph.has_edge(source, label, target):
                continue
            self.graph.add_edge(source, label, target)
            new_edges.append((self.graph.node_id(source), label,
                              self.graph.node_id(target)))

        seeds: dict[Nonterminal, dict[tuple[int, int], object]] = {}
        support_seeds: dict[Nonterminal, dict[tuple[int, int], frozenset]] | None = (
            {} if self._support_store.active else None)
        for head in self._nullable:
            for i in range(nodes_before, self.graph.node_count):
                seeds.setdefault(head, {})[(i, i)] = self._diagonal_seed_value()
                if support_seeds is not None:
                    support_seeds.setdefault(head, {})[(i, i)] = \
                        SUPPORT_SEMIRING.empty_path()
        for i, label, j in new_edges:
            value = self._edge_seed_value(label)
            for head in self.grammar.heads_for_terminal(Terminal(label)):
                seeds.setdefault(head, {}).setdefault((i, j), value)
                if support_seeds is not None:
                    cells = support_seeds.setdefault(head, {})
                    support_value = SUPPORT_SEMIRING.identity(label)
                    existing = cells.get((i, j))
                    cells[(i, j)] = (
                        support_value if existing is None
                        else SUPPORT_SEMIRING.add(existing, support_value))
        if not seeds:
            return 0
        return self._run_batch(seeds, support_seeds)

    # ------------------------------------------------------------------
    # Mutation: deletion (support-counted DRed)
    # ------------------------------------------------------------------
    def remove_edge(self, source: Hashable, label: str,
                    target: Hashable) -> int:
        """Remove one edge; returns the number of facts that left the
        relations (see :meth:`remove_edges`)."""
        return self.remove_edges([(source, label, target)])

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Remove a batch of edges with delete-and-rederive.

        Phase 1 *over-deletes* the downward closure of every fact a
        removed edge supported (count-blind — sound even when facts
        support each other in cycles), discarding the invalidated
        supports along the way.  Phase 2 *re-derives*: over-deleted
        facts whose surviving supports are non-empty re-enter as the
        ``initial_frontier`` of one closure run, which restores every
        fact still derivable.  Returns the number of facts permanently
        removed from the relations.
        """
        store = self._support_store
        store.ensure(self)
        self._last_changes = {}

        worklist: deque[Fact] = deque()
        for source, label, target in edges:
            self._edge_removals += 1
            if not self.graph.remove_edge(source, label, target):
                continue
            i = self.graph.node_id(source)
            j = self.graph.node_id(target)
            for head in self.grammar.heads_for_terminal(Terminal(label)):
                fact = (head, i, j)
                store.discard(fact, ("edge", label))
                if (i, j) in self._facts.get(head, ()):
                    worklist.append(fact)

        # Phase 1: over-delete the downward closure, invalidating every
        # support an over-deleted fact provided.  The tuple indexes
        # still reflect the pre-deletion database, which is exactly the
        # over-approximation DRed's deletion phase needs.
        tracer = get_tracer()
        overdeleted: set[Fact] = set()
        with tracer.span("dred.overdelete") as phase_span:
            while worklist:
                fact = worklist.popleft()
                if fact in overdeleted:
                    continue
                overdeleted.add(fact)
                nonterminal, i, j = fact
                for head, right in self._rules_by_left.get(nonterminal, ()):
                    for k in self._by_source.get((right, j), ()):
                        consequence = (head, i, k)
                        store.discard(consequence,
                                      ("split", nonterminal, right, j))
                        if consequence not in overdeleted:
                            worklist.append(consequence)
                for head, left in self._rules_by_right.get(nonterminal, ()):
                    for k in self._by_target.get((left, i), ()):
                        consequence = (head, k, j)
                        store.discard(consequence,
                                      ("split", left, nonterminal, i))
                        if consequence not in overdeleted:
                            worklist.append(consequence)
            phase_span.set("overdeleted", len(overdeleted))

        if not overdeleted:
            return 0

        # Annotation values before the delete (single-path: lengths) so
        # re-derived facts whose annotation moved land in last_changes.
        annotation_snapshot = self._annotations_of(overdeleted)

        # Surviving supports of the over-deleted facts, captured before
        # their cells leave the support index: a surviving support means
        # the fact is one-step derivable from facts outside the
        # over-deleted set — exactly the re-derivation seeds.
        remaining_by_fact = {
            fact: store.supports_of(fact) for fact in overdeleted
        }
        for fact in overdeleted:
            nonterminal, i, j = fact
            self._facts[nonterminal].discard((i, j))
            self._by_source[(nonterminal, i)].discard(j)
            self._by_target[(nonterminal, j)].discard(i)
            self._on_fact_removed(fact)
            store.pop(fact)
        self._drop_from_matrices(overdeleted)

        # Phase 2: re-derive from the survivors.
        with tracer.span("dred.rederive") as phase_span:
            seeds: dict[Nonterminal, dict[tuple[int, int], object]] = {}
            support_seeds: dict[Nonterminal, dict[tuple[int, int], frozenset]] = {}
            for fact, remaining in remaining_by_fact.items():
                if not remaining:
                    continue
                nonterminal, i, j = fact
                seeds.setdefault(nonterminal, {})[(i, j)] = \
                    self._rederive_seed_value(fact, remaining)
                support_seeds.setdefault(nonterminal, {})[(i, j)] = \
                    frozenset((entry, 1) for entry in remaining)
            phase_span.set("seeds", sum(len(cells)
                                        for cells in seeds.values()))
            if seeds:
                self._run_batch(seeds, support_seeds)

        removed = 0
        changes: dict[Nonterminal, set[tuple[int, int]]] = {}
        for fact in overdeleted:
            nonterminal, i, j = fact
            if (i, j) not in self._facts.get(nonterminal, ()):
                removed += 1
                changes.setdefault(nonterminal, set()).add((i, j))
            elif self._annotation_changed(fact, annotation_snapshot):
                changes.setdefault(nonterminal, set()).add((i, j))
        self._last_changes = {
            nonterminal: frozenset(pairs)
            for nonterminal, pairs in changes.items()
        }
        self._facts_removed += removed
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def relations(self) -> ContextFreeRelations:
        """The current relations ``R_A`` (always at fixpoint)."""
        return ContextFreeRelations(
            self.graph,
            {nt: self._facts.get(nt, ()) for nt in self.grammar.nonterminals},
        )

    def pairs(self, nonterminal: Nonterminal | str) -> frozenset[tuple[int, int]]:
        """``R_A`` as dense-id pairs."""
        if isinstance(nonterminal, str):
            nonterminal = Nonterminal(nonterminal)
        return frozenset(self._facts.get(nonterminal, ()))

    def targets_from(self, nonterminal: Nonterminal | str,
                     source: int) -> frozenset[int]:
        """The targets reachable from one source: ``{j : (source, j) ∈
        R_A}``.  One row of the by-source index — a membership probe
        never has to materialize (or copy) the full relation."""
        if isinstance(nonterminal, str):
            nonterminal = Nonterminal(nonterminal)
        return frozenset(self._by_source.get((nonterminal, source), ()))

    @property
    def stats(self) -> dict[str, int]:
        """Instrumentation: updates seen, facts propagated/removed, and
        the size of the DRed support index (0 until a deletion
        activates it)."""
        return {
            "edge_insertions": self._edge_insertions,
            "edge_removals": self._edge_removals,
            "batch_updates": self._batch_updates,
            "propagated_facts": self._propagated_facts,
            "facts_removed": self._facts_removed,
            "total_facts": sum(len(pairs) for pairs in self._facts.values()),
            "support_entries": self._support_store.entry_count(),
        }

    # ------------------------------------------------------------------
    # Batch engine (shared by add_edges and the re-derive phase)
    # ------------------------------------------------------------------
    def _run_batch(self, seeds: dict,
                   support_seeds: dict | None = None) -> int:
        """Close the current state with *seeds* as the initial frontier;
        absorb and return the number of facts that appeared.
        *support_seeds* (counting-semiring cell values parallel to
        *seeds*, built only while the support index is active) advances
        the DRed support store through the same frontier.

        The closure runs on the persistent state matrices and leaves
        them closed for the next batch; the new facts are read off the
        non-terminals whose entry count moved."""
        n = self.graph.node_count
        backend = self._batch_backend()
        with get_tracer().span("frontier.run",
                               strategy=self.strategy) as span:
            matrices, rebuilt = self._state_matrices(n)
            before = {nt: backend.clone(matrix)
                      for nt, matrix in matrices.items()} \
                if self._keeps_matrices else None
            try:
                result = run_closure(
                    matrices, self._pair_rules, backend,
                    strategy=self.strategy,
                    initial_frontier=self._seed_matrices(n, seeds),
                    **self.strategy_options)
            except BaseException:
                # The run may have merged part of the frontier: drop
                # the matrices, the fact sets are still the truth.
                self._matrices = None
                raise
            self._matrices = result.matrices if self._keeps_matrices else None
            self._batch_updates += 1
            new_facts = self._absorb(result.matrices, before)
            span.set("rebuilt", int(rebuilt))
            span.set("new_facts", len(new_facts))
        self._propagated_facts += len(new_facts)
        self._support_store.after_batch(self, support_seeds, new_facts)
        return len(new_facts)

    #: Whether the closed state matrices persist across batches
    #: (annotated subclasses rebuild them from their own state instead).
    _keeps_matrices = True

    def _state_matrices(self, n: int) -> tuple[dict, bool]:
        """The closed per-non-terminal matrices at size *n*, and whether
        they had to be built from the fact sets (first use, or after a
        tuple-granular mutation).  New nodes carry no facts until a
        batch seeds them, so a grown node count only pads the kept
        matrices."""
        if self._matrices is None:
            self._matrices = self._matrices_from_state(n)
            self._matrices_size = n
            return self._matrices, True
        if self._matrices_size != n:
            backend = self._batch_backend()
            self._matrices = {nt: backend.padded(matrix, n)
                              for nt, matrix in self._matrices.items()}
            self._matrices_size = n
        return self._matrices, False

    def closed_matrix(self, nonterminal: Nonterminal):
        """The closed ``R_A`` matrix at the current node count, on the
        solver's boolean backend.  The solver keeps writing it in place
        on later updates: callers that hold on to it must copy it."""
        matrices, _rebuilt = self._state_matrices(self.graph.node_count)
        return matrices[nonterminal]

    def _drop_from_matrices(self, facts: set[Fact]) -> None:
        """Remove over-deleted *facts* from the state matrices: one
        ``difference`` per touched non-terminal."""
        if self._matrices is None:
            return
        matrices, _rebuilt = self._state_matrices(self.graph.node_count)
        by_nonterminal: dict[Nonterminal, list[tuple[int, int]]] = {}
        for nonterminal, i, j in facts:
            by_nonterminal.setdefault(nonterminal, []).append((i, j))
        backend = self._batch_backend()
        n = self._matrices_size
        for nonterminal, pairs in by_nonterminal.items():
            matrices[nonterminal] = matrices[nonterminal].difference(
                backend.from_pairs(n, pairs))

    def _batch_backend(self):
        from ..matrices.base import get_backend

        return get_backend(self.backend)

    def _matrices_from_state(self, n: int) -> dict:
        backend = self._batch_backend()
        return {
            nt: backend.from_pairs(n, self._facts.get(nt, ()))
            for nt in self.grammar.nonterminals
        }

    def _seed_matrices(self, n: int, seeds: dict) -> dict:
        backend = self._batch_backend()
        return {
            nt: backend.from_pairs(n, cells.keys())
            for nt, cells in seeds.items()
        }

    def _absorb(self, matrices: dict, before: "dict | None") -> list[Fact]:
        """Record what the closure added to *matrices* since *before* (a
        pre-run clone) into the tuple indexes; returns the new facts.
        Closure only adds entries, so a non-terminal whose entry count
        did not move is skipped, and the others cost one ``difference``
        — never a read-back of the whole relation."""
        new_facts: list[Fact] = []
        for nonterminal, matrix in matrices.items():
            previous = before[nonterminal]
            if matrix.nnz() == previous.nnz():
                continue
            fresh = matrix.difference(previous).to_pair_set()
            self._facts[nonterminal] |= fresh
            self._index_pairs(nonterminal, fresh)
            if self._change_recorder is not None:
                self._change_recorder.setdefault(nonterminal, set()).update(fresh)
            new_facts.extend((nonterminal, i, j) for i, j in fresh)
        return new_facts

    def _index_pairs(self, nonterminal: Nonterminal,
                     pairs: Iterable[tuple[int, int]]) -> None:
        rows: dict[int, list[int]] = {}
        cols: dict[int, list[int]] = {}
        for i, j in pairs:
            rows.setdefault(i, []).append(j)
            cols.setdefault(j, []).append(i)
        for i, targets in rows.items():
            self._by_source[(nonterminal, i)].update(targets)
        for j, sources in cols.items():
            self._by_target[(nonterminal, j)].update(sources)

    def _edge_seed_value(self, label: str):
        return True

    def _diagonal_seed_value(self):
        return True

    def _rederive_seed_value(self, fact: Fact, remaining: set):
        return True

    def _on_fact_removed(self, fact: Fact) -> None:
        """Hook for annotated subclasses (drop per-fact annotations)."""

    def _annotations_of(self, facts: set[Fact]) -> dict:
        """Pre-deletion annotation values of *facts* (empty for the
        presence-only base solver — re-derived boolean cells cannot
        change value)."""
        return {}

    def _annotation_changed(self, fact: Fact, snapshot: dict) -> bool:
        """Did the DRed pass leave *fact* present with a different
        annotation than *snapshot* recorded?"""
        return False

    # ------------------------------------------------------------------
    # Tuple-granular engine
    # ------------------------------------------------------------------
    def _record(self, nonterminal: Nonterminal, i: int, j: int) -> None:
        self._facts[nonterminal].add((i, j))
        self._by_source[(nonterminal, i)].add(j)
        self._by_target[(nonterminal, j)].add(i)
        self._log_change(nonterminal, (i, j))

    def _propagate(self, worklist: deque[Fact]) -> int:
        """Tuple-granular consequence propagation.

        With the DRed support index active, every enumerated one-step
        derivation is registered as a support of its consequence —
        including consequences that already exist, which is what keeps
        the index exact (every derivation of a delta fact involves at
        least one delta operand, and each such combination is
        enumerated when that operand pops)."""
        store = self._support_store if self._support_store.active else None
        derived = 0
        while worklist:
            nonterminal, i, j = worklist.popleft()
            self._propagated_facts += 1
            for head, right in self._rules_by_left.get(nonterminal, ()):
                for k in list(self._by_source.get((right, j), ())):
                    if (i, k) not in self._facts[head]:
                        self._record(head, i, k)
                        worklist.append((head, i, k))
                        derived += 1
                        if store is not None:
                            store.seed_fact((head, i, k),
                                            ("split", nonterminal, right, j))
                    elif store is not None:
                        store.add_support((head, i, k),
                                          ("split", nonterminal, right, j))
            for head, left in self._rules_by_right.get(nonterminal, ()):
                for k in list(self._by_target.get((left, i), ())):
                    if (k, j) not in self._facts[head]:
                        self._record(head, k, j)
                        worklist.append((head, k, j))
                        derived += 1
                        if store is not None:
                            store.seed_fact((head, k, j),
                                            ("split", left, nonterminal, i))
                    elif store is not None:
                        store.add_support((head, k, j),
                                          ("split", left, nonterminal, i))
        return derived


class IncrementalSinglePathCFPQ(IncrementalCFPQ):
    """Incremental solver that also maintains Section-5 witness lengths.

    The initial solve seeds both the relational facts *and* their
    length annotations from the semiring-generalized closure engine
    (:func:`repro.core.semiring.solve_annotated` over the length
    semiring) — the same engine :func:`~repro.core.single_path.build_single_path_index`
    runs — so the starting annotation is the canonical minimal witness
    length per fact.

    * :meth:`add_edge` propagates at tuple granularity with the min-merge
      rule: a fact whose recorded length *improves* re-enters the
      worklist.
    * :meth:`add_edges` runs the batch closure over the length-semiring
      matrix adapter, whose ``union_update`` feeds refinements back into
      the semi-naive frontier.
    * :meth:`remove_edges` (inherited DRed) drops the lengths of the
      over-deleted facts and recomputes the affected submatrix from the
      surviving canonical lengths — survivors outside the downward
      closure cannot change, so their annotations are reused as-is.

    ``length_of`` therefore equals a from-scratch
    :class:`~repro.core.single_path.SinglePathIndex` after every
    insertion and deletion (property-tested).
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 strategy: str = "delta",
                 warm_state: "dict | None" = None,
                 **strategy_options):
        self._lengths: dict[Fact, int] = {}
        super().__init__(graph, grammar, strategy=strategy,
                         warm_state=warm_state, **strategy_options)

    def _seed_from_engine(self, backend: str, strategy: str) -> None:
        from .semiring import LENGTH_SEMIRING, solve_annotated

        result = solve_annotated(self.graph, self.grammar, LENGTH_SEMIRING,
                                 strategy=strategy, normalize=False,
                                 **self.strategy_options)
        self._initial_iterations = result.iterations
        for nonterminal, matrix in result.matrices.items():
            for i, j, length in matrix.nonzero_cells():
                self._record(nonterminal, i, j)
                self._lengths[(nonterminal, i, j)] = length

    def _seed_from_state(self, state: dict) -> None:
        super()._seed_from_state(state)
        self._lengths.update(state.get("lengths", {}))

    def export_state(self) -> dict:
        state = super().export_state()
        state["lengths"] = dict(self._lengths)
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def single_path_index(self):
        """The maintained lengths as a
        :class:`~repro.core.single_path.SinglePathIndex`, so
        :func:`~repro.core.single_path.extract_path` runs on the live
        incremental state (the query service rebuilds this after every
        update tick)."""
        from .single_path import SinglePathIndex

        cells: dict[tuple[int, int], dict] = {}
        for (nonterminal, i, j), length in self._lengths.items():
            cells.setdefault((i, j), {})[nonterminal] = length
        return SinglePathIndex(graph=self.graph, grammar=self.grammar,
                               cells=cells, iterations=0)

    def length_of(self, nonterminal: Nonterminal | str, source: Hashable,
                  target: Hashable) -> int | None:
        """The maintained witness length for ``(A, source, target)``, or
        None when the pair is not in ``R_A``."""
        if isinstance(nonterminal, str):
            nonterminal = Nonterminal(nonterminal)
        return self._lengths.get(
            (nonterminal, self.graph.node_id(source),
             self.graph.node_id(target))
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _add_edge(self, source: Hashable, label: str, target: Hashable) -> int:
        """Insert one edge; returns the number of new facts (length
        refinements of existing facts propagate but are not counted,
        matching the base-class contract)."""
        store = self._support_store if self._support_store.active else None
        already_present = self.graph.has_edge(source, label, target)
        new_nodes = [node for node in dict.fromkeys((source, target))
                     if not self.graph.has_node(node)]
        self.graph.add_edge(source, label, target)
        self._edge_insertions += 1

        worklist: deque[Fact] = deque()
        created = 0
        for node in new_nodes:
            node_id = self.graph.node_id(node)
            for head in self._nullable:
                added, improved = self._improve(head, node_id, node_id, 0)
                if added:
                    created += 1
                    if store is not None:
                        store.seed_fact((head, node_id, node_id), ("empty",))
                if added or improved:
                    worklist.append((head, node_id, node_id))
        if not already_present:
            i = self.graph.node_id(source)
            j = self.graph.node_id(target)
            for head in self.grammar.heads_for_terminal(Terminal(label)):
                added, improved = self._improve(head, i, j, 1)
                if added:
                    created += 1
                    if store is not None:
                        store.seed_fact((head, i, j), ("edge", label))
                elif store is not None:
                    store.add_support((head, i, j), ("edge", label))
                if added or improved:
                    worklist.append((head, i, j))
        return created + self._propagate_lengths(worklist)

    # ------------------------------------------------------------------
    # Batch hooks
    # ------------------------------------------------------------------
    #: The length matrices are rebuilt from ``_lengths`` per batch.
    _keeps_matrices = False

    def _batch_backend(self):
        from .semiring import LENGTH_SEMIRING, AnnotatedBackend

        return AnnotatedBackend(LENGTH_SEMIRING)

    def closed_matrix(self, nonterminal: Nonterminal):
        from ..matrices.base import get_backend

        return get_backend(self.backend).from_pairs(
            self.graph.node_count, self._facts.get(nonterminal, ()))

    def _matrices_from_state(self, n: int) -> dict:
        backend = self._batch_backend()
        return {
            nt: backend.from_cells(
                (n, n),
                {(i, j): self._lengths[(nt, i, j)]
                 for (i, j) in self._facts.get(nt, ())},
                symbol=nt,
            )
            for nt in self.grammar.nonterminals
        }

    def _seed_matrices(self, n: int, seeds: dict) -> dict:
        backend = self._batch_backend()
        return {
            nt: backend.from_cells((n, n), cells, symbol=nt)
            for nt, cells in seeds.items()
        }

    def _absorb(self, matrices: dict, before: dict | None) -> list[Fact]:
        new_facts: list[Fact] = []
        lengths = self._lengths
        for nonterminal, matrix in matrices.items():
            known = self._facts[nonterminal]
            fresh: list[tuple[int, int]] = []
            for i, j, length in matrix.nonzero_cells():
                previous = lengths.get((nonterminal, i, j))
                lengths[(nonterminal, i, j)] = length
                if (i, j) not in known:
                    fresh.append((i, j))
                elif previous != length:
                    # Length refinement of an existing fact: the matrix
                    # content changed even though the relation did not.
                    self._log_change(nonterminal, (i, j))
            if not fresh:
                continue
            known.update(fresh)
            self._index_pairs(nonterminal, fresh)
            if self._change_recorder is not None:
                self._change_recorder.setdefault(nonterminal, set()).update(fresh)
            new_facts.extend((nonterminal, i, j) for i, j in fresh)
        return new_facts

    def _edge_seed_value(self, label: str) -> int:
        return 1

    def _diagonal_seed_value(self) -> int:
        return 0

    def _rederive_seed_value(self, fact: Fact, remaining: set) -> int:
        """Min length over the surviving one-step derivations — their
        operands are all survivors, so their canonical lengths are
        available; the closure run then refines downward if a shorter
        route re-appears through other re-derived facts."""
        _nonterminal, i, j = fact
        best: int | None = None
        for support in remaining:
            if support[0] == "empty":
                candidate = 0
            elif support[0] == "edge":
                candidate = 1
            else:
                _tag, left, right, r = support
                left_length = self._lengths.get((left, i, r))
                right_length = self._lengths.get((right, r, j))
                if left_length is None or right_length is None:
                    continue
                candidate = left_length + right_length
            if best is None or candidate < best:
                best = candidate
        assert best is not None, "re-derivation seed without usable support"
        return best

    def _on_fact_removed(self, fact: Fact) -> None:
        self._lengths.pop(fact, None)

    def _annotations_of(self, facts: set[Fact]) -> dict:
        return {fact: self._lengths.get(fact) for fact in facts}

    def _annotation_changed(self, fact: Fact, snapshot: dict) -> bool:
        return self._lengths.get(fact) != snapshot.get(fact)

    # ------------------------------------------------------------------
    # Tuple-granular engine
    # ------------------------------------------------------------------
    def _improve(self, nonterminal: Nonterminal, i: int, j: int,
                 length: int) -> tuple[bool, bool]:
        """Record/refine one length; returns ``(added, improved)``."""
        key = (nonterminal, i, j)
        current = self._lengths.get(key)
        if current is None:
            self._record(nonterminal, i, j)
            self._lengths[key] = length
            return True, False
        if length < current:
            self._lengths[key] = length
            self._log_change(nonterminal, (i, j))
            return False, True
        return False, False

    def _propagate_lengths(self, worklist: deque[Fact]) -> int:
        store = self._support_store if self._support_store.active else None
        created = 0
        while worklist:
            nonterminal, i, j = worklist.popleft()
            self._propagated_facts += 1
            base = self._lengths[(nonterminal, i, j)]
            for head, right in self._rules_by_left.get(nonterminal, ()):
                for k in list(self._by_source.get((right, j), ())):
                    other = self._lengths.get((right, j, k))
                    if other is None:
                        continue
                    added, improved = self._improve(head, i, k, base + other)
                    if added:
                        created += 1
                        if store is not None:
                            store.seed_fact((head, i, k),
                                            ("split", nonterminal, right, j))
                    elif store is not None:
                        store.add_support((head, i, k),
                                          ("split", nonterminal, right, j))
                    if added or improved:
                        worklist.append((head, i, k))
            for head, left in self._rules_by_right.get(nonterminal, ()):
                for k in list(self._by_target.get((left, i), ())):
                    other = self._lengths.get((left, k, i))
                    if other is None:
                        continue
                    added, improved = self._improve(head, k, j, other + base)
                    if added:
                        created += 1
                        if store is not None:
                            store.seed_fact((head, k, j),
                                            ("split", left, nonterminal, i))
                    elif store is not None:
                        store.add_support((head, k, j),
                                          ("split", left, nonterminal, i))
                    if added or improved:
                        worklist.append((head, k, j))
        return created
