"""The sparse backend's two storage forms are invisible to callers.

A :class:`~repro.matrices.sparse.SparseMatrix` keeps per-row column
sets while it is small and SciPy CSR once it is large.  These tests pin
that the forms agree with the ``setmatrix`` reference on values, exact
deltas and ``nonzero_pairs`` order on both sides of the cutoff; that the
backend helpers work on the row-set form without building CSR and never
write through a cached view; and that serialized bytes — tile payloads
and whole engine snapshots — do not depend on the form.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")

from repro import CFPQEngine, parse_grammar  # noqa: E402
from repro.datasets.registry import build_graph  # noqa: E402
from repro.grammar.builders import same_generation_query1  # noqa: E402
from repro.graph.generators import worst_case_dyck_graph  # noqa: E402
from repro.matrices import sparse  # noqa: E402
from repro.matrices.setmatrix import BACKEND as ROWSETS  # noqa: E402
from repro.service.snapshot import save_engine_snapshot  # noqa: E402

SPARSE = sparse.BACKEND

_SIZE = 12
#: A cutoff small enough for Hypothesis-sized operands to straddle it.
_SMALL_LIMIT = 8

pair_sets = st.sets(
    st.tuples(st.integers(0, _SIZE - 1), st.integers(0, _SIZE - 1)),
    max_size=30,
)


@contextmanager
def rowset_limit(limit: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "_ROWSET_LIMIT", limit)
        yield


def _is_csr(matrix) -> bool:
    """True when *matrix* holds only its CSR view."""
    return matrix._rowset is None and matrix._csr is not None


def _is_rowset(matrix) -> bool:
    """True when *matrix* holds only its row-set view."""
    return matrix._csr is None and matrix._rowset is not None


@given(left=pair_sets, right=pair_sets, accum=pair_sets)
@settings(max_examples=150, deadline=None)
def test_forms_agree_with_setmatrix_across_the_cutoff(left, right, accum):
    """Operands of 0–30 entries against a cutoff of 8: small × small,
    small × CSR, CSR × small and CSR × CSR products, and merges that
    stay small, promote to CSR or start from CSR."""
    reference = ROWSETS.from_pairs(_SIZE, left).multiply(
        ROWSETS.from_pairs(_SIZE, right)).to_pair_set()
    with rowset_limit(_SMALL_LIMIT):
        a = SPARSE.from_pairs(_SIZE, left)
        b = SPARSE.from_pairs(_SIZE, right)
        product = a.multiply(b)
        assert product.to_pair_set() == reference
        assert list(product.nonzero_pairs()) == sorted(reference)

        target = SPARSE.from_pairs(_SIZE, accum)
        merged, delta = SPARSE.mxm_into(a, b, target)
        assert merged is target
        assert list(delta.nonzero_pairs()) == sorted(reference - accum)
        assert list(target.nonzero_pairs()) == sorted(reference | accum)
        assert target.nnz() == len(reference | accum)

        assert list(a.difference(b).nonzero_pairs()) == sorted(left - right)
        assert list(a.union(b).nonzero_pairs()) == sorted(left | right)
        assert a.transpose().to_pair_set() == {(j, i) for i, j in left}
        # The operands are untouched.
        assert a.to_pair_set() == left and b.to_pair_set() == right


class TestPathsAcrossTheCutoff:
    def test_small_times_csr_takes_the_rowset_path(self):
        with rowset_limit(_SMALL_LIMIT):
            left = SPARSE.from_pairs(_SIZE, [(0, 1), (2, 3)])
            right = SPARSE.from_pairs(
                _SIZE, [(k, j) for k in range(_SIZE) for j in (0, 5)])
            assert _is_rowset(left) and _is_csr(right)
            product = left.multiply(right)  # work 4
            assert _is_rowset(product)
            assert list(product.nonzero_pairs()) == [
                (0, 0), (0, 5), (2, 0), (2, 5)]
            # Only the touched rows were read: no row-set view of the
            # whole right operand.
            assert _is_csr(right)

    def test_work_over_the_limit_runs_scipy(self):
        with rowset_limit(_SMALL_LIMIT):
            left = SPARSE.from_pairs(_SIZE, [(0, 1), (2, 3)])
            right = SPARSE.from_pairs(
                _SIZE, [(k, j) for k in range(_SIZE) for j in range(6)])
            product = left.multiply(right)  # work 12
            assert _is_csr(product)
            assert product.to_pair_set() == {
                (i, j) for i in (0, 2) for j in range(6)}

    def test_work_counts_repeated_rows(self):
        """Two small operands whose product reads one 5-entry row three
        times: work 15 is over the cutoff of 8."""
        with rowset_limit(_SMALL_LIMIT):
            left = SPARSE.from_pairs(_SIZE, [(0, 1), (2, 1), (3, 1)])
            right = SPARSE.from_pairs(_SIZE, [(1, j) for j in range(5)])
            assert _is_rowset(left) and _is_rowset(right)
            product = left.multiply(right)
            assert _is_csr(product)
            assert product.to_pair_set() == {
                (i, j) for i in (0, 2, 3) for j in range(5)}

    def test_csr_times_small_runs_scipy(self):
        with rowset_limit(_SMALL_LIMIT):
            left = SPARSE.from_pairs(
                _SIZE, [(i, k) for i in range(_SIZE) for k in (1, 2)])
            right = SPARSE.from_pairs(_SIZE, [(1, 7)])
            product = left.multiply(right)
            assert _is_csr(product)
            assert product.to_pair_set() == {(i, 7) for i in range(_SIZE)}
            # The small operand caches the CSR view it was lifted to.
            assert right._rowset is not None and right._csr is not None

    def test_union_update_promotes_to_csr(self):
        with rowset_limit(_SMALL_LIMIT):
            target = SPARSE.from_pairs(_SIZE, [(i, i) for i in range(5)])
            other = SPARSE.from_pairs(_SIZE, [(i, 0) for i in range(5)])
            delta = target.union_update(other)
            assert _is_csr(target)
            assert target.nnz() == 9
            assert list(target.nonzero_pairs()) == sorted(
                {(i, i) for i in range(5)} | {(i, 0) for i in range(5)})
            assert _is_rowset(delta)
            assert list(delta.nonzero_pairs()) == [(i, 0)
                                                   for i in range(1, 5)]

    def test_a_merge_drops_the_other_view(self):
        with rowset_limit(_SMALL_LIMIT):
            small = SPARSE.from_pairs(_SIZE, [(0, 0)])
            small.to_scipy()  # both views cached
            small.union_update(SPARSE.from_pairs(_SIZE, [(1, 1)]))
            assert set(zip(*small.to_scipy().nonzero())) == {(0, 0), (1, 1)}

            large = SPARSE.from_pairs(_SIZE, [(i, i) for i in range(10)])
            large._rows()  # both views cached
            large.union_update(SPARSE.from_pairs(
                _SIZE, [(i, 0) for i in range(_SIZE)]))
            # A row-set product reads row 11 of the large matrix, which
            # only the merge filled.
            probe = SPARSE.from_pairs(_SIZE, [(5, 11)])
            assert probe.multiply(large).to_pair_set() == {(5, 0)}
            assert SPARSE.tile_payload(large) == SPARSE.tile_payload(
                SPARSE.from_pairs(_SIZE, large.to_pair_set()))

    def test_cutoff_zero_is_all_csr(self):
        with rowset_limit(0):
            matrix = SPARSE.from_pairs(_SIZE, [(0, 1)])
            assert _is_csr(matrix) and _is_csr(SPARSE.zeros(3))
            assert _is_csr(matrix.multiply(matrix))
            assert _is_csr(matrix.union_update(matrix))


PAIRS = frozenset({(0, 1), (0, 4), (2, 2), (3, 0), (5, 5)})


def _copies():
    return {
        "clone": SPARSE.clone,
        "gather_rows": lambda m: SPARSE.gather_rows(m, [5, 0, 0, 3]),
        "mask_rows": lambda m: SPARSE.mask_rows(m, [0, 2, 5]),
    }


class TestHelpersOnTheRowSetForm:
    def test_no_csr_is_built(self):
        matrix = SPARSE.from_pairs(6, PAIRS)
        assert _is_rowset(matrix)
        results = [copy(matrix) for copy in _copies().values()]
        assert matrix.to_pair_set() == PAIRS
        SPARSE.matrix_nbytes(matrix)
        assert _is_rowset(matrix)
        assert all(_is_rowset(result) for result in results)

    def test_nbytes_is_the_rowset_estimate(self):
        matrix = SPARSE.from_pairs(6, PAIRS)
        assert SPARSE.matrix_nbytes(matrix) == ROWSETS.matrix_nbytes(
            ROWSETS.from_pairs(6, PAIRS))

    @pytest.mark.parametrize("helper", sorted(_copies()))
    def test_results_share_no_view(self, helper):
        copy = _copies()[helper]
        matrix = SPARSE.from_pairs(6, PAIRS)
        matrix.to_scipy()  # cache both views
        result = copy(matrix)
        rows, cols = result.shape
        expected = result.to_pair_set()
        SPARSE.union_update(result, SPARSE.from_pairs(
            rows, [(i, j) for i in range(rows) for j in range(cols)],
            cols=cols))
        assert matrix.to_pair_set() == PAIRS
        assert set(zip(*matrix.to_scipy().nonzero())) == PAIRS
        assert SPARSE.tile_payload(matrix) == SPARSE.tile_payload(
            SPARSE.from_pairs(6, PAIRS))
        # ... and mutating the source leaves the earlier copy alone.
        fresh = copy(matrix)
        SPARSE.union_update(matrix, SPARSE.from_pairs(6, [(1, 1)]))
        assert fresh.to_pair_set() == expected


class TestSerializedBytes:
    def test_tile_payload_is_form_independent(self):
        with rowset_limit(0):
            left = SPARSE.from_pairs(
                _SIZE, [(i, (3 * i + 1) % _SIZE) for i in range(_SIZE)]
                + [(i, (5 * i + 2) % _SIZE) for i in range(_SIZE)])
            product = left.multiply(left)
            assert not product.to_scipy().has_sorted_indices
            csr_payload = SPARSE.tile_payload(product)
        pairs = product.to_pair_set()
        small = SPARSE.from_pairs(_SIZE, pairs)
        assert _is_rowset(small)
        assert SPARSE.tile_payload(small) == csr_payload
        restored = SPARSE.tile_from_payload(csr_payload)
        assert list(restored.nonzero_pairs()) == sorted(pairs)

    @pytest.mark.parametrize("workload", ["worst_case_dyck_25", "funding"])
    def test_engine_snapshot_is_form_independent(self, tmp_path, workload):
        if workload == "funding":
            graph = build_graph("funding", use_cache=False)
            grammar = same_generation_query1()
        else:
            graph = worst_case_dyck_graph(25)
            grammar = parse_grammar("S -> a S b | a b",
                                    terminals=["a", "b"])
        blobs = []
        for limit in (0, sparse._ROWSET_LIMIT):
            with rowset_limit(limit):
                path = tmp_path / f"limit-{limit}.snapshot"
                save_engine_snapshot(
                    str(path), CFPQEngine(graph, grammar, backend="sparse"))
                blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
