"""Property tests for the mutable kernel API.

Contracts under test, for every registered backend:

* ``union_update`` mutates the target to the union and returns
  **exactly** the genuinely-new entries (the semi-naive frontier);
* ``difference`` is plain set difference on coordinates;
* ``MatrixBackend.mxm_into`` equals multiply-then-union, delta
  included;
* the value-semantics fallback serves matrices that never implemented
  the in-place kernels (third-party backend compatibility).

The properties run on both forms of the sparse backend (see the
``sparse_form`` fixture).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError
from repro.matrices.base import (
    BooleanMatrix,
    MatrixBackend,
    available_backends,
    get_backend,
)

_SIZE = 5
pair_sets = st.sets(
    st.tuples(st.integers(0, _SIZE - 1), st.integers(0, _SIZE - 1)),
    max_size=12,
)


@given(target_pairs=pair_sets, other_pairs=pair_sets)
@settings(max_examples=100, deadline=None)
def test_union_update_returns_exact_delta(target_pairs, other_pairs,
                                          sparse_form):
    for name in available_backends():
        backend = get_backend(name)
        target = backend.from_pairs(_SIZE, target_pairs)
        other = backend.from_pairs(_SIZE, other_pairs)
        merged, delta = backend.union_update(target, other)
        assert merged is target, f"{name} did not merge in place"
        assert delta.to_pair_set() == other_pairs - target_pairs, name
        assert merged.to_pair_set() == target_pairs | other_pairs, name
        # The source operand must be untouched.
        assert other.to_pair_set() == other_pairs, name


@given(left_pairs=pair_sets, right_pairs=pair_sets)
@settings(max_examples=100, deadline=None)
def test_difference_is_set_difference(left_pairs, right_pairs, sparse_form):
    for name in available_backends():
        backend = get_backend(name)
        left = backend.from_pairs(_SIZE, left_pairs)
        right = backend.from_pairs(_SIZE, right_pairs)
        result = left.difference(right)
        assert result.to_pair_set() == left_pairs - right_pairs, name
        # Value semantics: neither operand changes.
        assert left.to_pair_set() == left_pairs, name
        assert right.to_pair_set() == right_pairs, name


@given(left_pairs=pair_sets, right_pairs=pair_sets, accum_pairs=pair_sets)
@settings(max_examples=100, deadline=None)
def test_mxm_into_equals_multiply_union(left_pairs, right_pairs, accum_pairs,
                                        sparse_form):
    expected_product = {
        (i, j)
        for i, k in left_pairs
        for k2, j in right_pairs
        if k == k2
    }
    for name in available_backends():
        backend = get_backend(name)
        left = backend.from_pairs(_SIZE, left_pairs)
        right = backend.from_pairs(_SIZE, right_pairs)
        accum = backend.from_pairs(_SIZE, accum_pairs)
        merged, delta = backend.mxm_into(left, right, accum)
        assert merged.to_pair_set() == accum_pairs | expected_product, name
        assert delta.to_pair_set() == expected_product - accum_pairs, name


@given(pairs=pair_sets)
@settings(max_examples=50, deadline=None)
def test_clone_is_independent(pairs, sparse_form):
    for name in available_backends():
        backend = get_backend(name)
        original = backend.from_pairs(_SIZE, pairs)
        copy = backend.clone(original)
        assert copy.to_pair_set() == frozenset(pairs), name
        backend.union_update(copy, backend.from_pairs(_SIZE, [(0, 0), (4, 4)]))
        assert original.to_pair_set() == frozenset(pairs), (
            f"{name} clone shares storage"
        )


@pytest.mark.parametrize("name", available_backends())
def test_union_update_self_is_empty_delta(name):
    backend = get_backend(name)
    matrix = backend.from_pairs(_SIZE, [(0, 1), (2, 3)])
    merged, delta = backend.union_update(matrix, matrix)
    assert delta.nnz() == 0
    assert merged.to_pair_set() == {(0, 1), (2, 3)}


@pytest.mark.parametrize("name", available_backends())
def test_union_update_shape_mismatch(name):
    backend = get_backend(name)
    with pytest.raises(DimensionMismatchError):
        backend.union_update(backend.zeros(2), backend.zeros(3))


@pytest.mark.parametrize("name", available_backends())
def test_mxm_into_aliasing_accumulator(name):
    """accum may be one of the product operands; the kernels must not
    corrupt the product by mutating mid-multiply."""
    backend = get_backend(name)
    # chain 0->1->2->3 squared into itself: adds the distance-2 pairs.
    matrix = backend.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    merged, delta = backend.mxm_into(matrix, matrix, matrix)
    assert merged.to_pair_set() == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}
    assert delta.to_pair_set() == {(0, 2), (1, 3)}


# ----------------------------------------------------------------------
# Third-party compatibility: immutable matrices go through the fallback.
# ----------------------------------------------------------------------

class _FrozenMatrix(BooleanMatrix):
    """A minimal immutable third-party matrix: only the abstract API."""

    def __init__(self, shape, pairs):
        self._shape = shape
        self._pairs = frozenset(pairs)

    @property
    def shape(self):
        return self._shape

    def __getitem__(self, index):
        return index in self._pairs

    def nonzero_pairs(self):
        return iter(self._pairs)

    def nnz(self):
        return len(self._pairs)

    def multiply(self, other):
        self._require_chainable(other)
        other_pairs = set(other.nonzero_pairs())
        return _FrozenMatrix(
            (self._shape[0], other.shape[1]),
            {(i, j) for i, k in self._pairs for k2, j in other_pairs
             if k == k2},
        )

    def union(self, other):
        self._require_same_shape(other)
        return _FrozenMatrix(self._shape,
                             self._pairs | set(other.nonzero_pairs()))

    def transpose(self):
        return _FrozenMatrix((self._shape[1], self._shape[0]),
                             {(j, i) for i, j in self._pairs})


class _FrozenBackend(MatrixBackend):
    name = "frozen-test"

    def zeros(self, rows, cols=None):
        return _FrozenMatrix((rows, cols if cols is not None else rows), ())

    def from_pairs(self, size, pairs, cols=None):
        return _FrozenMatrix((size, cols if cols is not None else size),
                             pairs)


class TestImmutableFallback:
    def test_flags(self):
        matrix = _FrozenBackend().from_pairs(3, [(0, 1)])
        assert not matrix.supports_inplace
        assert matrix.backend_name == "abstract"

    def test_union_update_fallback_value_semantics(self):
        backend = _FrozenBackend()
        target = backend.from_pairs(3, [(0, 1)])
        other = backend.from_pairs(3, [(0, 1), (1, 2)])
        merged, delta = backend.union_update(target, other)
        assert merged is not target
        assert target.to_pair_set() == {(0, 1)}
        assert merged.to_pair_set() == {(0, 1), (1, 2)}
        assert delta.to_pair_set() == {(1, 2)}

    def test_union_update_fallback_no_change_returns_target(self):
        backend = _FrozenBackend()
        target = backend.from_pairs(3, [(0, 1)])
        merged, delta = backend.union_update(target,
                                             backend.from_pairs(3, [(0, 1)]))
        assert merged is target
        assert delta.nnz() == 0

    def test_generic_difference_interoperates(self):
        backend = _FrozenBackend()
        left = backend.from_pairs(3, [(0, 1), (1, 2)])
        right = backend.from_pairs(3, [(1, 2)])
        delta = left.difference(right)
        assert delta.to_pair_set() == {(0, 1)}

    def test_direct_union_update_raises(self):
        matrix = _FrozenBackend().from_pairs(3, [(0, 1)])
        with pytest.raises(NotImplementedError):
            matrix.union_update(matrix)

    def test_mxm_into_fallback(self):
        backend = _FrozenBackend()
        left = backend.from_pairs(3, [(0, 1)])
        right = backend.from_pairs(3, [(1, 2)])
        accum = backend.from_pairs(3, [(2, 2)])
        merged, delta = backend.mxm_into(left, right, accum)
        assert merged.to_pair_set() == {(0, 2), (2, 2)}
        assert delta.to_pair_set() == {(0, 2)}

    def test_closure_runs_on_immutable_backend(self):
        """The engine end-to-end on a backend without in-place kernels."""
        from repro.core.closure import run_closure

        backend = _FrozenBackend()
        matrices = {
            "A": backend.from_pairs(3, [(0, 1)]),
            "B": backend.from_pairs(3, [(1, 2)]),
            "S": backend.zeros(3),
        }
        result = run_closure(matrices, [("S", "A", "B")], backend,
                             strategy="delta")
        assert result.matrices["S"].to_pair_set() == {(0, 2)}
