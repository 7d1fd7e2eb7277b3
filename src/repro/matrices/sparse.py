"""Sparse boolean matrix backend: SciPy CSR for large matrices, row
sets for small ones.

Stands in for both of the paper's sparse implementations — **sCPU**
(Math.NET CSR on the CPU) and **sGPU** (CUSPARSE CSR on the GPU): the
storage format (CSR) and the algorithm are identical; only the device
differs.  Sparsity makes the closure scale with the number of stored
entries rather than |V|², which is the effect behind the paper's g1–g3
rows.

That scaling stops at SciPy's fixed cost per call: on a 50×50 matrix
one ``@`` takes ~58 µs, one ``>`` ~60 µs, one ``+`` ~44 µs and one
``csr_matrix(...)`` construction ~21 µs, whatever the entry count.  A
semi-naive closure whose frontier holds one entry per round — ~1,300
rounds per solve on the worst-case Dyck graph — would pay that on every
round.  So a :class:`SparseMatrix` holds its entries in one of two
forms, chosen from its own size:

* **small** (fewer than :data:`_ROWSET_LIMIT` entries): per-row column
  sets, run by the :class:`~repro.matrices.setmatrix.RowSetMatrix`
  kernels;
* **large**: a SciPy ``csr_matrix``.

Either view is built from the other on first use and cached until the
next mutation, so no caller sees which form is in use: values, deltas,
``nonzero_pairs`` order (row-major, sorted) and serialized bytes are the
same.  The kernels pick a path as follows:

* ``multiply`` runs on row sets when the left operand is small and the
  product's **work** — the sum, over left entries ``(i, k)``, of the
  length of row ``k`` of the right operand — is under the limit too.
  The work is read from the right operand's row sets or CSR ``indptr``
  before any product is formed, and a large right operand lends only
  the rows the product touches.  Bounding work rather than operand size
  keeps a small frontier times a wide row block (489 × 10,066 entries
  with an 8,856-entry output on ``funding``) on SciPy: building such
  products in Python sets made the ``funding`` solve 1.8× slower
  (median 43 vs 24 ms);
* ``union_update``, ``union`` and ``difference`` stay on row sets
  while both operands fit; a merge whose result outgrows the limit
  promotes the target to CSR.  A small operand merged into a large
  target reads the target rows it touches under the same work rule, so
  a merge that adds nothing calls no SciPy at all;
* everything else runs SciPy.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse as sp

from .base import BooleanMatrix, MatrixBackend, Pair, register_backend
from .setmatrix import BACKEND as _ROWSETS, RowSetMatrix

#: Entry count below which a matrix keeps the row-set form, and product
#: or merge work below which a kernel runs on row sets.  Chosen from one
#: interleaved sweep (medians in ms; Python 3.11, SciPy 1.17, one core
#: of a 2-vCPU Xeon VM) over limits 0 / 256 / 1,024 / 4,096: worst-case
#: Dyck n = 25 solve 489 / 225 / 35 / 34 (its relation tops out at 650
#: entries, so 256 leaves it on CSR); g1 solve 68.5 / 68.7 / 62.1 /
#: 114.8; an 8-probe batch read on a ``funding`` service 11.4 / 7.6 /
#: 3.0 / 2.9.  The cost: a from-scratch ``funding`` solve 17.9 / 17.6 /
#: 21.9 / 24.3, as its 434–489-entry terminal matrices start as row sets
#: and are converted to CSR for the wide products they feed.  0 makes
#: every matrix CSR.
_ROWSET_LIMIT = 1024


def _fits(count: int) -> bool:
    return count < _ROWSET_LIMIT


class SparseMatrix(BooleanMatrix):
    """Boolean matrix over two cached views: a ``scipy.sparse.csr_matrix``
    of dtype bool, and a :class:`RowSetMatrix` of per-row column sets.

    At least one view is present; the kernels pick one from the entry
    counts (see the module docstring) and build the other on demand.
    ``union_update`` mutates at the wrapper level — it updates one view
    and drops the other, keeping this object's identity stable for the
    closure engine.
    """

    __slots__ = ("_shape", "_nnz", "_csr", "_rowset")

    backend_name = "sparse"
    supports_inplace = True

    def __init__(self, matrix: sp.spmatrix):
        csr = matrix.tocsr().astype(bool)
        csr.eliminate_zeros()
        self._shape = csr.shape
        self._nnz = int(csr.nnz)
        self._csr = csr
        self._rowset: "RowSetMatrix | None" = None

    @classmethod
    def _wrap(cls, rowset: "RowSetMatrix | None",
              csr: "sp.csr_matrix | None" = None) -> "SparseMatrix":
        """Adopt views without copying: a row-set matrix this one will
        own, and/or a canonical bool CSR.  A CSR view may be shared,
        since no kernel writes one in place."""
        matrix = cls.__new__(cls)
        matrix._shape = (rowset if rowset is not None else csr).shape
        matrix._nnz = rowset.nnz() if rowset is not None else int(csr.nnz)
        matrix._csr = csr
        matrix._rowset = rowset
        return matrix

    # -- views ------------------------------------------------------------
    def _rows(self) -> RowSetMatrix:
        """The row-set view, built from the CSR view on first use."""
        rowset = self._rowset
        if rowset is None:
            indptr = self._csr.indptr
            columns = self._csr.indices.tolist()
            filled = np.flatnonzero(np.diff(indptr))
            rows = {
                i: set(columns[start:end])
                for i, start, end in zip(filled.tolist(),
                                         indptr[filled].tolist(),
                                         indptr[filled + 1].tolist())
            }
            rowset = self._rowset = RowSetMatrix._wrap(self._shape, rows,
                                                       self._nnz)
        return rowset

    def to_scipy(self) -> sp.csr_matrix:
        """The CSR view (do not mutate), built from the row sets on
        first use with sorted indices."""
        csr = self._csr
        if csr is None:
            rows = self._rowset._rows
            n_rows = self._shape[0]
            keys = np.fromiter(rows, dtype=np.int64, count=len(rows))
            lengths = np.fromiter(map(len, rows.values()), dtype=np.int64,
                                  count=len(rows))
            columns = np.fromiter(chain.from_iterable(rows.values()),
                                  dtype=np.int64, count=self._nnz)
            row_of = np.repeat(keys, lengths)
            order = np.lexsort((columns, row_of))
            indptr = np.zeros(n_rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(row_of, minlength=n_rows), out=indptr[1:])
            csr = sp.csr_matrix(
                (np.ones(self._nnz, dtype=bool), columns[order], indptr),
                shape=self._shape,
            )
            csr.has_sorted_indices = True
            self._csr = csr
        return csr

    def _set_csr(self, csr: sp.csr_matrix) -> None:
        """Replace the contents with *csr* (a mutation: the row-set view
        is dropped)."""
        self._csr = csr
        self._rowset = None
        self._nnz = int(csr.nnz)

    # -- element access ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape  # type: ignore[return-value]

    def __getitem__(self, index: Pair) -> bool:
        i, j = self._checked_index(index)
        if self._rowset is not None:
            return self._rowset[i, j]
        return bool(self._csr[i, j])

    def nonzero_pairs(self) -> Iterator[Pair]:
        if self._rowset is not None:
            rows = self._rowset._rows
            return ((i, j) for i in sorted(rows) for j in sorted(rows[i]))
        coo = _sorted(self._csr).tocoo()
        return zip(coo.row.tolist(), coo.col.tolist())

    def to_pair_set(self) -> frozenset[Pair]:
        if self._rowset is not None:
            return frozenset(self._rowset.nonzero_pairs())
        coo = self._csr.tocoo()
        return frozenset(zip(coo.row.tolist(), coo.col.tolist()))

    def nnz(self) -> int:
        return self._nnz

    # -- algebra -------------------------------------------------------------
    def multiply(self, other: BooleanMatrix) -> "SparseMatrix":
        self._require_chainable(other)
        right = _coerce(other)
        if _fits(self._nnz):
            left = self._rows()
            block = right._row_block(
                [k for columns in left._rows.values() for k in columns])
            if block is not None:
                return SparseMatrix._wrap(left.multiply(block))
        return SparseMatrix(self.to_scipy() @ right.to_scipy())

    def _row_block(self, keys: list) -> "RowSetMatrix | None":
        """A row-set matrix holding at least the rows *keys* of this one,
        or None when their lengths, summed over *keys* (repeats
        included), reach the limit.  A large CSR matrix reads only those
        rows from ``indptr``/``indices`` and builds no row-set view."""
        if self._rowset is not None or _fits(self._nnz):
            rowset = self._rows()
            rows = rowset._rows
            work = sum([len(rows[k]) for k in keys if k in rows])
            return rowset if _fits(work) else None
        indptr = self._csr.indptr
        index = np.asarray(keys, dtype=np.int64)
        if not _fits(int((indptr[index + 1] - indptr[index]).sum())):
            return None
        columns = self._csr.indices
        touched = np.unique(index)
        rows = {
            k: set(columns[start:end].tolist())
            for k, start, end in zip(touched.tolist(),
                                     indptr[touched].tolist(),
                                     indptr[touched + 1].tolist())
            if end > start
        }
        return RowSetMatrix._wrap(self._shape, rows,
                                  sum(map(len, rows.values())))

    def union(self, other: BooleanMatrix) -> "SparseMatrix":
        self._require_same_shape(other)
        operand = _coerce(other)
        if _fits(self._nnz) and _fits(operand._nnz):
            return SparseMatrix._wrap(self._rows().union(operand._rows()))
        return SparseMatrix(self.to_scipy() + operand.to_scipy())

    def transpose(self) -> "SparseMatrix":
        if self._rowset is not None:
            return SparseMatrix._wrap(self._rowset.transpose())
        return SparseMatrix(self._csr.T)

    def difference(self, other: BooleanMatrix) -> "SparseMatrix":
        self._require_same_shape(other)
        operand = _coerce(other)
        if _fits(self._nnz) and _fits(operand._nnz):
            return SparseMatrix._wrap(
                self._rows().difference(operand._rows())
            )
        return SparseMatrix(self.to_scipy() > operand.to_scipy())

    def union_update(self, other: BooleanMatrix) -> "SparseMatrix":
        self._require_same_shape(other)
        operand = _coerce(other)
        if _fits(operand._nnz):
            if _fits(self._nnz):
                target = self._rows()
                delta = target.union_update(operand._rows())
                self._csr = None
                self._nnz = target.nnz()
                if not _fits(self._nnz):
                    # Outgrown: promote to CSR.
                    self._set_csr(self.to_scipy())
                return SparseMatrix._wrap(delta)
            # Into a large target: read only the rows the operand
            # touches, so a merge that adds nothing calls no SciPy.
            fresh = operand._rows()
            block = self._row_block(list(fresh._rows))
            if block is not None:
                delta = SparseMatrix._wrap(fresh.difference(block))
                if delta._nnz:
                    self._set_csr(
                        (self.to_scipy() + delta.to_scipy()).tocsr())
                return delta
        current = self.to_scipy()
        delta = (operand.to_scipy() > current).tocsr()
        delta.eliminate_zeros()
        if delta.nnz:
            self._set_csr((current + delta).tocsr())
        return SparseMatrix(delta)


def _sorted(csr: sp.csr_matrix) -> sp.csr_matrix:
    """*csr*, or a copy with sorted column indices when it has none (a
    SciPy product leaves them in discovery order): the canonical order
    that makes iteration and payloads independent of a matrix's
    history."""
    return csr if csr.has_sorted_indices else csr.sorted_indices()


def _coerce(matrix: BooleanMatrix) -> SparseMatrix:
    """*matrix* itself when it is sparse, else a sparse copy of it."""
    if isinstance(matrix, SparseMatrix):
        return matrix
    rows, cols = matrix.shape
    return BACKEND.from_pairs(rows, matrix.nonzero_pairs(), cols=cols)


class SparseBackend(MatrixBackend):
    """Factory for :class:`SparseMatrix`."""

    name = "sparse"

    def zeros(self, rows: int, cols: int | None = None) -> SparseMatrix:
        return self.from_pairs(rows, (), cols=cols)

    def from_pairs(self, size: int, pairs: Iterable[Pair],
                   cols: int | None = None) -> SparseMatrix:
        pair_list = list(pairs)
        shape = (size, cols if cols is not None else size)
        if _fits(len(pair_list)):
            return SparseMatrix._wrap(RowSetMatrix(shape, pair_list))
        rows = [i for i, _ in pair_list]
        columns = [j for _, j in pair_list]
        data = np.ones(len(pair_list), dtype=bool)
        return SparseMatrix(sp.csr_matrix((data, (rows, columns)), shape=shape,
                                          dtype=bool))

    def from_scipy(self, matrix: sp.spmatrix) -> SparseMatrix:
        """Wrap an existing SciPy sparse matrix."""
        return SparseMatrix(matrix)

    def clone(self, matrix: BooleanMatrix) -> SparseMatrix:
        if not isinstance(matrix, SparseMatrix):
            return _coerce(matrix)
        # Row sets are mutated in place, so they are copied; the CSR
        # view is only ever replaced, so the copy shares it.
        rowset = matrix._rowset
        return SparseMatrix._wrap(
            _ROWSETS.clone(rowset) if rowset is not None else None,
            matrix._csr,
        )

    def padded(self, matrix: BooleanMatrix, size: int) -> SparseMatrix:
        """Row sets are copied under the wider shape; a CSR gets its
        ``indptr`` extended by the empty rows, with copies of its index
        arrays."""
        if not isinstance(matrix, SparseMatrix):
            return super().padded(matrix, size)
        rowset = matrix._rowset
        if rowset is not None:
            copy = _ROWSETS.clone(rowset)
            return SparseMatrix._wrap(
                RowSetMatrix._wrap((size, size), copy._rows, copy._nnz))
        csr = matrix._csr
        indptr = np.full(size + 1, csr.indptr[-1], dtype=csr.indptr.dtype)
        indptr[:len(csr.indptr)] = csr.indptr
        return SparseMatrix._wrap(None, sp.csr_matrix(
            (csr.data.copy(), csr.indices.copy(), indptr),
            shape=(size, size)))

    def gather_rows(self, matrix: BooleanMatrix, rows) -> SparseMatrix:
        matrix = _coerce(matrix)
        if matrix._rowset is not None:
            return SparseMatrix._wrap(
                _ROWSETS.gather_rows(matrix._rowset, rows)
            )
        csr = matrix._csr
        index = np.asarray(list(rows), dtype=np.intp)
        if index.size and (index.min() < 0
                           or index.max() >= csr.shape[0]):
            raise IndexError(
                f"row index out of range for shape {matrix.shape}"
            )
        # CSR row slicing copies the selected rows' data arrays.
        return SparseMatrix(csr[index])

    def mask_rows(self, matrix: BooleanMatrix, keep) -> SparseMatrix:
        matrix = _coerce(matrix)
        if matrix._rowset is not None:
            return SparseMatrix._wrap(
                _ROWSETS.mask_rows(matrix._rowset, keep)
            )
        csr = matrix._csr
        index = np.asarray(sorted(set(keep)), dtype=np.intp)
        if index.size and (index.min() < 0
                           or index.max() >= csr.shape[0]):
            raise IndexError(
                f"row index out of range for shape {matrix.shape}"
            )
        selector = sp.csr_matrix(
            (np.ones(index.size, dtype=bool), (index, index)),
            shape=(csr.shape[0], csr.shape[0]),
        )
        return SparseMatrix(selector @ csr)

    def matrix_nbytes(self, matrix: BooleanMatrix) -> int:
        """The bytes of the views *matrix* holds: the row-set estimate
        for its row sets plus the buffer sizes of its CSR."""
        if not isinstance(matrix, SparseMatrix):
            return super().matrix_nbytes(matrix)
        total = 0
        if matrix._rowset is not None:
            total += _ROWSETS.matrix_nbytes(matrix._rowset)
        csr = matrix._csr
        if csr is not None:
            total += int(csr.data.nbytes + csr.indices.nbytes
                         + csr.indptr.nbytes)
        return total

    # -- tile payloads (process-pool scheduler) ---------------------------
    def tile_payload(self, matrix: BooleanMatrix) -> tuple:
        """CSR structure as raw index buffers (bool data is implicit),
        with sorted indices so equal contents give equal bytes."""
        csr = _sorted(_coerce(matrix).to_scipy())
        rows, cols = csr.shape
        return ("sparse", rows, cols,
                csr.indptr.astype(np.int64).tobytes(),
                csr.indices.astype(np.int64).tobytes())

    def tile_from_payload(self, payload: tuple) -> SparseMatrix:
        _kind, rows, cols, indptr_raw, indices_raw = payload
        indptr = np.frombuffer(indptr_raw, dtype=np.int64)
        indices = np.frombuffer(indices_raw, dtype=np.int64)
        data = np.ones(len(indices), dtype=bool)
        return SparseMatrix(
            sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
        )


BACKEND = register_backend(SparseBackend())
