"""Fixtures for the matrix backend tests."""

from __future__ import annotations

import pytest

try:
    from repro.matrices import sparse as sparse_module
except ImportError:  # pragma: no cover - scipy missing
    sparse_module = None


@pytest.fixture(params=["csr", "default"], scope="module")
def sparse_form(request):
    """Run a test twice: with the sparse backend's row-set cutoff at 0
    (every sparse matrix is CSR) and at its default (small matrices and
    small products run on row sets).  Backends other than sparse are
    unaffected."""
    if request.param == "default" or sparse_module is None:
        yield request.param
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse_module, "_ROWSET_LIMIT", 0)
        yield request.param
