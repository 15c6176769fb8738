"""Gram-based SVD and deterministic sign conventions.

The paper's SVD step (section 5) computes the leading ``K_n`` left singular
vectors of the unfolding ``Z_(n)`` via the Gram matrix ``Z_(n) Z_(n)^T``
(dsyrk) followed by a sequential symmetric eigendecomposition (dsyevx) —
cheap because ``L_n <= 2000``. We mirror that exactly and add a direct
truncated-SVD backend for cross-checking.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

#: byte bound of one ``(L, slab)`` column slab the mode Gram copies
#: together from several ``p``. Against one uncopied slab per ``p`` it
#: ran 1.6-12x faster where ``Q`` is short (e.g. (3840, 56, 52) and
#: (1352, 11, 10)) and level elsewhere; 128 KiB and 2 MiB bounds were no
#: better (2-vCPU VM, OpenBLAS 0.3.31, one BLAS thread).
GRAM_SLAB_BYTES = 1 << 19


def _slabs(x3: np.ndarray, step: int):
    """``(L, columns)`` matrices whose column blocks tile a ``(P, L, Q)`` view.

    ``Q == 1`` yields one view. Otherwise ``step`` consecutive ``p`` make
    one slab: a single ``p`` is a view, a wider group is copied — the
    only temporary the Gram kernels make.
    """
    p_len, length, q_len = x3.shape
    if q_len == 1:
        yield x3[:, :, 0].T
        return
    for p in range(0, p_len, step):
        group = x3[p : p + step]
        if group.shape[0] == 1:
            yield group[0]
        else:
            yield group.transpose(1, 0, 2).reshape(length, -1)


def gram_pql(
    x3: np.ndarray,
    other3: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The mode Gram ``sum_p x3[p] @ x3[p].T`` of a ``(P, L, Q)`` view.

    That is ``U U^T`` for the mode unfolding ``U``, built without the
    unfolding: each slab adds ``s @ s.T``, which numpy runs as SYRK.
    With ``other3`` (``(P, M, Q)``) it is the cross Gram
    ``sum_p x3[p] @ other3[p].T`` instead. ``out``, when its shape and
    dtype fit, receives the result (a plan's preallocated workspace).
    """
    length = x3.shape[1]
    width = length if other3 is None else other3.shape[1]
    dtype = np.result_type(x3, other3) if other3 is not None else x3.dtype
    if out is None or out.shape != (length, width) or out.dtype != dtype:
        out = np.empty((length, width), dtype=dtype)
    # The slab width depends on the shape alone, so the summation order
    # is fixed; both operands of a cross Gram share it.
    step = max(1, GRAM_SLAB_BYTES // (length * x3.shape[2] * x3.itemsize))
    pairs = (
        ((s, s) for s in _slabs(x3, step))
        if other3 is None
        else zip(_slabs(x3, step), _slabs(other3, step))
    )
    for i, (a, b) in enumerate(pairs):
        if i == 0:
            np.matmul(a, b.T, out=out)
        else:
            out += a @ b.T
    return out


def gram(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix @ matrix.T`` symmetrized (syrk-style).

    Symmetrization guards against round-off asymmetry so ``eigh`` sees an
    exactly symmetric input.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    g = matrix @ matrix.T
    return (g + g.T) * 0.5


def deterministic_sign(vectors: np.ndarray) -> np.ndarray:
    """Fix each column's sign so its largest-magnitude entry is positive.

    Eigen/singular vectors are defined only up to sign; fixing it makes the
    sequential and distributed paths bit-comparable and test assertions
    simple. Ties (same magnitude) resolve to the first occurrence.
    """
    vectors = np.array(vectors, copy=True)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            vectors[:, j] = -col
    return vectors


def leading_eigvecs(symmetric: np.ndarray, k: int) -> np.ndarray:
    """Leading ``k`` eigenvectors of a symmetric PSD matrix, descending order.

    Columns carry the deterministic sign convention. Uses LAPACK ``syevr``
    through :func:`scipy.linalg.eigh` with an index subset, the analogue of
    the paper's dsyevx call.
    """
    symmetric = np.asarray(symmetric)
    if symmetric.ndim != 2 or symmetric.shape[0] != symmetric.shape[1]:
        raise ValueError(f"need a square matrix, got shape {symmetric.shape}")
    n = symmetric.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    _, vecs = scipy.linalg.eigh(symmetric, subset_by_index=[n - k, n - 1])
    # eigh returns ascending eigenvalues; flip to descending.
    return deterministic_sign(vecs[:, ::-1])


def leading_left_singular_vectors(
    matrix: np.ndarray, k: int, *, method: str = "gram"
) -> np.ndarray:
    """Leading ``k`` left singular vectors of ``matrix``.

    ``method="gram"`` is the paper's Gram+EVD route; ``method="svd"`` calls a
    thin LAPACK SVD directly (the paper's conclusion suggests a distributed
    SVD solver as future work — this is the sequential stand-in used for
    validation). Both return ``matrix.shape[0] x k`` with deterministic signs.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if method == "gram":
        return leading_eigvecs(gram(matrix), k)
    if method == "svd":
        if not 1 <= k <= matrix.shape[0]:
            raise ValueError(f"k must be in [1, {matrix.shape[0]}], got {k}")
        u, _, _ = scipy.linalg.svd(matrix, full_matrices=False)
        return deterministic_sign(u[:, :k])
    raise ValueError(f"unknown method {method!r}; expected 'gram' or 'svd'")
