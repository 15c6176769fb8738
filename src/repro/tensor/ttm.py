"""Sequential tensor-times-matrix products, matricization-free.

``Z = T x_n A`` applies the linear map ``A`` (shape ``K x L_n``) to every
mode-n fiber: ``Z_(n) = A @ T_(n)`` (paper section 2.1). The cost is
``K * |T|`` multiply-adds; the output has the same shape as ``T`` except
``L_n -> K``.

No unfolding is ever built. A C-ordered tensor *is* a ``(P, L_n, Q)``
array, where ``P`` is the product of the modes before ``n`` and ``Q`` the
product of the modes after it (:func:`as_pql` — a reshape that is a view
for contiguous inputs), and TTM is ``out[p] = A @ T[p]`` for every ``p``:
one stacked GEMM written straight into the caller's output, with no
moveaxis, no copying reshape and no final ``ascontiguousarray``. This is
a-Tucker's matricization-free TTM (Li, Xiao, Yang; see PAPERS.md);
:func:`ttm_pql` is the kernel every in-memory and out-of-core backend
calls on its blocks.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.util.validation import check_mode

def pql_shape(shape: Sequence[int], mode: int) -> tuple[int, int, int]:
    """``(P, L, Q)``: leading product, mode length, trailing product."""
    return (
        math.prod(shape[:mode]),
        int(shape[mode]),
        math.prod(shape[mode + 1 :]),
    )


def ttm_shape(shape: Sequence[int], mode: int, k: int) -> tuple[int, ...]:
    """Shape of ``T x_mode A`` for ``A`` with ``k`` rows."""
    return tuple(shape[:mode]) + (int(k),) + tuple(shape[mode + 1 :])


def as_pql(tensor: np.ndarray, mode: int) -> np.ndarray:
    """``tensor`` seen as a ``(P, L_mode, Q)`` array.

    A view whenever the strides allow it (always for C-contiguous input);
    otherwise numpy's reshape copies, which is the only case any kernel
    here moves input data.
    """
    return tensor.reshape(pql_shape(tensor.shape, mode))


def ttm_pql(x3: np.ndarray, matrix: np.ndarray, out3: np.ndarray) -> None:
    """``out3[p] = matrix @ x3[p]`` for every ``p``, written in place.

    ``x3`` is ``(P, L, Q)``, ``matrix`` is ``(K, L)`` and ``out3`` a
    ``(P, K, Q)`` array (any strides — a block of a larger output is
    fine). ``P == 1`` and ``Q == 1`` are single GEMMs; otherwise one
    stacked ``np.matmul`` runs every ``p``.
    """
    if x3.shape[0] == 1:
        np.matmul(matrix, x3[0], out=out3[0])
    elif x3.shape[2] == 1:
        np.matmul(matrix, x3[:, :, 0].T, out=out3[:, :, 0].T)
    else:
        np.matmul(matrix, x3, out=out3)


def ttm(
    tensor: np.ndarray,
    matrix: np.ndarray,
    mode: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Multiply ``tensor`` by ``matrix`` along ``mode``.

    Parameters
    ----------
    tensor: ndarray of shape ``(L_0, ..., L_{N-1})``.
    matrix: ndarray of shape ``(K, L_mode)``.
    mode: 0-based mode index.
    out: optional destination of the output shape, e.g. a slice of a
        larger buffer; written in place and returned.

    Returns
    -------
    ndarray with ``L_mode`` replaced by ``K`` (C-contiguous unless ``out``
    was given).
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    mode = check_mode(mode, tensor.ndim)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix columns ({matrix.shape[1]}) must equal tensor length "
            f"along mode {mode} ({tensor.shape[mode]})"
        )
    out_shape = ttm_shape(tensor.shape, mode, matrix.shape[0])
    if out is None:
        out = np.empty(out_shape, dtype=np.result_type(tensor, matrix))
    elif out.shape != out_shape:
        raise ValueError(f"out has shape {out.shape}, expected {out_shape}")
    p, _, q = pql_shape(out_shape, mode)
    out3 = out.view()
    try:
        out3.shape = (p, matrix.shape[0], q)  # raises instead of copying
    except AttributeError:
        # ``out`` is strided so that no (P, K, Q) view exists: compute
        # into a contiguous temporary and copy it over.
        out[...] = ttm(tensor, matrix, mode)
        return out
    ttm_pql(as_pql(tensor, mode), matrix, out3)
    return out


def ttm_chain(
    tensor: np.ndarray,
    matrices: Sequence[np.ndarray | None],
    modes: Sequence[int] | None = None,
    *,
    transpose: bool = False,
    skip: int | None = None,
) -> np.ndarray:
    """Multiply along several distinct modes (the TTM-chain of section 2.1).

    Parameters
    ----------
    tensor: input tensor.
    matrices: one matrix per entry of ``modes``; entries may be ``None`` to
        skip a mode when ``modes`` is ``None`` (the convenient HOOI calling
        convention: pass all N factor matrices and ``skip=n``).
    modes: modes to multiply along; default ``range(ndim)``.
    transpose: if True multiply by ``matrix.T`` (HOOI multiplies by the
        factor transposes ``F_j^T``).
    skip: optional mode to leave out (HOOI's "all modes except n").

    The chain is evaluated in the order given; commutativity (paper
    section 2.1) guarantees the result is order-independent, which the
    property tests verify.
    """
    tensor = np.asarray(tensor)
    if modes is None:
        modes = list(range(tensor.ndim))
    modes = [check_mode(m, tensor.ndim) for m in modes]
    if len(modes) != len(set(modes)):
        raise ValueError(f"modes must be distinct, got {modes}")
    if len(matrices) != len(modes):
        raise ValueError(
            f"need one matrix per mode: {len(matrices)} matrices, {len(modes)} modes"
        )
    out = tensor
    for matrix, mode in zip(matrices, modes):
        if mode == skip:
            continue
        if matrix is None:
            raise ValueError(f"matrix for mode {mode} is None and not skipped")
        out = ttm(out, matrix.T if transpose else matrix, mode)
    return out
