"""Out-of-core kernels shared by the in-process shared-memory backends.

When a run spills (handle = :class:`~repro.storage.StoredTensor` instead
of an ndarray), the sequential and threaded backends execute these
implementations: every kernel walks the tensor in store-budgeted blocks
(:func:`~repro.backends.blockpar.oc_block_slices`), touches one block at a
time under a :class:`~repro.storage.ResidentGauge` lease, runs the same
matricization-free TTM/Gram kernels as the in-memory paths on it, and
writes TTM outputs straight into a freshly allocated store block — so the
full tensor is never resident, only ``O(block)`` bytes per in-flight
worker. Output blocks are scratch files and are never flushed (``msync``):
later kernels read them back through the same page cache, and the
blocks of a crashed run are only reclaimed, never read.

The two backends differ only in how blocks are mapped over workers, so
each kernel takes a ``map_fn``: the backend's block mapper (in line for
the sequential backend, over the thread pool for the threaded one). Both
preserve ascending block order in reductions, the same fixed-order
discipline the rest of the codebase uses, so out-of-core runs remain
deterministic and agree with the in-memory reference to the conformance
harness's 1e-10.

The process-pool backend does not use these (its workers map the spill
files directly, one contiguous run of blocks per worker task — see
:mod:`repro.backends.procpool`), but shares the block geometry, so all
three cut identical blocks for a given store.
"""

from __future__ import annotations

import numpy as np

from repro.backends.blockpar import (
    OC_LEASE_FACTOR,
    axis_index,
    oc_block_slices,
    reduce_partials,
    split_mode,
)
from repro.backends.sketch import block_partials, sum_partials
from repro.storage import BlockStore, StoredTensor
from repro.tensor.linalg import gram_pql
from repro.tensor.ttm import as_pql, ttm, ttm_shape


def serial_map(func, items) -> list:
    """The sequential backend's one-block-at-a-time map."""
    return [func(item) for item in items]


def oc_distribute(tensor: np.ndarray, store: BlockStore) -> StoredTensor:
    """Place a tensor into the store without materializing it.

    An already memory-mapped C-contiguous input (a lazily opened ``.npy``)
    is wrapped in place — zero copy, zero spill bytes; anything else is
    written through in store-chunked slabs.
    """
    if (
        isinstance(tensor, np.memmap)
        and tensor.filename is not None
        and tensor.flags["C_CONTIGUOUS"]
    ):
        try:
            return StoredTensor.external(store, tensor)
        except ValueError:
            pass  # unlocatable backing region: spill a copy instead
    return StoredTensor.spill(store, np.asarray(tensor))


def _slab_bytes(handle: StoredTensor, split: int) -> int:
    """Bytes of one unit of the split axis."""
    return max(1, handle.nbytes // max(1, handle.shape[split]))


def oc_ttm(
    handle: StoredTensor,
    matrix: np.ndarray,
    mode: int,
    n_workers: int,
    map_fn,
) -> StoredTensor:
    """``Z = X x_mode matrix`` block by block, output spilled to the store."""
    store = handle.store
    matrix = np.asarray(matrix)
    out = StoredTensor.allocate(
        store,
        ttm_shape(handle.shape, mode, matrix.shape[0]),
        np.result_type(handle.dtype, matrix.dtype),
    )
    src = handle.open()
    dst = out.writer()
    try:
        split = split_mode(handle.shape, avoid=mode)
        if split is None:
            with store.gauge.lease(OC_LEASE_FACTOR * handle.nbytes):
                ttm(src, matrix, mode, out=dst)
        else:
            slab = _slab_bytes(handle, split)
            slices = oc_block_slices(
                handle.shape,
                split,
                handle.dtype.itemsize,
                store.per_block_bytes(n_workers),
                n_workers,
            )

            def work(sl: slice) -> None:
                index = axis_index(handle.ndim, split, sl)
                with store.gauge.lease(
                    OC_LEASE_FACTOR * (sl.stop - sl.start) * slab
                ):
                    ttm(src[index], matrix, mode, out=dst[index])

            map_fn(work, slices)
        # No msync: the output is a scratch spill block that later
        # kernels read through this host's page cache, and a crashed
        # run's blocks are only ever reclaimed, never read back.
    finally:
        del dst, src
    return out


def oc_gram(
    handle: StoredTensor,
    mode: int,
    n_workers: int,
    map_fn,
    out: np.ndarray | None = None,
    other: StoredTensor | None = None,
) -> np.ndarray:
    """The mode-``mode`` Gram matrix ``U U^T``, accumulated block-wise.

    With ``other`` it is the cross Gram ``unfold(X) @ unfold(other).T``:
    both tensors are cut along the same (non-``mode``) axis, so each
    block pair covers identical unfolding columns. Partials are summed in
    ascending block order (:func:`~repro.backends.blockpar
    .reduce_partials`), so the result is deterministic and matches the
    threaded backend's reduction discipline.
    """
    store = handle.store
    handles = [handle] if other is None else [handle, other]
    srcs = [h.open() for h in handles]

    def gram(index) -> np.ndarray:
        return gram_pql(*(as_pql(src[index], mode) for src in srcs))

    try:
        split = split_mode(handle.shape, avoid=mode)
        if split is None:
            nbytes = sum(h.nbytes for h in handles)
            with store.gauge.lease(OC_LEASE_FACTOR * nbytes):
                return gram(...)
        slab = sum(_slab_bytes(h, split) for h in handles)
        slices = oc_block_slices(
            handle.shape,
            split,
            handle.dtype.itemsize,
            store.per_block_bytes(n_workers),
            n_workers,
        )

        def partial(sl: slice) -> np.ndarray:
            with store.gauge.lease(
                OC_LEASE_FACTOR * (sl.stop - sl.start) * slab
            ):
                return gram(axis_index(handle.ndim, split, sl))

        return reduce_partials(map_fn(partial, slices), out)
    finally:
        del srcs


def oc_norm_sq(handle: StoredTensor, n_workers: int, map_fn) -> float:
    """Squared Frobenius norm over budget-bounded flat chunks."""
    store = handle.store
    src = handle.open()
    try:
        flat = src.reshape(-1)
        slices = oc_block_slices(
            (handle.size,),
            0,
            handle.dtype.itemsize,
            store.per_block_bytes(n_workers),
            n_workers,
        )
        if len(slices) <= 1:
            with store.gauge.lease(OC_LEASE_FACTOR * handle.nbytes):
                piece = np.ascontiguousarray(flat)
                return float(np.dot(piece, piece))

        def partial(sl: slice) -> float:
            with store.gauge.lease(
                OC_LEASE_FACTOR
                * (sl.stop - sl.start)
                * handle.dtype.itemsize
            ):
                piece = np.ascontiguousarray(flat[sl])
                return float(np.dot(piece, piece))

        # Ascending chunk order: deterministic, same discipline as the
        # in-memory threaded reduction.
        return float(sum(map_fn(partial, slices)))
    finally:
        del src


def oc_sketch(
    handle: StoredTensor,
    specs,
    n_workers: int,
    map_fn,
) -> tuple[list[np.ndarray], float]:
    """All sketches plus the squared norm in **one read pass** over blocks.

    This is the out-of-core payoff of sketching: every spec's
    contribution and the norm partial are computed from a block while it
    is resident under its lease, so a spilled input is read exactly once
    no matter how many sketches are requested. Partials are summed in
    ascending block order, the usual determinism discipline.
    """
    store = handle.store
    dims = tuple(handle.shape)
    src = handle.open()
    try:
        split = split_mode(dims, avoid=None)
        if split is None:
            with store.gauge.lease(OC_LEASE_FACTOR * handle.nbytes):
                results = [block_partials(dims, specs, -1, 0, 0, src)]
        else:
            slab = _slab_bytes(handle, split)
            slices = oc_block_slices(
                dims,
                split,
                handle.dtype.itemsize,
                store.per_block_bytes(n_workers),
                n_workers,
            )

            def partial(sl: slice):
                with store.gauge.lease(
                    OC_LEASE_FACTOR * (sl.stop - sl.start) * slab
                ):
                    return block_partials(
                        dims, specs, split, sl.start, sl.stop,
                        src[axis_index(handle.ndim, split, sl)],
                    )

            results = map_fn(partial, slices)
        return sum_partials(dims, specs, results, handle.dtype)
    finally:
        del src


__all__ = [
    "oc_distribute",
    "oc_gram",
    "oc_norm_sq",
    "oc_sketch",
    "serial_map",
]
