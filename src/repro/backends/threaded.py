"""Shared-memory threaded backend — the first real-parallel path.

The sequential backend with a thread pool as its block mapper: handles
are plain ndarrays living in shared memory, each TTM and Gram kernel cuts
the ``(P, L, Q)`` view of its operand into up to ``n_workers`` blocks
(:func:`repro.backends.blockpar.pq_blocks`) and the pool runs them.
NumPy releases the GIL inside BLAS, so the per-block dgemms genuinely
overlap. While blocks fan out over the pool, BLAS itself is pinned to
one thread (:mod:`repro.util.blas`), so the pool's threads are the only
ones competing for cores. Determinism is preserved by construction:

* TTM blocks write disjoint slices of a preallocated output (no reduction
  across threads at all);
* Gram partials and norm partials are summed in ascending block order, the
  same fixed-order discipline the virtual cluster uses.

Regridding is the identity (one address space) and no communication volume
is ever recorded — the honest ledger of a shared-memory machine.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backends.blockpar import (
    axis_index,
    block_slices,
    check_worker_count,
    split_mode,
)
from repro.backends.sequential import SequentialBackend
from repro.backends.sketch import block_partials, sum_partials
from repro.util import blas


class ThreadedBackend(SequentialBackend):
    """Block-parallel execution over a thread pool.

    Parameters
    ----------
    n_workers:
        Pool size; defaults to ``min(8, cpu_count - 1)``. Also the
        processor count plans default to, so planning granularity matches
        execution granularity.
    """

    name = "threaded"

    def __init__(self, n_workers: int | None = None) -> None:
        super().__init__()
        self._pool: ThreadPoolExecutor | None = None  # before any raise
        self.n_workers = check_worker_count(n_workers, self.name)

    @property
    def default_procs(self) -> int:
        return self.n_workers

    # -- pool lifecycle --------------------------------------------------- #

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="repro-block"
            )
        return self._pool

    @property
    def blas_threads(self) -> int | None:
        return blas.pool_threads(self.n_workers)

    def close(self) -> None:
        """Shut the pool down; the backend stays usable (the pool comes
        back on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ThreadedBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # -- block mapping ---------------------------------------------------- #

    def _map_blocks(self, func, blocks) -> list:
        """Blocks over the pool, results in submission (ascending) order;
        a single block runs inline.

        BLAS is pinned to one thread for exactly the span of a fan-out,
        so the pool's threads are the only ones on the cores while it
        runs, and the rest of the process keeps its own count.
        """
        if len(blocks) == 1:
            return [func(blocks[0])]
        blas.pin()
        try:
            return list(self._executor().map(func, blocks))
        finally:
            blas.unpin()

    # -- kernels ---------------------------------------------------------- #

    def leading_factor(
        self,
        handle,
        mode: int,
        k: int,
        *,
        tag: str = "svd",
        method: str = "gram",
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if method != "gram":
            raise ValueError(
                f"ThreadedBackend only supports the Gram+EVD route, "
                f"got method={method!r}"
            )
        return super().leading_factor(
            handle, mode, k, tag=tag, method=method, out=out
        )

    def _sketch_memory(self, handle, specs):
        """In-memory blocked sketch: per-block partials, ascending sum."""
        dims = tuple(handle.shape)
        split = split_mode(dims, avoid=None)
        if split is None:
            results = [block_partials(dims, specs, -1, 0, 0, handle)]
        else:

            def partial(sl: slice):
                return block_partials(
                    dims, specs, split, sl.start, sl.stop,
                    handle[axis_index(handle.ndim, split, sl)],
                )

            results = self._map_blocks(
                partial, block_slices(dims[split], self.n_workers)
            )
        return sum_partials(dims, specs, results, handle.dtype)

    def _norm_memory(self, handle) -> float:
        """Blocked squared norm: per-block partials, ascending sum."""
        flat = handle.reshape(-1)

        def partial(sl: slice) -> float:
            piece = flat[sl]
            return float(np.dot(piece, piece))

        slices = block_slices(flat.shape[0], self.n_workers)
        return float(sum(self._map_blocks(partial, slices)))
