"""Single-process NumPy backend.

Handles are plain ndarrays; regridding is the identity. Every kernel
records its multiply-add count (and measured wall seconds) in the ledger so
sequential runs expose the same ``stats()`` surface as the virtual cluster
— with zero communication volume, as expected of one rank.

TTM and Gram run the matricization-free kernels over the kernel mode's
``(P, L, Q)`` view, cut into :attr:`SequentialBackend.n_workers` blocks
(:func:`~repro.backends.blockpar.pq_blocks`) and mapped by
:meth:`SequentialBackend._map_blocks`: one block, in line, here. The
threaded backend is this class with a thread pool as the mapper.

When a run spills (``distribute(..., store=...)``), handles become
:class:`~repro.storage.StoredTensor` block descriptions and every kernel
runs its out-of-core form (:mod:`repro.backends.ockernels`): one
budget-bounded block resident at a time, same ledger records, same
numerics to 1e-10.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.blockpar import gram_evd_flops, pq_blocks, reduce_partials
from repro.backends.ockernels import (
    oc_distribute,
    oc_gram,
    oc_norm_sq,
    oc_sketch,
    oc_ttm,
    serial_map,
)
from repro.backends.sketch import sketch_arrays, sketch_flops
from repro.storage import StoredTensor
from repro.tensor.linalg import (
    gram_pql,
    leading_eigvecs,
    leading_left_singular_vectors,
)
from repro.tensor.ttm import as_pql, ttm_pql, ttm_shape
from repro.tensor.unfold import unfold


class SequentialBackend(ExecutionBackend):
    """The numpy reference path (one rank, shared memory)."""

    name = "sequential"

    #: blocks each in-memory kernel is cut into
    n_workers = 1

    def _map_blocks(self, func, blocks) -> list:
        """Run ``func`` on every block; results in ascending block order."""
        return serial_map(func, blocks)

    # -- data placement -------------------------------------------------- #

    def distribute(self, tensor: np.ndarray, grid, *, store=None):
        if store is not None:
            return oc_distribute(tensor, store)
        return np.ascontiguousarray(tensor)

    def gather(self, handle) -> np.ndarray:
        if isinstance(handle, StoredTensor):
            return handle.open()
        return handle

    def shape(self, handle) -> tuple[int, ...]:
        return tuple(handle.shape)

    # -- kernels ---------------------------------------------------------- #

    def ttm(
        self, handle, matrix: np.ndarray, mode: int, *, tag="ttm"
    ) -> np.ndarray:
        start = perf_counter()
        if isinstance(handle, StoredTensor):
            out = oc_ttm(
                handle, matrix, mode, self.n_workers, self._map_blocks
            )
        else:
            out = np.empty(
                ttm_shape(handle.shape, mode, matrix.shape[0]),
                dtype=np.result_type(handle.dtype, matrix.dtype),
            )
            x3, out3 = as_pql(handle, mode), as_pql(out, mode)
            self._map_blocks(
                lambda ix: ttm_pql(x3[ix], matrix, out3[ix]),
                pq_blocks(x3.shape, self.n_workers),
            )
        self.ledger.add_compute(
            op="gemm",
            tag=tag,
            flops=float(matrix.shape[0] * handle.size),
            seconds=perf_counter() - start,
        )
        return out

    def _gram(self, handle, mode: int, other=None, out=None) -> np.ndarray:
        """Mode Gram (cross Gram with ``other``): block partials summed
        in ascending block order."""
        if isinstance(handle, StoredTensor):
            return oc_gram(
                handle, mode, self.n_workers, self._map_blocks, out, other
            )
        views = [as_pql(t, mode) for t in (handle, other) if t is not None]
        partials = self._map_blocks(
            lambda ix: gram_pql(*(v[ix] for v in views)),
            pq_blocks(views[0].shape, self.n_workers),
        )
        return reduce_partials(partials, out)

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
        start = perf_counter()
        if method == "gram":
            g = self._gram(handle, mode, out=out)
            factor = leading_eigvecs((g + g.T) * 0.5, k)
        elif isinstance(handle, StoredTensor):
            raise ValueError(
                f"out-of-core handles only support the Gram+EVD "
                f"route, got method={method!r}"
            )
        else:
            factor = leading_left_singular_vectors(
                unfold(handle, mode), k, method=method
            )
        self.ledger.add_compute(
            op="syrk",
            tag=tag,
            flops=float(gram_evd_flops(handle.shape[mode], handle.size)),
            seconds=perf_counter() - start,
        )
        return factor

    def sketch(self, handle, specs, *, tag="sketch"):
        start = perf_counter()
        if isinstance(handle, StoredTensor):
            sketches, norm_sq = oc_sketch(
                handle, specs, self.n_workers, self._map_blocks
            )
        else:
            sketches, norm_sq = self._sketch_memory(handle, specs)
        flops = sum(sketch_flops(handle.shape, spec) for spec in specs)
        self.ledger.add_compute(
            op="gemm",
            tag=tag,
            flops=float(flops) + float(handle.size),
            seconds=perf_counter() - start,
        )
        return sketches, norm_sq

    def _sketch_memory(self, handle, specs):
        """All sketches plus the squared norm of an in-memory handle."""
        return sketch_arrays(handle, specs)

    def cross_gram(self, handle, other, mode: int, *, tag="xgram"):
        start = perf_counter()
        g = self._gram(handle, mode, other)
        self.ledger.add_compute(
            op="gemm",
            tag=tag,
            flops=float(other.shape[mode]) * float(handle.size),
            seconds=perf_counter() - start,
        )
        return g

    def regrid(self, handle, grid, *, tag="regrid"):
        return handle

    def fro_norm_sq(self, handle, *, tag="norm") -> float:
        if isinstance(handle, StoredTensor):
            return oc_norm_sq(handle, self.n_workers, self._map_blocks)
        return self._norm_memory(handle)

    def _norm_memory(self, handle) -> float:
        """Squared Frobenius norm of an in-memory handle."""
        # sqrt-then-square matches the historical fro_norm()**2 path bit for
        # bit — it matters at the norm-identity cancellation floor.
        return float(np.linalg.norm(handle.ravel())) ** 2
