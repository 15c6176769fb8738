"""Process-pool backend: true multi-core block parallelism.

The first backend that leaves the GIL behind entirely. Handles are
:class:`ShmTensor` instances — tensors living in named
``multiprocessing.shared_memory`` segments — and every kernel partitions
its work over the exact block geometry the threaded backend uses
(:mod:`repro.backends.blockpar`), fanning block tasks out to a pool of
worker *processes*. Workers attach to the segments by name, so no tensor
ever crosses a pipe: a task message carries a segment name, a shape, a
dtype and a slice — plus the (small) factor matrix for TTM steps.

Block geometry: every in-memory TTM and Gram task is one block of the
kernel mode's ``(P, L, Q)`` view (:func:`~repro.backends.blockpar
.pq_blocks`), handed to the same matricization-free kernels
(:func:`~repro.tensor.ttm.ttm_pql`, :func:`~repro.tensor.linalg
.gram_pql`) every backend runs. Each worker pins its BLAS to one thread
in the pool initializer — the pool's processes already fill the cores.

Determinism is preserved exactly as in the threaded backend:

* TTM blocks write disjoint slices of a preallocated output segment (no
  cross-process reduction at all);
* Gram partials and norm partials come back to the parent and are summed
  in ascending block order, the fixed-order discipline shared with the
  virtual cluster.

Because the block geometry and reduction order are *identical* to the
threaded backend's, both produce bit-identical results — and agree with
the sequential reference to the conformance harness's 1e-10.

The parent owns the only :class:`~repro.mpi.stats.StatsLedger`; workers
return bare partial results and the parent folds them into single
per-kernel records (wall-clock seconds, the same ops/tags/FLOP formulas
the other shared-memory backends use). Regridding is the identity and no
communication volume is recorded — one address space, honestly accounted.

Out-of-core runs swap the transport: when the handle is a
:class:`~repro.storage.StoredTensor` (a spill block or a lazily opened
``.npy``), workers ``np.memmap`` the underlying *files* directly — read-
only for inputs, read-write disjoint slices for outputs — instead of
copying the tensor through ``shared_memory``. Each kernel groups the
store's budget-bounded blocks into one contiguous run per worker
(:func:`~repro.backends.blockpar.worker_runs`): at most ``n_workers``
tasks, each mapping its files once and walking its run one block at a
time, so a tensor larger than RAM streams through the pool with one
block per worker resident. Partials are flattened in ascending block
order, so grouping never changes a result. Output blocks are never
``msync``-ed: they are scratch files that readers on the same host see
through the shared page cache, and a crashed run's files are only ever
reclaimed, never read back.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from time import perf_counter

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.blockpar import (
    OC_LEASE_FACTOR,
    axis_index,
    block_slices,
    check_worker_count,
    gram_evd_flops,
    oc_block_slices,
    pq_blocks,
    reduce_partials,
    split_mode,
    worker_runs,
)
from repro.backends.errors import BackendUnavailableError
from repro.backends.ockernels import (
    oc_distribute,
    oc_gram,
    oc_norm_sq,
    oc_sketch,
    oc_ttm,
    serial_map,
)
from repro.backends.sketch import block_partials, sketch_flops, sum_partials
from repro.storage import CorruptBlockError, StorageError, StoredTensor
from repro.tensor.linalg import gram_pql, leading_eigvecs
from repro.tensor.ttm import as_pql, pql_shape, ttm, ttm_pql, ttm_shape
from repro.util import blas

try:  # gated: some platforms build Python without shared memory
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - absent only on exotic builds
    shared_memory = None


def _pool_context():
    """Fork on Linux (cheap workers, stable even if the default shifts);
    everywhere else the platform default — forking is unsafe where CPython
    itself switched away from it (macOS system frameworks)."""
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# --------------------------------------------------------------------- #
# shared-memory handles
# --------------------------------------------------------------------- #


class ShmTensor:
    """A tensor in a named shared-memory segment (the procpool handle).

    The creating process owns the segment and unlinks it when the handle
    is garbage collected (or when :meth:`close` is called). Workers attach
    by :attr:`name` for the duration of one block task.
    """

    def __init__(self, shape: tuple[int, ...], dtype) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        nbytes = max(1, math.prod(self.shape) * self.dtype.itemsize)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self._array: np.ndarray | None = np.ndarray(
            self.shape, dtype=self.dtype, buffer=self._shm.buf
        )
        # The finalizer tracks the *view*, not the handle: an ndarray
        # built over a memoryview does not hold a buffer export on it
        # (numpy >= 2), so destroying the segment when the handle dies
        # would unmap memory under a still-referenced gather() view.
        # Tied to the view, the mapping lives exactly as long as anything
        # can read it — and no longer.
        self._finalizer = weakref.finalize(
            self._array, _destroy_segment, self._shm
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def array(self) -> np.ndarray:
        """The parent's live view of the segment."""
        if self._array is None:
            raise ValueError("ShmTensor is closed")
        return self._array

    def close(self) -> None:
        """Release the parent's view and unlink the segment."""
        self._array = None
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShmTensor(name={self.name!r}, shape={self.shape})"


def _destroy_segment(shm) -> None:
    """Finalizer: drop the mapping and the name (best effort)."""
    try:
        shm.close()
    except BufferError:  # a view outlived the handle; name still goes away
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


# --------------------------------------------------------------------- #
# worker-side task functions (module level: picklable under spawn)
# --------------------------------------------------------------------- #


def _attach(name: str):
    """Attach to a segment by name for the duration of one block task.

    Python < 3.13 registers *attached* segments with the resource tracker
    as if the worker owned them; pool workers inherit the parent's tracker,
    so the duplicate register is an idempotent set-add that the parent's
    ``unlink`` cleanly retires — no compensation needed.
    """
    return shared_memory.SharedMemory(name=name)


def _release(shm) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - view not yet collected
        pass


def _view(shm, shape, dtype) -> np.ndarray:
    return np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf)


def _run_timed(func, *args):
    """Run one worker task, shipping back a span fragment with the result.

    ``perf_counter`` is CLOCK_MONOTONIC on Linux — shared across
    processes — so the fragment's timestamps land directly on the
    parent's trace timeline (traced runs keep it as a span).
    """
    t0 = perf_counter()
    value = func(*args)
    return (os.getpid(), t0, perf_counter()), value


def _init_worker() -> None:
    """Pool initializer: the worker processes fill the cores, so BLAS
    must not add threads of its own."""
    blas.set_num_threads(1)


def _ttm_block(
    in_name, in_shape, in_dtype, out_name, out_shape, out_dtype,
    matrix, mode, index,
) -> None:
    """One TTM block: block ``index`` of the ``(P, L, Q)`` view of ``in``
    into the same, disjoint block of ``out``."""
    src = _attach(in_name)
    dst = _attach(out_name)
    try:
        x3 = as_pql(_view(src, in_shape, in_dtype), mode)
        out3 = as_pql(_view(dst, out_shape, out_dtype), mode)
        ttm_pql(x3[index], matrix, out3[index])
        del x3, out3
    finally:
        _release(src)
        _release(dst)


def _gram_block(tensors, mode, index):
    """One Gram partial over block ``index`` of a ``(P, L, Q)`` view.

    ``tensors`` holds one ``(name, shape, dtype)`` segment, or two for a
    cross-Gram partial.
    """
    segs = [_attach(name) for name, _, _ in tensors]
    try:
        views = [
            as_pql(_view(seg, shape, dtype), mode)[index]
            for seg, (_, shape, dtype) in zip(segs, tensors)
        ]
        g = gram_pql(*views)
        del views
    finally:
        for seg in segs:
            _release(seg)
    return g


def _sketch_block(name, shape, dtype, specs, split, lo, hi):
    """One block's contributions to every sketch plus its norm partial."""
    shm = _attach(name)
    try:
        x = _view(shm, shape, dtype)
        result = block_partials(
            tuple(shape), specs, split, lo, hi,
            x[axis_index(len(shape), split, slice(lo, hi))],
        )
        del x
    finally:
        _release(shm)
    return result


def _norm_block(name, shape, dtype, lo, hi):
    """Partial squared norm of the flat range ``[lo, hi)``."""
    shm = _attach(name)
    try:
        flat = _view(shm, shape, dtype).reshape(-1)
        piece = flat[lo:hi]
        value = float(np.dot(piece, piece))
        del flat, piece
    finally:
        _release(shm)
    return value


# --------------------------------------------------------------------- #
# worker-side task functions over spill files (out-of-core handles)
#
# When the source tensor is mmap-backed (a StoredTensor: a spill block or
# a lazily opened .npy), workers map the *files* directly instead of
# copying the tensor through shared_memory segments — a task message is
# just paths + geometry + a run of blocks, and the only bytes that move
# are the pages each worker actually touches.
# --------------------------------------------------------------------- #


def _map_file(path, offset, shape, dtype, mode):
    return np.memmap(
        path, dtype=np.dtype(dtype), mode=mode,
        offset=int(offset), shape=tuple(shape),
    )


def _mappable(handle: StoredTensor):
    """``(path, offset)`` workers can map, or ``None`` for the serial path.

    Codec-encoded blocks decode into a raw scratch file here (parent
    side, chunked and gauge-leased) so the fan-out still ships nothing
    but paths + geometry; a corrupt block surfaces through the usual
    typed errors on the in-process fallback read instead.
    """
    try:
        return handle.mappable()
    except CorruptBlockError:
        raise
    except (OSError, StorageError):
        return None


def _ttm_block_file(
    in_path, in_offset, in_shape, in_dtype,
    out_path, out_shape, out_dtype,
    matrix, mode, split, run,
) -> None:
    """TTM blocks: map input ro + output r+, write disjoint slices."""
    src = _map_file(in_path, in_offset, in_shape, in_dtype, "r")
    dst = _map_file(out_path, 0, out_shape, out_dtype, "r+")
    try:
        for sl in run:
            index = axis_index(len(in_shape), split, sl)
            ttm(src[index], matrix, mode, out=dst[index])
        # No msync: the output is a scratch spill block that readers on
        # this host see through the page cache, and a crashed run's
        # blocks are only ever reclaimed, never read back.
    finally:
        del src, dst


def _gram_block_file(tensors, mode, split, run) -> list:
    """Gram partials, one per block, read straight off mapped files.

    ``tensors`` holds one ``(path, offset, shape, dtype)`` file, or two
    for cross-Gram partials.
    """
    srcs = [_map_file(*tensor, "r") for tensor in tensors]
    try:
        index = [axis_index(len(tensors[0][2]), split, sl) for sl in run]
        return [
            gram_pql(*(as_pql(src[ix], mode) for src in srcs)) for ix in index
        ]
    finally:
        del srcs


def _sketch_block_file(path, offset, shape, dtype, specs, split, run) -> list:
    """Sketch partials, one per block, read straight off the mapped file."""
    src = _map_file(path, offset, shape, dtype, "r")
    try:
        return [
            block_partials(
                tuple(shape), specs, split, sl.start, sl.stop,
                src[axis_index(len(shape), split, sl)],
            )
            for sl in run
        ]
    finally:
        del src


def _norm_block_file(path, offset, shape, dtype, run) -> list:
    """Partial squared norms of flat ranges, one per block, off the file."""
    src = _map_file(path, offset, shape, dtype, "r")
    try:
        flat = src.reshape(-1)
        pieces = (np.ascontiguousarray(flat[sl]) for sl in run)
        return [float(np.dot(piece, piece)) for piece in pieces]
    finally:
        del src


# --------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------- #


class ProcessPoolBackend(ExecutionBackend):
    """Block-parallel execution over a pool of worker processes.

    Parameters
    ----------
    n_workers:
        Pool size; defaults to ``min(8, cpu_count - 1)``. Also the
        processor count plans default to, so planning granularity matches
        execution granularity.
    """

    name = "procpool"

    def __init__(self, n_workers: int | None = None) -> None:
        super().__init__()
        self._pool: ProcessPoolExecutor | None = None  # before any raise
        if shared_memory is None:  # pragma: no cover - exotic builds only
            raise BackendUnavailableError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform",
                backend=self.name,
            )
        n_workers = check_worker_count(n_workers, self.name)
        try:  # probe: /dev/shm may be missing or unwritable in sandboxes
            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
        except OSError as exc:
            raise BackendUnavailableError(
                f"cannot allocate shared memory ({exc})",
                backend=self.name,
                config={"n_workers": n_workers},
            ) from exc
        self.n_workers = n_workers

    @property
    def default_procs(self) -> int:
        return self.n_workers

    # -- pool lifecycle --------------------------------------------------- #

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=_pool_context(),
                initializer=_init_worker,
            )
        return self._pool

    @property
    def blas_threads(self) -> int | None:
        return blas.pool_threads(self.n_workers)

    def close(self) -> None:
        """Shut the pool down; the backend stays usable (pool reopens)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # -- helpers ----------------------------------------------------------- #

    def _run_tasks(self, label: str, task, arg_lists, owned: tuple = ()):
        """Submit ``task(*args)`` per entry of ``arg_lists``; collect in order.

        A worker exception must not poison the backend: pending tasks are
        cancelled and drained first (so no worker is still writing when
        segments go away), then every handle in ``owned`` — output
        segments that will never reach the caller — is unlinked so
        ``/dev/shm`` stays clean. A pool whose workers died
        (:class:`BrokenProcessPool`, raised by a result or by a submit
        that lands after the death) is shut down and dropped; the next
        kernel transparently spins up a fresh one.

        Traced, each task's span fragment becomes a ``kind="worker"``
        span named ``worker:{label}`` parented on the currently open span
        (the enclosing kernel's phase); a failed fan-out records none.
        """
        futures = []
        try:
            pool = self._executor()
            for args in arg_lists:
                futures.append(pool.submit(_run_timed, task, *args))
            results = [f.result() for f in futures]
        except BaseException as exc:
            for f in futures:
                f.cancel()
            wait(futures)
            for handle in owned:
                handle.close()
            if isinstance(exc, BrokenProcessPool) and self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
            raise
        if self.tracer.enabled:
            for (pid, t0, t1), _ in results:
                self.tracer.add_span(
                    f"worker:{label}", t0, t1, kind="worker", pid=pid
                )
        return [value for _, value in results]

    def _store(self, array: np.ndarray) -> ShmTensor:
        handle = ShmTensor(array.shape, array.dtype)
        handle.array[...] = array
        return handle

    def _parallel(self) -> bool:
        return self.n_workers > 1

    # -- data placement -------------------------------------------------- #

    def distribute(self, tensor: np.ndarray, grid, *, store=None):
        if store is not None:
            # Out-of-core placement: a lazily mapped .npy is wrapped in
            # place (workers will map the file directly — no copy through
            # shared_memory at all); anything else spills write-through.
            return oc_distribute(tensor, store)
        return self._store(np.ascontiguousarray(tensor))

    def gather(self, handle) -> np.ndarray:
        if isinstance(handle, StoredTensor):
            return handle.open()
        # The live view, not a copy — the session copies cores it keeps,
        # and the segment finalizer is tied to this very view, so the
        # mapping stays valid for as long as the caller holds it.
        return handle.array

    def shape(self, handle) -> tuple[int, ...]:
        return handle.shape

    # -- out-of-core fan-out ---------------------------------------------- #

    def _stored_slices(
        self, handle: StoredTensor, split: int, shape=None
    ) -> list[slice]:
        """Budget-bounded blocks of ``handle`` (viewed as ``shape``)."""
        return oc_block_slices(
            shape or handle.shape,
            split,
            handle.dtype.itemsize,
            handle.store.per_block_bytes(self.n_workers),
            self.n_workers,
        )

    def _worker_lease(self, handle: StoredTensor, slices: list[slice]):
        """Parent-side lease modeling the workers' concurrent residency.

        Workers are separate processes, so their block copies cannot
        charge the in-process gauge directly; the parent charges the
        worst case — every pool worker holding one leased block at once —
        for the duration of the fan-out.
        """
        split_total = sum(sl.stop - sl.start for sl in slices)
        slab = max(1, handle.nbytes // max(1, split_total))
        biggest = max(sl.stop - sl.start for sl in slices)
        concurrency = min(len(slices), self.n_workers)
        return handle.store.gauge.lease(
            OC_LEASE_FACTOR * biggest * slab * concurrency
        )

    def _fan_out_stored(
        self, label, task, args, slices, handles, owned: tuple = ()
    ) -> list:
        """Run ``task(*args, run)`` once per worker run of ``slices``.

        One task per worker (:func:`~repro.backends.blockpar
        .worker_runs`), under the leases of every mapped handle. Tasks
        return one result per block (TTM tasks write in place and return
        ``None``); they come back flattened in ascending block order.
        """
        with ExitStack() as leases:
            for h in handles:
                leases.enter_context(self._worker_lease(h, slices))
            runs = worker_runs(slices, self.n_workers)
            tasks = [(*args, run) for run in runs]
            parts = self._run_tasks(label, task, tasks, owned)
        return [value for part in parts for value in (part or ())]

    # -- kernels ---------------------------------------------------------- #

    def _ttm_stored(
        self, handle: StoredTensor, matrix: np.ndarray, mode: int
    ) -> StoredTensor:
        """TTM over a spilled handle: workers map the files directly."""
        split = split_mode(handle.shape, avoid=mode)
        mapped = _mappable(handle) if self._parallel() else None
        if split is None or mapped is None:
            return oc_ttm(handle, matrix, mode, 1, serial_map)
        in_path, in_offset = mapped
        matrix = np.asarray(matrix)
        out_shape = ttm_shape(handle.shape, mode, matrix.shape[0])
        out_dtype = np.result_type(handle.dtype, matrix.dtype)
        out = StoredTensor.allocate(handle.store, out_shape, out_dtype)
        args = (
            in_path, in_offset, handle.shape, handle.dtype.str,
            out.path, out_shape, out_dtype.str, matrix, mode, split,
        )
        slices = self._stored_slices(handle, split)
        self._fan_out_stored(
            "ttm", _ttm_block_file, args, slices, (handle,), owned=(out,)
        )
        return out

    def _ttm_memory(self, handle: ShmTensor, matrix, mode: int) -> ShmTensor:
        """TTM over shared memory, one task per ``(P, L, Q)`` block."""
        out_shape = ttm_shape(handle.shape, mode, matrix.shape[0])
        out_dtype = np.result_type(handle.dtype, matrix.dtype)
        out = ShmTensor(out_shape, out_dtype)
        blocks = pq_blocks(pql_shape(handle.shape, mode), self.n_workers)
        if len(blocks) == 1:
            try:
                ttm(handle.array, matrix, mode, out=out.array)
            except BaseException:
                out.close()  # never reaches the caller
                raise
            return out
        head = (
            handle.name, handle.shape, handle.dtype.str,
            out.name, out_shape, out_dtype.str, matrix, mode,
        )
        tasks = [(*head, index) for index in blocks]
        self._run_tasks("ttm", _ttm_block, tasks, owned=(out,))
        return out

    def ttm(self, handle, matrix: np.ndarray, mode: int, *, tag="ttm"):
        start = perf_counter()
        if isinstance(handle, StoredTensor):
            out = self._ttm_stored(handle, matrix, mode)
        else:
            out = self._ttm_memory(handle, matrix, mode)
        self.ledger.add_compute(
            op="gemm",
            tag=tag,
            flops=float(matrix.shape[0] * handle.size),
            seconds=perf_counter() - start,
        )
        return out

    def _gram(self, handle, mode: int, other=None, out=None) -> np.ndarray:
        """Mode Gram (cross Gram with ``other``) over the pool, partials
        summed in fixed ascending block order (determinism)."""
        label = "gram" if other is None else "xgram"
        handles = [h for h in (handle, other) if h is not None]
        if isinstance(handle, StoredTensor):
            split = split_mode(handle.shape, avoid=mode)
            mapped = [
                _mappable(h) if self._parallel() else None for h in handles
            ]
            if split is None or None in mapped:
                return oc_gram(handle, mode, 1, serial_map, out, other)
            tensors = tuple(
                (path, offset, h.shape, h.dtype.str)
                for (path, offset), h in zip(mapped, handles)
            )
            slices = self._stored_slices(handle, split)
            partials = self._fan_out_stored(
                label, _gram_block_file, (tensors, mode, split), slices,
                handles,
            )
            return reduce_partials(partials, out)
        blocks = pq_blocks(pql_shape(handle.shape, mode), self.n_workers)
        if len(blocks) == 1:
            return gram_pql(*(as_pql(h.array, mode) for h in handles), out=out)
        tensors = tuple((h.name, h.shape, h.dtype.str) for h in handles)
        tasks = [(tensors, mode, index) for index in blocks]
        return reduce_partials(self._run_tasks(label, _gram_block, tasks), out)

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
                f"ProcessPoolBackend only supports the Gram+EVD route, "
                f"got method={method!r}"
            )
        start = perf_counter()
        g = self._gram(handle, mode, out=out)
        factor = leading_eigvecs((g + g.T) * 0.5, k)
        self.ledger.add_compute(
            op="syrk",
            tag=tag,
            flops=float(gram_evd_flops(handle.shape[mode], handle.size)),
            seconds=perf_counter() - start,
        )
        return factor

    def _sketch_stored(self, handle: StoredTensor, specs):
        split = split_mode(handle.shape, avoid=None)
        mapped = _mappable(handle) if self._parallel() else None
        if split is None or mapped is None:
            return oc_sketch(handle, specs, 1, serial_map)
        path, offset = mapped
        args = (path, offset, handle.shape, handle.dtype.str, specs, split)
        slices = self._stored_slices(handle, split)
        results = self._fan_out_stored(
            "sketch", _sketch_block_file, args, slices, (handle,)
        )
        return sum_partials(handle.shape, specs, results, handle.dtype)

    def sketch(self, handle, specs, *, tag="sketch"):
        start = perf_counter()
        specs = list(specs)
        if isinstance(handle, StoredTensor):
            sketches, norm_sq = self._sketch_stored(handle, specs)
        else:
            dims = tuple(handle.shape)
            split = split_mode(dims, avoid=None)
            if split is None or not self._parallel():
                results = [block_partials(dims, specs, -1, 0, 0, handle.array)]
            else:
                head = (handle.name, dims, handle.dtype.str, specs, split)
                tasks = [
                    (*head, sl.start, sl.stop)
                    for sl in block_slices(dims[split], self.n_workers)
                ]
                results = self._run_tasks("sketch", _sketch_block, tasks)
            sketches, norm_sq = sum_partials(
                dims, specs, results, handle.dtype
            )
        flops = sum(sketch_flops(handle.shape, spec) for spec in specs)
        self.ledger.add_compute(
            op="gemm",
            tag=tag,
            flops=float(flops) + float(handle.size),
            seconds=perf_counter() - start,
        )
        return sketches, norm_sq

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

    def _norm_stored(self, handle: StoredTensor) -> float:
        slices = self._stored_slices(handle, 0, (handle.size,))
        mapped = _mappable(handle) if self._parallel() else None
        if len(slices) <= 1 or mapped is None:
            return oc_norm_sq(handle, 1, serial_map)
        path, offset = mapped
        # flat slices cover handle.size, so _worker_lease's slab reduces
        # to the itemsize — one formula for every fan-out
        args = (path, offset, handle.shape, handle.dtype.str)
        partials = self._fan_out_stored(
            "norm", _norm_block_file, args, slices, (handle,)
        )
        # Ascending block order, same as every other backend.
        return float(sum(partials))

    def fro_norm_sq(self, handle, *, tag="norm") -> float:
        if isinstance(handle, StoredTensor):
            return self._norm_stored(handle)
        slices = block_slices(handle.size, self.n_workers)
        if len(slices) <= 1 or not self._parallel():
            flat = handle.array.reshape(-1)
            return float(np.dot(flat, flat))
        head = (handle.name, handle.shape, handle.dtype.str)
        tasks = [(*head, sl.start, sl.stop) for sl in slices]
        # Ascending block order, same as the threaded backend.
        return float(sum(self._run_tasks("norm", _norm_block, tasks)))
