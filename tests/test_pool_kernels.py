"""The pool backends' block partition and their BLAS thread ownership.

The threaded and process-pool backends cut each kernel's ``(P, L, Q)``
view along ``P``, or along ``Q`` when ``P`` is shorter than the pool
(:func:`repro.backends.blockpar.pq_blocks`). These tests pin that
partition, the tiny-tensor edge where there are fewer elements than
workers, the out-of-core procpool fan-out (one task per worker run of
budget-bounded blocks, results bitwise equal to the per-block
reduction), and :mod:`repro.util.blas`: pool blocks run BLAS with one
thread, the process gets its prior count back once they finish, and
every result reports the count its kernels ran with.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailableError,
    SequentialBackend,
    ThreadedBackend,
    get_backend,
)
from repro.backends.blockpar import (
    axis_index,
    oc_block_slices,
    pq_blocks,
    reduce_partials,
    split_mode,
    worker_runs,
)
from repro.backends.sketch import (
    block_partials,
    single_pass_specs,
    sum_partials,
)
from repro.obs import Tracer
from repro.session import TuckerSession
from repro.storage import MmapStore
from repro.tensor.linalg import gram_pql, leading_eigvecs
from repro.tensor.random import low_rank_tensor
from repro.tensor.ttm import as_pql, ttm
from repro.util import blas

WORKERS = 4


def pool_backend(name, n_procs=WORKERS):
    try:
        return get_backend(name, n_procs=n_procs)
    except BackendUnavailableError as exc:  # pragma: no cover - host-specific
        pytest.skip(f"{name} unavailable here: {exc}")


def run_kernels(backend, t, mode, k):
    """TTM, leading factor and cross Gram of ``t`` along ``mode``."""
    try:
        handle = backend.distribute(t, (1,) * t.ndim)
        a = np.random.default_rng(5).standard_normal((k, t.shape[mode]))
        z = backend.ttm(handle, a, mode)
        return (
            np.array(backend.gather(z)),
            backend.leading_factor(handle, mode, 1),
            backend.cross_gram(handle, z, mode),
        )
    finally:
        backend.close()


class TestPartition:
    def test_p_split_when_p_covers_the_pool(self):
        blocks = pq_blocks((10, 3, 50), WORKERS)
        assert [b[0] for b in blocks] == [
            slice(0, 3), slice(3, 6), slice(6, 8), slice(8, 10)
        ]
        assert all(b[2] == slice(None) for b in blocks)

    def test_q_split_when_p_is_short(self):
        blocks = pq_blocks((2, 3, 50), WORKERS)
        assert len(blocks) == WORKERS
        assert all(b[0] == slice(None) for b in blocks)
        assert blocks[0][2] == slice(0, 13) and blocks[-1][2].stop == 50

    def test_l_is_never_cut_and_tiny_views_run_unsplit(self):
        assert pq_blocks((1, 100, 1), WORKERS) == [
            (slice(0, 1), slice(None), slice(None))
        ]
        # P short but Q shorter still: cut P
        assert len(pq_blocks((3, 5, 2), WORKERS)) == 3


@pytest.mark.parametrize("name", ["threaded", "procpool"])
class TestPoolKernels:
    @pytest.mark.parametrize(
        "dims, mode",
        [
            ((2, 9, 30), 1),  # P < workers: the Q split
            ((1, 7, 40), 1),  # P == 1: Q split of a single GEMM
            ((1, 3, 1), 1),  # fewer elements than workers
            ((1, 1, 2), 2),
        ],
    )
    def test_blocks_match_sequential(self, name, dims, mode):
        t = np.random.default_rng(1).standard_normal(dims)
        k = max(1, dims[mode] - 1)
        ref = run_kernels(SequentialBackend(), t, mode, k)
        got = run_kernels(pool_backend(name), t, mode, k)
        for r, g in zip(ref, got):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)


class TestWorkerRuns:
    def test_runs_are_contiguous_and_cover_every_block(self):
        slices = [slice(i, i + 1) for i in range(10)]
        runs = worker_runs(slices, 3)
        assert [len(run) for run in runs] == [4, 3, 3]
        assert [sl for run in runs for sl in run] == slices

    def test_fewer_blocks_than_workers_gives_one_block_per_run(self):
        slices = [slice(0, 2), slice(2, 3)]
        assert worker_runs(slices, 4) == [[slice(0, 2)], [slice(2, 3)]]


@contextmanager
def one_blas_thread():
    """Run reference kernels with the BLAS count procpool workers use."""
    blas.pin()
    try:
        yield
    finally:
        blas.unpin()


class TestStoredFanOut:
    """Out-of-core procpool kernels: at most one task per worker.

    The store budget cuts the spilled tensor into many more blocks than
    workers; each kernel must still emit at most ``n_workers``
    ``worker:*`` spans, and its result must be bitwise equal to the
    in-process ascending reduction of per-block partials over the same
    blocks.
    """

    N = 3
    DIMS = (30, 26, 22)

    @pytest.fixture
    def oc(self, tmp_path):
        backend = pool_backend("procpool", n_procs=self.N)
        store = MmapStore(root=str(tmp_path), max_block_bytes=24 * 1024)
        tensor = np.random.default_rng(3).standard_normal(self.DIMS)
        handle = backend.distribute(tensor, (), store=store)
        backend.tracer = Tracer()
        try:
            yield backend, tensor, handle
        finally:
            backend.close()
            store.close()

    def blocks(self, backend, handle, avoid):
        split = split_mode(handle.shape, avoid=avoid)
        slices = backend._stored_slices(handle, split)
        assert len(slices) > self.N  # the premise: more blocks than tasks
        return [axis_index(len(handle.shape), split, sl) for sl in slices]

    def traced(self, backend, kernel, *args):
        """``kernel(*args)`` and the number of worker spans it emitted."""
        mark = backend.tracer.mark()
        value = kernel(*args)
        spans = backend.tracer.drain(mark).spans
        return value, sum(1 for s in spans if s.kind == "worker")

    def test_ttm_and_cross_gram(self, oc):
        backend, tensor, handle = oc
        a = np.random.default_rng(4).standard_normal((5, self.DIMS[0]))
        z, n_tasks = self.traced(backend, backend.ttm, handle, a, 0)
        assert n_tasks <= self.N
        index = self.blocks(backend, handle, avoid=0)
        z_ref = np.empty((5,) + self.DIMS[1:])
        with one_blas_thread():
            for ix in index:
                ttm(tensor[ix], a, 0, out=z_ref[ix])
        np.testing.assert_array_equal(backend.gather(z), z_ref)

        g, n_tasks = self.traced(backend, backend.cross_gram, handle, z, 0)
        assert n_tasks <= self.N
        with one_blas_thread():
            g_ref = reduce_partials([
                gram_pql(as_pql(tensor[ix], 0), as_pql(z_ref[ix], 0))
                for ix in index
            ])
        np.testing.assert_array_equal(g, g_ref)

    def test_leading_factor(self, oc):
        backend, tensor, handle = oc
        factor, n_tasks = self.traced(
            backend, backend.leading_factor, handle, 1, 4
        )
        assert n_tasks <= self.N
        with one_blas_thread():
            g = reduce_partials([
                gram_pql(as_pql(tensor[ix], 1))
                for ix in self.blocks(backend, handle, avoid=1)
            ])
        np.testing.assert_array_equal(
            factor, leading_eigvecs((g + g.T) * 0.5, 4)
        )

    def test_fro_norm_sq(self, oc):
        backend, tensor, handle = oc
        value, n_tasks = self.traced(backend, backend.fro_norm_sq, handle)
        assert n_tasks <= self.N
        slices = oc_block_slices(
            (tensor.size,), 0, tensor.itemsize,
            handle.store.per_block_bytes(self.N), self.N,
        )
        assert len(slices) > self.N
        flat = tensor.reshape(-1)
        with one_blas_thread():
            ref = float(sum(
                float(np.dot(flat[sl], flat[sl])) for sl in slices
            ))
        assert value == ref

    def test_sketch(self, oc):
        backend, tensor, handle = oc
        specs = single_pass_specs(
            np.random.default_rng(0), self.DIMS, (4, 4, 3), 2, np.float64
        )
        (sketches, norm_sq), n_tasks = self.traced(
            backend, backend.sketch, handle, specs
        )
        assert n_tasks <= self.N
        split = split_mode(self.DIMS, avoid=None)
        with one_blas_thread():
            ref, ref_norm = sum_partials(
                self.DIMS,
                specs,
                [
                    block_partials(
                        self.DIMS, specs, split, sl.start, sl.stop,
                        tensor[axis_index(3, split, sl)],
                    )
                    for sl in backend._stored_slices(handle, split)
                ],
                np.float64,
            )
        for got, want in zip(sketches, ref):
            np.testing.assert_array_equal(got, want)
        assert norm_sq == ref_norm


class TestBlasOwner:
    def test_threaded_pins_one_thread_only_while_blocks_fan_out(self):
        before = blas.get_num_threads()
        if before is None:
            pytest.skip("numpy's BLAS exports no thread-count symbol")
        blas.set_num_threads(2)
        try:
            backend = ThreadedBackend(n_workers=2)
            seen = backend._map_blocks(
                lambda _: blas.get_num_threads(), [0, 1, 2]
            )
            assert seen == [1, 1, 1]
            assert backend.blas_threads == 1
            # a lone block runs inline, with the process's count
            assert backend._map_blocks(
                lambda _: blas.get_num_threads(), [0]
            ) == [2]
            backend.close()
        finally:
            blas.set_num_threads(before)

    def test_open_threaded_session_leaves_the_process_count_alone(self):
        before = blas.get_num_threads()
        if before is None:
            pytest.skip("numpy's BLAS exports no thread-count symbol")
        blas.set_num_threads(2)
        t = low_rank_tensor((12, 10, 8), (3, 3, 2), noise=0.1, seed=0)
        threaded = TuckerSession(backend=ThreadedBackend(n_workers=2))
        sequential = TuckerSession(backend=SequentialBackend())
        try:
            threaded.run(t, (3, 3, 2), max_iters=1)
            assert threaded.backend._pool is not None  # still open
            assert blas.get_num_threads() == 2
            assert sequential.backend.blas_threads == 2
            sequential.run(t, (3, 3, 2), max_iters=1)
            assert blas.get_num_threads() == 2
        finally:
            threaded.close()
            sequential.close()
            blas.set_num_threads(before)

    def test_pins_nest_and_the_last_unpin_restores(self):
        before = blas.get_num_threads()
        if before is None:
            pytest.skip("numpy's BLAS exports no thread-count symbol")
        blas.set_num_threads(2)
        try:
            blas.pin()
            blas.pin()
            blas.unpin()
            assert blas.get_num_threads() == 1
            blas.unpin()
            assert blas.get_num_threads() == 2
            blas.unpin()  # unbalanced: ignored
            assert blas.get_num_threads() == 2
        finally:
            blas.set_num_threads(before)

    def test_single_worker_pool_leaves_blas_alone(self):
        before = blas.get_num_threads()
        backend = ThreadedBackend(n_workers=1)
        run_kernels(backend, np.ones((4, 5, 6)), 1, 2)
        assert blas.get_num_threads() == before

    def test_absent_symbol_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas, "_functions", lambda: None)
        assert blas.get_num_threads() is None
        blas.set_num_threads(1)
        blas.pin()
        blas.unpin()
        assert blas.pool_threads(4) is None
        backend = ThreadedBackend(n_workers=2)
        ref = run_kernels(SequentialBackend(), np.ones((4, 5, 6)), 1, 2)
        got = run_kernels(backend, np.ones((4, 5, 6)), 1, 2)
        for r, g in zip(ref, got):
            np.testing.assert_allclose(g, r, rtol=1e-12)

    def test_repeat_runs_bitwise_with_blas_pinned(self):
        t = low_rank_tensor((30, 24, 20), (5, 4, 4), noise=0.1, seed=3)
        session = TuckerSession(backend=ThreadedBackend(n_workers=2))
        try:
            a = session.run(t, (5, 4, 4), max_iters=3)
            b = session.run(t, (5, 4, 4), max_iters=3)
        finally:
            session.close()
        assert a.errors == b.errors
        np.testing.assert_array_equal(
            a.decomposition.core, b.decomposition.core
        )
        for fa, fb in zip(a.decomposition.factors, b.decomposition.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_auto_selection_reason_names_blas_threads(self):
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(backend="auto")
        try:
            res = session.run(t, (3, 3, 2), max_iters=1)
        finally:
            session.close()
        assert f"BLAS threads {session.backend.blas_threads}" in (
            res.selection_reason
        )
        assert res.blas_threads == session.backend.blas_threads

    @pytest.mark.parametrize("name", ["sequential", "threaded", "procpool"])
    def test_every_result_reports_blas_threads(self, name):
        t = low_rank_tensor((12, 10, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(backend=pool_backend(name, n_procs=2))
        try:
            res = session.run(t, (3, 3, 2), max_iters=1)
        finally:
            session.close()
        assert not res.auto_selected
        assert res.blas_threads == session.backend.blas_threads
        if blas.get_num_threads() is not None:
            expected = blas.get_num_threads() if name == "sequential" else 1
            assert res.blas_threads == expected
