"""End-to-end integration tests crossing every module boundary.

These are the repo's "does the whole system behave like the paper's" tests:
plan -> distribute -> HOOI -> error drops; engine statistics match planner
predictions; the public API of ``repro`` stays importable and coherent.
"""

import numpy as np
import pytest

import repro
from repro import (
    MachineModel,
    Planner,
    SimCluster,
    TensorMeta,
    TuckerSession,
    low_rank_tensor,
    predict,
    separable_field_tensor,
    sthosvd,
)
from repro.bench import ALGORITHMS, make_planner
from repro.hooi.hooi import hooi_reference_step


def cluster_hooi(cluster, t, init, **kw):
    return TuckerSession(backend="simcluster", cluster=cluster).hooi(
        t, init, **kw
    )


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestFullPipeline:
    def test_compress_smooth_field(self):
        # the paper's motivating use case: compress a smooth simulation field
        t = separable_field_tensor((24, 20, 18), n_bumps=5, noise=1e-4, seed=0)
        meta = TensorMeta(dims=t.shape, core=(6, 6, 6))
        init = sthosvd(t, meta.core)
        cluster = SimCluster(8)
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        res = cluster_hooi(cluster, t, init, plan=plan, max_iters=5)
        assert res.error < 0.01
        assert res.decomposition.compression_ratio > 10

    def test_hooi_improves_on_bad_init(self):
        # random orthonormal init: HOOI must improve it a lot
        from repro.tensor.random import random_orthonormal

        dims, core = (14, 12, 10), (4, 3, 3)
        t = low_rank_tensor(dims, core, noise=0.05, seed=1)
        factors = [
            random_orthonormal(ell, k, seed=i)
            for i, (ell, k) in enumerate(zip(dims, core))
        ]
        from repro.hooi.decomposition import TuckerDecomposition
        from repro.tensor.ttm import ttm_chain

        core0 = ttm_chain(t, factors, [0, 1, 2], transpose=True)
        init = TuckerDecomposition(core=core0, factors=factors)
        cluster = SimCluster(4)
        res = cluster_hooi(cluster, t, init, max_iters=10)
        assert res.error < 0.5 * init.error_vs(t)

    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_every_algorithm_executes_and_agrees(self, alg):
        # all five algorithm configs must produce the same new factors
        dims, core = (10, 9, 8, 7), (3, 3, 2, 2)
        t = low_rank_tensor(dims, core, noise=0.1, seed=2)
        meta = TensorMeta(dims=dims, core=core)
        init = sthosvd(t, core)
        ref = hooi_reference_step(t, init.factors, core)
        plan = make_planner(alg, 8).plan(meta)
        dec = cluster_hooi(
            SimCluster(8), t, init, plan=plan, max_iters=1
        ).decomposition
        for a, b in zip(dec.factors, ref.factors):
            np.testing.assert_allclose(a, b, atol=1e-7)
        np.testing.assert_allclose(dec.core, ref.core, atol=1e-7)


class TestPlannerEnginePredictions:
    def test_predicted_volume_is_engine_upper_bound(self):
        dims, core = (12, 12, 9, 8), (4, 6, 3, 4)
        meta = TensorMeta(dims=dims, core=core)
        t = low_rank_tensor(dims, core, noise=0.2, seed=3)
        init = sthosvd(t, core)
        for alg in sorted(ALGORITHMS):
            plan = make_planner(alg, 8).plan(meta)
            ledger = cluster_hooi(
                SimCluster(8), t, init, plan=plan, max_iters=1
            ).ledger
            rep = predict(plan)
            engine_total = ledger.volume(tag_prefix="hooi:it0")
            model_total = (
                rep.ttm.volume + rep.regrid.volume + rep.svd.volume + rep.core.volume
            )
            assert engine_total <= model_total
            # and the reduce-scatter part is exact
            assert (
                ledger.volume(op="reduce_scatter", tag_prefix="hooi:it0:ttm")
                == plan.ttm_volume
            )

    def test_iterations_have_identical_metrics(self):
        # "any two HOOI iterations incur the same load and volume" (sec 6.2)
        dims, core = (10, 10, 8), (3, 4, 2)
        meta = TensorMeta(dims=dims, core=core)
        t = low_rank_tensor(dims, core, noise=0.3, seed=4)
        init = sthosvd(t, core)
        plan = Planner(4, tree="optimal", grid="dynamic").plan(meta)
        cluster = SimCluster(4)
        cluster_hooi(cluster, t, init, plan=plan, max_iters=3, tol=0.0)
        vols = [
            cluster.stats.volume(tag_prefix=f"hooi:it{i}") for i in range(3)
        ]
        assert vols[0] == vols[1] == vols[2] > 0


class TestMachineModelEffects:
    def test_alltoall_advantage_prefers_dynamic_in_time(self):
        meta = TensorMeta(
            dims=(50, 20, 100, 20, 50), core=(10, 16, 20, 2, 25)
        )
        static = make_planner("opt-static", 32).plan(meta)
        dynamic = make_planner("opt-dynamic", 32).plan(meta)
        machine = MachineModel.bgq_like()
        t_static = predict(static, machine).tree_comm_seconds
        t_dynamic = predict(dynamic, machine).tree_comm_seconds
        assert t_dynamic <= t_static
