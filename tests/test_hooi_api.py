"""Tests for the one-call front door: ``TuckerSession.run``."""

import numpy as np
import pytest

from repro import SimCluster, TuckerSession
from repro.core.planner import Planner
from repro.tensor.random import low_rank_tensor


def run_once(tensor, core_dims, *, cluster=None, **kw):
    """Sequential by default; on ``cluster``'s ranks when one is given."""
    if cluster is None:
        return TuckerSession().run(tensor, core_dims, **kw)
    session = TuckerSession(backend="simcluster", cluster=cluster)
    return session.run(tensor, core_dims, **kw)


@pytest.fixture
def tensor():
    return low_rank_tensor((14, 12, 10), (4, 3, 3), noise=0.08, seed=0)


class TestTucker:
    def test_sequential_default(self, tensor):
        res = run_once(tensor, (4, 3, 3), max_iters=4)
        assert res.error <= res.sthosvd_error + 1e-12
        assert res.decomposition.core_dims == (4, 3, 3)
        assert res.compression_ratio > 1
        assert res.plan.tree_kind in ("optimal", "balanced", "chain-k", "chain-h")

    def test_distributed_matches_sequential(self, tensor):
        cluster = SimCluster(4)
        # pin the planner so both paths share the exact plan
        planner = Planner(4, tree="optimal", grid="dynamic")
        seq = run_once(tensor, (4, 3, 3), n_procs=4, planner=planner, max_iters=3, tol=0.0)
        dist = run_once(
            tensor, (4, 3, 3), cluster=cluster, planner=planner, max_iters=3, tol=0.0
        )
        np.testing.assert_allclose(dist.errors, seq.errors, atol=1e-9)

    def test_skip_hooi_returns_sthosvd(self, tensor):
        res = run_once(tensor, (4, 3, 3), skip_hooi=True)
        assert res.errors == []
        assert res.error == res.sthosvd_error

    def test_named_planner(self, tensor):
        res = run_once(tensor, (4, 3, 3), planner="balanced", max_iters=2)
        assert res.plan.tree_kind == "balanced"
        assert res.plan.grid_kind == "dynamic"

    def test_planner_instance(self, tensor):
        res = run_once(
            tensor, (4, 3, 3), planner=Planner(2, tree="chain-k", grid="static"),
            max_iters=2,
        )
        assert res.plan.tree_kind == "chain-k"

    def test_core_dims_validated(self, tensor):
        with pytest.raises(ValueError):
            run_once(tensor, (40, 3, 3))

    def test_cluster_size_drives_planner(self, tensor):
        cluster = SimCluster(8)
        res = run_once(tensor, (4, 3, 3), cluster=cluster, max_iters=2)
        assert res.plan.n_procs == 8
