"""Tests for plan execution (sequential and distributed tree walks)."""

import numpy as np
import pytest

from repro.backends import (
    SequentialBackend,
    SimClusterBackend,
    compile_core_steps,
    compile_tree_steps,
    run_core_steps,
    run_tree_steps,
)
from repro.core.meta import TensorMeta
from repro.core.ordering import optimal_chain_ordering
from repro.core.planner import Planner
from repro.dist.dtensor import DistTensor
from repro.hooi.hooi import hooi_reference_step
from repro.hooi.sthosvd import sthosvd
from repro.mpi.comm import SimCluster
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor, random_tensor


@pytest.fixture
def problem():
    dims, core = (12, 10, 8, 6), (4, 3, 3, 2)
    t = low_rank_tensor(dims, core, noise=0.1, seed=0)
    meta = TensorMeta(dims=dims, core=core)
    init = sthosvd(t, core)
    return t, meta, init


def execute_tree_sequential(t, factors, tree, meta):
    steps = compile_tree_steps(tree, meta)
    return run_tree_steps(SequentialBackend(), t, factors, steps)


class TestSequentialExecution:
    @pytest.mark.parametrize(
        "tree_kind", ["optimal", "chain-k", "chain-h", "balanced"]
    )
    def test_all_trees_match_naive_reference(self, problem, tree_kind):
        # any valid TTM-tree must produce the same new factors as the naive
        # N-independent-chains implementation (commutativity, section 2.1)
        t, meta, init = problem
        plan = Planner(4, tree=tree_kind, grid="static").plan(meta)
        new = execute_tree_sequential(t, init.factors, plan.tree, plan.meta)
        ref = hooi_reference_step(t, init.factors, meta.core)
        for mode in range(meta.ndim):
            np.testing.assert_allclose(
                new[mode], ref.factors[mode], atol=1e-8
            )

    def test_every_factor_produced(self, problem):
        t, meta, init = problem
        plan = Planner(4).plan(meta)
        new = execute_tree_sequential(t, init.factors, plan.tree, plan.meta)
        assert sorted(new) == list(range(meta.ndim))

    def test_factor_shape_validation(self, problem):
        t, meta, init = problem
        plan = Planner(4).plan(meta)
        bad = list(init.factors)
        bad[0] = bad[0][:, :-1]
        with pytest.raises(ValueError, match="factor 0"):
            TuckerSession().hooi(t, bad, plan=plan, max_iters=1)

    def test_core_matches_reference(self, problem):
        t, meta, init = problem
        ref = hooi_reference_step(t, init.factors, meta.core)
        steps = compile_core_steps(optimal_chain_ordering(meta))
        core = run_core_steps(SequentialBackend(), t, ref.factors, steps)
        np.testing.assert_allclose(core, ref.core, atol=1e-8)


class TestDistributedExecution:
    @pytest.mark.parametrize("grid_kind", ["static", "dynamic"])
    def test_matches_sequential(self, problem, grid_kind):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid=grid_kind).plan(meta)
        cluster = SimCluster(8)
        dt = DistTensor.from_global(cluster, t, plan.initial_grid)
        steps = compile_tree_steps(plan.tree, meta, scheme=plan.scheme)
        new = run_tree_steps(
            SimClusterBackend(cluster), dt, init.factors, steps
        )
        seq = execute_tree_sequential(t, init.factors, plan.tree, plan.meta)
        for mode in range(meta.ndim):
            np.testing.assert_allclose(new[mode], seq[mode], atol=1e-8)

    def test_wrong_shape_rejected(self, problem):
        _, meta, init = problem
        plan = Planner(8).plan(meta)
        session = TuckerSession(backend="simcluster", cluster=SimCluster(8))
        with pytest.raises(ValueError, match="plan dims"):
            session.hooi(
                random_tensor((12, 10, 8, 7), seed=1), init, plan=plan,
                max_iters=1,
            )

    def test_core_chain_with_scheme(self, problem):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        cluster = SimCluster(8)
        dt = DistTensor.from_global(cluster, t, plan.initial_grid)
        ref = hooi_reference_step(t, init.factors, meta.core)
        steps = compile_core_steps(plan.core_order, plan.core_scheme)
        core = run_core_steps(
            SimClusterBackend(cluster), dt, ref.factors, steps
        )
        np.testing.assert_allclose(core.to_global(), ref.core, atol=1e-8)

    def test_regrid_volumes_match_plan(self, problem):
        # executed regrid volume must never exceed the plan's model charge
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        session = TuckerSession(backend="simcluster", cluster=SimCluster(8))
        res = session.hooi(t, init, plan=plan, max_iters=1)
        engine_regrid = res.ledger.volume(
            op="alltoallv", tag_prefix="hooi:it0:regrid"
        )
        assert engine_regrid <= plan.regrid_volume

    def test_rs_volume_matches_plan_exactly(self, problem):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        session = TuckerSession(backend="simcluster", cluster=SimCluster(8))
        res = session.hooi(t, init, plan=plan, max_iters=1)
        engine_rs = res.ledger.volume(
            op="reduce_scatter", tag_prefix="hooi:it0:ttm"
        )
        assert engine_rs == plan.ttm_volume
