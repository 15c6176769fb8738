"""Universal tree-correctness property: *every* valid TTM-tree computes the
same HOOI step as the naive reference.

The commutativity of TTM-chains (section 2.1) is what licenses all of the
paper's tree rearrangements; this module checks it at the executable level
by enumerating (N=3) / sampling (N=4) complete tree spaces and running them.
"""

import numpy as np
import pytest

from repro.backends import SequentialBackend, compile_tree_steps, run_tree_steps
from repro.core.enumerate_trees import enumerate_trees
from repro.core.meta import TensorMeta
from repro.hooi.hooi import hooi_reference_step
from repro.hooi.sthosvd import sthosvd
from repro.tensor.random import low_rank_tensor


def execute_tree_sequential(t, factors, tree, meta):
    steps = compile_tree_steps(tree, meta)
    return run_tree_steps(SequentialBackend(), t, factors, steps)


@pytest.fixture(scope="module")
def problem3():
    dims, core = (9, 8, 7), (3, 3, 2)
    t = low_rank_tensor(dims, core, noise=0.2, seed=1)
    init = sthosvd(t, core)
    ref = hooi_reference_step(t, init.factors, core)
    return t, TensorMeta(dims=dims, core=core), init, ref


@pytest.fixture(scope="module")
def problem4():
    dims, core = (8, 7, 6, 5), (3, 2, 2, 2)
    t = low_rank_tensor(dims, core, noise=0.2, seed=2)
    init = sthosvd(t, core)
    ref = hooi_reference_step(t, init.factors, core)
    return t, TensorMeta(dims=dims, core=core), init, ref


class TestEveryTreeN3:
    def test_all_trees_agree_with_reference(self, problem3):
        t, meta, init, ref = problem3
        count = 0
        for tree in enumerate_trees(3):
            new = execute_tree_sequential(t, init.factors, tree, meta)
            for mode in range(3):
                np.testing.assert_allclose(
                    new[mode], ref.factors[mode], atol=1e-8
                )
            count += 1
        assert count > 5  # the space is non-trivial


class TestSampledTreesN4:
    def test_sampled_trees_agree_with_reference(self, problem4):
        t, meta, init, ref = problem4
        trees = list(enumerate_trees(4, limit=400))
        # deterministic spread over the enumeration
        for tree in trees[:: max(1, len(trees) // 25)]:
            new = execute_tree_sequential(t, init.factors, tree, meta)
            for mode in range(4):
                np.testing.assert_allclose(
                    new[mode], ref.factors[mode], atol=1e-7
                )

    def test_tree_costs_vary_but_results_do_not(self, problem4):
        from repro.core.cost import tree_cost

        _, meta, _, _ = problem4
        costs = {
            tree_cost(tree, meta) for tree in enumerate_trees(4, limit=200)
        }
        assert len(costs) > 5  # genuinely different schedules, same output
