"""Tests for sequential TTM and TTM-chains."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tensor.ttm import ttm, ttm_chain
from repro.tensor.unfold import unfold


class TestTTM:
    def test_matches_unfold_definition(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 5, 6))
        a = rng.standard_normal((3, 5))
        z = ttm(t, a, 1)
        assert z.shape == (4, 3, 6)
        np.testing.assert_allclose(unfold(z, 1), a @ unfold(t, 1), rtol=1e-12)

    def test_identity_matrix_is_noop(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 2))
        np.testing.assert_allclose(ttm(t, np.eye(4), 1), t)

    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError, match="columns"):
            ttm(np.zeros((3, 4)), np.zeros((2, 5)), 1)
        with pytest.raises(ValueError, match="2-D"):
            ttm(np.zeros((3, 4)), np.zeros(4), 1)

    def test_output_contiguous(self):
        z = ttm(np.zeros((3, 4, 5)), np.zeros((2, 4)), 1)
        assert z.flags["C_CONTIGUOUS"]

    def test_matches_einsum_3d(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            ttm(t, a, 1), np.einsum("ijk,rj->irk", t, a), rtol=1e-12
        )

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=99),
    )
    def test_mode_length_replaced(self, mode, k, seed):
        dims = (4, 3, 5, 2)
        t = np.random.default_rng(seed).standard_normal(dims)
        a = np.random.default_rng(seed + 1).standard_normal((k, dims[mode]))
        z = ttm(t, a, mode)
        expected = list(dims)
        expected[mode] = k
        assert z.shape == tuple(expected)


class TestTTMChain:
    def test_commutativity(self):
        # the property HOOI's tree rearrangements rely on (section 2.1)
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 5, 6))
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((3, 6))
        z1 = ttm(ttm(t, a, 0), b, 2)
        z2 = ttm(ttm(t, b, 2), a, 0)
        np.testing.assert_allclose(z1, z2, rtol=1e-12)

    @given(st.permutations([0, 1, 2, 3]), st.integers(min_value=0, max_value=49))
    def test_chain_order_invariance(self, order, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((3, 4, 2, 5))
        mats = {m: rng.standard_normal((2, t.shape[m])) for m in range(4)}
        natural = ttm_chain(t, [mats[m] for m in range(4)], list(range(4)))
        shuffled = ttm_chain(t, [mats[m] for m in order], list(order))
        np.testing.assert_allclose(natural, shuffled, rtol=1e-10)

    def test_skip_mode(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 4, 5))
        mats = [rng.standard_normal((2, s)) for s in t.shape]
        z = ttm_chain(t, mats, skip=1)
        assert z.shape == (2, 4, 2)

    def test_transpose_flag(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((3, 4))
        f = rng.standard_normal((3, 2))  # L x K factor
        z = ttm_chain(t, [f], [0], transpose=True)
        np.testing.assert_allclose(z, f.T @ t, rtol=1e-12)

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ttm_chain(np.zeros((2, 2)), [np.eye(2), np.eye(2)], [0, 0])

    def test_none_matrix_without_skip_rejected(self):
        with pytest.raises(ValueError, match="None"):
            ttm_chain(np.zeros((2, 2)), [None, np.eye(2)], [0, 1])

    def test_matrix_count_mismatch(self):
        with pytest.raises(ValueError, match="one matrix per mode"):
            ttm_chain(np.zeros((2, 2)), [np.eye(2)], [0, 1])


# --------------------------------------------------------------------- #
# the matricization-free kernel against an einsum reference
# --------------------------------------------------------------------- #

LETTERS = "abcdefgh"


def einsum_ttm(t, a, mode):
    idx = LETTERS[: t.ndim]
    out = idx[:mode] + "z" + idx[mode + 1 :]
    return np.einsum(f"{idx},z{idx[mode]}->{out}", t, a)


def layout(t, how):
    """``t``'s values in a contiguous, transposed-view or strided array."""
    if how == "transposed":
        return np.ascontiguousarray(t.T).T
    if how == "strided":
        big = np.zeros(t.shape[:-1] + (2 * t.shape[-1],), dtype=t.dtype)
        big[..., ::2] = t
        return big[..., ::2]
    return t


def tol(dtype):
    return {"rtol": 1e-4, "atol": 1e-4} if dtype == np.float32 else {
        "rtol": 1e-10, "atol": 1e-12}


kernel_cases = st.tuples(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.sampled_from([np.float64, np.float32]),
    st.sampled_from(["contiguous", "transposed", "strided"]),
    st.integers(min_value=0, max_value=999),
)


class TestMatricizationFreeTTM:
    @given(kernel_cases)
    def test_matches_einsum_every_mode(self, case):
        dims, mode, k, dtype, how, seed = case
        mode %= len(dims)
        rng = np.random.default_rng(seed)
        t = layout(rng.standard_normal(dims).astype(dtype), how)
        a = rng.standard_normal((k, dims[mode])).astype(dtype)
        z = ttm(t, a, mode)
        assert z.dtype == dtype and z.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(z, einsum_ttm(t, a, mode), **tol(dtype))

    @given(kernel_cases, st.booleans())
    def test_out_into_slice_of_larger_buffer(self, case, along_mode):
        dims, mode, k, dtype, how, seed = case
        mode %= len(dims)
        rng = np.random.default_rng(seed)
        t = layout(rng.standard_normal(dims).astype(dtype), how)
        a = rng.standard_normal((k, dims[mode])).astype(dtype)
        out_shape = list(dims)
        out_shape[mode] = k
        # a slice along the kernel's own mode (never a (P, K, Q) view when
        # modes follow it) or along the leading mode (always one)
        axis = mode if along_mode else 0
        big_shape = list(out_shape)
        big_shape[axis] += 3
        big = np.full(big_shape, 7.0, dtype=dtype)
        index = [slice(None)] * len(dims)
        index[axis] = slice(1, 1 + out_shape[axis])
        out = big[tuple(index)]
        assert ttm(t, a, mode, out=out) is out
        np.testing.assert_allclose(out, einsum_ttm(t, a, mode), **tol(dtype))
        untouched = np.ones(big_shape, dtype=bool)
        untouched[tuple(index)] = False
        assert np.all(big[untouched] == 7.0)

    @pytest.mark.parametrize(
        "dims, mode",
        [
            ((7, 5, 6), 0),  # P == 1
            ((5, 6, 7), 2),  # Q == 1
            ((6, 1, 5), 1),  # length-1 mode
            ((1, 6, 1), 1),  # P == Q == 1
            ((9,), 0),  # 1-D
        ],
    )
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_degenerate_views(self, dims, mode, k):
        rng = np.random.default_rng(k)
        t = rng.standard_normal(dims)
        a = rng.standard_normal((k, dims[mode]))
        np.testing.assert_allclose(
            ttm(t, a, mode), einsum_ttm(t, a, mode), rtol=1e-12
        )

    def test_out_shape_checked(self):
        with pytest.raises(ValueError, match="out has shape"):
            ttm(np.zeros((3, 4)), np.zeros((2, 4)), 1, out=np.zeros((3, 3)))
