"""Tests for Gram-based SVD helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import linalg
from repro.tensor.linalg import (
    deterministic_sign,
    gram,
    gram_pql,
    leading_eigvecs,
    leading_left_singular_vectors,
)
from repro.tensor.ttm import as_pql, ttm


class TestGram:
    def test_value_and_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 20))
        g = gram(x)
        np.testing.assert_allclose(g, x @ x.T, rtol=1e-12)
        np.testing.assert_array_equal(g, g.T)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            gram(np.zeros(3))


class TestDeterministicSign:
    def test_flips_negative_dominant(self):
        v = np.array([[0.1, -0.9], [-0.9, 0.1]])
        out = deterministic_sign(v)
        np.testing.assert_allclose(out[:, 0], [-0.1, 0.9])
        np.testing.assert_allclose(out[:, 1], [0.9, -0.1])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((6, 3))
        once = deterministic_sign(v)
        np.testing.assert_array_equal(once, deterministic_sign(once))

    def test_does_not_mutate_input(self):
        v = np.array([[-1.0], [0.5]])
        _ = deterministic_sign(v)
        assert v[0, 0] == -1.0


class TestLeadingEigvecs:
    def test_recovers_known_eigenvectors(self):
        # diag matrix: leading eigvecs are unit vectors of largest entries
        d = np.diag([1.0, 5.0, 3.0, 2.0])
        v = leading_eigvecs(d, 2)
        np.testing.assert_allclose(np.abs(v[:, 0]), [0, 1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(v[:, 1]), [0, 0, 1, 0], atol=1e-12)

    def test_orthonormal(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 30))
        v = leading_eigvecs(gram(x), 4)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-10)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            leading_eigvecs(np.eye(3), 0)
        with pytest.raises(ValueError):
            leading_eigvecs(np.eye(3), 4)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            leading_eigvecs(np.zeros((3, 4)), 1)


class TestLeadingLeftSingularVectors:
    def test_gram_and_svd_methods_agree_on_subspace(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 40))
        k = 3
        u1 = leading_left_singular_vectors(x, k, method="gram")
        u2 = leading_left_singular_vectors(x, k, method="svd")
        # same subspace: projectors match (vectors may differ by sign only,
        # but deterministic_sign makes them equal up to tiny round-off)
        np.testing.assert_allclose(u1 @ u1.T, u2 @ u2.T, atol=1e-8)
        np.testing.assert_allclose(u1, u2, atol=1e-8)

    def test_maximizes_captured_energy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 50))
        u = leading_left_singular_vectors(x, 2)
        captured = np.linalg.norm(u.T @ x) ** 2
        # compare against 50 random orthonormal 2-frames
        for seed in range(50):
            q, _ = np.linalg.qr(
                np.random.default_rng(seed).standard_normal((6, 2))
            )
            assert captured >= np.linalg.norm(q.T @ x) ** 2 - 1e-8

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            leading_left_singular_vectors(np.eye(3), 1, method="magic")


# --------------------------------------------------------------------- #
# the matricization-free Gram kernels against an einsum reference
# --------------------------------------------------------------------- #

LETTERS = "abcdefgh"


def einsum_cross_gram(a, b, mode):
    ia = LETTERS[: a.ndim]
    ib = ia[:mode] + "z" + ia[mode + 1 :]
    return np.einsum(f"{ia},{ib}->{ia[mode]}z", a, b)


def layout(t, how):
    if how == "transposed":
        return np.ascontiguousarray(t.T).T
    if how == "strided":
        big = np.zeros(t.shape[:-1] + (2 * t.shape[-1],), dtype=t.dtype)
        big[..., ::2] = t
        return big[..., ::2]
    return t


def tol(dtype):
    return {"rtol": 1e-4, "atol": 1e-3} if dtype == np.float32 else {
        "rtol": 1e-10, "atol": 1e-11}


gram_cases = st.tuples(
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([np.float64, np.float32]),
    st.sampled_from(["contiguous", "transposed", "strided"]),
    st.integers(min_value=0, max_value=999),
)


class TestMatricizationFreeGram:
    @given(gram_cases, st.sampled_from([1 << 19, 64]))
    @settings(max_examples=60)
    def test_mode_gram_matches_einsum(self, case, slab_bytes):
        dims, mode, dtype, how, seed = case
        mode %= len(dims)
        t = layout(
            np.random.default_rng(seed).standard_normal(dims).astype(dtype),
            how,
        )
        # 64 bytes forces single-p slabs; the default groups several p
        old = linalg.GRAM_SLAB_BYTES
        linalg.GRAM_SLAB_BYTES = slab_bytes
        try:
            g = gram_pql(as_pql(t, mode))
        finally:
            linalg.GRAM_SLAB_BYTES = old
        assert g.dtype == dtype
        np.testing.assert_allclose(
            g, einsum_cross_gram(t, t, mode), **tol(dtype)
        )
        np.testing.assert_array_equal(g, g.T)

    @given(gram_cases, st.integers(min_value=1, max_value=6))
    def test_cross_gram_matches_einsum(self, case, k):
        dims, mode, dtype, how, seed = case
        mode %= len(dims)
        rng = np.random.default_rng(seed)
        t = layout(rng.standard_normal(dims).astype(dtype), how)
        z = ttm(t, rng.standard_normal((k, dims[mode])).astype(dtype), mode)
        g = gram_pql(as_pql(t, mode), as_pql(z, mode))
        assert g.shape == (dims[mode], k)
        np.testing.assert_allclose(
            g, einsum_cross_gram(t, z, mode), **tol(dtype)
        )

    def test_workspace_used_when_it_fits(self):
        t = np.random.default_rng(3).standard_normal((4, 5, 6))
        work = np.empty((5, 5))
        assert gram_pql(as_pql(t, 1), out=work) is work
        wrong = np.empty((5, 5), dtype=np.float32)
        assert gram_pql(as_pql(t, 1), out=wrong) is not wrong
