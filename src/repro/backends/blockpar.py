"""Block parallelism shared by the shared-memory pool backends.

Every in-memory kernel works on the ``(P, L, Q)`` view of its C-ordered
operand (:func:`repro.tensor.ttm.as_pql`): ``P`` the product of the modes
before the kernel's mode, ``L`` its length, ``Q`` the product of the modes
after it. The threaded and process-pool backends cut that view the same
way (:func:`pq_blocks`): into near-even contiguous ranges of ``P``
(:func:`repro.dist.blocks.block_ranges`, the partitioning the distributed
engine uses), or of ``Q`` when ``P`` is shorter than the pool. Blocks
stay views; a TTM block writes its own disjoint slice of the output, and
Gram partials add up in ascending block order (:func:`reduce_partials`,
optionally into a preallocated workspace). The out-of-core kernels keep
their own budget-bounded geometry (:func:`oc_block_slices` along
:func:`split_mode`), which the process pool groups into one contiguous
run per worker (:func:`worker_runs`). The ledger FLOP formulas live here too. Keeping all
of it in one place guarantees the two pool backends perform *identical*
floating-point operations in *identical* reduction order — which is what
lets the conformance harness hold every backend to the sequential
reference at 1e-10 and the golden tests pin their FLOP tallies
bit-for-bit.
"""

from __future__ import annotations

import operator
import os

import numpy as np

from repro.backends.errors import BackendUnavailableError
from repro.dist.blocks import block_ranges


def split_mode(shape: tuple[int, ...], avoid: int | None) -> int | None:
    """Mode to partition along: the longest mode other than ``avoid``.

    Returns ``None`` when no mode longer than 1 exists outside ``avoid``
    (the kernel then runs unsplit).
    """
    candidates = [
        (length, m)
        for m, length in enumerate(shape)
        if m != avoid and length > 1
    ]
    if not candidates:
        return None
    return max(candidates)[1]


def axis_index(ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
    """Index taking ``sl`` along ``axis`` and all of every other axis."""
    index = [slice(None)] * ndim
    index[axis] = sl
    return tuple(index)


def block_slices(length: int, n_workers: int) -> list[slice]:
    """Near-even contiguous slices covering ``range(length)``."""
    n_blocks = min(n_workers, length)
    return [slice(a, b) for a, b in block_ranges(length, n_blocks)]


def pq_blocks(
    pql: tuple[int, int, int], n_workers: int
) -> list[tuple[slice, slice, slice]]:
    """Worker blocks of a ``(P, L, Q)`` view, as index tuples.

    Cut along ``P``; along ``Q`` instead when ``P`` is shorter than the
    pool and than ``Q``. ``L`` is never cut, so every block holds whole
    mode fibers. A single block means "run unsplit".
    """
    p_len, _, q_len = pql
    whole = slice(None)
    if p_len >= n_workers or p_len >= q_len:
        return [(sl, whole, whole) for sl in block_slices(p_len, n_workers)]
    return [(whole, whole, sl) for sl in block_slices(q_len, n_workers)]


def reduce_partials(partials, out=None) -> np.ndarray:
    """Sum Gram partials in ascending block order (determinism).

    ``out``, when shape/dtype-compatible, is the preallocated workspace a
    compiled plan carries; otherwise the first (fresh) partial is the
    accumulator.
    """
    g = partials[0]
    if out is not None and out.shape == g.shape and out.dtype == g.dtype:
        out[...] = g
        g = out
    for p in partials[1:]:
        g += p
    return g


def gram_evd_flops(length: int, size: int) -> int:
    """Modeled multiply-adds of one Gram accumulation + EVD.

    Shared by every shared-memory backend so their ledger tallies agree
    exactly (the golden tests pin this).
    """
    return (
        length * (length + 1) // 2 * (size // length)
        + 4 * length**3 // 3
    )


def oc_block_slices(
    shape: tuple[int, ...],
    split: int,
    itemsize: int,
    per_block_bytes: int,
    n_workers: int = 1,
) -> list[slice]:
    """Split-axis slices for out-of-core kernels, bounded two ways.

    Blocks are cut so each holds at most ``per_block_bytes`` (so a
    worker's resident copy stays under the store's budget-derived
    ceiling) *and* there are at least ``n_workers`` of them when the
    split axis allows it (so every pool worker gets work). When one unit
    of the split axis already exceeds ``per_block_bytes`` the slices
    degrade to single-unit slabs — the finest cut one axis admits.

    Deterministic in its arguments: the same handle geometry always
    yields the same blocks, which keeps out-of-core runs bit-reproducible
    like every other path.
    """
    size = 1
    for length in shape:
        size *= int(length)
    slab_bytes = max(1, size // max(1, shape[split]) * int(itemsize))
    per_units = max(1, int(per_block_bytes) // slab_bytes)
    n_blocks = -(-int(shape[split]) // per_units)  # ceil
    n_blocks = min(max(n_blocks, min(n_workers, shape[split])), shape[split])
    return [slice(a, b) for a, b in block_ranges(shape[split], n_blocks)]


def worker_runs(slices: list[slice], n_workers: int) -> list[list[slice]]:
    """Cut ``slices`` into at most ``n_workers`` contiguous runs.

    Runs are near-even by block count and, concatenated, give back
    ``slices`` in order. A pool task carries one run, so a kernel submits
    at most one task per worker however many blocks the budget cuts, and
    per-block results flattened run by run stay in ascending block order.
    """
    n_runs = min(n_workers, len(slices))
    return [slices[a:b] for a, b in block_ranges(len(slices), n_runs)]


#: resident charge per in-flight out-of-core block, as a multiple of the
#: block's bytes: the read copy, the kernel temporary (a Gram slab or a
#: reshape copy), and the output slab. Sessions size ``max_block_bytes`` as
#: ``memory_budget // OC_LEASE_FACTOR`` so the concurrent leases of a
#: full worker fan-out stay within the budget.
OC_LEASE_FACTOR = 3


def default_workers() -> int:
    """Natural pool size: all but one core, capped at 8."""
    return max(1, min(8, (os.cpu_count() or 2) - 1))


def check_worker_count(n_workers, backend_name: str) -> int:
    """Validate a pool size (``None`` = the natural default).

    Accepts any integral type (plain or numpy ints — worker counts often
    come out of grid arithmetic); anything else, or a non-positive count,
    is a typed unavailability.
    """
    if n_workers is None:
        return default_workers()
    try:
        n_workers = int(operator.index(n_workers))
    except TypeError:
        raise BackendUnavailableError(
            "needs an integral worker count",
            backend=backend_name,
            config={"n_workers": n_workers},
        ) from None
    if n_workers < 1:
        raise BackendUnavailableError(
            "needs a positive worker count",
            backend=backend_name,
            config={"n_workers": n_workers},
        )
    return n_workers


__all__ = [
    "OC_LEASE_FACTOR",
    "axis_index",
    "block_slices",
    "check_worker_count",
    "default_workers",
    "gram_evd_flops",
    "oc_block_slices",
    "pq_blocks",
    "reduce_partials",
    "split_mode",
    "worker_runs",
]
