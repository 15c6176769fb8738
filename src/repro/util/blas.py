"""The single owner of numpy's BLAS thread count.

numpy's bundled OpenBLAS (scipy-openblas) runs its own thread pool under
every GEMM. A pool backend already fills the cores with its workers, so
BLAS threads on top only oversubscribe them (on 2 cores, a 2-worker pool
with 2 BLAS threads each runs 4 threads). The pool backends therefore
pin BLAS to one thread: the threaded backend for the span of each
multi-block fan-out (:func:`pin` / :func:`unpin`), procpool workers in
their initializer (:func:`set_num_threads`).

The count is set through ``ctypes`` on the library's exported
``scipy_openblas_{get,set}_num_threads64_``. When numpy links another
BLAS the symbols are absent and every call here is a no-op
(:func:`get_num_threads` returns ``None``).

The count is process-wide, so its owner is too: pins are counted under a
re-entrant lock, the first records the prior count and the last unpin
restores it. While any pin is held, every BLAS call in the process runs
with one thread.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from typing import Any

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"

_lock = threading.RLock()
_pins = 0
_prior: int | None = None


@functools.cache
def _functions() -> tuple[Any, Any] | None:
    """``(get, set)`` from numpy's BLAS, or ``None`` if it exports neither."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath  # type: ignore[no-redef]
    try:
        lib = ctypes.CDLL(umath.__file__)
        getter, setter = getattr(lib, _GET), getattr(lib, _SET)
    except (AttributeError, OSError):
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    return getter, setter


def get_num_threads() -> int | None:
    """numpy's current BLAS thread count, or ``None`` if it cannot be read."""
    funcs = _functions()
    return None if funcs is None else int(funcs[0]())


def set_num_threads(n: int) -> None:
    """Set numpy's BLAS thread count (a no-op without the symbol)."""
    funcs = _functions()
    if funcs is not None:
        funcs[1](int(n))


def pin() -> None:
    """Hold BLAS at one thread; the first hold records the prior count."""
    global _pins, _prior
    with _lock:
        if _pins == 0:
            _prior = get_num_threads()
            set_num_threads(1)
        _pins += 1


def unpin() -> None:
    """Drop a hold; the last one restores the count :func:`pin` recorded."""
    global _pins, _prior
    with _lock:
        if _pins == 0:
            return
        _pins -= 1
        if _pins == 0 and _prior is not None:
            set_num_threads(_prior)
            _prior = None


def pool_threads(n_workers: int) -> int | None:
    """BLAS threads the blocks of a pool of ``n_workers`` run with."""
    if n_workers > 1 and _functions() is not None:
        return 1
    return get_num_threads()


__all__ = [
    "get_num_threads",
    "pin",
    "pool_threads",
    "set_num_threads",
    "unpin",
]
