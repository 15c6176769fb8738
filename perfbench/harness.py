"""Shared pieces of the benchmark: output checks, statistics, probes.

Nothing here is timed. The workloads call these before their timed loop
(inputs, reference errors), after it (output checks, hygiene) or around
it (GEMM peak, resident memory).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import statistics
import time

import numpy as np
from scipy.special import betainc

from repro.bench import gemm_rate
from repro.tensor.random import low_rank_tensor

#: relative Frobenius norm of the noise planted in every input tensor
NOISE = 1e-2
#: allowed true error of a randomized result, as a multiple of the exact
#: STHOSVD error on the same input (the conformance suite's ratios)
ERROR_RATIO = {"rsthosvd": 1.5, "sp-rsthosvd": 2.0}


def make_input(dims, core, seed: int) -> np.ndarray:
    """One benchmark input: a seeded low-rank tensor with planted noise."""
    return low_rank_tensor(dims, core, noise=NOISE, seed=seed)


def child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent input seeds derived from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def error_bound(method: str, exact_error: float | None = None) -> float:
    """Largest true relative error a correct result may have.

    Exact STHOSVD and HOOI recover the planted low-rank part, so their
    error is at most the planted noise. Randomized methods are held to a
    multiple of the exact STHOSVD error on the same input.
    """
    if method in ERROR_RATIO:
        if exact_error is None:
            raise ValueError(f"{method} needs the exact STHOSVD error")
        return ERROR_RATIO[method] * exact_error
    return NOISE


def result_ok(decomposition, tensor: np.ndarray, bound: float) -> bool:
    """Whether a result's *true* error is within ``bound``.

    The error is recomputed from the factors and core against the input;
    the error a result reports is never trusted (``sp-rsthosvd`` reports
    an estimate that can read 0.0).
    """
    err = decomposition.error_vs(np.asarray(tensor))
    return bool(math.isfinite(err) and err <= bound)


def decomposition_digest(decomposition) -> bytes:
    """A digest of a result's core and factors, bytes and shapes."""
    h = hashlib.blake2b(digest_size=16)
    for part in (decomposition.core, *decomposition.factors):
        arr = np.ascontiguousarray(part)
        h.update(repr((arr.shape, arr.dtype.str)).encode())
        h.update(arr.tobytes())
    return h.digest()


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (0 for no samples).

    The 50th is the plain sample median, which ignores the few slow
    outliers a run has. Any other percentile is a Harrell-Davis estimate,
    a beta-weighted average of every order statistic: a tail estimated
    from a handful of samples beyond it moves far less between runs than
    the interpolated sample percentile.
    """
    if q == 50:
        return median(values)
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < 2:
        return float(x[0]) if n else 0.0
    p = q / 100.0
    weights = np.diff(betainc((n + 1) * p, (n + 1) * (1 - p),
                              np.linspace(0.0, 1.0, n + 1)))
    return float(weights @ x)


def tail_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# --------------------------------------------------------------------- #
# machine probes
# --------------------------------------------------------------------- #


def gemm_peak_madds() -> float:
    """This process's warm dense-GEMM rate in multiply-adds per second.

    The first GEMMs of a fresh process run far below the warm rate while
    BLAS spins up its threads, so BLAS is driven for a moment before
    :func:`repro.bench.gemm_rate` is asked. Callers probe at the start
    and at the end of a run and keep the higher rate.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512))
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        a @ a
    return gemm_rate(repeats=9)


def _blas_library() -> ctypes.CDLL | None:
    """The OpenBLAS shared object numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {
                line.split()[-1] for line in fh if "openblas" in line.lower()
            }
    except OSError:
        return None
    for path in sorted(paths):
        if path.endswith(".so") or ".so." in path:
            try:
                return ctypes.CDLL(path)
            except OSError:
                continue
    return None


def blas_info() -> dict:
    """BLAS library, version and thread count, plus ``nproc``."""
    info = {"name": "unknown", "version": "unknown", "threads": 0,
            "nproc": os.cpu_count() or 0}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = str(blas.get("name", "unknown"))
        info["version"] = str(blas.get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        pass
    lib = _blas_library()
    if lib is not None:
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                break
    return info


def _status_kb(pid: int | str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def child_pids() -> list[int]:
    """Live direct children of this process."""
    pid = os.getpid()
    out = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return out
    for name in entries:
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ")"
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            out.append(int(name))
    return out


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, if allowed."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass  # the mark then covers the whole process lifetime


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, MiB.

    Sums each process's high-water mark (``VmHWM``), so pages a forked
    pool worker shares with its parent count once per process: an upper
    bound on the true peak, stable from run to run.
    """
    kb = _status_kb("self", "VmHWM")
    kb += sum(_status_kb(pid, "VmHWM") for pid in child_pids())
    return kb / 1024.0


# --------------------------------------------------------------------- #
# hygiene
# --------------------------------------------------------------------- #

SHM_DIR = "/dev/shm"


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}
    except OSError:
        return set()


class Hygiene:
    """What a workload must leave behind: nothing.

    Built before a workload starts; :meth:`leaks` then lists every
    ``repro-spill-*`` directory left under the spill root and every
    shared-memory segment created since, still present in ``/dev/shm``.
    """

    def __init__(self, spill_root: str) -> None:
        self.spill_root = spill_root
        self._shm_before = _shm_segments()

    def leaks(self) -> list[str]:
        try:
            spills = sorted(
                os.path.join(self.spill_root, n)
                for n in os.listdir(self.spill_root)
                if n.startswith("repro-spill-")
            )
        except FileNotFoundError:
            spills = []
        shm = sorted(
            os.path.join(SHM_DIR, n)
            for n in _shm_segments() - self._shm_before
        )
        return spills + shm
