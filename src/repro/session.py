"""The session API: plan once, compile, run many tensors.

The paper's central design point is that planning (TTM-tree + grid DP)
consumes only metadata and is decoupled from execution; this module makes
that the shape of the public API:

* :func:`compile_plan` turns a :class:`~repro.core.planner.Plan` into a
  :class:`CompiledPlan` — a validated, backend-neutral schedule (tree +
  core-chain :class:`~repro.backends.schedule.Step` programs), a working
  dtype, and preallocated Gram workspaces;
* :class:`TuckerSession` owns an :class:`~repro.backends.ExecutionBackend`
  and an LRU plan cache keyed on ``(dims, core, procs, planner, dtype)``;
  ``session.run`` / ``session.sthosvd`` / ``session.hooi`` execute compiled
  plans on the backend.

Quickstart::

    from repro.session import TuckerSession

    session = TuckerSession(backend="threaded")
    res = session.run(tensor, (8, 6, 5))        # compiles + caches the plan
    res2 = session.run(other_tensor, (8, 6, 5)) # plan-cache hit
    print(res.error, res2.from_cache, session.backend.stats())

Per-run settings travel as one frozen :class:`RunOptions`: the session
holds a base one, and keyword arguments to ``run`` / ``sthosvd`` /
``hooi`` / ``run_many`` override it::

    res3 = session.run(tensor, (8, 6, 5), method="rsthosvd", seed=1)
"""

from __future__ import annotations

import logging
import math
import os
import queue as queue_mod
import threading
from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from repro.backends import (
    AUTO_BACKEND,
    STORAGE_MODES,
    BackendUnavailableError,
    ExecutionBackend,
    Selection,
    SimClusterBackend,
    StorageSelection,
    check_factors,
    compile_core_steps,
    compile_tree_steps,
    get_backend,
    load_profile,
    merge_profile,
    run_core_steps,
    run_tree_steps,
    select_backend,
    select_storage,
)
from repro.backends.blockpar import OC_LEASE_FACTOR
from repro.backends.schedule import (
    RAND_METHODS,
    Step,
    compile_rand_steps,
    run_rand_steps,
)
from repro.storage import (
    DEFAULT_CHUNK_BYTES,
    MmapStore,
    check_codec,
    parse_bytes,
    warm_pages,
)
from repro.core.meta import TensorMeta
from repro.core.ordering import optimal_chain_ordering
from repro.core.planner import Plan, Planner
from repro.mpi.stats import StatsLedger
from repro.obs import MetricsRegistry, Trace, Tracer, canonical_tag, safe_rate
from repro.obs.trace import NULL_TRACER
from repro.util import serial
from repro.util.dtypes import resolve_dtype
from repro.util.validation import check_core_dims, check_positive_int

logger = logging.getLogger("repro.session")

__all__ = [
    "BatchFailure",
    "BatchItem",
    "BatchResult",
    "CompiledPlan",
    "RunOptions",
    "TuckerSession",
    "TuckerResult",
    "compile_plan",
]


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #


@dataclass
class TuckerResult:
    """Everything a decomposition run produces.

    ``errors`` has one entry per completed HOOI invocation;
    ``sthosvd_error`` is the initialization error. ``backend`` names the
    executing backend and ``from_cache`` reports whether the compiled plan
    came from the session's plan cache. When the session runs with
    ``backend="auto"``, ``auto_selected`` is true and
    ``selection_reason`` records why the selector chose this backend
    and the BLAS thread count its kernels ran with. ``blas_threads`` is
    that count on every run, auto or explicit (``None`` when numpy's
    BLAS does not expose it).
    ``ledger`` holds exactly this run's backend records — scoped, so a
    reused backend never inflates a later result's volumes — and
    ``stats`` is its uniform summary. ``storage`` reports where the
    working set lived (``"memory"`` or ``"mmap"``) and
    ``storage_reason`` why the policy picked it. Spilled runs also
    report the block codec (``spill_codec``), the encoded vs logical
    spill volume (``spill_bytes_written`` / ``spill_bytes_logical`` —
    their ratio is the achieved compression), and, for the lossy
    ``narrow`` codec, the largest recorded per-block relative error
    (``spill_error_bound``; ``0.0`` for lossless codecs).

    ``seconds`` is the wall-clock duration of this run's root span —
    the session times every run through its tracer, so result timings
    and traces cannot disagree. ``trace`` holds the run's drained
    :class:`~repro.obs.Trace` when the session was built with
    ``trace=True`` (``None`` otherwise).

    ``method`` names the initialization algorithm (``"exact"``,
    ``"rsthosvd"`` or ``"sp-rsthosvd"``). ``converged`` /
    ``stopped_reason`` report how the HOOI loop ended:
    ``"converged"`` (error delta within tolerance), ``"max_iters"``
    (iteration budget exhausted) or ``"non-monotone"`` (the error
    *increased* by more than the tolerance — the sweep is reported, not
    silently treated as converged). Runs without a HOOI phase keep the
    defaults.
    """

    decomposition: "TuckerDecomposition"  # noqa: F821 - hooi import is lazy
    plan: Plan
    errors: list[float]
    sthosvd_error: float
    n_iters: int = 0
    method: str = "exact"
    converged: bool = True
    stopped_reason: str = ""
    backend: str = ""
    from_cache: bool = False
    auto_selected: bool = False
    selection_reason: str = ""
    blas_threads: int | None = None
    ledger: StatsLedger | None = None
    storage: str = "memory"
    storage_reason: str = ""
    spill_codec: str = "raw"
    spill_bytes_written: int = 0
    spill_bytes_logical: int = 0
    spill_error_bound: float = 0.0
    seconds: float = 0.0
    trace: Trace | None = None

    @property
    def error(self) -> float:
        return self.errors[-1] if self.errors else self.sthosvd_error

    @property
    def stats(self) -> dict[str, float]:
        """This run's ledger summary (volumes/FLOPs/seconds/events)."""
        return self.ledger.summary() if self.ledger is not None else {}

    @property
    def compression_ratio(self) -> float:
        return self.decomposition.compression_ratio


# --------------------------------------------------------------------- #
# batched results
# --------------------------------------------------------------------- #


@dataclass
class BatchItem:
    """One successfully decomposed item of a :meth:`TuckerSession.run_many`.

    ``index`` is the item's position in the input stream; ``seq`` is its
    execution position (plan-key grouping inside the in-flight window may
    execute items out of arrival order). ``source`` is the ``.npy`` path
    for file items and ``"item[i]"`` for in-memory arrays. ``seconds``
    is the item's run-root-span duration (== ``result.seconds``).
    """

    index: int
    source: str
    seq: int
    seconds: float
    result: TuckerResult

    @property
    def error(self) -> float:
        return self.result.error

    @property
    def backend(self) -> str:
        return self.result.backend

    @property
    def from_cache(self) -> bool:
        return self.result.from_cache


@dataclass
class BatchFailure:
    """One item a ``run_many(on_error="skip")`` call could not decompose."""

    index: int
    source: str
    error: str
    kind: str = ""


@dataclass
class BatchResult:
    """Everything a :meth:`TuckerSession.run_many` call produces.

    ``items`` (input order) carry the per-item :class:`TuckerResult`;
    ``ledger`` merges every item's per-run records; ``plans_compiled`` /
    ``cache_hits`` are the plan-cache deltas of this batch (N same-shape
    tensors compile exactly one plan: ``plans_compiled == 1``,
    ``cache_hits == N - 1``).
    """

    items: list[BatchItem]
    failures: list[BatchFailure]
    seconds: float
    ledger: StatsLedger
    plans_compiled: int
    cache_hits: int
    #: merged batch trace (batch root + every item's spans) on traced
    #: sessions; ``None`` otherwise. ``seconds`` is the batch root
    #: span's duration.
    trace: Trace | None = None

    @property
    def results(self) -> list[TuckerResult]:
        return [item.result for item in self.items]

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def items_per_second(self) -> float:
        """Batch throughput (completed items over total wall seconds).

        The wall seconds come from the batch root span; a zero-duration
        or crash-truncated root degrades to a 0.0 rate — never a raise,
        never ``inf`` in a JSON payload (see :func:`repro.obs.safe_rate`).
        """
        return safe_rate(len(self.items), self.seconds)

    def stats(self) -> dict[str, float]:
        """Aggregate report: merged ledger summary + throughput counters."""
        out = self.ledger.summary()
        out.update(
            n_items=float(self.n_items),
            n_failures=float(len(self.failures)),
            seconds=self.seconds,
            items_per_second=self.items_per_second,
            plans_compiled=float(self.plans_compiled),
            cache_hits=float(self.cache_hits),
        )
        return out


@dataclass
class _PendingItem:
    """A materialized input waiting in the run_many in-flight window."""

    index: int
    source: str
    array: np.ndarray | None
    core: tuple[int, ...]
    group_key: tuple


def _maybe_cast(arr: np.ndarray, dtype) -> np.ndarray:
    """Convert to the working dtype now — unless the run can do better.

    A memory-mapped input needing conversion is returned *unconverted*:
    ``astype`` here would materialize the whole file in RAM, defeating
    lazy inputs exactly when they matter. The run-level
    :func:`_cast_for_run` finishes the job — chunked through the spill
    store when the run spills, plain ``astype`` when it is resident
    anyway.
    """
    dtype = np.dtype(dtype)
    if isinstance(arr, np.memmap) and arr.dtype != dtype:
        return arr
    return arr.astype(dtype, copy=False)


def _cast_for_run(arr: np.ndarray, dtype, store) -> np.ndarray:
    """The deferred half of :func:`_maybe_cast` (no-op when dtypes match)."""
    dtype = np.dtype(dtype)
    if arr.dtype == dtype:
        return arr
    if store is not None:
        key = store.next_key("cast")
        store.put(key, arr, dtype=dtype)  # chunked write-through cast
        return store.get(key)
    return arr.astype(dtype, copy=False)


def _item_source(raw, index: int) -> str:
    if isinstance(raw, (str, os.PathLike)):
        return os.fspath(raw)
    return f"item[{index}]"


def _materialize_item(raw, index: int, core_dims, dtype) -> _PendingItem:
    """Open one batch input (array or ``.npy`` path) and key it for grouping.

    Path items are opened *lazily* (``np.load(..., mmap_mode="r")``): the
    window holds a mapping plus metadata, not the tensor's bytes, so an
    item is never fully resident before its blocks are cut — windowed
    and skipped items cost pages touched, not tensors loaded.
    """
    source = _item_source(raw, index)
    if isinstance(raw, (str, os.PathLike)):
        array = np.load(source, mmap_mode="r")
        if not isinstance(array, np.ndarray):
            raise ValueError(f"{source} does not contain a single ndarray")
    elif isinstance(raw, np.ndarray):
        array = raw
    else:
        raise TypeError(
            f"batch item {index}: expected an ndarray or a .npy path, "
            f"got {type(raw).__name__}"
        )
    core = tuple(
        int(k)
        for k in (core_dims(array.shape) if callable(core_dims) else core_dims)
    )
    # Items agreeing on this key share a compiled plan under this call's
    # fixed planner/n_procs — the grouping the window scheduler uses.
    key = (tuple(array.shape), core, resolve_dtype(array, dtype).name)
    return _PendingItem(
        index=index, source=source, array=array, core=core, group_key=key
    )


class Prefetcher:
    """One background loader double-buffering item load against compute.

    While item *k* executes, :meth:`schedule` hands item *k+1*'s array to
    a daemon thread that faults its backing pages in through
    :func:`repro.storage.warm_pages` (memory-mapped ``.npy`` inputs and
    spill blocks; resident arrays are skipped for free). The executing
    run then finds hot pages instead of stalling on disk — the pipelined
    half of ``run_many`` and of every ``repro.serve`` worker.

    Prefetch is strictly advisory: warming failures are swallowed, and a
    ``max_bytes`` cap (a serving memory budget) bounds how much of a
    large item is pulled ahead. ``bytes_warmed`` is only read after
    :meth:`close` joins the thread.
    """

    def __init__(
        self,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        max_bytes: int | None = None,
    ) -> None:
        self._chunk_bytes = int(chunk_bytes)
        self._max_bytes = max_bytes
        self._queue: queue_mod.Queue = queue_mod.Queue()
        self._thread: threading.Thread | None = None
        self.bytes_warmed = 0
        self.items_warmed = 0

    def schedule(self, array: np.ndarray | None) -> None:
        """Warm ``array``'s pages in the background (no-op when resident)."""
        if array is None or not isinstance(array, np.memmap):
            return
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-prefetch", daemon=True
            )
            self._thread.start()
        self._queue.put(array)

    def _loop(self) -> None:
        while True:
            array = self._queue.get()
            if array is None:
                return
            try:
                warmed = warm_pages(
                    array,
                    chunk_bytes=self._chunk_bytes,
                    max_bytes=self._max_bytes,
                )
            except (OSError, ValueError) as exc:
                # advisory: a failed warm just means a cold first read
                logger.debug("page warm failed: %s", exc)
                continue
            self.bytes_warmed += warmed
            if warmed:
                self.items_warmed += 1

    def close(self) -> None:
        """Stop the loader (drains the pending warm first)."""
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join(timeout=30.0)
            self._thread = None


# --------------------------------------------------------------------- #
# compiled plans
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CompiledPlan:
    """A plan lowered to a backend-neutral schedule, ready to execute.

    Immutable except for the lazily-built Gram workspace (preallocated
    ``L_n x L_n`` buffers the shared-memory backends accumulate into;
    reused across every run of this compiled plan).
    """

    plan: Plan
    dtype: np.dtype
    planner_key: str
    tree_steps: tuple[Step, ...]
    core_steps: tuple[Step, ...]
    sthosvd_order: tuple[int, ...]
    _workspace: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    # -- delegated metadata ---------------------------------------------- #

    @property
    def meta(self) -> TensorMeta:
        return self.plan.meta

    @property
    def n_procs(self) -> int:
        return self.plan.n_procs

    @property
    def initial_grid(self) -> tuple[int, ...]:
        return self.plan.initial_grid

    @property
    def cache_key(self) -> tuple:
        return plan_cache_key(
            self.meta, self.n_procs, self.planner_key, self.dtype
        )

    # -- workspaces ------------------------------------------------------- #

    def gram_workspace(self) -> dict[int, np.ndarray]:
        """Preallocated per-mode Gram buffers (built on first use)."""
        if not self._workspace:
            for mode, length in enumerate(self.meta.dims):
                self._workspace[mode] = np.empty(
                    (length, length), dtype=self.dtype
                )
        return self._workspace

    # -- serialization ---------------------------------------------------- #

    def to_json(self) -> str:
        """Serialize; the embedded :class:`Plan` round-trips losslessly.

        Schedules are recompiled deterministically on load, so only the
        plan, dtype and planner key are stored.
        """
        return serial.dumps(
            {
                "version": 1,
                "dtype": self.dtype.name,
                "planner_key": self.planner_key,
                "plan": serial.loads(self.plan.to_json()),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CompiledPlan":
        d = serial.loads(text)
        plan = Plan.from_json(serial.dumps(d["plan"]))
        return compile_plan(
            plan, dtype=d["dtype"], planner_key=d["planner_key"]
        )


def plan_cache_key(
    meta: TensorMeta, n_procs: int, planner_key: str, dtype
) -> tuple:
    """The session cache key: ``(dims, core, procs, planner, dtype)``."""
    return (meta.dims, meta.core, int(n_procs), planner_key, np.dtype(dtype).name)


def compile_plan(
    plan: Plan, *, dtype=np.float64, planner_key: str = "custom"
) -> CompiledPlan:
    """Lower a planner :class:`Plan` into a :class:`CompiledPlan`."""
    dtype = resolve_dtype(np.float64, dtype)
    meta = plan.meta
    core_order = tuple(plan.core_order) or tuple(optimal_chain_ordering(meta))
    core_scheme = plan.core_scheme or None
    return CompiledPlan(
        plan=plan,
        dtype=dtype,
        planner_key=planner_key,
        tree_steps=compile_tree_steps(plan.tree, meta, scheme=plan.scheme),
        core_steps=compile_core_steps(core_order, core_scheme),
        sthosvd_order=tuple(optimal_chain_ordering(meta)),
    )


# --------------------------------------------------------------------- #
# per-run settings
# --------------------------------------------------------------------- #

#: settings whose ``None`` per-call override means "the session's
#: default", not a value of its own
_SESSION_DEFAULTED = frozenset(
    {"storage", "memory_budget", "spill_dir", "spill_codec"}
)


@dataclass(frozen=True)
class RunOptions:
    """The per-run settings of one decomposition, validated once.

    A session's constructor storage settings are its base
    :attr:`TuckerSession.options`; the keyword arguments of
    :meth:`TuckerSession.run` / ``sthosvd`` / ``hooi`` / ``run_many``
    override it through :func:`dataclasses.replace`, so an invalid value
    is rejected here, before any tensor bytes are touched.

    * Planning: ``planner`` (``"portfolio"``, a tree kind planned with
      dynamic grids, or a ready :class:`~repro.core.planner.Planner`),
      ``n_procs`` (``None``: the backend's natural count) and ``dtype``
      (``None``: float32 inputs stay float32, the rest run float64).
    * Algorithm: ``max_iters`` / ``tol`` bound the HOOI sweeps (``0``
      sweeps returns the initialization), ``skip_hooi`` stops after the
      initialization, ``method`` picks it (``"exact"``, ``"rsthosvd"``
      or ``"sp-rsthosvd"``) and ``oversample`` / ``power_iters`` /
      ``seed`` steer the randomized ones.
    * Storage: ``storage`` / ``memory_budget`` / ``spill_dir`` /
      ``spill_codec``, as documented on :class:`TuckerSession`.
    """

    planner: str | Planner = "portfolio"
    n_procs: int | None = None
    dtype: np.dtype | None = None
    max_iters: int = 10
    tol: float = 1e-8
    skip_hooi: bool = False
    method: str = "exact"
    oversample: int = 5
    power_iters: int = 0
    seed: int = 0
    storage: str = "auto"
    memory_budget: int | None = None
    spill_dir: str | None = None
    spill_codec: str = "auto"

    def __post_init__(self) -> None:
        normalized: dict = {}
        if self.n_procs is not None:
            normalized["n_procs"] = check_positive_int(self.n_procs, "n_procs")
        if self.dtype is not None:
            normalized["dtype"] = resolve_dtype(np.float64, self.dtype)
        max_iters = int(self.max_iters)
        if max_iters != self.max_iters or max_iters < 0:
            raise ValueError(
                f"max_iters must be an integer >= 0, got {self.max_iters!r}"
            )
        normalized["max_iters"] = max_iters
        if self.method != "exact" and self.method not in RAND_METHODS:
            raise ValueError(
                f"method must be 'exact' or one of {RAND_METHODS}, "
                f"got {self.method!r}"
            )
        if self.storage not in STORAGE_MODES:
            raise ValueError(
                f"storage must be one of {STORAGE_MODES}, got {self.storage!r}"
            )
        if self.memory_budget is not None:
            normalized["memory_budget"] = parse_bytes(self.memory_budget)
        if self.spill_codec != "auto":  # "auto" defers to the selector
            normalized["spill_codec"] = check_codec(self.spill_codec)
        for name, value in normalized.items():
            object.__setattr__(self, name, value)


#: the settings each entry point reads
_RUN_KEYS = frozenset(f.name for f in fields(RunOptions))
_STHOSVD_KEYS = _SESSION_DEFAULTED | {"planner", "n_procs", "dtype"}
_HOOI_KEYS = _STHOSVD_KEYS | {"max_iters", "tol"}


# --------------------------------------------------------------------- #
# the session
# --------------------------------------------------------------------- #


class TuckerSession:
    """A long-lived decomposition context: one backend, one plan cache.

    Parameters
    ----------
    backend:
        A backend name (``"sequential"``, ``"simcluster"``, ``"threaded"``,
        ``"procpool"``), the adaptive spec ``"auto"`` (the backend is
        selected per input from its metadata, see
        :mod:`repro.backends.select`), or a ready
        :class:`ExecutionBackend` instance.
    cluster / n_procs / machine:
        Configuration for a freshly built ``"simcluster"`` backend (and
        ``n_procs`` caps a fresh ``"threaded"`` / ``"procpool"`` pool or
        anchors ``"auto"`` selection).
    cache_size:
        Maximum number of compiled plans kept (LRU eviction).
    calibration:
        Only for ``backend="auto"``: a profile dict (as produced by
        :func:`repro.backends.calibrate`) or a path to a persisted profile
        JSON; defaults to the machine profile on disk, falling back to the
        built-in cost model.
    storage:
        Where each run's working set lives: ``"memory"`` (fully
        resident, the historical behavior), ``"mmap"`` (always spill to
        memory-mapped block files), or ``"auto"`` (the default: spill
        exactly when ``memory_budget`` — or ``$REPRO_MEMORY_BUDGET`` —
        is set and the input's bytes exceed it). Overridable per run.
    memory_budget:
        Resident-byte budget (int, or ``"512M"``-style string) the
        storage policy holds spilled runs to; out-of-core kernels cut
        their blocks from it.
    spill_dir:
        Root directory for spill files (default ``$REPRO_SPILL_DIR``,
        else the system tempdir). Each spilled run uses a private
        subdirectory, removed when the run finishes.
    spill_codec:
        How spilled blocks are encoded on disk: ``"auto"`` (the
        default: raw, unless a calibrated profile's measured
        encode/decode rates say compression pays), ``"raw"``
        (memmap-able flat files), ``"zlib"`` / ``"zlib:<level>"``
        (lossless deflate), or ``"narrow"`` (lossy float64→float32
        with the realized error bound recorded per block and surfaced
        as ``result.spill_error_bound``). Overridable per run; the
        lossy ``narrow`` is never chosen automatically.
    trace:
        ``True`` to record a full :class:`~repro.obs.Trace` per run
        (``result.trace``): phase spans, one step span per ledger
        record, spill I/O spans, procpool worker fragments, plus the
        plan's modeled per-step volumes for ``repro trace summarize``.
        A ready :class:`~repro.obs.Tracer` is also accepted (shared
        timelines across sessions). Default off: execution still times
        runs through a root span (``result.seconds``) but records
        nothing else — kernels see only the no-op tracer.

    The four storage settings form the session's base
    :class:`RunOptions` (:attr:`options`); every run starts from it.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "sequential",
        *,
        cluster=None,
        n_procs: int | None = None,
        machine=None,
        cache_size: int = 32,
        calibration=None,
        storage: str = "auto",
        memory_budget: int | str | None = None,
        spill_dir: str | None = None,
        spill_codec: str = "auto",
        trace: bool | Tracer = False,
    ) -> None:
        #: the base per-run settings; per-call keyword arguments override
        #: them (validated before any backend or pool is built)
        self.options = RunOptions(
            storage=storage,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
            spill_codec=spill_codec,
        )
        self._auto = isinstance(backend, str) and backend == AUTO_BACKEND
        self._selection: Selection | None = None
        if self._auto:
            if cluster is not None or machine is not None:
                raise ValueError(
                    "backend='auto' does not accept cluster=/machine= "
                    "(simcluster is never auto-selected; name it explicitly)"
                )
            self._auto_procs = (
                check_positive_int(n_procs, "n_procs")
                if n_procs is not None
                else None
            )
            # Partial dicts are merged over the defaults, exactly like
            # profiles loaded from disk.
            self._profile = (
                merge_profile(calibration)
                if isinstance(calibration, dict)
                else load_profile(calibration)
            )
            self._backends: dict[tuple[str, int], ExecutionBackend] = {}
            #: set on first selection; stays the last-used backend after.
            self.backend: ExecutionBackend | None = None
        else:
            if calibration is not None:
                raise ValueError(
                    "calibration= only applies to backend='auto'"
                )
            self.backend = get_backend(
                backend, cluster=cluster, n_procs=n_procs, machine=machine
            )
        self._cache: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self._cache_size = check_positive_int(cache_size, "cache_size")
        self._hits = 0
        self._misses = 0
        # Concurrency: the cache lock keeps LRU get/put/evict (and the
        # hit/miss counters) consistent under concurrent compiles; the
        # run lock serializes execution — per-run ledger scoping and
        # tracer mark/drain are positional, so two interleaved runs on
        # one backend would attribute each other's records. Serving
        # layers that want true overlap give each worker its own session
        # (see repro.serve); sharing one session across threads is then
        # *correct*, just serialized.
        self._cache_lock = threading.RLock()
        self._run_lock = threading.RLock()
        # The session always owns a real tracer: the per-run root span
        # is what result.seconds reads even with tracing off (one span
        # per run, drained immediately — no accumulation). Inner
        # instrumentation activates only when `trace` is truthy.
        if isinstance(trace, Tracer):
            self.tracer = trace
            self._trace_enabled = True
        else:
            self.tracer = Tracer()
            self._trace_enabled = bool(trace)
        self.metrics = MetricsRegistry()
        #: trace of the most recent *failed* traced run (``on_error=
        #: "skip"`` batches fold these into the batch trace).
        self.last_error_trace: Trace | None = None

    def _options(
        self,
        options: RunOptions | None,
        overrides: dict,
        allowed: frozenset,
        defaults: dict | None = None,
    ) -> RunOptions:
        """``options`` (else the session base + ``defaults``) with overrides.

        ``allowed`` is the set of settings the calling entry point reads;
        anything else is a ``TypeError``, exactly like an unknown keyword.
        """
        unknown = overrides.keys() - allowed
        if unknown:
            raise TypeError(
                f"unexpected keyword argument(s): {', '.join(sorted(unknown))}"
            )
        if options is None:
            options = self.options
            if defaults:
                overrides = {**defaults, **overrides}
        changes = {
            k: v
            for k, v in overrides.items()
            if v is not None or k not in _SESSION_DEFAULTED
        }
        return replace(options, **changes) if changes else options

    # -- storage policy ---------------------------------------------------- #

    def _select_storage(self, nbytes: int, opts: RunOptions) -> StorageSelection:
        """Where a run of ``nbytes`` working bytes lives under ``opts``.

        Auto sessions hand the selector their calibration profile, which
        is what lets ``codec="auto"`` rank zlib against raw with measured
        encode/decode rates (uncalibrated selections always stay raw).
        """
        return select_storage(
            nbytes,
            opts.storage,
            opts.memory_budget,
            codec=opts.spill_codec,
            profile=getattr(self, "_profile", None),
        )

    def _open_store(
        self, selection: StorageSelection, opts: RunOptions
    ) -> MmapStore | None:
        """A run-scoped spill store, or ``None`` for in-memory runs.

        ``max_block_bytes`` is the budget divided by the out-of-core
        lease factor, so a full worker fan-out's concurrent block leases
        stay within the budget. The write-through chunk comes from the
        selection (a calibrated profile's measured sweet spot) capped at
        the block geometry; the selection's codec becomes the store's
        default for every spilled block.
        """
        if not selection.spilled:
            return None
        budget = selection.memory_budget
        # `is not None`: a 0 budget means the finest practical cut (one
        # page), not the unbounded default — 1-byte blocks would turn
        # spills into per-element Python loops.
        max_block = (
            max(4096, budget // OC_LEASE_FACTOR)
            if budget is not None
            else None
        )
        chunk = (
            selection.chunk_bytes
            if selection.chunk_bytes is not None
            else DEFAULT_CHUNK_BYTES
        )
        return MmapStore(
            root=opts.spill_dir,
            max_block_bytes=max_block,
            chunk_bytes=(
                min(chunk, max_block) if max_block is not None else chunk
            ),
            codec=selection.codec,
        )

    def prefetch_chunk_bytes(self, options: RunOptions | None = None) -> int:
        """The page-warm chunk size matching this session's store geometry.

        Prefetch leases its warm chunks through the resident gauge, so it
        must never lease a bigger chunk than the budget-bounded store
        itself would write: mirror :meth:`_open_store`'s arithmetic
        (budget over the lease factor, floored at one page, capped at
        the default chunk). ``options`` defaults to :attr:`options`;
        unbudgeted runs keep the default.
        """
        opts = options if options is not None else self.options
        if opts.memory_budget is None:
            return DEFAULT_CHUNK_BYTES
        return min(
            DEFAULT_CHUNK_BYTES, max(4096, opts.memory_budget // OC_LEASE_FACTOR)
        )

    # -- adaptive backend selection --------------------------------------- #

    def _auto_select(
        self, meta: TensorMeta, n_procs: int | None, dtype, opts: RunOptions
    ) -> None:
        """Pick and install the backend for this input (auto mode only).

        Backend instances are cached per name so their ledgers persist
        across runs; ``self.backend`` always points at the last selection.
        Whether this input will spill under ``opts`` changes the scores
        (spill I/O charged, staging copies dropped), so the selector is
        told up front.
        """
        if not self._auto:
            return
        from repro.backends.select import resolve_auto_procs

        itemsize = np.dtype(np.float64 if dtype is None else dtype).itemsize
        nbytes = int(np.prod([int(d) for d in meta.dims])) * itemsize
        storage_sel = self._select_storage(nbytes, opts)
        procs = n_procs if n_procs is not None else self._auto_procs
        effective_procs = resolve_auto_procs(procs)
        selection = select_backend(
            meta.dims,
            meta.core,
            n_procs=procs,
            dtype=dtype,
            profile=self._profile,
            spilled=storage_sel.spilled,
            # Spilled scoring charges the codec this run will spill with.
            codec=storage_sel.codec,
            # Instances cached at exactly this worker count have already
            # paid their startup (pool spin-up); don't charge it again. A
            # same-name pool at a *different* count must be rebuilt, so
            # it is not warm.
            warm={
                name
                for name, p in self._backends
                if p == effective_procs
            },
        )
        # Try the winner, then the remaining candidates in score order: a
        # backend the host cannot provide (no /dev/shm, say) must degrade
        # auto mode, never crash it. Instances are cached per (name,
        # procs) so a changed n_procs builds a correctly sized pool.
        ranked = sorted(selection.scores, key=selection.scores.get)
        errors = []
        for name in ranked:
            key = (name, selection.n_procs)
            backend = self._backends.get(key)
            if backend is None:
                try:
                    backend = get_backend(name, n_procs=selection.n_procs)
                except BackendUnavailableError as exc:
                    errors.append(str(exc))
                    continue
                # A same-name pool at a superseded worker count would
                # otherwise keep its workers alive for the session's
                # lifetime; shut it down before caching the replacement.
                for stale_key in [
                    k for k in self._backends if k[0] == name
                ]:
                    self._backends.pop(stale_key).close()
                self._backends[key] = backend
            self.backend = backend
            if name != selection.backend:
                selection = Selection(
                    backend=name,
                    n_procs=selection.n_procs,
                    dtype=selection.dtype,
                    scores=selection.scores,
                    reason=(
                        f"{selection.reason}; fell back to {name} "
                        f"(unavailable: {'; '.join(errors)})"
                    ),
                )
            self._selection = selection
            logger.debug(
                "auto-selected backend %s (n_procs=%d): %s",
                selection.backend, selection.n_procs, selection.reason,
            )
            self._tr().event(
                "select:backend",
                backend=selection.backend,
                n_procs=selection.n_procs,
                reason=selection.reason,
            )
            return
        raise BackendUnavailableError(
            f"no auto-eligible backend is available: {'; '.join(errors)}",
            backend="auto",
            config={"dims": meta.dims, "core": meta.core},
        )

    @property
    def last_selection(self) -> Selection | None:
        """The auto-selector's verdict for the most recent input."""
        return self._selection

    def close(self) -> None:
        """Shut down every backend this session owns (worker pools).

        The session stays usable: pool backends reopen on next use, and
        auto mode simply builds fresh instances.
        """
        with self._run_lock:
            if self._auto:
                for backend in self._backends.values():
                    backend.close()
                self._backends.clear()
            if self.backend is not None:
                self.backend.close()

    def __enter__(self) -> "TuckerSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _result_meta(self) -> dict:
        """Backend/selection fields shared by every TuckerResult."""
        threads = self.backend.blas_threads
        return {
            "backend": self.backend.name,
            "auto_selected": self._auto,
            "selection_reason": (
                f"{self._selection.reason}; BLAS threads {threads}"
                if self._auto and self._selection
                else ""
            ),
            "blas_threads": threads,
        }

    # -- tracing ----------------------------------------------------------- #

    def _tr(self) -> Tracer:
        """The live tracer for instrumentation, or the shared no-op.

        Only the per-run root span bypasses this (it must exist for
        ``result.seconds`` even untraced); every other instrumentation
        point routes here so disabled tracing costs one attribute read.
        """
        return self.tracer if self._trace_enabled else NULL_TRACER

    @contextmanager
    def _observed(self, run_store=None):
        """Point the resolved backend (and spill store) at the tracer.

        Attaches the ledger observer — every :class:`Record` the backend
        appends becomes a ``kind="step"`` span — plus the backend and
        store tracer references (worker fragments, spill I/O spans).
        Always restored: a crashed run leaves no observer behind.
        """
        if not self._trace_enabled:
            yield
            return
        backend = self.backend
        ledger = backend.ledger
        prev_observer = ledger.observer
        prev_tracer = backend.tracer
        prev_store_tracer = run_store.tracer if run_store is not None else None
        ledger.observer = self.tracer.on_record
        backend.tracer = self.tracer
        if run_store is not None:
            run_store.tracer = self.tracer
        try:
            yield
        finally:
            ledger.observer = prev_observer
            backend.tracer = prev_tracer
            if run_store is not None:
                run_store.tracer = prev_store_tracer

    def _finish_trace(self, root, tmark: int) -> Trace | None:
        """Drain this run's spans; fold run metrics; ``None`` untraced."""
        self.metrics.counter("runs").inc()
        self.metrics.histogram("run_seconds").observe(root.seconds)
        if not self._trace_enabled:
            self.tracer.drain(tmark)  # just the root span; keep memory flat
            return None
        trace = self.tracer.drain(tmark)
        trace.meta.update(dict(root.attrs))
        self._fold_metrics(trace)
        trace.meta["metrics"] = self.metrics.snapshot()
        return trace

    def _stash_error_trace(self, tmark: int) -> None:
        """Preserve a failed run's partial spans (crash forensics)."""
        if self._trace_enabled:
            trace = self.tracer.drain(tmark)
            roots = trace.roots()
            if roots:
                trace.meta.update(dict(roots[-1].attrs))
            self.last_error_trace = trace
        else:
            self.tracer.drain(tmark)

    def _fold_metrics(self, trace: Trace) -> None:
        """Update the session registry from one run's spans."""
        for span in trace.spans:
            if span.kind == "step":
                component = canonical_tag(span.name).split(":", 1)[0]
                self.metrics.histogram(
                    f"step_seconds:{component}"
                ).observe(span.seconds)
            elif span.kind == "io":
                name = "spill_write_bytes" if span.name == "spill:write" else "spill_read_bytes"
                self.metrics.counter(name).inc(
                    float(span.attrs.get("bytes", 0) or 0)
                )
        workers = trace.by_kind("worker")
        if workers:
            busy = sum(s.seconds for s in workers)
            n_workers = int(getattr(self.backend, "n_workers", 1) or 1)
            wall = trace.seconds
            if wall > 0:
                self.metrics.gauge("pool_utilization").set(
                    min(1.0, busy / (wall * n_workers))
                )
        peak = trace.meta.get("resident_peak")
        if peak:
            self.metrics.gauge("resident_peak_bytes").max(float(peak))

    # -- plan cache ------------------------------------------------------- #

    def cache_info(self) -> dict[str, int]:
        with self._cache_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
                "maxsize": self._cache_size,
            }

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0

    def _cached(
        self, key: tuple, build: Callable[[], CompiledPlan]
    ) -> tuple[CompiledPlan, bool]:
        """LRU get-or-build; returns ``(plan, from_cache)``.

        The only place the cache and its counters change: ``cache_info``
        and the ``plan_cache_hits`` / ``plan_cache_misses`` metrics move
        together. ``build`` runs unlocked (planning can be slow); two
        threads racing the same key both build, last-put wins — wasted
        work, never a corrupted cache.
        """
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                self.metrics.counter("plan_cache_hits").inc()
                return cached, True
            self._misses += 1
        self.metrics.counter("plan_cache_misses").inc()
        compiled = build()
        with self._cache_lock:
            self._cache[key] = compiled
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return compiled, False

    def _resolve_procs(
        self,
        planner: str | Planner,
        n_procs: int | None,
        meta: TensorMeta | None = None,
    ) -> int:
        if isinstance(planner, Planner):
            procs = planner.n_procs
        elif n_procs is not None:
            procs = n_procs
        else:
            procs = self.backend.default_procs
        if (
            isinstance(self.backend, SimClusterBackend)
            and procs != self.backend.cluster.n_procs
        ):
            config = {
                "requested_n_procs": procs,
                "cluster_n_procs": self.backend.cluster.n_procs,
            }
            if meta is not None:
                config["dims"] = meta.dims
                config["core"] = meta.core
            raise BackendUnavailableError(
                f"plan is for {procs} procs but the cluster has "
                f"{self.backend.cluster.n_procs} ranks",
                backend=self.backend.name,
                config=config,
            )
        return procs

    def _compile(
        self, meta: TensorMeta, opts: RunOptions, dtype
    ) -> tuple[CompiledPlan, bool]:
        """Compile (or fetch from cache); returns ``(plan, from_cache)``.

        ``dtype`` is the working dtype (``None``: float64).
        """
        from repro.hooi.portfolio import select_plan

        planner = opts.planner
        explicit = isinstance(planner, Planner)
        self._auto_select(
            meta, planner.n_procs if explicit else opts.n_procs, dtype, opts
        )
        procs = self._resolve_procs(planner, opts.n_procs, meta)
        if (
            opts.n_procs is None
            and not explicit
            and not isinstance(self.backend, SimClusterBackend)
        ):
            # The count came from a machine default (cores - 1, say), not
            # a request: clamp it to a plannable P — a prime default
            # larger than every core dim admits no valid grid at all.
            from repro.core.grids import feasible_procs

            procs = feasible_procs(meta, procs)
        if explicit:
            planner_key = f"{planner.tree_kind}:{planner.grid_kind}"
        else:
            planner_key = str(planner)
        dtype = np.dtype(np.float64 if dtype is None else dtype)

        def build() -> CompiledPlan:
            logger.info(
                "compiling plan: dims=%s core=%s n_procs=%d planner=%s",
                meta.dims, meta.core, procs, planner_key,
            )
            if explicit:
                plan = planner.plan(meta)
            elif planner == "portfolio":
                plan = select_plan(meta, procs).plan
            else:
                plan = Planner(procs, tree=planner, grid="dynamic").plan(meta)
            return compile_plan(plan, dtype=dtype, planner_key=planner_key)

        return self._cached(plan_cache_key(meta, procs, planner_key, dtype), build)

    def compile(
        self,
        meta: TensorMeta,
        n_procs: int | None = None,
        *,
        planner: str | Planner = "portfolio",
        dtype=None,
    ) -> CompiledPlan:
        """Plan + lower ``meta`` (cached).

        ``planner`` is ``"portfolio"`` (model every configuration, keep the
        fastest), a tree kind (planned with dynamic grids), or a ready
        :class:`Planner`. ``n_procs`` defaults to the backend's natural
        parallelism. Plans are metadata-only and identical for every
        storage mode, so the same compiled plan serves resident and
        spilled executions alike.
        """
        opts = replace(
            self.options, n_procs=n_procs, planner=planner, dtype=dtype
        )
        compiled, _ = self._compile(meta, opts, opts.dtype)
        return compiled

    # -- input handling --------------------------------------------------- #

    def _prepare(
        self,
        tensor: np.ndarray,
        core_dims: Sequence[int] | None,
        plan: CompiledPlan | Plan | None,
        opts: RunOptions,
    ) -> tuple[np.ndarray, CompiledPlan, bool]:
        """Resolve dtype, validate shapes, compile-or-fetch the plan."""
        # Keep ndarray subclasses (np.memmap in particular): a lazily
        # opened .npy must reach distribute() as a mapping so spilled
        # runs can wrap the file in place instead of materializing it.
        arr = tensor if isinstance(tensor, np.ndarray) else np.asarray(tensor)
        if plan is None:
            if core_dims is None:
                raise ValueError("core_dims is required when no plan is given")
            work_dtype = resolve_dtype(arr, opts.dtype)
            arr = _maybe_cast(arr, work_dtype)
            core = check_core_dims(core_dims, arr.shape)
            meta = TensorMeta(dims=arr.shape, core=core)
            compiled, from_cache = self._compile(meta, opts, work_dtype)
            return arr, compiled, from_cache
        if isinstance(plan, CompiledPlan) and opts.dtype is None:
            work_dtype = plan.dtype
        else:
            work_dtype = resolve_dtype(arr, opts.dtype)
        self._auto_select(plan.meta, plan.n_procs, work_dtype, opts)
        if plan.meta.dims != arr.shape:
            raise ValueError(
                f"tensor shape {arr.shape} != plan dims {plan.meta.dims}"
            )
        if isinstance(plan, Plan):
            # Explicit plans are cached by object identity (Plan holds
            # unhashable parts); the cached CompiledPlan retains the plan,
            # so the id cannot be recycled while the entry lives.
            compiled, from_cache = self._cached(
                ("explicit", id(plan), work_dtype.name),
                lambda: compile_plan(
                    plan,
                    dtype=work_dtype,
                    planner_key=f"{plan.tree_kind}:{plan.grid_kind}",
                ),
            )
        else:
            compiled, from_cache = plan, False
            if work_dtype != plan.dtype:
                compiled = compile_plan(
                    plan.plan, dtype=work_dtype, planner_key=plan.planner_key
                )
        return _maybe_cast(arr, work_dtype), compiled, from_cache

    # -- algorithms ------------------------------------------------------- #

    def _hooi_loop(
        self,
        arr: np.ndarray,
        factors: Sequence[np.ndarray],
        compiled: CompiledPlan,
        opts: RunOptions,
        store=None,
        handle=None,
        t_norm_sq: float | None = None,
    ) -> tuple["TuckerDecomposition", list[float], bool, str]:  # noqa: F821
        from repro.hooi.decomposition import TuckerDecomposition

        backend = self.backend
        tr = self._tr()
        meta = compiled.meta
        factors = check_factors(factors, meta, dtype=compiled.dtype)
        if handle is None:
            with tr.span("distribute", kind="phase"):
                handle = backend.distribute(
                    arr, compiled.initial_grid, store=store
                )
        if t_norm_sq is None:
            # Callers that already reduced the input norm over this very
            # handle pass it in — on an out-of-core handle this reduction
            # is a complete pass over the spill files.
            t_norm_sq = backend.fro_norm_sq(handle, tag="norm:input")
        workspace = compiled.gram_workspace()
        errors: list[float] = []
        core_handle = None
        converged = False
        stopped_reason = "max_iters"
        tol = opts.tol
        with tr.span("hooi", kind="phase"):
            for it in range(opts.max_iters):
                tag = f"hooi:it{it}"
                with tr.span(tag, kind="phase", iteration=it):
                    new = run_tree_steps(
                        backend,
                        handle,
                        factors,
                        compiled.tree_steps,
                        tag=tag,
                        workspace=workspace,
                    )
                    if sorted(new) != list(range(meta.ndim)):
                        raise AssertionError(
                            "tree execution did not produce every factor"
                        )
                    factors = [new[m] for m in range(meta.ndim)]
                    core_handle = run_core_steps(
                        backend, handle, factors, compiled.core_steps,
                        tag=f"{tag}:core",
                    )
                    g_norm_sq = backend.fro_norm_sq(
                        core_handle, tag="norm:core"
                    )
                err_sq = max(t_norm_sq - g_norm_sq, 0.0)
                errors.append(
                    0.0 if t_norm_sq == 0 else float(math.sqrt(err_sq / t_norm_sq))
                )
                if it > 0:
                    delta = errors[-2] - errors[-1]
                    # ``delta < tol`` also fires on *rising* error (delta
                    # very negative); that sweep used to be reported as
                    # converged. Keep the stopping set identical (so
                    # ``tol=-inf`` still means "never stop early", and
                    # 1-ulp float32 jitter never ends a run a different
                    # backend would continue) but label the two cases
                    # apart.
                    if delta < tol:
                        if abs(delta) < tol:
                            converged = True
                            stopped_reason = "converged"
                        else:
                            stopped_reason = "non-monotone"
                        break
        # Copy: shared-memory cores may alias reusable workspace/output
        # buffers that the next run would overwrite.
        with tr.span("gather", kind="phase"):
            core = np.array(backend.gather(core_handle), copy=True)
        dec = TuckerDecomposition(core=core, factors=list(factors))
        return dec, errors, converged, stopped_reason

    def _sthosvd_pass(
        self, compiled: CompiledPlan, handle
    ) -> tuple["TuckerDecomposition", float, float]:  # noqa: F821
        """One STHOSVD pass; ``(decomposition, error, input_norm_sq)``.

        ``handle`` is the already distributed input (the HOOI phase
        reuses it — the input handle is never mutated by the kernels).
        The input's squared norm rides along so HOOI doesn't re-reduce it.
        """
        from repro.hooi.decomposition import TuckerDecomposition

        backend = self.backend
        tr = self._tr()
        meta = compiled.meta
        with tr.span("sthosvd", kind="phase"):
            t_norm_sq = backend.fro_norm_sq(handle, tag="norm:input")
            workspace = compiled.gram_workspace()
            factors: list[np.ndarray | None] = [None] * meta.ndim
            for mode in compiled.sthosvd_order:
                f = backend.leading_factor(
                    handle,
                    mode,
                    meta.core[mode],
                    tag=f"sthosvd:svd{mode}",
                    out=workspace.get(mode),
                )
                factors[mode] = f
                handle = backend.ttm(
                    handle, f.T, mode, tag=f"sthosvd:ttm{mode}"
                )
            g_norm_sq = backend.fro_norm_sq(handle, tag="norm:core")
        err_sq = max(t_norm_sq - g_norm_sq, 0.0)
        error = 0.0 if t_norm_sq == 0 else float(math.sqrt(err_sq / t_norm_sq))
        with tr.span("gather", kind="phase"):
            core = np.array(backend.gather(handle), copy=True)
        return (
            TuckerDecomposition(core=core, factors=list(factors)),
            error,
            t_norm_sq,
        )

    def _rand_pass(
        self, compiled: CompiledPlan, handle, opts: RunOptions
    ) -> tuple["TuckerDecomposition", float, float]:  # noqa: F821
        """One randomized pass; ``(decomposition, error, input_norm_sq)``.

        ``handle`` is the already distributed input. The input's squared
        norm is a free by-product of the first sketch pass — no separate
        norm reduction over the input ever runs. For ``rsthosvd`` the
        final truncated handle *is* the core (a projection of the
        input), so the norm identity gives the exact relative error; for
        ``sp-rsthosvd`` the core is solved host-side from the sketches
        and the identity only yields a clamped estimate.
        """
        from repro.hooi.decomposition import TuckerDecomposition

        backend = self.backend
        tr = self._tr()
        meta = compiled.meta
        method = opts.method
        rng = np.random.default_rng(opts.seed)
        steps = compile_rand_steps(
            compiled.sthosvd_order,
            meta,
            method=method,
            oversample=opts.oversample,
            power_iters=opts.power_iters,
        )
        with tr.span(
            method, kind="phase", seed=int(opts.seed),
            oversample=int(opts.oversample),
            power_iters=int(opts.power_iters),
        ):
            factors, current, t_norm_sq, core = run_rand_steps(
                backend, handle, steps, meta,
                rng=rng, dtype=compiled.dtype, tag=method,
            )
            if core is None:
                g_norm_sq = backend.fro_norm_sq(current, tag="norm:core")
                with tr.span("gather", kind="phase"):
                    # Copy: shared-memory cores may alias reusable
                    # buffers the next run would overwrite.
                    core = np.array(backend.gather(current), copy=True)
            else:
                g_norm_sq = float(np.dot(core.ravel(), core.ravel()))
        err_sq = max(t_norm_sq - g_norm_sq, 0.0)
        error = 0.0 if t_norm_sq == 0 else float(math.sqrt(err_sq / t_norm_sq))
        dec = TuckerDecomposition(
            core=core, factors=[factors[m] for m in range(meta.ndim)]
        )
        return dec, error, float(t_norm_sq)

    # -- the run pipeline ------------------------------------------------- #

    def _annotate_root(
        self, root, compiled: CompiledPlan, selection, from_cache: bool
    ) -> None:
        """Run-level metadata on the root span (becomes ``trace.meta``)."""
        root.set(
            backend=self.backend.name,
            storage=selection.mode,
            itemsize=int(compiled.dtype.itemsize),
            dims=list(compiled.meta.dims),
            core=list(compiled.meta.core),
            n_procs=int(compiled.n_procs),
            from_cache=bool(from_cache),
        )
        if self._trace_enabled:
            from repro.obs import modeled_step_volumes

            root.set(modeled_volumes=modeled_step_volumes(compiled.plan))

    def _execute(
        self,
        tensor,
        core_dims,
        plan,
        opts: RunOptions,
        init: str,
        *,
        sweeps: bool,
        start=None,
        **root_attrs,
    ) -> TuckerResult:
        """The one run pipeline, timed and traced under a root span.

        prepare → select storage → place → initialize → HOOI sweeps →
        result. The entry points differ only in ``init``: ``"given"``
        (``start``, a decomposition or factor list — :meth:`hooi`),
        ``"backend"`` (STHOSVD on the backend), ``"sequential"`` (host
        STHOSVD — :meth:`run` on simcluster) or ``"randomized"``
        (``opts.method``). ``sweeps`` says whether HOOI follows.
        """
        with self._run_lock:
            tmark = self.tracer.mark()
            try:
                with self.tracer.span("run", kind="phase", **root_attrs) as root:
                    result = self._pipeline(
                        tensor, core_dims, plan, opts, init, sweeps, start,
                        root,
                    )
            except BaseException:
                self._stash_error_trace(tmark)
                raise
            result.seconds = root.seconds
            result.trace = self._finish_trace(root, tmark)
            return result

    def _pipeline(
        self, tensor, core_dims, plan, opts, init, sweeps, start, root
    ) -> TuckerResult:
        tr = self._tr()
        with tr.span("compile", kind="phase"):
            arr, compiled, from_cache = self._prepare(
                tensor, core_dims, plan, opts
            )
        # Policy sees the *working* bytes: a float32 file run at float64
        # occupies twice its on-disk size once cast.
        selection = self._select_storage(
            arr.size * compiled.dtype.itemsize, opts
        )
        tr.event(
            "select:storage", mode=selection.mode, codec=selection.codec,
            reason=selection.reason,
        )
        if selection.spilled:
            logger.info("run spills to mmap store: %s", selection.reason)
        self._annotate_root(root, compiled, selection, from_cache)
        mark = self.backend.mark_stats()
        if init == "given" and opts.max_iters <= 0:
            # HOOI from an init with no sweeps hands the init back.
            if isinstance(start, (list, tuple)):
                raise ValueError(
                    "max_iters must be >= 1 when init is a bare factor list"
                )
            return TuckerResult(
                decomposition=start,
                plan=compiled.plan,
                errors=[],
                sthosvd_error=float("nan"),
                n_iters=0,
                from_cache=from_cache,
                ledger=self.backend.ledger_since(mark),
                # Nothing was placed, so nothing spilled — report what
                # actually happened, not what the policy would have done.
                storage="memory",
                storage_reason="max_iters <= 0: input never placed",
                **self._result_meta(),
            )
        dec = start
        init_error = float("nan")
        errors: list[float] = []
        converged, stopped_reason = True, ""
        run_store = self._open_store(selection, opts)
        try:
            with self._observed(run_store):
                arr = _cast_for_run(arr, compiled.dtype, run_store)
                handle = t_norm_sq = None
                if init == "sequential":
                    # Sequential init on the cluster backend: the paper
                    # does not charge the initial decomposition, and the
                    # HOOI initial grid need not be STHOSVD-feasible (a
                    # TTM requires K_n >= q_n). Capacity caveat: this
                    # init materializes working copies of the tensor in
                    # RAM even on a spilled run — the virtual cluster is
                    # a measurement instrument, not a capacity path; only
                    # its HOOI phase runs store-backed.
                    from repro.hooi.sthosvd import sthosvd as sthosvd_sequential

                    with tr.span("sthosvd", kind="phase", init="sequential"):
                        dec = sthosvd_sequential(
                            arr,
                            compiled.meta.core,
                            mode_order=list(compiled.sthosvd_order),
                            dtype=compiled.dtype,
                        )
                        init_error = dec.error_vs(arr)
                elif init != "given":
                    # Distribute exactly once for both phases: the input
                    # handle is read-only to every kernel, and re-placing
                    # it would double the spill (or shared-memory) copy
                    # I/O. Randomized init runs through the backend on
                    # EVERY backend — on simcluster the ledger then
                    # charges the sketches' reduced volumes.
                    with tr.span("distribute", kind="phase"):
                        handle = self.backend.distribute(
                            arr, compiled.initial_grid, store=run_store
                        )
                    if init == "randomized":
                        dec, init_error, t_norm_sq = self._rand_pass(
                            compiled, handle, opts
                        )
                    else:
                        dec, init_error, t_norm_sq = self._sthosvd_pass(
                            compiled, handle
                        )
                if sweeps:
                    factors = dec if isinstance(dec, (list, tuple)) else dec.factors
                    dec, errors, converged, stopped_reason = self._hooi_loop(
                        arr, factors, compiled, opts,
                        store=run_store, handle=handle, t_norm_sq=t_norm_sq,
                    )
        finally:
            if run_store is not None:
                root.set(resident_peak=float(run_store.gauge.peak))
                run_store.close()
        return TuckerResult(
            decomposition=dec,
            plan=compiled.plan,
            errors=errors,
            sthosvd_error=init_error,
            n_iters=len(errors),
            method=opts.method if init == "randomized" else "exact",
            converged=converged,
            stopped_reason=stopped_reason,
            from_cache=from_cache,
            ledger=self.backend.ledger_since(mark),
            storage=selection.mode,
            storage_reason=selection.reason,
            **(run_store.codec_stats() if run_store is not None else {}),
            **self._result_meta(),
        )

    # -- entry points ----------------------------------------------------- #

    def run(
        self,
        tensor: np.ndarray,
        core_dims: Sequence[int] | None = None,
        *,
        plan: CompiledPlan | Plan | None = None,
        options: RunOptions | None = None,
        **overrides: Any,
    ) -> TuckerResult:
        """The full pipeline: initialization + HOOI refinement to tolerance.

        ``options`` replaces the session's base :attr:`options`; keyword
        ``overrides`` are any :class:`RunOptions` fields (``planner``
        defaults to ``"portfolio"``; ``None`` for a storage setting keeps
        the session's). Repeated calls with same-shaped tensors hit the
        plan cache (``result.from_cache``). ``dtype`` overrides the
        working precision; by default float32 inputs stay float32,
        everything else runs in float64.

        ``method`` picks the initialization algorithm. ``"exact"`` (the
        default) is the Gram+EVD STHOSVD. ``"rsthosvd"`` replaces each
        mode's Gram step with a randomized range finder — the mode-``n``
        basis comes from a small sketch ``W = Y x_{m != n} Omega_m``
        with Gaussian test matrices of width ``core[n] + oversample``
        (clamped to the mode length), optionally sharpened by
        ``power_iters`` power iterations — and still truncates
        sequentially. ``"sp-rsthosvd"`` accumulates every mode sketch
        plus a core sketch in one single pass over the input and solves
        the core from the sketches alone; its reported error is a
        clamped norm-identity *estimate* (the sketched core is not a
        projection). Both are deterministic given ``seed``
        (``numpy.random.default_rng``). Randomized runs execute on the
        configured backend — including ``simcluster``, whose ledger then
        charges the sketch's reduced communication volumes.
        ``skip_hooi=True`` (or ``max_iters=0``) stops after the
        initialization.

        ``storage`` / ``memory_budget`` / ``spill_dir`` / ``spill_codec``
        override the session's storage policy for this run: a spilled run
        (``result.storage == "mmap"``) stages the tensor through
        memory-mapped block files in a run-private spill directory —
        removed before this method returns — instead of holding it
        resident, so inputs larger than RAM (or than the budget)
        decompose on the shared-memory backends. (``simcluster`` spills
        its per-rank bricks too, but its sequential STHOSVD init still
        materializes working copies — it is a measurement instrument,
        not a capacity path.)
        The run is timed through the session tracer's root span
        (``result.seconds``); on traced sessions ``result.trace`` holds
        the full span tree, a metrics snapshot and the plan's modeled
        per-step volumes.
        """
        opts = self._options(options, overrides, _RUN_KEYS)
        if opts.method in RAND_METHODS:
            init = "randomized"
        elif isinstance(self.backend, SimClusterBackend):
            init = "sequential"
        else:
            init = "backend"
        return self._execute(
            tensor, core_dims, plan, opts, init,
            sweeps=not opts.skip_hooi and opts.max_iters > 0,
            method="run", algorithm=opts.method,
        )

    def sthosvd(
        self,
        tensor: np.ndarray,
        core_dims: Sequence[int] | None = None,
        *,
        plan: CompiledPlan | Plan | None = None,
        options: RunOptions | None = None,
        **overrides: Any,
    ) -> TuckerResult:
        """One STHOSVD pass on the backend (static grid, optimal order).

        Reads the planning (``planner``, default ``"portfolio"``;
        ``n_procs``; ``dtype``) and storage settings of ``options`` /
        ``overrides``. On ``simcluster`` this is the distributed STHOSVD.
        """
        opts = self._options(options, overrides, _STHOSVD_KEYS)
        return self._execute(
            tensor, core_dims, plan, opts, "backend", sweeps=False,
            method="sthosvd",
        )

    def hooi(
        self,
        tensor: np.ndarray,
        init,
        *,
        plan: CompiledPlan | Plan | None = None,
        options: RunOptions | None = None,
        **overrides: Any,
    ) -> TuckerResult:
        """Iterate HOOI from an initial decomposition (or factor list).

        ``init`` is a :class:`TuckerDecomposition` or a sequence of factor
        matrices. Per-iteration errors come from the norm identity using
        backend reductions, so no rank ever holds the full tensor on the
        distributed backend. Reads the planning (``planner``, default
        ``"optimal"``), ``max_iters`` / ``tol`` and storage settings of
        ``options`` / ``overrides``; ``max_iters=0`` returns ``init``
        untouched.
        """
        opts = self._options(
            options, overrides, _HOOI_KEYS, {"planner": "optimal"}
        )
        factors = init if isinstance(init, (list, tuple)) else init.factors
        return self._execute(
            tensor, tuple(f.shape[1] for f in factors), plan, opts, "given",
            sweeps=True, start=init, method="hooi",
        )

    def run_many(
        self,
        inputs: Iterable,
        core_dims: Sequence[int] | Callable | None = None,
        *,
        options: RunOptions | None = None,
        max_in_flight: int = 1,
        on_error: str = "raise",
        prefetch: bool = True,
        **overrides: Any,
    ) -> BatchResult:
        """Decompose a stream of tensors through one warm session.

        ``inputs`` is any iterable — a list, a generator, a lazily read
        manifest — of in-memory ndarrays and/or ``.npy`` paths
        (``str``/``os.PathLike``); path items are opened as lazy
        memory mappings at most ``max_in_flight`` ahead of execution, so
        an arbitrarily long stream never materializes more than the
        executing item (and, spilled, never even that — see below).
        ``core_dims`` is one core shape applied to every item, or a
        callable ``shape -> core`` for heterogeneous streams. Every item
        runs :meth:`run` with one :class:`RunOptions` (``options`` and
        keyword ``overrides``, as for :meth:`run`), built and validated
        once, before the first item is read.

        The storage settings apply the session's storage policy per
        item: with a budget set, any item whose bytes exceed it streams
        through memory-mapped spill blocks (its ``result.storage``
        reports ``"mmap"``) while smaller items stay resident — a mixed
        stream gets per-item out-of-core treatment exactly like it gets
        per-item backend selection.

        Each distinct ``(shape, core, dtype)`` compiles its plan exactly
        once (the session's LRU plan cache); within the in-flight window
        items sharing a plan key execute consecutively, so a mixed stream
        does not thrash backend selection. Worker pools stay warm across
        the whole batch: the session's backend (and, under
        ``backend="auto"``, every per-selection cached instance) is
        *never* torn down between items — auto mode re-selects per item
        from its metadata, reusing already-built pools at zero startup
        charge.

        ``prefetch`` (default on) double-buffers file-backed items: while
        item *i* computes, a background thread touches one element per
        page of item *i+1*'s memory mapping, so its pages are faulted in
        from disk by the time execution reaches it. In-memory items are
        skipped (nothing to fault); ``prefetch=False`` restores strictly
        serial I/O. Warmed bytes land in the session metrics as the
        ``prefetch_bytes`` / ``prefetch_items`` counters.

        ``on_error="raise"`` (default) propagates the first failure;
        ``"skip"`` records it as a :class:`BatchFailure` and keeps
        streaming. Per-item results, the merged per-run ledger and
        throughput counters come back as a :class:`BatchResult`.
        """
        if core_dims is None:
            raise ValueError(
                "core_dims is required: one tuple for every item, or a "
                "callable shape -> core for heterogeneous streams"
            )
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}"
            )
        max_in_flight = check_positive_int(max_in_flight, "max_in_flight")
        opts = self._options(options, overrides, _RUN_KEYS)
        info = self.cache_info()
        hits0, misses0 = info["hits"], info["misses"]
        self._run_lock.acquire()  # whole-batch scope: tmark..drain is positional
        tmark = self.tracer.mark()
        item_traces: list[Trace] = []
        stream = iter(inputs)
        window: deque[_PendingItem] = deque()
        items: list[BatchItem] = []
        failures: list[BatchFailure] = []
        ledger = StatsLedger()
        # Warm chunks sized to this batch's budget geometry, never larger
        # than the run stores it will open.
        prefetcher = (
            Prefetcher(chunk_bytes=self.prefetch_chunk_bytes(opts))
            if prefetch
            else None
        )
        seq = 0
        index = 0
        exhausted = False

        def fill() -> None:
            """Top the window up to ``max_in_flight`` materialized items."""
            nonlocal index, exhausted
            while not exhausted and len(window) < max_in_flight:
                try:
                    raw = next(stream)
                except StopIteration:
                    exhausted = True
                    return
                try:
                    window.append(
                        _materialize_item(raw, index, core_dims, opts.dtype)
                    )
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    failures.append(
                        BatchFailure(
                            index=index,
                            source=_item_source(raw, index),
                            error=str(exc),
                            kind=type(exc).__name__,
                        )
                    )
                index += 1

        try:
            with self.tracer.span("batch", kind="phase", method="batch") as root:
                fill()
                while window:
                    # Drain the oldest item's plan-key group first:
                    # streaming order overall, grouped execution within
                    # the window.
                    key = window[0].group_key
                    group = [
                        entry for entry in window if entry.group_key == key
                    ]
                    for entry in group:
                        window.remove(entry)
                    # Top the window back up *before* executing: the
                    # prefetcher needs the next item materialized while
                    # this group computes, not after.
                    fill()
                    for pos, entry in enumerate(group):
                        if prefetcher is not None:
                            nxt = (
                                group[pos + 1]
                                if pos + 1 < len(group)
                                else (window[0] if window else None)
                            )
                            if nxt is not None:
                                prefetcher.schedule(nxt.array)
                        try:
                            result = self.run(
                                entry.array, entry.core, options=opts
                            )
                        except Exception as exc:
                            if on_error == "raise":
                                raise
                            failures.append(
                                BatchFailure(
                                    index=entry.index,
                                    source=entry.source,
                                    error=str(exc),
                                    kind=type(exc).__name__,
                                )
                            )
                            # The failed run stashed its spans; fold
                            # them into the batch timeline so a skipped
                            # item still shows up in the trace.
                            if self.last_error_trace is not None:
                                item_traces.append(self.last_error_trace)
                                self.last_error_trace = None
                            continue
                        finally:
                            entry.array = None  # released before next load
                        if result.trace is not None:
                            item_traces.append(result.trace)
                        items.append(
                            BatchItem(
                                index=entry.index,
                                source=entry.source,
                                seq=seq,
                                seconds=result.seconds,
                                result=result,
                            )
                        )
                        seq += 1
                        if result.ledger is not None:
                            ledger.merge(result.ledger)
                # Join the loader before the metrics snapshot below so
                # the warmed totals it reports are final.
                if prefetcher is not None:
                    prefetcher.close()
                    self.metrics.counter("prefetch_bytes").inc(
                        prefetcher.bytes_warmed
                    )
                    self.metrics.counter("prefetch_items").inc(
                        prefetcher.items_warmed
                    )
                root.set(items=len(items), failures=len(failures))
        except BaseException:
            try:
                if self._trace_enabled:
                    tail = self.tracer.drain(tmark)
                    pieces = [tail] + item_traces
                    if self.last_error_trace is not None:
                        pieces.append(self.last_error_trace)
                    self.last_error_trace = Trace.merge(pieces)
                else:
                    self.tracer.drain(tmark)
            finally:
                self._run_lock.release()
            raise
        finally:
            if prefetcher is not None:
                prefetcher.close()
        try:
            items.sort(key=lambda item: item.index)
            failures.sort(key=lambda failure: failure.index)
            info = self.cache_info()
            self.metrics.counter("batches").inc()
            trace = None
            if self._trace_enabled:
                # Batch root first so its meta wins the first-wins merge.
                tail = self.tracer.drain(tmark)
                tail.meta.update(dict(root.attrs))
                tail.meta["method"] = "batch"
                trace = Trace.merge([tail] + item_traces)
                trace.meta["metrics"] = self.metrics.snapshot()
            else:
                self.tracer.drain(tmark)
        finally:
            self._run_lock.release()
        return BatchResult(
            items=items,
            failures=failures,
            seconds=root.seconds,
            ledger=ledger,
            plans_compiled=info["misses"] - misses0,
            cache_hits=info["hits"] - hits0,
            trace=trace,
        )
