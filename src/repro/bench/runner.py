"""Sweep driver: run algorithm configs over tensor suites, collect metrics.

For each (tensor, algorithm) pair the runner plans (tree + grids) — routed
through a shared :class:`~repro.session.TuckerSession` so repeated sweeps
over the same metadata hit the compiled-plan cache — and asks the model
executor (:mod:`repro.hooi.model`) for one invocation's metrics.
Metrics per record:

``flops``            TTM-component multiply-adds (exact; Fig 11c/d)
``ttm_volume``       TTM reduce-scatter volume (elements)
``regrid_volume``    regrid volume (elements)
``comm_volume``      the two above summed (Fig 11f)
``tree_compute_s``   TTM compute time, tree only (Fig 11a/b)
``tree_comm_s``      TTM + regrid comm time, tree only (Fig 11e)
``svd_s``            SVD phase time
``total_s``          overall invocation time (Fig 10)

:func:`run_backends` complements the modeled sweep with *measured*
per-backend comparisons: the same decomposition executed on several
registered backends, reporting wall seconds, ledger aggregates and the
worst deviation from the sequential reference. :func:`run_batch` does
the same for *streams*: N tensors through one warm session per backend
(``session.run_many``), so BENCH records start tracking batched
throughput (``items_per_second``) alongside single-shot latency.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import replace
from time import perf_counter

from repro.backends import BackendUnavailableError, get_backend
from repro.bench.algorithms import make_planner
from repro.core.meta import TensorMeta
from repro.hooi.model import predict
from repro.mpi.machine import MachineModel
from repro.session import RunOptions, TuckerSession


def planning_session() -> TuckerSession:
    """The sweep-wide planning session (shared compiled-plan LRU cache)."""
    global _session
    if _session is None:
        _session = TuckerSession(backend="sequential", cache_size=128)
    return _session


_session: TuckerSession | None = None


def evaluate_algorithms(
    meta: TensorMeta,
    algorithms: Sequence[str],
    n_procs: int = 32,
    machine: MachineModel | None = None,
) -> dict[str, dict[str, float]]:
    """Plan + model one tensor under each named algorithm."""
    machine = machine if machine is not None else MachineModel.bgq_like()
    session = planning_session()
    out: dict[str, dict[str, float]] = {}
    for name in algorithms:
        plan = session.compile(
            meta, planner=make_planner(name, n_procs)
        ).plan
        report = predict(plan, machine)
        out[name] = {
            "flops": float(plan.flops),
            "ttm_volume": float(plan.ttm_volume),
            "regrid_volume": float(plan.regrid_volume),
            "comm_volume": float(plan.total_volume),
            "tree_compute_s": report.tree_compute_seconds,
            "tree_comm_s": report.tree_comm_seconds,
            "svd_s": report.svd_seconds,
            "total_s": report.total_seconds,
        }
    return out


def sweep(
    metas: Iterable[TensorMeta],
    algorithms: Sequence[str],
    n_procs: int = 32,
    machine: MachineModel | None = None,
) -> list[dict]:
    """Evaluate every tensor; returns one record per tensor.

    Record layout: ``{"meta": TensorMeta, "algs": {name: metrics}}``.
    """
    machine = machine if machine is not None else MachineModel.bgq_like()
    records = []
    for meta in metas:
        records.append(
            {
                "meta": meta,
                "algs": evaluate_algorithms(meta, algorithms, n_procs, machine),
            }
        )
    return records


def run_backends(
    tensor,
    core_dims: Sequence[int],
    backends: Sequence[str] = ("sequential", "threaded", "procpool"),
    *,
    n_procs: int | None = None,
    planner: str = "optimal",
    max_iters: int = 2,
    tol: float = 0.0,
    reference: str = "sequential",
    storage: str = "auto",
    memory_budget: int | str | None = None,
    spill_codec: str = "auto",
) -> dict[str, dict[str, float]]:
    """Execute the same decomposition on several backends; compare.

    Per backend: ``seconds`` (measured wall clock), the uniform ledger
    aggregates (``comm_volume`` / ``flops`` / ``events``), the final
    ``error``, and ``max_core_diff`` — the worst absolute core deviation
    from the ``reference`` backend (the conformance bound, 0.0 for the
    reference itself). A backend the host cannot provide is reported as
    ``{"unavailable": reason}`` rather than dropped silently.

    One ``n_procs`` is resolved up front and shared by every backend —
    the comparison is only a conformance bound if all backends execute
    the *same* plan. ``n_procs=None`` picks the machine's natural pool
    size clamped to a plannable count for this metadata.

    ``storage`` / ``memory_budget`` / ``spill_codec`` apply the session
    storage policy to every backend's run, so out-of-core (``"mmap"``)
    sweeps measure the spill path — including encoded spills — under the
    same plans as resident ones. Spilled runs also report
    ``spill_bytes_written`` / ``spill_bytes_logical``, so codec sweeps
    can compare achieved compression alongside wall clock.
    """
    import numpy as np

    from repro.backends.blockpar import default_workers
    from repro.core.grids import feasible_procs
    from repro.util.validation import check_core_dims

    arr = np.asarray(tensor)
    meta = TensorMeta(
        dims=arr.shape, core=check_core_dims(core_dims, arr.shape)
    )
    if n_procs is None:
        n_procs = feasible_procs(meta, default_workers())
    options = RunOptions(
        planner=planner, n_procs=n_procs, max_iters=max_iters, tol=tol,
        storage=storage, memory_budget=memory_budget, spill_codec=spill_codec,
    )
    names = list(backends)
    if reference not in names:
        names.insert(0, reference)
    out: dict[str, dict] = {}
    cores: dict[str, object] = {}
    for name in names:
        try:
            backend = get_backend(name, n_procs=n_procs)
        except BackendUnavailableError as exc:
            out[name] = {"unavailable": str(exc)}
            continue
        session = TuckerSession(backend=backend)
        start = perf_counter()
        result = session.run(tensor, core_dims, options=options)
        seconds = perf_counter() - start
        stats = backend.stats()
        cores[name] = result.decomposition.core
        out[name] = {
            "seconds": seconds,
            "error": result.error,
            "n_iters": float(result.n_iters),
            "comm_volume": stats["comm_volume"],
            "flops": stats["flops"],
            "events": stats["events"],
        }
        if result.storage != "memory":
            out[name]["spill_bytes_written"] = float(
                result.spill_bytes_written
            )
            out[name]["spill_bytes_logical"] = float(
                result.spill_bytes_logical
            )
        backend.close()
    ref_core = cores.get(reference)
    for name, metrics in out.items():
        if "unavailable" in metrics or ref_core is None:
            continue
        metrics["max_core_diff"] = float(
            np.max(np.abs(cores[name] - ref_core))
        )
    return out


def run_methods(
    tensor,
    core_dims: Sequence[int],
    methods: Sequence[str] = ("exact", "rsthosvd", "sp-rsthosvd"),
    *,
    backend: str = "sequential",
    n_procs: int | None = None,
    planner: str = "optimal",
    oversample: int = 5,
    power_iters: int = 0,
    seed: int = 0,
    reference: str = "exact",
) -> dict[str, dict[str, float]]:
    """Exact vs. randomized initialization on one backend; compare.

    Every method runs initialization-only (``skip_hooi``) through one
    warm session — the plan is pre-compiled so no method pays the
    planning cost — isolating the algorithm under comparison. Per
    method: ``seconds`` (measured wall clock), ``speedup`` over the
    ``reference`` method, ``reported_error`` (what the result claims;
    for ``sp-rsthosvd`` that is only a clamped estimate) and
    ``true_error`` — the offline reconstruction error, plus
    ``error_ratio`` against the reference's true error. A ratio near
    1.0 alongside a speedup > 1 is the randomized methods' whole value
    proposition.
    """
    import numpy as np

    from repro.tensor.ttm import ttm_chain
    from repro.util.validation import check_core_dims

    arr = np.asarray(tensor)
    meta = TensorMeta(
        dims=arr.shape, core=check_core_dims(core_dims, arr.shape)
    )
    names = list(methods)
    if reference not in names:
        names.insert(0, reference)
    out: dict[str, dict[str, float]] = {}
    t_norm = float(np.linalg.norm(arr.reshape(-1)))
    options = RunOptions(
        planner=planner, n_procs=n_procs, skip_hooi=True,
        oversample=oversample, power_iters=power_iters, seed=seed,
    )
    with TuckerSession(backend=backend, n_procs=n_procs) as session:
        session.compile(meta, n_procs, planner=planner)
        for name in names:
            start = perf_counter()
            result = session.run(
                arr, core_dims, options=replace(options, method=name)
            )
            seconds = perf_counter() - start
            dec = result.decomposition
            recon = ttm_chain(
                dec.core, list(dec.factors), list(range(arr.ndim))
            )
            diff = recon - np.asarray(arr, dtype=recon.dtype)
            true_error = (
                float(np.linalg.norm(diff.reshape(-1))) / t_norm
                if t_norm
                else 0.0
            )
            out[name] = {
                "seconds": seconds,
                "reported_error": float(result.error),
                "true_error": true_error,
            }
    ref = out[reference]
    for metrics in out.values():
        metrics["speedup"] = (
            ref["seconds"] / metrics["seconds"] if metrics["seconds"] else 0.0
        )
        if ref["true_error"]:
            metrics["error_ratio"] = metrics["true_error"] / ref["true_error"]
        else:
            metrics["error_ratio"] = (
                1.0 if metrics["true_error"] == 0 else float("inf")
            )
    return out


def run_batch(
    tensors: Sequence,
    core_dims: Sequence[int],
    backends: Sequence[str] = ("sequential", "threaded", "procpool"),
    *,
    n_procs: int | None = None,
    planner: str = "optimal",
    max_iters: int = 2,
    tol: float = 0.0,
    max_in_flight: int = 4,
    reference: str = "sequential",
    storage: str = "auto",
    memory_budget: int | str | None = None,
    spill_codec: str = "auto",
) -> dict[str, dict[str, float]]:
    """Stream the same tensor batch through each backend; compare throughput.

    Per backend: ``seconds`` (whole-batch wall clock), ``items_per_second``,
    ``n_items``, the plan-cache counters (``plans_compiled`` /
    ``cache_hits``), the merged ledger aggregates, and ``max_core_diff`` —
    the worst per-item core deviation from the ``reference`` backend's
    batch. An unavailable backend is reported as ``{"unavailable":
    reason}``. One ``n_procs`` is resolved up front (clamped to a count
    plannable for *every* distinct shape) and shared, so all backends
    execute the same plans.
    """
    import numpy as np

    from repro.backends.blockpar import default_workers
    from repro.core.grids import feasible_procs
    from repro.util.validation import check_core_dims

    arrays = [np.asarray(t) for t in tensors]
    if not arrays:
        raise ValueError("run_batch needs at least one tensor")
    metas = {
        TensorMeta(dims=a.shape, core=check_core_dims(core_dims, a.shape))
        for a in arrays
    }
    if n_procs is None:
        n_procs = min(feasible_procs(m, default_workers()) for m in metas)
    options = RunOptions(
        planner=planner, n_procs=n_procs, max_iters=max_iters, tol=tol,
        storage=storage, memory_budget=memory_budget, spill_codec=spill_codec,
    )
    names = list(backends)
    if reference not in names:
        names.insert(0, reference)
    out: dict[str, dict] = {}
    cores: dict[str, list] = {}
    for name in names:
        try:
            backend = get_backend(name, n_procs=n_procs)
        except BackendUnavailableError as exc:
            out[name] = {"unavailable": str(exc)}
            continue
        with TuckerSession(backend=backend) as session:
            batch = session.run_many(
                arrays, core_dims, options=options,
                max_in_flight=max_in_flight,
            )
        cores[name] = [r.decomposition.core for r in batch.results]
        out[name] = {
            "seconds": batch.seconds,
            "items_per_second": batch.items_per_second,
            "n_items": float(batch.n_items),
            "plans_compiled": float(batch.plans_compiled),
            "cache_hits": float(batch.cache_hits),
            "comm_volume": batch.ledger.volume(),
            "flops": batch.ledger.flops(),
            "events": float(len(batch.ledger)),
        }
    ref_cores = cores.get(reference)
    for name, metrics in out.items():
        if "unavailable" in metrics or ref_cores is None:
            continue
        metrics["max_core_diff"] = float(
            max(
                np.max(np.abs(mine - ref))
                for mine, ref in zip(cores[name], ref_cores)
            )
        )
    return out


def run_serve(
    tensors: Sequence,
    core_dims: Sequence[int],
    *,
    workers: int = 2,
    backend: str = "sequential",
    n_procs: int | None = None,
    planner: str = "portfolio",
    max_iters: int = 2,
    tol: float = 0.0,
    memory_budget: int | str | None = None,
) -> dict[str, dict[str, float]]:
    """Serve a workload concurrently vs. streaming it serially; compare.

    The ``serial`` arm pushes the tensors through one warm session's
    ``run_many``; the ``serve`` arm submits the same tensors to a
    :class:`~repro.serve.TuckerServer` with ``workers`` worker sessions
    and waits for every ticket. Both report ``seconds``,
    ``items_per_second`` and ``n_items``; the serve arm adds ``speedup``
    (serve throughput over serial), ``affinity_hit_rate`` and
    ``max_core_diff`` — the worst per-item core deviation from the
    serial arm, the conformance bound that makes the speedup meaningful.

    On a single-core host the serve arm's overlap buys nothing (thread
    switching typically costs a little); the ``>= 1.5x`` acceptance
    claim applies to multi-core machines only.
    """
    import numpy as np

    from repro.serve import ServeRequest, TuckerServer

    arrays = [np.asarray(t) for t in tensors]
    if not arrays:
        raise ValueError("run_serve needs at least one tensor")
    out: dict[str, dict[str, float]] = {}
    options = RunOptions(
        planner=planner, n_procs=n_procs, max_iters=max_iters, tol=tol,
        memory_budget=memory_budget,
    )

    with TuckerSession(backend=backend, n_procs=n_procs) as session:
        batch = session.run_many(arrays, core_dims, options=options)
    serial_cores = [r.decomposition.core for r in batch.results]
    out["serial"] = {
        "seconds": batch.seconds,
        "items_per_second": batch.items_per_second,
        "n_items": float(batch.n_items),
    }

    start = perf_counter()
    with TuckerServer(
        workers=workers, backend=backend, n_procs=n_procs, options=options,
    ) as server:
        tickets = [
            server.submit(ServeRequest(
                array=a,
                core=tuple(core_dims),
                id=f"bench-{i}",
                max_iters=max_iters,
                tol=tol,
            ))
            for i, a in enumerate(arrays)
        ]
        results = [t.result() for t in tickets]
        snap = server.stats_snapshot()
    seconds = perf_counter() - start
    failures = [r for r in results if not r.ok]
    if failures:
        raise RuntimeError(
            f"serve bench arm failed: {failures[0].error}"
        )
    from repro.obs import safe_rate

    serve_rate = safe_rate(len(results), seconds)
    serial_rate = out["serial"]["items_per_second"]
    out["serve"] = {
        "seconds": seconds,
        "items_per_second": serve_rate,
        "n_items": float(len(results)),
        "workers": float(workers),
        "speedup": serve_rate / serial_rate if serial_rate else 0.0,
        "affinity_hit_rate": float(snap["affinity"]["hit_rate"]),
        "max_core_diff": float(
            max(
                np.max(np.abs(r.value.decomposition.core - ref))
                for r, ref in zip(results, serial_cores)
            )
        ),
    }
    return out


def normalize_against(
    records: list[dict], metric: str, baseline: str
) -> dict[str, list[float]]:
    """Per-tensor ratios ``alg_metric / baseline_metric`` for each algorithm.

    This is the paper's normalization ("we normalized the execution times
    w.r.t. the execution time of the opt-tree algorithm, which becomes 1
    unit"). Baseline values of zero (possible for communication volume when
    a scheme is communication-free) are handled by reporting 1.0 when the
    algorithm's value is also zero and ``inf`` otherwise.
    """
    out: dict[str, list[float]] = {}
    for rec in records:
        base = rec["algs"][baseline][metric]
        for name, metrics in rec["algs"].items():
            val = metrics[metric]
            if base == 0:
                ratio = 1.0 if val == 0 else float("inf")
            else:
                ratio = val / base
            out.setdefault(name, []).append(ratio)
    return out
