"""The three workloads of record and the code that measures them.

Each workload builds its inputs from the seed before anything is timed,
hands the program only arrays or ``.npy`` paths, and keeps every result
so its true error can be checked after the timed loop. See README.md for
why each workload exists and which layer metric moves which end-to-end
metric.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from harness import (
    Hygiene,
    blas_info,
    child_seeds,
    decomposition_digest,
    error_bound,
    gemm_peak_madds,
    make_input,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    result_ok,
    tail_count,
)
from layers import LayerTap
from repro import TensorMeta, TuckerSession
from repro.obs import safe_rate
from repro.serve import AdmissionError, ServeRequest, TuckerServer
from repro.storage import resident_gauge


@dataclass
class Sample:
    """One completed decomposition."""

    seconds: float  # wall time as the caller sees it
    result: Any  # TuckerResult
    input_id: int
    method: str  # "exact", "rsthosvd" or "sp-rsthosvd"
    run_s: float = 0.0  # serve: RequestResult.seconds
    wall_s: float = 0.0  # serve: RequestResult.wall_seconds


@dataclass
class Tally:
    """Everything one timed loop (or set-up call) produced."""

    samples: list[Sample] = field(default_factory=list)
    #: (decompositions completed, wall seconds) per round of the loop
    rounds: list[tuple[int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def wall(self) -> float:
        return sum(seconds for _, seconds in self.rounds)

    def rate(self) -> float:
        """Decompositions per second: the median over rounds."""
        return median([safe_rate(n, seconds) for n, seconds in self.rounds])

    def add(self, other: "Tally") -> None:
        self.samples += other.samples
        self.rounds += other.rounds
        self.attempted += other.attempted
        self.failed += other.failed


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #


class Workload:
    """Inputs, set-up, warm-up and the timed loop of one workload."""

    name = ""
    why = ""
    #: set-ups per run; set-up time is reported as their median
    n_setups = 5

    def __init__(self, seed: int, workdir: str) -> None:
        self.inputs: list[np.ndarray] = []
        self.exact_error: dict[int, float] = {}

    # hooks ------------------------------------------------------------- #

    def plan_keys(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        raise NotImplementedError

    def session_kwargs(self) -> dict:
        raise NotImplementedError

    def build(self, traced: bool):
        return TuckerSession(**self.session_kwargs(), trace=traced)

    def first_call(self, handle) -> Tally:
        raise NotImplementedError

    def warm(self, handle) -> Tally:
        raise NotImplementedError

    def measure(self, handle, seconds: float) -> Tally:
        raise NotImplementedError

    def sessions(self, handle) -> list:
        return [handle]

    def close(self, handle) -> None:
        handle.close()

    def cleanup(self) -> None:
        """Remove what :meth:`__init__` wrote to disk."""

    # shared ------------------------------------------------------------ #

    def percentile(self, samples: list[Sample], q: float) -> float:
        """The ``q``-th percentile of per-decomposition wall time."""
        return percentile([s.seconds for s in samples], q)

    def bound(self, sample: Sample) -> float:
        return error_bound(sample.method, self.exact_error.get(sample.input_id))

    def wrong(self, tally: Tally) -> int:
        """Results whose true error is out of bounds (untimed).

        The program is deterministic, so most results repeat bit for bit;
        a verdict is reused only for a byte-identical core and factors on
        the same input under the same bound.
        """
        verdicts: dict[tuple, bool] = {}
        bad = 0
        for s in tally.samples:
            dec = s.result.decomposition
            bound = self.bound(s)
            key = (s.input_id, bound, decomposition_digest(dec))
            if key not in verdicts:
                verdicts[key] = result_ok(dec, self.inputs[s.input_id], bound)
            bad += not verdicts[key]
        return bad

    def setup(self) -> tuple[float, Any, Tally]:
        t0 = time.perf_counter()
        handle = self.build(traced=False)
        tally = self.first_call(handle)
        return time.perf_counter() - t0, handle, tally


def _cycle_runs(session, jobs, seconds: float) -> Tally:
    """Closed loop over ``jobs`` in order; each cycle is one round."""
    tally = Tally()
    while True:
        done = 0
        cycle0 = time.perf_counter()
        for input_id, tensor, core in jobs:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                result = session.run(tensor, core)
            except Exception:  # counted, and the loop goes on
                tally.failed += 1
                continue
            done += 1
            tally.samples.append(
                Sample(time.perf_counter() - t0, result, input_id, "exact")
            )
        tally.rounds.append((done, time.perf_counter() - cycle0))
        if tally.wall >= seconds:
            return tally


class DenseInMem(Workload):
    name = "dense-inmem"
    why = "compute-bound in-memory HOOI on the threaded backend"
    SHAPES = [
        ((200, 180, 160), (20, 18, 16)),
        ((64, 60, 56, 52), (8, 8, 7, 7)),
        ((50, 50, 50, 11, 10), (8, 13, 13, 7, 6)),  # scaled SP
    ]

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        seeds = child_seeds(seed, len(self.SHAPES))
        self.inputs = [
            make_input(dims, core, s)
            for (dims, core), s in zip(self.SHAPES, seeds)
        ]

    def plan_keys(self):
        return list(self.SHAPES)

    def session_kwargs(self) -> dict:
        return {"backend": "threaded", "n_procs": 2}

    def _jobs(self):
        return [
            (i, x, core) for i, (x, (_, core)) in
            enumerate(zip(self.inputs, self.SHAPES))
        ]

    def first_call(self, handle) -> Tally:
        # The 4-D shape: its times spread least (see percentile below).
        return _cycle_runs(handle, self._jobs()[1:2], 0.0)

    def warm(self, handle) -> Tally:
        return _cycle_runs(handle, self._jobs(), 0.0)

    def measure(self, handle, seconds: float) -> Tally:
        return _cycle_runs(handle, self._jobs(), seconds)

    def percentile(self, samples: list[Sample], q: float) -> float:
        """Each shape's percentile, averaged over the three shapes.

        The shapes differ threefold in cost and the 3-D shape's times
        spread widely, so a percentile of the pooled times would jump
        from one shape's band to another's between runs.
        """
        groups: dict[int, list[float]] = {}
        for s in samples:
            groups.setdefault(s.input_id, []).append(s.seconds)
        return 0.0 if not groups else sum(
            percentile(times, q) for times in groups.values()
        ) / len(groups)


class SpillBatch(Workload):
    name = "spill-batch"
    why = "out-of-core batch on the process pool: spill writes and mmap reads"
    DIMS, CORE = (120, 110, 100), (12, 11, 10)
    BATCH = 4
    BUDGET = "2M"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.inputs = [
            make_input(self.DIMS, self.CORE, s)
            for s in child_seeds(seed, self.BATCH)
        ]
        self.input_dir = os.path.join(workdir, "inputs")
        os.makedirs(self.input_dir, exist_ok=True)
        # Even items are read from .npy files, odd items are in-memory
        # arrays the session must spill itself.
        self.items: list = []
        for i, x in enumerate(self.inputs):
            if i % 2 == 0:
                path = os.path.join(self.input_dir, f"item{i}.npy")
                np.save(path, x)
                self.items.append(path)
            else:
                self.items.append(x)

    def cleanup(self) -> None:
        for item in self.items:
            if isinstance(item, str) and os.path.exists(item):
                os.remove(item)
        if os.path.isdir(self.input_dir):
            os.rmdir(self.input_dir)

    def plan_keys(self):
        return [(self.DIMS, self.CORE)]

    def session_kwargs(self) -> dict:
        return {
            "backend": "procpool", "n_procs": 2, "memory_budget": self.BUDGET,
        }

    def _batch(self, session, ids: list[int]) -> Tally:
        tally = Tally(attempted=len(ids))
        t0 = time.perf_counter()
        batch = session.run_many(
            [self.items[i] for i in ids], self.CORE, on_error="skip"
        )
        tally.rounds.append((len(batch.items), time.perf_counter() - t0))
        tally.failed = len(batch.failures)
        tally.samples = [
            Sample(item.seconds, item.result, ids[item.index], "exact")
            for item in batch.items
        ]
        return tally

    def first_call(self, handle) -> Tally:
        return self._batch(handle, [1])  # an in-memory array: spilled

    def warm(self, handle) -> Tally:
        return self._batch(handle, [0])  # a .npy path: mapped

    def measure(self, handle, seconds: float) -> Tally:
        tally = Tally()
        ids = list(range(len(self.items)))
        while tally.wall < seconds:
            tally.add(self._batch(handle, ids))
        return tally


class ServeMixed(Workload):
    name = "serve-mixed"
    why = "closed-loop serving of small mixed requests from 2 client threads"
    n_setups = 9
    SHAPES = [
        ((48, 40, 36), (8, 7, 6)),
        ((64, 56, 48), (8, 7, 6)),
        ((80, 72, 64), (10, 9, 8)),
        ((32, 30, 28, 26), (6, 5, 5, 4)),
    ]
    METHODS = ("run", "run", "rsthosvd", "sp-rsthosvd")
    PER_SHAPE = 3
    CLIENTS = 2
    WORKERS = 2
    BLOCKS = 2000

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        seeds = iter(child_seeds(seed, len(self.SHAPES) * self.PER_SHAPE + 1))
        self.shape_of: list[int] = []
        for k, (dims, core) in enumerate(self.SHAPES):
            for _ in range(self.PER_SHAPE):
                self.inputs.append(make_input(dims, core, next(seeds)))
                self.shape_of.append(k)
        # Reference for the randomized bounds: exact STHOSVD, untimed.
        with TuckerSession(backend="sequential") as ref:
            for i, x in enumerate(self.inputs):
                core = self.SHAPES[self.shape_of[i]][1]
                dec = ref.sthosvd(x, core).decomposition
                self.exact_error[i] = dec.error_vs(x)
        # Seeded, but in exact proportions: every block of 16 requests is
        # a shuffle of each shape with each method slot, and a random one
        # of that shape's inputs.
        rng = np.random.default_rng(next(seeds))
        combos = [(k, m) for k in range(len(self.SHAPES))
                  for m in range(len(self.METHODS))]
        self.sequence = [
            (self.PER_SHAPE * k + int(rng.integers(self.PER_SHAPE)), m)
            for _ in range(self.BLOCKS)
            for k, m in (combos[j] for j in rng.permutation(len(combos)))
        ]
        self._next = 0
        self._lock = threading.Lock()

    def plan_keys(self):
        return list(self.SHAPES)

    def session_kwargs(self) -> dict:
        return {"backend": "auto"}

    def build(self, traced: bool):
        return TuckerServer(workers=self.WORKERS, trace=traced)

    def sessions(self, handle) -> list:
        return [w.session for w in handle.workers]

    def close(self, handle) -> None:
        handle.drain()

    def _request(self, server, input_id: int, method: str, seq: int) -> Tally:
        """Submit one request and wait for it, as one closed-loop client."""
        tally = Tally(attempted=1)
        core = self.SHAPES[self.shape_of[input_id]][1]
        request = ServeRequest(
            core=core, id=str(seq), array=self.inputs[input_id],
            method=method, seed=seq,
        )
        t0 = time.perf_counter()
        try:
            res = server.submit(request).result()
        except AdmissionError:
            tally.failed = 1
            return tally
        latency = time.perf_counter() - t0
        if not res.ok:
            tally.failed = 1
            return tally
        tally.samples.append(Sample(
            latency, res.value, input_id,
            "exact" if method == "run" else method,
            run_s=res.seconds, wall_s=res.wall_seconds,
        ))
        return tally

    def _take(self) -> tuple[int, int, int]:
        with self._lock:
            seq = self._next
            self._next += 1
        input_id, m = self.sequence[seq % len(self.sequence)]
        return seq, input_id, m

    def first_call(self, handle) -> Tally:
        # always the same request: the largest 3-D shape, with HOOI
        return self._request(handle, 2 * self.PER_SHAPE, "run", 0)

    def warm(self, handle) -> Tally:
        """One request per (shape, method): every worker plan is compiled."""
        tally = Tally()
        for input_id in range(0, len(self.inputs), self.PER_SHAPE):
            for method in dict.fromkeys(self.METHODS):
                tally.add(self._request(handle, input_id, method, 0))
        return tally

    def measure(self, handle, seconds: float) -> Tally:
        tallies = [Tally() for _ in range(self.CLIENTS)]
        errors: list[BaseException] = []
        start = time.perf_counter()
        ends = [start] * self.CLIENTS

        def client(k: int) -> None:
            try:
                while time.perf_counter() - start < seconds:
                    seq, input_id, m = self._take()
                    tallies[k].add(
                        self._request(handle, input_id, self.METHODS[m], seq)
                    )
                    ends[k] = time.perf_counter()
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(k,), name=f"bench-client{k}")
            for k in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        out = Tally()
        for t in tallies:
            out.add(t)
        out.rounds = [(len(out.samples), max(ends) - start)]
        return out


WORKLOADS = {w.name: w for w in (DenseInMem, SpillBatch, ServeMixed)}


# --------------------------------------------------------------------- #
# measuring one run
# --------------------------------------------------------------------- #


@dataclass
class Report:
    """A run's outcome: JSON fields plus human-readable lines."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    lines: list[str]


def _session_counters(sessions) -> tuple[int, int, float]:
    hits = misses = 0
    prefetch = 0.0
    for s in sessions:
        info = s.cache_info()
        hits += info["hits"]
        misses += info["misses"]
        prefetch += s.metrics.snapshot()["counters"].get("prefetch_bytes", 0.0)
    return hits, misses, prefetch


def _compile_miss(wl: Workload) -> tuple[float, int, int]:
    """Cold compile of every plan key (median of 3 fresh sessions)."""
    times = []
    flops = volume = 0
    for _ in range(3):
        with TuckerSession(**wl.session_kwargs()) as s:
            t0 = time.perf_counter()
            plans = [s.compile(TensorMeta(d, c)) for d, c in wl.plan_keys()]
            times.append(time.perf_counter() - t0)
        flops = sum(int(p.plan.flops) for p in plans)
        volume = sum(int(p.plan.total_volume) for p in plans)
    return median(times), flops, volume


def _ledger_madds(samples) -> dict[str, float]:
    """Multiply-adds from each result's ledger, by kernel family."""
    out = {"ttm": 0.0, "gram_eigh": 0.0, "sketch": 0.0}
    for s in samples:
        for rec in s.result.ledger.records:
            if rec.category != "compute":
                continue
            if rec.op == "syrk":
                out["gram_eigh"] += rec.flops
            elif "sketch" in rec.tag or "xgram" in rec.tag:
                out["sketch"] += rec.flops
            else:
                out["ttm"] += rec.flops
    return out


def _end_to_end(wl: Workload, setups: list[float], tally: Tally,
                rss: float) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end values, and the sample count behind each."""
    n = len(tally.samples)
    metrics = {
        "setup_s": median(setups),
        "decomp_s_p50": wl.percentile(tally.samples, 50),
        "decomp_s_p90": wl.percentile(tally.samples, 90),
        "decomp_per_s": tally.rate(),
        "peak_rss_mb": rss,
    }
    beyond = tail_count(n, 90)
    counts = {
        "setup_s": f"n={len(setups)}",
        "decomp_s_p50": f"n={n}",
        "decomp_s_p90": f"n={n}, {beyond} beyond p90"
        + ("" if beyond >= 10 else " (fewer than 10: tail indicator only)"),
        "decomp_per_s": f"n={n} in {tally.wall:.2f} s, "
        f"median of {len(tally.rounds)} rounds",
        "peak_rss_mb": "n=1 (process + pool workers, VmHWM)",
    }
    return metrics, counts


def _per_layer(wl: Workload, tally: Tally, tap: LayerTap, peak_madds: float,
               counters0, counters1, compile_miss, untraced_p50: float,
               resident_peak: int, serve_stats: dict | None) -> dict:
    samples = tally.samples
    n = max(1, len(samples))
    sec, calls = tap.seconds, tap.calls
    madds = _ledger_madds(samples)
    peak_gflops = 2.0 * peak_madds / 1e9

    def gflops(family: str, key: str) -> float:
        return safe_rate(2.0 * madds[family] / 1e9, sec[key])

    run_total = sum(s.result.seconds for s in samples)
    overhead = max(0.0, run_total - tap.instrumented_s)
    hits = counters1[0] - counters0[0]
    misses = counters1[1] - counters0[1]
    hooi = [s.result.n_iters for s in samples if s.method == "exact"]
    traced_p50 = wl.percentile(samples, 50)
    m = {
        "backends.ttm_s": sec["backends.ttm"] / n,
        "backends.ttm_calls": calls["backends.ttm"] / n,
        "backends.ttm_gflops": gflops("ttm", "backends.ttm"),
        "backends.gram_eigh_s": sec["backends.gram_eigh"] / n,
        "backends.gram_eigh_gflops": gflops("gram_eigh", "backends.gram_eigh"),
        "backends.sketch_s": sec["backends.sketch"] / n,
        "backends.sketch_gflops": gflops("sketch", "backends.sketch"),
        "backends.cross_gram_s": sec["backends.cross_gram"] / n,
        "backends.norm_s": sec["backends.norm"] / n,
        "backends.distribute_s": sec["backends.distribute"] / n,
        "backends.gather_s": sec["backends.gather"] / n,
        "backends.regrid_s": sec["backends.regrid"] / n,
        "backends.gemm_peak_gflops": peak_gflops,
        "storage.put_s": sec["storage.put"] / n,
        "storage.put_mb_s": safe_rate(tap.put_bytes / 2**20, sec["storage.put"]),
        "storage.get_s": sec["storage.get"] / n,
        "storage.store_open_s": sec["storage.store_open"] / n,
        "storage.spill_bytes_written": sum(
            s.result.spill_bytes_written for s in samples) / n,
        "storage.spill_bytes_logical": sum(
            s.result.spill_bytes_logical for s in samples) / n,
        "storage.resident_peak_bytes": float(resident_peak),
        "session.overhead_s": overhead / n,
        "session.overhead_share": safe_rate(overhead, run_total),
        "session.cache_hit_ratio": safe_rate(hits, hits + misses),
        "session.prefetch_bytes": (counters1[2] - counters0[2]) / n,
        "core.compile_miss_s": compile_miss[0],
        "core.plan_flops": float(compile_miss[1]),
        "core.plan_volume": float(compile_miss[2]),
        "hooi.iters": safe_rate(sum(hooi), len(hooi)),
        "obs.trace_overhead_ratio": safe_rate(traced_p50, untraced_p50) - 1.0,
    }
    m["backends.ttm_pct_peak"] = 100.0 * safe_rate(
        m["backends.ttm_gflops"], peak_gflops)
    m["backends.gram_eigh_pct_peak"] = 100.0 * safe_rate(
        m["backends.gram_eigh_gflops"], peak_gflops)
    serve = {"wait_s": 0.0, "run_s": 0.0, "deliver_s": 0.0,
             "affinity_hit_ratio": 0.0, "queue_depth_peak": 0.0, "shed": 0.0}
    if serve_stats is not None:
        serve.update(
            wait_s=sum(s.wall_s - s.run_s for s in samples) / n,
            run_s=sum(s.run_s for s in samples) / n,
            deliver_s=sum(s.seconds - s.wall_s for s in samples) / n,
            **serve_stats,
        )
    m.update({f"serve.{k}": float(v) for k, v in serve.items()})
    return m


def _serve_stats(wl: Workload, handle) -> dict | None:
    if not isinstance(wl, ServeMixed):
        return None
    snap = handle.stats_snapshot()
    return {
        "affinity_hit_ratio": snap["affinity"]["hit_rate"],
        "queue_depth_peak": snap["queue_depth_peak"],
        "shed": snap["shed"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, units: dict[str, str]) -> Report:
    """Measure one workload; the caller prints the report.

    ``units`` maps each metric the run must report to its unit.
    """
    reset_peak_rss()
    peak = gemm_peak_madds() if trace else 0.0
    hygiene = Hygiene(os.environ["REPRO_SPILL_DIR"])
    wl = WORKLOADS[name](seed, workdir)
    everything = Tally()
    lines = [f"workload {name}: {wl.why}"]
    try:
        if not trace:
            setups = []
            for _ in range(wl.n_setups):
                dt, handle, first = wl.setup()
                everything.add(first)
                setups.append(dt)
                if len(setups) < wl.n_setups:
                    wl.close(handle)
            try:
                everything.add(wl.warm(handle))
                measured = wl.measure(handle, seconds)
                rss = peak_rss_mb()
            finally:
                wl.close(handle)
            everything.add(measured)
            metrics, counts = _end_to_end(wl, setups, measured, rss)
            lines += [
                f"{k:<14} {v:>12.6g} {units.get(k, '?'):<4} {counts[k]}"
                for k, v in metrics.items()
            ]
        else:
            half = seconds / 2.0
            handle = wl.build(traced=False)
            try:
                everything.add(wl.first_call(handle))
                everything.add(wl.warm(handle))
                untraced = wl.measure(handle, half)
            finally:
                wl.close(handle)
            everything.add(untraced)
            compile_miss = _compile_miss(wl)
            handle = wl.build(traced=True)
            tap = LayerTap()
            try:
                everything.add(wl.first_call(handle))
                everything.add(wl.warm(handle))
                counters0 = _session_counters(wl.sessions(handle))
                resident_gauge().reset()
                with tap:
                    traced = wl.measure(handle, half)
                resident_peak = resident_gauge().peak
                counters1 = _session_counters(wl.sessions(handle))
                serve_stats = _serve_stats(wl, handle)
            finally:
                wl.close(handle)
            everything.add(traced)
            peak = max(peak, gemm_peak_madds())
            metrics = _per_layer(
                wl, traced, tap, peak, counters0, counters1, compile_miss,
                wl.percentile(untraced.samples, 50),
                resident_peak, serve_stats,
            )
            backend_s = sum(
                v for k, v in tap.seconds.items() if k.startswith("backends.")
            )
            run_total = sum(s.result.seconds for s in traced.samples)
            lines.append(
                f"traced: {len(traced.samples)} decompositions; backend calls "
                f"{100 * safe_rate(backend_s, run_total):.1f}% of run time"
            )
            lines += [
                f"{k:<30} {v:>14.6g} {units.get(k, '?')}"
                for k, v in sorted(metrics.items())
            ]
        wrong = wl.wrong(everything)
    finally:
        wl.cleanup()
    leaks = hygiene.leaks()
    attempted = everything.attempted + 1  # + the hygiene check
    failed = everything.failed + wrong + (1 if leaks else 0)
    info = blas_info()
    lines.append(
        f"fail_ratio     {safe_rate(failed, attempted):>12.6g}      "
        f"{failed}/{attempted} (program failures {everything.failed}, "
        f"wrong results {wrong}, leaks {len(leaks)})"
    )
    lines += [f"leaked: {path}" for path in leaks]
    lines.append(
        f"blas {info['name']} {info['version']} threads={info['threads']} "
        f"nproc={info['nproc']}"
        + (f" gemm_peak={2 * peak / 1e9:.1f} GFLOP/s" if trace else "")
    )
    return Report(attempted, failed, metrics, lines)
