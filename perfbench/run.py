"""Benchmark of record for the repro Tucker package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense-inmem --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``dense-inmem``, ``spill-batch``, ``serve-mixed``
or ``all``. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs the workload untraced, then traced, and
reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout. Everything the
run writes (spill files, ``.npy`` inputs, temporary files) goes under
``.bench_work/`` in the checkout and is removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("dense-inmem", "spill-batch", "serve-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _isolate(workdir: str) -> None:
    """Point every file the program writes into ``workdir``.

    Spill directories and temporary files land in the checkout. The
    calibration profile is pinned to a path that never exists, so the
    auto-selector uses its built-in model on every machine instead of
    whatever profile the user's home directory holds. A memory budget
    from the environment is dropped: budgets come from the workloads.
    """
    tmp = os.path.join(workdir, "tmp")
    spill = os.path.join(workdir, "spill")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(spill, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["REPRO_SPILL_DIR"] = spill
    os.environ["REPRO_CALIBRATION"] = os.path.join(workdir, "uncalibrated.json")
    os.environ.pop("REPRO_MEMORY_BUDGET", None)


def _units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _stop_resource_tracker() -> None:
    """Stop the helper process shared-memory bookkeeping starts, and wait."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workroot = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(workroot, f"run-{os.getpid()}")
    _isolate(workdir)
    from workloads import run_workload

    units = _units(bool(args.trace))
    names = NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            report = run_workload(
                name, args.seed, args.seconds, bool(args.trace), workdir,
                units,
            )
            print("\n".join(report.lines), flush=True)
            if set(report.metrics) != set(units):
                print(f"error: {name} reported {sorted(report.metrics)}, "
                      f"expected {sorted(units)}", file=sys.stderr)
                return 1
            attempted += report.attempted
            failed += report.failed
            prefix = "" if len(names) == 1 else f"{name}."
            for key, value in report.metrics.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
    finally:
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass  # another run still owns a directory here
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
