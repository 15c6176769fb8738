"""Tests of the benchmark's own checks.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from harness import (  # noqa: E402
    NOISE,
    Hygiene,
    error_bound,
    make_input,
    result_ok,
)
from layers import LayerTap  # noqa: E402
from repro import TuckerSession  # noqa: E402
from repro.backends import SequentialBackend  # noqa: E402
from workloads import DenseInMem, Sample, Tally, Workload  # noqa: E402

DIMS, CORE = (24, 20, 16), (4, 4, 3)


@pytest.fixture(scope="module")
def solved():
    x = make_input(DIMS, CORE, seed=3)
    with TuckerSession(backend="sequential") as s:
        result = s.run(x, CORE)
    return x, result


def _perturbed(result):
    """A copy of ``result`` whose first factor is visibly wrong."""
    dec = result.decomposition
    f = dec.factors[0]
    factors = [f + 0.2 * np.ones_like(f), *dec.factors[1:]]
    return replace(result, decomposition=replace(dec, factors=factors))


class _Fixed(Workload):
    """A workload over given inputs, for checking the checks."""

    def __init__(self, inputs) -> None:
        super().__init__(0, "")
        self.inputs = list(inputs)


def test_bounds_follow_the_conformance_ratios():
    assert error_bound("exact") == NOISE
    assert error_bound("rsthosvd", 0.01) == pytest.approx(0.015)
    assert error_bound("sp-rsthosvd", 0.01) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        error_bound("rsthosvd")


def test_exact_result_is_within_the_planted_noise(solved):
    x, result = solved
    assert result_ok(result.decomposition, x, NOISE)


def test_perturbed_factor_is_counted_as_failed(solved):
    x, result = solved
    bad = _perturbed(result)
    bad.errors = [0.0]  # the error a result reports is not trusted
    assert not result_ok(bad.decomposition, x, NOISE)
    wl = _Fixed([x])
    tally = Tally(samples=[
        Sample(0.1, result, 0, "exact"),
        Sample(0.1, bad, 0, "exact"),
        Sample(0.1, result, 0, "exact"),  # a repeat reuses its verdict
    ])
    assert wl.wrong(tally) == 1


def test_dense_percentile_averages_per_shape_percentiles():
    samples = [Sample(t, None, i, "exact")
               for i, times in enumerate([[1, 2, 3], [10, 20, 30]])
               for t in times]
    assert DenseInMem.percentile(None, samples, 50) == pytest.approx(11.0)


def test_hygiene_reports_leftover_spill_directories(tmp_path):
    hygiene = Hygiene(str(tmp_path))
    assert hygiene.leaks() == []
    (tmp_path / "repro-spill-abc").mkdir()
    assert hygiene.leaks() == [str(tmp_path / "repro-spill-abc")]


def test_layer_tap_times_backend_calls_and_restores(solved):
    x, _ = solved
    original = SequentialBackend.__dict__["ttm"]
    with TuckerSession(backend="sequential") as s, LayerTap() as tap:
        s.run(x, CORE)
    assert SequentialBackend.__dict__["ttm"] is original
    assert tap.calls["backends.ttm"] > 0
    assert tap.seconds["backends.gram_eigh"] > 0
    assert 0 < tap.instrumented_s
    assert tap.calls["storage.put"] == 0


def test_run_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: no package to measure."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
