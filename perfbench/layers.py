"""Per-layer timing for the traced run, from outside the program.

:class:`LayerTap` wraps the public methods of the execution backends and
of :class:`repro.storage.MmapStore` at class level, so every instance a
session or server builds is covered, including the ones ``backend="auto"``
creates lazily. Nothing under ``src/`` is modified; leaving the ``with``
block puts the original methods back.

Attribution rules:

* a backend method's time counts only when it is the outermost backend
  call on its thread (a kernel that calls another backend method is not
  counted twice);
* storage calls count on their own even when a backend call encloses
  them (``distribute`` spills through ``MmapStore.put``), so layer times
  are inclusive and may overlap;
* ``instrumented_s`` is the union: time inside any wrapped call, counted
  once. A run's wall time minus this union is session overhead.

Storage reads made by mapping spill files directly (``mappable_path``,
as the process-pool workers do) never pass through ``MmapStore.get``;
they land inside the kernel calls and stay unattributed here.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter

import numpy as np

from repro.backends import ProcessPoolBackend, SequentialBackend, ThreadedBackend
from repro.storage import MmapStore

#: ExecutionBackend methods timed, keyed by the metric stem they feed
BACKEND_METHODS = {
    "ttm": "ttm",
    "leading_factor": "gram_eigh",
    "sketch": "sketch",
    "cross_gram": "cross_gram",
    "fro_norm_sq": "norm",
    "distribute": "distribute",
    "gather": "gather",
    "regrid": "regrid",
}

#: MmapStore methods timed; ``__init__`` and ``close`` together are the
#: spill directory's creation and removal
STORE_METHODS = {
    "put": "put",
    "get": "get",
    "__init__": "store_open",
    "close": "store_open",
}


class LayerTap:
    """Accumulates seconds and calls per layer method while installed."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.put_bytes = 0
        self.instrumented_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[type, str, object]] = []

    # -- install / remove ------------------------------------------------- #

    def __enter__(self) -> "LayerTap":
        if self._originals:
            raise RuntimeError("LayerTap is already installed")
        for cls in (SequentialBackend, ThreadedBackend, ProcessPoolBackend):
            for method, stem in BACKEND_METHODS.items():
                self._patch(cls, method, "backends", stem)
        for method, stem in STORE_METHODS.items():
            self._patch(MmapStore, method, "storage", stem)
        return self

    def __exit__(self, *exc) -> None:
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def _patch(self, cls: type, method: str, layer: str, stem: str) -> None:
        original = cls.__dict__.get(method)
        if original is None:  # inherited: the defining class is patched
            return
        self._originals.append((cls, method, original))
        setattr(cls, method, self._wrap(original, layer, stem))

    # -- timing ------------------------------------------------------------ #

    def _depths(self) -> Counter:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = Counter()
        return depths

    def _wrap(self, fn, layer: str, stem: str):
        tap = self
        key = f"{layer}.{stem}"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depths = tap._depths()
            outer_layer = depths[layer] == 0
            outer_any = depths["any"] == 0
            depths[layer] += 1
            depths["any"] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                depths[layer] -= 1
                depths["any"] -= 1
                nbytes = 0
                if key == "storage.put":
                    array = args[2] if len(args) > 2 else kwargs.get("array")
                    nbytes = int(np.asarray(array).nbytes)
                with tap._lock:
                    if outer_layer:
                        tap.seconds[key] += dt
                        tap.calls[key] += 1
                    if outer_any:
                        tap.instrumented_s += dt
                    tap.put_bytes += nbytes

        return timed
