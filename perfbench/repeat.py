"""One repeat of one workload in a fresh interpreter.

    python perfbench/repeat.py <workload> <seed> <slice_ns> <mode>

Builds the cluster, runs the slice, performs the end-of-run read-outs,
checks the outputs and prints one JSON object. ``run.py`` starts one of
these per repeat, one at a time, so that peak RSS, the garbage
collector's heap and the simulator's process-global counters start
clean each time and nothing runs beside the measured process.

``mode`` is ``time`` (``setup_s``, ``run_s``, peak RSS and the GC
numbers from ``gc.callbacks``), ``count`` (the same, plus the exact
per-layer counts read after the timed region) or ``profile`` (the same
code under cProfile, reporting the per-layer breakdown; its timings only
feed ``trace_overhead``).
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import sys
import time

import layers
import workloads


class GcClock:
    """Pause time and collection counts from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self.collected = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._t0
        self.collected += info["collected"]
        if info["generation"] == 2:
            self.gen2 += 1


MODES = ("time", "count", "profile")
#: the slice is simulated in this many equal steps, each timed alone
CHUNKS = 20


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v

    def step(self, x: int) -> int:
        return (self.v * 31 + x) & 0xFFFF


_CELLS = [_Cell(i) for i in range(256)]
_TABLE = {i: 0 for i in range(256)}


def probe() -> float:
    """Host seconds of a fixed ~5 ms computation, a gauge of machine speed.

    It allocates no object the garbage collector tracks, so it shifts no
    collection of the simulation it is interleaved with.
    """
    t = time.perf_counter()
    acc = 0
    for _ in range(200):
        for cell in _CELLS:
            acc = cell.step(acc)
            _TABLE[cell.v] = acc
    return time.perf_counter() - t


def repeat(name: str, seed: int, slice_ns: int, mode: str) -> dict:
    gc_clock = GcClock()
    profile = cProfile.Profile() if mode == "profile" else None
    gc.callbacks.append(gc_clock)
    try:
        if profile is not None:
            profile.enable()
        t0 = time.perf_counter()
        cluster = workloads.build(name, seed)
        t1 = time.perf_counter()
        chunks_s, probes_s = [], []
        for i in range(1, CHUNKS + 1):
            if mode == "time":
                probes_s.append(probe())
            t = time.perf_counter()
            cluster.run(slice_ns * i // CHUNKS)
            chunks_s.append(time.perf_counter() - t)
        if mode == "time":
            probes_s.append(probe())
        t2 = time.perf_counter()
        outputs, readout_s = {}, {}
        if cluster.obs is not None:
            for key in ("exposition", "job_report"):
                t = time.perf_counter()
                outputs[key] = getattr(cluster.obs, key)()
                readout_s[f"obs.{key}_s"] = time.perf_counter() - t
        t3 = time.perf_counter()
        if mode == "time":
            probes_s.append(probe())
        if profile is not None:
            profile.disable()
    finally:
        gc.callbacks.remove(gc_clock)
    out = {
        "setup_s": t1 - t0,
        # the probes are timed apart and left out of both
        "run_s": sum(chunks_s) + t3 - t2,
        "sim_run_s": sum(chunks_s),
        # the last chunk is the end-of-run read-outs
        "chunks_s": chunks_s + [t3 - t2],
        "probes_s": probes_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host.gc.pause_s": gc_clock.pause_s,
        "host.gc.gen2_collections": gc_clock.gen2,
        "host.gc.collected": gc_clock.collected,
        "events": cluster.sim.env.processed_events,
        "sim": workloads.sim_metrics(cluster),
        "errors": workloads.check(name, cluster, outputs),
    }
    out.update(readout_s)
    if profile is not None:
        out["profile"] = layers.breakdown(profile)
    if mode == "count":
        out["counts"] = workloads.layer_counts(cluster, gc.get_objects())
    return out


if __name__ == "__main__":
    name, seed, slice_ns, mode = sys.argv[1:5]
    if mode not in MODES:
        sys.exit(f"mode must be one of {MODES}, not {mode!r}")
    print(json.dumps(repeat(name, int(seed), int(slice_ns), mode)), flush=True)
    # Skip tearing down the simulated cluster object by object.
    os._exit(0)
