"""The repository benchmark: host cost of three simulated-cluster workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; nothing needs building. Each
repeat is one fresh interpreter running ``perfbench/repeat.py``, and
repeats run one after another, never side by side.

``--trace 0`` repeats the workload until ``--seconds`` is spent (at
least three times) and reports the medians of the end-to-end host
metrics. ``--trace 1`` runs the workload once untraced (GC numbers,
event rate, exact per-layer counts) and once under cProfile (self time
per ``repro`` layer, ``trace_overhead``); no traced timing reaches an
end-to-end metric.

Stdout holds a table of every metric with its unit and kind (host
cost, simulated time or exact count), then one JSON line ``{"report": ...}`` with the
run's metadata and raw per-repeat values, then the result line the
metric names in ``BENCHMARK.json`` describe. The outputs are checked:
a repeat whose checks fail counts as failed, and ``correct`` is false
unless every check passed and all repeats at the seed simulated
exactly the same thing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: seed reserved for confirming a gain claim; never tune against it
HELD_OUT_SEED = 20061

MIN_REPEATS = 3
#: one repeat may not take longer than this (the first, in a fresh
#: checkout, also compiles the sources)
REPEAT_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "run_ref_per_kevent": "ref/kevent",
              "peak_rss_mb": "MB"}

#: per-layer count units other than "count"; "sim_ms" is simulated time
COUNT_UNITS = {"kernel.busy_ms": "sim_ms", "server.queue_p99_ms": "sim_ms",
               "hw.icm_miss_ratio": "ratio", "monitoring.fail_ratio": "ratio"}
#: units of the simulated outcomes, by name suffix
SIM_UNITS = {"_us": "sim_us", "_ms": "sim_ms", "_rps": "1/sim_s",
             "_frac": "ratio", "_samples": "count", "_issued": "count"}


def _workloads():
    """The workload definitions; they import the simulator from ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    return workloads


def spawn(name: str, seed: int, slice_ns: int, mode: str) -> dict:
    """Run one repeat in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "repeat.py"),
           name, str(seed), str(slice_ns), mode]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=REPEAT_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repeat of {name} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values) -> float:
    """Inter-quartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def source_digest() -> str:
    """SHA-256 over ``src/repro``'s Python sources, in path order."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    paths = sorted(os.path.join(d, f) for d, _, fs in os.walk(base)
                   for f in fs if f.endswith(".py"))
    for path in paths:
        h.update(os.path.relpath(path, base).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def commit():
    """HEAD's commit id, or None outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_ref(rep: dict) -> float:
    """``run_s`` in units of the speed probe, step by step.

    Each timed step of the run (a 1/20 of the slice, or the read-outs) is
    divided by the mean of the probes taken just before and just after
    it, so a stretch where the shared machine runs slow for everyone
    cancels out.
    """
    probes = rep["probes_s"]
    return sum(c / ((probes[i] + probes[i + 1]) / 2)
               for i, c in enumerate(rep["chunks_s"]))


def identity(rep: dict) -> str:
    """What must repeat bit for bit across the repeats at one seed."""
    return json.dumps([rep["events"], rep["sim"]], sort_keys=True)


def layer_rows(plain: dict, traced: dict) -> dict:
    """Per-layer metrics: name -> (value, unit, kind)."""
    prof = traced["profile"]
    rows = {}
    for layer in layers.LAYERS:
        v = prof["layers"][layer]
        rows[f"layer.{layer}.self_s"] = (v["self_s"], "s", "host")
        rows[f"layer.{layer}.calls"] = (v["calls"], "count", "exact")
    overhead = ((traced["setup_s"] + traced["run_s"])
                / (plain["setup_s"] + plain["run_s"]))
    rows["trace_overhead"] = (overhead, "ratio", "host")
    rows["setup.build_cluster_s"] = (prof["build_cluster_s"], "s", "host")
    rows["host.gc.pause_s"] = (plain["host.gc.pause_s"], "s", "host")
    for key in ("host.gc.gen2_collections", "host.gc.collected"):
        rows[key] = (plain[key], "count", "host")
    rows["sim.events_per_host_s"] = (plain["events"] / plain["sim_run_s"],
                                     "1/s", "host")
    for key, value in plain["counts"].items():
        unit = COUNT_UNITS.get(key, "count")
        rows[key] = (value, unit, "simulated" if "sim" in unit else "exact")
    return rows


def measure(name: str, seed: int, seconds: float, trace: bool,
            slice_ns=None) -> dict:
    """Run workload ``name`` and check it; see the module docstring.

    ``slice_ns`` shortens the simulated slice (the smoke test uses it).
    """
    params = _workloads().PARAMS[name]
    slice_ns = slice_ns or params["slice_ns"]
    reps = []
    t0 = time.perf_counter()
    if trace:
        reps.append(spawn(name, seed, slice_ns, "count"))
        reps.append(spawn(name, seed, slice_ns, "profile"))
    else:
        while len(reps) < MIN_REPEATS or (
                time.perf_counter() - t0
                + statistics.mean(r["wall_s"] for r in reps) <= seconds):
            reps.append(spawn(name, seed, slice_ns, "time"))
    first = identity(reps[0])
    failed = sum(1 for r in reps if r["errors"] or identity(r) != first)

    if trace:
        result = layer_rows(*reps)
        shown = {k: (reps[0][k], "s", "host")
                 for k in ("obs.exposition_s", "obs.job_report_s") if k in reps[0]}
    else:
        for r in reps:
            r["run_ref"] = run_ref(r)
            r["run_ref_per_kevent"] = r["run_ref"] / r["events"] * 1e3
        result = {k: (statistics.median(r[k] for r in reps), unit, "host")
                  for k, unit in END_TO_END.items()}
        shown = {"run_s": (statistics.median(r["run_s"] for r in reps), "s", "host"),
                 "run_ref": (statistics.median(r["run_ref"] for r in reps), "ref", "host")}
        for k, v in reps[0]["sim"].items():
            unit = next(u for sfx, u in SIM_UNITS.items() if k.endswith(sfx))
            shown[k] = (v, unit, "exact" if unit == "count" else "simulated")
    report = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": int(trace),
        "params": params,
        "slice_ns": slice_ns,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "platform": " ".join(platform.uname()[i] for i in (0, 2, 4)),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": seconds,
        "repeats": len(reps),
        "median": {k: v[0] for k, v in result.items()},
        "spread": {k: spread([r[k] for r in reps])
                   for k in (*END_TO_END, "run_s", "run_ref") if k in reps[0]},
        "also_printed": {k: v[0] for k, v in shown.items()},
        "errors": sorted({e for r in reps for e in r["errors"]}),
        "identical_across_repeats": all(identity(r) == first for r in reps),
        "raw": reps,
    }
    return {"result": result, "shown": shown, "report": report,
            "attempted": len(reps), "failed": failed}


def main(argv=None, slice_ns=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(_workloads().PARAMS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  slice_ns=slice_ns)
    rows = {**out["result"], **out["shown"]}
    width = max(map(len, rows))
    for key, (value, unit, kind) in rows.items():
        print(f"{key:<{width}}  {value:>16.6g} {unit:<10} {kind}")
    print(json.dumps({"report": out["report"]}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _kind) in out["result"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
