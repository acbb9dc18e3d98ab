"""Charge a cProfile run's self time to ``repro.<package>`` layers.

A function defined under ``src/repro/<package>/`` belongs to that
package; a top-level module (``repro/api.py``) is its own layer. Time
spent in builtins, C code, the standard library and third-party code is
charged to the ``repro`` layers that called it, split by how much of it
each caller caused (cProfile's per-caller time), following callers up
through further non-``repro`` frames. Time no ``repro`` frame caused is
``unattributed``.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict

#: layers reported by name; every other repro module is summed as "other"
LAYERS = ("sim", "kernel", "transport", "hw", "monitoring", "federation",
          "telemetry", "tracing", "server", "workloads", "congestion",
          "tenancy", "faults", "obs", "api")

_MARK = os.sep + "repro" + os.sep


def layer_of(filename: str):
    """The repro layer a source file belongs to, or None outside repro."""
    idx = filename.rfind(_MARK)
    if idx < 0:
        return None
    head = filename[idx + len(_MARK):].split(os.sep, 1)[0]
    name = head[:-3] if head.endswith(".py") else head
    return name if name in LAYERS else "other"


def breakdown(profile) -> dict:
    """``{layer: {"self_s", "calls"}}`` plus ``unattributed`` and totals."""
    stats = pstats.Stats(profile).stats
    memo: dict = {}

    def owners(func, visiting=frozenset()):
        """Share of ``func``'s self time owed to each layer."""
        if func in memo:
            return memo[func]
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        callers = {c: v for c, v in stats[func][4].items() if c not in visiting}
        weights = {c: v[2] for c, v in callers.items()}  # time per caller
        if sum(weights.values()) <= 0:
            weights = {c: v[1] for c, v in callers.items()}  # calls per caller
        total = sum(weights.values())
        if total <= 0:
            return {"unattributed": 1.0}
        share = defaultdict(float)
        for caller, w in weights.items():
            for layer, frac in owners(caller, visiting | {func}).items():
                share[layer] += frac * w / total
        if not visiting:
            # a nested result may be cut short by a recursion cycle
            memo[func] = share
        return share

    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    total = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        total += tt
        own = layer_of(func[0])
        if own is not None:
            calls[own] += nc
        for layer, frac in owners(func).items():
            self_s[layer] += tt * frac
    build_cluster_s = sum(v[3] for f, v in stats.items()
                          if f[2] == "build_cluster"
                          and f[0].endswith(os.path.join("hw", "cluster.py")))
    return {
        "layers": {name: {"self_s": self_s.get(name, 0.0),
                          "calls": calls.get(name, 0)}
                   for name in (*LAYERS, "other")},
        "unattributed_s": self_s.get("unattributed", 0.0),
        "total_self_s": total,
        "build_cluster_s": build_cluster_s,
    }
