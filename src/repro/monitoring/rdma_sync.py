"""RDMA-Sync (the paper's §3.2.2, Fig 2b).

No back-end monitoring process at all. The back-end's *kernel data
structures* (jiffies counters, run-queue statistics — the ``kern.load``
live region) are registered read-only; the front end RDMA-reads them on
every query and derives the load itself. Properties the paper claims,
all emergent here:

* **accuracy** — the DMA engine samples kernel memory at the read
  instant, so the data is as fresh as the wire (Fig 5);
* **zero perturbation** — no back-end thread exists to steal CPU from
  applications (Fig 4);
* **load resilience** — latency is NIC + fabric only (Fig 3);
* **kernel detail** — structures with no /proc interface (``irq_stat``)
  are equally readable (Fig 6); see
  :class:`~repro.monitoring.e_rdma_sync.ExtendedRdmaSyncScheme`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

from repro.monitoring.base import MonitoringScheme, make_read_post
from repro.monitoring.loadinfo import LoadCalculator, LoadInfo
from repro.transport.verbs import (
    AccessFlags,
    MemoryRegionHandle,
    ProtectionDomain,
    QueuePair,
    WqeBatch,
    connect_monitor_qp,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import TaskContext


class _Wiring:
    """One back-end's QP, kernel MRs, calculator and prebuilt posts."""

    __slots__ = ("qp", "load_mr", "irq_mr", "calc", "load_post", "irq_post")

    def __init__(self, qp: QueuePair, load_mr: MemoryRegionHandle,
                 irq_mr: MemoryRegionHandle, calc: LoadCalculator) -> None:
        self.qp = qp
        self.load_mr = load_mr
        self.irq_mr = irq_mr
        #: front-end side calculator (jiffy differencing happens here)
        self.calc = calc
        #: prebuilt untraced post closures (steady-state probe cache)
        self.load_post = make_read_post(qp, load_mr)
        self.irq_post = make_read_post(qp, irq_mr)


class RdmaSyncScheme(MonitoringScheme):
    """Synchronous (kernel-memory) RDMA monitoring."""

    name = "rdma-sync"
    one_sided = True
    backend_threads = 0
    #: whether queries additionally fetch irq_stat
    read_irq_stat = False

    def __init__(self, sim, *, interval: Optional[int] = None, with_irq_detail: bool = False) -> None:
        super().__init__(sim, interval=interval)
        if with_irq_detail:
            self.read_irq_stat = True
        #: per-back-end wiring, keyed by back-end index, for the back-ends
        #: queried so far
        self._wired: Dict[int, _Wiring] = {}

    def _deploy(self) -> None:
        # Nothing to do up front: each back-end is wired on its first
        # query (:meth:`_wiring`). Creating a QP, registering the kernel
        # MRs and building the post closures is pure bookkeeping — no
        # events, no RNG draws, no simulated time — so deferring it never
        # perturbs a run. It keeps the scheme's state proportional to the
        # back-ends it actually polls: a federation leaf sees the whole
        # cluster as its universe (so quarantine rebalancing can move
        # members between shards without re-deploying) but only wires
        # its own members, and a member migrated in is wired on the
        # leaf's next round.
        pass

    def _wiring(self, i: int) -> _Wiring:
        """Back-end ``i``'s wiring, materialized on first use."""
        w = self._wired.get(i)
        if w is None:
            be = self.backends[i]
            pd = ProtectionDomain.for_node(be)
            # Kernel structures are registered READ-ONLY (§6 security).
            lmr = pd.register(be.memory.get("kern.load"), AccessFlags.REMOTE_READ)
            imr = pd.register(be.memory.get("kern.irq_stat"), AccessFlags.REMOTE_READ)
            qp_fe, _ = connect_monitor_qp(self.frontend, be)
            w = self._wired[i] = _Wiring(qp_fe, lmr, imr, LoadCalculator(be.name))
        return w

    # ------------------------------------------------------------------
    def query(self, k: "TaskContext", backend_index: int) -> Generator:
        mon = self.sim.cfg.monitor
        issued = k.now
        w = self._wiring(backend_index)
        span = self._probe_span(backend_index)
        if span is None:
            post = w.load_post
        else:
            qp = w.qp
            load_mr = w.load_mr
            post = lambda: qp._post_read(load_mr.rkey, load_mr.nbytes, ctx=span)
        wc, attempts = yield from self._verb_retry(k, post)
        if wc is None or not wc.ok:
            return self._record_failure(backend_index, issued, span=span,
                                        attempts=attempts)
        irq = None
        if self.read_irq_stat:
            if span is None:
                irq_post = w.irq_post
            else:
                qp = w.qp
                irq_mr = w.irq_mr
                irq_post = lambda: qp._post_read(irq_mr.rkey, irq_mr.nbytes, ctx=span)
            wc_irq, irq_attempts = yield from self._verb_retry(k, irq_post)
            attempts += irq_attempts - 1
            if wc_irq is None or not wc_irq.ok:
                return self._record_failure(backend_index, issued, span=span,
                                            attempts=attempts)
            irq = wc_irq.value
        # Derive load on the *front end* from the raw counters.
        yield k.compute(mon.compose_cost)
        info = w.calc.compute(wc.value, irq)
        return self._record(backend_index, issued, info, span=span,
                            attempts=attempts)

    def query_many(self, k: "TaskContext", indices) -> Generator:
        """Batched shard fan-out: post every WQE, ring ONE doorbell.

        The federation leaf path. Unlike :meth:`query_all` (which pays
        a doorbell per back-end, the historical front-end behaviour,
        kept byte-identical), a leaf posts the whole shard's read WQEs
        to its send queues and rings the doorbell once — the HCA then
        fetches and services them without further CPU help, so a shard
        round costs one doorbell + overlapped wire time.
        """
        indices = list(indices)
        if self.policy.enabled or not indices:
            out = yield from MonitoringScheme.query_many(self, k, indices)
            return out
        net = self.sim.cfg.net
        mon = self.sim.cfg.monitor
        issued = k.now
        get = self._wired.get
        wired = [get(i) or self._wiring(i) for i in indices]
        tracer = self.frontend.span_tracer
        if tracer is None or not tracer.enabled:
            spans = dict.fromkeys(indices)
        else:
            spans = {i: self._probe_span(i) for i in indices}
        batch = WqeBatch(net=net)
        load_events = [
            batch.post_read(w.qp, w.load_mr.rkey, w.load_mr.nbytes, ctx=spans[i])
            for i, w in zip(indices, wired)
        ]
        irq_events = {}
        if self.read_irq_stat:
            irq_events = {
                i: batch.post_read(w.qp, w.irq_mr.rkey, w.irq_mr.nbytes,
                                   ctx=spans[i])
                for i, w in zip(indices, wired)
            }
        yield from batch.ring(k)
        out: Dict[int, LoadInfo] = {}
        for i, w, ev in zip(indices, wired, load_events):
            wc = yield k.wait(ev)
            irq = None
            if self.read_irq_stat:
                wc_irq = yield k.wait(irq_events[i])
                if not wc_irq.ok:
                    out[i] = self._record_failure(i, issued, span=spans[i])
                    continue
                irq = wc_irq.value
            if not wc.ok:
                out[i] = self._record_failure(i, issued, span=spans[i])
                continue
            yield k.compute(mon.compose_cost)
            out[i] = self._record(i, issued, w.calc.compute(wc.value, irq),
                                  span=spans[i])
        return out

    def query_all(self, k: "TaskContext") -> Generator:
        if self.policy.enabled:
            # Bounded probes: fall back to sequential per-backend queries
            # so each one can time out and retry independently.
            out = yield from MonitoringScheme.query_all(self, k)
            return out
        net = self.sim.cfg.net
        mon = self.sim.cfg.monitor
        issued = k.now
        get = self._wired.get
        wired = [get(i) or self._wiring(i) for i in range(len(self.backends))]
        spans = [self._probe_span(i) for i in range(len(wired))]
        load_events, irq_events = [], []
        for i, w in enumerate(wired):
            yield k.compute(net.doorbell_cost)
            lmr = w.load_mr
            load_events.append(w.qp._post_read(lmr.rkey, lmr.nbytes, ctx=spans[i]))
        if self.read_irq_stat:
            for i, w in enumerate(wired):
                yield k.compute(net.doorbell_cost)
                imr = w.irq_mr
                irq_events.append(w.qp._post_read(imr.rkey, imr.nbytes, ctx=spans[i]))
        out: Dict[int, LoadInfo] = {}
        for i, (w, ev) in enumerate(zip(wired, load_events)):
            wc = yield k.wait(ev)
            irq = None
            if self.read_irq_stat:
                wc_irq = yield k.wait(irq_events[i])
                if not wc_irq.ok:
                    out[i] = self._record_failure(i, issued, span=spans[i])
                    continue
                irq = wc_irq.value
            if not wc.ok:
                out[i] = self._record_failure(i, issued, span=spans[i])
                continue
            yield k.compute(mon.compose_cost)
            out[i] = self._record(i, issued, w.calc.compute(wc.value, irq),
                                  span=spans[i])
        return out
