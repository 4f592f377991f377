"""Per-layer metrics from a traced round.

Self times, call counts and resume counts come from the spans the
tracer recorded over the traced round's set-up and simulation, so they
cover the whole simulated run, warm-up included.  Rates and fractions
(hit rates, busy fractions) are the program's own statistics over the
measurement window, read from the round's results.
"""

from __future__ import annotations

import spans

S, COUNT, FRACTION = "s", "count", "fraction"

#: Readings taken from the program's statistics: name -> unit.
READINGS = {
    "bufferpool.hit_rate": FRACTION,
    "sim.events": COUNT,
    "media.frames": COUNT,
    "terminal.glitches": COUNT,
    "storage.busy_frac": FRACTION,
    "prefetch.useful_frac": FRACTION,
    "cpu.busy_frac": FRACTION,
    "cluster.failovers": COUNT,
    "cluster.rebuild_bytes": COUNT,
    "workload.sessions": COUNT,
    "sharing.shared_streams": COUNT,
    "sharing.chain_reads": COUNT,
    "proxy.hit_rate": FRACTION,
}


def per_layer(tracer: spans.Tracer, traced, plain) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``; a layer the
    workload does not use reads 0."""
    metrics = {
        f"{layer}.self_s": (seconds, S)
        for layer, seconds in tracer.layer_self_s().items()
    }
    acquires = tracer.count("bufferpool", "BufferPool.acquire")
    resumes = tracer.count("bufferpool", "BufferPool.acquire", resumes=True)
    scanned = tracer.pages_scanned
    probes = tracer.count("experiments", "execute_request")
    counts = {
        "bufferpool.acquires": acquires,
        "bufferpool.acquire_resumes": resumes,
        "bufferpool.victim_calls": tracer.count_named("bufferpool", "victim"),
        "bufferpool.pages_scanned": scanned,
        "bufferpool.alloc_waits": resumes - acquires,
        "terminal.blocks": tracer.count("terminal", "Terminal._fetch_block"),
        "server.requests": tracer.count("server", "VideoServerNode.request_block"),
        "sched.calls": (
            tracer.count_named("sched", "push") + tracer.count_named("sched", "pop")
        ),
        "storage.reads": tracer.count("storage", "DiskDrive.submit"),
        "prefetch.issued": tracer.count("prefetch", "DiskPrefetcher._fetch"),
        "netsim.transfers": tracer.count("netsim", "NetworkBus.transfer"),
        "layout.locates": tracer.count_named("layout", "locate"),
        "cluster.routes": tracer.count_named("cluster", "route"),
        "experiments.probes": probes,
    }
    metrics.update((name, (value, COUNT)) for name, value in counts.items())
    metrics["bufferpool.scan_yield"] = (
        tracer.victims_found / scanned if scanned else 0.0,
        FRACTION,
    )
    metrics["experiments.probe_s"] = (
        tracer.inclusive("experiments", "execute_request") / probes if probes else 0.0,
        S,
    )
    metrics.update(
        (name, (traced.readings.get(name, 0), unit)) for name, unit in READINGS.items()
    )
    covered = sum(tracer.self_s)
    metrics["trace.overhead_s"] = (sum(traced.parts) - sum(plain.parts), S)
    metrics["trace.wall_s"] = (tracer.wall_s, S)
    metrics["trace.outside_s"] = (tracer.wall_s - covered, S)
    return metrics
