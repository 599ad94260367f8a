"""Server launcher for the served workloads; runs in its own process.

    python3 perfbench/server.py --spec SPEC.json --wal DIR \\
        --max-batch N --checkpoint-interval C [--deep 0|1] \\
        [--trace SPANS.json]

Builds one durable tenant (one in-process shard, WAL and checkpoints on,
background flusher running) behind a ``repro.net`` TCP server on an
ephemeral localhost port, prints ``LISTEN host port``, then waits for a
line on stdin.  Flushes are size-triggered: the deadline is an hour, far
above the time a batch takes to fill.

``quit`` (or end of input) shuts down.  ``finish`` drains the server,
runs ``SpannerService.self_check`` (``--deep 0`` swaps its all-vertex
stretch pass for a sampled one), prints one ``RESULT {json}`` line with
the tenant's counters, final graph digest, charged work, final
spanner-to-graph ratio and peak RSS, writes the spans when traced, then
shuts down.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def graph_digest(edges) -> str:
    """Order-independent digest of an edge set."""
    flat = json.dumps(sorted([int(u), int(v)] for u, v in edges))
    return hashlib.sha256(flat.encode()).hexdigest()


def _count_applies(executor, acc: dict) -> None:
    """Sum charged work, depth and recourse over the executor's batches."""
    apply = executor.apply

    def counted(batch, seq=None):
        result = apply(batch, seq=seq)
        acc["work"] += result.work
        acc["depth"] += result.depth
        acc["recourse"] += len(result.delta_ins) + len(result.delta_del)
        return result

    executor.apply = counted


def _sampled_stretch(spec: dict, graph: set, spanner: set) -> list[str]:
    """Subgraph and stretch on sampled pairs: the deep check's stretch
    pass runs a bounded BFS from every vertex, which is too slow on the
    larger graphs."""
    import numpy as np

    from repro.verify import pairwise_stretch

    if not spanner <= graph:
        return ["spanner is not a subgraph of the graph"]
    n, k = spec["n"], spec["k"]
    rng = np.random.default_rng(spec["seed"] + 1)
    pairs = [(u, v) for u in rng.integers(n, size=4).tolist()
             for v in rng.integers(n, size=16).tolist() if u != v]
    worst = pairwise_stretch(n, graph, spanner, pairs)
    if worst > 2 * k - 1:
        return [f"sampled stretch {worst} exceeds {2 * k - 1}"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--wal", required=True)
    ap.add_argument("--max-batch", type=int, required=True)
    ap.add_argument("--checkpoint-interval", type=int, required=True)
    ap.add_argument("--deep", type=int, choices=(0, 1), default=1)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.net.server import NetServerConfig, ThreadedServer
    from repro.net.tenants import TenantConfig, TenantManager
    from repro.service.admission import AdmissionConfig
    from repro.service.batcher import BatcherConfig

    from perfbench.spans import Tracer

    spec = json.loads(Path(args.spec).read_text())
    tenants = TenantManager()
    tenant = tenants.create(TenantConfig(
        name="bench", spec=spec, shards=1,
        batcher=BatcherConfig(max_batch=args.max_batch, max_delay=3600.0),
        admission=AdmissionConfig(max_pending=4 * args.max_batch),
        wal_dir=args.wal, checkpoint_interval=args.checkpoint_interval,
    ))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install("server")
    acc = {"work": 0, "depth": 0, "recourse": 0}
    svc = tenant.service
    _count_applies(svc.executor, acc)
    server = ThreadedServer(tenants, NetServerConfig(port=0)).start()
    try:
        print(f"LISTEN {server.host} {server.port}", flush=True)
        command = sys.stdin.readline().strip()
        server.stop()
        if command == "finish":
            if tracer is not None:
                tracer.uninstall()
            # before the self-check, which builds a second structure
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            t0 = time.perf_counter()
            verification = svc.self_check(deep=bool(args.deep))
            violations = [str(v) for v in verification.violations]
            graph = svc.graph_edges()
            if not args.deep:
                violations += _sampled_stretch(spec, graph,
                                               svc.snapshot_edges())
            check_s = time.perf_counter() - t0
            m = svc.metrics
            report = {
                "violations": violations,
                "check_s": check_s,
                "flushes": m.counter("flushes").value,
                "wal_records": m.counter("wal_records").value,
                "checkpoints": m.counter("checkpoints").value,
                "ops_applied": m.counter("ops_applied").value,
                "shed": m.counter("shed").value
                + m.counter("shed_degraded").value
                + m.counter("query_shed").value,
                "committed_seq": svc.committed_seq,
                "graph_digest": graph_digest(graph),
                "spanner_to_graph_ratio":
                    len(svc.snapshot_edges()) / max(len(graph), 1),
                "peak_rss_mb": rss_mb,
                **acc,
            }
            if tracer is not None:
                tracer.write(args.trace)
            print("RESULT " + json.dumps(report), flush=True)
    finally:
        server.stop()
        tenants.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
