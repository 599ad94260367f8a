"""``batch_updates``: the library update path, without a server.

``FullyDynamicSpanner(k=3)`` on a dense G(n, m) graph takes churn
batches through :meth:`update`; after every fourth batch the caller
reads the maintained spanner through the batched read path: it applies
the spanner's net change since the last read to an ``ArrayDynamicGraph``
view and answers a query batch with
:func:`repro.queries.batch.answer_queries`, as the serving engine does
with its snapshot.  Every call is timed from here.

A read's latency is the ``answer_queries`` call alone.  Bringing the
view up to date is timed apart (the serving engine does it when a batch
commits, not when a read arrives); it stays inside the run's wall time,
so ``throughput_ops_s`` pays for it.  Timed together, the read latency
above its median followed the size of the net change, which a level
rebuild inflates by a seed-dependent amount: the read p90 ran 1.10-1.39
times the median over ten seeds and spread 0.27 of its median.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

from perfbench.gen import batch_stream
from perfbench.stats import latency_summary

#: workload parameters; the batch count scales with ``--seconds``
PARAMS = {"n": 2048, "m": 65536, "k": 3, "batch_size": 512,
          "reads_every": 4, "reads_per_batch": 4, "batches_per_second": 18,
          "setups": 9, "stretch_sources": 4}


def _build(n, edges, k, seed, cost):
    from repro.spanner import FullyDynamicSpanner

    return FullyDynamicSpanner(n, edges, k=k, seed=seed,
                               base_capacity=len(edges) // 8, cost=cost)


def _drive(stream, sp, cost, tracer=None) -> dict:
    """Apply every batch and its read batch; returns timings and counts."""
    from repro.graph.array_graph import ArrayDynamicGraph
    from repro.queries import batch as qbatch

    n = stream.n
    h = set(sp.spanner_edges())
    adj = ArrayDynamicGraph(n, h)
    # net spanner change since the read view was last brought up to date
    ins_since: set = set()
    del_since: set = set()
    w0, d0 = cost.work, cost.depth
    writes, reads, refreshes, bad_reads = [], [], [], 0
    recourse = 0
    if tracer is not None:
        tracer.install("library")
    t_start = time.perf_counter()
    try:
        for (ins, dels), items in zip(stream.batches, stream.reads):
            t0 = time.perf_counter()
            d_ins, d_del = sp.update(insertions=ins, deletions=dels)
            writes.append(time.perf_counter() - t0)
            recourse += len(d_ins) + len(d_del)
            h -= d_del
            h |= d_ins
            for e in d_del:
                if e in ins_since:
                    ins_since.discard(e)
                else:
                    del_since.add(e)
            for e in d_ins:
                if e in del_since:
                    del_since.discard(e)
                else:
                    ins_since.add(e)
            if not items:
                continue
            # a read brings the view up to date, then answers the batch
            t0 = time.perf_counter()
            if del_since:
                adj.delete_batch(del_since)
            if ins_since:
                adj.insert_batch(ins_since)
            t1 = time.perf_counter()
            answers, _ = qbatch.answer_queries(items, edge_set=h,
                                               adjacency=adj, n=n)
            reads.append(time.perf_counter() - t1)
            refreshes.append(t1 - t0)
            ins_since.clear()
            del_since.clear()
            bad_reads += _bad_answers(items, answers, h)
        wall = time.perf_counter() - t_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    updates = sum(len(i) + len(d) for i, d in stream.batches)
    return {"wall": wall, "writes": writes, "reads": reads,
            "refreshes": refreshes,
            "updates": updates, "work": cost.work - w0,
            "depth": cost.depth - d0, "recourse": recourse,
            "bad_reads": bad_reads, "spanner": h}


def _bad_answers(items, answers, h) -> int:
    """Answers that break what the read batch itself implies."""
    bad = 0
    conn = {}
    for (kind, payload), a in zip(items, answers):
        if kind == "contains":
            bad += a is not (tuple(payload) in h)
        elif kind == "connected":
            bad += not isinstance(a, bool)
            conn[payload] = a
    for (kind, payload), a in zip(items, answers):
        if kind == "distance":
            ok = a == math.inf or (a >= 1 and a == int(a))
            if payload in conn:
                ok = ok and conn[payload] == (a != math.inf)
            bad += not ok
    return bad


def _check(stream, sp, spanner, k, params, seed) -> list[str]:
    """The structure's own invariants plus sampled stretch."""
    import numpy as np

    from repro.verify import pairwise_stretch

    problems = []
    graph = set(sp.edges())
    if graph != stream.final:
        problems.append("final graph differs from the applied updates")
    if not spanner <= graph:
        problems.append("spanner is not a subgraph of the graph")
    if set(sp.spanner_edges()) != spanner:
        problems.append("spanner drifted from the returned deltas")
    try:
        sp.check_invariants()
    except AssertionError as exc:
        problems.append(f"check_invariants: {exc}")
    rng = np.random.default_rng(seed + 1)
    n = stream.n
    sources = rng.integers(n, size=params["stretch_sources"]).tolist()
    pairs = [(u, v) for u in sources
             for v in rng.integers(n, size=16).tolist() if u != v]
    worst = pairwise_stretch(n, graph, spanner, pairs)
    if worst > 2 * k - 1:
        problems.append(f"sampled stretch {worst} exceeds {2 * k - 1}")
    return problems


def run(seed: int, seconds: int, tracer=None) -> dict:
    from repro.pram.cost import CostModel

    p = PARAMS
    batches = max(1, round(seconds * p["batches_per_second"]))
    stream = batch_stream(seed, p["n"], p["m"], batches, p["batch_size"],
                          p["reads_every"], p["reads_per_batch"])
    # set-ups run on both sides of the timed phase, so their median
    # samples the host's speed at both ends of the run
    before = (p["setups"] + 1) // 2
    setups = []
    for i in range(p["setups"]):
        # each set-up, and the timed phase, starts with no garbage left
        # from the last one, so peak RSS never holds two structures
        sp = None
        gc.collect()
        cost = CostModel()
        t0 = time.perf_counter()
        sp = _build(stream.n, stream.initial, p["k"], seed, cost)
        setups.append(time.perf_counter() - t0)
        if i != before - 1:
            continue
        gc.collect()
        res = _drive(stream, sp, cost, tracer)
        t0 = time.perf_counter()
        problems = _check(stream, sp, res["spanner"], p["k"], p, seed)
        check_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if res["bad_reads"]:
        problems.append(f"{res['bad_reads']} read answer(s) inconsistent")
    w, r = latency_summary(res["writes"]), latency_summary(res["reads"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (res["updates"] / res["wall"], "ops/s"),
        "write_p50_ms": (w["p50_ms"], "ms"),
        "read_p50_ms": (r["p50_ms"], "ms"),
        "read_p90_ms": (r["p90_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_per_update": (res["work"] / res["updates"], "count"),
        "depth_per_batch": (res["depth"] / len(stream.batches), "count"),
        "recourse_per_update": (res["recourse"] / res["updates"], "count"),
    }
    return {
        "metrics": metrics,
        "attempted": len(stream.batches) + len(res["reads"]),
        "failed": res["bad_reads"],
        "problems": problems,
        "repeat": {"work": res["work"], "depth": res["depth"],
                   "recourse": res["recourse"]},
        "params": dict(p, batches=batches),
        "samples": {"write": w, "read": r,
                    "refresh": latency_summary(res["refreshes"])},
        "gen_s": stream.gen_s,
        "setup_samples_s": setups,
        "check_s": check_s,
        "spanner_to_graph_ratio": len(res["spanner"]) / len(stream.final),
        "dumps": [tracer.dump()] if tracer is not None else [],
    }
