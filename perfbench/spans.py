"""Span tracer for the traced run, installed from the benchmark's files.

The tracer wraps public calls of the ``repro`` layers at class or module
level; nothing is wrapped unless :meth:`Tracer.install` runs, so the
end-to-end runs measure the untouched program.  A span is
``[name, start, end, parent, request id, charged work]``; both sides of
the wire use ``time.perf_counter``, so client and server spans of one
request join on the request id.  The current span and request id live
in context variables, which ``asyncio`` tasks and ``asyncio.to_thread``
carry over, so a server span finds its parent across the thread hop.

Very hot calls (``PriorityArray`` probes, ES-tree rekeys) are counted,
not timed.  Timed calls whose object carries a recording cost model are
wrapped in a cost-model frame, giving the call's inclusive charged work;
frames compose exactly like the charges they enclose, so totals do not
change.

A layer's self time is the summed duration of its spans minus the
time their direct child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["LAYERS", "Tracer", "layer_report"]

#: the ``repro`` layers on the measured paths, in report order
LAYERS = ("net", "service", "resilience", "spanner", "bfs", "structures",
          "graph", "queries", "pram")


def _cost_of_self(args, kwargs):
    return getattr(args[0], "_cost", None)


def _cost_kwarg(args, kwargs):
    return kwargs.get("cost")


class Tracer:
    """In-memory span and counter store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self._cur = contextvars.ContextVar("perfbench_span", default=None)
        self._req = contextvars.ContextVar("perfbench_req", default=None)
        self._undo: list = []
        self._csr_seen: dict[int, int] = {}

    # -- wrapping -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        orig = owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, cost_of=None, req_of=None,
             before=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``cost_of(args, kwargs)`` returns the cost model to frame the
        call with; ``req_of(args, kwargs)`` a request id to tag it and
        its children with; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` record extra counts around it.
        """
        orig = owner.__dict__[attr]
        spans, cur, req = self.spans, self._cur, self._req

        if inspect.iscoroutinefunction(orig):
            @functools.wraps(orig)
            async def wrapper(*args, **kwargs):
                rid = req_of(args, kwargs) if req_of else req.get()
                rec = [name, 0.0, 0.0, cur.get(), rid, 0]
                spans.append(rec)
                tok, rtok = cur.set(rec), req.set(rid)
                rec[1] = perf_counter()
                try:
                    return await orig(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    cur.reset(tok)
                    req.reset(rtok)
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                rid = req_of(args, kwargs) if req_of else req.get()
                rec = [name, 0.0, 0.0, cur.get(), rid, 0]
                spans.append(rec)
                tok, rtok = cur.set(rec), req.set(rid)
                cost = cost_of(args, kwargs) if cost_of else None
                if cost is not None and not cost.enabled:
                    cost = None
                result = None
                rec[1] = perf_counter()
                try:
                    if cost is None:
                        result = orig(*args, **kwargs)
                    else:
                        with cost.frame() as fr:
                            result = orig(*args, **kwargs)
                        rec[5] = fr.work
                    return result
                finally:
                    rec[2] = perf_counter()
                    cur.reset(tok)
                    req.reset(rtok)
                    if after is not None:
                        after(args, kwargs, result)

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` under ``name``."""
        orig = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- what gets wrapped ------------------------------------------------------

    def install(self, side: str) -> None:
        """Wrap the calls of the layer table.

        ``side`` is ``"library"`` (the batch-update process), ``"client"``
        (the load generator of a served run) or ``"server"`` (the served
        process).
        """
        from repro.net import client as net_client
        from repro.net import protocol

        if side in ("client", "server"):
            self._install_net(side, net_client, protocol)
        if side == "client":
            return
        if side == "server":
            self._install_service()
        self._install_engine()

    def _install_net(self, side, net_client, protocol) -> None:
        sums, counts = self.sums, self.counts

        def frame_bytes(args, kwargs, result):
            counts["net.frames"] += 1
            sums["net.bytes"] += len(result) if result is not None else 0

        if side == "client":
            self.span(net_client.NetClient, "call", "net.client.call",
                      req_of=lambda a, kw: a[0]._next_id + 1)
            self.span(net_client, "encode_frame", "net.codec.encode",
                      after=frame_bytes)
        else:
            from repro.net import server as net_server

            self.span(net_server.NetServer, "_dispatch", "net.server.dispatch",
                      req_of=lambda a, kw: a[2].get("id"))
            self.span(net_server, "encode_frame", "net.codec.encode",
                      after=frame_bytes)
        self.span(protocol.FrameDecoder, "feed", "net.codec.decode")

    def _install_service(self) -> None:
        import time

        from repro.resilience.manager import RecoveryManager
        from repro.service import engine, queue
        from repro.service.admission import AdmissionController

        sums, counts = self.sums, self.counts
        self.span(engine.SpannerService, "submit_update", "service.submit")
        self.span(engine.SpannerService, "query_info", "service.query")
        self.span(engine.SpannerService, "query_batch", "service.query_batch")

        def shed(args, kwargs, result):
            if result is not None and not result.admitted:
                counts["service.shed"] += 1

        self.span(AdmissionController, "admit", "service.admit", after=shed)
        self.span(queue.CoalescingQueue, "offer", "service.queue.offer")

        def queue_waits(args, kwargs):
            q, now = args[0], kwargs.get("now")
            t = time.monotonic() if now is None else now
            sums["service.queue.wait_s"] += sum(
                t - p.enqueued_at for p in q._ops)

        self.span(queue.CoalescingQueue, "drain", "service.queue.drain",
                  before=queue_waits)

        def applied(args, kwargs, result):
            counts["service.flushes"] += 1
            sums["service.ops_applied"] += args[1].size

        self.span(engine.LocalExecutor, "apply", "service.apply",
                  cost_of=lambda a, kw: a[0]._cost, after=applied)

        def wal_bytes(args, kwargs, result):
            sums["resilience.wal.bytes"] += result or 0

        self.span(RecoveryManager, "log_applied", "resilience.wal",
                  after=wal_bytes)
        self.span(RecoveryManager, "write_checkpoint",
                  "resilience.checkpoint")

    def _install_engine(self) -> None:
        from repro.bfs.es_tree import BatchDynamicESTree
        from repro.graph.array_graph import ArrayDynamicGraph
        from repro.pram.cost import NULL_COST_MODEL, CostModel
        from repro.queries import batch as qbatch
        from repro.service import engine
        from repro.spanner.decremental import DecrementalSpanner
        from repro.spanner.fully_dynamic import FullyDynamicSpanner
        from repro.spanner.shift_clustering import ShiftedClustering
        from repro.structures.priority_array import PriorityArray

        sums, counts = self.sums, self.counts

        self.span(FullyDynamicSpanner, "update", "spanner.update",
                  cost_of=_cost_of_self)

        def rebuilt(args, kwargs, result):
            sums["spanner.rebuild.edges"] += len(args[2])

        self.span(DecrementalSpanner, "__init__", "spanner.rebuild",
                  cost_of=_cost_kwarg, after=rebuilt)
        self.span(DecrementalSpanner, "batch_delete", "spanner.decremental",
                  cost_of=_cost_of_self)
        self.span(ShiftedClustering, "batch_delete",
                  "spanner.shift_clustering", cost_of=_cost_of_self)
        self.span(BatchDynamicESTree, "batch_delete", "bfs.es_tree",
                  cost_of=_cost_of_self)
        self.count(BatchDynamicESTree, "update_edge_priority",
                   "bfs.es_tree.rekeys")
        for attr in ("find", "update_priority", "next_with"):
            self.count(PriorityArray, attr, "structures.priority_array.calls")

        for attr in ("insert_batch", "delete_batch"):
            self.span(ArrayDynamicGraph, attr, "graph.delta")
        self.span(ArrayDynamicGraph, "sorted_flat", "graph.sorted_flat")
        seen = self._csr_seen

        csr = ArrayDynamicGraph.__dict__["csr"]

        @functools.wraps(csr)
        def csr_epochs(g):
            counts["graph.csr.calls"] += 1
            if seen.get(id(g)) != g.version:
                counts["graph.csr.rebuilds"] += 1
                seen[id(g)] = g.version
            return csr(g)

        self._patch(ArrayDynamicGraph, "csr", csr_epochs)

        # the serving read path charges nothing by default; the traced
        # run hands it a recording cost model so msbfs work is counted
        answer = qbatch.__dict__["answer_queries"]

        @functools.wraps(answer)
        def answer_counted(items, **kwargs):
            if kwargs.get("cost", NULL_COST_MODEL) is NULL_COST_MODEL:
                kwargs["cost"] = CostModel()
            answers, stats = answer(items, **kwargs)
            sums["queries.asked"] += stats.queries
            sums["queries.unique"] += stats.unique
            return answers, stats

        self._patch(qbatch, "answer_queries", answer_counted)
        self.span(qbatch, "answer_queries", "queries.answer")
        engine.answer_queries = qbatch.answer_queries
        self._undo.append((engine, "answer_queries", answer))
        self.span(qbatch, "multi_source_bfs", "queries.msbfs",
                  cost_of=_cost_kwarg)
        self.span(qbatch, "batch_components", "queries.components")

    # -- output -----------------------------------------------------------------

    def dump(self) -> dict:
        """Spans (parents as indexes) and counters, JSON-ready."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = [[name, start, end,
                  index.get(id(parent)) if parent is not None else None,
                  rid, work]
                 for name, start, end, parent, rid, work in self.spans]
        return {"spans": spans, "counts": dict(self.counts),
                "sums": dict(self.sums)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def _self_times(spans: list) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_report(dumps: list[dict]) -> dict[str, float]:
    """The per-layer metrics from one or two processes' dumps.

    The first dump is the process that issued the requests (the load
    generator, or the library process); a second one is the server.
    """
    m: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    sums: Counter = Counter()
    service_by_req: dict = defaultdict(float)
    client_by_req: dict = defaultdict(float)
    for d in dumps:
        counts.update(d["counts"])
        sums.update(d["sums"])
        spans = d["spans"]
        for (name, start, end, parent, rid, work), own in zip(
                spans, _self_times(spans)):
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += own
            m[f"{name}.self_s"] += own
            m[f"{name}.calls"] += 1
            m[f"{name}.work"] += work
            if rid is not None:
                if name == "net.client.call":
                    client_by_req[rid] += end - start
                elif name.startswith("service.") and (
                        parent is None or
                        not spans[parent][0].startswith("service.")):
                    service_by_req[rid] += end - start
            if work:
                # outermost framed calls only: a framed call's work
                # already includes that of the framed calls inside it
                m["pram.frames"] += 1
                if parent is None or not spans[parent][5]:
                    m["pram.work"] += work
    out = {
        "net.frames": counts["net.frames"],
        "net.bytes": sums["net.bytes"],
        "net.codec.self_s": m["net.codec.encode.self_s"]
        + m["net.codec.decode.self_s"],
        # the client's view of a request, minus the server's time in the
        # engine for the same request id
        "net.self_s": sum(client_by_req.values())
        - sum(service_by_req[r] for r in client_by_req),
        "service.self_s": m["service.self_s"],
        "service.submit.self_s": m["service.submit.self_s"],
        "service.admit.self_s": m["service.admit.self_s"],
        "service.queue.offer.calls": m["service.queue.offer.calls"],
        "service.queue.offer.self_s": m["service.queue.offer.self_s"],
        "service.queue.drain.self_s": m["service.queue.drain.self_s"],
        "service.queue.wait_s": sums["service.queue.wait_s"],
        "service.flushes": counts["service.flushes"],
        "service.batch_size_mean": (
            sums["service.ops_applied"] / counts["service.flushes"]
            if counts["service.flushes"] else 0.0),
        "service.coalesce_ratio": (
            sums["service.ops_applied"] / m["service.queue.offer.calls"]
            if m["service.queue.offer.calls"] else 0.0),
        "service.query.self_s": m["service.query.self_s"]
        + m["service.query_batch.self_s"],
        "service.apply.self_s": m["service.apply.self_s"],
        "service.apply.work": m["service.apply.work"],
        "service.shed": counts["service.shed"],
        "resilience.self_s": m["resilience.self_s"],
        "resilience.wal.calls": m["resilience.wal.calls"],
        "resilience.wal.self_s": m["resilience.wal.self_s"],
        "resilience.wal.bytes": sums["resilience.wal.bytes"],
        "resilience.checkpoint.calls": m["resilience.checkpoint.calls"],
        "resilience.checkpoint.self_s": m["resilience.checkpoint.self_s"],
        "spanner.self_s": m["spanner.self_s"],
        "spanner.update.self_s": m["spanner.update.self_s"],
        "spanner.update.work": m["spanner.update.work"],
        "spanner.rebuild.calls": m["spanner.rebuild.calls"],
        "spanner.rebuild.self_s": m["spanner.rebuild.self_s"],
        "spanner.rebuild.work": m["spanner.rebuild.work"],
        "spanner.rebuild.edges": sums["spanner.rebuild.edges"],
        "spanner.decremental.calls": m["spanner.decremental.calls"],
        "spanner.decremental.self_s": m["spanner.decremental.self_s"],
        "spanner.decremental.work": m["spanner.decremental.work"],
        "spanner.shift_clustering.calls":
            m["spanner.shift_clustering.calls"],
        "spanner.shift_clustering.self_s":
            m["spanner.shift_clustering.self_s"],
        "spanner.shift_clustering.work": m["spanner.shift_clustering.work"],
        "bfs.self_s": m["bfs.self_s"],
        "bfs.es_tree.calls": m["bfs.es_tree.calls"],
        "bfs.es_tree.self_s": m["bfs.es_tree.self_s"],
        "bfs.es_tree.work": m["bfs.es_tree.work"],
        "bfs.es_tree.rekeys": counts["bfs.es_tree.rekeys"],
        "structures.priority_array.calls":
            counts["structures.priority_array.calls"],
        "graph.self_s": m["graph.self_s"],
        "graph.delta.calls": m["graph.delta.calls"],
        "graph.delta.self_s": m["graph.delta.self_s"],
        "graph.csr.calls": counts["graph.csr.calls"],
        "graph.csr.rebuilds": counts["graph.csr.rebuilds"],
        "queries.self_s": m["queries.self_s"],
        "queries.answer.self_s": m["queries.answer.self_s"],
        "queries.msbfs.calls": m["queries.msbfs.calls"],
        "queries.msbfs.self_s": m["queries.msbfs.self_s"],
        "queries.msbfs.work": m["queries.msbfs.work"],
        "queries.components.calls": m["queries.components.calls"],
        "queries.components.self_s": m["queries.components.self_s"],
        "queries.dedup_ratio": (
            sums["queries.unique"] / sums["queries.asked"]
            if sums["queries.asked"] else 0.0),
        "pram.frames": m["pram.frames"],
        "pram.work": m["pram.work"],
        "trace.spans": float(sum(len(d["spans"]) for d in dumps)),
    }
    return out
