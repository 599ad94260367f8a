"""Sharded executor: S independent structure instances in worker processes.

The paper's structures share no state across disjoint edge sets, so the
engine can escape the GIL by hash-partitioning edges over ``S`` shards,
each a full structure instance on the common vertex set, running in its
own worker process (:class:`~repro.parallel.worker.WorkerProcess`).  A
flush scatters the coalesced batch into per-shard sub-batches (shards
apply them in parallel), then gathers the ``(δ_ins, δ_del)`` deltas plus
cost-model work/depth; shard work *sums* while shard depth *maxes*,
exactly the cost model's parallel-composition rule.

``processes=False`` runs the same protocol in-process (deterministic, no
fork needed) — tests and the benchmark baseline use it; the CLI demo uses
real processes where the platform provides them.

Supervision is this module's policy over the worker primitive:
every worker interaction carries a recv deadline, and a dead or hung
worker is restarted — with exponential backoff — from the last
checkpoint plus a WAL-tail replay (or, lacking durable state, from the
in-memory applied-batch history).  The in-flight sub-batch is then
retried; after ``max_batch_attempts`` consecutive crash-loops on the same
batch it is quarantined instead, keeping the engine live on poison input.
All of it is observable through the :class:`ApplyResult` recovery fields
and, one level up, the service's :class:`MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.graph.dynamic_graph import Edge
from repro.parallel.worker import WorkerGone, WorkerProcess, restart_delay, serve
from repro.pram.cost import CostModel
from repro.resilience.faults import NULL_INJECTOR, FaultInjector
from repro.resilience.manager import RecoveryManager, SupervisionConfig
from repro.resilience.wal import WalCorruptionError
from repro.service.engine import ApplyResult, build_backend
from repro.workloads.streams import UpdateBatch

__all__ = [
    "ShardDeadError",
    "ShardedExecutor",
    "ShardHealth",
    "edge_shard",
    "split_by_shard",
]


#: A shard worker died or hung and could not serve the request; the
#: worker primitive's one typed failure.
ShardDeadError = WorkerGone


def edge_shard(edge: Edge, shards: int) -> int:
    """Deterministic edge → shard router (stable across processes)."""
    u, v = edge
    return (u * 1_000_003 + v * 8_191) % shards


def split_by_shard(
    edges: list[Edge] | tuple[Edge, ...], shards: int
) -> list[list[Edge]]:
    """Partition ``edges`` into per-shard lists via :func:`edge_shard`."""
    out: list[list[Edge]] = [[] for _ in range(shards)]
    for e in edges:
        out[edge_shard(e, shards)].append(e)
    return out


def _handle(backend, cost: CostModel, msg):
    """Answer one shard command (``update``, ``edges``, ``size``, ``ping``).

    The worker process loop and :class:`_InprocShard` both call this, so
    the two shard kinds speak exactly one protocol.
    """
    cmd = msg[0]
    if cmd == "update":
        _, ins, dels = msg
        with cost.frame() as fr:
            d_ins, d_del = backend.update(insertions=ins, deletions=dels)
        # reply envelope: plain lists pickle smaller/faster than sets
        # and the parent folds them with set.update() anyway
        return (list(d_ins), list(d_del), fr.work, fr.depth)
    if cmd == "edges":
        return list(backend.output_edges())
    if cmd == "size":
        return len(backend.output_edges())
    if cmd == "ping":
        return ("pong",)
    raise ValueError(f"unknown command {cmd!r}")


def _serve_backend(conn, spec: dict[str, Any]) -> None:
    """Worker process body: build the backend, then answer commands."""
    cost = CostModel()
    backend = build_backend(spec, cost)
    serve(conn, lambda msg: _handle(backend, cost, msg))


class _InprocShard:
    """The shard protocol executed synchronously in-process.

    Supports simulated death (:meth:`kill`) so supervision and the chaos
    harness run deterministically without ``multiprocessing``.
    """

    def __init__(self, spec: dict[str, Any]) -> None:
        self._cost = CostModel()
        self._backend = build_backend(spec, self._cost)
        self._reply = None

    def send(self, msg) -> None:
        if self._backend is None:
            raise ShardDeadError("in-process shard was killed")
        try:
            self._reply = _handle(self._backend, self._cost, msg)
        except Exception as exc:
            # a real worker process dies on a command that crashes the
            # backend (poison batch); mirror that so supervision sees the
            # same failure mode in deterministic in-process runs
            self.kill()
            raise ShardDeadError(
                f"in-process worker crashed on {msg[0]!r}: {exc!r}"
            ) from exc

    def recv_within(self, deadline: float):
        if self._backend is None:
            raise ShardDeadError("in-process shard was killed")
        reply, self._reply = self._reply, None
        return reply

    def alive(self) -> bool:
        return self._backend is not None

    def kill(self) -> None:
        self._reply = None
        self._backend = None  # state dies with the "process"

    def close(self) -> None:
        pass


@dataclass
class ShardHealth:
    """One shard's liveness as seen by :meth:`ShardedExecutor.health_check`."""

    shard: int
    alive: bool
    restarted: bool = False


class ShardedExecutor:
    """Partition one backend spec across ``shards`` independent workers.

    Parameters
    ----------
    spec:
        Backend spec as for :func:`repro.service.engine.build_backend`;
        its ``edges`` are routed to shards, and shard ``i`` gets
        ``seed + i`` so instances stay independent yet reproducible.
    shards:
        Number of partitions (>= 1).
    processes:
        Run workers as real processes (parallel; see
        :class:`~repro.parallel.worker.WorkerProcess`) or in-process
        (deterministic).
    supervision:
        Deadlines/backoff/quarantine policy; None disables supervision
        entirely (a dead worker then surfaces as an exception, the
        pre-PR-4 behaviour).
    recovery:
        A :class:`~repro.resilience.manager.RecoveryManager`; when set,
        restarted workers rebuild from checkpoint + WAL replay, else from
        the in-memory applied-batch history.
    injector:
        Fault-injection hooks (chaos harness); defaults to no-op.
    """

    def __init__(
        self,
        spec: dict[str, Any],
        shards: int,
        processes: bool = False,
        supervision: SupervisionConfig | None = None,
        recovery: RecoveryManager | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.processes = processes
        self.supervision = supervision
        self.recovery = recovery
        self.injector = injector or NULL_INJECTOR
        base_seed = spec.get("seed", 0)
        initial = [tuple(e) for e in spec.get("edges", ())]
        self._initial_edges = initial
        parts = split_by_shard(initial, shards)
        self.shard_specs: list[dict[str, Any]] = []
        for i in range(shards):
            sub = dict(spec)
            sub["edges"] = parts[i]
            sub["seed"] = base_seed + i
            self.shard_specs.append(sub)
        self._shards = [self._spawn(self.shard_specs[i])
                        for i in range(shards)]
        # per-shard applied sub-batches, for offline replay verification
        self.applied_batches: list[list[UpdateBatch]] = [
            [] for _ in range(shards)
        ]
        # per-shard *graph* edge sets (checkpoint payload / ground truth)
        self._graph: list[set[Edge]] = [set(p) for p in parts]
        self._restart_streak = [0] * shards   # resets on successful apply
        self.restarts_total = 0
        self.quarantined: list[tuple[int | None, int, UpdateBatch]] = []
        self.wal_fallbacks = 0
        self.degraded = threading.Event()  # set while any shard recovers
        self._closed = False

    def _spawn(self, spec: dict[str, Any]):
        if self.processes:
            return WorkerProcess(_serve_backend, spec)
        return _InprocShard(spec)

    # -- executor protocol ---------------------------------------------------

    def initial_edges(self) -> set[Edge]:
        """Union of every shard's construction edge set."""
        return {e for s in self.shard_specs for e in s["edges"]}

    def output_edges(self) -> set[Edge]:
        """Alias for :meth:`gather_edges` (executor protocol)."""
        return self.gather_edges()

    def shard_graphs(self) -> list[set[Edge]]:
        """Per-shard graph edge sets (the checkpoint payload)."""
        return [set(g) for g in self._graph]

    def graph_union(self) -> set[Edge]:
        """The graph edge set implied by every applied batch."""
        out: set[Edge] = set()
        for g in self._graph:
            out |= g
        return out

    def apply(self, batch: UpdateBatch, seq: int | None = None) -> ApplyResult:
        """Scatter the batch, apply on every touched shard, gather deltas.

        With supervision enabled a dead/hung shard is restarted from the
        last checkpoint + WAL replay and its sub-batch retried; after
        ``max_batch_attempts`` consecutive crashes on this batch the
        sub-batch is quarantined (recorded in :attr:`quarantined`) and the
        shard continues without it.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        ins_parts = split_by_shard(batch.insertions, self.shards)
        del_parts = split_by_shard(batch.deletions, self.shards)
        touched = [
            i for i in range(self.shards)
            if ins_parts[i] or del_parts[i]
        ]
        sup = self.supervision
        sent: dict[int, bool] = {}
        for i in touched:  # scatter first: process shards run in parallel
            if self.injector.on_apply(i, "pre", seq) == "kill":
                self._shards[i].kill()
            sent[i] = self._try_send(
                i, ("update", ins_parts[i], del_parts[i])
            )
        delta_ins: set[Edge] = set()
        delta_del: set[Edge] = set()
        work = 0
        depth = 0
        critical = 0
        recovered: list[int] = []
        quarantined: list[int] = []
        restarts = 0
        recovery_seconds = 0.0
        for i in touched:
            sub = UpdateBatch(insertions=ins_parts[i],
                              deletions=del_parts[i])
            reply = self._gather_one(i, sent[i], seq)
            crashes = 0 if reply is not None else 1
            while reply is None:
                if sup is None:
                    raise ShardDeadError(
                        f"shard {i} failed and supervision is disabled"
                    )
                if crashes > sup.max_batch_attempts:
                    # poison batch: restart the shard *without* it and
                    # keep serving
                    t0 = time.perf_counter()
                    restarts += self._restart_shard(i)
                    recovery_seconds += time.perf_counter() - t0
                    recovered.append(i)
                    quarantined.append(i)
                    self.quarantined.append((seq, i, sub))
                    break
                t0 = time.perf_counter()
                restarts += self._restart_shard(i)
                recovery_seconds += time.perf_counter() - t0
                recovered.append(i)
                ok = self._try_send(i, ("update", ins_parts[i],
                                        del_parts[i]))
                reply = self._gather_one(i, ok, seq)
                if reply is None:
                    crashes += 1
            if reply is None:  # quarantined
                continue
            if self.injector.on_apply(i, "post", seq) == "kill":
                self._shards[i].kill()
            d_ins, d_del, w, d = reply
            self.applied_batches[i].append(sub)
            self._graph[i].difference_update(del_parts[i])
            self._graph[i].update(ins_parts[i])
            self._restart_streak[i] = 0
            delta_ins.update(d_ins)
            delta_del.update(d_del)
            work += w
            # shards are parallel: depth and critical-path work max
            depth = max(depth, d)
            critical = max(critical, w)
        return ApplyResult(
            delta_ins, delta_del, work, depth, critical_work=critical,
            recovered_shards=tuple(dict.fromkeys(recovered)),
            quarantined_shards=tuple(quarantined),
            restarts=restarts,
            recovery_seconds=recovery_seconds,
        )

    # -- supervision ---------------------------------------------------------

    def _try_send(self, i: int, msg) -> bool:
        try:
            self._shards[i].send(msg)
            return True
        except ShardDeadError:
            return False

    def _gather_one(self, i: int, was_sent: bool, seq: int | None):
        """One shard's update reply, or None on death/timeout."""
        if not was_sent:
            return None
        deadline = (self.supervision.recv_deadline
                    if self.supervision else 60.0)
        action = self.injector.on_recv(i, seq)
        if action == "drop":
            # simulate a lost reply: swallow whatever arrives in-deadline
            try:
                self._shards[i].recv_within(min(deadline, 0.25))
            except ShardDeadError:
                pass
            return None
        if isinstance(action, tuple) and action[0] == "delay":
            # simulate a stalled worker: the reply misses its deadline
            time.sleep(min(action[1], deadline))
            return None
        try:
            return self._shards[i].recv_within(deadline)
        except ShardDeadError:
            return None

    def _recovery_source(self, i: int) -> tuple[set[Edge],
                                                list[UpdateBatch], bool]:
        """(base edges, replay batches, used_wal) for restarting shard i."""
        if self.recovery is not None:
            try:
                skip = {s for s, sh, _ in self.quarantined
                        if sh == i and s is not None}
                base, replay = self.recovery.shard_recovery_plan(
                    i, self.shards, self._initial_edges, skip_seqs=skip
                )
                return base, replay, True
            except WalCorruptionError:
                # the log is damaged mid-stream; fall back to the exact
                # in-memory history (only possible while the parent lives)
                self.wal_fallbacks += 1
        base = set(split_by_shard(self._initial_edges, self.shards)[i])
        return base, list(self.applied_batches[i]), False

    def _restart_shard(self, i: int) -> int:
        """Kill, back off, respawn from recovered state.  Returns 1."""
        sup = self.supervision or SupervisionConfig()
        self.degraded.set()
        try:
            shard = self._shards[i]
            try:
                shard.kill()
            finally:
                shard.close()
            streak = self._restart_streak[i]
            time.sleep(restart_delay(streak, sup.backoff_base,
                                     sup.backoff_cap))
            self._restart_streak[i] = streak + 1
            self.restarts_total += 1
            base, replay, used_wal = self._recovery_source(i)
            spec = dict(self.shard_specs[i])
            spec["edges"] = sorted(base)
            fresh = self._spawn(spec)
            self._shards[i] = fresh
            deadline = sup.recv_deadline
            for b in replay:
                fresh.send(("update", b.insertions, b.deletions))
                fresh.recv_within(deadline)
            # re-anchor the offline-verification view on the recovered
            # construction: spec' + replayed tail is the shard's history now
            self.shard_specs[i] = spec
            self.applied_batches[i] = list(replay)
            graph = set(base)
            for b in replay:
                graph -= set(b.deletions)
                graph |= set(b.insertions)
            self._graph[i] = graph
            self.injector.on_restart(i, self._restart_streak[i])
            return 1
        finally:
            self.degraded.clear()

    def health_check(self, restart: bool = True) -> list[ShardHealth]:
        """Probe every worker (liveness + ping); optionally restart dead
        ones proactively so the next flush does not pay the recovery."""
        out: list[ShardHealth] = []
        deadline = (self.supervision.recv_deadline
                    if self.supervision else 1.0)
        for i, shard in enumerate(self._shards):
            alive = shard.alive()
            if alive:
                if self._try_send(i, ("ping",)):
                    try:
                        alive = shard.recv_within(deadline) == ("pong",)
                    except ShardDeadError:
                        alive = False
                else:
                    alive = False
            restarted = False
            if not alive and restart and self.supervision is not None:
                self._restart_shard(i)
                restarted = True
            out.append(ShardHealth(shard=i, alive=alive,
                                   restarted=restarted))
        return out

    # -- scatter/gather queries ----------------------------------------------

    def _ask(self, i: int, msg):
        """Shard ``i``'s reply to the read-only command ``msg``.

        Supervised executors restart a dead or unresponsive shard and ask
        again instead of raising, so a query barrage never wedges on a
        crashed worker.
        """
        deadline = (self.supervision.recv_deadline
                    if self.supervision else 60.0)
        if self._try_send(i, msg):
            try:
                return self._shards[i].recv_within(deadline)
            except ShardDeadError:
                pass
        if self.supervision is None:
            raise ShardDeadError(f"shard {i} died answering {msg[0]!r}")
        self._restart_shard(i)
        self._shards[i].send(msg)
        return self._shards[i].recv_within(deadline)

    def gather_edges(self) -> set[Edge]:
        """Union of every shard's output edges (scatter/gather)."""
        out: set[Edge] = set()
        for i in range(self.shards):
            out.update(self._ask(i, ("edges",)))
        return out

    def scatter_sizes(self) -> list[int]:
        """Per-shard output sizes (occupancy diagnostics)."""
        return [self._ask(i, ("size",)) for i in range(self.shards)]

    def close(self) -> None:
        """Stop every worker and release their pipes.

        Idempotent and exception-safe: a shard that already died mid-run
        is skipped rather than hung on, and one shard's failure never
        prevents the rest from being reaped.
        """
        if self._closed:
            return
        self._closed = True
        for s in self._shards:
            try:
                s.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
