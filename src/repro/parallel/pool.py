"""Persistent process-pool execution backend.

Design notes
------------
* **Persistent workers.**  ``workers`` processes
  (:class:`~repro.parallel.worker.WorkerProcess`, forked where available)
  are started once at construction and reused for every dispatch;
  per-dispatch cost is one pickle round-trip per task, not a process
  start.
* **One duplex pipe per worker — tasks down, results back up.**  Tasks are
  only ever sent to an *idle* worker (at most one in flight per worker),
  so a task send can never deadlock against a worker blocked on a result
  write: the target worker is always draining its pipe.  Results carry the
  task id, so completion order is irrelevant.  There is deliberately *no*
  shared result queue: a shared ``mp.Queue`` serialises writers through a
  cross-process lock, and a worker SIGKILLed while its feeder thread
  holds that lock would wedge every surviving worker's results forever.
  With per-worker pipes a kill can only tear that worker's own channel,
  which the parent observes as EOF — i.e. an unambiguous death signal.
* **Deterministic charge merge.**  Each task executes under a fresh
  per-worker :class:`~repro.pram.cost.CostModel`; the worker reports the
  branch's ``(work, depth)`` alongside its value.  The parent merges the
  reports **in canonical task order** via
  :meth:`~repro.pram.cost.ParallelScope.absorb` — and since the merge rule
  is a commutative sum/max, the totals equal the sequential backend's no
  matter how the OS interleaves workers.
* **Broadcast cache.**  :meth:`put_shared` publishes large read-only
  payloads (e.g. an adjacency structure) to every worker once per version;
  kernels receive them by key instead of re-pickling per task.
* **Inline fallback.**  Closures / bound methods cannot ship to another
  process; ``map_scope`` detects this (:func:`~repro.parallel.backend.
  is_shippable`) and runs them inline, charge-identically — this is the
  documented boundary for the shared-mutation kernels in ``es_tree`` and
  ``shift_clustering``.
* **Worker supervision.**  A worker that *dies* (OOM-kill, segfault,
  ``kill -9``) is detected, its in-flight task identified and requeued,
  and a replacement forked with backoff — the worker primitive and
  restart-delay rule of :mod:`repro.parallel.worker`, shared with the
  shard supervisor; this module keeps only the requeue policy.  A typed
  :class:`WorkerCrashed` (carrying the task index and function label)
  surfaces only once the
  per-dispatch restart budget is exhausted, the same task has killed
  multiple workers (a poison task), or the dispatch is *pinned*: pinned
  rounds carry per-sweep mirror deltas a mid-sweep replacement never saw,
  so the sweep must fail fast — the pool itself still recovers (the
  replacement is forked and re-seeded with the broadcast payloads before
  the error is raised) and the *next* sweep runs clean.  Supervision is
  uncharged control plane: restarts never touch the cost model.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Sequence

from ..pram.cost import CostModel, ParallelScope
from .backend import (
    ChunkResult,
    ExecutionBackend,
    _arg_size,
    is_shippable,
    wants_cost,
)
from .worker import WorkerGone, WorkerProcess, restart_delay, serve

__all__ = ["ProcessPoolBackend", "PoolError", "WorkerCrashed"]

_QUEUE_POLL_S = 1.0
#: ``map_scope`` over-splits to this many chunks per worker so stragglers
#: rebalance; task granularity is observable via the bound metrics.
_CHUNKS_PER_WORKER = 4


class PoolError(RuntimeError):
    """A worker failed: task raised, or the process died."""


class WorkerCrashed(PoolError):
    """Worker process(es) died and supervision could not absorb it.

    Carries exactly *which* work was lost so callers (and tests) can
    requeue or quarantine precisely instead of guessing:

    Attributes
    ----------
    workers:    process names of the dead workers
    task_ids:   payload indices that were in flight on them (may be empty
                if a worker died idle and the restart budget was already
                spent)
    fn_name:    the dispatched function's name
    restarts:   how many supervised restarts this dispatch performed
                before giving up
    """

    def __init__(self, message: str, *, workers: list[str],
                 task_ids: list[int], fn_name: str,
                 restarts: int) -> None:
        super().__init__(message)
        self.workers = list(workers)
        self.task_ids = list(task_ids)
        self.fn_name = fn_name
        self.restarts = restarts


def _worker_main(conn, worker_id: int) -> None:
    """Worker process body: cache broadcast payloads, run tasks, reply on
    the same duplex pipe.  Runs until a ``stop`` message or EOF."""
    shared: dict[str, Any] = {}
    serve(conn, lambda msg: _run_message(worker_id, shared, msg))


def _run_message(worker_id: int, shared: dict[str, Any], msg):
    if msg[0] == "put":
        _, key, value = msg
        shared[key] = value
        return None
    # ("task", gen, task_id, mode, fn, payload, shared_keys,
    #  pass_cost, unit_cost) — ``gen`` is the dispatch generation,
    # echoed back so the parent can drop replies that belong to an
    # earlier, aborted dispatch
    _, gen, task_id, mode, fn, payload, shared_keys, pass_cost, unit_cost = msg
    t0 = time.perf_counter()
    try:
        shared_view = {k: shared[k] for k in shared_keys}
        if mode == "chunk":
            cm = CostModel()
            with cm.frame() as fr:
                value = fn(payload, shared_view, cost=cm)
            if unit_cost > 0.0 and fr.work > 0:
                time.sleep(fr.work * unit_cost)
            out: Any = (value, fr.work, fr.depth)
        else:  # mode == "scope": payload is a list of items
            triples = []
            for item in payload:
                cm = CostModel()
                with cm.frame() as fr:
                    value = fn(item, cost=cm) if pass_cost else fn(item)
                if unit_cost > 0.0 and fr.work > 0:
                    time.sleep(fr.work * unit_cost)
                triples.append((value, fr.work, fr.depth))
            out = triples
        busy = time.perf_counter() - t0
        return ("ok", worker_id, gen, task_id, out, busy)
    except BaseException as exc:  # noqa: BLE001 - report, don't die
        return ("err", worker_id, gen, task_id, repr(exc),
                traceback.format_exc())


class ProcessPoolBackend(ExecutionBackend):
    """Execute charged parallel regions across persistent worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1).  Note real CPU speedup also
        requires that many cores; the pinned ``unit_cost_s`` emulation
        measures schedule-level speedup regardless (see
        :mod:`repro.parallel.backend`).
    unit_cost_s / min_items:
        See :class:`~repro.parallel.backend.ExecutionBackend`.
    restart_budget:
        Supervised worker replacements allowed *per dispatch* before a
        dead worker surfaces as :class:`WorkerCrashed`.
    restart_backoff_s:
        Base sleep before forking a replacement (doubles per restart
        within one dispatch, like the shard supervisor's backoff).
    task_retry_limit:
        How many workers one task may kill before it is treated as a
        poison task and surfaced instead of requeued again.
    """

    name = "process-pool"

    def __init__(
        self,
        workers: int,
        *,
        unit_cost_s: float = 0.0,
        min_items: int = 1,
        restart_budget: int = 3,
        restart_backoff_s: float = 0.05,
        task_retry_limit: int = 2,
    ) -> None:
        super().__init__(unit_cost_s=unit_cost_s, min_items=min_items)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.restart_budget = max(0, int(restart_budget))
        self.restart_backoff_s = max(0.0, float(restart_backoff_s))
        self.task_retry_limit = max(1, int(task_retry_limit))
        self._closed = False
        self._inflight = 0
        self._gen = 0           # dispatch generation (stale-reply filter)
        self._shared: dict[str, Any] = {}
        self._workers = [self._spawn(wid) for wid in range(workers)]

    @staticmethod
    def _spawn(wid: int) -> WorkerProcess:
        return WorkerProcess(_worker_main, wid, name=f"repro-pool-{wid}")

    @property
    def _procs(self) -> list:
        """The workers' :class:`multiprocessing.Process` objects."""
        return [w.proc for w in self._workers]

    def _respawn(self, wid: int) -> None:
        """Replace a dead worker in-place and re-seed its broadcast cache.

        Uncharged control plane: touches no cost model state.
        """
        self._workers[wid].close()
        fresh = self._workers[wid] = self._spawn(wid)
        # replacement must see the same broadcast payloads its siblings
        # hold (the parent-side version cache is unchanged, so put_shared
        # callers will rightly skip re-publishing)
        for key, value in self._shared.items():
            fresh.send(("put", key, value))
        self._record_worker_restart()

    # -- lifecycle --------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._workers)

    def close(self) -> None:
        """Stop every worker, join the processes, release pipes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            w.close()

    def _check_open(self) -> None:
        if self._closed:
            raise PoolError("ProcessPoolBackend is closed")

    # -- shared payloads --------------------------------------------------

    def _publish_shared(self, key: str, value: Any) -> None:
        self._check_open()
        if self._inflight:
            raise PoolError("put_shared while tasks are in flight")
        self._shared[key] = value
        for wid, w in enumerate(self._workers):
            try:
                w.send(("put", key, value))
            except WorkerGone:
                # died while idle: the replacement is re-seeded from
                # ``_shared``, which already holds the new value
                self._respawn(wid)

    def get_shared(self, key: str) -> Any:
        """Return the parent-side copy of a broadcast payload."""
        return self._shared[key]

    # -- dispatch core ----------------------------------------------------

    def _dispatch(
        self,
        mode: str,
        fn: Callable[..., Any],
        payloads: Sequence[Any],
        shared_keys: Sequence[str],
        pass_cost: bool,
        order: Sequence[int] | None = None,
        pinned: bool = False,
    ) -> tuple[list[Any], list[float], float]:
        """Run one task per payload; return (results in payload order,
        per-task busy seconds, wall seconds).

        ``order`` optionally permutes *dispatch* order (a test hook proving
        merge determinism); results always come back in payload order.
        ``pinned`` routes task ``i`` to worker ``i`` (required by kernels
        whose workers hold per-sweep mirror state); it needs
        ``len(payloads) <= workers`` and quiescent workers, both of which
        hold between frontier rounds.

        **Supervision.**  A worker that dies mid-dispatch has its in-flight
        task requeued and is replaced (with backoff) up to
        ``restart_budget`` times per dispatch; past the budget — or when
        the same task keeps killing workers, or the dispatch is pinned
        (mirror state is unrecoverable mid-sweep) — a :class:`WorkerCrashed`
        naming the lost task indices is raised.  The pool itself is always
        healed before the error surfaces, so later dispatches still work.
        """
        self._check_open()
        n = len(payloads)
        results: list[Any] = [None] * n
        busy: list[float] = [0.0] * n
        if n == 0:
            return results, busy, 0.0
        if pinned and n > len(self._workers):
            raise ValueError("pinned dispatch needs len(payloads) <= workers")
        t0 = time.perf_counter()
        queue_order = list(order) if order is not None else list(range(n))
        if sorted(queue_order) != list(range(n)):
            raise ValueError("order must be a permutation of the task ids")
        pending = deque(queue_order)
        idle = list(range(len(self._workers)))
        inflight: dict[int, int] = {}       # wid -> task_id
        task_kills: dict[int, int] = {}     # task_id -> workers it killed
        outstanding = 0
        restarts = 0
        error: tuple[str, str] | None = None
        fn_name = getattr(fn, "__name__", repr(fn))
        self._inflight = n
        # a dispatch aborted by WorkerCrashed can leave completed replies
        # buffered in surviving workers' pipes (or tasks still running);
        # the generation tag lets this dispatch drop those on sight
        self._gen += 1
        gen = self._gen

        def crash(workers: list[str], task_ids: list[int]) -> None:
            raise WorkerCrashed(
                f"worker process(es) died: {', '.join(workers)} "
                f"(in-flight {fn_name} task(s) {task_ids or 'none'}, "
                f"{restarts} supervised restart(s) used"
                f"{', pinned dispatch' if pinned else ''})",
                workers=workers, task_ids=task_ids, fn_name=fn_name,
                restarts=restarts,
            )

        def replace(wid: int, *, budgeted: bool) -> None:
            """Respawn ``wid``; ``budgeted`` restarts sleep and count."""
            nonlocal restarts
            if budgeted:
                time.sleep(restart_delay(restarts, self.restart_backoff_s))
                restarts += 1
            self._respawn(wid)

        def supervise(dead_wids: list[int]) -> None:
            """Requeue the dead workers' tasks and fork replacements, or
            surface :class:`WorkerCrashed` when recovery is off the table."""
            nonlocal outstanding
            names = [self._workers[w].proc.name for w in dead_wids]
            lost: list[int] = []
            for wid in dead_wids:
                task = inflight.pop(wid, None)
                if task is not None:
                    lost.append(task)
                    outstanding -= 1
                    task_kills[task] = task_kills.get(task, 0) + 1
            poison = [t for t in lost
                      if task_kills[t] >= self.task_retry_limit]
            recoverable = (not pinned and not poison
                           and restarts + len(dead_wids)
                           <= self.restart_budget)
            for wid in dead_wids:
                replace(wid, budgeted=recoverable)
                if wid not in idle and wid not in inflight:
                    idle.append(wid)
            if not recoverable:
                crash(names, poison or lost)
            pending.extendleft(reversed(lost))

        def replace_idle(wid: int, task_ids: list[int]) -> None:
            """Respawn a worker found dead before it took a task; past the
            budget the pool still heals, then :class:`WorkerCrashed`."""
            if restarts >= self.restart_budget:
                name = self._workers[wid].proc.name
                replace(wid, budgeted=False)
                crash([name], task_ids)
            replace(wid, budgeted=True)

        def send_next() -> bool:
            nonlocal outstanding
            if error is not None or not idle or not pending:
                return False
            task_id = pending[0]
            wid = task_id if pinned else idle[-1]
            if pinned and wid not in idle:
                return False
            if not self._workers[wid].alive():
                # died while idle: replace before assigning work; pinned
                # dispatches tolerate this too — the replacement joins
                # before any of this dispatch's deltas were sent to it
                replace_idle(wid, [])
            pending.popleft()
            idle.remove(wid)
            try:
                self._workers[wid].send(
                    (
                        "task",
                        gen,
                        task_id,
                        mode,
                        fn,
                        payloads[task_id],
                        tuple(shared_keys),
                        pass_cost,
                        self.unit_cost_s,
                    )
                )
            except WorkerGone:
                # died between the liveness check and the send
                pending.appendleft(task_id)
                idle.append(wid)
                replace_idle(wid, [task_id])
                return True  # retry on the replacement next iteration
            inflight[wid] = task_id
            outstanding += 1
            return True

        try:
            while send_next():
                pass
            done = 0
            while done < n:
                if outstanding == 0:
                    if error is None and pending:
                        while send_next():
                            pass
                        if outstanding > 0:
                            continue
                    break  # error path: nothing left in flight
                ready = mp_connection.wait(
                    [self._workers[w].conn for w in inflight],
                    timeout=_QUEUE_POLL_S,
                )
                if not ready:
                    # belt-and-braces: a death normally surfaces as EOF on
                    # the worker's pipe, but sweep liveness anyway
                    dead = [wid for wid in list(inflight)
                            if not self._workers[wid].alive()]
                    if dead:
                        supervise(dead)
                        while send_next():
                            pass
                    continue
                for conn in ready:
                    wid = next((w for w in list(inflight)
                                if self._workers[w].conn is conn), None)
                    if wid is None:
                        # conn was replaced by supervision this round
                        continue
                    try:
                        # wait() reported the pipe ready: data or EOF
                        msg = self._workers[wid].recv_within(0.0)
                    except WorkerGone:
                        # worker died: its duplex pipe tore — requeue
                        supervise([wid])
                        while send_next():
                            pass
                        continue
                    task_id = msg[3]
                    if msg[2] != gen or inflight.get(wid) != task_id:
                        # stale: a reply from an earlier aborted dispatch,
                        # or for a task supervision already requeued
                        continue
                    del inflight[wid]
                    outstanding -= 1
                    if msg[0] == "ok":
                        _, _, _, _, out, busy_s = msg
                        results[task_id] = out
                        busy[task_id] = busy_s
                        idle.append(wid)
                        done += 1
                        send_next()
                    else:
                        _, _, _, _, exc_repr, tb = msg
                        idle.append(wid)
                        done += 1
                        if error is None:
                            error = (exc_repr, tb)
        finally:
            self._inflight = 0
        wall = time.perf_counter() - t0
        if error is not None:
            exc_repr, tb = error
            raise PoolError(
                f"task raised {exc_repr} in worker\n--- worker traceback ---\n{tb}"
            )
        return results, busy, wall

    # -- execution API ----------------------------------------------------

    def map_scope(
        self,
        model: CostModel,
        scope: ParallelScope,
        items: Iterable[Any],
        fn: Callable[..., Any],
    ) -> list[Any]:
        """Fan branches across workers; absorb each (work, depth) into scope.

        Unshippable functions and undersized batches run inline (still
        charge-identical); shippable batches are split into contiguous
        chunks and merged back in canonical item order.
        """
        seq = list(items)
        if not seq:
            return []
        if not is_shippable(fn) or len(seq) < self.min_items:
            out = self._run_scope_inline(model, scope, seq, fn)
            self._record_fallback(len(seq))
            return out
        pass_cost = wants_cost(fn)
        chunk = max(
            1,
            self.min_items,
            -(-len(seq) // (self.workers * _CHUNKS_PER_WORKER)),
        )
        payloads = [seq[i : i + chunk] for i in range(0, len(seq), chunk)]
        raw, busy, wall = self._dispatch("scope", fn, payloads, (), pass_cost)
        out: list[Any] = []
        merge = model.enabled
        for triples in raw:
            for value, work, depth in triples:
                out.append(value)
                if merge:
                    scope.absorb(work, depth)
        self._record_dispatch(
            len(payloads), [len(p) for p in payloads], wall, sum(busy)
        )
        return out

    def map_chunks(
        self,
        fn: Callable[..., Any],
        chunk_args: Sequence[Any],
        *,
        shared_keys: Sequence[str] = (),
        cost_enabled: bool = True,
        order: Sequence[int] | None = None,
        pinned: bool = False,
    ) -> list[ChunkResult]:
        """Run each kernel chunk on a worker against broadcast shared state."""
        raw, busy, wall = self._dispatch(
            "chunk", fn, list(chunk_args), shared_keys, True, order, pinned
        )
        out = [
            ChunkResult(value, work, depth, b)
            for (value, work, depth), b in zip(raw, busy)
        ]
        self._record_dispatch(
            len(out), [_arg_size(a) for a in chunk_args], wall, sum(busy)
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "closed" if self._closed else "open"
        return (
            f"ProcessPoolBackend(workers={self.workers}, "
            f"unit_cost_s={self.unit_cost_s}, {state}, pid={os.getpid()})"
        )
