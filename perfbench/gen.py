"""Seeded input generator for the benchmark.

Every input a run feeds the program comes from here, drawn from one
``numpy`` PCG64 stream seeded by the run's ``--seed``: the same seed
gives byte-identical inputs on every run and every machine.

Sampling is O(1) per operation.  :class:`LiveEdges` keeps the current
edge set as a list plus an index map, so a uniform live edge is one
random index and its removal one swap with the last slot; an absent
edge is found by rejection, which stays O(1) expected while the graph
is far below complete (every workload here is under 13% dense).

For the served write path the generator also mirrors the server's
coalescing queue exactly (``_QueueMirror``).  Flushes there are
triggered by size only, so the mirror knows, for every request, the
queue outcome the server must answer and the commit sequence a read
must see; it also predicts the flush, WAL-record and checkpoint counts
of the whole run.  The benchmark checks the server against all of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "HELDOUT_SEED",
    "BatchStream",
    "LiveEdges",
    "ServeStream",
    "batch_stream",
    "reads_stream",
    "writes_stream",
]

#: seed used when ``--seed`` is not given
DEFAULT_SEED = 1
#: seed kept out of tuning, for confirming a claimed gain on fresh inputs
HELDOUT_SEED = 7919
#: fixed seed of a served workload's request-kind schedule: the sequence
#: of inserts, deletes, reads and so on is part of the workload's shape,
#: the same for every ``--seed``; the edges and vertex pairs are not
_SHAPE_SEED = 20250

Edge = tuple[int, int]


class LiveEdges:
    """The current edge set with O(1) uniform sampling and removal."""

    __slots__ = ("_list", "_pos")

    def __init__(self) -> None:
        self._list: list[Edge] = []
        self._pos: dict[Edge, int] = {}

    def __len__(self) -> int:
        return len(self._list)

    def __contains__(self, e: Edge) -> bool:
        return e in self._pos

    def add(self, e: Edge) -> None:
        self._pos[e] = len(self._list)
        self._list.append(e)

    def remove(self, e: Edge) -> None:
        i = self._pos.pop(e)
        last = self._list.pop()
        if last != e:
            self._list[i] = last
            self._pos[last] = i

    def sample(self, rng: np.random.Generator) -> Edge:
        return self._list[int(rng.integers(len(self._list)))]

    def pop_random(self, rng: np.random.Generator) -> Edge:
        e = self.sample(rng)
        self.remove(e)
        return e

    def edges(self) -> list[Edge]:
        return list(self._list)


def _absent_edge(rng: np.random.Generator, n: int, live: LiveEdges,
                 avoid=()) -> Edge:
    """A uniform edge not in ``live`` nor ``avoid`` (rejection)."""
    while True:
        u, v = rng.integers(n, size=2).tolist()
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e not in live and e not in avoid:
            return e


def _gnm(rng: np.random.Generator, n: int, m: int) -> LiveEdges:
    """Uniform simple graph with ``n`` vertices and ``m`` edges."""
    if m > n * (n - 1) // 4:
        raise ValueError("generator is meant for graphs under half dense")
    live = LiveEdges()
    while len(live) < m:
        draw = rng.integers(n, size=(2 * (m - len(live)) + 16, 2))
        for u, v in draw.tolist():
            if u == v:
                continue
            e = (u, v) if u < v else (v, u)
            if e not in live:
                live.add(e)
                if len(live) == m:
                    break
    return live


def _pair(rng: np.random.Generator, n: int) -> Edge:
    while True:
        u, v = rng.integers(n, size=2).tolist()
        if u != v:
            return (u, v)


# -- library batch updates ------------------------------------------------


@dataclass
class BatchStream:
    """Initial graph, update batches and the read batch after each."""

    n: int
    initial: list[Edge]
    batches: list[tuple[list[Edge], list[Edge]]]   # (insertions, deletions)
    reads: list[list[tuple[str, Edge]]]
    final: set[Edge]
    gen_s: float = 0.0


def batch_stream(seed: int, n: int, m: int, batches: int, batch_size: int,
                 reads_every: int, reads_per_batch: int) -> BatchStream:
    """Churn batches: half deletions of live edges, half fresh insertions.

    An edge deleted in a batch is never re-inserted by the same batch, so
    every batch is legal whichever order the structure applies it in.
    Every ``reads_every``-th batch is followed by a read batch mixing
    ``distance``, ``contains`` (of a live graph edge) and ``connected``
    queries; the other batches get an empty one.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    live = _gnm(rng, n, m)
    initial = live.edges()
    out, reads = [], []
    half = batch_size // 2
    for i in range(batches):
        dels = [live.pop_random(rng) for _ in range(half)]
        gone = set(dels)
        ins = []
        for _ in range(batch_size - half):
            e = _absent_edge(rng, n, live, gone)
            live.add(e)
            ins.append(e)
        out.append((ins, dels))
        batch = []
        if i % reads_every == reads_every - 1:
            for j in range(reads_per_batch):
                r = j % 4
                if r == 0:
                    batch.append(("distance", _pair(rng, n)))
                elif r == 2:
                    batch.append(("connected", _pair(rng, n)))
                else:
                    batch.append(("contains", live.sample(rng)))
        reads.append(batch)
    return BatchStream(n, initial, out, reads, set(live.edges()),
                       time.perf_counter() - t0)


# -- served request streams -------------------------------------------------


@dataclass
class Request:
    """One wire request and what the server must answer to it.

    ``kind`` is ``"submit"`` (``op``/``edge``/``idem`` set, ``expect`` the
    queue outcome), ``"query"`` (one point read, ``items[0]``) or
    ``"batch"`` (a ``query_batch`` frame).  ``seq`` is the commit
    sequence a read's snapshot must reflect.
    """

    kind: str
    op: str = ""
    edge: Edge = (0, 0)
    idem: str = ""
    expect: str = ""
    items: list = field(default_factory=list)
    seq: int = 0


@dataclass
class ServeStream:
    n: int
    initial: list[Edge]
    requests: list[Request]
    commits: int             # flushes that commit, the final flush included
    ops_applied: int
    checkpoints: int         # taken before shutdown
    gen_s: float = 0.0

    @property
    def writes(self) -> int:
        return sum(r.kind == "submit" for r in self.requests)


class _QueueMirror:
    """Exact model of the server's coalescing queue and size trigger.

    Mirrors ``CoalescingQueue.offer``: per-edge pending state (+1 insert,
    -1 delete, 2 delete-then-reinsert); every op except a dedup appends
    to the queue, and the queue drains once it holds ``max_batch`` ops.
    A drain that coalesces to nothing commits nothing.
    """

    def __init__(self, max_batch: int, checkpoint_interval: int) -> None:
        self.max_batch = max_batch
        self.interval = checkpoint_interval
        self.pending: dict[Edge, int] = {}
        self.depth = 0
        self.commits = 0
        self.ops_applied = 0
        self.checkpoints = 0
        self._since_ckpt = 0

    def offer(self, op: str, e: Edge) -> str:
        s = self.pending.get(e)
        if op == "insert":
            if s in (1, 2):
                return "coalesced_dedup"
            outcome = "accepted" if s is None else "coalesced_cancel"
            self.pending[e] = 1 if s is None else 2
        else:
            if s == -1:
                return "coalesced_dedup"
            if s is None:
                self.pending[e] = -1
                outcome = "accepted"
            elif s == 1:
                del self.pending[e]
                outcome = "coalesced_cancel"
            else:
                self.pending[e] = -1
                outcome = "coalesced_cancel"
        self.depth += 1
        if self.depth >= self.max_batch:
            self.flush()
        return outcome

    def flush(self) -> None:
        size = sum(2 if s == 2 else 1 for s in self.pending.values())
        if size:
            self.commits += 1
            self.ops_applied += size
            self._since_ckpt += 1
            if self._since_ckpt >= self.interval:
                self.checkpoints += 1
                self._since_ckpt = 0
        self.pending.clear()
        self.depth = 0


class _WriteMix:
    """Legal single-edge writes drawn against the effective edge set."""

    def __init__(self, rng, n: int, live: LiveEdges, queue: _QueueMirror,
                 reqs: list[Request]) -> None:
        self.rng, self.n, self.live = rng, n, live
        self.queue, self.reqs = queue, reqs
        self.last: Request | None = None

    def _submit(self, op: str, e: Edge, idem: str | None = None) -> Request:
        if idem is None:
            expect = self.queue.offer(op, e)
            idem = f"w{len(self.reqs)}"
        else:   # a redelivery is answered from the idempotency record
            expect = self.last.expect
        r = Request("submit", op=op, edge=e, idem=idem, expect=expect)
        self.reqs.append(r)
        self.last = r
        return r

    def insert(self) -> None:
        e = _absent_edge(self.rng, self.n, self.live)
        self.live.add(e)
        self._submit("insert", e)

    def delete(self) -> None:
        self._submit("delete", self.live.pop_random(self.rng))

    def bounce(self) -> None:
        """Insert a fresh edge and delete it right after."""
        e = _absent_edge(self.rng, self.n, self.live)
        self._submit("insert", e)
        self._submit("delete", e)

    def redeliver(self) -> None:
        """Send the previous write again under its idempotency key."""
        last = self.last
        self._submit(last.op, last.edge, idem=last.idem)

    def twin(self) -> None:
        """A second client's copy of a write still pending in the queue
        (a fresh key, so the queue itself dedups it)."""
        pending = self.queue.pending
        last = self.last
        if last is not None and pending.get(last.edge) in (
                (1, 2) if last.op == "insert" else (-1,)):
            self._submit(last.op, last.edge)
        else:
            self.insert()


def _serve_stream(seed: int, n: int, m: int, requests: int, max_batch: int,
                  checkpoint_interval: int, draw) -> ServeStream:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    live = _gnm(rng, n, m)
    initial = live.edges()
    shape = np.random.default_rng(_SHAPE_SEED)
    queue = _QueueMirror(max_batch, checkpoint_interval)
    reqs: list[Request] = []
    mix = _WriteMix(rng, n, live, queue, reqs)
    while len(reqs) < requests:   # a bounce pair may overshoot by one
        draw(shape, rng, mix, queue.commits)
    # the benchmark ends the timed phase with one explicit flush
    queue.flush()
    return ServeStream(n, initial, reqs, queue.commits, queue.ops_applied,
                       queue.checkpoints, time.perf_counter() - t0)


def writes_stream(seed: int, n: int, m: int, requests: int, max_batch: int,
                  checkpoint_interval: int) -> ServeStream:
    """Single-edge submits with about 10% point ``distance`` reads.

    Writes are 40% inserts, 40% deletes, and the rest split between
    insert/delete bounce pairs, idempotent redeliveries and queue
    twins, so coalescing and both dedup paths do work.
    """
    def draw(shape, rng, mix: _WriteMix, committed: int) -> None:
        r = shape.random()
        if r < 0.10:
            mix.reqs.append(Request("query", items=[("distance",
                                                     _pair(rng, mix.n))],
                                    seq=committed))
        elif r < 0.46:
            mix.insert()
        elif r < 0.82:
            mix.delete()
        elif r < 0.90:
            mix.bounce()
        elif r < 0.95 and mix.last is not None:
            mix.redeliver()
        else:
            mix.twin()

    return _serve_stream(seed, n, m, requests, max_batch,
                         checkpoint_interval, draw)


def reads_stream(seed: int, n: int, m: int, requests: int, max_batch: int,
                 checkpoint_interval: int, frame: int) -> ServeStream:
    """About 95% ``query_batch`` frames and 5% single-edge writes.

    A frame holds ``frame`` queries: its first three quarters are one
    ``distance`` and then alternate ``connected`` and ``contains``, and
    its last quarter repeats earlier entries so the engine's dedup has
    work.
    """
    fresh = frame - frame // 4
    cycle = ("distance",) + ("connected", "contains") * (fresh // 2)

    def draw(shape, rng, mix: _WriteMix, committed: int) -> None:
        if shape.random() < 0.05:
            if shape.random() < 0.5:
                mix.insert()
            else:
                mix.delete()
            return
        items = []
        for j in range(fresh):
            kind = cycle[j % len(cycle)]
            if kind == "contains":
                items.append((kind, mix.live.sample(rng)))
            else:
                items.append((kind, _pair(rng, mix.n)))
        for _ in range(frame - fresh):
            items.append(items[int(shape.integers(fresh))])
        mix.reqs.append(Request("batch", items=items, seq=committed))

    return _serve_stream(seed, n, m, requests, max_batch,
                         checkpoint_interval, draw)
