"""Replica-scaling benchmark for the networked serving layer (SRV2).

Drives a seeded read-heavy request stream (default 95/5 read-write, from
:func:`repro.workloads.streams.request_stream`) against a single-writer
primary plus N read replicas, then drains, waits for full catch-up, and
oracle-verifies replica equivalence before reporting throughput.

Capacity model: this box has one core, so real CPU-bound replica scaling
is unmeasurable here.  Instead each serving front end is given one query
slot and a **pinned simulated per-query service time** (an asyncio sleep
inside the slot — see ``NetServerConfig.service_time``), so aggregate
read capacity is ``replicas / service_time`` by construction and the
benchmark measures everything *around* that pinned cost: protocol,
shipping, admission, drain, and equivalence.  The report says which mode
produced it; on a many-core box ``service_time=0`` measures the real
engine.

Two modes:

- ``inproc``: primary and replicas as threads in this process (fast, used
  by the ``tools/bench_gate.py`` SRV2 scenario).
- ``subprocess``: primary and replicas as real ``repro.cli`` processes on
  localhost (used by the CI ``net-smoke`` job), supporting
  ``kill_replica=True`` — one replica is SIGKILLed mid-run, serving
  continues on the survivors, and a freshly bootstrapped replacement must
  still converge to exact equivalence.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.harness import BenchReport, format_table
from repro.net.client import NetClient
from repro.net.protocol import ProtocolError, ServerError
from repro.net.replica import LogShippingReplica, ReplicaConfig, run_replica
from repro.net.server import NetServerConfig, ThreadedServer
from repro.net.tenants import TenantConfig, TenantManager
from repro.workloads.streams import request_stream

__all__ = ["BenchNetConfig", "run_bench_net"]

#: the served graph: G(N, M) under a k=2 spanner
N, M, K = 96, 220, 2
#: query slots per serving front end (read capacity is slots/service_time)
QUERY_SLOTS = 1
#: seconds the replicas get to drain to the primary's committed seq
CONVERGE_TIMEOUT = 30.0


@dataclass
class BenchNetConfig:
    replicas: int = 1
    requests: int = 2000
    read_fraction: float = 0.95
    seed: int = 1234
    service_time: float = 0.002     # pinned per-query engine seconds
    mode: str = "inproc"            # "inproc" | "subprocess"
    kill_replica: bool = False      # SIGKILL one replica mid-run

    def smoke_sized(self) -> BenchNetConfig:
        """This run at CI size: <= 400 requests at a <= 1 ms pinned query
        cost, so the whole run (convergence and oracle check included)
        stays well under 30 s."""
        return replace(self, requests=min(self.requests, 400),
                       service_time=min(self.service_time, 1e-3))


# -- cluster harnesses --------------------------------------------------------


class _InprocCluster:
    """Primary + replicas as threads inside this process."""

    def __init__(self, cfg: BenchNetConfig, spec: dict) -> None:
        self.cfg = cfg
        self.tenants = TenantManager()
        self.tenants.create(TenantConfig(name="default", spec=spec))
        self.primary = ThreadedServer(self.tenants, NetServerConfig(
            query_slots=QUERY_SLOTS, service_time=cfg.service_time,
        )).start()
        self.replicas: list[LogShippingReplica] = []
        self.replica_servers: list[ThreadedServer] = []
        self._stops: list[threading.Event] = []
        self._threads: list[threading.Thread] = []
        for _ in range(cfg.replicas):
            self.add_replica()

    @property
    def primary_addr(self) -> tuple[str, int]:
        return self.primary.host, self.primary.port

    def replica_addrs(self) -> list[tuple[str, int]]:
        return [(s.host, s.port) for s in self.replica_servers]

    def add_replica(self) -> None:
        replica, server = run_replica(
            self.primary.host, self.primary.port,
            listen=("127.0.0.1", 0),
            config=ReplicaConfig(poll_interval=0.005),
            query_slots=QUERY_SLOTS,
            service_time=self.cfg.service_time,
        )
        stop = threading.Event()
        thread = threading.Thread(
            target=replica.run, kwargs={"stop": stop}, daemon=True)
        thread.start()
        self.replicas.append(replica)
        self.replica_servers.append(server)
        self._stops.append(stop)
        self._threads.append(thread)

    def kill_replica(self, idx: int = 0) -> None:
        """Hard-stop one replica: poll loop and front end both die."""
        self._stops[idx].set()
        self._threads[idx].join(timeout=5)
        self.replica_servers[idx].stop()
        self.replicas[idx].close()
        del (self.replicas[idx], self.replica_servers[idx],
             self._stops[idx], self._threads[idx])

    def wait_converged(self, timeout: float) -> bool:
        with NetClient(*self.primary_addr) as c:
            primary_seq = c.flush()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(r.service.committed_seq == primary_seq and r.lag == 0
                   for r in self.replicas):
                return True
            time.sleep(0.01)
        return False

    def verify(self) -> list[str]:
        from repro.oracle import verify_replica

        violations: list[str] = []
        primary_service = self.tenants.get("default").service
        for i, replica in enumerate(self.replicas):
            result = verify_replica(primary_service, replica.service)
            violations += [f"replica {i}: {v}" for v in result.violations]
        return violations

    def close(self) -> None:
        for stop in self._stops:
            stop.set()
        for thread in self._threads:
            thread.join(timeout=5)
        for server in self.replica_servers:
            server.stop()
        for replica in self.replicas:
            replica.close()
        self.primary.stop()
        self.tenants.close()


class _SubprocCluster:
    """Primary + replicas as real ``repro.cli`` processes."""

    def __init__(self, cfg: BenchNetConfig, spec: dict) -> None:
        self.cfg = cfg
        self._spec = spec
        self.procs: list[subprocess.Popen] = []
        self._addrs: list[tuple[str, int]] = []
        # --seed cfg.seed+1 reproduces request_stream's initial graph
        # (it draws edges from gnm_random_graph at seed+1), so the write
        # stream stays sequentially legal against the subprocess primary
        serve_cmd = [
            "serve", "--listen", "127.0.0.1:0", "--shards", "1",
            "--backend", "spanner", "--n", str(spec["n"]),
            "--k", str(spec["k"]), "--m", str(M),
            "--seed", str(cfg.seed + 1),
            "--query-slots", str(QUERY_SLOTS),
            "--service-time-us", str(int(cfg.service_time * 1e6)),
        ]
        self._primary_proc, self.primary_addr = _spawn(serve_cmd)
        for _ in range(cfg.replicas):
            self.add_replica()

    def replica_addrs(self) -> list[tuple[str, int]]:
        return list(self._addrs)

    def add_replica(self) -> None:
        host, port = self.primary_addr
        proc, addr = _spawn([
            "replica", "--primary", f"{host}:{port}",
            "--listen", "127.0.0.1:0",
            "--query-slots", str(QUERY_SLOTS),
            "--service-time-us", str(int(self.cfg.service_time * 1e6)),
        ])
        self.procs.append(proc)
        self._addrs.append(addr)

    def kill_replica(self, idx: int = 0) -> None:
        self.procs[idx].kill()
        self.procs[idx].wait(timeout=10)
        del self.procs[idx], self._addrs[idx]

    def wait_converged(self, timeout: float) -> bool:
        with NetClient(*self.primary_addr) as c:
            primary_seq = c.flush()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                seqs = []
                for addr in self._addrs:
                    with NetClient(*addr) as rc:
                        seqs.append(rc.admin("stats")["committed_seq"])
                if all(s == primary_seq for s in seqs):
                    return True
            except (OSError, ProtocolError, ServerError):
                pass
            time.sleep(0.05)
        return False

    def verify(self) -> list[str]:
        """Wire-level equivalence: replica edge sets match the primary."""
        violations: list[str] = []
        with NetClient(*self.primary_addr) as c:
            primary_edges = c.edges()
            primary_seq = c.admin("stats")["committed_seq"]
        for i, addr in enumerate(self._addrs):
            with NetClient(*addr) as rc:
                r_edges = rc.edges()
                r_seq = rc.admin("stats")["committed_seq"]
            if r_seq != primary_seq:
                violations.append(
                    f"replica {i}: committed_seq {r_seq} != primary "
                    f"{primary_seq}")
            if r_edges != primary_edges:
                violations.append(
                    f"replica {i}: edge set differs from primary by "
                    f"{len(r_edges ^ primary_edges)} edge(s)")
        return violations

    def close(self) -> None:
        for proc in [*self.procs, self._primary_proc]:
            proc.terminate()
        for proc in [*self.procs, self._primary_proc]:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


def _spawn(cli_args: list[str],
           timeout: float = 30.0) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start a ``repro.cli`` serve-family process, wait for NET-LISTEN."""
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *cli_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, bufsize=1, env=env,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    lines = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            lines.append(line.rstrip())
            if line.startswith("NET-LISTEN "):
                _, host, port = line.split()
                return proc, (host, int(port))
    finally:
        timer.cancel()
    raise RuntimeError(
        "server process exited before announcing its port:\n"
        + "\n".join(lines[-20:]))


# -- the drive ----------------------------------------------------------------


def run_bench_net(config: BenchNetConfig | None = None) -> BenchReport:
    """Run the replica-scaling benchmark; see module docstring."""
    cfg = config or BenchNetConfig()
    initial, reqs = request_stream(
        N, M, cfg.requests, seed=cfg.seed,
        query_prob=cfg.read_fraction,
    )
    writes = [(op, e) for op, e in reqs if op != "query"]
    reads = [e for op, e in reqs if op == "query"]
    spec = {"kind": "spanner", "n": N, "k": K,
            "edges": [list(e) for e in initial], "seed": cfg.seed}
    cluster_cls = _SubprocCluster if cfg.mode == "subprocess" \
        else _InprocCluster
    cluster = cluster_cls(cfg, spec)
    try:
        return _drive(cluster, cfg, writes, reads)
    finally:
        cluster.close()


def _drive(cluster, cfg: BenchNetConfig, writes, reads) -> BenchReport:
    read_addrs = cluster.replica_addrs() or [cluster.primary_addr]
    latencies: list[float] = []
    counters = {"sheds": 0, "stale": 0, "done": 0}
    lock = threading.Lock()
    dead_addrs: set = set()
    kill_at = len(reads) // 2 if cfg.kill_replica else None
    kill_fired = threading.Event()
    killed_replica = False

    def writer() -> None:
        with NetClient(*cluster.primary_addr) as c:
            for op, (u, v) in writes:
                for _ in range(50):
                    try:
                        c.submit(op, u, v)
                        break
                    except ServerError as exc:
                        with lock:
                            counters["sheds"] += 1
                        time.sleep(min(exc.retry_after or 0.001, 0.05))

    def reader(idx: int, my_reads) -> None:
        clients: dict = {}
        try:
            for j, (u, v) in enumerate(my_reads):
                addr = _pick_addr(read_addrs, dead_addrs, idx + j)
                if addr is None:
                    return
                c = clients.get(addr)
                if c is None:
                    try:
                        c = clients[addr] = NetClient(*addr)
                    except OSError:
                        dead_addrs.add(addr)
                        continue
                t0 = time.perf_counter()
                try:
                    info = c.query_info("connected", (u, v))
                except ServerError as exc:
                    with lock:
                        counters["sheds"] += 1
                    time.sleep(min(exc.retry_after or 0.001, 0.05))
                    continue
                except (OSError, ProtocolError):
                    dead_addrs.add(addr)
                    clients.pop(addr, None)
                    continue
                dt = time.perf_counter() - t0
                with lock:
                    latencies.append(dt)
                    counters["done"] += 1
                    if info["stale"]:
                        counters["stale"] += 1
                    fire_kill = (kill_at is not None
                                 and counters["done"] >= kill_at
                                 and not kill_fired.is_set())
                if fire_kill:
                    kill_fired.set()
        finally:
            for c in clients.values():
                c.close()

    n_readers = max(2, 2 * max(1, cfg.replicas))
    shards = [reads[i::n_readers] for i in range(n_readers)]
    threads = [threading.Thread(target=writer, daemon=True)]
    threads += [
        threading.Thread(target=reader, args=(i, shard), daemon=True)
        for i, shard in enumerate(shards)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    if kill_at is not None:
        # kill from the coordinating thread so readers never block on it
        while any(t.is_alive() for t in threads[1:]) \
                and not kill_fired.wait(timeout=0.05):
            pass
        if kill_fired.is_set() and cluster.replica_addrs():
            victim = cluster.replica_addrs()[0]
            dead_addrs.add(victim)
            cluster.kill_replica(0)
            killed_replica = True
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    def percentile_ms(q: float) -> float:
        if not latencies:
            return 0.0
        i = min(len(latencies) - 1, int(len(latencies) * q))
        return round(1e3 * latencies[i], 3)

    latencies.sort()
    if killed_replica:
        # a freshly bootstrapped replacement must converge to equivalence
        cluster.add_replica()
    converged = cluster.wait_converged(CONVERGE_TIMEOUT)
    violations = [str(v) for v in cluster.verify()] if converged \
        else ["replicas did not converge before timeout"]
    payload = {
        "mode": cfg.mode,
        "replicas": cfg.replicas,
        "requests": cfg.requests,
        "read_fraction": cfg.read_fraction,
        "service_time": cfg.service_time,
        "elapsed_s": round(elapsed, 4),
        "reads": counters["done"],
        "writes": len(writes),
        "read_throughput_rps": round(
            counters["done"] / elapsed if elapsed > 0 else 0.0, 1),
        "read_p50_ms": percentile_ms(0.5),
        "read_p99_ms": percentile_ms(0.99),
        "stale_reads": counters["stale"],
        "sheds": counters["sheds"],
        "killed_replica": killed_replica,
        "converged": converged,
        "verified": not violations,
        "violations": violations,
    }
    text = format_table(
        [{k: v for k, v in payload.items() if k != "violations"}],
        title="repro bench-net: replica scaling (SRV2)")
    if not violations:
        text += ("\nreplica equivalence: OK — every replica converged to "
                 "the primary's exact state (oracle-verified)")
    return BenchReport(payload, text, failures=list(violations))


def _pick_addr(addrs, dead, i):
    alive = [a for a in addrs if a not in dead]
    if not alive:
        return None
    return alive[i % len(alive)]
