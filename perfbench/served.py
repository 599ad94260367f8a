"""``serve_writes`` and ``serve_reads``: the served paths over TCP.

One load-generator process with one thread and one connection drives a
closed loop (each call waits for its reply) against the server launcher
(:mod:`perfbench.server`) in a second process.  Every request is timed
here, from the send to the decoded reply.

The generator's queue mirror says what each reply must be: the queue
outcome of every write and the commit sequence of every read's
snapshot.  After the timed phase the benchmark flushes once, the
launcher runs the engine's deep self-check, and the final graph must
equal the client's replay of its acknowledged writes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench.gen import reads_stream, writes_stream
from perfbench.server import graph_digest
from perfbench.stats import latency_summary

#: workload parameters; the request count scales with ``--seconds``
PARAMS = {
    "serve_writes": {"n": 512, "m": 16384, "k": 3, "max_batch": 256,
                     "checkpoint_interval": 64, "requests_per_second": 2100,
                     "frame": 1, "deep": 1, "setups": 5},
    "serve_reads": {"n": 8192, "m": 32768, "k": 3, "max_batch": 1,
                    "checkpoint_interval": 64, "requests_per_second": 80,
                    "frame": 16, "deep": 0, "setups": 5},
}

SPAWN_TIMEOUT_S = 120.0
FINISH_TIMEOUT_S = 150.0


class _Server:
    """One launcher process; always reaped by :meth:`close`."""

    def __init__(self, root: Path, work: Path, spec_path: Path, wal: Path,
                 p: dict, trace_path: Path | None = None) -> None:
        cmd = [sys.executable, str(root / "perfbench" / "server.py"),
               "--spec", str(spec_path), "--wal", str(wal),
               "--max-batch", str(p["max_batch"]),
               "--checkpoint-interval", str(p["checkpoint_interval"]),
               "--deep", str(p["deep"])]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        self._err = open(work / "server.log", "a")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._err, text=True, bufsize=1, cwd=str(root))
        self.addr = self._expect("LISTEN ", SPAWN_TIMEOUT_S).split()

    def _expect(self, prefix: str, timeout: float) -> str:
        """Next stdout line starting with ``prefix``; kills on timeout."""
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
        finally:
            timer.cancel()
        raise RuntimeError(f"server exited before printing {prefix!r}; "
                           "see server.log")

    def finish(self) -> dict:
        """Ask for the self-check and counters; returns the report."""
        self.proc.stdin.write("finish\n")
        self.proc.stdin.flush()
        return json.loads(self._expect("RESULT ", FINISH_TIMEOUT_S))

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    self.proc.stdin.write("quit\n")
                    self.proc.stdin.close()
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self._err.close()


def _connect(server: _Server):
    from repro.net.client import NetClient

    host, port = server.addr
    return NetClient(host, int(port), tenant="bench", timeout=60.0)


def _check_reply(req, reply) -> bool:
    """Whether a reply is what the generator's mirror says it must be."""
    if req.kind == "submit":
        return reply["status"] == req.expect
    if reply["stale"] or reply["as_of_seq"] != req.seq:
        return False
    if req.kind == "query":
        return _distance_ok(reply["value"])
    values = reply["values"]
    if len(values) != len(req.items):
        return False
    seen, conn = {}, {}
    for (kind, payload), value in zip(req.items, values):
        if seen.setdefault((kind, payload), value) != value:
            return False   # one snapshot, one answer per repeated query
        if kind == "distance" and not _distance_ok(value):
            return False
        if kind in ("connected", "contains") and not isinstance(value, bool):
            return False
        if kind == "connected":
            conn[payload] = value
    return all(conn[p] == (v != "inf") for (k, p), v in
               zip(req.items, values) if k == "distance" and p in conn)


def _distance_ok(value) -> bool:
    return value == "inf" or (isinstance(value, (int, float))
                              and value >= 1 and value == int(value))


def _drive(client, stream) -> dict:
    """The timed closed loop over every generated request."""
    from repro.net.protocol import ProtocolError, ServerError

    writes, reads = [], []
    failed = wrong = 0
    acked = []
    t_start = time.perf_counter()
    for i, req in enumerate(stream.requests):
        t0 = time.perf_counter()
        try:
            if req.kind == "submit":
                reply = client.submit_info(req.op, *req.edge, idem=req.idem)
            elif req.kind == "query":
                kind, payload = req.items[0]
                reply = client.query_info(kind, payload)
            else:
                reply = client.query_batch(req.items)
        except ServerError:
            failed += 1
            continue
        except (OSError, ProtocolError):
            failed += len(stream.requests) - i
            break
        dt = time.perf_counter() - t0
        if req.kind == "submit":
            writes.append(dt)
            acked.append(req)
        else:
            reads.append(dt)
        if not _check_reply(req, reply):
            wrong += 1
    wall = time.perf_counter() - t_start
    return {"wall": wall, "writes": writes, "reads": reads,
            "failed": failed, "wrong": wrong, "acked": acked}


def _timed(client, server: _Server, stream, tracer) -> tuple:
    """The timed loop, the final flush and the server's report."""
    if tracer is not None:
        tracer.install("client")
    try:
        res = _drive(client, stream)
        committed = client.flush()
    finally:
        if tracer is not None:
            tracer.uninstall()
        client.close()
    return res, committed, server.finish()


def _replay(initial, acked) -> set:
    """The graph the acknowledged writes imply, applied in order."""
    graph = set(initial)
    for req in acked:
        if req.op == "insert":
            graph.add(req.edge)
        else:
            graph.discard(req.edge)
    return graph


def run(workload: str, seed: int, seconds: int, root: Path, work: Path,
        tracer=None) -> dict:
    p = PARAMS[workload]
    requests = max(1, round(seconds * p["requests_per_second"]))
    if workload == "serve_writes":
        stream = writes_stream(seed, p["n"], p["m"], requests,
                               p["max_batch"], p["checkpoint_interval"])
    else:
        stream = reads_stream(seed, p["n"], p["m"], requests,
                              p["max_batch"], p["checkpoint_interval"],
                              p["frame"])
    spec = {"kind": "spanner", "n": stream.n, "k": p["k"], "seed": seed,
            "edges": [list(e) for e in stream.initial]}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    trace_path = work / "server-spans.json" if tracer is not None else None

    # set-ups run on both sides of the timed phase, so their median
    # samples the host's speed at both ends of the run
    before = (p["setups"] + 1) // 2
    setups, server, client = [], None, None
    try:
        for i in range(p["setups"]):
            timed = i == before - 1
            wal = work / f"wal-{i}"
            shutil.rmtree(wal, ignore_errors=True)
            t0 = time.perf_counter()
            server = _Server(root, work, spec_path, wal, p,
                             trace_path if timed else None)
            client = _connect(server)
            setups.append(time.perf_counter() - t0)
            if timed:
                res, committed, report = _timed(client, server, stream,
                                                tracer)
            client.close()
            server.close()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.close()

    problems = list(report["violations"])
    expected = {"flushes": stream.commits, "wal_records": stream.commits,
                "checkpoints": stream.checkpoints,
                "ops_applied": stream.ops_applied,
                "committed_seq": stream.commits}
    for key, want in expected.items():
        if report[key] != want:
            problems.append(f"{key} {report[key]} != predicted {want}")
    if committed != stream.commits:
        problems.append(f"flush reply seq {committed} != {stream.commits}")
    replay = _replay(stream.initial, res["acked"])
    if graph_digest(replay) != report["graph_digest"]:
        problems.append("final graph differs from the client's replay of "
                        "its acknowledged writes")
    if res["failed"]:
        problems.append(f"{res['failed']} request(s) failed")
    if res["wrong"]:
        problems.append(f"{res['wrong']} reply(ies) differ from the "
                        "generator's prediction")
    if report["shed"]:
        problems.append(f"{report['shed']} request(s) shed")

    done = len(res["writes"]) + len(res["reads"])
    applied = max(report["ops_applied"], 1)
    w, r = latency_summary(res["writes"]), latency_summary(res["reads"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (done / res["wall"], "ops/s"),
        "write_p50_ms": (w["p50_ms"], "ms"),
        "read_p50_ms": (r["p50_ms"], "ms"),
        "read_p90_ms": (r["p90_ms"], "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "work_per_update": (report["work"] / applied, "count"),
        "depth_per_batch": (report["depth"] / max(report["flushes"], 1),
                            "count"),
        "recourse_per_update": (report["recourse"] / applied, "count"),
    }
    dumps = []
    if tracer is not None:
        dumps = [tracer.dump(), json.loads(trace_path.read_text())]
    return {
        "metrics": metrics,
        "attempted": len(stream.requests),
        "failed": res["failed"] + res["wrong"],
        "problems": problems,
        "repeat": {k: report[k] for k in
                   ("work", "depth", "recourse", "flushes", "wal_records",
                    "checkpoints")},
        "params": dict(p, requests=len(stream.requests),
                       writes=stream.writes),
        "samples": {"write": w, "read": r},
        "gen_s": stream.gen_s,
        "setup_samples_s": setups,
        "check_s": report["check_s"],
        "spanner_to_graph_ratio": report["spanner_to_graph_ratio"],
        "dumps": dumps,
    }
