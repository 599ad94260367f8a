"""PAR1 — measured wall-clock speedup vs. the Brent prediction ``W/p + D``.

The cost model charges every batch kernel a ``(work, depth)`` pair, and
Brent's bound predicts a ``p``-processor schedule needs at most
``W/p + D`` time.  This bench closes the loop the paper itself can't
show: it runs the two chunk-parallel batch kernels (multi-source BFS and
component flooding, :mod:`repro.parallel.kernels`) under a real
:class:`~repro.parallel.pool.ProcessPoolBackend` p-sweep and compares the
*measured* speedup curve against the *predicted* one,
``speedup_pred(p) = brent_time(c, 1) / brent_time(c, p)``.

Execution-cost convention
-------------------------
By default each charged work unit carries a pinned execution cost of
``unit_cost_us`` microseconds (workers sleep ``scans x unit_cost``after
expanding a chunk; the ``p = 1`` baseline runs the *same* chunked driver
on a :class:`~repro.parallel.backend.SequentialBackend` and pays the
identical total serially).  This is the SRV2 convention — a pinned
per-unit service time makes the schedule-level speedup measurable and
honest on any machine, including a 1-core CI box where pure-CPU speedup
is physically impossible; sleeps overlap across worker processes exactly
as compute would across cores.  ``--pure`` adds a ``unit_cost = 0`` sweep
that measures raw CPU instead (only meaningful on real multicore
hardware).

Charge-pin verification
-----------------------
Before timing anything the bench records the kernels' charged totals
sequentially, then re-records them under a 2-worker pool and requires
*exact* ``(work, depth)`` equality plus identical answers — the same
invariant the ``tools/bench_gate.py`` pins enforce for the serving-path
scenarios.  Every run does this; a mismatch is a report failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any

from ..harness import BenchReport
from ..harness.figures import ascii_plot
from ..pram.cost import NULL_COST_MODEL, Cost, CostModel, brent_time
from ..queries.batch import batch_components, multi_source_bfs
from .backend import SequentialBackend
from .pool import ProcessPoolBackend

__all__ = ["BenchParallelConfig", "MIN_SPEEDUP", "check_bar",
           "run_bench_parallel"]

#: the pool-backed batch kernels the sweep times
KERNELS = ("mbfs", "components")
#: acceptance bar (full runs): measured speedup of at least MIN_SPEEDUP at
#: p = BAR_PROCS on at least one kernel
MIN_SPEEDUP = 2.0
BAR_PROCS = 4


@dataclass
class BenchParallelConfig:
    """Knobs for the PAR1 p-sweep."""

    n: int = 4000
    m: int = 16000
    sources: int = 24          # BFS wave count (k)
    queried: int = 48          # component-labeling query vertices
    procs: tuple[int, ...] = (1, 2, 4, 8)
    unit_cost_us: float = 15.0
    repeats: int = 2
    min_items: int = 32        # rounds smaller than this expand inline
    seed: int = 0
    pure: bool = False         # add a unit_cost=0 (raw CPU) sweep

    def smoke_sized(self) -> BenchParallelConfig:
        """This run at CI size: a small graph, p <= 2, one repeat."""
        return replace(
            self,
            n=min(self.n, 600),
            m=min(self.m, 1800),
            sources=min(self.sources, 8),
            queried=min(self.queried, 16),
            procs=tuple(p for p in self.procs if p <= 2) or (1, 2),
            repeats=1,
            unit_cost_us=min(self.unit_cost_us, 20.0),
        )


def check_bar(report: BenchReport) -> None:
    """Record a failure unless a full run reaches :data:`MIN_SPEEDUP` at
    ``p = BAR_PROCS`` on at least one kernel; marks each kernel's
    ``meets_bar``."""
    best = 0.0
    for entry in report.payload["kernels"].values():
        measured = next((r["measured_x"] for r in entry["rows"]
                         if r["p"] == BAR_PROCS), 0.0)
        entry["meets_bar"] = measured >= MIN_SPEEDUP
        best = max(best, measured)
    report.require(f"PAR1 p={BAR_PROCS} speedup (best kernel)", best,
                   MIN_SPEEDUP)
    report.payload["pass"] = report.ok


def _random_adjacency(cfg: BenchParallelConfig) -> dict[int, list[int]]:
    rng = random.Random(cfg.seed)
    adj: dict[int, set[int]] = {v: set() for v in range(cfg.n)}
    edges = 0
    while edges < cfg.m:
        u = rng.randrange(cfg.n)
        v = rng.randrange(cfg.n)
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            edges += 1
    return {v: sorted(ws) for v, ws in adj.items()}


def _make_backend(cfg: BenchParallelConfig, p: int, unit_cost_s: float):
    if p <= 1:
        return SequentialBackend(unit_cost_s=unit_cost_s, min_items=cfg.min_items)
    return ProcessPoolBackend(
        p, unit_cost_s=unit_cost_s, min_items=cfg.min_items
    )


def _kernel_runner(cfg: BenchParallelConfig, kernel: str, adj):
    rng = random.Random(cfg.seed + 1)
    if kernel == "mbfs":
        srcs = rng.sample(range(cfg.n), min(cfg.sources, cfg.n))

        def run(backend=None, cost=None):
            return multi_source_bfs(
                adj, srcs, cost=cost if cost is not None else NULL_COST_MODEL,
                backend=backend, adj_version=("par1", cfg.seed),
            )

    else:  # "components"
        verts = rng.sample(range(cfg.n), min(cfg.queried, cfg.n))

        def run(backend=None, cost=None):
            return batch_components(
                adj, verts, cost=cost if cost is not None else NULL_COST_MODEL,
                backend=backend, adj_version=("par1", cfg.seed),
            )

    return run


def _sweep(cfg: BenchParallelConfig, run, charged: Cost, unit_cost_s: float,
           ref: Any, failures: list[str], kernel: str):
    rows: list[dict[str, Any]] = []
    t_base: float | None = None
    for p in cfg.procs:
        backend = _make_backend(cfg, p, unit_cost_s)
        try:
            best = float("inf")
            for _ in range(cfg.repeats):
                t0 = time.perf_counter()
                got = run(backend=backend)
                best = min(best, time.perf_counter() - t0)
            if got != ref:
                failures.append(f"{kernel}: p={p} answers diverged from "
                                "the sequential reference")
        finally:
            util = backend.utilization
            fallbacks = backend.inline_fallbacks_total
            backend.close()
        if t_base is None:
            t_base = best
        predicted = brent_time(charged, 1) / brent_time(charged, p)
        rows.append(
            {
                "p": p,
                "wall_s": round(best, 4),
                "measured_x": round(t_base / best, 3),
                "predicted_x": round(predicted, 3),
                "utilization": round(util, 3),
                "inline_fallbacks": fallbacks,
            }
        )
    return rows


def run_bench_parallel(cfg: BenchParallelConfig) -> BenchReport:
    """Run the PAR1 sweep, charge-pin verification included."""
    adj = _random_adjacency(cfg)
    unit_cost_s = cfg.unit_cost_us * 1e-6
    failures: list[str] = []
    payload: dict[str, Any] = {
        "bench": "PAR1",
        "config": {
            "n": cfg.n,
            "m": cfg.m,
            "sources": cfg.sources,
            "queried": cfg.queried,
            "procs": list(cfg.procs),
            "unit_cost_us": cfg.unit_cost_us,
            "repeats": cfg.repeats,
            "min_items": cfg.min_items,
            "seed": cfg.seed,
            # smoke sizing is idempotent, so a smoke run is its fixed point
            "smoke": cfg == cfg.smoke_sized(),
        },
        "kernels": {},
    }
    for kernel in KERNELS:
        run = _kernel_runner(cfg, kernel, adj)
        # Canonical charges: the plain sequential traversal, no backend.
        cm_seq = CostModel()
        ref_answer = run(cost=cm_seq)
        charged = cm_seq.snapshot()
        # Exact (work, depth) + answer equality under a live 2-worker
        # pool while charges are being recorded.
        pool = ProcessPoolBackend(2, min_items=cfg.min_items)
        try:
            cm_pool = CostModel()
            pool_answer = run(backend=pool, cost=cm_pool)
        finally:
            pool.close()
        sequential = [charged.work, charged.depth]
        pooled = [cm_pool.work, cm_pool.depth]
        if pooled != sequential:
            failures.append(f"{kernel}: pool charges {pooled} != "
                            f"sequential {sequential}")
        if pool_answer != ref_answer:
            failures.append(f"{kernel}: pool answers differ from the "
                            "sequential answers")
        entry: dict[str, Any] = {
            "work": charged.work,
            "depth": charged.depth,
            "brent_time_units": {
                str(p): round(brent_time(charged, p), 1) for p in cfg.procs
            },
            "verify": {
                "charges_equal": pooled == sequential,
                "answers_equal": pool_answer == ref_answer,
                "sequential": sequential,
                "pool": pooled,
            },
            "rows": _sweep(cfg, run, charged, unit_cost_s, ref_answer,
                           failures, kernel),
        }
        if cfg.pure:
            entry["pure_rows"] = _sweep(cfg, run, charged, 0.0, ref_answer,
                                        failures, kernel)
        payload["kernels"][kernel] = entry
    payload["pass"] = not failures
    return BenchReport(payload, _render(payload), failures)


def _render(payload: dict[str, Any]) -> str:
    """Human-readable tables + ASCII speedup plot."""
    lines: list[str] = []
    cfg = payload["config"]
    lines.append(
        f"PAR1 p-sweep: n={cfg['n']} m={cfg['m']} k={cfg['sources']} "
        f"unit_cost={cfg['unit_cost_us']}us/work "
        f"procs={cfg['procs']}"
    )
    for kernel, entry in payload["kernels"].items():
        lines.append("")
        lines.append(
            f"[{kernel}] charged work={entry['work']} depth={entry['depth']}"
        )
        v = entry["verify"]
        lines.append(
            "  charge pin (2-worker pool vs sequential): "
            f"charges_equal={v['charges_equal']} "
            f"answers_equal={v['answers_equal']}"
        )
        lines.append(
            "  p    wall_s   measured_x  predicted_x  utilization"
        )
        for r in entry["rows"]:
            lines.append(
                f"  {r['p']:<4} {r['wall_s']:<8} {r['measured_x']:<11} "
                f"{r['predicted_x']:<12} {r['utilization']:<.3f}"
            )
        for r in entry.get("pure_rows", []):
            lines.append(
                f"  {r['p']:<4} {r['wall_s']:<8} {r['measured_x']:<11} "
                f"{r['predicted_x']:<12} (pure CPU, unit_cost=0)"
            )
        xs = [r["p"] for r in entry["rows"]]
        if len(xs) > 1:
            lines.append(
                ascii_plot(
                    xs,
                    {
                        "measured": [r["measured_x"] for r in entry["rows"]],
                        "predicted (W/p+D)": [
                            r["predicted_x"] for r in entry["rows"]
                        ],
                    },
                    width=48,
                    height=10,
                    title=f"{kernel}: speedup vs p",
                )
            )
    return "\n".join(lines)
