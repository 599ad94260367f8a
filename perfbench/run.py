"""Benchmark entry point.

    python3 perfbench/run.py --workload batch_updates --seed 1 \\
        --seconds 40 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``) and
writes only under ``.bench_build/perfbench/`` there.  Workloads:

- ``batch_updates``: the library update path (:mod:`perfbench.library`);
- ``serve_reads``: the served read path over TCP, with a few writes,
  against a server in its own process (:mod:`perfbench.served`);
- ``serve_writes``: the served write path, the same way.  It is not in
  ``BENCHMARK.json``: its figures are single-edge round trips between
  two processes, whose speed drifts with the host far beyond any bound
  (the median write latency spread 0.42-0.50 of its median over ten
  seeds).  Run it by hand, mostly with ``--trace 1`` for the per-layer
  split of the net, service and resilience layers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced then traced, and prints the per-layer metrics
of the traced pass plus the tracing overhead.  Either way the run
checks the program's outputs; a failed check sets ``correct`` to false.
The last line of standard output is the result object; the lines before
it are the run record and, when traced, the per-layer table.

The process and the server it spawns are pinned to one CPU (see
``_pin_one_cpu``).

Counts that must repeat exactly for one seed (charged work, depth and
recourse; flush, WAL-record and checkpoint counts) are kept in
``.bench_build/perfbench/repeat.json``; a later run of the same seed and
length that disagrees is reported as incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("batch_updates", "serve_writes", "serve_reads")

#: per-layer metric units, by name suffix
_UNITS = (("_ops_s", "ops/s"), ("_s", "s"), (".bytes", "bytes"),
          ("_ratio", "ratio"), ("_frac", "ratio"), ("_mean", "ops"))


def _unit(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _pin_one_cpu() -> int | None:
    """Pin this process, and the server it spawns, to one CPU.

    The served workloads are a closed loop of two processes that wake
    each other on every request.  On a 2-vCPU VM whose host deschedules
    vCPUs, every wake-up across vCPUs waits for the other vCPU to be
    scheduled: a 10 s ``serve_writes`` run measured 500 requests/s
    unpinned against 1600-2400 pinned, on the same seed.  The highest
    allowed CPU is taken, since device interrupts favour CPU 0.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _run_once(workload: str, seed: int, seconds: int, work: Path,
              tracer=None) -> dict:
    if workload == "batch_updates":
        from perfbench import library

        return library.run(seed, seconds, tracer)
    from perfbench import served

    return served.run(workload, seed, seconds, ROOT, work, tracer)


def _check_repeat(store: Path, key: str, counts: dict) -> list[str]:
    """Compare exact counts with the first run of the same key."""
    pins = json.loads(store.read_text()) if store.exists() else {}
    first = pins.setdefault(key, counts)
    if first is counts:
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(pins, indent=1, sort_keys=True))
        os.replace(tmp, store)
        return []
    return [f"{name} {counts.get(name)} != {value} of an earlier run of "
            f"{key}" for name, value in first.items()
            if counts.get(name) != value]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.gen import DEFAULT_SEED, HELDOUT_SEED
    from perfbench.spans import Tracer, layer_report
    from perfbench.stats import fingerprint

    cpu = _pin_one_cpu()
    seed = DEFAULT_SEED if args.seed is None else args.seed
    base = ROOT / ".bench_build" / "perfbench"
    work = base / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        passes = [_run_once(args.workload, seed, args.seconds, work)]
        if args.trace:
            passes.append(_run_once(args.workload, seed, args.seconds, work,
                                    Tracer()))
        key = (f"{args.workload}/seed={seed}/"
               + json.dumps(passes[0]["params"], sort_keys=True))
        problems = []
        for res in passes:
            problems += res["problems"]
            problems += _check_repeat(base / "repeat.json", key,
                                      res["repeat"])
        res = passes[0]
        record = {
            "workload": args.workload, "seed": seed,
            "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
            "seconds": args.seconds, "trace": args.trace, "cpu": cpu,
            "params": res["params"], "machine": fingerprint(ROOT, work),
            "samples": res["samples"], "gen_s": res["gen_s"],
            "setup_samples_s": res["setup_samples_s"],
            "check_s": res["check_s"],
            "spanner_to_graph_ratio": res["spanner_to_graph_ratio"],
            "repeat": res["repeat"], "problems": problems,
            "end_to_end": {k: v for k, (v, _) in res["metrics"].items()},
        }
        if args.trace:
            layers = layer_report(passes[1]["dumps"])
            untraced = res["metrics"]["throughput_ops_s"][0]
            traced = passes[1]["metrics"]["throughput_ops_s"][0]
            layers["trace.overhead_ops_s"] = untraced - traced
            layers["trace.overhead_frac"] = (untraced - traced) / untraced
            metrics = {k: {"value": v, "unit": _unit(k)}
                       for k, v in layers.items()}
            _print_layers(args.workload, layers)
        else:
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in res["metrics"].items()}
        print("RECORD " + json.dumps(record, sort_keys=True))
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        attempted = sum(r["attempted"] for r in passes)
        failed = sum(r["failed"] for r in passes)
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _print_layers(workload: str, layers: dict) -> None:
    """Per-layer self time, calls and work, one row per layer."""
    from perfbench.spans import LAYERS

    total = sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    print(f"per-layer self time, {workload} (traced pass)")
    print(f"{'layer':<12}{'self_s':>10}{'share':>8}  counts")
    for layer in LAYERS:
        own = layers.get(f"{layer}.self_s")
        share = f"{own / total:8.1%}" if own is not None and total else \
            f"{'':>8}"
        counts = ", ".join(
            f"{k.split('.', 1)[1]}={v:.6g}" for k, v in layers.items()
            if k.startswith(layer + ".") and k != f"{layer}.self_s"
            and not k.endswith("_s"))
        own_txt = f"{own:10.3f}" if own is not None else f"{'-':>10}"
        print(f"{layer:<12}{own_txt}{share}  {counts}")
    print(f"tracing overhead: {layers['trace.overhead_ops_s']:.6g} ops/s "
          f"({layers['trace.overhead_frac']:.1%} of untraced throughput)")


if __name__ == "__main__":
    sys.exit(main())
