"""Latency summaries and the run record's machine fingerprint."""

from __future__ import annotations

import math
import os
import platform
import statistics
from pathlib import Path

__all__ = ["TAIL_LADDER", "fingerprint", "latency_summary"]

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, *range(99, 49, -1))


def _rank(count: int, pct: float) -> int:
    """Nearest rank: the p-th percentile is the ceil(p% * count)-th sample."""
    return max(1, math.ceil(count * pct / 100))


def latency_summary(samples_s: list[float]) -> dict:
    """Median, 90th percentile and tail of per-call latencies, in ms.

    The tail is the highest percentile of :data:`TAIL_LADDER` that still
    has at least ten samples above it at this sample count; the summary
    names it and the count.  It goes to the run record only: with ten
    samples beyond it, it lands on whichever rare event (a level
    rebuild, a checkpoint) the run happened to meet, so it spreads from
    seed to seed far beyond any bound.
    """
    ordered = sorted(samples_s)
    count = len(ordered)
    if not count:
        return {"count": 0, "p50_ms": 0.0, "p90_ms": 0.0, "tail_ms": 0.0,
                "tail_pct": None}
    tail_pct, rank = TAIL_LADDER[-1], 1
    for pct in TAIL_LADDER:
        rank = _rank(count, pct)
        if count - rank >= 10:
            tail_pct = pct
            break
    return {
        "count": count,
        "p50_ms": 1e3 * statistics.median(ordered),
        "p90_ms": 1e3 * ordered[_rank(count, 90) - 1],
        "tail_ms": 1e3 * ordered[rank - 1],
        "tail_pct": tail_pct,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and str(path).startswith(parts[1]) \
                        and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def _git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(root: Path, wal_dir: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(root),
        "wal_fs": _filesystem(wal_dir.resolve()),
    }
