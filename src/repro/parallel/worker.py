"""One child process on one duplex pipe: the worker-process primitive.

Both process supervisors run their children through this module: the
shard executor (:mod:`repro.service.shard`, stateful workers recovered by
checkpoint + WAL replay) and the process pool (:mod:`repro.parallel.pool`,
stateless workers whose tasks are requeued).  The mechanics they share
live here and nowhere else:

* the start method (:func:`mp_context`),
* message framing (one highest-protocol pickle per frame),
* the child-side request loop (:func:`serve`),
* spawn, deadline-bounded receive, liveness, kill and teardown
  (:class:`WorkerProcess`),
* the restart-delay rule (:func:`restart_delay`).

Every failure of a worker — a missed deadline, EOF, a torn pipe — surfaces
as one typed :class:`WorkerGone`, so a policy never has to know which OS
error a death happened to produce.  Supervision is uncharged control
plane: nothing here touches a cost model.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import sys
from typing import Any, Callable

__all__ = [
    "WorkerGone",
    "WorkerProcess",
    "mp_context",
    "restart_delay",
    "serve",
]


class WorkerGone(RuntimeError):
    """A worker died, missed its reply deadline, or its pipe tore."""


def mp_context():
    """``fork`` where available (cheap, inherits the parent image), else
    ``spawn``."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context("spawn")  # pragma: no cover - non-POSIX


def _send_frame(conn, obj: Any) -> None:
    """Send ``obj`` as one highest-protocol pickle frame.

    Pipes default to older pickle protocols; the highest one frames large
    update batches and broadcast payloads with cheaper int/tuple encoding.
    """
    conn.send_bytes(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def _recv_frame(conn) -> Any:
    """Receive one frame written by :func:`_send_frame`."""
    return pickle.loads(conn.recv_bytes())


def serve(conn, handle: Callable[[Any], Any]) -> None:
    """Child-side loop: answer each message with ``handle(msg)``.

    Runs until a ``("stop",)`` message or until the parent's end of the
    pipe closes.  A ``None`` reply is not sent (one-way messages).  If
    ``handle`` raises, the child exits with status 1 after one stderr line
    naming its pid, the command and the exception (no traceback); the
    parent sees the closed pipe as :class:`WorkerGone`.
    """
    while True:
        try:
            msg = _recv_frame(conn)
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            return
        try:
            reply = handle(msg)
        except Exception as exc:  # noqa: BLE001 - the child dies either way
            print(f"worker pid={os.getpid()} died on {msg[0]!r}: {exc!r}",
                  file=sys.stderr, flush=True)
            raise SystemExit(1) from None
        if reply is not None:
            try:
                _send_frame(conn, reply)
            except OSError:  # parent is gone; nothing left to report to
                return


def restart_delay(k: int, base: float, cap: float = float("inf")) -> float:
    """Sleep before the ``k``-th consecutive restart: ``min(cap, base·2^k)``."""
    return min(cap, base * (2 ** k))


class WorkerProcess:
    """One daemon child running ``target(conn, *args)`` plus the parent's
    end of its duplex pipe.

    ``proc`` is the :class:`multiprocessing.Process`; ``conn`` the parent
    end (usable with :func:`multiprocessing.connection.wait`).
    """

    def __init__(self, target: Callable[..., None], *args: Any,
                 name: str | None = None) -> None:
        ctx = mp_context()
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=target, args=(child, *args),
                                daemon=True, name=name)
        self.proc.start()
        child.close()

    def send(self, msg: Any) -> None:
        """Frame and send ``msg``; :class:`WorkerGone` if the pipe is torn."""
        try:
            _send_frame(self.conn, msg)
        except OSError as exc:
            raise WorkerGone(
                f"worker pid={self.proc.pid} pipe failed: {exc!r}"
            ) from exc

    def recv_within(self, deadline: float) -> Any:
        """The next reply within ``deadline`` seconds, else
        :class:`WorkerGone`."""
        try:
            if not self.conn.poll(deadline):
                raise WorkerGone(
                    f"worker pid={self.proc.pid} missed its "
                    f"{deadline:.3f}s reply deadline"
                )
            return _recv_frame(self.conn)
        except (EOFError, OSError, pickle.PickleError) as exc:
            raise WorkerGone(
                f"worker pid={self.proc.pid} pipe failed: {exc!r}"
            ) from exc

    def alive(self) -> bool:
        """Whether the child process is still running."""
        return self.proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (no cleanup — that is the point), then join."""
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=1.0)

    def close(self) -> None:
        """Ask the worker to stop, join for up to 2 s, escalate to terminate
        and then kill, and release the pipe.  Safe on a worker that already
        died."""
        try:
            self.send(("stop",))
        except WorkerGone:
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        if self.proc.is_alive():  # pragma: no cover - stubborn worker
            self.proc.kill()
            self.proc.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
