"""Run one item per forked child and account for its time, memory and failures.

The parent has imported the library and nothing else, so every child starts
from the state a fresh CLI invocation sees: no cache filled by one item is
visible to the next. The child times the item, then checks its output outside
the timed span, and sends one JSON document back through a pipe.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import statistics
import sys
import time
import traceback


def run_forked(body, timeout_s: float) -> dict:
    """Run ``body()`` in a forked child; return its dict, or a failure record.

    ``body`` returns a JSON-serializable value. An exception in the child, a
    child that dies without answering, and a child still running after
    ``timeout_s`` all yield ``{"reason": ...}``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        os.close(rfd)
        status = 0
        try:
            try:
                result = body()
            except BaseException as exc:  # reported to the parent, never lost
                result = {"reason": _reason(exc)}
            data = json.dumps(result).encode()
            view = memoryview(data)
            while view:
                view = view[os.write(wfd, view):]
        except BaseException:
            status = 70
        finally:
            os._exit(status)

    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"reason": f"timeout after {timeout_s:g} s"}
    if not chunks:
        return {"reason": f"child ended without a result (wait status {status})"}
    return json.loads(b"".join(chunks))


def _reason(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1:] or [None]
    where = f" at {frame[0].filename}:{frame[0].lineno}" if frame[0] else ""
    return f"{type(exc).__name__}: {exc}{where}"


def timed(call):
    """Run call() and return (result, wall_s, cpu_s, peak_rss_kb)."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    result = call()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result, wall, cpu, peak


def tail(values) -> tuple[float, float | None]:
    """The highest percentile with at least 10 values beyond it, and its rank.

    With N sorted values that is the (N-10)-th smallest, at percentile
    100*(N-10)/N. Below 11 values no percentile qualifies: the maximum is
    returned with percentile None.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], None
    return xs[n - 11], 100.0 * (n - 10) / n


def median(values) -> float:
    return float(statistics.median(values))
