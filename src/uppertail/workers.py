"""One worker layer: the items of a pass, spread over forked processes.

spread(fn, count, workers) is [fn(i) for i in range(count)].  With workers > 1
it forks min(workers, cpu count, count) - 1 workers.  The items are cut into
at most RUNS contiguous runs, and the caller writes one byte per run into a
pipe and closes it before the first fork, so filling it never blocks.  Every
process, the caller included, then takes the next run from that pipe until
it is empty.  A worker pickles {item: result}, or the exception it raised, to
its own pipe and leaves through os._exit; the caller reads each pipe to EOF,
reaps the worker and re-raises a worker's exception.  The results come back
in item order, so they are the same at any worker count.  On any exit,
workers not yet reaped are killed and reaped, so none outlives the call.
workers = 1, a platform without os.fork, or a second live thread in the
calling process runs the plain loop in the caller.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections.abc import Callable

__all__ = ["spread"]

RUNS = 256  # at most this many runs of items per pass: one byte each on the queue pipe


def _pull(fn: Callable[[int], object], count: int, runs: int, queue: int) -> dict:
    """{item: fn(item)} for every item of each run read from the queue pipe,
    one byte at a time, until it is empty."""
    done = {}
    while r := os.read(queue, 1):
        for i in range(r[0] * count // runs, (r[0] + 1) * count // runs):
            done[i] = fn(i)
    return done


def _work(fn: Callable[[int], object], count: int, runs: int, queue: int, writer: int) -> None:
    """A forked worker's whole life: pull runs from the queue, write one
    pickle, {item: result} or the exception raised, to writer, and leave
    through os._exit, running no exit handler or flush of the process it
    was forked from.  Never returns."""
    try:
        try:
            outcome = _pull(fn, count, runs, queue)
        except BaseException as exc:  # sent back and re-raised by the caller
            outcome = exc
        try:
            payload = pickle.dumps(outcome)
        except Exception as exc:
            payload = pickle.dumps(RuntimeError(f"worker could not send {outcome!r}: {exc}"))
        with open(writer, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def _forked(fn: Callable[[int], object], count: int, procs: int) -> dict:
    """{item: fn(item)}, computed by this process and procs - 1 forked workers."""
    runs = min(count, RUNS)
    queue, fill = os.pipe()
    os.write(fill, bytes(range(runs)))  # at most RUNS bytes, below any pipe's capacity
    os.close(fill)
    workers: dict[int, int] = {}  # pid -> read end of its result pipe, until reaped
    try:
        for _ in range(procs - 1):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, count, runs, queue, writer)
            except BaseException:
                os.close(reader)
                raise
            finally:
                os.close(writer)
            workers[pid] = reader
        done = _pull(fn, count, runs, queue)
        for pid, reader in list(workers.items()):
            with open(reader, "rb", closefd=False) as fh:
                payload = fh.read()
            _, status = os.waitpid(pid, 0)
            os.close(workers.pop(pid))
            try:
                outcome = pickle.loads(payload)
            except Exception as exc:
                raise RuntimeError(f"worker sent no result (wait status {status})") from exc
            if isinstance(outcome, BaseException):
                raise outcome
            done.update(outcome)
        return done
    finally:
        os.close(queue)
        for pid, reader in workers.items():
            os.close(reader)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def spread(fn: Callable[[int], object], count: int, workers: int) -> list:
    """[fn(i) for i in range(count)], over min(workers, cpu count, count)
    processes: the caller and that many less one forked workers."""
    procs = min(workers, os.cpu_count() or 1, count)
    # A forked child holds only the calling thread, so a lock another thread
    # held at the fork would stay locked in it: fork only alone.
    if procs > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        done = _forked(fn, count, procs)
        return [done[i] for i in range(count)]
    return [fn(i) for i in range(count)]
