"""The one worker layer, uppertail.workers.spread, and the passes built on it.

Three passes spread their items through it: the enumerator's blocks, the
samplers' chunks and verify's checks.  Its failure cases are tested here
once, on each of them.  A pass's items are hooked through the spread its
module calls, so a hook runs in whichever process takes the item; a
SharedLog collects what the forked workers record."""

import os
import signal
import threading
import time

import numpy as np
import pytest
from shared_log import SharedLog, assert_no_child

from uppertail import estimate, rng, verify, workers
from uppertail.estimate import edge_count_histogram, mc_histogram
from uppertail.families import build_ap
from uppertail.hypergraph import CapacityError
from uppertail.rng import CHUNK
from uppertail.verify import run_suites


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs."""
    children = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return children


# Each pass at a given worker count: the 2^22 codes of AP(22,3) are 4 blocks,
# 3 * CHUNK samples over AP(30,3) are 3 chunks, and verify runs the checks
# of 3 suites.
AP22 = build_ap(22, 3)
AP30 = build_ap(30, 3)
VERIFY_SUITES = ["phi", "variance", "cascade"]
PASSES = {
    "enumerator": lambda w: edge_count_histogram(AP22, w),
    "sampler": lambda w: mc_histogram(AP30, 0.3, 3 * CHUNK, seed=4, workers=w).counts,
    "verify": lambda w: run_suites(VERIFY_SUITES, w),
}
ITEMS = {"enumerator": 4, "sampler": 3, "verify": sum(len(verify.CHECKS[name]) for name in VERIFY_SUITES)}
SPREADER = {"enumerator": estimate, "sampler": estimate, "verify": verify}


def hook_items(monkeypatch, kind, hook):
    """Call hook(item) before each item of the kind's pass, in the process
    running it.  Only that pass's own spread is hooked: verify's checks run
    their own serial passes, whose items are not the checks."""

    def hooked(fn, count, procs):
        return workers.spread(lambda i: (hook(i), fn(i))[1], count, procs)

    monkeypatch.setattr(SPREADER[kind], "spread", hooked)


def await_other_process(taken: SharedLog, timeout: float = 10.0) -> None:
    """Wait until a process other than this one has recorded its pid in
    taken, so that it has taken an item before this one finishes them all."""
    deadline = time.monotonic() + timeout
    while all(pid == os.getpid() for pid in taken) and time.monotonic() < deadline:
        time.sleep(0.005)


@pytest.fixture(params=sorted(PASSES))
def kind(request):
    return request.param


class TestSpread:
    @pytest.mark.parametrize("count", [0, 1, 2, 255, 256, 257, 600])
    def test_every_item_once_in_order(self, forks, count):
        log = SharedLog()

        def fn(i):
            log.append(i)
            return i * i

        assert workers.spread(fn, count, 2) == [i * i for i in range(count)]
        assert sorted(log) == list(range(count))
        assert len(forks) == (count > 1)
        assert_no_child()

    def test_order_kept_when_processes_interleave(self):
        # Item 0 holds one process while the other takes item 1; the first
        # then takes item 2, so neither process ran a prefix of the order.
        seconds = [0.2, 0.4, 0.0]

        def fn(i):
            time.sleep(seconds[i])
            return i, os.getpid()

        results = workers.spread(fn, 3, 2)
        assert [i for i, _ in results] == [0, 1, 2]
        assert len({pid for _, pid in results}) == 2  # the items ran in two processes
        assert_no_child()

    def test_more_processes_than_cores(self, monkeypatch, forks):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert workers.spread(lambda i: -i, 40, 10) == [-i for i in range(40)]
        assert len(forks) == 5
        assert_no_child()


class TestPasses:
    """The layer's failure cases, once for each pass that spreads its items."""

    def test_two_workers_equal_one(self, kind, forks):
        want = PASSES[kind](1)
        assert not forks
        assert np.array_equal(PASSES[kind](2), want)
        assert len(forks) == 1
        assert_no_child()

    def test_order_kept_when_processes_interleave(self, monkeypatch, kind):
        # The enumerator adds block `high` at row offset popcount(high), so a
        # block merged at another block's place moves counts between rows.
        want = PASSES[kind](1)
        seconds = [0.2, 0.4] + [0.0] * (ITEMS[kind] - 2)
        pids = SharedLog()

        def hook(i):
            time.sleep(seconds[i])
            pids.append(os.getpid())

        hook_items(monkeypatch, kind, hook)
        assert np.array_equal(PASSES[kind](2), want)
        assert len(pids) == ITEMS[kind] and len(set(pids)) == 2
        assert_no_child()

    def test_more_processes_than_cores(self, monkeypatch, kind, forks):
        want = PASSES[kind](1)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert np.array_equal(PASSES[kind](10), want)
        # One process per item, the caller's included, up to the 6 cores.
        assert len(forks) == min(ITEMS[kind], 6) - 1
        assert_no_child()

    def test_serial_while_another_thread_runs(self, kind, forks):
        want = PASSES[kind](1)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            got = PASSES[kind](2)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert not forks
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("raiser", ["caller", "worker"])
    def test_exception_reraised_and_no_child_left(self, monkeypatch, kind, raiser):
        caller = os.getpid()
        taken = SharedLog()

        def hook(i):
            taken.append(os.getpid())
            if (os.getpid() == caller) == (raiser == "caller"):
                raise KeyError("broken item")
            await_other_process(taken)

        hook_items(monkeypatch, kind, hook)
        with pytest.raises(KeyError, match="broken item"):
            PASSES[kind](2)
        assert verify._RUN_MEMO is None  # run_suites drops its memo on the way out
        assert_no_child()

    @pytest.mark.parametrize(
        "end, message",
        [("killed", "sent no result"), ("unpicklable", "could not send")],
    )
    def test_worker_without_a_result_raises_runtime_error(self, monkeypatch, kind, end, message):
        caller = os.getpid()
        taken = SharedLog()

        def hook(i):
            taken.append(os.getpid())
            if os.getpid() != caller:
                if end == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError(lambda: None)  # a lambda does not pickle
            await_other_process(taken)

        hook_items(monkeypatch, kind, hook)
        with pytest.raises(RuntimeError, match=message):
            PASSES[kind](2)
        assert_no_child()

    def test_budget_refusal_before_any_fork(self, monkeypatch, forks):
        with pytest.raises(CapacityError):
            edge_count_histogram(build_ap(27, 3), workers=2)
        monkeypatch.setattr(estimate, "SAMPLER_BYTE_BUDGET", 5 * CHUNK * 30 - 1)
        with pytest.raises(CapacityError):
            mc_histogram(AP30, 0.3, 3 * CHUNK, seed=4, workers=2)
        assert not forks

    def test_more_than_255_items_byte_identical(self, monkeypatch, forks):
        # 2^12 codes in 1024 blocks of 4, and 301 chunks of 16 samples.
        h = build_ap(12, 3)
        monkeypatch.setattr(estimate, "LOW_BITS", 2)
        monkeypatch.setattr(rng, "CHUNK", 16)
        for run in (
            lambda w: edge_count_histogram(h, w),
            lambda w: mc_histogram(h, 0.3, 300 * 16 + 5, seed=2, workers=w).counts,
        ):
            want = run(1)
            got = run(2)
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
        assert len(forks) == 2
        assert_no_child()
