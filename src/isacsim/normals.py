"""Standard normal draws of many rng streams, made by one helper thread per
process while the caller goes on with other work.

``fill`` hands a block of streams to the helper, which draws them from the
first one up, and returns at once. ``Fill.wait`` then claims, from the last
one down, every stream the helper has not reached, draws those on the
calling thread and waits for the helper. Numpy fills a block of normals
without the interpreter lock, so the helper's draws overlap whatever the
caller does in between. Each stream is drawn once, by the one thread that
claimed it, so the draws are bit for bit those of one thread.
"""

from __future__ import annotations

import os
import threading
from collections import deque

import numpy as np


def _other_cpus() -> set[int]:
    """The CPUs this thread may run on other than the one it runs on now (field 39
    of its /proc stat line, as Python 3.11 has no os.sched_getcpu); none where it
    may run on one CPU only or that one cannot be read."""
    try:
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            return set()
        with open("/proc/thread-self/stat", "rb") as fh:
            return cpus - {int(fh.read().rsplit(b")", 1)[1].split()[36])}
    except (AttributeError, OSError, IndexError, ValueError):  # no sched_getaffinity outside Linux
        return set()


class _Helper:
    """A daemon thread that draws the streams of one ``Fill`` at a time from the first one up."""

    def __init__(self) -> None:
        self.todo, self.done = threading.Semaphore(0), threading.Semaphore(0)
        self.job: Fill | None = None
        self.serves: set[int] = set()  # the caller's CPUs when the helper was last pinned
        self.error: Exception | None = None
        self.thread = threading.Thread(target=self._serve, name="isacsim-noise", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        # the job is drawn in a call of its own, so no local of this frame holds its buffer
        while True:
            self.todo.acquire()
            try:
                self.job.draw(self.job.streams.popleft, self.job.blocks[1])
            except Exception as exc:  # raised again in the caller
                self.error = exc
            self.job = None
            self.done.release()

    def start(self, job: Fill, serves: set[int], cpus: set[int]) -> None:
        if cpus:  # left unpinned, the woken helper stays on its waker's CPU and the two threads run in turn
            os.sched_setaffinity(self.thread.native_id, cpus)
            self.serves = serves
        self.job = job
        self.todo.release()

    def finish(self) -> None:
        """Waits for the helper to drop its job and raises its error, if any."""
        self.done.acquire()
        error, self.error = self.error, None
        if error is not None:
            raise error


SHARE_FROM = 6000  # particles (E x C) per fill; below it, waking the helper costs about what it saves
_helper: _Helper | None = None  # one per process, started by the first shared fill
_helper_lock = threading.Lock()  # held from a shared fill to its wait


def _forget_helper() -> None:
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)  # a forked child has no helper thread


class Fill:
    """A fill in flight. Its streams wait in a deque, which the helper pops
    from the left and ``wait`` from the right; each pop is atomic, so each
    stream is claimed once. Call ``wait`` before reading the buffer."""

    def __init__(self, rngs: tuple[np.random.Generator, ...], buffer: np.ndarray) -> None:
        self.buffer = buffer.reshape(2, 3, len(rngs), -1, copy=False)
        self.streams = deque(enumerate(rngs))
        # the caller's and the helper's (2, C, 3) blocks, both allocated here, so the helper's heap stays small
        self.blocks = np.empty((2, 2, self.buffer.shape[-1], 3))
        self.helper: _Helper | None = None

    def draw(self, claim, block: np.ndarray) -> None:
        """Draws the streams ``claim`` pops until none is left, each through ``block``."""
        while True:
            try:
                e, rng = claim()
            except IndexError:
                return
            rng.standard_normal(out=block)
            self.buffer[:, :, e] = block.transpose(0, 2, 1)

    def wait(self) -> None:
        """Draws every stream the helper has not claimed, from the last one down, then waits for the helper."""
        try:
            self.draw(self.streams.pop, self.blocks[0])
        finally:
            if self.helper is not None:
                self.helper, helper = None, self.helper
                try:
                    helper.finish()
                finally:
                    _helper_lock.release()


def fill(rngs: tuple[np.random.Generator, ...], buffer: np.ndarray) -> Fill:
    """Starts filling ``buffer[:, e]``, a (6, C) slice of a C-contiguous
    (6, E, C) array, with ``rngs[e].standard_normal((2, C, 3))`` laid out
    as (2, 3, C), bit for bit; the fill is complete once ``wait`` returns.

    The helper starts on the streams at once. It is pinned to this thread's
    other CPUs when it starts, and again only when the CPUs this thread may
    run on change. Where E x C < ``SHARE_FROM``, this thread may run on one
    CPU only, its CPU cannot be read or another thread's fill holds the
    helper, ``wait`` draws every stream on the calling thread.
    """
    global _helper
    job = Fill(rngs, buffer)
    if buffer.size >= 6 * SHARE_FROM and _helper_lock.acquire(blocking=False):
        try:
            serves = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
            pinned = _helper is not None and _helper.serves == serves
            cpus = set() if pinned else _other_cpus()
            if pinned or cpus:
                _helper = _helper or _Helper()
                _helper.start(job, serves, cpus)
                job.helper = _helper
        finally:
            if job.helper is None:
                _helper_lock.release()
    return job
