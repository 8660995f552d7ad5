"""Standard normal draws of many rng streams, shared by the calling thread
and one helper thread per process.

Numpy fills a block of normals without the interpreter lock, so two
threads that draw from disjoint streams run at once on two CPUs. Each
stream is drawn by one thread only, in its usual order, so the draws are
bit for bit those of one thread.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def _draw(rngs: tuple[np.random.Generator, ...], buffer: np.ndarray, block: np.ndarray) -> None:
    """Fills ``buffer[:, :, e]``, a (2, 3, C) slice, with ``rngs[e]``'s N(0, 1) draws,
    stream by stream, through ``block``, a (2, C, 3) scratch array."""
    for e, rng in enumerate(rngs):
        rng.standard_normal(out=block)
        buffer[:, :, e] = block.transpose(0, 2, 1)


def _other_cpus() -> set[int]:
    """The CPUs this thread may run on other than the one it runs on now (field 39
    of its /proc stat line, as Python 3.11 has no os.sched_getcpu); none where it
    may run on one CPU only or that one cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return set()
    cpus = os.sched_getaffinity(0)
    return cpus - {cpu} if len(cpus) > 1 else set()


class _Helper:
    """A daemon thread that draws the upper half of the streams while the caller draws the lower half."""

    def __init__(self) -> None:
        self.todo, self.done = threading.Semaphore(0), threading.Semaphore(0)
        self.job: tuple | None = None
        self.error: Exception | None = None
        self.thread = threading.Thread(target=self._serve, name="isacsim-noise", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self.todo.acquire()
            try:
                _draw(*self.job)
            except Exception as exc:  # raised again in the caller
                self.error = exc
            self.job = None  # it holds the caller's buffer
            self.done.release()

    def share(self, rngs: tuple[np.random.Generator, ...], buffer: np.ndarray, split: int, cpus: set[int]) -> None:
        """Draws streams ``split:`` here, pinned to ``cpus``, and the others on the calling thread."""
        # left unpinned, the woken helper stays on its waker's CPU and the halves run in turn
        os.sched_setaffinity(self.thread.native_id, cpus)
        # the caller allocates both blocks, so the helper's heap stays small
        blocks = np.empty((2, 2, buffer.shape[-1], 3))
        self.job = (rngs[split:], buffer[:, :, split:], blocks[1])
        self.todo.release()
        try:
            _draw(rngs[:split], buffer[:, :, :split], blocks[0])
        finally:
            self.done.acquire()
            error, self.error = self.error, None
        if error is not None:
            raise error


SHARE_FROM = 5000  # particles (E x C) per draw; below it, waking the helper costs about what it saves
_helper: _Helper | None = None  # one per process, started by the first shared draw
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)  # a forked child has no helper thread


def fill(rngs: tuple[np.random.Generator, ...], buffer: np.ndarray) -> None:
    """Fills ``buffer[:, :, e]``, a (2, 3, C) slice of a (2, 3, E, C) array, with
    ``rngs[e].standard_normal((2, C, 3)).transpose(0, 2, 1)``, bit for bit.

    The calling thread draws streams ``:ceil(E / 2)`` while the helper,
    pinned to this thread's other CPUs, draws the rest. Where E < 2, E x C
    < ``SHARE_FROM``, this thread may run on one CPU only, its CPU cannot
    be read or another thread is using the helper, the caller draws every
    stream.
    """
    global _helper
    split = (len(rngs) + 1) // 2
    big = split < len(rngs) and len(rngs) * buffer.shape[-1] >= SHARE_FROM
    cpus = _other_cpus() if big else set()
    if cpus and _helper_lock.acquire(blocking=False):
        try:
            if _helper is None:
                _helper = _Helper()
            _helper.share(rngs, buffer, split, cpus)
        finally:
            _helper_lock.release()
    else:
        _draw(rngs, buffer, np.empty((2, buffer.shape[-1], 3)))
