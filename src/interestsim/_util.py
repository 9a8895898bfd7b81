"""Seed derivation and deterministic fan-out helpers.

``fork_map`` runs independent, seeded work items (CV folds, forest trees)
in forked worker processes, one per CPU this process may run on.  Each
item computes exactly what it would in a serial loop, and the caller
combines the results in item order, so outputs are bit-identical for any
worker count.  A worker must not call a function that the benchmark
harness wraps (``mlcore.fit_linear``, ``recommend.select_neighbors``): its
spans and hooks would run in the child and be lost.  ``os.fork`` in a
process with other threads warns on Python 3.12 and later.  The only
other threads here are OpenBLAS's, and OpenBLAS shuts its pool down
before a fork, so a child starts with none.

Items run with one OpenBLAS thread, forked or not, and the caller's
count is restored once every child is reaped.  Each worker's own
OpenBLAS pool would otherwise compete for the CPUs the other workers
need: with 2 CPUs and 2 BLAS threads, the hybrid reg rtp protocol at
``paper-desk`` (seed 42) took 77 s fanned out that way, 39-42 s
serially and 35 s fanned out with one thread per item.  One thread also
makes an item's bits independent of the BLAS thread count, which on large
designs they were not (see ``mlcore.linear._cd_sweeps``, ``_gram_block``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

_in_share = False  # True while this process computes a fork_map share


def subseed(seed: int, step: str) -> np.random.SeedSequence:
    """Derive a child seed from (seed, step name).

    Stable across runs and platforms, so adding a new generation step
    never reshuffles the draws of existing ones.
    """
    digest = hashlib.sha256(step.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(words))


def subrng(seed: int, step: str) -> np.random.Generator:
    return np.random.default_rng(subseed(seed, step))


def parallel_map(fn, items: list, threads: int = 1) -> list:
    """Order-preserving map; results are identical for any thread count."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@functools.cache
def _openblas_libraries() -> tuple:
    """(set_count, stop_pool) of every OpenBLAS loaded in this process
    (numpy and scipy each bundle one), found by path in /proc/self/maps
    once per process, at the first call: ``mlcore`` loads scipy's with its
    own import, before any of its ``fork_map`` calls.

    ``set_count`` is ``openblas_set_num_threads_local``: it sets the
    calling thread's BLAS thread count and returns the previous one.
    ``stop_pool`` is ``blas_thread_shutdown_``, which OpenBLAS runs
    before a fork; the next call that needs the pool starts it again.
    Empty where that file does not exist or the OpenBLAS is older than
    0.3.27, which added the first."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not a loadable path, e.g. "(deleted)"
            continue
        set_count = getattr(lib, "openblas_set_num_threads_local", None)
        stop_pool = getattr(lib, "blas_thread_shutdown_", None)
        if set_count is not None and stop_pool is not None:
            set_count.argtypes, set_count.restype = [ctypes.c_int], ctypes.c_int
            stop_pool.argtypes, stop_pool.restype = [], ctypes.c_int
            found.append((set_count, stop_pool))
    return tuple(found)


def _set_blas_threads(libraries: tuple, counts: list) -> list:
    """Set this thread's count in each library and return the previous
    ones.  Setting a count starts the pool again if a fork shut it down,
    and a freshly started pool thread spins for about 0.1 s, on the CPUs
    that the shares, or the caller's next fit, need: a refit right after
    ran three times slower.  So the pool is shut down again at once."""
    before = [set_count(n) for (set_count, _), n in zip(libraries, counts)]
    for _, stop_pool in libraries:
        stop_pool()
    return before


@contextmanager
def _one_blas_thread():
    """Run the block with one BLAS thread in this thread, and restore the
    count after.  The count is thread-local, and a forked child inherits
    it without calling into OpenBLAS."""
    libraries = _openblas_libraries()
    before = _set_blas_threads(libraries, [1] * len(libraries))
    try:
        yield
    finally:
        _set_blas_threads(libraries, before)


def _run_share(fn, share: list) -> list:
    global _in_share
    _in_share = True
    try:
        return [fn(x) for x in share]
    finally:
        _in_share = False


def fork_map(fn, items) -> list:
    """``[fn(x) for x in items]``, split into contiguous shares over one
    worker per CPU in ``os.sched_getaffinity(0)``, at most one per item.

    The caller computes the first share; each other share runs in an
    ``os.fork`` child, which sends its results (or the exception it
    raised) back pickled through a pipe and leaves with ``os._exit``.
    Every child is read and reaped before this returns or raises; the
    error raised is the one of the first failing item.  A child that dies
    without sending anything raises ``RuntimeError``.  With one CPU or one
    item it is a plain loop, and so is a call made inside a share, by the
    caller or a child.  Every item runs with one BLAS thread: the count is
    set before the forks, so the children inherit it.
    """
    items = list(items)
    if _in_share:
        return [fn(x) for x in items]
    n = min(len(os.sched_getaffinity(0)), len(items))
    with _one_blas_thread():
        if n <= 1:
            return _run_share(fn, items)
        bounds = [len(items) * k // n for k in range(n + 1)]
        children = []  # (pid, read end of its pipe)
        try:
            for k in range(1, n):
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:  # the child: never returns into the caller's code
                    status = 1
                    try:
                        os.close(read)
                        try:
                            payload = pickle.dumps((True, _run_share(fn, items[bounds[k] : bounds[k + 1]])))
                        except BaseException as err:
                            payload = pickle.dumps((False, err))
                        with os.fdopen(write, "wb") as pipe:
                            pipe.write(payload)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write)
                children.append((pid, read))
            outcomes = [(True, _run_share(fn, items[: bounds[1]]))]
        except BaseException as err:  # re-raised below, once every child is reaped
            outcomes = [(False, err)]
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0:  # the child wrote its whole payload
                outcomes.append(pickle.loads(payload))
            else:
                outcomes.append((False, RuntimeError(
                    f"fork_map worker {pid} died without a result "
                    f"(exit status {code}; negative: killed by that signal)"
                )))
    results = []
    for ok, value in outcomes:
        if not ok:
            raise value
        results.extend(value)
    return results
