"""Seed derivation, an order-preserving map and one BLAS thread per fit.

Every linear fit runs with one OpenBLAS thread (``_one_blas_thread``), and
the caller's count is restored after.  OpenBLAS rounds its products
differently under different thread counts, so with one thread a fit's
bits do not depend on the BLAS thread count, which on large designs they
did.  The rule was first set for speed, when the CV folds ran in forked
workers, one per CPU: with 2 CPUs and 2 BLAS threads, the hybrid reg rtp
protocol at ``paper-desk`` (seed 42) took 77 s with every worker's pool
competing for the CPUs, 39-42 s serially and 35 s with one thread per
worker.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np


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
    """``openblas_set_num_threads_local`` of every OpenBLAS loaded in this
    process (numpy and scipy each bundle one), found by path in
    /proc/self/maps once per process, at the first call: ``mlcore`` loads
    scipy's with its own import, before any fit.  Each sets the calling
    thread's BLAS thread count and returns the previous one.  Empty where
    that file does not exist or the OpenBLAS is older than 0.3.27, which
    added the function."""
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
        if set_count is not None:
            set_count.argtypes, set_count.restype = [ctypes.c_int], ctypes.c_int
            found.append(set_count)
    return tuple(found)


def _set_blas_threads(libraries: tuple, counts: list) -> list:
    """Set this thread's count in each library and return the previous ones."""
    return [set_count(n) for set_count, n in zip(libraries, counts)]


@contextmanager
def _one_blas_thread():
    """Run the block, or the decorated function, with one BLAS thread in
    this thread, and restore the count it found after.  The count is
    thread-local, and a nested block (the refit's ``fit_linear`` in
    ``fit_linear_cv``, say) finds one and restores one."""
    libraries = _openblas_libraries()
    before = _set_blas_threads(libraries, [1] * len(libraries))
    try:
        yield
    finally:
        _set_blas_threads(libraries, before)
