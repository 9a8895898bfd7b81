"""fork_map, and the fits that fan out through it: the same bits for any
worker count."""

import dataclasses
import os
import signal

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS, so both are checked)

from interestsim import _util
from interestsim._util import fork_map
from interestsim.mlcore import fit_forest, fit_linear_cv
from test_linear import _path_data


def use_cpus(monkeypatch, n):
    """Make fork_map see ``n`` of this process's CPUs; never more than it has."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < n:
        pytest.skip(f"needs {n} CPUs, this host gives {len(cpus)}")
    monkeypatch.setattr(_util.os, "sched_getaffinity", lambda pid: set(cpus[:n]))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    use_cpus(monkeypatch, 2)


def test_results_in_item_order(two_cpus):
    items = list(range(7))
    out = fork_map(lambda x: (x * x, os.getpid()), items)
    assert [v for v, _ in out] == [x * x for x in items]
    # the caller computes the first share, a child the rest
    pids = [pid for _, pid in out]
    assert pids[:3] == [os.getpid()] * 3
    assert len(set(pids[3:])) == 1 and pids[3] != os.getpid()
    assert_no_children()


def test_one_cpu_or_one_item_runs_in_the_caller(monkeypatch):
    assert fork_map(lambda x: os.getpid(), [0]) == [os.getpid()]
    use_cpus(monkeypatch, 1)
    assert fork_map(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4
    assert fork_map(lambda x: x, []) == []


def test_worker_error_is_reraised_in_the_caller(two_cpus):
    def fn(x):
        if x >= 3:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match=r"^bad item 3$"):
        fork_map(fn, range(5))
    assert_no_children()


def test_first_failing_item_wins(two_cpus):
    def fn(x):
        raise KeyError(x) if x == 0 else ValueError(x)

    with pytest.raises(KeyError):
        fork_map(fn, range(4))
    assert_no_children()


def test_killed_worker_raises_runtime_error(two_cpus):
    def fn(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match=rf"died without a result \(exit status -{int(signal.SIGKILL)};"):
        fork_map(fn, [0, 1])
    assert_no_children()


def test_nested_call_runs_serially(two_cpus):
    outer = fork_map(lambda x: (os.getpid(), fork_map(lambda y: os.getpid(), range(3))), range(2))
    for pid, inner in outer:
        assert inner == [pid] * 3
    assert outer[0][0] == os.getpid() != outer[1][0]
    assert_no_children()


# -- worker-count invariance of the fits ---------------------------------------


def fit_with_cpus(monkeypatch, n, fit):
    with monkeypatch.context() as m:
        use_cpus(m, n)
        return fit()


@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("design", ["categorical", "duplicated-leaves"])
def test_linear_cv_same_bits_for_any_worker_count(design, link, monkeypatch):
    data = _path_data(design, link)
    fits = [
        fit_with_cpus(monkeypatch, n, lambda: fit_linear_cv(data, link, folds=5, seed=4))
        for n in (1, 2)
    ]
    (one, one_table), (two, two_table) = fits
    assert one.weights.tobytes() == two.weights.tobytes()
    assert (one.intercept, one.l1_lambda, one.n_sweeps) == (two.intercept, two.l1_lambda, two.n_sweeps)
    assert list(one_table.items()) == list(two_table.items())


@pytest.mark.parametrize("task", ["clf", "reg"])
def test_forest_same_trees_for_any_worker_count(task, monkeypatch):
    data = _path_data("categorical", "logistic" if task == "clf" else "identity")
    one, two = (
        fit_with_cpus(monkeypatch, n, lambda: fit_forest(data, n_trees=5, max_depth=6, seed=8, task=task))
        for n in (1, 2)
    )
    assert len(one.trees) == len(two.trees) == 5
    for a, b in zip(one.trees, two.trees):
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            else:
                assert x == y


def blas_counts():
    """This thread's count in each OpenBLAS loaded, read by setting it back."""
    counts = []
    for set_count, _ in _util._openblas_libraries():
        n = set_count(1)
        set_count(n)
        counts.append(n)
    return counts


def test_items_run_with_one_blas_thread(two_cpus):
    before = blas_counts()
    if not before:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")
    for inner in fork_map(lambda x: blas_counts(), range(3)):
        assert inner == [1] * len(before)
    assert blas_counts() == before


def test_openblas_libraries_are_looked_up_once_per_process():
    # fork_map reads them on every call; the first lookup is kept
    assert _util._openblas_libraries() is _util._openblas_libraries()
