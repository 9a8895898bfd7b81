"""The benchmark's own arithmetic: order statistics, failure accounting and
the quality scores of the model table.  Pure Python, so the self-tests run
without the package."""

from __future__ import annotations

import math
import time
import traceback

# a fit that raises scores as a guess would: AUC 0.5, no MAE reduction
FAILED_FIT_SCORE = {"clf": 0.5, "reg": 0.0}

# what Ops.call returns for an operation that raised
FAILED = object()


def median(values) -> float:
    return quantile(values, 0.5)


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failed_ops_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; there is no ratio of nothing."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def model_table_quality(rows, task: str) -> float:
    """Mean held-out score of the model table's fits for one task.

    ``rows`` are per-fit dicts with ``task``, ``ok`` and ``score``; a fit
    that raised (``ok`` false) scores ``FAILED_FIT_SCORE[task]``.
    """
    scores = [r["score"] if r["ok"] else FAILED_FIT_SCORE[task] for r in rows if r["task"] == task]
    if not scores:
        raise ValueError(f"no {task} fits in the table")
    return sum(scores) / len(scores)


class Ops:
    """Operations attempted and failed over one run.

    An operation fails when it raises or when its output fails a check.
    ``solver_errors`` are the failures the package documents and reports
    (non-convergence); any other exception also marks the run incorrect.
    """

    def __init__(self, solver_errors: tuple[type[BaseException], ...] = ()):
        self.solver_errors = solver_errors
        # called after every operation while a round is being timed
        self.after_op = None
        self.attempted = 0
        self.failures: list[dict] = []
        self.correct = True

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, name: str, reason: str, *, wrong: bool) -> None:
        self.failures.append({"op": name, "reason": reason})
        if wrong:
            self.correct = False

    def call(self, name: str, fn, *args, **kwargs):
        """Attempt one operation; if it raises, count it failed and return FAILED."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.solver_errors as err:
            self.fail(name, f"{type(err).__name__}: {err}", wrong=False)
        except Exception:
            self.fail(name, traceback.format_exc(limit=-3), wrong=True)
        finally:
            if self.after_op is not None:
                self.after_op()
        return FAILED

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Fail an already attempted operation whose output is wrong."""
        if not ok:
            self.fail(name, detail or "output mismatch", wrong=True)

    def frac(self) -> float:
        return failed_ops_frac(self.failed, self.attempted)


class RoundClock:
    """Times a round's work in seconds and in reference units.

    ``reference()`` runs a fixed computation and returns its duration.  The
    clock runs it before a round, at operation boundaries once ``stretch``
    seconds of work have passed since the last one, and after the round,
    and leaves its time out of the round's.  Each stretch of work divided
    by the mean of the reference timings on either side of it, summed over
    the round, is the round's time in reference units: a host that runs
    everything slower for a while slows both alike.
    """

    def __init__(self, reference, stretch: float, now=time.perf_counter, cpu=time.process_time):
        self.reference = reference
        self.stretch = stretch
        self.now = now
        self.cpu = cpu
        self.refs: list[float] = []
        self.wall = self.units = self.ref_cpu = 0.0
        self._take_reference()

    def _take_reference(self) -> None:
        c0 = self.cpu()
        self.refs.append(self.reference())
        self.ref_cpu += self.cpu() - c0
        self.mark = self.now()

    def begin(self) -> None:
        """Start a round; refresh the reference if the last one is stale."""
        if self.now() - self.mark > self.stretch:
            self._take_reference()
        self.wall = self.units = self.ref_cpu = 0.0
        self.mark = self.now()

    def boundary(self, force: bool = False) -> None:
        """Close the current stretch if it is long enough (or ``force``)."""
        work = self.now() - self.mark
        if work < self.stretch and not force:
            return
        before = self.refs[-1]
        self._take_reference()
        self.wall += work
        self.units += work / ((before + self.refs[-1]) / 2.0)

    def end(self) -> tuple[float, float]:
        """(seconds, reference units) of the round's work."""
        self.boundary(force=True)
        return self.wall, self.units
