"""Spans and counters around the package's public calls, from outside.

A traced round replaces each public function, wherever a caller looks it
up (every ``interestsim`` module attribute bound to it), and each public
method on its class, with a wrapper that records a span and the counts at
the same boundary.  ``uninstall`` puts the originals back, so untraced
rounds run the package untouched.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

from metrics import median, quantile

# position of the ``strategy`` argument of recommend.select_neighbors
_STRATEGY_ARG = 3

MODEL_KINDS = ("linear", "l1linear", "tree", "forest", "gbdt", "hybrid")
TASKS = ("clf", "reg")
STRATEGIES = (
    "predicted-ptp", "predicted-rtp", "predicted-vbp", "oracle-ptp", "oracle-rtp",
    "demo", "friends", "past", "random", "popular",
)

# spans whose callees are wrapped too, so their self time differs from .s
SELF_TIMED = (
    "pairfeat.PairFeaturizer", "pairfeat.extract_batch", "pairfeat.build_training_set",
    "evalkit.bucket_similarity", "evalkit.ablation_sweep", "mlcore.fit_linear_cv",
    "mlcore.fit_hybrid", "mlcore.prune_tree", "mlcore.fit_gbdt", "recommend.select_neighbors",
)

# name -> (unit, better); the traced run reports every one, 0 where the
# workload does not reach the layer
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "synthgen.generate.s": ("s", "lower"),
    "corpus.write_corpus.s": ("s", "lower"),
    "corpus.write_corpus.bytes": ("bytes", "lower"),
    "corpus.load_corpus.s": ("s", "lower"),
    "corpus.load_corpus.rows": ("rows", "higher"),
    "profiling.ProfileIndex.s": ("s", "lower"),
    "profiling.ProfileIndex.calls": ("count", "lower"),
    "profiling.ProfileIndex.distinct": ("count", "lower"),
    "profiling.ProfileIndex.nnz": ("count", "lower"),
    "profiling.self_similarity_series.s": ("s", "lower"),
    "profiling.self_similarity_series.calls": ("count", "lower"),
    "profiling.ProfileIndex.similarity_pairs.s": ("s", "lower"),
    "profiling.ProfileIndex.similarity_pairs.pairs": ("pairs", "lower"),
    "pairfeat.PairFeaturizer.s": ("s", "lower"),
    "pairfeat.PairFeaturizer.calls": ("count", "lower"),
    "pairfeat.PairFeaturizer.distinct": ("count", "lower"),
    "pairfeat.extract_batch.s": ("s", "lower"),
    "pairfeat.extract_batch.calls": ("count", "lower"),
    "pairfeat.extract_batch.pairs": ("pairs", "lower"),
    "pairfeat.extract_batch.pairs_per_call": ("pairs", "higher"),
    "pairfeat.build_training_set.s": ("s", "lower"),
    "evalkit.bucket_similarity.s": ("s", "lower"),
    "evalkit.bucket_similarity.calls": ("count", "lower"),
    **{
        f"evalkit.run_protocol.{kind}.{task}.{what}": unit
        for kind in MODEL_KINDS
        for task in TASKS
        for what, unit in (("s", ("s", "lower")), ("failed", ("count", "lower")))
    },
    "evalkit.ablation_sweep.s": ("s", "lower"),
    "mlcore.fit_linear.s": ("s", "lower"),
    "mlcore.fit_linear.calls": ("count", "lower"),
    "mlcore.fit_linear.sweeps": ("count", "lower"),
    "mlcore.fit_linear.not_converged": ("count", "lower"),
    "mlcore.fit_linear.converged_frac": ("ratio", "higher"),
    "mlcore.fit_linear_cv.s": ("s", "lower"),
    "mlcore.fit_hybrid.s": ("s", "lower"),
    "mlcore.encode_leaves.s": ("s", "lower"),
    "mlcore.fit_tree.s": ("s", "lower"),
    "mlcore.fit_tree.calls": ("count", "lower"),
    "mlcore.prune_tree.s": ("s", "lower"),
    "mlcore.fit_forest.s": ("s", "lower"),
    "mlcore.fit_gbdt.s": ("s", "lower"),
    "mlcore.predict.s": ("s", "lower"),
    "mlcore.predict.calls": ("count", "lower"),
    "mlcore.predict.rows": ("rows", "lower"),
    **{f"recommend.run_experiment.{s}.s": ("s", "lower") for s in STRATEGIES},
    "recommend.select_neighbors.s": ("s", "lower"),
    "recommend.select_neighbors.calls": ("count", "lower"),
    "recommend.select_neighbors.p50_ms": ("ms", "lower"),
    "recommend.select_neighbors.p95_ms": ("ms", "lower"),
    "recommend.recommend_topn.s": ("s", "lower"),
    "recommend.recommend_topn.calls": ("count", "lower"),
    **{f"{name}.self_s": ("s", "lower") for name in SELF_TIMED},
    # deterministic quality and failure figures, repeated here so that the
    # traced record carries them (0 where the workload has none)
    "failed_ops_frac": ("ratio", "lower"),
    "clf_auc_mean": ("ratio", "higher"),
    "reg_mae_red_pct_mean": ("%", "higher"),
    "rec_f_measure": ("ratio", "higher"),
    # the untraced rounds' raw wall time, the reference computation's time
    # that wall_ref divides by, and their CPU time
    "wall_s": ("s", "lower"),
    "bench.ref_s": ("s", "lower"),
    "bench.cpu_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
}


def replace_everywhere(fn, wrapper, patches: list) -> None:
    """Bind ``wrapper`` wherever an ``interestsim`` module binds ``fn``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "interestsim" or mod_name.startswith("interestsim.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.append((module, attr, value))
                setattr(module, attr, wrapper)


def restore(patches: list) -> None:
    while patches:
        owner, attr, value = patches.pop()
        setattr(owner, attr, value)


def _then(fn, hook):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            hook()

    return call


def hook_boundaries(hook) -> list:
    """Call ``hook()`` after every call of the package functions that split
    its long operations (each fit inside a hybrid or L1 fit, each neighbour
    selection inside the recommendation grid), so that an untraced round
    can take reference timings inside them.  Returns the patches to
    ``restore``."""
    from interestsim import mlcore, recommend

    patches: list = []
    for fn in (mlcore.fit_linear, recommend.select_neighbors):
        replace_everywhere(fn, _then(fn, hook), patches)
    return patches


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its children cover."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


class Tracer:
    """In-memory spans and counters for the traced rounds of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.round_id = ""
        # [id, name, start, end, parent id, round id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.fits: list[dict] = []
        self._stack: list[int] = []
        self._phase: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def start_round(self, index: int) -> None:
        self.round_id = f"{self.run_id}/round{index}"
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.round_id])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """End ``sid`` and any phase span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][3] = now
            if top == self._phase:
                self._phase = None
            if top == sid:
                return

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def phase(self, name: str) -> None:
        """Switch the open phase span (a run of calls with one strategy)."""
        if self._phase is not None:
            if self.spans[self._phase][1] == name:
                return
            self.close(self._phase)
        self._phase = self.open(name)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, name: str, count=None, phase=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if phase is not None:
                tracer.phase(phase(args, kwargs))
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                tracer.close(sid)
                if count is not None:
                    count(tracer, args, kwargs, None, err)
                raise
            tracer.close(sid)
            if count is not None:
                count(tracer, args, kwargs, out, None)
            return out

        return traced

    def wrap_function(self, fn, name: str, count=None, phase=None) -> None:
        replace_everywhere(fn, self._wrapper(fn, name, count, phase), self._patches)

    def wrap_method(self, cls, attr: str, name: str, count=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, count))

    def uninstall(self) -> None:
        restore(self._patches)

    # -- results -----------------------------------------------------------

    def round_metrics(self, round_id: str) -> dict[str, float]:
        """Busy and self seconds per span name, counts and latencies of one round."""
        spans = [s for s in self.spans if s[5] == round_id]
        by_id = {s[0]: s for s in spans}
        children: dict[int, list] = defaultdict(list)
        for s in spans:
            if s[4] in by_id:
                children[s[4]].append((s[2], s[3]))
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        durations: dict[str, list] = defaultdict(list)
        for s in spans:
            dur = s[3] - s[2]
            durations[s[1]].append(dur)
            own[s[1]] += self_time(s[2], s[3], children[s[0]])
            parent = by_id.get(s[4])
            while parent is not None and parent[1] != s[1]:
                parent = by_id.get(parent[4])
            if parent is None:  # not nested in a span of the same name
                busy[s[1]] += dur
        out = {f"{name}.s": v for name, v in busy.items()}
        out.update({f"{name}.self_s": v for name, v in own.items()})
        out.update(self.counts)
        out["profiling.ProfileIndex.distinct"] = len(self.distinct["profiling.ProfileIndex"])
        out["pairfeat.PairFeaturizer.distinct"] = len(self.distinct["pairfeat.PairFeaturizer"])
        calls = self.counts.get("pairfeat.extract_batch.calls", 0)
        out["pairfeat.extract_batch.pairs_per_call"] = (
            self.counts.get("pairfeat.extract_batch.pairs", 0) / calls if calls else 0.0
        )
        fits = self.counts.get("mlcore.fit_linear.calls", 0)
        out["mlcore.fit_linear.converged_frac"] = (
            1.0 - self.counts.get("mlcore.fit_linear.not_converged", 0) / fits if fits else 0.0
        )
        picks = durations.get("recommend.select_neighbors")
        if picks:
            out["recommend.select_neighbors.p50_ms"] = 1000.0 * median(picks)
            out["recommend.select_neighbors.p95_ms"] = 1000.0 * quantile(picks, 0.95)
        return out

    def records(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "run_id": s[5]}
            for s in self.spans
        ]


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


class NoTracer:
    """Stands in for a Tracer in untraced rounds: records nothing."""

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, value: float = 1.0) -> None:
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


# -- the layer boundaries ------------------------------------------------------


def _calls(name: str):
    def count(tracer, args, kwargs, out, err):
        tracer.count(f"{name}.calls")

    return count


def _written_bytes(tracer, args, kwargs, out, err):
    from interestsim.corpus import CSV_NAMES

    directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
    size = sum((directory / n).stat().st_size for n in CSV_NAMES.values() if (directory / n).exists())
    tracer.count("corpus.write_corpus.bytes", size)


def corpus_rows(c) -> int:
    return (
        len(c.users) + len(c.videos) + len(c.views) + len(c.friend_edges)
        + len(c.memberships) + sum(len(days) for days in c.messages.values())
    )


def _loaded_rows(tracer, args, kwargs, out, err):
    if out is not None:
        tracer.count("corpus.load_corpus.rows", corpus_rows(out))


def _index_built(tracer, args, kwargs, out, err):
    index = args[0]
    tracer.count("profiling.ProfileIndex.calls")
    if err is None:
        tracer.count("profiling.ProfileIndex.nnz", index.W.nnz)
        tracer.distinct["profiling.ProfileIndex"].add((id(index.corpus), tuple(index.window), index.kind))


def _featurizer_built(tracer, args, kwargs, out, err):
    fz = args[0]
    tracer.count("pairfeat.PairFeaturizer.calls")
    if err is None:
        tracer.distinct["pairfeat.PairFeaturizer"].add((id(fz.corpus), fz.kind))


def _pairs(name: str, calls: bool):
    def count(tracer, args, kwargs, out, err):
        tracer.count(f"{name}.pairs", len(args[1]))
        if calls:
            tracer.count(f"{name}.calls")

    return count


def _predicted(tracer, args, kwargs, out, err):
    tracer.count("mlcore.predict.calls")
    tracer.count("mlcore.predict.rows", len(args[1]))


def _linear_fit(tracer, args, kwargs, out, err):
    model = out if err is None else getattr(err, "model", None)
    tracer.count("mlcore.fit_linear.calls")
    if model is None:
        return
    tracer.count("mlcore.fit_linear.sweeps", model.n_sweeps)
    if not model.converged:
        tracer.count("mlcore.fit_linear.not_converged")
    parent = tracer.spans[tracer._stack[-1]][1] if tracer._stack else ""
    tracer.fits.append(
        {
            "round": tracer.round_id,
            "caller": parent,
            "link": model.link,
            "lambda": model.l1_lambda,
            "n_sweeps": model.n_sweeps,
            "converged": model.converged,
            "raised": err is not None,
        }
    )


def _strategy_phase(args, kwargs) -> str:
    strategy = args[_STRATEGY_ARG] if len(args) > _STRATEGY_ARG else kwargs["strategy"]
    return f"recommend.run_experiment.{strategy.name()}"


def install(tracer: Tracer) -> None:
    """Wrap every public layer boundary the benchmark measures."""
    from interestsim import corpus, evalkit, mlcore, pairfeat, profiling, recommend, synthgen

    fn = tracer.wrap_function
    fn(synthgen.generate, "synthgen.generate")
    fn(corpus.write_corpus, "corpus.write_corpus", _written_bytes)
    fn(corpus.load_corpus, "corpus.load_corpus", _loaded_rows)
    fn(profiling.self_similarity_series, "profiling.self_similarity_series",
       _calls("profiling.self_similarity_series"))
    fn(pairfeat.build_training_set, "pairfeat.build_training_set")
    fn(evalkit.bucket_similarity, "evalkit.bucket_similarity", _calls("evalkit.bucket_similarity"))
    fn(evalkit.ablation_sweep, "evalkit.ablation_sweep")
    fn(mlcore.fit_linear, "mlcore.fit_linear", _linear_fit)
    fn(mlcore.fit_linear_cv, "mlcore.fit_linear_cv")
    fn(mlcore.fit_hybrid, "mlcore.fit_hybrid")
    fn(mlcore.encode_leaves, "mlcore.encode_leaves")
    fn(mlcore.fit_tree, "mlcore.fit_tree", _calls("mlcore.fit_tree"))
    fn(mlcore.prune_tree, "mlcore.prune_tree")
    fn(mlcore.fit_forest, "mlcore.fit_forest")
    fn(mlcore.fit_gbdt, "mlcore.fit_gbdt")
    fn(mlcore.predict, "mlcore.predict", _predicted)
    fn(recommend.select_neighbors, "recommend.select_neighbors",
       _calls("recommend.select_neighbors"), phase=_strategy_phase)
    fn(recommend.recommend_topn, "recommend.recommend_topn", _calls("recommend.recommend_topn"))
    tracer.wrap_method(profiling.ProfileIndex, "__init__", "profiling.ProfileIndex", _index_built)
    tracer.wrap_method(profiling.ProfileIndex, "similarity_pairs",
                       "profiling.ProfileIndex.similarity_pairs",
                       _pairs("profiling.ProfileIndex.similarity_pairs", calls=False))
    tracer.wrap_method(pairfeat.PairFeaturizer, "__init__", "pairfeat.PairFeaturizer", _featurizer_built)
    tracer.wrap_method(pairfeat.PairFeaturizer, "extract_batch", "pairfeat.extract_batch",
                       _pairs("pairfeat.extract_batch", calls=True))
