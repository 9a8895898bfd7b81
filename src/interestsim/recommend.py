"""Cold-start top-N recommendation: neighbor selection strategies, list
generation, and accuracy/diversity scoring.

Targets are day-0-active users (so ground truth exists) treated as cold:
every strategy except the oracle sees only their pre-day-0 data and
demographics.  Recommendation lists are the top-N day-0-popular videos
among the selected neighbors.  Strategies and lists read the corpus's
profile indexes (``Corpus.profile_index``) and arrays, and keep no state.

The experiment grid goes block by block: whole targets go together in
blocks of up to ``_BLOCK_PAIRS`` (target, candidate) pairs, and each block
is featurized once for every scoring strategy (predicted, oracle, past,
demo).  One ``extract_batch`` gives the kind-free columns and the first
predicted kind's interest columns, each further kind adds only its
interest columns, and past reads predicted-vbp's ``past_sim_month``.  Each
predicted kind makes one model call per block, each strategy ranks a
target's candidates once, and each K cuts that ranking; only the neighbor
lists outlive the block.  The friend, random and popular strategies
select per target and K.  The budget bounds memory: on the benchmark's
100 x 200 grid, one block for the whole grid (21k pairs) lifted the peak
RSS from 246-251 to 279-281 MiB for a grid 1-4% shorter.

Each (strategy, K) is evaluated in arrays, for all targets and every N at
once: the product of the targets' neighbor counts with the day-0 ``vbp``
counts gives a (targets x videos) matrix of view counts, one stable sort
per row ranks each target's videos, and cumulative hit counts and
per-video list counts give precision, recall, F and Diversification.  All
counts are exact integers until those final formulas.  ``recommend_topn``,
``accuracy_report`` and ``diversification`` are single-list views of the
same helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._util import subrng
from .corpus import Corpus, active_users, write_csv
from .mlcore import predict as model_predict
from .pairfeat import DAY0, PAST_WINDOW, PairFeaturizer, SampleTable


@dataclass(frozen=True)
class PredictedSim:
    """Rank candidates by model-predicted similarity to the target."""

    kind: str
    model: object

    def name(self) -> str:
        return f"predicted-{self.kind}"


@dataclass(frozen=True)
class OracleSim:
    """Rank by the true day-0 similarity (upper-bound reference)."""

    kind: str

    def name(self) -> str:
        return f"oracle-{self.kind}"


@dataclass(frozen=True)
class DemographicSim:
    def name(self) -> str:
        return "demo"


@dataclass(frozen=True)
class FriendFilter:
    def name(self) -> str:
        return "friends"


@dataclass(frozen=True)
class PastLongTerm:
    def name(self) -> str:
        return "past"


@dataclass(frozen=True)
class RandomK:
    def name(self) -> str:
        return "random"


@dataclass(frozen=True)
class GlobalPopularity:
    def name(self) -> str:
        return "popular"


@dataclass(frozen=True)
class ExperimentConfig:
    n_targets: int = 2000
    n_candidates: int = 5000
    k_values: tuple[int, ...] = (15,)
    n_values: tuple[int, ...] = tuple(range(10, 101, 10))
    seed: int = 0

    def validate(self) -> None:
        if self.n_targets < 1 or self.n_candidates < 1:
            raise ValueError("n_targets and n_candidates must be >= 1")
        if not self.k_values or not self.n_values:
            raise ValueError("the K and N grids must each hold at least one value")
        if any(k < 1 for k in self.k_values):
            raise ValueError("K values must be >= 1")
        if any(n < 1 for n in self.n_values):
            raise ValueError("N values must be >= 1")


# the strategies that rank candidates by a per-pair score
_SCORED = (PredictedSim, OracleSim, PastLongTerm, DemographicSim)
# (target, candidate) pairs scored together in the experiment grid
_BLOCK_PAIRS = 2048


def _rank(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``ids`` by descending score, ties to the lower id."""
    return ids[np.lexsort((ids, -scores))]


def _pair_scores(c: Corpus, targets, candidates: np.ndarray, strategy) -> np.ndarray:
    """Score of each (target, candidate) pair; ``targets`` is one id or an
    array aligned with ``candidates``.  Each pair's score depends on that
    pair alone."""
    targets = np.broadcast_to(np.asarray(targets, dtype=np.int64), np.shape(candidates))
    return _block_scores(c, targets, candidates, [strategy])[0]


def _block_scores(c: Corpus, targets: np.ndarray, candidates: np.ndarray, strategies) -> list[np.ndarray]:
    """Each scoring strategy's scores of the aligned pairs, from one
    featurization: the first predicted kind's ``extract_batch`` gives the
    kind-free columns, each further kind adds only its interest columns,
    and ``past`` reads predicted-vbp's ``past_sim_month`` if there is one,
    the same row products on the same past-month vbp index."""
    rt, rh = c.rows_for(targets), c.rows_for(candidates)
    columns: dict[str, dict[str, np.ndarray]] = {}
    for kind in dict.fromkeys(s.kind for s in strategies if isinstance(s, PredictedSim)):
        fz = PairFeaturizer(c, kind)
        if columns:
            columns[kind] = {**next(iter(columns.values())), **fz.interest_columns(rt, rh)}
        else:
            columns[kind] = fz.extract_batch(targets, candidates)
    scores = []
    for s in strategies:
        if isinstance(s, OracleSim):
            scores.append(c.profile_index(DAY0, s.kind).similarity_pairs(targets, candidates))
        elif isinstance(s, PredictedSim):
            X, _, _ = SampleTable(s.kind, columns[s.kind], None).feature_matrix()
            scores.append(model_predict(s.model, X))
        elif isinstance(s, PastLongTerm) and "vbp" in columns:
            scores.append(columns["vbp"]["past_sim_month"])
        elif isinstance(s, PastLongTerm):
            scores.append(c.profile_index(PAST_WINDOW, "vbp").similarity_pairs(targets, candidates))
        elif isinstance(s, DemographicSim):
            same_gender = (c.is_f[rt] == c.is_f[rh]).astype(np.float64)
            same_city = (c.cities[rt] == c.cities[rh]).astype(np.float64)
            scores.append(same_gender + same_city + (1.0 - np.abs(c.ages[rt] - c.ages[rh]) / 30.0))
        else:
            raise TypeError(f"strategy {s!r} does not score candidates")
    return scores


def select_neighbors(
    c: Corpus,
    target: int,
    candidates,
    strategy,
    k: int,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Top-K candidate users under the strategy; ties break to lower id."""
    candidates = np.sort(np.asarray(candidates, dtype=np.int64))
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    if np.any(candidates == target):
        raise ValueError("candidates must exclude the target")
    if isinstance(strategy, GlobalPopularity):
        return [int(u) for u in candidates]  # K is irrelevant by design
    if isinstance(strategy, RandomK):
        if rng is None:
            raise ValueError("RandomK needs a seeded generator")
        take = min(k, len(candidates))
        return [int(u) for u in rng.choice(candidates, size=take, replace=False)]
    if isinstance(strategy, FriendFilter):
        # the target's friends among the candidates, by days communicated
        friends = np.fromiter(c.friends(target), np.int64)
        friends = friends[np.isin(friends, candidates)]
        D, t = c.msg_days, c.rows_for([target])[0]
        days = np.zeros(len(c.user_ids))
        days[D.indices[D.indptr[t] : D.indptr[t + 1]]] = D.data[D.indptr[t] : D.indptr[t + 1]]
        return _rank(days[c.rows_for(friends)], friends)[:k].tolist()
    return _rank(_pair_scores(c, target, candidates, strategy), candidates)[:k].tolist()


def _top_videos(c: Corpus, neighbor_lists, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each neighbor list's top-N videos by day-0 view count among its
    neighbors (a neighbor listed twice counts twice), ties by ascending
    video id: one row of day-0 ``vbp`` columns per list, and each row's
    length, the count of its viewed videos (the unviewed ones follow)."""
    day0 = c.profile_index(DAY0, "vbp")
    sizes = [len(l) for l in neighbor_lists]
    neighbors = c.rows_for(np.concatenate([np.asarray(l, dtype=np.int64) for l in neighbor_lists]))
    picks = sp.csr_matrix(
        (np.ones(len(neighbors)), (np.repeat(np.arange(len(sizes)), sizes), neighbors)),
        shape=(len(sizes), len(c.user_ids)),
    )
    counts = (picks @ day0.counts).toarray()  # integer-valued view counts
    top = np.argsort(-counts, axis=1, kind="stable")[:, :n]
    return top, np.minimum(np.count_nonzero(counts, axis=1), n)


def recommend_topn(c: Corpus, neighbors, n: int) -> list[int]:
    """Videos ranked by day-0 view count among the neighbors (a neighbor
    listed twice counts twice), ties by ascending video id, truncated at N."""
    top, length = _top_videos(c, [neighbors], n)
    return c.profile_index(DAY0, "vbp").item_ids[top[0, : length[0]]].tolist()


def _accuracy(hits, lengths, truth_sizes) -> tuple[float, float, float]:
    """Micro-averaged precision, recall and F-measure from each target's
    hit count, list length and truth size."""
    if not np.any((np.asarray(lengths) > 0) & (np.asarray(truth_sizes) > 0)):
        raise ValueError("need at least one target with a non-empty list and truth")
    hit, total_rec, total_truth = (int(np.sum(a)) for a in (hits, lengths, truth_sizes))
    precision = hit / total_rec if total_rec else 0.0
    recall = hit / total_truth if total_truth else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def accuracy_report(lists: dict[int, list[int]], truth: dict[int, frozenset[int]]) -> tuple[float, float, float]:
    """Micro-averaged precision, recall and F-measure over all targets."""
    sets = [truth.get(t, frozenset()) for t in lists]
    return _accuracy(
        [len(set(lists[t]) & s) for t, s in zip(lists, sets)], [len(lists[t]) for t in lists], [len(s) for s in sets]
    )


def f_measure(lists: dict[int, list[int]], truth: dict[int, frozenset[int]]) -> float:
    return accuracy_report(lists, truth)[2]


def _diversification(holders: np.ndarray, t: int, n: int) -> float:
    """1 - average pairwise overlap of ``t`` lists, overlap normalized by N,
    from the number of lists that hold each item."""
    if t < 2:
        raise ValueError("diversification needs at least two targets")
    if n < 1:
        raise ValueError("N must be >= 1")
    overlap_sum = int(np.sum(holders * (holders - 1) // 2))
    return 1.0 - (2.0 * overlap_sum / n) / (t * (t - 1))


def diversification(lists, n: int) -> float:
    """1 - average pairwise list overlap, overlap normalized by N."""
    lists = [np.asarray(l, dtype=np.int64) for l in lists]
    items = np.concatenate([np.zeros(0, np.int64), *lists])
    value = _diversification(np.unique(items, return_counts=True)[1], len(lists), n)  # checks the list count and N first
    if sum(len(np.unique(l)) for l in lists) < len(items):
        raise ValueError("recommendation lists must not contain duplicates")
    return value


def sample_experiment_users(c: Corpus, cfg: ExperimentConfig) -> tuple[list[int], dict[int, np.ndarray]]:
    """Targets (day-0 active) and per-target candidate sets with the
    target's friends force-included."""
    actives = np.asarray(sorted(active_users(c, (0, 0))), dtype=np.int64)
    if len(actives) == 0:
        raise ValueError("no day-0-active users to target")
    rng = subrng(cfg.seed, "recommend.targets")
    n_t = min(cfg.n_targets, len(actives))
    targets = sorted(int(u) for u in rng.choice(actives, size=n_t, replace=False))
    all_ids = np.asarray(c.user_ids, dtype=np.int64)
    rng = subrng(cfg.seed, "recommend.candidates")
    candidates: dict[int, np.ndarray] = {}
    for t in targets:
        pool = all_ids[all_ids != t]
        take = min(cfg.n_candidates, len(pool))
        drawn = set(int(u) for u in rng.choice(pool, size=take, replace=False))
        drawn.update(int(u) for u in c.friends(t))
        drawn.discard(t)
        if not drawn:
            raise ValueError("candidate set is empty")
        candidates[t] = np.asarray(sorted(drawn), dtype=np.int64)
    return targets, candidates


def _target_blocks(targets: list[int], candidates: dict[int, np.ndarray]):
    """Runs of whole targets with up to ``_BLOCK_PAIRS`` candidates in all;
    a target with more candidates is a block of its own."""
    block: list[int] = []
    pairs = 0
    for t in targets:
        if block and pairs + len(candidates[t]) > _BLOCK_PAIRS:
            yield block
            block, pairs = [], 0
        block.append(t)
        pairs += len(candidates[t])
    if block:
        yield block


def _scored_neighbors(c: Corpus, targets, candidates, strategies, k_values) -> list[dict[int, dict[int, np.ndarray]]]:
    """The top-K candidates of each target for each K (``[k][target]``)
    under each scoring strategy, each block of targets featurized once for
    all of them, each target's candidates ranked once per strategy and
    every K a prefix of that ranking."""
    neighbors = [{k: {} for k in k_values} for _ in strategies]
    for block in _target_blocks(targets, candidates):
        sizes = [len(candidates[t]) for t in block]
        pair_targets = np.repeat(np.asarray(block, dtype=np.int64), sizes)
        pair_candidates = np.concatenate([candidates[t] for t in block])
        for out, scores in zip(neighbors, _block_scores(c, pair_targets, pair_candidates, strategies)):
            for t, s in zip(block, np.split(scores, np.cumsum(sizes)[:-1])):
                ranked = _rank(s, candidates[t])
                for k in k_values:
                    out[k][t] = ranked[:k]
    return neighbors


def run_experiment(c: Corpus, cfg: ExperimentConfig, strategies) -> list[dict]:
    """F-measure and Diversification across the strategy x K x N grid.

    The scoring strategies (predicted, oracle, past, demo) are scored
    together, block of whole targets by block, from one featurization per
    block; each ranks a target's candidates once, and every K is cut from
    that ranking.  The friend, random and popular strategies select per K
    and target, the random one drawing in target order from one generator
    per K.  Each (strategy, K) is then evaluated for all targets
    and every N at once, from one top-``max(N)`` ranking per target.  Rows
    run strategy by strategy, K within strategy and N within K.  A second
    run on the corpus reuses its profile indexes."""
    cfg.validate()
    targets, candidates = sample_experiment_users(c, cfg)
    truth = c.profile_index(DAY0, "vbp").counts[c.rows_for(targets)].toarray() > 0
    truth_sizes = truth.sum(axis=1)
    max_n = max(cfg.n_values)
    rows = []
    scored = iter(_scored_neighbors(c, targets, candidates, [s for s in strategies if isinstance(s, _SCORED)],
                                    cfg.k_values))
    for strategy in strategies:
        neighbors = next(scored) if isinstance(strategy, _SCORED) else None
        for k in cfg.k_values:
            if neighbors is None:
                rng = subrng(cfg.seed, f"recommend.randomk.{k}")
                lists = [select_neighbors(c, t, candidates[t], strategy, k, rng=rng) for t in targets]
            else:
                lists = [neighbors[k][t] for t in targets]
            top, lengths = _top_videos(c, lists, max_n)
            listed = np.arange(top.shape[1]) < lengths[:, np.newaxis]
            # hits[:, j]: each target's hits among its first j videos
            hits = np.zeros((len(targets), top.shape[1] + 1), dtype=np.int64)
            hits[:, 1:] = np.cumsum(np.take_along_axis(truth, top, axis=1) & listed, axis=1)
            for n in cfg.n_values:
                j = min(n, top.shape[1])
                precision, recall, f = _accuracy(hits[:, j], np.minimum(lengths, n), truth_sizes)
                div = _diversification(np.bincount(top[:, :j][listed[:, :j]]), len(targets), n)
                rows.append(dict(strategy=strategy.name(), K=k, N=n, precision=precision, recall=recall,
                                 f_measure=f, diversification=div))
    return rows


def write_report(rows: list[dict], path) -> None:
    header = ["strategy", "K", "N", "precision", "recall", "f_measure", "diversification"]
    write_csv(path, header, [[r[name] for r in rows] for name in header], ["%s"] * 3 + ["%.9g"] * 4)
