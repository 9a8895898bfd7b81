"""The per-(strategy, K, target) experiment loop that
``recommend.run_experiment`` replaced, with the neighbor selection, the
per-list top-N counting, the per-list accuracy and the ``Counter``
diversification it called, kept as the reference they are tested
against."""

from collections import Counter

import numpy as np

from interestsim._util import subrng
from interestsim.recommend import (
    FriendFilter,
    GlobalPopularity,
    RandomK,
    _pair_scores,
    sample_experiment_users,
)
from topn_oracle import recommend_topn


def _top_k(scores: np.ndarray, ids: np.ndarray, k: int) -> list[int]:
    order = np.lexsort((ids, -scores))
    return [int(u) for u in ids[order[:k]]]


def select_neighbors(c, target, candidates, strategy, k, rng=None) -> list[int]:
    """Top-K candidate users under the strategy; ties break to lower id."""
    candidates = np.asarray(sorted(int(x) for x in candidates), dtype=np.int64)
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    if target in set(candidates.tolist()):
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
        friends = np.fromiter(c.friends(target) & set(candidates.tolist()), np.int64)
        D, t = c.msg_days, c.rows_for([target])[0]
        days = np.zeros(len(c.user_ids))
        days[D.indices[D.indptr[t] : D.indptr[t + 1]]] = D.data[D.indptr[t] : D.indptr[t + 1]]
        return _top_k(days[c.rows_for(friends)], friends, k)
    scores = _pair_scores(c, target, candidates, strategy)
    return _top_k(scores, candidates, k)


def accuracy_report(lists, truth) -> tuple[float, float, float]:
    """Micro-averaged precision, recall and F-measure over all targets."""
    if not any(lists.get(t) and truth.get(t) for t in lists):
        raise ValueError("need at least one target with a non-empty list and truth")
    hit = sum(len(set(lists[t]) & truth.get(t, frozenset())) for t in lists)
    total_rec = sum(len(lists[t]) for t in lists)
    total_truth = sum(len(truth.get(t, frozenset())) for t in lists)
    precision = hit / total_rec if total_rec else 0.0
    recall = hit / total_truth if total_truth else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def diversification(lists, n: int) -> float:
    """1 - average pairwise list overlap, overlap normalized by N."""
    lists = [list(l) for l in lists]
    t = len(lists)
    if t < 2:
        raise ValueError("diversification needs at least two targets")
    if n < 1:
        raise ValueError("N must be >= 1")
    counts: Counter[int] = Counter()
    for l in lists:
        if len(set(l)) != len(l):
            raise ValueError("recommendation lists must not contain duplicates")
        for m in l:
            counts[m] += 1
    overlap_sum = sum(cnt * (cnt - 1) // 2 for cnt in counts.values())
    return 1.0 - (2.0 * overlap_sum / n) / (t * (t - 1))


def run_experiment(c, cfg, strategies) -> list[dict]:
    """F-measure and Diversification across the strategy x K x N grid."""
    cfg.validate()
    targets, candidates = sample_experiment_users(c, cfg)
    truth = {t: c.view_set(t, (0, 0)) for t in targets}
    max_n = max(cfg.n_values)
    rows = []
    for strategy in strategies:
        for k in cfg.k_values:
            rng = subrng(cfg.seed, f"recommend.randomk.{k}")
            ranked_videos: dict[int, list[int]] = {}
            for t in targets:
                neighbors = select_neighbors(c, t, candidates[t], strategy, k, rng=rng)
                ranked_videos[t] = recommend_topn(c, neighbors, max_n)
            for n in cfg.n_values:
                lists = {t: ranked_videos[t][:n] for t in targets}
                precision, recall, f = accuracy_report(lists, truth)
                div = diversification(list(lists.values()), n)
                rows.append(
                    {
                        "strategy": strategy.name(),
                        "K": k,
                        "N": n,
                        "precision": precision,
                        "recall": recall,
                        "f_measure": f,
                        "diversification": div,
                    }
                )
    return rows
