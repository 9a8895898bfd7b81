"""The per-neighbor counting that ``recommend.recommend_topn`` replaced,
kept as the reference it is tested against."""

from collections import Counter


def recommend_topn(c, neighbors, n: int) -> list[int]:
    """Videos ranked by day-0 view count among the neighbors, ties by
    ascending video id, truncated at N."""
    counts: Counter[int] = Counter()
    for u in neighbors:
        for m in c.view_set(int(u), (0, 0)):
            counts[m] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [m for m, _ in ranked[:n]]
