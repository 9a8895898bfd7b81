"""The study-table code that ``evalkit.bucket_similarity`` replaced: it
featurized every pair in full and bucketed them in a per-pair dict loop.
Kept as the reference the array version is tested against."""

import math

import numpy as np

from interestsim.evalkit import BUCKET_KEYS, BucketTable, _quantile_bins
from interestsim.pairfeat import PairFeaturizer


def _aggregate(keys: list[str], values: np.ndarray, key_name: str) -> BucketTable:
    buckets: dict[str, list[float]] = {}
    for k, v in zip(keys, values):
        buckets.setdefault(k, []).append(float(v))
    rows = []
    for k in sorted(buckets):
        vals = np.asarray(buckets[k])
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append((k, float(vals.mean()), len(vals), se))
    return BucketTable(key_name, rows)


def bucket_similarity(c, pairs, key: str, kind: str, n_bins: int = 10) -> BucketTable:
    """Mean day-0 similarity per bucket of a pair-level feature."""
    a, b = np.asarray(pairs[0]), np.asarray(pairs[1])
    if len(a) == 0:
        raise ValueError("no pairs supplied")
    if key not in BUCKET_KEYS:
        raise ValueError(f"unknown bucket key {key!r}; choose from {BUCKET_KEYS}")
    fz = PairFeaturizer(c, kind)
    sims = fz.label_similarity(a, b)
    cols = fz.extract_batch(a, b)
    if key == "gender":
        names = np.array(["MM", "MF", "FF"])
        return _aggregate(list(names[cols["gender_pair"].astype(int)]), sims, key)
    if key == "agepair":
        lo = np.minimum(cols["age_target"], cols["age_helper"]).astype(int)
        hi = np.maximum(cols["age_target"], cols["age_helper"]).astype(int)
        return _aggregate([f"{x}-{y}" for x, y in zip(lo, hi)], sims, key)
    if key == "samecity":
        return _aggregate(["same" if v else "different" for v in cols["same_city"]], sims, key)
    if key == "friendship":
        return _aggregate(["friends" if v else "random" for v in cols["friendship"]], sims, key)
    if key == "groups_friendship":
        labels = [
            f"{'friends' if f else 'strangers'}/groups={int(g)}"
            for f, g in zip(cols["friendship"], cols["common_groups"])
        ]
        return _aggregate(labels, sims, key)
    numeric_key = {
        "msgcount": "msg_count_month",
        "msgdays": "msg_days_month",
        "friendratio": "common_friend_ratio",
    }
    if key in numeric_key:
        values = cols[numeric_key[key]]
    else:  # individuality: product of both sides' day-0 individuality
        values = fz.day0.individuality_values(a) * fz.day0.individuality_values(b)
    idx, labels = _quantile_bins(values, n_bins)
    ordered = [f"{i:02d} {labels[i]}" for i in idx]
    return _aggregate(ordered, sims, key)


def sample_friend_pairs(c, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``evalkit.sample_pairs(c, n, seed, "friends")`` as it indexed the
    sorted list of edge tuples."""
    rng = np.random.default_rng(seed)
    edges = sorted(c.friend_edges)
    if not edges:
        raise ValueError("corpus has no friend edges")
    idx = rng.integers(0, len(edges), size=n)
    a = np.asarray([edges[i][0] for i in idx], dtype=np.int64)
    b = np.asarray([edges[i][1] for i in idx], dtype=np.int64)
    return a, b
