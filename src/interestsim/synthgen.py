"""Seeded synthetic corpus generator with planted homophily.

Each generation step draws from its own sub-seeded stream, so turning a
knob never reshuffles the draws of unrelated steps.  Knobs plant signs
and orderings of effects (gender gap, friend/interest alignment,
message-rate/interest alignment, group/topic alignment, interest drift),
not absolute magnitudes.

The view step (7) draws the Poisson view count of every (user, day) cell,
row-major, then one block of doubles: for each cell with k views, k topic
draws, then k video draws (what two ``random(k)`` calls per cell return).
Reordering that layout, or any step's draws, changes the seed-42 golden
corpus (``tests/test_synthgen.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import subrng
from .corpus import DAY_MIN, Corpus

# fixed recipe constants (not knobs)
AFFINITY_CONCENTRATION = 3.0
AGE_BUMP_STRENGTH = 0.6
OFF_TOPIC_TAG_WEIGHT = 0.05
VIDEO_POP_EXPONENT = 0.8
MEAN_FRIEND_DEGREE = 12.0
SAME_CITY_ODDS = 18.0
GROUPS_PER_USER = 3.0
MSG_DAY_RATE = 0.35
MSG_COUNT_SCALE = 4.0


@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    n_users: int = 1000
    n_videos: int = 400
    n_tags: int = 120
    n_topics: int = 12
    n_cities: int = 8
    n_groups: int = 24
    zipf_exponent: float = 1.1
    friend_interest: float = 0.8
    message_interest: float = 0.8
    group_topic: float = 0.8
    gender_topic_skew: float = 0.6
    daily_view_rate: float = 4.0
    inactive_fraction: float = 0.1
    interest_drift: float = 0.05

    def validate(self) -> None:
        counts = {
            "n_users": self.n_users,
            "n_videos": self.n_videos,
            "n_tags": self.n_tags,
            "n_topics": self.n_topics,
            "n_cities": self.n_cities,
            "n_groups": self.n_groups,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.n_topics > self.n_tags:
            raise ValueError("n_topics must not exceed n_tags")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        for name in ("friend_interest", "message_interest", "group_topic", "gender_topic_skew", "interest_drift"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.daily_view_rate <= 0:
            raise ValueError("daily_view_rate must be positive")
        if not 0.0 <= self.inactive_fraction < 1.0:
            raise ValueError("inactive_fraction must be in [0, 1)")


@dataclass(frozen=True)
class LatentAssignment:
    """Hidden ground truth behind a generated corpus."""

    user_affinity: np.ndarray  # (n_users, n_topics), rows on the simplex
    video_topic: np.ndarray  # (n_videos,)
    tag_topic: np.ndarray  # (n_tags,)


def _topic_prior(cfg: GenConfig, gender: str, age: int) -> np.ndarray:
    """Gender/age-conditioned topic prior.

    The gender knob skews the female population toward head topics
    (narrower collective interest range); ages pull a mild bump across
    the topic axis so nearby ages overlap more.
    """
    k = np.arange(cfg.n_topics, dtype=np.float64)
    exponent = 1.3 * cfg.gender_topic_skew if gender == "F" else 0.45 * cfg.gender_topic_skew
    base = (k + 1.0) ** (-exponent)
    center = (age - 10) / 30.0 * (cfg.n_topics - 1)
    width = max(cfg.n_topics / 4.0, 1.0)
    bump = 1.0 + AGE_BUMP_STRENGTH * np.exp(-0.5 * ((k - center) / width) ** 2)
    prior = base * bump
    return prior / prior.sum()


def _affinity_gain(cos: np.ndarray) -> np.ndarray:
    return ((cos + 0.02) / 0.5) ** 3


def _draw_views(cfg: GenConfig, priors: np.ndarray, affinity: np.ndarray, video_topic: np.ndarray) -> np.ndarray:
    """Steps (8) and (7) and the day-0 inactive filter: the (user, video, day) view rows."""
    n = cfg.n_users
    # (8, drawn before views) per-day affinity drift, walking backward
    # from the day-0 affinity
    rng = subrng(cfg.seed, "drift")
    mixtures = np.empty((n, 31, cfg.n_topics))
    mixtures[:, 30] = affinity  # index 30 == day 0
    if cfg.interest_drift > 0:
        fresh = rng.gamma(np.maximum(AFFINITY_CONCENTRATION * priors, 0.01)[:, None, :], size=(n, 30, cfg.n_topics))
        fresh_sums = fresh.sum(axis=2, keepdims=True)
        np.maximum(fresh_sums, 1e-12, out=fresh_sums)
        fresh = fresh / fresh_sums
        d = cfg.interest_drift
        for step in range(1, 31):
            mixed = (1.0 - d) * mixtures[:, 31 - step] + d * fresh[:, step - 1]
            mixtures[:, 30 - step] = mixed / mixed.sum(axis=1, keepdims=True)
    else:
        mixtures[:] = affinity[:, None, :]

    # (7) views: daily Poisson draws over videos, weighted by topic affinity
    # and video popularity (the module docstring gives the stream layout)
    rng = subrng(cfg.seed, "views")
    sizes = rng.poisson(cfg.daily_view_rate, size=n * 31)
    cell = np.repeat(np.arange(n * 31), sizes)
    ends = np.cumsum(sizes)
    draws = rng.random(2 * len(cell))
    view_at = np.arange(len(cell))
    topic_draw = draws[view_at + (ends - sizes)[cell]]
    video_draw = draws[view_at + ends[cell]]
    # a topic is the count of cumulative-mixture entries below its draw
    # (searchsorted, side left), one topic column at a time; the draw is
    # below 1, so the count never reaches n_topics
    cum = np.cumsum(mixtures, axis=2).reshape(n * 31, cfg.n_topics)
    scaled = topic_draw * cum[cell, -1]
    topics = np.zeros(len(cell), dtype=np.int64)
    for t in range(cfg.n_topics):
        topics += cum[:, t][cell] < scaled
    vpop = (np.arange(cfg.n_videos) + 1.0) ** (-VIDEO_POP_EXPONENT)
    videos_viewed = np.empty(len(cell), dtype=np.int64)
    for t in range(cfg.n_topics):
        at = np.flatnonzero(topics == t)
        vids = np.flatnonzero(video_topic == t)
        if vids.size == 0:
            vids = np.arange(cfg.n_videos)
        tc = np.cumsum(vpop[vids])
        videos_viewed[at] = vids[np.searchsorted(tc, video_draw[at] * tc[-1])]
    viewer, day = np.divmod(cell, 31)
    day += DAY_MIN

    # suppress day-0 views for a fraction of users (inactive targets)
    rng = subrng(cfg.seed, "inactive")
    suppressed = rng.choice(n, size=int(cfg.inactive_fraction * n), replace=False)
    keep = (day != 0) | ~np.isin(viewer, suppressed)
    return np.column_stack((viewer, videos_viewed, day))[keep]


def generate(cfg: GenConfig) -> tuple[Corpus, LatentAssignment]:
    """Build a corpus and its latent ground truth, deterministically."""
    cfg.validate()
    n = cfg.n_users

    # (1) demographics and topic affinities
    rng = subrng(cfg.seed, "demographics")
    genders = np.where(rng.random(n) < 0.5, "F", "M")
    ages = rng.integers(10, 41, size=n)
    cities = rng.integers(0, cfg.n_cities, size=n)
    priors = np.empty((n, cfg.n_topics))
    for i in range(n):
        priors[i] = _topic_prior(cfg, genders[i], int(ages[i]))
    alphas = np.maximum(AFFINITY_CONCENTRATION * priors, 0.01)
    gamma = rng.gamma(alphas)
    sums = gamma.sum(axis=1, keepdims=True)
    bad = sums.ravel() < 1e-12
    if bad.any():
        gamma[bad] = priors[bad]
        sums = gamma.sum(axis=1, keepdims=True)
    affinity = gamma / sums

    # (2) tags: round-robin topics over the popularity ranking
    tag_topic = np.arange(cfg.n_tags) % cfg.n_topics
    tag_pop = (np.arange(cfg.n_tags) + 1.0) ** (-cfg.zipf_exponent)

    # (3) videos: topic plus 1-5 tags biased to it
    rng = subrng(cfg.seed, "videos")
    video_topic = rng.integers(0, cfg.n_topics, size=cfg.n_videos)
    tags_of = []
    tag_ids = np.arange(cfg.n_tags)
    for m in range(cfg.n_videos):
        w = tag_pop * np.where(tag_topic == video_topic[m], 1.0, OFF_TOPIC_TAG_WEIGHT)
        k = min(int(rng.integers(1, 6)), cfg.n_tags)
        tags_of.append(rng.choice(tag_ids, size=k, replace=False, p=w / w.sum()))
    video_tags = np.column_stack((np.repeat(np.arange(cfg.n_videos), list(map(len, tags_of))), np.concatenate(tags_of)))

    # (4) friendships: probability rises with affinity cosine, same-city
    # pairs get a fixed odds boost; two passes keep mean degree on target
    rng = subrng(cfg.seed, "friends")
    norms = np.linalg.norm(affinity, axis=1, keepdims=True)
    A = affinity / norms
    s = cfg.friend_interest
    block = 512

    def weights(start: int) -> tuple[np.ndarray, np.ndarray]:
        """Pair weights of the block of rows from ``start``, and which of its pairs lie above the diagonal."""
        stop = min(start + block, n)
        mult = (1.0 - s) + s * _affinity_gain(A[start:stop] @ A.T)
        mult *= np.where(cities[start:stop, None] == cities[None, :], SAME_CITY_ODDS, 1.0)
        return mult, np.arange(start, stop)[:, None] < np.arange(n)[None, :]

    total_weight = sum(float(mult[upper].sum()) for mult, upper in map(weights, range(0, n, block)))
    target_edges = n * MEAN_FRIEND_DEGREE / 2.0
    base_p = min(target_edges / max(total_weight, 1e-12), 1.0)
    edge_parts = []
    for start in range(0, n, block):
        mult, upper = weights(start)
        p = np.minimum(base_p * mult, 0.9)
        hit_rows, hit_cols = np.nonzero((rng.random(p.shape) < p) & upper)
        edge_parts.append((hit_rows + start, hit_cols))
    ea, eb = (np.concatenate(part) for part in zip(*edge_parts))

    # (5) groups: one topic each; members drawn by affinity to it
    rng = subrng(cfg.seed, "groups")
    group_topic_arr = np.arange(cfg.n_groups) % cfg.n_topics
    sg = cfg.group_topic
    group_weight = (1.0 - sg) + sg * affinity[:, group_topic_arr] * cfg.n_topics
    memberships: list[tuple[int, int]] = []
    group_ids = np.arange(cfg.n_groups)
    for u in range(n):
        k = min(int(rng.poisson(GROUPS_PER_USER)), cfg.n_groups)
        if k == 0:
            continue
        w = group_weight[u]
        chosen = rng.choice(group_ids, size=k, replace=False, p=w / w.sum())
        memberships += [(u, g) for g in chosen.tolist()]

    # (6) daily message counts between friends, rate rises with cosine
    rng = subrng(cfg.seed, "messages")
    cos = np.einsum("ij,ij->i", A[ea], A[eb])
    sm = cfg.message_interest
    mult = (1.0 - sm) + sm * (0.12 + 4.5 * cos)
    day_p = 1.0 - np.exp(-MSG_DAY_RATE * mult)
    active_days = rng.random((len(ea), 30)) < day_p[:, None]
    extra = rng.poisson(MSG_COUNT_SCALE * 0.25 * mult[:, None], size=(len(ea), 30))
    counts = np.where(active_days, 1 + extra, 0)
    edge, day = np.nonzero(counts)
    messages = np.column_stack((ea[edge], eb[edge], day + DAY_MIN, counts[edge, day]))

    views = _draw_views(cfg, priors, affinity, video_topic)

    users = np.column_stack((np.arange(n), genders == "F", ages, cities))
    corpus = Corpus(users, video_tags, views, np.column_stack((ea, eb)), memberships, messages)
    latent = LatentAssignment(affinity, video_topic, tag_topic)
    return corpus, latent
