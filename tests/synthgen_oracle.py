"""The per-(user, day) and per-view generator that ``synthgen.generate``
replaced, kept as the reference it is tested against.

Step (7) draws each (user, day) cell's topic doubles and then its video
doubles with two ``rng.random(k)`` calls, finds each topic with one
``searchsorted`` over that cell's cumulative mixture and each video with
one ``searchsorted`` per view.  Friend edges, message dicts and the day-0
inactive filter are built one edge or view at a time.
"""

import numpy as np

from interestsim._util import subrng
from interestsim.corpus import Corpus, UserRecord, VideoRecord
from interestsim.synthgen import (
    AFFINITY_CONCENTRATION,
    GROUPS_PER_USER,
    MEAN_FRIEND_DEGREE,
    MSG_COUNT_SCALE,
    MSG_DAY_RATE,
    OFF_TOPIC_TAG_WEIGHT,
    SAME_CITY_ODDS,
    VIDEO_POP_EXPONENT,
    GenConfig,
    LatentAssignment,
    _affinity_gain,
    _topic_prior,
)

from conftest import corpus_from_records


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
    videos: dict[int, VideoRecord] = {}
    tag_ids = np.arange(cfg.n_tags)
    for m in range(cfg.n_videos):
        w = tag_pop * np.where(tag_topic == video_topic[m], 1.0, OFF_TOPIC_TAG_WEIGHT)
        k = int(rng.integers(1, 6))
        k = min(k, cfg.n_tags)
        chosen = rng.choice(tag_ids, size=k, replace=False, p=w / w.sum())
        videos[m] = VideoRecord(m, frozenset(int(t) for t in chosen))

    # (4) friendships: probability rises with affinity cosine, same-city
    # pairs get a fixed odds boost; two passes keep mean degree on target
    rng = subrng(cfg.seed, "friends")
    norms = np.linalg.norm(affinity, axis=1, keepdims=True)
    A = affinity / norms
    s = cfg.friend_interest
    block = 512
    total_weight = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        S = A[start:stop] @ A.T
        mult = (1.0 - s) + s * _affinity_gain(S)
        mult *= np.where(cities[start:stop, None] == cities[None, :], SAME_CITY_ODDS, 1.0)
        rows = np.arange(start, stop)
        upper = rows[:, None] < np.arange(n)[None, :]
        total_weight += float(mult[upper].sum())
    target_edges = n * MEAN_FRIEND_DEGREE / 2.0
    base_p = min(target_edges / max(total_weight, 1e-12), 1.0)
    friend_edges: set[tuple[int, int]] = set()
    for start in range(0, n, block):
        stop = min(start + block, n)
        S = A[start:stop] @ A.T
        mult = (1.0 - s) + s * _affinity_gain(S)
        mult *= np.where(cities[start:stop, None] == cities[None, :], SAME_CITY_ODDS, 1.0)
        p = np.minimum(base_p * mult, 0.9)
        draws = rng.random(p.shape)
        rows = np.arange(start, stop)
        upper = rows[:, None] < np.arange(n)[None, :]
        hit_rows, hit_cols = np.nonzero((draws < p) & upper)
        for i, j in zip(hit_rows, hit_cols):
            friend_edges.add((int(rows[i]), int(j)))

    # (5) groups: one topic each; members drawn by affinity to it
    rng = subrng(cfg.seed, "groups")
    group_topic_arr = np.arange(cfg.n_groups) % cfg.n_topics
    sg = cfg.group_topic
    group_weight = (1.0 - sg) + sg * affinity[:, group_topic_arr] * cfg.n_topics
    memberships: set[tuple[int, int]] = set()
    group_ids = np.arange(cfg.n_groups)
    for u in range(n):
        k = int(rng.poisson(GROUPS_PER_USER))
        k = min(k, cfg.n_groups)
        if k == 0:
            continue
        w = group_weight[u]
        chosen = rng.choice(group_ids, size=k, replace=False, p=w / w.sum())
        for g in chosen:
            memberships.add((u, int(g)))

    # (6) daily message counts between friends, rate rises with cosine
    rng = subrng(cfg.seed, "messages")
    edges = sorted(friend_edges)
    messages: dict[tuple[int, int], dict[int, int]] = {}
    if edges:
        ea = np.array([e[0] for e in edges])
        eb = np.array([e[1] for e in edges])
        cos = np.einsum("ij,ij->i", A[ea], A[eb])
        sm = cfg.message_interest
        mult = (1.0 - sm) + sm * (0.12 + 4.5 * cos)
        day_p = 1.0 - np.exp(-MSG_DAY_RATE * mult)
        active_days = rng.random((len(edges), 30)) < day_p[:, None]
        extra = rng.poisson(MSG_COUNT_SCALE * 0.25 * mult[:, None], size=(len(edges), 30))
        counts = np.where(active_days, 1 + extra, 0)
        for idx, (a, b) in enumerate(edges):
            nz = np.nonzero(counts[idx])[0]
            if nz.size:
                messages[(a, b)] = {int(-30 + d): int(counts[idx, d]) for d in nz}

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

    # (7) views: daily Poisson draws over videos, weighted by topic
    # affinity and video popularity
    rng = subrng(cfg.seed, "views")
    vpop = (np.arange(cfg.n_videos) + 1.0) ** (-VIDEO_POP_EXPONENT)
    topic_videos: list[np.ndarray] = []
    topic_cum: list[np.ndarray] = []
    for t in range(cfg.n_topics):
        vids = np.nonzero(video_topic == t)[0]
        if vids.size == 0:
            vids = np.arange(cfg.n_videos)
        topic_videos.append(vids)
        topic_cum.append(np.cumsum(vpop[vids]))
    n_views = rng.poisson(cfg.daily_view_rate, size=(n, 31))
    views: set[tuple[int, int, int]] = set()
    for u in range(n):
        for di in range(31):
            k = int(n_views[u, di])
            if k == 0:
                continue
            cum = np.cumsum(mixtures[u, di])
            topics = np.searchsorted(cum, rng.random(k) * cum[-1])
            np.clip(topics, 0, cfg.n_topics - 1, out=topics)
            r2 = rng.random(k)
            day = di - 30
            for t, r in zip(topics, r2):
                tc = topic_cum[t]
                m = int(topic_videos[t][np.searchsorted(tc, r * tc[-1])])
                views.add((u, m, day))

    # suppress day-0 views for a fraction of users (inactive targets)
    rng = subrng(cfg.seed, "inactive")
    n_inactive = int(cfg.inactive_fraction * n)
    if n_inactive:
        chosen = rng.choice(n, size=n_inactive, replace=False)
        suppressed = set(int(u) for u in chosen)
        views = {(u, m, d) for (u, m, d) in views if not (d == 0 and u in suppressed)}

    users = {
        i: UserRecord(i, str(genders[i]), int(ages[i]), int(cities[i])) for i in range(n)
    }
    corpus = corpus_from_records(users, videos, views, friend_edges, memberships, messages)
    latent = LatentAssignment(affinity, video_topic, tag_topic)
    return corpus, latent
