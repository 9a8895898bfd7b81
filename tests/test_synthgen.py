import hashlib
from dataclasses import replace

import numpy as np
import pytest

from interestsim.corpus import CSV_NAMES, load_corpus, write_corpus
from interestsim.profiling import ProfileIndex
from interestsim.synthgen import GenConfig, generate

SMALL = GenConfig(seed=7, n_users=500, n_videos=250, n_tags=90, n_topics=9, n_cities=6, n_groups=18)


def test_same_config_same_corpus():
    c1, l1 = generate(SMALL)
    c2, l2 = generate(SMALL)
    assert c1 == c2
    assert np.array_equal(l1.user_affinity, l2.user_affinity)
    assert np.array_equal(l1.video_topic, l2.video_topic)


def test_affinity_rows_on_simplex():
    _, latent = generate(SMALL)
    sums = latent.user_affinity.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-9)
    assert np.all(latent.user_affinity >= 0)


def test_degenerate_config_rejected():
    with pytest.raises(ValueError):
        generate(GenConfig(n_topics=50, n_tags=10))
    with pytest.raises(ValueError):
        generate(GenConfig(n_users=0))
    with pytest.raises(ValueError):
        generate(GenConfig(friend_interest=1.5))
    with pytest.raises(ValueError):
        generate(GenConfig(inactive_fraction=1.0))


def test_null_homophily_decorrelates_friendship():
    cfg = replace(
        SMALL,
        n_users=900,
        friend_interest=0.0,
        message_interest=0.0,
        group_topic=0.0,
        gender_topic_skew=0.0,
    )
    c, _ = generate(cfg)
    idx = ProfileIndex(c, (0, 0), "ptp")
    rng = np.random.default_rng(1)
    ids = np.array(c.user_ids)
    a = rng.choice(ids, 100_000)
    b = rng.choice(ids, 100_000)
    keep = a != b
    sims = idx.similarity_pairs(a[keep], b[keep])
    edge_set = set(c.friend_edges)
    is_friend = np.fromiter(
        ((min(x, y), max(x, y)) in edge_set for x, y in zip(a[keep], b[keep])),
        dtype=bool,
    )
    r = np.corrcoef(is_friend.astype(float), sims)[0, 1]
    assert abs(r) < 0.02


def test_friend_interest_raises_friend_similarity():
    planted, _ = generate(replace(SMALL, friend_interest=0.8))
    for corpus, expect_gap in [(planted, True)]:
        idx = ProfileIndex(corpus, (0, 0), "ptp")
        edges = sorted(corpus.friend_edges)
        ea = np.array([e[0] for e in edges])
        eb = np.array([e[1] for e in edges])
        friend_mean = idx.similarity_pairs(ea, eb).mean()
        rng = np.random.default_rng(2)
        ids = np.array(corpus.user_ids)
        a = rng.choice(ids, 50_000)
        b = rng.choice(ids, 50_000)
        keep = a != b
        random_mean = idx.similarity_pairs(a[keep], b[keep]).mean()
        assert friend_mean > random_mean


def test_write_then_load_roundtrip(tmp_path):
    c, _ = generate(SMALL)
    write_corpus(c, tmp_path)
    assert load_corpus(tmp_path) == c


def test_empty_views_config_writes_header_only(tmp_path):
    cfg = replace(SMALL, n_users=20, daily_view_rate=1e-9)
    c, _ = generate(cfg)
    write_corpus(c, tmp_path)
    assert (tmp_path / "views.csv").read_text() == "user_id,video_id,day\n"


def test_seed42_default_config_checksums_stable(tmp_path):
    """Golden checksum of the default seed-42 corpus, frozen at first build."""
    c, _ = generate(GenConfig(seed=42))
    write_corpus(c, tmp_path / "a")
    write_corpus(c, tmp_path / "b")
    digests = {}
    for name in CSV_NAMES.values():
        da = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        db = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
        assert da == db
        digests[name] = da
    combined = hashlib.sha256(
        "".join(digests[n] for n in sorted(digests)).encode()
    ).hexdigest()
    assert combined == "686a8941b4b94f7eac702a71f7709d85bb73f40d066c74f0c3d1423330c14989"


def test_zipf_tag_popularity_is_skewed():
    c, _ = generate(SMALL)
    idx = ProfileIndex(c, (0, 0), "ptp")
    counts = np.sort(idx.item_user_counts[idx.item_user_counts > 0])[::-1]
    # head tags are owned by far more users than tail tags
    head = counts[: max(1, len(counts) // 10)].mean()
    tail = counts[-max(1, len(counts) // 10) :].mean()
    assert head > 4 * tail


def test_inactive_fraction_suppresses_day0():
    cfg = replace(SMALL, inactive_fraction=0.3)
    c, _ = generate(cfg)
    from interestsim.corpus import active_users

    day0 = active_users(c, (0, 0))
    month = active_users(c, (-30, 0))
    assert len(day0) < len(month)
    # roughly the configured fraction of users has no day-0 activity
    frac = 1 - len(day0) / len(c.users)
    assert 0.2 < frac < 0.45
