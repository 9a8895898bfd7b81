import numpy as np
import pytest

import bucket_oracle
from interestsim.evalkit import (
    BUCKET_KEYS,
    BinaryLabeling,
    auc,
    bucket_similarity,
    fit_model,
    protocol,
    reduced_mae_ratio,
    run_protocol,
    sample_pairs,
    train_test_split,
)
from interestsim.pairfeat import PairFeaturizer, build_training_set
from interestsim.profiling import KINDS
from interestsim.synthgen import GenConfig, generate


def brute_force_auc(scores, labels):
    """Count positive-negative pairs; ties earn half credit."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_perfectly_ordered():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_hand_example():
    assert auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_auc_all_ties():
    assert auc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == pytest.approx(0.5)


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])


def test_auc_matches_bruteforce_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.random(100)
    labels = rng.random(100) < 0.4
    base = auc(scores, labels)
    assert auc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


def test_auc_complement_identity_without_ties():
    rng = np.random.default_rng(2)
    scores = rng.permutation(100).astype(float)  # all distinct
    labels = rng.random(100) < 0.5
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_reduced_mae_values():
    assert reduced_mae_ratio([0.5, 0.5], [0.0, 1.0], 0.5) == pytest.approx(0.0)
    assert reduced_mae_ratio([0.0, 1.0], [0.0, 1.0], 0.5) == pytest.approx(100.0)
    assert reduced_mae_ratio([0.25, 0.75], [0.0, 1.0], 0.5) == pytest.approx(50.0)


def test_reduced_mae_shift_invariance():
    rng = np.random.default_rng(3)
    pred = rng.random(50)
    target = rng.random(50)
    base = reduced_mae_ratio(pred, target, 0.4)
    shifted = reduced_mae_ratio(pred + 2, target + 2, 2.4)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_reduced_mae_degenerate_target_rejected():
    with pytest.raises(ValueError):
        reduced_mae_ratio([0.5], [0.5], 0.5)


def test_split_disjoint_exhaustive():
    split = train_test_split(100, seed=5)
    assert len(split.train) == 70 and len(split.test) == 30
    assert set(split.train) | set(split.test) == set(range(100))
    assert set(split.train) & set(split.test) == set()


def test_binarization_strictly_above_training_mean():
    labeling = BinaryLabeling.from_similarities(np.array([0.2, 0.4]), np.array([0.3, 0.31, 0.29]))
    assert labeling.threshold == pytest.approx(0.3)
    assert labeling.labels.tolist() == [0.0, 1.0, 0.0]  # boundary is negative


@pytest.fixture(scope="module")
def study_corpus():
    corpus, _ = generate(
        GenConfig(seed=21, n_users=900, n_videos=350, n_tags=100, n_topics=10, n_cities=6)
    )
    null, _ = generate(
        GenConfig(
            seed=21, n_users=900, n_videos=350, n_tags=100, n_topics=10, n_cities=6,
            friend_interest=0.0, message_interest=0.0, group_topic=0.0, gender_topic_skew=0.0,
        )
    )
    return corpus, null


def _count(table):
    """Pairs over all buckets of a table."""
    return sum(count for _, _, count, _ in table.rows)


def _by_bucket(table):
    """bucket -> (mean, count, stderr)."""
    return {bucket: rest for bucket, *rest in table.rows}


def _random_pairs(c, n, seed):
    rng = np.random.default_rng(seed)
    ids = np.asarray(c.user_ids)
    a = rng.choice(ids, n)
    b = rng.choice(ids, n)
    keep = a != b
    return a[keep], b[keep]


def test_bucket_single_pair():
    corpus, _ = generate(GenConfig(seed=2, n_users=50, n_videos=40, n_tags=30, n_topics=5))
    from interestsim.pairfeat import PairFeaturizer

    fz = PairFeaturizer(corpus, "ptp")
    a = np.array([corpus.user_ids[0]])
    b = np.array([corpus.user_ids[1]])
    table = bucket_similarity(corpus, (a, b), "gender", "ptp")
    assert _count(table) == 1
    (bucket, mean, count, se) = table.rows[0]
    assert count == 1 and se == 0.0
    assert mean == pytest.approx(float(fz.label_similarity(a, b)[0]))


def test_gender_buckets_null_vs_skewed(study_corpus):
    planted, null = study_corpus
    pairs = _random_pairs(planted, 40_000, 7)
    table = _by_bucket(bucket_similarity(planted, pairs, "gender", "ptp"))
    assert table["FF"][0] > table["MM"][0]
    # pair count sized so pair-sampling noise dominates the per-corpus
    # user-level noise the iid stderr cannot see
    pairs0 = _random_pairs(null, 5_000, 7)
    t0 = _by_bucket(bucket_similarity(null, pairs0, "gender", "ptp"))
    gap = abs(t0["FF"][0] - t0["MM"][0])
    two_se = 2 * (t0["FF"][2] + t0["MM"][2])
    assert gap < two_se


def test_bucket_counts_sum_to_pairs(study_corpus):
    planted, _ = study_corpus
    pairs = _random_pairs(planted, 5_000, 8)
    for key in ("gender", "friendship", "msgdays", "individuality"):
        table = bucket_similarity(planted, pairs, key, "ptp")
        assert _count(table) == len(pairs[0])


def test_bucket_unknown_key_rejected(study_corpus):
    planted, _ = study_corpus
    pairs = _random_pairs(planted, 100, 9)
    with pytest.raises(ValueError):
        bucket_similarity(planted, pairs, "star-sign", "ptp")


@pytest.fixture(scope="module")
def study_pairs(study_corpus):
    planted, _ = study_corpus
    return {
        "random": sample_pairs(planted, 3_000, 4, "random"),
        "friends": sample_pairs(planted, 1_500, 4, "friends"),
    }


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("among", ["random", "friends"])
def test_bucket_rows_match_oracle(study_corpus, study_pairs, kind, among):
    planted, _ = study_corpus
    pairs = study_pairs[among]
    for key in BUCKET_KEYS:
        for n_bins in (1, 3, 10):
            got = bucket_similarity(planted, pairs, key, kind, n_bins=n_bins)
            want = bucket_oracle.bucket_similarity(planted, pairs, key, kind, n_bins=n_bins)
            assert got.key == want.key == key
            assert got.rows == want.rows, (key, n_bins)


@pytest.mark.parametrize("kind", KINDS)
def test_bucket_one_pair_matches_oracle(study_corpus, study_pairs, kind):
    planted, _ = study_corpus
    a, b = study_pairs["friends"]
    pair = (a[:1], b[:1])
    for key in BUCKET_KEYS:
        got = bucket_similarity(planted, pair, key, kind, n_bins=3)
        assert got.rows == bucket_oracle.bucket_similarity(planted, pair, key, kind, n_bins=3).rows
        assert _count(got) == 1 and got.rows[0][3] == 0.0


def test_bucket_empty_bins_get_no_row(study_corpus, study_pairs):
    """Two pairs with distinct common-friend ratios leave the inner
    quantile bins between them empty."""
    planted, _ = study_corpus
    ra, rb = study_pairs["random"]
    fa, fb = study_pairs["friends"]
    fz = PairFeaturizer(planted, "ptp")
    i = int(np.argmax(fz.common_friend_ratio(*fz.rows(fa, fb))))
    assert fz.common_friend_ratio(*fz.rows(ra[:1], rb[:1]))[0] == 0.0
    pair = (np.array([ra[0], fa[i]]), np.array([rb[0], fb[i]]))
    for n_bins in (3, 10):
        got = bucket_similarity(planted, pair, "friendratio", "ptp", n_bins=n_bins)
        want = bucket_oracle.bucket_similarity(planted, pair, "friendratio", "ptp", n_bins=n_bins)
        assert got.rows == want.rows
        assert len(got.rows) == 2 and _count(got) == 2
        assert got.rows[1][0].startswith(f"{n_bins - 1:02d} ")


@pytest.mark.parametrize("n_bins", [0, -1])
def test_bucket_rejects_fewer_than_one_bin(study_corpus, study_pairs, n_bins):
    planted, _ = study_corpus
    with pytest.raises(ValueError, match="n_bins"):
        bucket_similarity(planted, study_pairs["random"], "individuality", "ptp", n_bins=n_bins)


def test_friend_pairs_match_sorted_edge_draws(study_corpus, small_corpus):
    for c in (study_corpus[0], small_corpus[0]):
        for seed in (0, 1, 7, 42):
            got = sample_pairs(c, 500, seed, "friends")
            want = bucket_oracle.sample_friend_pairs(c, 500, seed)
            assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


@pytest.fixture(scope="module")
def protocol_samples(study_corpus):
    planted, _ = study_corpus
    return build_training_set(planted, 6_000, "ptp", seed=3)


def test_protocol_deterministic(protocol_samples):
    r1, _ = run_protocol(protocol_samples, "linear", "clf", seed=0)
    r2, _ = run_protocol(protocol_samples, "linear", "clf", seed=0)
    assert r1 == r2
    assert 0.5 < r1["auc"] <= 1.0
    # one protocol serves many fits: its report of a model fitted on its
    # training rows is run_protocol's
    p = protocol(protocol_samples, "clf", seed=0)
    assert p.report("linear", fit_model("linear", p.train, "clf")) == r1


def test_protocol_regression_beats_constant(protocol_samples):
    report, _ = run_protocol(protocol_samples, "gbdt", "reg", seed=0)
    assert report["reduced_mae_pct"] > 0


def test_protocol_constant_labels_rejected(protocol_samples):
    import numpy as np
    from interestsim.pairfeat import SampleTable

    table = SampleTable(
        protocol_samples.kind,
        protocol_samples.columns,
        np.zeros(len(protocol_samples)),
    )
    with pytest.raises(ValueError):
        run_protocol(table, "linear", "clf", seed=0)
    # the split rejects them before any model is fitted
    with pytest.raises(ValueError, match="both classes"):
        protocol(table, "clf", seed=0)
