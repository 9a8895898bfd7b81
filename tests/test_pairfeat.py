from dataclasses import replace

import numpy as np
import pytest

from interestsim.corpus import UserRecord, VideoRecord, Corpus, FormatError
from interestsim.pairfeat import (
    FEATURE_COLUMNS,
    PairFeaturizer,
    build_training_set,
    extract,
    read_samples,
    write_samples,
)
from interestsim.synthgen import GenConfig, generate

from conftest import corpus_from_records, make_corpus


def test_strangers_all_zero_social_slice():
    c = make_corpus(views=[(2, 10, 0)])
    rec = extract(c, 1, 2, "ptp")
    assert rec.friendship is False
    assert rec.common_friend_ratio == 0.0
    assert rec.common_groups == 0
    assert rec.msg_count_month == 0
    assert rec.msg_days_month == 0
    assert rec.past_sim_month == 0.0 and rec.has_past is False


def test_common_friend_ratio_hand_arithmetic():
    # F_1 = {3, 4}, F_2 = {4, 5} -> 1 / (sqrt(2) * sqrt(2)) = 1/2
    users = {i: UserRecord(i, "M", 20, 0) for i in range(1, 6)}
    friends = {(1, 3), (1, 4), (2, 4), (2, 5)}
    c = make_corpus(users=users, friends=friends)
    rec = extract(c, 1, 2, "ptp")
    assert rec.common_friend_ratio == pytest.approx(0.5)


def test_message_aggregates():
    c = make_corpus(
        friends={(1, 2)},
        messages={(1, 2): {-3: 5, -9: 2}},
    )
    rec = extract(c, 1, 2, "ptp")
    assert rec.msg_count_month == 7
    assert rec.msg_days_month == 2
    assert rec.friendship is True


def test_unknown_user_rejected():
    c = make_corpus()
    with pytest.raises(KeyError):
        extract(c, 1, 99, "ptp")


def test_gender_pair_canonical():
    c = make_corpus()
    assert extract(c, 1, 4, "ptp").gender_pair == "MM"
    assert extract(c, 2, 3, "ptp").gender_pair == "FF"
    assert extract(c, 1, 2, "ptp").gender_pair == "MF"
    assert extract(c, 2, 1, "ptp").gender_pair == "MF"


@pytest.fixture(scope="module")
def feature_corpus():
    cfg = GenConfig(seed=3, n_users=250, n_videos=120, n_tags=60, n_topics=8, inactive_fraction=0.15)
    corpus, _ = generate(cfg)
    return corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    """Twelve users, a third of them inactive: removing the target from so
    small a population moves the masked individuality a long way."""
    cfg = GenConfig(
        seed=1, n_users=12, n_videos=10, n_tags=6, n_topics=2, n_cities=2, n_groups=2, inactive_fraction=0.3
    )
    corpus, _ = generate(cfg)
    return corpus


def _random_pairs(c: Corpus):
    rng = np.random.default_rng(0)
    ids = np.array(c.user_ids)
    a = rng.choice(ids, 150)
    b = rng.choice(ids, 150)
    keep = a != b
    return a[keep], b[keep]


def _friend_pairs(c: Corpus):
    """150 friend edges, each in a random orientation."""
    rng = np.random.default_rng(0)
    edges = np.array(sorted(c.friend_edges))
    edges = edges[rng.choice(len(edges), 150, replace=False)]
    flip = rng.random(150) < 0.5
    return np.where(flip, edges[:, 1], edges[:, 0]), np.where(flip, edges[:, 0], edges[:, 1])


def _all_ordered_pairs(c: Corpus):
    pairs = [(t, h) for t in c.user_ids for h in c.user_ids if t != h]
    return np.array([t for t, _ in pairs]), np.array([h for _, h in pairs])


@pytest.mark.parametrize(
    "corpus_name, pairs, kind",
    [pytest.param("feature_corpus", _random_pairs, k, id=k) for k in ("ptp", "rtp", "vbp")]
    + [pytest.param("tiny_corpus", _all_ordered_pairs, k, id=f"tiny-{k}") for k in ("ptp", "rtp", "vbp")]
    + [pytest.param("feature_corpus", _friend_pairs, k, id=f"friends-{k}") for k in ("ptp", "rtp", "vbp")],
)
def test_batch_matches_reference(request, corpus_name, pairs, kind):
    c = request.getfixturevalue(corpus_name)
    a, b = pairs(c)
    fz = PairFeaturizer(c, kind)
    batch = fz.extract_batch(a, b)
    assert np.all(batch["helper_individuality"] >= 0)
    for i in range(len(a)):
        row = extract(c, int(a[i]), int(b[i]), kind).as_row()
        for name, ref in zip(FEATURE_COLUMNS, row):
            assert batch[name][i] == pytest.approx(ref, abs=1e-12), (name, i)


def _without_day0(c: Corpus, user: int) -> Corpus:
    views = {(u, m, d) for (u, m, d) in c.views if not (u == user and d == 0)}
    return corpus_from_records(c.users, c.videos, views, c.friend_edges, c.memberships, c.messages)


@pytest.mark.parametrize("kind", ["ptp", "rtp", "vbp"])
def test_no_day0_leakage_from_target(feature_corpus, kind):
    """Zeroing the target's day-0 views changes no feature."""
    c = feature_corpus
    rng = np.random.default_rng(1)
    from interestsim.corpus import active_users

    actives = sorted(active_users(c, (0, 0)))
    targets = rng.choice(np.array(actives), 6, replace=False)
    helpers = rng.choice(np.array(c.user_ids), 6, replace=False)
    for t in targets:
        masked = _without_day0(c, int(t))
        for h in helpers:
            if int(h) == int(t):
                continue
            before = extract(c, int(t), int(h), kind)
            after = extract(masked, int(t), int(h), kind)
            assert before == after


def test_training_set_deterministic(feature_corpus):
    s1 = build_training_set(feature_corpus, 500, "ptp", seed=9)
    s2 = build_training_set(feature_corpus, 500, "ptp", seed=9)
    assert np.array_equal(s1.columns["target"], s2.columns["target"])
    assert np.array_equal(s1.labels, s2.labels)
    for name in FEATURE_COLUMNS:
        assert np.array_equal(s1.columns[name], s2.columns[name])


def test_training_set_empty_and_errors(feature_corpus):
    for n_pairs in (0, -5):
        with pytest.raises(ValueError, match=f"need at least one pair, got {n_pairs}"):
            build_training_set(feature_corpus, n_pairs, "ptp", seed=1)
    c = make_corpus(views=[(1, 10, 0)])
    with pytest.raises(ValueError):
        build_training_set(c, 10, "ptp", seed=1)


def test_training_pairs_are_active_and_distinct(feature_corpus):
    from interestsim.corpus import active_users

    actives = active_users(feature_corpus, (0, 0))
    table = build_training_set(feature_corpus, 800, "ptp", seed=2)
    t = table.columns["target"]
    h = table.columns["helper"]
    assert np.all(t != h)
    assert all(int(u) in actives for u in t[:100])
    assert all(int(u) in actives for u in h[:100])
    assert table.labels is not None
    assert np.all((table.labels >= 0) & (table.labels <= 1 + 1e-12))


def test_planted_labels_exceed_null_labels():
    base = GenConfig(seed=5, n_users=400, n_videos=180, n_tags=70, n_topics=8)
    planted, _ = generate(base)
    null, _ = generate(
        replace(base, friend_interest=0.0, message_interest=0.0, group_topic=0.0, gender_topic_skew=0.0)
    )
    # the planted corpus has peakier shared structure among friends; compare
    # mean similarity of friend pairs against the null corpus'
    def friend_label_mean(c):
        fz = PairFeaturizer(c, "ptp")
        edges = sorted(c.friend_edges)
        a = np.array([e[0] for e in edges])
        b = np.array([e[1] for e in edges])
        return fz.label_similarity(a, b).mean()

    assert friend_label_mean(planted) > friend_label_mean(null)


def test_samples_csv_roundtrip(tmp_path, feature_corpus):
    table = build_training_set(feature_corpus, 200, "rtp", seed=4)
    path = tmp_path / "samples.csv"
    write_samples(table, path)
    back = read_samples(path)
    assert back.kind == "rtp"
    assert len(back) == len(table)
    # every value reads back as the double written
    assert np.array_equal(back.labels, table.labels)
    assert back.columns.keys() == table.columns.keys()
    for name, column in table.columns.items():
        assert np.array_equal(back.columns[name], column), name


def test_read_samples_names_the_bad_line(tmp_path, feature_corpus):
    path = tmp_path / "samples.csv"
    write_samples(build_training_set(feature_corpus, 5, "ptp", seed=4), path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join([header, rows[0], rows[1].rsplit(",", 2)[0], *rows[2:]]) + "\n")
    with pytest.raises(FormatError, match=r"^short\.csv:3: expected 19 fields, got 17$"):
        read_samples(short)
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("\n".join([header.replace("label_sim", "label"), *rows]) + "\n")
    with pytest.raises(FormatError, match=r"^renamed\.csv:1: expected header"):
        read_samples(renamed)
    bad_target = tmp_path / "bad_target.csv"
    bad_target.write_text("\n".join([header, rows[0], "x" + rows[1], *rows[2:]]) + "\n")
    with pytest.raises(FormatError, match=r"^bad_target\.csv:3: target is not an integer: 'x"):
        read_samples(bad_target)
    huge_helper = tmp_path / "huge_helper.csv"
    fields = rows[1].split(",")
    fields[1] = "9" * 20
    huge_helper.write_text("\n".join([header, rows[0], ",".join(fields), *rows[2:]]) + "\n")
    with pytest.raises(FormatError, match=r"^huge_helper\.csv:3: helper is not an integer in \[-9223372036854775808, "
                                          r"9223372036854775807\]: '9{20}'$"):
        read_samples(huge_helper)
    bad_float = tmp_path / "bad_float.csv"
    fields = rows[2].split(",")
    fields[-1] = "abc"
    bad_float.write_text("\n".join([header, *rows[:2], ",".join(fields), *rows[3:]]) + "\n")
    with pytest.raises(FormatError, match=rf"^bad_float\.csv:4: {FEATURE_COLUMNS[-1]} is not a number: 'abc'$"):
        read_samples(bad_float)
    empty = tmp_path / "empty.csv"
    empty.write_text(header + "\n")
    with pytest.raises(ValueError, match="no samples"):
        read_samples(empty)


def test_read_samples_rejects_labels_on_some_rows_only(tmp_path, feature_corpus):
    # label_sim is the fourth field: blank on every row (unlabelled) or a
    # number on every row; the first row that disagrees with row one is named
    path = tmp_path / "samples.csv"
    write_samples(build_training_set(feature_corpus, 5, "ptp", seed=4), path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()

    def blank_label(row):
        fields = row.split(",")
        fields[3] = ""
        return ",".join(fields)

    first_blank = tmp_path / "first_blank.csv"
    first_blank.write_text("\n".join([header, blank_label(rows[0]), *rows[1:]]) + "\n")
    label = rows[1].split(",")[3]
    with pytest.raises(FormatError, match=rf"^first_blank\.csv:3: label_sim is blank on the first row but '{label}' here$"):
        read_samples(first_blank)
    later_blank = tmp_path / "later_blank.csv"
    later_blank.write_text("\n".join([header, *rows[:3], blank_label(rows[3]), rows[4]]) + "\n")
    with pytest.raises(FormatError, match=r"^later_blank\.csv:5: label_sim is a number on the first row but '' here$"):
        read_samples(later_blank)
    unlabelled = tmp_path / "unlabelled.csv"
    unlabelled.write_text("\n".join([header, *map(blank_label, rows)]) + "\n")
    back = read_samples(unlabelled)
    assert back.labels is None and len(back) == 5


def test_design_matrix_layout(feature_corpus):
    table = build_training_set(feature_corpus, 100, "ptp", seed=6)
    dm = table.to_design()
    assert dm.X.shape == (100, len(FEATURE_COLUMNS))
    assert dm.names == FEATURE_COLUMNS
    assert dm.categorical == (0, 3, 4)
    social, social_categorical, _ = table.feature_matrix(("social",))
    assert social.shape[1] == 5
    assert social_categorical == ()
    two, _, _ = table.feature_matrix(("demographic", "interest"))
    assert two.shape[1] == 10
    with pytest.raises(ValueError):
        table.feature_matrix(("nope",))


def test_misaligned_pair_arrays_rejected():
    c, _ = generate(GenConfig(seed=3, n_users=60, n_videos=40, n_tags=20, n_topics=4, n_cities=3, n_groups=4))
    t1, t2, t3, h = c.user_ids[:4]
    fz = PairFeaturizer(c, "ptp")
    with pytest.raises(ValueError):
        fz.extract_batch([t1, t2, t3], [h])
    with pytest.raises(ValueError):
        fz.label_similarity([t1, t2, t3], [h])
    with pytest.raises(ValueError):
        fz.past.similarity_pairs([h], [t1, t2])
