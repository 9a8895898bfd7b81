import math

import numpy as np
import pytest
import scipy.sparse as sp

from interestsim import evalkit
from interestsim.corpus import UserRecord, VideoRecord
from interestsim.pairfeat import PAST_WINDOW, PairFeaturizer, build_training_set
from interestsim.profiling import (
    KINDS,
    TAG_KINDS,
    ProfileIndex,
    build_ptp,
    build_rtp,
    row_products,
    self_similarity,
    self_similarity_series,
    tag_similarity,
    video_similarity,
)
from interestsim.recommend import DemographicSim, ExperimentConfig, OracleSim, PastLongTerm, PredictedSim, run_experiment
from interestsim.synthgen import GenConfig, generate

from conftest import make_corpus
from selfsim_oracle import self_similarity_series as oracle_series


def test_ptp_empty_window():
    c = make_corpus(views=[(1, 10, -20)])
    assert build_ptp(c, 1, (-5, 0)).weights == {}


def test_ptp_counts_videos_per_tag():
    # video 10 carries {100, 101}, video 11 carries {101, 102}
    c = make_corpus(views=[(1, 10, 0), (1, 11, 0)])
    assert build_ptp(c, 1, (0, 0)).weights == {100: 1.0, 101: 2.0, 102: 1.0}


def test_ptp_matches_bruteforce_tally(small_corpus):
    c, _ = small_corpus
    rng = np.random.default_rng(5)
    for u in rng.choice(np.array(c.user_ids), 12, replace=False):
        prof = build_ptp(c, int(u), (-30, 0))
        tally: dict[int, int] = {}
        vids = {m for (uu, m, d) in c.views if uu == int(u)}
        for m in vids:
            for t in c.videos[m].tags:
                tally[t] = tally.get(t, 0) + 1
        assert prof.weights == {t: float(n) for t, n in tally.items()}


def test_rtp_hand_arithmetic():
    # 4 active users; u1 views video A (tag 100 exclusive to u1) plus three
    # videos sharing tag 101 owned by everyone
    users = {i: UserRecord(i, "M", 20, 0) for i in range(1, 5)}
    videos = {
        1: VideoRecord(1, frozenset({100})),
        2: VideoRecord(2, frozenset({101})),
        3: VideoRecord(3, frozenset({101})),
        4: VideoRecord(4, frozenset({101})),
    }
    views = [(1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0)]
    views += [(u, 2, 0) for u in (2, 3, 4)]
    c = make_corpus(users=users, videos=videos, views=views)
    assert build_ptp(c, 1, (0, 0)).weights == {100: 1.0, 101: 3.0}
    rtp = build_rtp(c, 1, (0, 0))
    # w(100) = 1 * log2(4/1) = 2; w(101) = 3 * log2(4/4) = 0 -> dropped
    assert rtp.weights == {100: 2.0}
    assert rtp.weights.get(101, 0.0) == 0.0


def test_rtp_bounded_by_log_population(small_corpus):
    c, _ = small_corpus
    from interestsim.corpus import active_users

    n_active = len(active_users(c, (0, 0)))
    for u in list(c.user_ids)[:40]:
        ptp = build_ptp(c, u, (0, 0))
        rtp = build_rtp(c, u, (0, 0))
        for t, w in rtp.weights.items():
            assert w <= ptp.weights[t] * math.log2(n_active) + 1e-12


def test_tag_similarity_exact_values():
    c = make_corpus(views=[(1, 10, 0), (1, 11, 0)])
    p = build_ptp(c, 1, (0, 0))
    assert tag_similarity(p, p) == pytest.approx(1.0, abs=1e-12)
    q = build_ptp(c, 2, (0, 0))  # empty
    assert tag_similarity(p, q) == 0.0


def test_tag_similarity_hand_arithmetic():
    from interestsim.profiling import TagProfile

    p = TagProfile(1, (0, 0), "ptp", {1: 1.0, 2: 2.0})
    q = TagProfile(2, (0, 0), "ptp", {2: 1.0, 3: 1.0})
    assert tag_similarity(p, q) == pytest.approx(2 / math.sqrt(10), abs=1e-12)


def test_tag_similarity_kind_mismatch():
    from interestsim.profiling import TagProfile

    p = TagProfile(1, (0, 0), "ptp", {1: 1.0})
    q = TagProfile(2, (0, 0), "rtp", {1: 1.0})
    with pytest.raises(ValueError):
        tag_similarity(p, q)


def test_tag_similarity_scale_invariance():
    from interestsim.profiling import TagProfile

    rng = np.random.default_rng(0)
    for _ in range(50):
        tags = rng.choice(30, size=8, replace=False)
        wa = {int(t): float(w) for t, w in zip(tags[:5], rng.random(5) * 5 + 0.1)}
        wb = {int(t): float(w) for t, w in zip(tags[2:], rng.random(6) * 5 + 0.1)}
        p = TagProfile(1, (0, 0), "ptp", wa)
        q = TagProfile(2, (0, 0), "ptp", wb)
        scale = float(rng.random() * 10 + 0.01)
        ps = TagProfile(1, (0, 0), "ptp", {t: w * scale for t, w in wa.items()})
        assert tag_similarity(p, q) == pytest.approx(tag_similarity(ps, q), abs=1e-12)
        assert tag_similarity(p, q) == pytest.approx(tag_similarity(q, p), abs=1e-12)


def test_video_similarity_values():
    c = make_corpus(views=[(1, 10, 0), (1, 11, 0), (2, 11, 0), (2, 12, 0), (3, 10, 0), (3, 11, 0)])
    assert video_similarity(c, 1, 3, (0, 0)) == pytest.approx(1.0)
    assert video_similarity(c, 1, 2, (0, 0)) == pytest.approx(0.5)
    assert video_similarity(c, 1, 4, (0, 0)) == 0.0


def test_individuality_exact_values():
    # one video carrying one tag, viewed by every user -> H = 1
    users = {i: UserRecord(i, "M", 20, 0) for i in (1, 2)}
    videos = {10: VideoRecord(10, frozenset({100}))}
    c = make_corpus(users=users, videos=videos, views=[(1, 10, 0), (2, 10, 0)])
    assert c.profile_index((0, 0), "ptp").individuality_values([1]).tolist() == pytest.approx([1.0])
    # profile {t: 3} with tag owned by half the active users -> 0.5
    users = {i: UserRecord(i, "M", 20, 0) for i in (1, 2, 3, 4)}
    videos = {
        10: VideoRecord(10, frozenset({100})),
        11: VideoRecord(11, frozenset({100})),
        12: VideoRecord(12, frozenset({100})),
        13: VideoRecord(13, frozenset({200})),
    }
    views = [(1, 10, 0), (1, 11, 0), (1, 12, 0), (2, 10, 0), (3, 13, 0), (4, 13, 0)]
    c = make_corpus(users=users, videos=videos, views=views)
    assert build_ptp(c, 1, (0, 0)).weights == {100: 3.0}
    assert c.profile_index((0, 0), "ptp").individuality_values([1]).tolist() == pytest.approx([0.5])


def test_individuality_empty_profile_zero():
    c = make_corpus(views=[(1, 10, 0)])
    assert c.profile_index((0, 0), "ptp").individuality_values([2]).tolist() == [0.0]


def test_individuality_nonnegative_and_cauchy_schwarz_bounded(small_corpus):
    c, _ = small_corpus
    for kind in ("ptp", "rtp"):
        idx = ProfileIndex(c, (0, 0), kind)
        vals = idx.individuality_values(np.array(c.user_ids))
        profile_sizes = np.asarray((idx.W != 0).sum(axis=1)).ravel()
        assert np.all(vals >= 0)
        assert np.all(vals <= np.sqrt(np.maximum(profile_sizes, 1)) + 1e-12)


def test_self_similarity_lag_zero_and_static_user():
    views = [(1, 10, d) for d in range(-30, 1)]
    c = make_corpus(views=views)
    series = self_similarity_series(c, 1, "ptp", [0, 1, 5, 30])
    assert all(v == pytest.approx(1.0) for v in series)


def test_self_similarity_absent_when_inactive():
    c = make_corpus(views=[(1, 10, 0), (1, 11, -2)])
    series = self_similarity_series(c, 1, "ptp", [1, 2])
    assert series[0] is None
    assert series[1] is not None


def test_generalization_video_implies_tag_overlap(small_corpus):
    c, _ = small_corpus
    idx_v = ProfileIndex(c, (0, 0), "vbp")
    idx_p = ProfileIndex(c, (0, 0), "ptp")
    rng = np.random.default_rng(4)
    ids = np.array(c.user_ids)
    a = rng.choice(ids, 4000)
    b = rng.choice(ids, 4000)
    sv = idx_v.similarity_pairs(a, b)
    sp = idx_p.similarity_pairs(a, b)
    assert np.all(sp[sv > 0] > 0)
    for arr in (sv, sp):
        assert np.all(arr >= 0) and np.all(arr <= 1 + 1e-12)


def test_rtp_universal_tag_damped():
    # a tag owned by every active user adds nothing to RTP similarity
    users = {i: UserRecord(i, "M", 20, 0) for i in (1, 2)}
    videos = {
        10: VideoRecord(10, frozenset({100})),
        11: VideoRecord(11, frozenset({100, 200})),
        12: VideoRecord(12, frozenset({100, 300})),
    }
    c = make_corpus(users=users, videos=videos, views=[(1, 10, 0), (1, 11, 0), (2, 10, 0), (2, 12, 0)])
    r1 = build_rtp(c, 1, (0, 0))
    r2 = build_rtp(c, 2, (0, 0))
    assert 100 not in r1.weights and 100 not in r2.weights
    assert tag_similarity(r1, r2) == 0.0  # only disjoint rare tags remain


@pytest.mark.parametrize("window", [(0, 0), (-7, -1), (-30, 0)])
@pytest.mark.parametrize("kind", ["ptp", "rtp", "vbp"])
def test_index_rows_match_dict_profiles(small_corpus, kind, window):
    """Multi-day windows hold videos seen on several days, which count once."""
    c, _ = small_corpus
    idx = ProfileIndex(c, window, kind)
    W = idx.W
    for u, r in zip(c.user_ids, c.rows_for(c.user_ids)):
        cols = W.indices[W.indptr[r] : W.indptr[r + 1]]
        row = dict(zip(idx.item_ids[cols].tolist(), W.data[W.indptr[r] : W.indptr[r + 1]].tolist()))
        if kind == "vbp":
            assert row == {m: 1.0 for m in c.view_set(u, window)}
        elif kind == "ptp":
            assert row == build_ptp(c, u, window).weights
        else:
            assert row == pytest.approx(build_rtp(c, u, window).weights, rel=1e-12, abs=0)


def test_rows_for_rejects_unknown_ids():
    users = {i: UserRecord(i, "M", 20, 0) for i in (2, 5, 9)}
    c = make_corpus(users=users)
    assert c.rows_for([9, 2, 5]).tolist() == [2, 0, 1]
    for unknown in (1, 3, 10):
        with pytest.raises(KeyError):
            c.rows_for([2, unknown])


@pytest.mark.parametrize("kind", ["ptp", "rtp"])
def test_self_similarity_matches_dict_oracle(small_corpus, kind):
    c, _ = small_corpus
    lags = [0, 1, 2, 7, 14, 30]
    batch = self_similarity(c, c.user_ids, kind, lags)
    assert batch.shape == (len(c.user_ids), len(lags))
    for u, row in zip(c.user_ids, batch):
        want = oracle_series(c, u, kind, lags)
        series = self_similarity_series(c, u, kind, lags)
        assert [v is None for v in series] == [v is None for v in want]
        assert np.isnan(row).tolist() == [v is None for v in want]
        for got, adapted, ref in zip(row, series, want):
            if ref is not None:
                assert abs(got - ref) <= 1e-12
                assert type(adapted) is float and adapted == got
    assert not np.isnan(batch).all()


def test_self_similarity_rejects_bad_input():
    c = make_corpus(views=[(1, 10, 0), (1, 11, -2)])
    for run in (lambda *a: self_similarity(c, [1], *a), lambda *a: self_similarity_series(c, 1, *a)):
        for lags in ([-1], [31], [2, 31]):
            with pytest.raises(ValueError, match="outside"):
                run("ptp", lags)
        with pytest.raises(ValueError, match="tag kinds"):
            run("vbp", [1])
    with pytest.raises(KeyError):
        self_similarity(c, [1, 99], "rtp", [1])
    with pytest.raises(KeyError):
        self_similarity_series(c, 99, "ptp", [1])


def _index_arrays(idx):
    matrices = (idx.counts, idx.W, idx.W_normalized)
    return [idx.item_ids, idx.active_mask, idx.item_user_counts, idx.row_norms,
            *(a for M in matrices for a in (M.data, M.indices, M.indptr))]


@pytest.mark.parametrize("window, kind", [((0, 0), "ptp"), ((-7, -1), "rtp"), ((-30, -1), "vbp")])
def test_corpus_profile_index_is_built_once_and_read_only(small_corpus, window, kind):
    c, _ = small_corpus
    idx = c.profile_index(window, kind)
    assert c.profile_index(window, kind) is idx
    fresh = ProfileIndex(c, window, kind)
    assert (idx.window, idx.kind, idx.n_active) == (fresh.window, fresh.kind, fresh.n_active)
    for got, want in zip(_index_arrays(idx), _index_arrays(fresh)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0


def _diagonal_normalized(idx):
    """``W`` scaled to unit rows by a diagonal product, which stores each
    row in descending column order."""
    inv = np.zeros_like(idx.row_norms)
    nz = idx.row_norms > 0
    inv[nz] = 1.0 / idx.row_norms[nz]
    return sp.diags(inv) @ idx.W


def test_normalized_rows_are_canonical_and_read_as_the_diagonal_product():
    """``W_normalized`` is canonical, holds the entries of the diagonal
    product, and every similarity read from it is bit-identical to row
    products on that product, for every kind and window."""
    c, _ = generate(GenConfig(seed=5, n_users=200, n_videos=100, n_tags=40, n_topics=6, n_cities=4, n_groups=8))
    lags = [0, 1, 7, 30]
    reference = {}
    for window in [PAST_WINDOW] + [(-lag, -lag) for lag in lags]:
        for kind in KINDS:
            got = c.profile_index(window, kind).W_normalized
            want = reference[window, kind] = _diagonal_normalized(c.profile_index(window, kind))
            assert got.has_canonical_format and (got != want).nnz == 0
            want = want.copy()
            want.sort_indices()
            for a, b in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
                assert np.array_equal(a, b)
    a, b = np.random.default_rng(0).choice(np.asarray(c.user_ids), size=(2, 5000))
    ra, rb = c.rows_for(a), c.rows_for(b)
    for (window, kind), W in reference.items():
        assert np.array_equal(c.profile_index(window, kind).similarity_pairs(a, b), row_products(W[ra], W[rb]))
    for kind in KINDS:
        W = reference[PAST_WINDOW, kind]
        assert np.array_equal(PairFeaturizer(c, kind).past_similarity(ra, rb)[0], row_products(W[ra], W[rb]))
    rows = c.rows_for(c.user_ids)
    for kind in TAG_KINDS:
        got = self_similarity(c, c.user_ids, kind, lags)
        for j, lag in enumerate(lags):
            ok = ~np.isnan(got[:, j])
            current, past = reference[(0, 0), kind], reference[(-lag, -lag), kind]
            assert ok.any() and np.array_equal(got[ok, j], row_products(current[rows[ok]], past[rows[ok]]))


def test_corpus_profile_index_rejects_bad_arguments_and_caches_nothing():
    c = make_corpus(views=[(1, 10, 0)])
    for window, kind in (((0, 0), "tfidf"), ((1, 1), "ptp"), ((0, -1), "rtp"), ((-31, 0), "vbp")):
        with pytest.raises(ValueError):
            c.profile_index(window, kind)
    assert c._profile_indexes == {}


def test_pipeline_stages_build_each_index_once(monkeypatch):
    """Training sets, the 12 study tables, self-similarity and a
    recommendation grid on one corpus build each (window, kind) once."""
    c, _ = generate(GenConfig(seed=5, n_users=200, n_videos=100, n_tags=40, n_topics=6, n_cities=4, n_groups=8))
    built = []
    init = ProfileIndex.__init__

    def counting_init(self, corpus, window, kind):
        built.append((id(corpus), tuple(window), kind))
        init(self, corpus, window, kind)

    monkeypatch.setattr(ProfileIndex, "__init__", counting_init)
    tables = {kind: build_training_set(c, 300, kind, seed=1) for kind in KINDS}
    random_pairs = evalkit.sample_pairs(c, 2000, 1, "random")
    friend_pairs = evalkit.sample_pairs(c, 1000, 1, "friends")
    for key in ("gender", "friendship", "msgdays", "friendratio", "individuality", "samecity"):
        for kind in TAG_KINDS:
            evalkit.bucket_similarity(c, friend_pairs if key == "msgdays" else random_pairs, key, kind)
    lags = [1, 3, 7, 14, 21, 30]
    for _ in range(2):
        for kind in TAG_KINDS:
            self_similarity(c, c.user_ids[:20], kind, lags)
    model = evalkit.fit_model("linear", tables["rtp"].to_design(), "reg")
    strategies = [PredictedSim("rtp", model), OracleSim("ptp"), PastLongTerm(), DemographicSim()]
    run_experiment(c, ExperimentConfig(n_targets=5, n_candidates=30, k_values=(3,), n_values=(5,)), strategies)

    days = [(-lag, -lag) for lag in lags]
    expected = {(w, k) for w in ((0, 0), (-30, -1)) for k in KINDS} | {(w, k) for w in days for k in TAG_KINDS}
    assert len(expected) == 18
    assert sorted(built) == sorted((id(c), w, k) for w, k in expected)
