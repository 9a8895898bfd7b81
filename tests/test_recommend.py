import numpy as np
import pytest

from interestsim.corpus import UserRecord, VideoRecord, active_users
from interestsim.recommend import (
    DemographicSim,
    ExperimentConfig,
    FriendFilter,
    GlobalPopularity,
    OracleSim,
    PastLongTerm,
    RandomK,
    accuracy_report,
    diversification,
    f_measure,
    recommend_topn,
    run_experiment,
    select_neighbors,
)
from interestsim.synthgen import GenConfig, generate

from conftest import make_corpus
from topn_oracle import recommend_topn as oracle_topn


@pytest.fixture(scope="module")
def rec_corpus():
    corpus, _ = generate(
        GenConfig(seed=31, n_users=400, n_videos=200, n_tags=80, n_topics=8, inactive_fraction=0.0)
    )
    return corpus


def test_topk_includes_all_when_k_large(rec_corpus):
    c = rec_corpus
    target = c.user_ids[0]
    candidates = list(c.user_ids[1:40])
    got = select_neighbors(c, target, candidates, OracleSim("ptp"), 500)
    assert sorted(got) == sorted(candidates)


def test_randomk_reproducible(rec_corpus):
    c = rec_corpus
    target = c.user_ids[0]
    candidates = list(c.user_ids[1:100])
    a = select_neighbors(c, target, candidates, RandomK(), 10, rng=np.random.default_rng(5))
    b = select_neighbors(c, target, candidates, RandomK(), 10, rng=np.random.default_rng(5))
    assert a == b and len(a) == 10


def test_oracle_matches_bruteforce_scan(rec_corpus):
    c = rec_corpus
    from interestsim.profiling import build_ptp, tag_similarity

    target = c.user_ids[3]
    candidates = [u for u in c.user_ids[4:120]]
    got = select_neighbors(c, target, candidates, OracleSim("ptp"), 10)
    tp = build_ptp(c, target, (0, 0))
    scored = sorted(
        candidates,
        key=lambda u: (-tag_similarity(tp, build_ptp(c, u, (0, 0))), u),
    )
    assert got == scored[:10]


def test_friend_filter_ranks_by_msg_days():
    users = {i: UserRecord(i, "M", 20, 0) for i in range(1, 6)}
    videos = {10: VideoRecord(10, frozenset({1}))}
    c = make_corpus(
        users=users,
        videos=videos,
        views=[(2, 10, 0)],
        friends={(1, 2), (1, 3), (1, 4)},
        messages={(1, 2): {-1: 1}, (1, 3): {-1: 1, -2: 1, -3: 1}, (1, 4): {-5: 9}},
    )
    got = select_neighbors(c, 1, [2, 3, 4, 5], FriendFilter(), 2)
    assert got == [3, 2]  # 3 msg-days, then tie (1 day) broken by id
    assert select_neighbors(c, 5, [2, 3, 4], FriendFilter(), 2) == []


def test_candidates_must_exclude_target(rec_corpus):
    c = rec_corpus
    with pytest.raises(ValueError):
        select_neighbors(c, c.user_ids[0], [c.user_ids[0], c.user_ids[1]], DemographicSim(), 1)


def test_recommend_topn_counting_and_ties():
    users = {i: UserRecord(i, "M", 20, 0) for i in (1, 2, 3)}
    videos = {m: VideoRecord(m, frozenset({1})) for m in (10, 11, 12)}
    views = [(1, 11, 0), (2, 11, 0), (2, 10, 0), (3, 12, 0), (3, 10, 0)]
    c = make_corpus(users=users, videos=videos, views=views)
    got = recommend_topn(c, [1, 2, 3], 10)
    # 11 and 10 both have count 2 -> lower id first; then 12
    assert got == [10, 11, 12]
    assert recommend_topn(c, [1], 10) == [11]
    assert recommend_topn(c, [], 5) == []


def test_recommend_topn_matches_counting_oracle(rec_corpus):
    users = {i: UserRecord(i, "M", 20, 0) for i in (1, 2, 3)}
    videos = {m: VideoRecord(m, frozenset({1})) for m in (10, 11, 12)}
    views = [(1, 11, 0), (2, 11, -1), (3, 12, 0), (3, 10, 0)]
    small = make_corpus(users=users, videos=videos, views=views)
    # the repeated neighbor counts twice: 10 and 12 tie at 2, ahead of 11
    assert recommend_topn(small, [1, 3, 3], 10) == oracle_topn(small, [1, 3, 3], 10) == [10, 12, 11]
    assert recommend_topn(small, [2], 10) == oracle_topn(small, [2], 10) == []

    c = rec_corpus
    ids = np.asarray(c.user_ids)
    rng = np.random.default_rng(7)
    cases = [[], [ids[0]], [ids[5], ids[5]], ids.tolist()]
    cases += [rng.choice(ids, size=k, replace=True).tolist() for k in (3, 15, 60)]
    for neighbors in cases:
        for n in (1, 10, 1000):
            assert recommend_topn(c, neighbors, n) == oracle_topn(c, neighbors, n)


def test_topn_independent_of_neighbor_order(rec_corpus):
    c = rec_corpus
    neigh = list(c.user_ids[:12])
    a = recommend_topn(c, neigh, 20)
    b = recommend_topn(c, list(reversed(neigh)), 20)
    assert a == b


def test_f_measure_exact_values():
    assert f_measure({1: [10, 11]}, {1: frozenset({10, 11})}) == 1.0
    # single target: |I ^ R| = 1, |R| = 2, |I| = 2 -> P = R = 0.5
    assert f_measure({1: [10, 12]}, {1: frozenset({10, 11})}) == pytest.approx(0.5)
    assert f_measure({1: [12, 13], 2: [14]}, {1: frozenset({10}), 2: frozenset({11})}) == 0.0


def test_f_measure_is_harmonic_mean_of_its_parts(rec_corpus):
    c = rec_corpus
    targets = list(c.user_ids[:30])
    truth = {t: c.view_set(t, (0, 0)) for t in targets}
    lists = {t: recommend_topn(c, list(c.user_ids[30:45]), 10) for t in targets}
    p, r, f = accuracy_report(lists, truth)
    if p + r > 0:
        assert f == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def test_f_measure_requires_nonempty():
    with pytest.raises(ValueError):
        f_measure({1: []}, {1: frozenset({10})})


def test_diversification_exact_values():
    assert diversification([[1, 2], [1, 2]], 2) == pytest.approx(0.0)
    assert diversification([[1, 2], [3, 4]], 2) == pytest.approx(1.0)
    assert diversification([[1, 2], [2, 3]], 2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        diversification([[1, 2]], 2)


def test_diversification_monotone_in_forced_overlap():
    # progressively replace disjoint items with a shared one
    base = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    d0 = diversification(base, 3)
    base[1][0] = 1
    d1 = diversification(base, 3)
    base[2][0] = 1
    d2 = diversification(base, 3)
    assert d0 > d1 > d2
    for d in (d0, d1, d2):
        assert 0.0 <= d <= 1.0


def test_run_experiment_single_cell(rec_corpus):
    cfg = ExperimentConfig(n_targets=20, n_candidates=60, k_values=(5,), n_values=(10,), seed=3)
    rows = run_experiment(rec_corpus, cfg, [GlobalPopularity()])
    assert len(rows) == 1
    assert rows[0]["strategy"] == "popular"
    assert 0 <= rows[0]["f_measure"] <= 1


def test_global_popularity_constant_across_k(rec_corpus):
    cfg = ExperimentConfig(n_targets=25, n_candidates=80, k_values=(2, 15, 40), n_values=(10, 30), seed=4)
    rows = run_experiment(rec_corpus, cfg, [GlobalPopularity()])
    by_n = {}
    for r in rows:
        by_n.setdefault(r["N"], set()).add((r["f_measure"], r["diversification"]))
    for n, cells in by_n.items():
        assert len(cells) == 1  # identical for every K


def test_run_experiment_deterministic(rec_corpus):
    cfg = ExperimentConfig(n_targets=15, n_candidates=50, k_values=(5,), n_values=(10, 20), seed=9)
    strategies = [OracleSim("ptp"), RandomK(), PastLongTerm(), DemographicSim(), FriendFilter()]
    r1 = run_experiment(rec_corpus, cfg, strategies)
    r2 = run_experiment(rec_corpus, cfg, strategies)
    assert r1 == r2


def test_oracle_beats_random(rec_corpus):
    cfg = ExperimentConfig(n_targets=60, n_candidates=120, k_values=(15,), n_values=(20, 50), seed=11)
    rows = run_experiment(rec_corpus, cfg, [OracleSim("ptp"), RandomK()])
    f = {(r["strategy"], r["N"]): r["f_measure"] for r in rows}
    for n in (20, 50):
        assert f[("oracle-ptp", n)] >= f[("random", n)]
