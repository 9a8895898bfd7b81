"""Experiment-grid validation, the demographic scores against a
per-candidate loop over the user records, and the array grid (its rows and
its errors) against the per-(strategy, K, target) loop it replaced."""

import numpy as np
import pytest

import grid_oracle
from interestsim import recommend
from interestsim.corpus import Corpus
from interestsim.mlcore import fit_gbdt, fit_hybrid, fit_linear_cv
from interestsim.pairfeat import build_training_set
from interestsim.recommend import (
    DemographicSim,
    ExperimentConfig,
    FriendFilter,
    GlobalPopularity,
    OracleSim,
    PastLongTerm,
    PredictedSim,
    RandomK,
    _pair_scores,
    diversification,
    run_experiment,
)
from interestsim.synthgen import GenConfig, generate


@pytest.mark.parametrize("grid", [{"k_values": ()}, {"n_values": ()}])
def test_empty_k_or_n_grid_rejected(small_corpus, grid):
    c, _ = small_corpus
    cfg = ExperimentConfig(n_targets=5, n_candidates=20, **grid)
    with pytest.raises(ValueError, match="at least one value"):
        cfg.validate()
    with pytest.raises(ValueError, match="at least one value"):
        run_experiment(c, cfg, [DemographicSim()])


def test_demographic_scores_match_per_candidate_loop(small_corpus):
    c, _ = small_corpus
    ids = np.asarray(sorted(c.user_ids), dtype=np.int64)
    rng = np.random.default_rng(0)
    for target in rng.choice(ids, size=10, replace=False).tolist():
        candidates = ids[ids != target]
        ut = c.users[target]
        expected = np.zeros(len(candidates))
        for i, v in enumerate(candidates):
            uv = c.users[int(v)]
            expected[i] = (
                (ut.gender == uv.gender)
                + (ut.city == uv.city)
                + (1.0 - abs(ut.age - uv.age) / 30.0)
            )
        assert np.array_equal(_pair_scores(c, target, candidates, DemographicSim()), expected)


@pytest.fixture(scope="module")
def grid_case():
    """A corpus, all ten strategies (GBDT and hybrid similarity models) and
    a grid of more pairs than one block holds; the friends force-included
    make the candidate counts differ between targets."""
    c, _ = generate(GenConfig(seed=31, n_users=400, n_videos=200, n_tags=80, n_topics=8, inactive_fraction=0.0))
    gbdt = {"n_trees": 6, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 10}
    models = {
        kind: fit_gbdt(build_training_set(c, 600, kind, 1).to_design(), loss="squared", **gbdt)
        for kind in ("ptp", "vbp")
    }
    rtp = build_training_set(c, 600, "rtp", 2).to_design()
    models["rtp"] = fit_hybrid(rtp, fit_gbdt(rtp, loss="squared", **gbdt))
    strategies = [PredictedSim(kind, models[kind]) for kind in ("ptp", "rtp", "vbp")] + [
        OracleSim("ptp"),
        OracleSim("rtp"),
        DemographicSim(),
        FriendFilter(),
        PastLongTerm(),
        RandomK(),
        GlobalPopularity(),
    ]
    cfg = ExperimentConfig(n_targets=24, n_candidates=150, k_values=(4, 12), n_values=(5, 10, 30), seed=7)
    _, candidates = recommend.sample_experiment_users(c, cfg)
    sizes = {len(v) for v in candidates.values()}
    assert sum(len(v) for v in candidates.values()) > recommend._BLOCK_PAIRS and len(sizes) > 1
    return c, cfg, strategies, grid_oracle.run_experiment(c, cfg, strategies)


@pytest.mark.parametrize("block_pairs", [None, 1, 500])
def test_blocked_grid_matches_per_target_loop(grid_case, monkeypatch, block_pairs):
    c, cfg, strategies, expected = grid_case
    if block_pairs is not None:
        monkeypatch.setattr(recommend, "_BLOCK_PAIRS", block_pairs)
    rows = run_experiment(c, cfg, strategies)
    assert len(rows) == 10 * 2 * 3
    assert rows == expected


def test_predictions_do_not_depend_on_the_batch(grid_case):
    # the grid predicts in blocks of up to _BLOCK_PAIRS pairs, so its rows
    # hold only if a row's prediction has the same bits in any batch
    c, _, strategies, _ = grid_case
    design = build_training_set(c, 600, "rtp", 2).to_design()
    lasso, _ = fit_linear_cv(design, "identity", folds=3)
    X = design.X
    for model in (strategies[1].model, lasso):
        whole = model.predict(X)
        for size in (1, 7, 333):
            parts = np.concatenate([model.predict(X[i : i + size]) for i in range(0, len(X), size)])
            assert parts.tobytes() == whole.tobytes()


def test_single_target_grid_still_rejected(small_corpus):
    c, _ = small_corpus
    cfg = ExperimentConfig(n_targets=1, n_candidates=20, k_values=(3,), n_values=(5,))
    for run in (run_experiment, grid_oracle.run_experiment):
        with pytest.raises(ValueError, match="diversification needs at least two targets"):
            run(c, cfg, [DemographicSim()])


def test_diversification_matches_counter_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = int(rng.integers(2, 12))
        pool = int(rng.integers(1, 40))
        lists = [rng.choice(pool, size=int(rng.integers(0, pool + 1)), replace=False).tolist() for _ in range(t)]
        n = int(rng.integers(1, 50))
        assert diversification(lists, n) == grid_oracle.diversification(lists, n)
    bad = (([[1, 2]], 2, "at least two targets"), ([[1, 2], [3]], 0, "N must be"), ([[1, 2], [3, 3]], 2, "duplicates"))
    for lists, n, message in bad:
        for div in (diversification, grid_oracle.diversification):
            with pytest.raises(ValueError, match=message):
                div(lists, n)


def _sparse_corpus(friends: bool) -> Corpus:
    """40 users who each view one to three of 60 videos on day 0 and on two
    earlier days; friendships, if any, join only users 1-15."""
    rng = np.random.default_rng(5)
    videos = np.arange(100, 160)
    views = {
        (u, int(m), day)
        for u in range(1, 41)
        for day in (0, -1, -3)
        for m in rng.choice(videos, size=int(rng.integers(1, 4)), replace=False)
    }
    pairs = sorted((a, b) for a in range(1, 16) for b in range(a + 1, 16) if friends and rng.random() < 0.2)
    return Corpus(
        [(u, u % 2, 20 + u % 30, u % 4) for u in range(1, 41)],
        [(int(m), 1 + int(m) % 7) for m in videos],
        sorted(views),
        pairs,
        [],
        [(a, b, -2, 1 + i % 3) for i, (a, b) in enumerate(pairs)],
    )


SPARSE_STRATEGIES = [FriendFilter(), OracleSim("ptp"), PastLongTerm(), DemographicSim(), RandomK(), GlobalPopularity()]


def test_grid_of_short_and_empty_lists_matches_per_target_loop():
    """Neighbors who viewed fewer videos than max(N), an N beyond every
    list, and friendless targets whose friend lists are empty."""
    c = _sparse_corpus(friends=True)
    cfg = ExperimentConfig(n_targets=30, n_candidates=4, k_values=(1, 3), n_values=(1, 5, 500), seed=2)
    targets, _ = recommend.sample_experiment_users(c, cfg)
    assert any(not c.friends(t) for t in targets) and any(c.friends(t) for t in targets)
    assert max(len(recommend.recommend_topn(c, [u], 500)) for u in c.user_ids) < 5 < 60 < 500
    rows = run_experiment(c, cfg, SPARSE_STRATEGIES)
    assert len(rows) == len(SPARSE_STRATEGIES) * 2 * 3
    assert rows == grid_oracle.run_experiment(c, cfg, SPARSE_STRATEGIES)


def _value_error(run, *args) -> str:
    with pytest.raises(ValueError) as info:
        run(*args)
    return str(info.value)


@pytest.mark.parametrize(
    "strategy, friends, n_targets",
    [(s, True, 1) for s in SPARSE_STRATEGIES] + [(FriendFilter(), False, 10)],
    ids=lambda v: v.name() if hasattr(v, "name") else str(v),
)
def test_grid_rejects_what_the_per_target_loop_rejects(strategy, friends, n_targets):
    """One target, or no target with both a non-empty list and truth (every
    friend list empty without friendships), raises the same error."""
    c = _sparse_corpus(friends)
    cfg = ExperimentConfig(n_targets=n_targets, n_candidates=4, k_values=(2,), n_values=(3, 50), seed=4)
    message = _value_error(run_experiment, c, cfg, [strategy])
    assert message == _value_error(grid_oracle.run_experiment, c, cfg, [strategy])
    if n_targets > 1:
        assert message == "need at least one target with a non-empty list and truth"
