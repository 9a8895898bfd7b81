"""Experiment-grid validation, the demographic scores against a
per-candidate loop over the user records, and the blocked grid against the
per-(strategy, K, target) loop it replaced."""

import numpy as np
import pytest

import grid_oracle
from interestsim import evalkit, recommend
from interestsim.mlcore import HybridModel
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
        kind: evalkit.fit_model("gbdt", build_training_set(c, 600, kind, 1).to_design(), "reg", params=gbdt)
        for kind in ("ptp", "vbp")
    }
    models["rtp"] = evalkit.fit_model(
        "hybrid",
        build_training_set(c, 600, "rtp", 2).to_design(),
        "reg",
        folds=3,
        params={"gbdt_params": gbdt, "l1_grid": [1e-3]},
    )
    assert isinstance(models["rtp"], HybridModel)
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
