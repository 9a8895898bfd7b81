"""Experiment-grid validation and the demographic scores against a
per-candidate loop over the user records."""

import numpy as np
import pytest

from interestsim.recommend import (
    DemographicSim,
    ExperimentConfig,
    RecommenderContext,
    _pair_scores,
    run_experiment,
)


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
    ctx = RecommenderContext(c)
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
        assert np.array_equal(_pair_scores(c, target, candidates, DemographicSim(), ctx), expected)
