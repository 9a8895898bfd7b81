"""The experiment grid featurizes each block of (target, candidate) pairs
once for every scoring strategy: the kind-free columns once, each
predicted kind's interest columns once, and ``past`` reads predicted-vbp's
``past_sim_month``.  Each strategy's rows must not depend on which other
strategies share its blocks."""

import numpy as np
import pytest

import grid_oracle
from interestsim import recommend
from interestsim.mlcore import fit_gbdt
from interestsim.pairfeat import (
    FEATURE_CATEGORIES,
    PAST_WINDOW,
    PairFeaturizer,
    build_training_set,
)
from interestsim.profiling import KINDS, ProfileIndex
from interestsim.recommend import (
    DemographicSim,
    ExperimentConfig,
    FriendFilter,
    GlobalPopularity,
    OracleSim,
    PastLongTerm,
    PredictedSim,
    RandomK,
    run_experiment,
)
from interestsim.synthgen import GenConfig, generate


@pytest.fixture(scope="module")
def case():
    """A corpus, all ten strategies with GBDT similarity models, a grid of
    two blocks at the default block size, its rows and the per-target
    loop's rows."""
    c, _ = generate(GenConfig(seed=31, n_users=400, n_videos=200, n_tags=80, n_topics=8, inactive_fraction=0.0))
    gbdt = {"n_trees": 6, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 10}
    strategies = [
        PredictedSim(kind, fit_gbdt(build_training_set(c, 600, kind, 1).to_design(), loss="squared", **gbdt))
        for kind in KINDS
    ] + [OracleSim("ptp"), OracleSim("rtp"), DemographicSim(), FriendFilter(), PastLongTerm(), RandomK(),
         GlobalPopularity()]
    cfg = ExperimentConfig(n_targets=24, n_candidates=150, k_values=(4, 12), n_values=(5, 10, 30), seed=7)
    return c, cfg, strategies, run_experiment(c, cfg, strategies), grid_oracle.run_experiment(c, cfg, strategies)


def _pairs(c, cfg):
    """The grid's targets, candidates and blocks, and all its pairs."""
    targets, candidates = recommend.sample_experiment_users(c, cfg)
    blocks = list(recommend._target_blocks(targets, candidates))
    pair_targets = np.repeat(np.asarray(targets, dtype=np.int64), [len(candidates[t]) for t in targets])
    return blocks, pair_targets, np.concatenate([candidates[t] for t in targets])


def _counted(monkeypatch, cls, name, calls):
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append((getattr(self, "kind", None), len(args[0])))
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("block_pairs", [None, 500])
def test_each_block_is_featurized_once_for_every_strategy(case, monkeypatch, block_pairs):
    c, cfg, strategies, full, _ = case
    if block_pairs is not None:
        monkeypatch.setattr(recommend, "_BLOCK_PAIRS", block_pairs)
    blocks, pair_targets, _ = _pairs(c, cfg)
    assert len(blocks) >= 2
    calls = {name: [] for name in ("common_groups", "past_similarity", "helper_individuality")}
    for name, seen in calls.items():
        _counted(monkeypatch, PairFeaturizer, name, seen)
    similarity = []
    _counted(monkeypatch, ProfileIndex, "similarity_pairs", similarity)
    assert run_experiment(c, cfg, strategies) == full
    # the kind-free columns once per block (the strategy-outer grid made
    # three calls per block), each kind's interest columns once per block
    assert len(calls["common_groups"]) == len(blocks)
    assert sum(n for _, n in calls["common_groups"]) == len(pair_targets)
    for name in ("past_similarity", "helper_individuality"):
        assert sorted(kind for kind, _ in calls[name]) == sorted(KINDS * len(blocks))
    # only the oracles compute similarities; past reads predicted-vbp's column
    assert sorted(kind for kind, _ in similarity) == sorted(("ptp", "rtp") * len(blocks))


SCORING = ("predicted-ptp", "predicted-rtp", "predicted-vbp", "oracle-ptp", "oracle-rtp", "demo", "past")


@pytest.mark.parametrize(
    "names",
    [(name,) for name in SCORING] + [("past", "predicted-vbp"), ("predicted-vbp", "past"), ("past", "predicted-rtp")],
    ids="+".join,
)
def test_strategies_do_not_depend_on_each_other(case, names):
    """Each scoring strategy alone, and ``past`` with and without
    predicted-vbp, gives its rows of the ten-strategy grid and of the
    per-target loop."""
    c, cfg, strategies, full, oracle = case
    by_name = {s.name(): s for s in strategies}
    rows = run_experiment(c, cfg, [by_name[name] for name in names])
    assert [r["strategy"] for r in rows] == [name for name in names for _ in range(len(cfg.k_values) * len(cfg.n_values))]
    for name in names:
        mine = [r for r in rows if r["strategy"] == name]
        assert mine == [r for r in full if r["strategy"] == name]
        assert mine == [r for r in oracle if r["strategy"] == name]


def test_past_reads_the_same_bits_as_the_vbp_past_sim_month(case):
    """``past`` reuses predicted-vbp's ``past_sim_month``: both are the
    row products of the past-month vbp index's normalized rows."""
    c, cfg, strategies, _, _ = case
    _, pair_targets, pair_candidates = _pairs(c, cfg)
    direct = c.profile_index(PAST_WINDOW, "vbp").similarity_pairs(pair_targets, pair_candidates)
    assert np.count_nonzero(direct) > 0
    column = PairFeaturizer(c, "vbp").extract_batch(pair_targets, pair_candidates)["past_sim_month"]
    assert column.tobytes() == direct.tobytes()
    predicted_vbp = next(s for s in strategies if s.name() == "predicted-vbp")
    for order in ([PastLongTerm(), predicted_vbp], [PastLongTerm()]):
        past = recommend._block_scores(c, pair_targets, pair_candidates, order)[0]
        assert past.tobytes() == direct.tobytes()


def test_extract_batch_is_the_kind_free_columns_and_the_kinds_interest_columns(case):
    c, cfg, _, _, _ = case
    _, pair_targets, pair_candidates = _pairs(c, cfg)
    rt, rh = c.rows_for(pair_targets), c.rows_for(pair_candidates)
    batches = {kind: PairFeaturizer(c, kind).extract_batch(pair_targets, pair_candidates) for kind in KINDS}
    for kind, batch in batches.items():
        interest = PairFeaturizer(c, kind).interest_columns(rt, rh)
        assert list(interest) == list(FEATURE_CATEGORIES["interest"])
        for name, values in interest.items():
            assert batch[name].tobytes() == values.tobytes()
        for name in (*FEATURE_CATEGORIES["demographic"], *FEATURE_CATEGORIES["social"]):
            assert batch[name].tobytes() == batches["ptp"][name].tobytes()
    assert not np.array_equal(batches["ptp"]["past_sim_month"], batches["vbp"]["past_sim_month"])
