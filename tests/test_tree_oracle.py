"""Presorted growth, single-routing pruning CV, flat node arrays and the
joint router against the object-graph, per-node-sort reference in
``tree_oracle``: every tree, saved text, prediction, fold loss and chosen
alpha must be identical, not just close."""

import json

import numpy as np
import pytest

import tree_oracle as oracle
from interestsim.mlcore import (
    DesignMatrix,
    encode_leaves,
    fit_forest,
    fit_gbdt,
    fit_tree,
    model_from_dict,
    model_to_dict,
    prune_tree,
)
from interestsim.mlcore.linear import sigmoid
from interestsim.mlcore import gbdt as gbdt_module
from interestsim.mlcore import tree as tree_module
from interestsim.mlcore.tree import _Columns, _cv_losses, _grow_trees


def tree_dict(tree):
    return model_to_dict(tree)["tree"]


TASK = {"clf": "clf", "reg": "reg", "raw": "reg"}


def targets(rng, n, target):
    """0/1 labels (clf), normal targets rounded to 0.1 so that sums tie
    too (reg), or unrounded ones (raw), whose sums round differently in
    any order other than a node's own."""
    if target == "clf":
        return (rng.random(n) < 0.4).astype(float)
    y = rng.normal(size=n)
    return np.round(y, 1) if target == "reg" else y


def awkward_design(seed, n, target):
    """Tied values, a constant column, and a categorical column whose
    levels follow column 0, so most nodes miss some of them."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, 5))
    X[:, 0] = rng.integers(0, 6, size=n)  # six distinct values
    X[:, 1] = 3.0  # constant
    X[:, 2] = np.round(rng.random(n), 1)
    X[:, 3] = 10 * X[:, 0] + rng.integers(0, 3, size=n)  # categorical
    X[:, 4] = rng.integers(0, 2, size=n)  # categorical, two levels
    y = targets(rng, n, target)
    y[X[:, 0] >= 4] += 0.0 if target == "clf" else 1.0
    return DesignMatrix(X, y, (3, 4))


def assert_same_pruning(tree, ref_tree, data, folds):
    candidates, losses = _cv_losses(tree, data, folds)
    ref_pruned, ref_candidates, ref_losses = oracle.prune_tree(ref_tree, data, folds)
    assert candidates == ref_candidates
    assert np.array_equal(losses, ref_losses)
    pruned = prune_tree(tree, data, folds)
    assert pruned.pruning_alpha == ref_pruned.pruning_alpha
    assert tree_dict(pruned) == oracle.tree_to_dict(ref_pruned)


@pytest.mark.parametrize("target", ["clf", "reg", "raw"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ties_constant_column_and_missing_levels(target, seed):
    # at depth 8 with min_leaf 1 a depth holds nodes of very different sizes
    data, task = awkward_design(seed, 240, target), TASK[target]
    for max_depth, min_leaf in ((8, 1), (5, 7)):
        tree = fit_tree(data, max_depth, min_leaf, task)
        ref = oracle.fit_tree(data, max_depth, min_leaf, task)
        assert tree_dict(tree) == oracle.tree_to_dict(ref)
        assert_same_pruning(tree, ref, data, folds=5)


@pytest.mark.parametrize("target", ["clf", "reg", "raw"])
@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_min_leaf_at_and_past_half_the_rows(target, n):
    data, task = awkward_design(n, n, target), TASK[target]
    for min_leaf in (n // 2, n // 2 + 1, n):
        tree = fit_tree(data, 6, min_leaf, task)
        ref = oracle.fit_tree(data, 6, min_leaf, task)
        assert tree_dict(tree) == oracle.tree_to_dict(ref)
        if n >= 8:
            assert_same_pruning(tree, ref, data, folds=2)


@pytest.mark.parametrize("target", ["clf", "reg", "raw"])
@pytest.mark.parametrize("width", [1, 2, 5])
def test_bootstrap_with_feature_pool(target, width):
    # pools of 1 of 2 and 2 of 5 features, drawn depth by depth; a
    # one-feature design has no pool to draw
    full, task = awkward_design(3, 150, target), TASK[target]
    cols, pool = {1: ([0], 1), 2: ([0, 3], 1), 5: ([0, 1, 2, 3, 4], 2)}[width]
    categorical = tuple(i for i, j in enumerate(cols) if j in full.categorical)
    data = DesignMatrix(full.X[:, cols], full.y, categorical)
    forest = fit_forest(data, n_trees=4, max_depth=6, min_leaf=2, seed=9, task=task)
    ref = oracle.fit_forest_trees(data, 4, 6, 2, pool, True, 9, task)
    assert model_to_dict(forest)["trees"] == [oracle.tree_to_dict(t) for t in ref]


@pytest.mark.parametrize(
    "loss, target, depth",
    [("squared", "reg", 3), ("logistic", "clf", 3), ("squared", "raw", 5)],
    ids=["squared", "logistic", "squared-raw"],
)
def test_gbdt_stages_match_reference_trees(loss, target, depth):
    data = awkward_design(4, 200, target)
    model = fit_gbdt(data, n_trees=6, max_depth=depth, learning_rate=0.3, loss=loss, min_leaf=4)
    score = np.full(data.n_rows, model.base_score)
    for tree in model.trees:
        grad = data.y - (sigmoid(score) if loss == "logistic" else score)
        ref = oracle.fit_tree(DesignMatrix(data.X, grad, data.categorical), depth, 4, "reg")
        assert tree_dict(tree) == oracle.tree_to_dict(ref)
        score += model.learning_rate * ref.predict(data.X)


@pytest.mark.parametrize("pool", [None, 2])
@pytest.mark.parametrize("cap", [1 << 16, 100])
def test_trees_grown_together_equal_trees_grown_alone(monkeypatch, pool, cap):
    # samples of very different sizes share every depth's scans; a small cap
    # splits them into several batches
    data = awkward_design(9, 240, "raw")
    rng = np.random.default_rng(2)
    samples = [rng.integers(0, 240, size=size) for size in (240, 60, 9, 150)]
    cols = _Columns(data.X, data.categorical)

    def grow(group, seeds):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        return _grow_trees(cols, data.y, group, 7, 2, "reg", pool=pool, rngs=rngs)

    alone = [grow([sample], [seed])[0] for seed, sample in enumerate(samples)]
    monkeypatch.setattr(tree_module, "_BATCH_ROWS", cap)
    together = grow(samples, range(len(samples)))
    for sample, (tree, leaf), (ref, ref_leaf) in zip(samples, together, alone):
        assert text(model_to_dict(tree)) == text(model_to_dict(ref))
        assert np.array_equal(leaf, ref_leaf)
        # the leaf each entry lands in is the one routing its row reaches
        assert np.array_equal(tree.value[leaf], tree.predict(data.X[sample]))


def test_no_cut_anywhere_leaves_the_root_a_leaf():
    # constant columns offer no cut, numeric or categorical
    X = np.column_stack([np.full(30, 2.0), np.full(30, 7.0)])
    data = DesignMatrix(X, np.arange(30.0), (1,))
    tree = fit_tree(data, max_depth=4)
    assert tree.n_leaves == 1
    assert tree_dict(tree) == oracle.tree_to_dict(oracle.fit_tree(data, max_depth=4))


@pytest.mark.parametrize("cat", [0, 1])
def test_categorical_numeric_tie_goes_to_lower_index(cat):
    # one binary column twice, once as categorical: both give the same split and gain
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, size=60).astype(float)
    data = DesignMatrix(np.column_stack([x, x]), x + rng.normal(0, 0.1, size=60), (cat,))
    tree = fit_tree(data, max_depth=1)
    assert tree.feature[0] == 0
    assert tree_dict(tree) == oracle.tree_to_dict(oracle.fit_tree(data, max_depth=1))


def test_threshold_between_adjacent_doubles():
    # some midpoints of neighbouring doubles round up onto the right value,
    # and the threshold then falls back to the left one
    x = 1.0 + np.spacing(1.0) * np.repeat([0.0, 1.0, 2.0, 3.0], 10)
    data = DesignMatrix(x[:, None], np.repeat([0.0, 1.0, 0.0, 1.0], 10))
    tree = fit_tree(data, max_depth=3)
    assert tree_dict(tree) == oracle.tree_to_dict(oracle.fit_tree(data, max_depth=3))
    assert tree.n_leaves == 4


# -- flat arrays, saved text and the joint router ----------------------------


def text(d) -> str:
    """The saved form: a numpy scalar in place of an int or a float shows
    here (``np.int64(1) == 1``, but ``json.dumps`` rejects it)."""
    return json.dumps(d, sort_keys=True)


def with_unseen_levels(data):
    """The design's rows, then the same rows with every categorical value
    moved off the levels any fit saw."""
    X = data.X.copy()
    X[:, list(data.categorical)] += 0.5
    return np.vstack([data.X, X])


def oracle_gbdt_trees(data, model, max_depth, min_leaf):
    score = np.full(data.n_rows, model.base_score)
    trees = []
    for _ in model.trees:
        grad = data.y - (sigmoid(score) if model.loss == "logistic" else score)
        stage = DesignMatrix(data.X, grad, data.categorical)
        trees.append(oracle.fit_tree(stage, max_depth, min_leaf, "reg"))
        score += model.learning_rate * trees[-1].predict(data.X)
    return trees


@pytest.mark.parametrize("target", ["clf", "reg", "raw"])
def test_saved_text_and_routing_of_trees_and_pruned_trees(target):
    data, task = awkward_design(6, 240, target), TASK[target]
    X = with_unseen_levels(data)
    tree = fit_tree(data, 8, 2, task)
    ref = oracle.fit_tree(data, 8, 2, task)
    pruned = prune_tree(tree, data, 5)
    ref_pruned, _, _ = oracle.prune_tree(ref, data, 5)
    assert pruned.n_leaves < tree.n_leaves
    for t, r in ((tree, ref), (pruned, ref_pruned)):
        assert text(model_to_dict(t)["tree"]) == text(oracle.tree_to_dict(r))
        assert text(model_to_dict(model_from_dict(model_to_dict(t)))) == text(model_to_dict(t))
        assert np.array_equal(t.predict(X), r.predict(X))
        assert np.array_equal(t.apply(X), r.apply(X))


@pytest.mark.parametrize("target", ["clf", "reg", "raw"])
def test_saved_text_and_routing_of_forests(target):
    data, task = awkward_design(7, 200, target), TASK[target]
    X = with_unseen_levels(data)
    # more than 8 trees, so that a pairwise sum would round differently
    forest = fit_forest(data, n_trees=12, max_depth=6, min_leaf=2, seed=3, task=task)
    ref = oracle.fit_forest_trees(data, 12, 6, 2, 2, True, 3, task)  # round(sqrt(5)) features per node
    assert text(model_to_dict(forest)["trees"]) == text([oracle.tree_to_dict(t) for t in ref])
    total = np.zeros(len(X))
    for t in ref:
        total += t.predict(X)
    assert np.array_equal(forest.predict(X), total / len(ref))


@pytest.mark.parametrize(
    "loss, target, depth",
    [("squared", "reg", 3), ("logistic", "clf", 3), ("squared", "raw", 6)],
    ids=["squared", "logistic", "squared-raw"],
)
def test_saved_text_routing_and_leaf_encoding_of_gbdts(loss, target, depth):
    data = awkward_design(8, 200, target)
    X = with_unseen_levels(data)
    model = fit_gbdt(data, n_trees=12, max_depth=depth, learning_rate=0.3, loss=loss, min_leaf=4)
    ref = oracle_gbdt_trees(data, model, depth, 4)
    assert text(model_to_dict(model)["trees"]) == text([oracle.tree_to_dict(t) for t in ref])
    score = np.full(len(X), model.base_score)
    encoded = np.zeros((len(X), sum(t.n_leaves for t in ref)))
    offset = 0
    for t in ref:
        score += model.learning_rate * t.predict(X)
        encoded[np.arange(len(X)), offset + t.apply(X)] = 1.0
        offset += t.n_leaves
    assert np.array_equal(model.decision_function(X), score)
    assert np.array_equal(encode_leaves(model, X), encoded)


@pytest.mark.parametrize("attr", ["value", "leaf"])
def test_one_route_over_trees_of_every_depth_past_one_block(attr):
    # a root leaf, a stump and a deep pruned tree with categorical splits,
    # routed together: the root leaf is already where it ends, and the
    # stump's entries sit at their leaves while the deep tree's still move
    noisy = awkward_design(6, 240, "reg")
    # a step in column 2 and a level of categorical column 3 that pruning keeps
    y = np.round(2 * noisy.X[:, 2] + 2.0 * (noisy.X[:, 3] % 10 == 1) + 0.1 * noisy.y, 1)
    data = DesignMatrix(noisy.X, y, noisy.categorical)
    constant = DesignMatrix(data.X, np.full(data.n_rows, 0.5), data.categorical)
    X = with_unseen_levels(awkward_design(10, tree_module._BLOCK + 4, "reg"))[: 2 * tree_module._BLOCK + 7]
    pruned = prune_tree(fit_tree(data, 8, 2), data, 5)
    trees = [fit_tree(constant, 4), fit_tree(data, 1), pruned]
    ref_pruned, _, _ = oracle.prune_tree(oracle.fit_tree(data, 8, 2), data, 5)
    refs = [oracle.fit_tree(constant, 4), oracle.fit_tree(data, 1), ref_pruned]
    assert [t.n_leaves for t in trees] == [1, 2, ref_pruned.n_leaves]
    assert len(pruned.cat_node) > 0 and pruned.n_leaves > 8
    for t, r in zip(trees, refs):
        assert text(model_to_dict(t)["tree"]) == text(oracle.tree_to_dict(r))
    if attr == "value":
        expected = np.column_stack([r.predict(X) for r in refs])
    else:  # leaf numbers run on across the trees
        offsets = np.cumsum([0] + [r.n_leaves for r in refs])
        expected = np.column_stack([r.apply(X) + o for r, o in zip(refs, offsets)])
    routed = tree_module.route(trees, X, attr)
    assert routed.dtype == (np.float64 if attr == "value" else np.intp)
    assert np.array_equal(routed, expected)
    empty = tree_module.route([], X, attr)
    assert empty.shape == (len(X), 0)
    assert empty.dtype == routed.dtype


@pytest.mark.parametrize("loss, target", [("squared", "raw"), ("logistic", "clf")])
def test_grower_leaves_are_the_routed_leaves(loss, target):
    # fit_gbdt updates each stage's scores from the leaves the grower put
    # the rows in; routing X through the fitted trees gives the same loss
    data = awkward_design(11, 300, target)
    model = fit_gbdt(data, n_trees=10, max_depth=4, learning_rate=0.3, loss=loss, min_leaf=3)
    assert any(len(t.cat_node) for t in model.trees)
    assert model.train_losses[-1] == gbdt_module._mean_loss(data.y, model.decision_function(data.X), loss)
