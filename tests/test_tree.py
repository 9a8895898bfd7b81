import numpy as np
import pytest

from interestsim.mlcore import DesignMatrix, fit_tree, prune_tree
from interestsim.mlcore.tree import alpha_sequence, prune_at


def dm(X, y, categorical=()):
    return DesignMatrix(np.asarray(X, dtype=float), np.asarray(y, dtype=float), categorical)


def test_constant_targets_single_leaf():
    t = fit_tree(dm([[0], [1], [2]], [5, 5, 5]))
    assert t.feature[0] < 0
    assert t.value[0] == 5.0


def test_depth_zero_is_mean_and_majority():
    t = fit_tree(dm([[0], [1], [2], [3]], [0, 1, 1, 1]), max_depth=0, task="reg")
    assert t.feature[0] < 0 and t.value[0] == pytest.approx(0.75)
    t = fit_tree(dm([[0], [1], [2], [3]], [0, 1, 1, 1]), max_depth=0, task="clf")
    assert t.value[0] == pytest.approx(0.75)
    assert (float(t.value[0]) > 0.5) is True  # majority class


def test_xor_expressible_at_depth_two():
    X = [[0, 0], [0, 1], [1, 0], [1, 1]]
    y = [0, 1, 1, 0]
    t = fit_tree(dm(X, y), max_depth=2, task="clf")
    pred = t.predict(np.asarray(X, dtype=float))
    assert np.array_equal((pred > 0.5).astype(int), y)
    assert np.array_equal(pred, np.asarray(y, dtype=float))


def test_empty_data_rejected():
    with pytest.raises(ValueError):
        fit_tree(dm(np.empty((0, 2)), []))


def test_tie_break_prefers_lowest_feature_and_threshold():
    # identical columns: the split must use feature 0
    X = [[0, 0], [1, 1], [2, 2], [3, 3]]
    y = [0, 0, 1, 1]
    t = fit_tree(dm(X, y), max_depth=1)
    assert t.feature[0] == 0
    assert t.threshold[0] == pytest.approx(1.5)


def test_partition_property_random_data():
    rng = np.random.default_rng(0)
    X = rng.random((400, 5))
    X[:, 2] = rng.integers(0, 4, size=400)  # categorical column
    y = rng.random(400)
    t = fit_tree(dm(X, y, categorical=(2,)), max_depth=6, min_leaf=5)
    leaves = t.apply(X)
    assert leaves.min() >= 0 and leaves.max() < t.n_leaves
    # every row reaches exactly one leaf and the tree tiles the space
    counts = np.bincount(leaves, minlength=t.n_leaves)
    assert counts.sum() == 400
    assert np.all(counts > 0)


def test_categorical_split_uses_equality_sets():
    # mean target separates categories {0, 3} from {1, 2}
    X = [[0], [1], [2], [3]] * 10
    y = [1, 0, 0, 1] * 10
    t = fit_tree(dm(X, y, categorical=(0,)), max_depth=1, task="clf")
    assert 0 in t.cat_node
    left = set(t.cat_value[t.cat_node == 0])
    assert left in ({0.0, 3.0}, {1.0, 2.0})
    pred = t.predict(np.asarray(X, dtype=float))
    assert np.array_equal((pred > 0.5).astype(int), y)


def test_unseen_categorical_value_routes_right():
    X = [[0], [0], [1], [1]]
    y = [0, 0, 1, 1]
    t = fit_tree(dm(X, y, categorical=(0,)), max_depth=1)
    pred = t.predict(np.array([[7.0]]))
    assert pred[0] == t.value[t.right[0]]


def test_min_leaf_respected():
    rng = np.random.default_rng(1)
    X = rng.random((100, 3))
    y = rng.random(100)
    t = fit_tree(dm(X, y), max_depth=8, min_leaf=10)

    def check(i):
        assert t.n[i] >= 10
        if t.feature[i] >= 0:
            check(t.left[i])
            check(t.right[i])

    check(0)


def test_determinism():
    rng = np.random.default_rng(2)
    X = rng.random((200, 4))
    y = rng.random(200)
    from interestsim.mlcore import model_to_dict

    t1 = fit_tree(dm(X, y), max_depth=6)
    t2 = fit_tree(dm(X, y), max_depth=6)
    assert model_to_dict(t1) == model_to_dict(t2)


# -- pruning ---------------------------------------------------------------


def _is_subtree(pruned, full, i: int = 0, j: int = 0) -> bool:
    if pruned.feature[i] < 0:
        return True
    if full.feature[j] < 0:
        return False
    same = (
        pruned.feature[i] == full.feature[j]
        and np.array_equal(pruned.threshold[i], full.threshold[j], equal_nan=True)
        and np.array_equal(pruned.cat_value[pruned.cat_node == i], full.cat_value[full.cat_node == j])
    )
    return (
        same
        and _is_subtree(pruned, full, pruned.left[i], full.left[j])
        and _is_subtree(pruned, full, pruned.right[i], full.right[j])
    )


def test_prune_single_leaf_unchanged():
    t = fit_tree(dm([[0], [1]], [1, 1]))
    pruned = prune_tree(t, dm([[0], [1]], [1, 1]), folds=2)
    assert pruned.feature[0] < 0


def test_prune_requires_two_folds():
    t = fit_tree(dm([[0], [1]], [0, 1]))
    with pytest.raises(ValueError):
        prune_tree(t, dm([[0], [1]], [0, 1]), folds=1)


def test_prune_result_is_subtree_and_keeps_signal():
    rng = np.random.default_rng(3)
    X = rng.random((300, 3))
    y = (X[:, 0] > 0.5).astype(float)
    data = dm(X, y)
    full = fit_tree(data, max_depth=8, min_leaf=5, task="clf")
    pruned = prune_tree(full, data, folds=5)
    assert _is_subtree(pruned, full)
    # the separating split survives pruning
    pred = pruned.predict(X)
    assert np.mean((pred > 0.5) == (y > 0.5)) == 1.0


def test_pure_noise_prunes_to_root_most_seeds():
    # deterministic Monte Carlo: 20 seeded label shuffles, >= 90% collapse
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.random((240, 4))
        y = rng.permutation(np.repeat([0.0, 1.0], 120))
        data = dm(X, y)
        full = fit_tree(data, max_depth=6, min_leaf=5, task="clf")
        pruned = prune_tree(full, data, folds=5)
        hits += pruned.feature[0] < 0
    assert hits >= 18


def test_alpha_sequence_monotone():
    rng = np.random.default_rng(4)
    X = rng.random((200, 3))
    y = rng.random(200)
    t = fit_tree(dm(X, y), max_depth=6, min_leaf=5)
    alphas = alpha_sequence(t)
    assert alphas[0] == 0.0
    assert all(a <= b for a, b in zip(alphas, alphas[1:]))
    # pruning at the last alpha collapses to the root
    assert prune_at(t, alphas[-1]).feature[0] < 0


# -- saved form ------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value, error",
    [("leaf_index", (1, 0), "leaf_index"), ("feature", 1, "feature"), ("feature", -1, "feature")],
)
def test_loader_rejects_inconsistent_nodes(field, value, error):
    from interestsim.mlcore import model_from_dict, model_to_dict

    t = fit_tree(dm([[0], [1], [2], [3]], [0, 0, 1, 1]), max_depth=1)
    d = model_to_dict(t)
    assert model_to_dict(model_from_dict(d)) == d
    root = d["tree"]["root"]
    if field == "leaf_index":  # leaves numbered out of pre-order
        root["left"]["leaf_index"], root["right"]["leaf_index"] = value
    else:  # a split on a column the model does not have
        root["feature"] = value
    with pytest.raises(ValueError, match=error):
        model_from_dict(d)
