import numpy as np
import pytest

from interestsim.mlcore import (
    DesignMatrix,
    encode_leaves,
    fit_forest,
    fit_gbdt,
    fit_tree,
    model_to_dict,
)
from interestsim.mlcore import forest as forest_module
from interestsim.mlcore.gbdt import GbdtModel
from interestsim.mlcore.tree import Tree


def dm(X, y, categorical=()):
    return DesignMatrix(np.asarray(X, dtype=float), np.asarray(y, dtype=float), categorical)


def regression_data(seed, n=300, p=5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, p))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    return X, y


# -- GBDT ------------------------------------------------------------------


def test_zero_learning_rate_predicts_base():
    X, y = regression_data(0)
    model = fit_gbdt(dm(X, y), n_trees=5, learning_rate=0.0)
    assert np.all(model.predict(X) == y.mean())


def test_training_loss_non_increasing_both_losses():
    X, y = regression_data(1)
    model = fit_gbdt(dm(X, y), n_trees=25, learning_rate=0.1)
    losses = np.asarray(model.train_losses)
    assert np.all(losses[1:] <= losses[:-1] + 1e-9)
    yb = (y > np.median(y)).astype(float)
    model = fit_gbdt(dm(X, yb), n_trees=25, learning_rate=0.1, loss="logistic")
    losses = np.asarray(model.train_losses)
    assert np.all(losses[1:] <= losses[:-1] + 1e-9)


def test_single_deep_tree_shrinks_residuals_by_one_minus_eta():
    # depth large enough to isolate every row: residuals scale by (1 - eta)
    rng = np.random.default_rng(2)
    X = np.arange(8, dtype=float)[:, None]
    y = rng.normal(size=8)
    eta = 0.3
    model = fit_gbdt(dm(X, y), n_trees=1, max_depth=4, learning_rate=eta, min_leaf=1)
    residuals = y - model.predict(X)
    expected = (y - y.mean()) * (1 - eta)
    assert np.max(np.abs(residuals - expected)) < 1e-12


def test_logistic_gbdt_outputs_probabilities():
    X, y = regression_data(3)
    yb = (y > np.median(y)).astype(float)
    model = fit_gbdt(dm(X, yb), n_trees=15, loss="logistic")
    p = model.predict(X)
    assert np.all((p > 0) & (p < 1))
    assert np.mean((p > 0.5) == yb) > 0.8


def _manual_tree(leaf_values, feature=0, thresholds=None):
    """Chain of splits producing len(leaf_values) leaves."""
    n = len(leaf_values)
    thresholds = thresholds or [float(i) + 0.5 for i in range(n - 1)]
    rows = []  # pre-order: split i at node 2i, its left leaf at 2i + 1
    for i in range(n - 1):
        rows.append((feature, thresholds[i], 2 * i + 1, 2 * i + 2, 0.0, n - i))
        rows.append((-1, np.nan, -1, -1, leaf_values[i], 1))
    rows.append((-1, np.nan, -1, -1, leaf_values[-1], 1))
    features, thr, left, right, value, count = (np.array(c) for c in zip(*rows))
    return Tree(
        features, thr, left, right, value, count, np.zeros(len(rows)),
        np.empty(0, dtype=np.intp), np.empty(0), "reg", n - 1, 1, 1,
    )


def test_encode_leaves_matches_worked_example():
    # two sub-trees with 3 and 2 leaves; a row landing in leaf 2 of the
    # first and leaf 1 of the second encodes as [0,1,0,1,0]
    t1 = _manual_tree([10.0, 20.0, 30.0])  # leaves at x<=0.5, x<=1.5, else
    t2 = _manual_tree([1.0, 2.0])
    model = GbdtModel([t1, t2], 0.1, 0.0, "squared", 1)
    row = np.array([[1.0]])  # second leaf of t1 (0.5 < 1 <= 1.5), first of t2? 1 > 0.5 -> second
    enc = encode_leaves(model, row)
    assert enc.shape == (1, 5)
    t2_alt = _manual_tree([1.0, 2.0], thresholds=[5.0])  # x <= 5 goes to leaf 1
    model = GbdtModel([t1, t2_alt], 0.1, 0.0, "squared", 1)
    enc = encode_leaves(model, row)
    assert enc.tolist() == [[0.0, 1.0, 0.0, 1.0, 0.0]]


def test_encoding_one_hot_per_tree_and_stable():
    X, y = regression_data(4)
    model = fit_gbdt(dm(X, y), n_trees=8, max_depth=3)
    enc = encode_leaves(model, X)
    assert enc.shape == (len(X), model.encoded_width)
    # exactly one active leaf per tree per row
    offset = 0
    for n_leaves in model.leaf_counts:
        block = enc[:, offset : offset + n_leaves]
        assert np.all(block.sum(axis=1) == 1.0)
        offset += n_leaves
    assert np.array_equal(enc[:1], encode_leaves(model, X[:1]))


def test_gbdt_invalid_params():
    X, y = regression_data(5)
    with pytest.raises(ValueError):
        fit_gbdt(dm(X, y), loss="absolute")
    with pytest.raises(ValueError):
        fit_gbdt(dm(X, y), learning_rate=-0.1)
    with pytest.raises(ValueError):
        fit_gbdt(dm(X, y), loss="logistic")  # targets not binary


# -- random forest -----------------------------------------------------------


def test_degenerate_forest_equals_single_tree():
    # one feature leaves no pool to draw, so the one tree presorts its
    # bootstrap sample: fit_tree on the rows the tree's stream draws
    X, y = regression_data(6)
    X = X[:, :1]
    data = dm(X, y)
    forest = fit_forest(data, n_trees=1, max_depth=5, min_leaf=4, seed=3)
    [child] = np.random.SeedSequence(3).spawn(1)
    rows = np.random.default_rng(child).integers(0, len(y), size=len(y))
    tree = fit_tree(data.take(rows), max_depth=5, min_leaf=4)
    assert model_to_dict(forest)["trees"][0]["root"] == model_to_dict(tree)["tree"]["root"]
    assert np.array_equal(forest.predict(X), tree.predict(X))


def test_forest_fixed_seed_identical():
    X, y = regression_data(7)
    data = dm(X, y)
    f1 = fit_forest(data, n_trees=6, seed=11)
    f2 = fit_forest(data, n_trees=6, seed=11)
    assert model_to_dict(f1) == model_to_dict(f2)
    f3 = fit_forest(data, n_trees=6, seed=12)
    assert model_to_dict(f1) != model_to_dict(f3)


def test_forest_prediction_is_tree_mean():
    X, y = regression_data(8)
    forest = fit_forest(dm(X, y), n_trees=5, seed=0)
    manual = np.mean([t.predict(X) for t in forest.trees], axis=0)
    assert np.allclose(forest.predict(X), manual)


def test_forest_requires_trees():
    X, y = regression_data(9)
    with pytest.raises(ValueError):
        fit_forest(dm(X, y), n_trees=0)


def test_forest_classification_probabilities():
    X, y = regression_data(10)
    yb = (y > np.median(y)).astype(float)
    forest = fit_forest(dm(X, yb), n_trees=10, task="clf", seed=1)
    p = forest.predict(X)
    assert np.all((p >= 0) & (p <= 1))
    assert np.mean((p > 0.5) == yb) > 0.85


def test_prediction_row_order_equivariance():
    X, y = regression_data(11)
    model = fit_gbdt(dm(X, y), n_trees=5)
    perm = np.random.default_rng(0).permutation(len(X))
    assert np.array_equal(model.predict(X)[perm], model.predict(X[perm]))


def test_forest_validates_task_and_min_leaf(monkeypatch):
    def no_work(*args):
        raise AssertionError("reached the forest's column coding")

    monkeypatch.setattr(forest_module, "_Columns", no_work)
    X, y = regression_data(12)
    with pytest.raises(ValueError, match="task"):
        fit_forest(dm(X, y), n_trees=2, task="classification")
    with pytest.raises(ValueError, match="min_leaf"):
        fit_forest(dm(X, y), n_trees=2, min_leaf=0)


# -- routing edge cases --------------------------------------------------------


def test_gbdt_without_trees_predicts_base_score():
    X, y = regression_data(13)
    model = fit_gbdt(dm(X, y), n_trees=0)
    assert np.all(model.predict(X) == y.mean())
    assert encode_leaves(model, X).shape == (len(X), 0)


def test_unseen_categorical_value_goes_right_in_every_tree():
    # one categorical column, so every split is a left set; a value no fit
    # saw ends in each tree's last leaf in pre-order, the rightmost one
    rng = np.random.default_rng(14)
    x = rng.integers(0, 6, size=300).astype(float)
    y = x % 3 + 0.1 * rng.normal(size=300)
    data = dm(x[:, None], y, categorical=(0,))
    unseen = np.array([[2.5], [-1.0], [99.0]])
    forest = fit_forest(data, n_trees=4, max_depth=4, min_leaf=5, seed=2)
    gbdt = fit_gbdt(data, n_trees=4, max_depth=3, min_leaf=5)
    for model in (forest, gbdt):
        assert all(t.n_leaves > 1 for t in model.trees)
        for tree in model.trees:
            assert np.all(tree.apply(unseen) == tree.n_leaves - 1)
    last = np.cumsum(gbdt.leaf_counts) - 1
    for row in encode_leaves(gbdt, unseen):
        assert np.array_equal(np.flatnonzero(row), last)
    rightmost = np.mean([t.value[t.feature < 0][-1] for t in forest.trees])
    assert np.allclose(forest.predict(unseen), rightmost)
