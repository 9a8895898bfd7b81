import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import interestsim
from interestsim.mlcore import (
    ConvergenceError,
    DesignMatrix,
    encode_leaves,
    fit_forest,
    fit_gbdt,
    fit_hybrid,
    fit_linear,
    fit_linear_cv,
    fit_tree,
    model_from_dict,
    model_to_dict,
    predict,
    prune_tree,
    sigmoid,
)
from interestsim import _util
from interestsim.cli import write_json
from interestsim.mlcore import hybrid as hybrid_module, linear
from interestsim.mlcore.hybrid import _distinct_leaf_columns

import path_oracle

DATA = Path(__file__).parent / "data"


def save_model(model, path):
    """A model file without the ``train_meta`` the command line adds."""
    write_json(path, model_to_dict(model), indent=None)


def load_model(path):
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def dm(X, y, categorical=()):
    return DesignMatrix(np.asarray(X, dtype=float), np.asarray(y, dtype=float), categorical)


def nonlinear_data(seed, n=400):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    signal = np.sin(4 * X[:, 0]) + (X[:, 1] > 0.5) * X[:, 2] + 0.5 * X[:, 3]
    y = signal + 0.1 * rng.normal(size=n)
    return X, y


def test_zero_tree_encoder_reduces_to_linear():
    X, y = nonlinear_data(0)
    data = dm(X, y)
    hybrid = fit_hybrid(data, fit_gbdt(data, loss="squared", n_trees=0), folds=3)
    plain, cv_table = fit_linear_cv(data, "identity", folds=3, seed=0)
    assert hybrid.cv_table == cv_table
    assert hybrid.linear.l1_lambda == plain.l1_lambda
    assert np.allclose(hybrid.linear.weights, plain.weights)
    assert hybrid.linear.intercept == pytest.approx(plain.intercept)
    assert np.allclose(hybrid.predict(X), plain.predict(X))


def test_single_lambda_grid_is_selected():
    # a constant target grows one-leaf trees and has lambda_max 0, so the
    # default grid is [0.0]
    X, _ = nonlinear_data(1)
    data = dm(X, np.full(len(X), 0.7))
    hybrid = fit_hybrid(data, fit_gbdt(data, loss="squared", n_trees=5), folds=3)
    assert hybrid.linear.l1_lambda == 0.0
    assert list(hybrid.cv_table) == [0.0]


def test_coefficient_count_is_leaves_plus_originals():
    X, y = nonlinear_data(2)
    data = dm(X, y)
    hybrid = fit_hybrid(data, fit_gbdt(data, loss="squared", n_trees=8), folds=3)
    total_leaves = sum(t.n_leaves for t in hybrid.encoder.trees)
    assert 0 < len(hybrid.kept) <= total_leaves
    assert len(hybrid.linear.weights) == len(hybrid.kept) + X.shape[1]


def test_hybrid_classification_beats_plain_linear_on_nonlinear_signal():
    X, y = nonlinear_data(3, n=600)
    yb = (y > np.median(y)).astype(float)
    data = dm(X, yb)
    hybrid = fit_hybrid(data, fit_gbdt(data, loss="logistic", n_trees=20), folds=4)
    linear = fit_linear(data, "logistic", l1_lambda=0.0)
    from interestsim.evalkit import auc

    labels = yb.astype(bool)
    assert auc(hybrid.predict(X), labels) >= auc(linear.predict(X), labels)


def test_hybrid_predict_width_checked():
    X, y = nonlinear_data(4)
    data = dm(X, y)
    hybrid = fit_hybrid(data, fit_gbdt(data, loss="squared", n_trees=3), folds=3)
    with pytest.raises(ValueError):
        hybrid.predict(X[:, :3])


def test_hybrid_keeps_its_encoder_and_checks_its_width(monkeypatch):
    X, y = nonlinear_data(4)
    data = dm(X, y)
    enc = fit_gbdt(data, loss="squared", n_trees=3)
    assert fit_hybrid(data, enc, folds=3).encoder is enc

    def no_linear_fit(*args, **kwargs):
        raise AssertionError("a linear fit ran")

    monkeypatch.setattr(hybrid_module, "fit_linear_cv", no_linear_fit)
    with pytest.raises(ValueError, match="expected 6 feature columns"):
        fit_hybrid(dm(X[:, :5], y), enc, folds=3)
    with pytest.raises(ValueError, match="expected 5 feature columns"):
        fit_hybrid(data, fit_gbdt(dm(X[:, :5], y), loss="squared", n_trees=3), folds=3)


def test_predict_dispatch_and_errors():
    X, y = nonlinear_data(5)
    data = dm(X, y)
    models = [
        fit_tree(data, max_depth=4),
        fit_forest(data, n_trees=3, seed=0),
        fit_gbdt(data, n_trees=3),
        fit_linear(data, "identity", l1_lambda=0.05),
        fit_hybrid(data, fit_gbdt(data, loss="squared", n_trees=2), folds=3),
    ]
    for m in models:
        out = predict(m, X)
        assert out.shape == (len(X),)
    with pytest.raises(TypeError):
        predict(object(), X)


def test_constant_model_constant_vector():
    X, y = nonlinear_data(6)
    model = fit_tree(dm(X, np.full(len(y), 2.5)), max_depth=4)
    assert np.all(predict(model, X) == 2.5)


@pytest.mark.parametrize("builder", ["tree", "pruned", "forest", "gbdt", "linear", "hybrid"])
def test_serialization_roundtrip(tmp_path, builder):
    X, y = nonlinear_data(7)
    data = dm(X, y, categorical=(5,))
    if builder == "tree":
        model = fit_tree(data, max_depth=5, min_leaf=4)
    elif builder == "pruned":
        model = prune_tree(fit_tree(data, max_depth=6, min_leaf=4), data, folds=3)
    elif builder == "forest":
        model = fit_forest(data, n_trees=4, seed=3)
    elif builder == "gbdt":
        model = fit_gbdt(data, n_trees=4)
    elif builder == "linear":
        model = fit_linear(data, "identity", l1_lambda=0.01)
    else:
        model = fit_hybrid(data, fit_gbdt(data, loss="squared", n_trees=3), folds=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(predict(model, X), predict(back, X))
    # byte-stable serialization
    path2 = tmp_path / "model2.json"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_convergence_state_survives_serialization(tmp_path):
    X, y = nonlinear_data(8)
    with pytest.raises(ConvergenceError) as exc:
        fit_linear(dm(X, y), "identity", l1_lambda=0.0, max_iter=1)
    model = exc.value.model
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.converged is False
    assert back.n_sweeps == model.n_sweeps == 1


@pytest.mark.parametrize("builder", ["linear", "hybrid"])
def test_certificate_survives_serialization_and_format_2_still_loads(tmp_path, builder):
    X, y = nonlinear_data(9)
    data = dm(X, (y > np.median(y)).astype(float))
    if builder == "linear":
        model = fit_linear(data, "logistic", l1_lambda=0.01)
        fitted = model
    else:
        model = fit_hybrid(data, fit_gbdt(data, loss="logistic", n_trees=3), folds=3)
        fitted = model.linear
    assert fitted.converged and 0.0 < fitted.certificate <= 0.005
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 4
    back = load_model(path)
    assert (back if builder == "linear" else back.linear).certificate == fitted.certificate
    if builder == "hybrid":  # a format-2 or format-3 hybrid is the fixture's (see below)
        return
    # a format-2 linear model is a format-4 one without the certificate
    payload["format_version"] = 2
    del payload["linear"]["certificate"]
    path.write_text(json.dumps(payload))
    old = load_model(path)
    assert old.certificate is None
    assert (old.converged, old.n_sweeps) == (fitted.converged, fitted.n_sweeps)
    assert np.array_equal(predict(old, X), predict(model, X))


@pytest.mark.parametrize("version", [3, 2])
def test_format_3_hybrid_loads_with_every_leaf_column_kept(tmp_path, version):
    # a format-3 hybrid, with its predictions on its training rows, both
    # written by the format-3 code: its lasso reads every leaf column, with
    # weight 0 on the repeats, and still predicts every bit; a format-2 file
    # is the same without the certificate
    payload = json.loads((DATA / "hybrid-format3.json").read_text())
    rows = json.loads((DATA / "hybrid-format3-rows.json").read_text())
    X = np.array([[float.fromhex(v) for v in row] for row in rows["X"]])
    expected = np.array([float.fromhex(v) for v in rows["predictions"]])
    if version == 2:
        payload["format_version"] = 2
        del payload["linear"]["certificate"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    model = load_model(path)
    assert np.array_equal(model.kept, np.arange(model.encoder.encoded_width))
    assert model.linear.certificate == (None if version == 2 else payload["linear"]["certificate"])
    assert np.array_equal(predict(model, X), expected)
    # saved again, it is a format-4 file that predicts the same
    save_model(model, path)
    assert json.loads(path.read_text())["format_version"] == 4
    assert np.array_equal(predict(load_model(path), X), expected)


@pytest.mark.parametrize("kept", [[3, 1], [-1, 2], [0, 21]])
def test_kept_leaf_columns_are_checked_on_load(tmp_path, kept):
    payload = json.loads((DATA / "hybrid-format3.json").read_text())
    payload["format_version"] = 4
    payload["kept"] = kept
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="kept leaf columns"):
        load_model(path)


@pytest.mark.parametrize("task", ["clf", "reg"])
def test_stored_hybrid_certificate_is_that_of_its_lasso(tmp_path, task):
    X, y = nonlinear_data(9)
    if task == "clf":
        y = (y > np.median(y)).astype(float)
    data = dm(X, y)
    encoder = fit_gbdt(data, loss="logistic" if task == "clf" else "squared", n_trees=12, max_depth=3)
    path = tmp_path / "model.json"
    save_model(fit_hybrid(data, encoder, folds=3), path)
    back = load_model(path)
    model = back.linear
    leaves = encode_leaves(back.encoder, X)
    assert len(back.kept) < leaves.shape[1]
    # S / S(0, 0) at the model's lambda, on the design it reads,
    # standardized as the fit saw it
    design = dm(np.hstack([leaves[:, back.kept], X]), y)
    Z = np.asfortranarray(linear._standardize(design)[3])
    with _util._one_blas_thread():
        z = Z @ model.weights + model.intercept
        p = sigmoid(z) if task == "clf" else z
        g = Z.T @ (p - y) / len(y)
    s = linear._subgradient_norm(g, float(np.mean(p - y)), model.weights, model.l1_lambda)
    s0 = path_oracle.cold_start_subgradient(design, model.l1_lambda, model.link)
    assert s / s0 == pytest.approx(model.certificate, rel=1e-9)


def test_unsupported_version_rejected(tmp_path):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "model_type": "tree"}))
    with pytest.raises(ValueError):
        load_model(path)


_THREAD_FIT = """
import json
import numpy as np
from interestsim.mlcore import DesignMatrix, fit_gbdt, fit_hybrid, fit_linear_cv

def fields(m, table=None):
    return {"weights": m.weights.tobytes().hex(), "intercept": float(m.intercept).hex(), "n_sweeps": m.n_sweeps,
            "converged": m.converged, "certificate": float(m.certificate).hex(),
            "table": [[float(k).hex(), float(v).hex()] for k, v in (table or {}).items()]}

rng = np.random.default_rng(10)
X = rng.random((1500, 6))
signal = np.sin(4 * X[:, 0]) + (X[:, 1] > 0.5) * X[:, 2] + 0.5 * X[:, 3]
y = (signal + 0.3 * rng.normal(size=1500) > np.median(signal)).astype(float)
data = DesignMatrix(X, y, ())
fits = [fields(fit_hybrid(data, fit_gbdt(data, loss="logistic", n_trees=12), folds=2).linear)]
X = rng.normal(size=(2500, 200))
signal = X[:, :20] @ rng.normal(size=20)
for link, y in (("identity", signal + rng.normal(size=2500)),
                ("logistic", (signal + rng.normal(size=2500) > 0).astype(float))):
    fits.append(fields(*fit_linear_cv(DesignMatrix(X, y, ()), link, folds=2)))
print(json.dumps(fits))
"""


def test_hybrid_fit_identical_across_blas_thread_counts():
    # A hybrid on a design of at most 1500 x 102, and a 2500 x 200 design
    # (500,000 entries) under both links: OpenBLAS 0.3.31 (Haswell kernels)
    # rounds products of this size differently under 1 and 2 threads, so
    # only fits that run with one BLAS thread whatever the caller's count
    # give the same models, CV tables and certificates.
    src = str(Path(interestsim.__file__).resolve().parent.parent)
    fits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _THREAD_FIT], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        fits.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert fits[0] == fits[1]


def _penalized_objective(model, X, y):
    z = model.decision_function(X)
    if model.link == "logistic":
        loss = np.mean(np.logaddexp(0.0, z) - y * z)
    else:
        loss = 0.5 * np.mean((y - z) ** 2)
    return loss + model.l1_lambda * np.abs(model.weights).sum()


@pytest.mark.parametrize("task", ["clf", "reg"])
def test_duplicate_leaf_columns_fit_once(task):
    # one dominant step feature: most trees split on it first, so many of
    # their leaves hold the same rows and their one-hot columns repeat
    rng = np.random.default_rng(0)
    X = rng.random((400, 4))
    y = 3 * (X[:, 0] > 0.5) + 0.5 * np.sin(4 * X[:, 1]) + 0.3 * rng.normal(size=400)
    if task == "clf":
        y = (y > np.median(y)).astype(float)
    link = "logistic" if task == "clf" else "identity"
    encoder = fit_gbdt(dm(X, y), loss="logistic" if task == "clf" else "squared", n_trees=12, max_depth=3)
    hybrid = fit_hybrid(dm(X, y), encoder, folds=3)
    leaves = encode_leaves(hybrid.encoder, X)
    first = {}
    for j in range(leaves.shape[1]):
        first.setdefault(leaves[:, j].tobytes(), j)
    kept = np.array(sorted(first.values()))
    repeats = np.setdiff1d(np.arange(leaves.shape[1]), kept)
    assert len(repeats) > 0
    assert np.array_equal(hybrid.kept, kept)

    # the stored lasso is fit_linear's on [distinct leaf columns, X], bit for bit
    narrow = dm(np.hstack([leaves[:, kept], X]), y)
    lam = hybrid.linear.l1_lambda
    distinct = fit_linear(narrow, link, lam, max_iter=2000)
    assert np.array_equal(hybrid.linear.weights, distinct.weights)
    assert hybrid.linear.intercept == distinct.intercept
    assert hybrid.linear.certificate == distinct.certificate
    assert hybrid.linear.feature_names[: len(kept)] == tuple(f"leaf{j}" for j in kept)
    assert np.array_equal(hybrid.predict(X), distinct.predict(narrow.X))

    if task == "clf":
        # at a fixed lambda: the certified refit at the CV's lambda stops
        # 2.0e-3 relative above the optimum, outside the bound checked below
        lam = 0.05
        distinct = fit_linear(narrow, link, lam, max_iter=2000)
    # the same lasso on every leaf column, with weight 0 on the repeats,
    # standardized as a full-width fit is: the same predictions, up to the
    # grouping of each row's terms, and the full-width optimum
    augmented = dm(np.hstack([leaves, X]), y)
    if task == "reg":
        reference = fit_linear(augmented, link, lam, max_iter=2000)
    else:
        # A certified fit_linear on every leaf column is no reference: its
        # S(0, 0) sums over the repeated columns, so its bound is looser
        # (here it stops at 0.26199, as the hybrid does).  Against a tight
        # optimum, the oracle's 20,000-sweep run under the coefficient test
        # (0.26195), the certified stop leaves a gap of 1.5e-4 relative.  The
        # convexity bound F - F* <= S * max|(w, b) - (w*, b*)| holds at any
        # iterate, so only the gap is checked.
        [reference] = path_oracle.coefficient_test_chain(augmented, [lam], 20_000, 1e-10)
        assert reference.converged
    narrow_cols = np.concatenate([kept, leaves.shape[1] + np.arange(X.shape[1])])
    for scale in ("mu", "sigma"):
        np.testing.assert_allclose(getattr(reference, scale)[narrow_cols], getattr(distinct, scale), rtol=1e-12)
    weights = np.zeros(augmented.n_cols)
    weights[narrow_cols] = distinct.weights
    expanded = dataclasses.replace(reference, weights=weights, intercept=distinct.intercept)
    np.testing.assert_allclose(expanded.predict(augmented.X), distinct.predict(narrow.X), rtol=1e-12, atol=1e-12)
    ours = _penalized_objective(expanded, augmented.X, y)
    best = _penalized_objective(reference, augmented.X, y)
    if task == "reg":
        assert ours == pytest.approx(best, rel=1e-12)
    else:
        assert 0.0 <= ours - best <= 5e-4 * best


def test_convergence_error_carries_the_narrow_lasso():
    X, y = nonlinear_data(11)
    encoder = fit_gbdt(dm(X, y), loss="squared", n_trees=8)
    with pytest.raises(ConvergenceError) as exc:
        fit_hybrid(dm(X, y), encoder, folds=3, max_iter=1)
    model = exc.value.model
    assert model.n_sweeps == 1
    # the model reads the distinct leaf columns and the original features
    leaves = encode_leaves(encoder, X)
    kept = _distinct_leaf_columns(leaves)
    narrow = np.hstack([leaves[:, kept], X])
    assert len(model.weights) == len(model.feature_names) == narrow.shape[1] < leaves.shape[1] + X.shape[1]
    assert model.feature_names[: len(kept)] == tuple(f"leaf{j}" for j in kept)
    assert model.predict(narrow).shape == (len(X),)


@pytest.mark.parametrize("n", [1, 7, 9, 13, 17])
def test_distinct_leaf_columns_on_packed_bits_at_awkward_row_counts(n):
    # row counts that leave the last packed byte part padding, and columns
    # that differ only in their last row, so only that padded byte tells
    # them apart
    rng = np.random.default_rng(n)
    base = (rng.random((n, 6)) < 0.5).astype(float)
    last = np.zeros((n, 2))
    last[-1, 1] = 1.0  # all-zero, and one only in the last row
    flipped = base[:, :2].copy()
    flipped[-1] = 1.0 - flipped[-1]
    leaves = np.hstack([base, last, flipped, base[:, ::-1], last[:, ::-1]])
    first = {}
    for j in range(leaves.shape[1]):
        first.setdefault(leaves[:, j].tobytes(), j)
    assert np.array_equal(_distinct_leaf_columns(leaves), sorted(first.values()))
