"""Experiment protocol and correlation-study machinery: splits, metrics,
mean-threshold binarization, bucketed similarity tables.

``protocol`` splits and labels a sample table once per task.  Each model
of the table is fitted on its ``train`` design, and ``Protocol.report``
scores it on the held-out rows with ``held_out_metric``, the metric the
``evaluate`` command computes too; ``run_protocol`` does both for one model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.stats import rankdata

from . import mlcore
from .corpus import Corpus, write_csv
from .mlcore import DesignMatrix
from .pairfeat import PairFeaturizer, SampleTable, ordered_pairs


TRAIN_FRACTION = 0.7  # the paper's 70/30 split


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    test: np.ndarray


def train_test_split(n: int, seed: int = 0) -> Split:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cut = int(round(TRAIN_FRACTION * n))
    return Split(train=np.sort(perm[:cut]), test=np.sort(perm[cut:]))


@dataclass(frozen=True)
class BinaryLabeling:
    threshold: float  # mean of the training similarities
    labels: np.ndarray  # 1 iff similarity strictly above the threshold

    @classmethod
    def from_similarities(cls, train_sims: np.ndarray, sims: np.ndarray) -> "BinaryLabeling":
        threshold = float(np.mean(train_sims))
        return cls(threshold, (np.asarray(sims) > threshold).astype(float))


def auc(scores, labels) -> float:
    """Mann-Whitney rank statistic; tied scores earn half credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = rankdata(scores, method="average")
    u = float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def reduced_mae_ratio(pred, target, train_mean: float) -> float:
    """Percent reduction of MAE against the constant train-mean predictor."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if len(pred) == 0 or len(pred) != len(target):
        raise ValueError("pred and target must be non-empty and aligned")
    baseline = float(np.mean(np.abs(target - train_mean)))
    if baseline <= 0:
        raise ValueError("constant-estimator MAE is zero; target is degenerate")
    mae = float(np.mean(np.abs(target - pred)))
    return 100.0 * (1.0 - mae / baseline)


# -- bucketed similarity tables --------------------------------------------


@dataclass
class BucketTable:
    key: str
    rows: list[tuple[str, float, int, float]]  # (bucket, mean, count, stderr)

    def to_csv(self, path) -> None:
        header = ["bucket", "mean_similarity", "count", "stderr"]
        write_csv(path, header, list(zip(*self.rows)), ["%s", "%.9g", "%s", "%.9g"])


BUCKET_KEYS = (
    "gender",
    "agepair",
    "samecity",
    "friendship",
    "msgcount",
    "msgdays",
    "friendratio",
    "groups_friendship",
    "individuality",
)


def study_population(key: str) -> str:
    """The pairs a study of ``key`` samples (``sample_pairs``'s ``among``):
    message features only exist between friends, so the message keys
    study friend pairs and every other key random pairs."""
    return "friends" if key in ("msgcount", "msgdays") else "random"


def sample_pairs(c: Corpus, n: int, seed: int, among: str = "random") -> tuple[np.ndarray, np.ndarray]:
    """Pairs for a correlation study: uniform ordered pairs, or friend
    edges (message features only exist between friends)."""
    ids = np.asarray(c.user_ids, dtype=np.int64)
    if among == "friends":
        # rows ascend with user id, so the row-major upper triangle lists
        # each edge (a, b), a < b, in ascending order
        upper = sp.triu(c.friend_matrix, k=1, format="csr")
        upper.sort_indices()
        if upper.nnz == 0:
            raise ValueError("corpus has no friend edges")
        idx = np.random.default_rng(seed).integers(0, upper.nnz, size=n)
        return np.repeat(ids, np.diff(upper.indptr))[idx], ids[upper.indices[idx]]
    if among != "random":
        raise ValueError(f"among must be 'random' or 'friends', got {among!r}")
    if len(ids) < 2:
        raise ValueError("need at least two users")
    return ordered_pairs(ids, n, seed)


def _aggregate(codes: np.ndarray, name, values: np.ndarray, key_name: str) -> BucketTable:
    """One row per bucket present, sorted by its name: ``codes`` holds each
    pair's integer bucket and ``name(code)`` names a bucket.  A stable sort
    keeps each bucket's values in pair order."""
    present, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
    groups = np.split(values[np.argsort(inverse, kind="stable")], np.cumsum(counts)[:-1])
    rows = []
    for label, vals in sorted(zip(map(name, present.tolist()), groups), key=lambda row: row[0]):
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append((label, float(vals.mean()), len(vals), se))
    return BucketTable(key_name, rows)


def _quantile_bins(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, list[str]]:
    edges = np.unique(np.quantile(values, np.linspace(0, 1, n_bins + 1)))
    if len(edges) < 2:
        return np.zeros(len(values), dtype=int), [f"[{edges[0]:g}, {edges[0]:g}]"]
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)
    labels = [
        f"[{edges[i]:g}, {edges[i + 1]:g}{']' if i == len(edges) - 2 else ')'}"
        for i in range(len(edges) - 1)
    ]
    return idx, labels


def bucket_similarity(
    c: Corpus,
    pairs: tuple[np.ndarray, np.ndarray],
    key: str,
    kind: str,
    n_bins: int = 10,
) -> BucketTable:
    """Mean day-0 similarity per bucket of one pair-level feature.

    Each key computes only the feature it buckets:

    - ``gender``, ``agepair``, ``samecity``: the user columns (the pair's
      ``gender_pair`` code, both ages, ``same_city``);
    - ``friendship``, ``msgcount``, ``msgdays``: one friend, message-count
      or message-day matrix entry per pair;
    - ``friendratio``: ``common_friend_ratio``, the common-friend product;
    - ``groups_friendship``: ``friendship`` and ``common_groups``;
    - ``individuality``: the product of both users' day-0 individuality.

    ``msgcount``, ``msgdays``, ``friendratio`` and ``individuality`` fall
    into ``n_bins`` quantile bins; equal quantiles merge, and bins without
    a pair get no row.
    """
    a, b = np.asarray(pairs[0]), np.asarray(pairs[1])
    if len(a) == 0:
        raise ValueError("no pairs supplied")
    if key not in BUCKET_KEYS:
        raise ValueError(f"unknown bucket key {key!r}; choose from {BUCKET_KEYS}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be at least 1, got {n_bins}")
    fz = PairFeaturizer(c, kind)
    rt, rh = fz.rows(a, b)
    sims = fz.label_similarity(a, b)
    if key == "gender":
        return _aggregate(fz.gender_pair(rt, rh).astype(np.int64), ("MM", "MF", "FF").__getitem__, sims, key)
    if key == "agepair":
        lo = np.minimum(c.ages[rt], c.ages[rh]).astype(np.int64)
        hi = np.maximum(c.ages[rt], c.ages[rh]).astype(np.int64)
        span = int(hi.max()) + 1
        return _aggregate(lo * span + hi, lambda k: f"{k // span}-{k % span}", sims, key)
    if key == "samecity":
        return _aggregate(fz.same_city(rt, rh).astype(np.int64), ("different", "same").__getitem__, sims, key)
    if key == "friendship":
        friends = (fz.friendship(rt, rh) != 0).astype(np.int64)
        return _aggregate(friends, ("random", "friends").__getitem__, sims, key)
    if key == "groups_friendship":
        codes = fz.common_groups(rt, rh).astype(np.int64) * 2 + (fz.friendship(rt, rh) != 0)
        return _aggregate(codes, lambda k: f"{('strangers', 'friends')[k % 2]}/groups={k // 2}", sims, key)
    if key == "msgcount":
        values = fz.msg_count_month(rt, rh)
    elif key == "msgdays":
        values = fz.msg_days_month(rt, rh)
    elif key == "friendratio":
        values = fz.common_friend_ratio(rt, rh)
    else:  # individuality: product of both sides' day-0 individuality
        values = fz.day0.individuality_values(a) * fz.day0.individuality_values(b)
    idx, labels = _quantile_bins(values, n_bins)
    return _aggregate(idx, lambda i: f"{i:02d} {labels[i]}", sims, key)


# -- protocol ----------------------------------------------------------------


MODEL_DEFAULTS = {
    "tree": {"max_depth": 9, "min_leaf": 20},
    "forest": {"n_trees": 24, "max_depth": 9, "min_leaf": 10},
    "gbdt": {"n_trees": 30, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 10},
}


def fit_model(kind: str, data: DesignMatrix, task: str, folds: int = 10, seed: int = 0):
    """Train one of the six model kinds with protocol defaults; the hybrid
    encodes with the GBDT this function fits for ``gbdt``."""
    if kind not in mlcore.MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; choose from {mlcore.MODEL_KINDS}")
    link = "logistic" if task == "clf" else "identity"
    if kind == "linear":
        return mlcore.fit_linear(data, link, l1_lambda=0.0, max_iter=3000)
    if kind == "l1linear":
        model, _ = mlcore.fit_linear_cv(data, link, folds=folds, seed=seed)
        return model
    if kind == "tree":
        full = mlcore.fit_tree(data, task=task, **MODEL_DEFAULTS["tree"])
        return mlcore.prune_tree(full, data, folds=folds)
    if kind == "forest":
        return mlcore.fit_forest(data, task=task, seed=seed, **MODEL_DEFAULTS["forest"])
    if kind == "gbdt":
        loss = "logistic" if task == "clf" else "squared"
        return mlcore.fit_gbdt(data, loss=loss, seed=seed, **MODEL_DEFAULTS["gbdt"])
    return mlcore.fit_hybrid(data, fit_model("gbdt", data, task, folds, seed), folds=folds)


def held_out_metric(task: str, scores, sims, train_mean: float) -> dict:
    """The test metric: the AUC of the labels ``sims > train_mean`` (clf)
    or the percent MAE reduction over predicting ``train_mean`` (reg)."""
    if task == "clf":
        return {"threshold": train_mean, "auc": auc(scores, np.asarray(sims) > train_mean)}
    return {"train_mean": train_mean, "reduced_mae_pct": reduced_mae_ratio(scores, sims, train_mean)}


@dataclass(frozen=True)
class Protocol:
    """A sample table split and labeled for one task; the labeling's
    threshold, the mean training similarity, is also the reg baseline."""

    samples: SampleTable
    task: str
    seed: int
    categories: tuple[str, ...]
    split: Split
    labeling: BinaryLabeling
    train: DesignMatrix
    test_X: np.ndarray

    def report(self, kind: str, model) -> dict:
        """The held-out metric of ``model``, fitted on ``train``, with its
        lambda, solver diagnostics, CV table, pruning alpha and leaf count."""
        split, sims = self.split, self.samples.labels
        report = {"model": kind, "task": self.task, "kind": self.samples.kind, "seed": self.seed,
                  "categories": list(self.categories), "n_train": len(split.train), "n_test": len(split.test),
                  **held_out_metric(self.task, mlcore.predict(model, self.test_X), sims[split.test],
                                    self.labeling.threshold)}
        hybrid = isinstance(model, mlcore.HybridModel)
        linear = model.linear if hybrid else model
        if isinstance(linear, mlcore.LinearModel):  # n_sweeps counts homotopy steps under both links
            report.update({"lambda": linear.l1_lambda, "converged": linear.converged, "n_sweeps": linear.n_sweeps,
                           "certificate": linear.certificate})
        if hybrid:  # keyed as in the model files
            report["cv_table"] = {repr(k): v for k, v in model.cv_table.items()}
            report["n_leaves"] = model.encoder.encoded_width
        elif isinstance(model, mlcore.Tree):
            report["n_leaves"] = model.n_leaves
            if model.pruning_alpha is not None:
                report["pruning_alpha"] = model.pruning_alpha
        elif isinstance(model, (mlcore.ForestModel, mlcore.GbdtModel)):
            report["n_leaves"] = sum(tree.n_leaves for tree in model.trees)
        return report


def protocol(samples: SampleTable, task: str, seed: int = 0, categories=None) -> Protocol:
    """70/30 split and, for classification, mean-threshold binarization,
    checked to leave both classes in both parts before any model is
    fitted; CV for model selection then runs inside the training rows."""
    if task not in ("clf", "reg"):
        raise ValueError(f"task must be 'clf' or 'reg', got {task!r}")
    if samples.labels is None:
        raise ValueError("samples carry no labels")
    X, cat_idx, names = samples.feature_matrix(categories)
    sims = samples.labels
    split = train_test_split(len(samples), seed)
    labeling = BinaryLabeling.from_similarities(sims[split.train], sims)
    y = labeling.labels if task == "clf" else sims
    if task == "clf" and any(y[part].min() == y[part].max() for part in (split.train, split.test)):
        raise ValueError("AUC needs both classes present")
    categories = ("demographic", "social", "interest") if categories is None else tuple(categories)
    train = DesignMatrix(X[split.train], y[split.train], cat_idx, names)
    return Protocol(samples, task, seed, categories, split, labeling, train, X[split.test])


def run_protocol(samples: SampleTable, model_kind: str, task: str, seed: int = 0, categories=None,
                 folds: int = 10) -> tuple[dict, object]:
    """One model of ``model_kind`` fitted on the ``protocol``'s training
    rows, and its report."""
    p = protocol(samples, task, seed, categories)
    model = fit_model(model_kind, p.train, task, folds=folds, seed=seed)
    return p.report(model_kind, model), model


CATEGORY_COMBINATIONS = (
    ("interest",),
    ("social",),
    ("demographic",),
    ("social", "demographic"),
    ("interest", "demographic"),
    ("interest", "social"),
    ("interest", "social", "demographic"),
)


def ablation_sweep(samples: SampleTable, task: str = "clf", seed: int = 0, folds: int = 10) -> list[dict]:
    """Pruned-tree protocol over the seven feature-category combinations."""
    out = []
    for combo in CATEGORY_COMBINATIONS:
        report, _ = run_protocol(samples, "tree", task, seed=seed, categories=combo, folds=folds)
        out.append(report)
    return out
