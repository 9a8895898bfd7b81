"""Versioned JSON-ready dicts for every model family; the CLI writes a
model file as one such dict with its ``train_meta``.

Format 4 stores a hybrid as its fitted parts: the encoder, the leaf
columns ``kept`` and the lasso fitted on them.  Formats 2 and 3 still
load: their hybrids' lassos read every leaf column, so they load with
``kept`` all of them, and format 2 has no ``certificate`` (None).
"""

from __future__ import annotations

import math

import numpy as np

from .forest import ForestModel
from .gbdt import GbdtModel
from .hybrid import HybridModel
from .linear import CategoricalEncoder, LinearModel
from .tree import Tree

FORMAT_VERSION = 4
READABLE_VERSIONS = (2, 3, FORMAT_VERSION)


def _tree_to_dict(tree: Tree) -> dict:
    """The nested format, built from the last node back, so that a split's
    children (after it in pre-order) are built before it."""
    columns = (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.n, tree.impurity)
    members = np.split(tree.cat_value, np.searchsorted(tree.cat_node, range(1, len(tree.feature))))
    rows = list(zip(*(c.tolist() for c in columns), tree.leaf_index.tolist(), members))
    nodes = [None] * len(rows)
    for i in reversed(range(len(rows))):
        feature, threshold, left, right, value, n, impurity, leaf_index, left_set = rows[i]
        nodes[i] = {"value": value, "n": n, "impurity": impurity, "leaf_index": leaf_index}
        if feature >= 0:
            categorical = math.isnan(threshold)
            nodes[i].update(
                feature=feature,
                threshold=None if categorical else threshold,
                members=left_set.tolist() if categorical else None,
                left=nodes[left],
                right=nodes[right],
            )
    return {
        "root": nodes[0],
        "task": tree.task,
        "max_depth": tree.max_depth,
        "min_leaf": tree.min_leaf,
        "n_features": tree.n_features,
        "categorical": list(tree.categorical),
        "pruning_alpha": tree.pruning_alpha,
    }


def _tree_from_dict(d: dict) -> Tree:
    """The nodes in pre-order; the stored leaf numbers must be the ones
    that order gives."""
    nodes, cat_node, cat_value, leaf_index = [], [], [], []
    stack = [(d["root"], -1, 0)]  # a node, its parent, and the parent's slot for it
    while stack:
        node, parent, slot = stack.pop()
        i = len(nodes)
        if parent >= 0:
            nodes[parent][slot] = i
        split = [-1, None, -1, -1]  # feature, threshold (None reads as NaN), left, right
        if "left" in node:
            if not 0 <= node["feature"] < d["n_features"]:
                raise ValueError(f"split on feature {node['feature']!r} of {d['n_features']}")
            if (node["threshold"] is None) == (node["members"] is None):
                raise ValueError("a split needs exactly one of threshold and members")
            split[:2] = node["feature"], node["threshold"]
            cat_node += [i] * len(node["members"] or ())
            cat_value += node["members"] or ()
            stack += [(node["right"], i, 3), (node["left"], i, 2)]
        nodes.append(split + [node["value"], node["n"], node["impurity"]])
        leaf_index.append(node["leaf_index"])
    dtypes = (np.intp, np.float64, np.intp, np.intp, np.float64, np.intp, np.float64)
    tree = Tree(
        *(np.array(column, dtype=t) for column, t in zip(zip(*nodes), dtypes)),
        np.array(cat_node, dtype=np.intp), np.array(cat_value, dtype=np.float64),
        d["task"], d["max_depth"], d["min_leaf"], d["n_features"], tuple(d["categorical"]),
        d["pruning_alpha"],
    )
    if leaf_index != tree.leaf_index.tolist():
        raise ValueError("stored leaf_index values disagree with the pre-order leaf numbering")
    return tree


def _linear_to_dict(model: LinearModel) -> dict:
    return {
        "link": model.link,
        "l1_lambda": model.l1_lambda,
        "weights": model.weights.tolist(),
        "intercept": model.intercept,
        "mu": model.mu.tolist(),
        "sigma": model.sigma.tolist(),
        "encoder": {
            "columns": list(model.encoder.columns),
            "levels": [list(lv) for lv in model.encoder.levels],
        },
        "feature_names": list(model.feature_names),
        "n_raw_features": model.n_raw_features,
        "converged": model.converged,
        "n_sweeps": model.n_sweeps,
        "certificate": model.certificate,
    }


def _linear_from_dict(d: dict) -> LinearModel:
    return LinearModel(
        link=d["link"],
        l1_lambda=d["l1_lambda"],
        weights=np.asarray(d["weights"]),
        intercept=d["intercept"],
        mu=np.asarray(d["mu"]),
        sigma=np.asarray(d["sigma"]),
        encoder=CategoricalEncoder(
            tuple(d["encoder"]["columns"]),
            tuple(tuple(lv) for lv in d["encoder"]["levels"]),
        ),
        feature_names=tuple(d["feature_names"]),
        n_raw_features=d["n_raw_features"],
        converged=d["converged"],
        n_sweeps=d["n_sweeps"],
        certificate=d.get("certificate"),
    )


def model_to_dict(model) -> dict:
    if isinstance(model, Tree):
        return {"format_version": FORMAT_VERSION, "model_type": "tree", "tree": _tree_to_dict(model)}
    if isinstance(model, ForestModel):
        return {
            "format_version": FORMAT_VERSION,
            "model_type": "forest",
            "task": model.task,
            "n_features": model.n_features,
            "seed": model.seed,
            "trees": [_tree_to_dict(t) for t in model.trees],
        }
    if isinstance(model, GbdtModel):
        return {
            "format_version": FORMAT_VERSION,
            "model_type": "gbdt",
            "loss": model.loss,
            "learning_rate": model.learning_rate,
            "base_score": model.base_score,
            "n_features": model.n_features,
            "seed": model.seed,
            "train_losses": model.train_losses,
            "trees": [_tree_to_dict(t) for t in model.trees],
        }
    if isinstance(model, LinearModel):
        linear = _linear_to_dict(model)
        return {"format_version": FORMAT_VERSION, "model_type": "linear", "linear": linear}
    if isinstance(model, HybridModel):
        return {
            "format_version": FORMAT_VERSION,
            "model_type": "hybrid",
            "kept": model.kept.tolist(),
            "cv_table": {repr(k): v for k, v in model.cv_table.items()},
            "encoder": model_to_dict(model.encoder),
            "linear": _linear_to_dict(model.linear),
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(d: dict):
    version = d.get("format_version")
    if version not in READABLE_VERSIONS:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = d["model_type"]
    if kind == "tree":
        return _tree_from_dict(d["tree"])
    if kind == "forest":
        trees = [_tree_from_dict(t) for t in d["trees"]]
        return ForestModel(trees, d["task"], d["n_features"], d["seed"])
    if kind == "gbdt":
        return GbdtModel(
            trees=[_tree_from_dict(t) for t in d["trees"]],
            learning_rate=d["learning_rate"],
            base_score=d["base_score"],
            loss=d["loss"],
            n_features=d["n_features"],
            seed=d["seed"],
            train_losses=list(d["train_losses"]),
        )
    if kind == "linear":
        return _linear_from_dict(d["linear"])
    if kind == "hybrid":
        encoder = model_from_dict(d["encoder"])
        kept = np.asarray(d["kept"] if version >= 4 else range(encoder.encoded_width), dtype=np.intp)
        if np.any(np.diff(kept) <= 0) or np.any(kept < 0) or np.any(kept >= encoder.encoded_width):
            raise ValueError(f"kept leaf columns must ascend below the encoder's {encoder.encoded_width}")
        return HybridModel(
            encoder=encoder,
            kept=kept,
            linear=_linear_from_dict(d["linear"]),
            cv_table={float(k): v for k, v in d["cv_table"].items()},
        )
    raise ValueError(f"unknown model type {kind!r}")

