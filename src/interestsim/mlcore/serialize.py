"""Versioned JSON serialization for every model family."""

from __future__ import annotations

import json

import numpy as np

from .forest import ForestModel
from .gbdt import GbdtModel
from .hybrid import HybridModel
from .linear import CategoricalEncoder, LinearModel
from .tree import Tree, TreeNode

FORMAT_VERSION = 2


def _node_to_dict(node: TreeNode) -> dict:
    out = {
        "value": node.value,
        "n": node.n,
        "impurity": node.impurity,
        "leaf_index": node.leaf_index,
    }
    if not node.is_leaf:
        out.update(
            feature=node.feature,
            threshold=node.threshold,
            members=list(node.members) if node.members is not None else None,
            left=_node_to_dict(node.left),
            right=_node_to_dict(node.right),
        )
    return out


def _node_from_dict(d: dict) -> TreeNode:
    node = TreeNode(
        value=d["value"], n=d["n"], impurity=d["impurity"], leaf_index=d["leaf_index"]
    )
    if "left" in d:
        node.feature = d["feature"]
        node.threshold = d["threshold"]
        node.members = tuple(d["members"]) if d["members"] is not None else None
        node.left = _node_from_dict(d["left"])
        node.right = _node_from_dict(d["right"])
    return node


def _tree_to_dict(tree: Tree) -> dict:
    return {
        "root": _node_to_dict(tree.root),
        "task": tree.task,
        "max_depth": tree.max_depth,
        "min_leaf": tree.min_leaf,
        "n_features": tree.n_features,
        "categorical": list(tree.categorical),
        "pruning_alpha": tree.pruning_alpha,
    }


def _tree_from_dict(d: dict) -> Tree:
    return Tree(
        root=_node_from_dict(d["root"]),
        task=d["task"],
        max_depth=d["max_depth"],
        min_leaf=d["min_leaf"],
        n_features=d["n_features"],
        categorical=tuple(d["categorical"]),
        pruning_alpha=d["pruning_alpha"],
    )


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
        return {
            "format_version": FORMAT_VERSION,
            "model_type": "linear",
            "linear": _linear_to_dict(model),
        }
    if isinstance(model, HybridModel):
        return {
            "format_version": FORMAT_VERSION,
            "model_type": "hybrid",
            "n_raw_features": model.n_raw_features,
            "chosen_lambda": model.chosen_lambda,
            "cv_table": {repr(k): v for k, v in model.cv_table.items()},
            "encoder": model_to_dict(model.encoder),
            "linear": _linear_to_dict(model.linear),
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(d: dict):
    version = d.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = d["model_type"]
    if kind == "tree":
        return _tree_from_dict(d["tree"])
    if kind == "forest":
        return ForestModel(
            trees=[_tree_from_dict(t) for t in d["trees"]],
            task=d["task"],
            n_features=d["n_features"],
            seed=d["seed"],
        )
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
        return HybridModel(
            encoder=model_from_dict(d["encoder"]),
            linear=_linear_from_dict(d["linear"]),
            n_raw_features=d["n_raw_features"],
            chosen_lambda=d["chosen_lambda"],
            cv_table={float(k): v for k, v in d["cv_table"].items()},
        )
    raise ValueError(f"unknown model type {kind!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
