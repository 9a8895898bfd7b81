"""The object-graph trees, the per-node-sort growth and the per-alpha
pruning cross-validation that ``mlcore.tree`` replaced, kept as the
reference they are tested against.

A tree here is a graph of ``TreeNode`` objects; ``_route`` walks it
recursively per node, and ``tree_to_dict`` writes the nested model format
from it.  ``_best_split`` runs a stable argsort of every numeric feature
and ``np.unique`` of every categorical feature at every node; the pruning
loop routes the validation rows through the fold tree once per candidate
alpha, and every collapse step recomputes every weakest link.  Trees grow
node by node, recursively; a forest tree with feature pools grows depth by
depth, left to right, to draw its pools in the stream ``fit_forest``
states.
"""

import math
from dataclasses import dataclass

import numpy as np

from interestsim.mlcore.data import DesignMatrix

_GAIN_EPS = 1e-12


def _impurity(s: float, s2: float, n: int, task: str) -> float:
    if task == "reg":
        return max(s2 - s * s / n, 0.0)
    return 2.0 * s * (n - s) / n  # Gini mass for binary s = sum(y)


@dataclass
class TreeNode:
    value: float
    n: int
    impurity: float  # total (not mean) SSE or Gini mass at the node
    feature: int | None = None
    threshold: float | None = None
    members: tuple[float, ...] | None = None  # categorical left set
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    leaf_index: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def clone(self) -> "TreeNode":
        node = TreeNode(
            self.value, self.n, self.impurity, self.feature, self.threshold,
            self.members, None, None, self.leaf_index,
        )
        if not self.is_leaf:
            node.left = self.left.clone()
            node.right = self.right.clone()
        return node


@dataclass
class Tree:
    root: TreeNode
    task: str  # "reg" or "clf"
    max_depth: int
    min_leaf: int
    n_features: int
    categorical: tuple[int, ...] = ()
    pruning_alpha: float | None = None

    @property
    def n_leaves(self) -> int:
        return _count_leaves(self.root)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_width(X, self.n_features)
        out = np.empty(X.shape[0])
        _route(self.root, X, np.arange(X.shape[0]), out, attr="value")
        return out

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Dense leaf index (0..n_leaves-1) each row lands in."""
        X = _check_width(X, self.n_features)
        out = np.empty(X.shape[0])
        _route(self.root, X, np.arange(X.shape[0]), out, attr="leaf_index")
        return out.astype(np.int64)

    def clone(self) -> "Tree":
        return Tree(
            self.root.clone(), self.task, self.max_depth, self.min_leaf,
            self.n_features, self.categorical, self.pruning_alpha,
        )


def _check_width(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} feature columns, got shape {X.shape}")
    return X


def _goes_left(node: TreeNode, x: np.ndarray) -> np.ndarray:
    if node.members is not None:
        return np.isin(x, node.members)
    return x <= node.threshold


def _route(node: TreeNode, X, idx, out, attr: str) -> None:
    if node.is_leaf:
        out[idx] = getattr(node, attr)
        return
    go_left = _goes_left(node, X[idx, node.feature])
    _route(node.left, X, idx[go_left], out, attr)
    _route(node.right, X, idx[~go_left], out, attr)


def _count_leaves(node: TreeNode) -> int:
    if node.is_leaf:
        return 1
    return _count_leaves(node.left) + _count_leaves(node.right)


def _assign_leaf_indices(root: TreeNode) -> int:
    counter = 0

    def visit(node: TreeNode):
        nonlocal counter
        if node.is_leaf:
            node.leaf_index = counter
            counter += 1
        else:
            node.leaf_index = -1
            visit(node.left)
            visit(node.right)

    visit(root)
    return counter


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



def tree_to_dict(tree: Tree) -> dict:
    return {
        "root": _node_to_dict(tree.root),
        "task": tree.task,
        "max_depth": tree.max_depth,
        "min_leaf": tree.min_leaf,
        "n_features": tree.n_features,
        "categorical": list(tree.categorical),
        "pruning_alpha": tree.pruning_alpha,
    }


def _best_split(X, y, idx, features, categorical, min_leaf, task):
    """Best (gain, feature, threshold, members) over candidate features."""
    yv = y[idx]
    n = len(idx)
    s = float(yv.sum())
    s2 = float((yv * yv).sum()) if task == "reg" else s
    parent = _impurity(s, s2, n, task)
    if parent <= _GAIN_EPS:
        return None
    # zero-gain splits are allowed (an XOR pattern needs one at the root);
    # pruning removes the useless ones afterwards
    floor = -_GAIN_EPS * max(parent, 1.0)
    best = None

    for j in features:
        x = X[idx, j]
        if j in categorical:
            vals, inverse = np.unique(x, return_inverse=True)
            if len(vals) < 2:
                continue
            g_s = np.bincount(inverse, weights=yv)
            g_n = np.bincount(inverse).astype(np.float64)
            g_s2 = np.bincount(inverse, weights=yv * yv) if task == "reg" else g_s
            order = np.lexsort((vals, g_s / g_n))
            cs = np.cumsum(g_s[order])[:-1]
            cn = np.cumsum(g_n[order])[:-1]
            cs2 = np.cumsum(g_s2[order])[:-1]
            valid = (cn >= min_leaf) & (n - cn >= min_leaf)
            if not valid.any():
                continue
            if task == "reg":
                left = cs2 - cs * cs / cn
                right = (s2 - cs2) - (s - cs) ** 2 / (n - cn)
            else:
                left = 2.0 * cs * (cn - cs) / cn
                right = 2.0 * (s - cs) * ((n - cn) - (s - cs)) / (n - cn)
            gains = np.where(valid, parent - left - right, -np.inf)
            k = int(np.argmax(gains))
            gain = float(gains[k])
            if gain >= floor and (best is None or gain > best[0]):
                members = tuple(sorted(float(v) for v in vals[order[: k + 1]]))
                best = (gain, j, None, members)
        else:
            order = np.argsort(x, kind="stable")
            xs = x[order]
            ys = yv[order]
            cut = np.nonzero(xs[:-1] < xs[1:])[0]
            if cut.size == 0:
                continue
            cs_full = np.cumsum(ys)
            cs = cs_full[cut]
            cn = (cut + 1).astype(np.float64)
            if task == "reg":
                cs2_full = np.cumsum(ys * ys)
                cs2 = cs2_full[cut]
                left = cs2 - cs * cs / cn
                right = (s2 - cs2) - (s - cs) ** 2 / (n - cn)
            else:
                left = 2.0 * cs * (cn - cs) / cn
                right = 2.0 * (s - cs) * ((n - cn) - (s - cs)) / (n - cn)
            valid = (cn >= min_leaf) & (n - cn >= min_leaf)
            gains = np.where(valid, parent - left - right, -np.inf)
            k = int(np.argmax(gains))
            gain = float(gains[k])
            if gain >= floor and (best is None or gain > best[0]):
                lo = xs[cut[k]]
                hi = xs[cut[k] + 1]
                thr = (lo + hi) / 2.0
                if thr >= hi:  # midpoint rounded up to the right value
                    thr = lo
                best = (gain, j, float(thr), None)
    return best


def _grow(X, y, idx, depth, max_depth, min_leaf, task, categorical):
    yv = y[idx]
    n = len(idx)
    s = float(yv.sum())
    s2 = float((yv * yv).sum()) if task == "reg" else s
    node = TreeNode(value=s / n, n=n, impurity=_impurity(s, s2, n, task))
    if depth >= max_depth or n < 2 * min_leaf:
        return node
    best = _best_split(X, y, idx, range(X.shape[1]), categorical, min_leaf, task)
    if best is None:
        return node
    _, j, thr, members = best
    x = X[idx, j]
    go_left = np.isin(x, members) if members is not None else x <= thr
    node.feature = int(j)
    node.threshold = thr
    node.members = members
    node.left = _grow(X, y, idx[go_left], depth + 1, max_depth, min_leaf, task, categorical)
    node.right = _grow(X, y, idx[~go_left], depth + 1, max_depth, min_leaf, task, categorical)
    return node


def fit_tree(data: DesignMatrix, max_depth: int = 10, min_leaf: int = 1, task: str = "reg") -> Tree:
    root = _grow(
        data.X, data.y, np.arange(data.n_rows), 0, max_depth, min_leaf, task,
        set(data.categorical),
    )
    _assign_leaf_indices(root)
    return Tree(root, task, max_depth, min_leaf, data.n_cols, data.categorical)


def _grow_breadth_first(X, y, idx, max_depth, min_leaf, task, categorical, k, rng):
    """A forest tree: nodes made depth by depth, left to right.  At each
    depth the open nodes (below max_depth, 2 * min_leaf rows or more, a
    positive impurity) draw their feature pools from one (nodes x
    features) uniform matrix, row i for the i-th: the columns of its k
    smallest entries."""
    root = TreeNode(value=0.0, n=0, impurity=0.0)
    level = [(root, idx)]
    for depth in range(max_depth + 1):
        opened = []
        for node, rows in level:
            yv = y[rows]
            s = float(yv.sum())
            s2 = float((yv * yv).sum()) if task == "reg" else s
            node.value, node.n, node.impurity = s / len(rows), len(rows), _impurity(s, s2, len(rows), task)
            if depth < max_depth and len(rows) >= 2 * min_leaf and node.impurity > _GAIN_EPS:
                opened.append((node, rows))
        if not opened:
            break
        pools = np.sort(np.argsort(rng.random((len(opened), X.shape[1])), axis=1, kind="stable")[:, :k], axis=1)
        level = []
        for (node, rows), pool in zip(opened, pools):
            best = _best_split(X, y, rows, pool.tolist(), categorical, min_leaf, task)
            if best is None:
                continue
            _, j, thr, members = best
            x = X[rows, j]
            go_left = np.isin(x, members) if members is not None else x <= thr
            node.feature, node.threshold, node.members = int(j), thr, members
            node.left, node.right = TreeNode(0.0, 0, 0.0), TreeNode(0.0, 0, 0.0)
            level += [(node.left, rows[go_left]), (node.right, rows[~go_left])]
    return root


def fit_forest_trees(data, n_trees, max_depth, min_leaf, k, bootstrap, seed, task) -> list[Tree]:
    """The trees of ``fit_forest`` with a pool of k features per node,
    drawn depth by depth; with k = p every node scans every feature."""
    p = data.n_cols
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        if bootstrap:
            idx = rng.integers(0, data.n_rows, size=data.n_rows)
        else:
            idx = np.arange(data.n_rows)
        if k < p:
            root = _grow_breadth_first(
                data.X, data.y, idx, max_depth, min_leaf, task, set(data.categorical), k, rng
            )
        else:
            root = _grow(data.X, data.y, idx, 0, max_depth, min_leaf, task, set(data.categorical))
        _assign_leaf_indices(root)
        trees.append(Tree(root, task, max_depth, min_leaf, p, data.categorical))
    return trees


def _weakest_links(root: TreeNode) -> list[tuple[float, TreeNode]]:
    links = []

    def visit(node: TreeNode) -> tuple[float, int]:
        if node.is_leaf:
            return node.impurity, 1
        rl, nl = visit(node.left)
        rr, nr = visit(node.right)
        r_sub, leaves = rl + rr, nl + nr
        g = (node.impurity - r_sub) / max(leaves - 1, 1)
        links.append((g, node))
        return r_sub, leaves

    visit(root)
    return links


def _prune_while(root: TreeNode, alpha: float) -> None:
    """Collapse every weakest link with g <= alpha, in place."""
    while not root.is_leaf:
        links = _weakest_links(root)
        g_min = min(g for g, _ in links)
        if g_min > alpha + 1e-15:
            break
        for g, node in links:
            if g <= g_min + 1e-12:
                node.left = None
                node.right = None
                node.feature = None
                node.threshold = None
                node.members = None


def alpha_sequence(tree: Tree) -> list[float]:
    """Non-decreasing weakest-link alphas from the full tree to the root."""
    clone = tree.root.clone()
    alphas = [0.0]
    while not clone.is_leaf:
        links = _weakest_links(clone)
        g_min = min(g for g, _ in links)
        alphas.append(max(g_min, alphas[-1]))
        for g, node in links:
            if g <= g_min + 1e-12:
                node.left = None
                node.right = None
    return alphas


def prune_at(tree: Tree, alpha: float) -> Tree:
    pruned = tree.clone()
    _prune_while(pruned.root, alpha)
    _assign_leaf_indices(pruned.root)
    pruned.pruning_alpha = alpha
    return pruned


def prune_tree(tree: Tree, data: DesignMatrix, folds: int = 10) -> tuple[Tree, list[float], np.ndarray]:
    """The pruned tree, the candidate alphas and the (used folds x
    candidates) loss table."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    alphas = alpha_sequence(tree)
    candidates = sorted(
        {math.sqrt(a * b) for a, b in zip(alphas[:-1], alphas[1:])} | {alphas[-1]}
    )
    if not candidates:
        candidates = [0.0]
    n = data.n_rows
    folds = min(folds, n)
    bounds = np.linspace(0, n, folds + 1).astype(int)
    fold_losses = np.zeros((folds, len(candidates)))
    used_folds = 0
    all_idx = np.arange(n)
    for f in range(folds):
        val_idx = all_idx[bounds[f] : bounds[f + 1]]
        train_idx = np.concatenate([all_idx[: bounds[f]], all_idx[bounds[f + 1] :]])
        if len(val_idx) == 0 or len(train_idx) < 2 * tree.min_leaf:
            continue
        fold_tree = fit_tree(data.take(train_idx), tree.max_depth, tree.min_leaf, tree.task)
        work = fold_tree.clone()
        Xv = data.X[val_idx]
        yv = data.y[val_idx]
        for ci, alpha in enumerate(candidates):
            _prune_while(work.root, alpha)
            pred = work.predict(Xv)
            fold_losses[used_folds, ci] = float(((pred - yv) ** 2).mean())
        used_folds += 1
    if used_folds == 0:
        return prune_at(tree, 0.0), candidates, fold_losses[:0]
    means = fold_losses[:used_folds].mean(axis=0)
    best = int(np.argmin(means))
    if used_folds > 1:
        se = float(fold_losses[:used_folds, best].std(ddof=1)) / math.sqrt(used_folds)
    else:
        se = 0.0
    # one-standard-error rule: the simplest subtree within noise of the best
    chosen = best
    for ci in range(len(candidates)):
        if means[ci] <= means[best] + se + 1e-12:
            chosen = max(chosen, ci)
    return prune_at(tree, candidates[chosen]), candidates, fold_losses[:used_folds]
