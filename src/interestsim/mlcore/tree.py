"""Decision trees: greedy growth and cost-complexity (weakest-link) pruning.

Regression splits maximize variance reduction, classification splits Gini
decrease.  Ties are broken deterministically: lowest feature index first,
then lowest threshold (numeric) or smallest left prefix (categorical).
Classification leaves store the positive-class fraction, so predictions
are probabilities.

Growth presorts (SLIQ: Mehta, Agrawal & Rissanen 1996; CART: Breiman et
al. 1984).  A fit ranks the values of each numeric column and sorts its
rows once, stably.  Each node owns one block of the sorted columns: per
numeric feature, its rows in value order and the ranks of their values.
A split partitions the block stably in place with one boolean mask.  A
child's order is then a stable filter of its parent's, which is exactly
what a stable argsort of the child's own rows returns, so the tree is the
one a sort at every node grows.  Categorical columns are coded once per
fit, and a node sums its targets per level with one bincount, in row order
as a per-node ``np.unique`` did.  A node scans all its numeric features in
one pass (the cuts where the sorted value rises, inside the min_leaf
window) and all its categorical ones in another, with the arithmetic of a
feature-by-feature scan.  The tie rule is unchanged: the first best cut in
(feature, position) order, and between a numeric and a categorical
candidate the lower feature index.  The GBDT shares one presort across its
stages, the pruning folds filter the full one, and a forest that samples
features sorts its sample at each node (forest.py).

One weakest-link collapse loop, ``_prune_while``, serves ``alpha_sequence``,
``prune_at`` and the pruning cross-validation.  The cross-validation routes
each fold's validation rows once, collapses the fold tree once, and replays
the collapse steps over the ascending candidate alphas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix

_GAIN_EPS = 1e-12


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


def _impurity(s: float, s2: float, n: float, task: str) -> float:
    if n <= 0:
        return 0.0
    if task == "reg":
        return max(s2 - s * s / n, 0.0)
    return 2.0 * s * (n - s) / n  # Gini mass for binary s = sum(y)


class _Columns:
    """A design's columns as split search reads them, built once per fit
    (once per ensemble, and once for all pruning folds): the numeric
    columns as contiguous rows, and the categorical columns as rows of
    level codes, numbered across all of them so one bincount counts every
    level of every categorical column."""

    def __init__(self, X: np.ndarray, categorical: tuple[int, ...]):
        self.X = X
        self.categorical = categorical
        self.is_cat = np.zeros(X.shape[1], dtype=bool)
        self.is_cat[list(categorical)] = True
        self.numeric = np.flatnonzero(~self.is_cat)
        self.cats = np.flatnonzero(self.is_cat)
        # each feature's row in XT (numeric) or in codes (categorical)
        self.row_of = np.where(self.is_cat, np.cumsum(self.is_cat), np.cumsum(~self.is_cat)) - 1
        self.XT = np.ascontiguousarray(X[:, self.numeric].T)
        # dense rank of each numeric value in its column; equal values share one
        self.ranks = np.array(
            [np.unique(col, return_inverse=True)[1] for col in self.XT], dtype=np.intp
        ).reshape(self.XT.shape)
        levels = [np.unique(X[:, j], return_inverse=True) for j in self.cats]
        self.level_values = np.concatenate([v for v, _ in levels] + [np.empty(0)])
        self.level_row = np.repeat(np.arange(len(levels)), [len(v) for v, _ in levels]).astype(np.intp)
        self.codes = np.empty((len(levels), X.shape[0]), dtype=np.intp)
        offset = 0
        for row, (values, codes) in enumerate(levels):
            self.codes[row] = codes + offset
            offset += len(values)

    def sort(self, rows: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per numeric feature, the positions in ``rows`` (ids, repeats
        allowed) in stable order of value, and the values' ranks in that
        order: two (features, rows) arrays."""
        n = len(rows)
        shift = n.bit_length()
        ranks = self.ranks.ravel()[(self.row_of[features] * self.X.shape[0])[:, None] + rows]
        # (rank, position) packed in one integer is unique per row, so a
        # plain sort orders by value and ties by position, as a stable
        # argsort of the values does, and runs several times faster
        keys = np.sort((ranks << shift) | np.arange(n), axis=1)
        return keys & ((1 << shift) - 1), keys >> shift


def _gains(parent, s, s2, n, cs, cn, cs2, task):
    """Impurity decrease of the cuts whose left side has cn rows with target
    sum cs (sum of squares cs2)."""
    if task == "reg":
        left = cs2 - cs * cs / cn
        right = (s2 - cs2) - (s - cs) ** 2 / (n - cn)
    else:
        left = 2.0 * cs * (cn - cs) / cn
        right = 2.0 * (s - cs) * ((n - cn) - (s - cs)) / (n - cn)
    return parent - left - right


def _best_split(cols: _Columns, idx, yv, s, s2, parent, nums, order, ranks, ys, cats, min_leaf, task):
    """Best (gain, feature, threshold, members) over candidate features.

    ``nums`` are the numeric candidates, with the node's rows per feature in
    stable order of value (``order``), and their values' ranks (``ranks``)
    and targets (``ys``) in that order; ``cats`` are the categorical
    candidates.  ``idx`` holds the node's rows, ``yv`` their targets, ``s``
    and ``s2`` the targets' sum and sum of squares, ``parent`` their
    impurity.  Each kind is scanned in one pass over all its features, and
    the first best cut in (feature, position) order wins; between the two
    kinds the lower feature index wins a tie.
    """
    n = len(idx)
    # zero-gain splits are allowed (an XOR pattern needs one at the root);
    # pruning removes the useless ones afterwards
    floor = -_GAIN_EPS * max(parent, 1.0)
    best = None

    # the cut after sorted position k leaves k + 1 rows on the left; both
    # sides need min_leaf rows, so k runs over [lo, hi)
    lo, hi = min_leaf - 1, n - min_leaf
    q = np.flatnonzero(ranks[:, lo:hi] < ranks[:, lo + 1 : hi + 1])
    if q.size:
        f = q // (hi - lo)
        k = q - f * (hi - lo) + lo
        flat = f * n + k
        cs = np.cumsum(ys, axis=1).ravel()[flat]
        cs2 = np.cumsum(ys * ys, axis=1).ravel()[flat] if task == "reg" else cs
        gains = _gains(parent, s, s2, n, cs, (k + 1).astype(np.float64), cs2, task)
        i = int(np.argmax(gains))
        gain = float(gains[i])
        if gain >= floor:
            j = int(nums[f[i]])
            below, above = cols.X[order[f[i], k[i]], j], cols.X[order[f[i], k[i] + 1], j]
            thr = (below + above) / 2.0
            if thr >= above:  # midpoint rounded up to the right value
                thr = below
            best = (gain, j, float(thr), None)

    if len(cats):
        # per level of every candidate column: rows and target sums, each
        # summed in row order; then per column, levels in order of mean
        # target (ties by value) and cuts between them
        codes = cols.codes.ravel()[(cols.row_of[cats] * cols.X.shape[0])[:, None] + idx].ravel()
        counts = np.bincount(codes, minlength=len(cols.level_values))
        present = np.flatnonzero(counts)
        row = cols.level_row[present]
        vals = cols.level_values[present]
        g_n = counts[present].astype(np.float64)
        weights = np.tile(yv, len(cats))
        g_s = np.bincount(codes, weights=weights, minlength=len(counts))[present]
        if task == "reg":
            g_s2 = np.bincount(codes, weights=weights * weights, minlength=len(counts))[present]
        else:
            g_s2 = g_s
        rank = np.lexsort((vals, g_s / g_n, row))
        per_row = np.bincount(row, minlength=len(cols.cats))
        start = np.cumsum(per_row) - per_row
        pos = np.arange(len(row)) - start[row]
        width = int(per_row.max())
        at = row * width + pos
        cut = at[pos < per_row[row] - 1]  # a cut after each level but a column's last
        sums = []
        for g in (g_s, g_n, g_s2):
            padded = np.zeros(len(cols.cats) * width)
            padded[at] = g[rank]
            sums.append(np.cumsum(padded.reshape(-1, width), axis=1).ravel()[cut])
        cs, cn, cs2 = sums
        valid = (cn >= min_leaf) & (n - cn >= min_leaf)
        if valid.any():
            cut, cs, cn, cs2 = cut[valid], cs[valid], cn[valid], cs2[valid]
            gains = _gains(parent, s, s2, n, cs, cn, cs2, task)
            i = int(np.argmax(gains))
            gain = float(gains[i])
            r, k = divmod(int(cut[i]), width)
            j = int(cols.cats[r])
            if gain >= floor and (best is None or gain > best[0] or (gain == best[0] and j < best[1])):
                members = tuple(sorted(float(v) for v in vals[rank[start[r] : start[r] + k + 1]]))
                best = (gain, j, None, members)
    return best


def _grow_tree(
    cols: _Columns, y: np.ndarray, rows: np.ndarray, max_depth: int, min_leaf: int, task: str,
    presort: tuple[np.ndarray, np.ndarray] | None = None, feature_pool=None, rng=None,
) -> Tree:
    """Grow one tree on targets ``y`` over ``rows`` of ``cols.X``; the one
    entry for fit_tree, the forest, the GBDT and the pruning folds.

    Without a feature pool every node scans every feature, in its block of
    ``presort`` (``cols.sort`` of ``rows`` with the positions mapped to row
    ids, made here if not given), which this partitions in place.  With one, ``feature_pool(rng)`` draws each
    node's sorted feature sample and the node sorts those columns itself.
    """
    if task not in ("reg", "clf"):
        raise ValueError(f"task must be 'reg' or 'clf', got {task!r}")
    if len(rows) == 0:
        raise ValueError("cannot fit a tree on empty data")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    idx = np.array(rows)  # each node's rows, in their order in ``rows``
    side = np.zeros(cols.X.shape[0], dtype=bool)
    p = len(cols.numeric)
    if feature_pool is None:
        if presort is None:
            pos, ranks = cols.sort(idx, cols.numeric)
            presort = idx[pos], ranks
        # node [a, b) owns the contiguous (p, b - a) block [a*p, b*p) of each buffer
        buffers = presort[0].reshape(-1), presort[1].reshape(-1)

    def grow(a: int, b: int, depth: int) -> TreeNode:
        node_rows = idx[a:b]
        yv = y[node_rows]
        n = b - a
        s = float(yv.sum())
        s2 = float((yv * yv).sum()) if task == "reg" else s
        node = TreeNode(value=s / n, n=n, impurity=_impurity(s, s2, n, task))
        if depth >= max_depth or n < 2 * min_leaf:
            return node
        if feature_pool is not None:
            features = feature_pool(rng)  # drawn at a pure node too, as the stream expects
        if node.impurity <= _GAIN_EPS:
            return node
        if feature_pool is None:
            nums, cats = cols.numeric, cols.cats
            order, ranks = (buf[a * p : b * p].reshape(p, n) for buf in buffers)
            ys = y[order]
        else:
            nums, cats = features[~cols.is_cat[features]], features[cols.is_cat[features]]
            pos, ranks = cols.sort(node_rows, nums)
            order, ys = node_rows[pos], yv[pos]
        best = _best_split(
            cols, node_rows, yv, s, s2, node.impurity, nums, order, ranks, ys, cats, min_leaf, task
        )
        if best is None:
            return node
        _, node.feature, node.threshold, node.members = best
        go_left = _goes_left(node, cols.X[node_rows, node.feature])
        n_left = int(go_left.sum())
        if feature_pool is None and depth + 1 < max_depth:  # the children scan their blocks
            side[node_rows] = go_left
            mask = side[order].reshape(-1)
            # index lists, then gathers: faster than boolean compression
            left, right = np.flatnonzero(mask), np.flatnonzero(~mask)
            for buf in buffers:
                block = buf[a * p : b * p]
                buf[a * p : b * p] = np.concatenate((block[left], block[right]))
        idx[a:b] = np.concatenate((node_rows[go_left], node_rows[~go_left]))
        node.left = grow(a, a + n_left, depth + 1)
        node.right = grow(a + n_left, b, depth + 1)
        return node

    root = grow(0, len(idx), 0)
    _assign_leaf_indices(root)
    return Tree(root, task, max_depth, min_leaf, cols.X.shape[1], cols.categorical)


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


def fit_tree(data: DesignMatrix, max_depth: int = 10, min_leaf: int = 1, task: str = "reg") -> Tree:
    """Greedy recursive partition; deterministic for fixed input."""
    cols = _Columns(data.X, data.categorical)
    return _grow_tree(cols, data.y, np.arange(data.n_rows), max_depth, min_leaf, task)


# -- cost-complexity pruning ----------------------------------------------


def _prune_while(root: TreeNode, alpha: float) -> list[tuple[float, list[TreeNode]]]:
    """Collapse weakest links in place while the smallest g is <= alpha.

    g = (R(node) - R(subtree)) / (leaves(subtree) - 1) on each internal
    node, R the impurity.  Each step collapses every node whose g is within
    1e-12 of the smallest, then recomputes only the collapsed nodes'
    ancestors, adding left before right as a full pass does, so every g is
    the value a full pass gives.  Returns each step's smallest g and the
    nodes it collapsed, children before parents.
    """
    nodes: list[TreeNode] = []  # post-order: children before parents
    first: list[int] = []  # the first node of each node's subtree
    kids: list[tuple[int, int] | None] = []

    def flatten(node: TreeNode) -> int:
        start = len(nodes)
        pair = None if node.is_leaf else (flatten(node.left), flatten(node.right))
        nodes.append(node)
        first.append(start)
        kids.append(pair)
        return len(nodes) - 1

    flatten(root)
    parent = [-1] * len(nodes)
    for i, pair in enumerate(kids):
        if pair is not None:
            parent[pair[0]] = parent[pair[1]] = i
    r_sub = [node.impurity for node in nodes]
    leaves = [1] * len(nodes)
    g = np.full(len(nodes), np.inf)  # finite on the internal nodes left in the tree

    def refresh(i: int) -> None:
        left, right = kids[i]
        r_sub[i] = r_sub[left] + r_sub[right]
        leaves[i] = leaves[left] + leaves[right]
        g[i] = (nodes[i].impurity - r_sub[i]) / max(leaves[i] - 1, 1)

    for i, pair in enumerate(kids):
        if pair is not None:
            refresh(i)
    steps = []
    while np.isfinite(g[-1]):  # the root, last in post-order, is not a leaf yet
        g_min = float(g.min())
        if g_min > alpha + 1e-15:
            break
        hit = np.flatnonzero(g <= g_min + 1e-12)
        stale: set[int] = set()
        for i in hit:
            g[first[i] : i + 1] = np.inf
            r_sub[i] = nodes[i].impurity
            leaves[i] = 1
            up = parent[i]
            while up >= 0 and up not in stale:
                stale.add(up)
                up = parent[up]
        for i in sorted(stale):
            if np.isfinite(g[i]):
                refresh(i)
        steps.append((g_min, [nodes[i] for i in hit]))
    for _, collapsed in steps:
        for node in collapsed:
            node.left = None
            node.right = None
            node.feature = None
            node.threshold = None
            node.members = None
    return steps


def alpha_sequence(tree: Tree) -> list[float]:
    """Non-decreasing weakest-link alphas from the full tree to the root."""
    alphas = [0.0]
    for g_min, _ in _prune_while(tree.root.clone(), math.inf):
        alphas.append(max(g_min, alphas[-1]))
    return alphas


def prune_at(tree: Tree, alpha: float) -> Tree:
    pruned = tree.clone()
    _prune_while(pruned.root, alpha)
    _assign_leaf_indices(pruned.root)
    pruned.pruning_alpha = alpha
    return pruned


def _fold_losses(tree: Tree, X: np.ndarray, y: np.ndarray, candidates: list[float]) -> np.ndarray:
    """Mean squared error on (X, y) of the tree pruned at each ascending
    candidate alpha.  Routes the rows once; collapsing a node then sets the
    prediction of every leaf under it.  Collapses the tree."""
    leaf = tree.apply(X)
    value = np.empty(tree.n_leaves)
    span: dict[int, tuple[int, int]] = {}  # id(node) -> its leaves' index range

    def visit(node: TreeNode) -> tuple[int, int]:
        if node.is_leaf:
            value[node.leaf_index] = node.value
            return node.leaf_index, node.leaf_index + 1
        first, _ = visit(node.left)
        _, end = visit(node.right)
        span[id(node)] = first, end
        return first, end

    visit(tree.root)
    steps = _prune_while(tree.root, math.inf)
    losses = np.empty(len(candidates))
    t = 0
    for ci, alpha in enumerate(candidates):
        while t < len(steps) and steps[t][0] <= alpha + 1e-15:
            for node in steps[t][1]:  # an ancestor comes after its descendants
                first, end = span[id(node)]
                value[first:end] = node.value
            t += 1
        losses[ci] = float(((value[leaf] - y) ** 2).mean())
    return losses


def _cv_losses(tree: Tree, data: DesignMatrix, folds: int) -> tuple[list[float], np.ndarray]:
    """Candidate alphas and their (used folds x candidates) validation
    losses.  The folds are contiguous row blocks; each fold tree is grown on
    a filter of one presort of all rows."""
    alphas = alpha_sequence(tree)
    candidates = sorted(
        {math.sqrt(a * b) for a, b in zip(alphas[:-1], alphas[1:])} | {alphas[-1]}
    )
    n = data.n_rows
    folds = min(folds, n)
    bounds = np.linspace(0, n, folds + 1).astype(int)
    cols = _Columns(data.X, data.categorical)
    order, ranks = cols.sort(np.arange(n), cols.numeric)  # positions in 0..n-1 are row ids
    losses = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo or n - (hi - lo) < 2 * tree.min_leaf:
            continue
        train = np.ones(n, dtype=bool)
        train[lo:hi] = False
        keep = np.flatnonzero(train[order])
        shape = len(order), n - (hi - lo)
        presort = order.ravel()[keep].reshape(shape), ranks.ravel()[keep].reshape(shape)
        fold_tree = _grow_tree(
            cols, data.y, np.flatnonzero(train), tree.max_depth, tree.min_leaf, tree.task, presort,
        )
        losses.append(_fold_losses(fold_tree, data.X[lo:hi], data.y[lo:hi], candidates))
    return candidates, np.array(losses).reshape(len(losses), len(candidates))


def prune_tree(tree: Tree, data: DesignMatrix, folds: int = 10) -> Tree:
    """Weakest-link pruning with the alpha picked by cross-validated
    squared-error loss; ties prefer the larger alpha (smaller tree)."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    candidates, fold_losses = _cv_losses(tree, data, folds)
    used_folds = len(fold_losses)
    if used_folds == 0:
        return prune_at(tree, 0.0)
    means = fold_losses.mean(axis=0)
    best = int(np.argmin(means))
    if used_folds > 1:
        se = float(fold_losses[:, best].std(ddof=1)) / math.sqrt(used_folds)
    else:
        se = 0.0
    # one-standard-error rule: the simplest subtree within noise of the best
    chosen = best
    for ci in range(len(candidates)):
        if means[ci] <= means[best] + se + 1e-12:
            chosen = max(chosen, ci)
    return prune_at(tree, candidates[chosen])
