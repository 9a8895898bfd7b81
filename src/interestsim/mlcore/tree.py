"""Decision trees: greedy growth, cost-complexity (weakest-link) pruning,
and one router for any list of trees.

Regression splits maximize variance reduction, classification splits Gini
decrease.  Ties go to the lowest feature index, then the lowest threshold
(numeric) or the smallest left prefix (categorical).  Classification
leaves store the positive-class fraction, so predictions are probabilities.

Growth presorts (SLIQ: Mehta, Agrawal & Rissanen 1996; CART: Breiman et
al. 1984).  A fit ranks each numeric column's values and sorts its rows
once, stably.  Each node owns a block of the sorted columns (per numeric
feature, its rows in value order and their ranks), which a split
partitions stably in place, so a child's order is the stable argsort of
its own rows.  Categorical columns are coded once per fit; a node sums its
targets per level with one bincount, in row order.  A node scans all its
numeric features in one pass (the cuts where the rank rises, inside the
min_leaf window) and all its categorical ones in another, with the
arithmetic of a feature-by-feature scan; the first best cut in (feature,
position) order wins, and a numeric/categorical tie goes to the lower
feature index.  The GBDT shares one presort across its stages, the
pruning folds filter the full one, and a forest that samples features
sorts its sample at each node (forest.py).

A tree is flat node arrays in pre-order: each node, then its left subtree,
then its right one.  A subtree is thus a contiguous index range, children
come after their parent, and the leaves in index order are the columns of
the leaf encoding.  One weakest-link collapse loop, ``_prune_while``,
serves ``alpha_sequence``, ``prune_at`` and the pruning cross-validation,
which routes each fold's validation rows once and replays the collapse
steps over the ascending candidate alphas.

``route`` serves single trees, forests, GBDTs and the leaf encoding.  It
joins the trees' arrays and moves a (rows x trees) matrix of node indices
down one level per pass, only the entries not yet at a leaf.  A pass costs
the same dozen numpy calls for one tree as for thirty, so the trees go
together: routed one at a time, a 30-tree GBDT predicted 200 rows slower
than a per-node recursion, and together three times faster or more.  Rows
go in blocks of ``_BLOCK``, which keeps a pass's arrays in cache: 30k rows
in one block took 1.6 times as long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix, check_width

_GAIN_EPS = 1e-12
_BLOCK = 1024  # rows routed together


@dataclass(eq=False)
class Tree:
    """A fitted tree as node arrays in pre-order; a categorical split's left
    set is its run of (``cat_node``, ``cat_value``) pairs, sorted."""

    feature: np.ndarray  # -1 at a leaf
    threshold: np.ndarray  # NaN at a categorical split and at a leaf
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    impurity: np.ndarray
    cat_node: np.ndarray
    cat_value: np.ndarray
    task: str  # "reg" or "clf"
    max_depth: int
    min_leaf: int
    n_features: int
    categorical: tuple[int, ...] = ()
    pruning_alpha: float | None = None

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    @property
    def leaf_index(self) -> np.ndarray:
        """Each leaf's number in pre-order (0..n_leaves-1), -1 at a split."""
        leaf = self.feature < 0
        return np.where(leaf, np.cumsum(leaf) - 1, -1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return route([self], check_width(X, self.n_features), "value")[:, 0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Dense leaf index (0..n_leaves-1) each row lands in."""
        return route([self], check_width(X, self.n_features), "leaf")[:, 0]


def route(trees: list[Tree], X: np.ndarray, attr: str) -> np.ndarray:
    """(rows, trees) matrix of the leaf each row of X reaches in each tree:
    its ``"value"``, or its ``"leaf"`` number among all the trees' leaves in
    order (for one tree, its leaf index).  A categorical value that no left
    set holds goes right."""
    if not trees:
        return np.empty((len(X), 0), dtype=np.float64 if attr == "value" else np.intp)
    sizes = [len(t.feature) for t in trees]
    offset = np.cumsum([0] + sizes)[:-1]
    feature, threshold, value, left, right = (
        np.concatenate([getattr(t, a) for t in trees])
        for a in ("feature", "threshold", "value", "left", "right")
    )
    # child[2i] is node i's right child, child[2i + 1] its left one
    child = (np.column_stack([right, left]) + np.repeat(offset, sizes)[:, None]).ravel()
    by_node = value if attr == "value" else np.cumsum(feature < 0) - 1
    # one membership table: a row per categorical split (row 0, all False, for
    # the numeric ones), a column per level some left set holds, one for the rest
    levels, level = np.unique(np.concatenate([t.cat_value for t in trees]), return_inverse=True)
    cat_node = np.concatenate([t.cat_node + o for t, o in zip(trees, offset)])
    splits, split = np.unique(cat_node, return_inverse=True)
    table = np.zeros((len(splits) + 1, len(levels) + 1), dtype=bool)
    table[split + 1, level] = True
    table = table.ravel()
    table_at = np.zeros(len(feature), dtype=np.intp)
    table_at[splits] = np.arange(1, len(splits) + 1) * (len(levels) + 1)
    cat_cols = np.unique(feature[splits])
    n_trees, p = len(trees), X.shape[1]
    out = np.empty((len(X), n_trees), dtype=by_node.dtype)
    for start in range(0, len(X), _BLOCK):
        Xb = X[start : start + _BLOCK]
        x_flat = Xb.ravel()
        if len(splits):  # each value's column in the table
            codes = np.zeros(Xb.shape, dtype=np.intp)
            at_level = np.searchsorted(levels, Xb[:, cat_cols])
            seen = levels[np.minimum(at_level, len(levels) - 1)] == Xb[:, cat_cols]
            codes[:, cat_cols] = np.where(seen, at_level, len(levels))
            codes = codes.ravel()
        node = np.tile(offset, len(Xb))
        active = np.flatnonzero(feature[node] >= 0)
        at, row = node[active], active // n_trees * p
        f = feature[at]
        while active.size:
            q = row + f
            go_left = x_flat[q] <= threshold[at]  # False at a categorical split
            if len(splits):
                go_left |= table[table_at[at] + codes[q]]
            at = child[2 * at + go_left]
            f = feature[at]
            leaf = f < 0
            if leaf.any():
                node[active[leaf]] = at[leaf]
                keep = np.flatnonzero(~leaf)
                active, at, f, row = active[keep], at[keep], f[keep], row[keep]
        out[start : start + len(Xb)] = by_node[node].reshape(len(Xb), n_trees)
    return out


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
) -> tuple[Tree, np.ndarray]:
    """Grow one tree on targets ``y`` over ``rows`` of ``cols.X``; the one
    entry for fit_tree, the forest, the GBDT and the pruning folds.

    Without a feature pool every node scans every feature, in its block of
    ``presort`` (``cols.sort`` of ``rows`` with the positions mapped to row
    ids, made here if not given), which this partitions in place.  With
    one, ``feature_pool(rng)`` draws each node's sorted feature sample and
    the node sorts those columns itself.  Nodes are appended in pre-order.
    Returns the tree and ``rows`` reordered so that each leaf's rows are
    contiguous, leaves in pre-order: leaf ``i`` holds the next ``n[i]``.
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

    nodes = []  # per node [feature, threshold, left, right, value, n, impurity], in pre-order
    cat_node, cat_value = [], []

    def grow(a: int, b: int, depth: int) -> int:
        """Append the node over idx[a:b], then its left and right subtrees."""
        i = len(nodes)
        node_rows = idx[a:b]
        yv = y[node_rows]
        n = b - a
        s = float(yv.sum())
        s2 = float((yv * yv).sum()) if task == "reg" else s
        node_impurity = _impurity(s, s2, n, task)
        node = [-1, math.nan, -1, -1, s / n, n, node_impurity]
        nodes.append(node)
        if depth >= max_depth or n < 2 * min_leaf:
            return i
        if feature_pool is not None:
            features = feature_pool(rng)  # drawn at a pure node too, as the stream expects
        if node_impurity <= _GAIN_EPS:
            return i
        if feature_pool is None:
            nums, cats = cols.numeric, cols.cats
            order, ranks = (buf[a * p : b * p].reshape(p, n) for buf in buffers)
            ys = y[order]
        else:
            nums, cats = features[~cols.is_cat[features]], features[cols.is_cat[features]]
            pos, ranks = cols.sort(node_rows, nums)
            order, ys = node_rows[pos], yv[pos]
        best = _best_split(
            cols, node_rows, yv, s, s2, node_impurity, nums, order, ranks, ys, cats, min_leaf, task
        )
        if best is None:
            return i
        _, j, thr, members = best
        node[0] = j
        x = cols.X[node_rows, j]
        if members is None:
            node[1] = thr
            go_left = x <= thr
        else:
            cat_node.extend([i] * len(members))
            cat_value.extend(members)
            go_left = np.isin(x, members)
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
        node[2] = grow(a, a + n_left, depth + 1)
        node[3] = grow(a + n_left, b, depth + 1)
        return i

    grow(0, len(idx), 0)
    return Tree(
        *(np.array(column) for column in zip(*nodes)),
        np.array(cat_node, dtype=np.intp), np.array(cat_value, dtype=np.float64),
        task, max_depth, min_leaf, cols.X.shape[1], cols.categorical,
    ), idx


def fit_tree(data: DesignMatrix, max_depth: int = 10, min_leaf: int = 1, task: str = "reg") -> Tree:
    """Greedy recursive partition; deterministic for fixed input."""
    cols = _Columns(data.X, data.categorical)
    return _grow_tree(cols, data.y, np.arange(data.n_rows), max_depth, min_leaf, task)[0]


# -- cost-complexity pruning ----------------------------------------------


def _subtree_end(tree: Tree) -> np.ndarray:
    """One past the last node of each node's subtree: node i's subtree is
    the index range [i, end[i])."""
    end = list(range(1, len(tree.feature) + 1))
    right = tree.right.tolist()
    for i in reversed(range(len(end))):  # children before parents
        if right[i] >= 0:
            end[i] = end[right[i]]
    return np.array(end, dtype=np.intp)


def _prune_while(tree: Tree, alpha: float) -> list[tuple[float, np.ndarray]]:
    """Weakest-link collapse steps while the smallest g is <= alpha, with
    g = (R(node) - R(subtree)) / (leaves(subtree) - 1) on each split, R the
    impurity.  Each step collapses every node whose g is within 1e-12 of the
    smallest, then recomputes only their ancestors, adding left before right
    as a full pass does, so every g is the value a full pass gives.  Returns
    each step's smallest g and the nodes it collapsed, in descending index
    order (children before parents); the tree is not changed."""
    left, right, impurity = tree.left.tolist(), tree.right.tolist(), tree.impurity.tolist()
    end = _subtree_end(tree).tolist()
    internal = np.flatnonzero(tree.feature >= 0)
    parent = np.full(len(left), -1)
    parent[tree.left[internal]] = parent[tree.right[internal]] = internal
    parent = parent.tolist()
    r_sub = list(impurity)
    leaves = [1] * len(left)
    g = np.full(len(left), np.inf)  # finite on the internal nodes left in the tree

    def refresh(i: int) -> None:
        r_sub[i] = r_sub[left[i]] + r_sub[right[i]]
        leaves[i] = leaves[left[i]] + leaves[right[i]]
        g[i] = (impurity[i] - r_sub[i]) / max(leaves[i] - 1, 1)

    for i in internal[::-1].tolist():
        refresh(i)
    steps = []
    while np.isfinite(g[0]):  # the root is not a leaf yet
        g_min = float(g.min())
        if g_min > alpha + 1e-15:
            break
        hit = np.flatnonzero(g <= g_min + 1e-12)[::-1]
        stale: set[int] = set()
        for i in hit.tolist():
            g[i : end[i]] = np.inf
            r_sub[i] = impurity[i]
            leaves[i] = 1
            up = parent[i]
            while up >= 0 and up not in stale:
                stale.add(up)
                up = parent[up]
        for i in sorted(stale, reverse=True):
            if np.isfinite(g[i]):
                refresh(i)
        steps.append((g_min, hit))
    return steps


def alpha_sequence(tree: Tree) -> list[float]:
    """Non-decreasing weakest-link alphas from the full tree to the root."""
    alphas = [0.0]
    for g_min, _ in _prune_while(tree, math.inf):
        alphas.append(max(g_min, alphas[-1]))
    return alphas


def prune_at(tree: Tree, alpha: float) -> Tree:
    """The tree with every weakest link up to alpha collapsed: the nodes
    still reachable, renumbered in pre-order."""
    steps = _prune_while(tree, alpha)
    collapsed = np.concatenate([hit for _, hit in steps] + [np.empty(0, dtype=np.intp)])
    size = len(tree.feature)
    # a node is dropped if it lies strictly inside a collapsed subtree
    ends = _subtree_end(tree)[collapsed]
    inside = np.bincount(collapsed + 1, minlength=size + 1) - np.bincount(ends, minlength=size + 1)
    keep = np.cumsum(inside[:size]) == 0
    split = keep & (tree.feature >= 0)
    split[collapsed] = False
    new = np.cumsum(keep) - 1
    pair = split[tree.cat_node]
    return Tree(
        np.where(split, tree.feature, -1)[keep],
        np.where(split, tree.threshold, math.nan)[keep],
        np.where(split, new[tree.left], -1)[keep],
        np.where(split, new[tree.right], -1)[keep],
        tree.value[keep], tree.n[keep], tree.impurity[keep],
        new[tree.cat_node[pair]], tree.cat_value[pair],
        tree.task, tree.max_depth, tree.min_leaf, tree.n_features, tree.categorical, alpha,
    )


def _fold_losses(tree: Tree, X: np.ndarray, y: np.ndarray, candidates: list[float]) -> np.ndarray:
    """Mean squared error on (X, y) of the tree pruned at each ascending
    candidate alpha.  Routes the rows once; collapsing a node then sets the
    prediction of every leaf under it."""
    leaf = tree.apply(X)
    is_leaf = tree.feature < 0
    value = tree.value[is_leaf]  # by leaf number
    # each node's leaves are the numbers [first[i], first[end[i]])
    first = np.append(np.cumsum(is_leaf) - is_leaf, tree.n_leaves)
    last = first[_subtree_end(tree)]
    steps = _prune_while(tree, math.inf)
    losses = np.empty(len(candidates))
    t = 0
    for ci, alpha in enumerate(candidates):
        while t < len(steps) and steps[t][0] <= alpha + 1e-15:
            for i in steps[t][1]:  # an ancestor comes after its descendants
                value[first[i] : last[i]] = tree.value[i]
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
        fold_tree, _ = _grow_tree(
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
    se = float(fold_losses[:, best].std(ddof=1)) / math.sqrt(used_folds) if used_folds > 1 else 0.0
    # one-standard-error rule: the simplest subtree within noise of the best
    chosen = max(ci for ci in range(len(candidates)) if means[ci] <= means[best] + se + 1e-12)
    return prune_at(tree, candidates[chosen])
