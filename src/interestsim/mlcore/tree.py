"""Decision trees: greedy growth, cost-complexity (weakest-link) pruning,
and one router for any list of trees.

Regression splits maximize variance reduction, classification splits Gini
decrease.  Ties go to the lowest feature index, then the lowest threshold
(numeric) or the smallest left prefix (categorical).  Classification
leaves store the positive-class fraction, so predictions are probabilities.

Growth is breadth-first (SLIQ: Mehta, Agrawal & Rissanen 1996; XGBoost's
exact greedy algorithm: Chen & Guestrin 2016; CART: Breiman et al. 1984).
``_grow_trees`` grows a batch of trees together, one pass per depth over
the open nodes of them all.  A fit ranks each numeric column's values and,
without feature sampling, sorts each sample's rows once per column,
stably (the presort).  A depth holds each open node's block of the sorted
columns (per numeric feature, its positions in value order and their
ranks), one node after another; one gather partitions every split node's
block stably into its open children's, so a child's order is the stable
argsort of its own rows.  A forest that samples features sorts only the
sampled columns of each open node, once per depth.  The numeric scan pads
the block rows of nodes of similar size to one width, and one cumsum per
row sums the targets from the row's start, as a node alone sums them; a
large node is scanned alone, in place.  Categorical columns are coded
once per fit, and one bincount per depth sums the targets per (node,
level), in row order.  So every sum is the one a per-node scan makes, and
the trees do not depend on their batch.  A node's first best cut in
(feature, position) order wins, and a numeric/categorical tie goes to the
lower feature index.  Nodes are numbered as they are made and renumbered
in pre-order at the end.  The GBDT shares one presort across its stages,
and the pruning folds filter the full one and grow together.

Breadth-first growth pays where a depth holds many nodes: a depth pass
costs as many numpy calls as several per-node scans.  On the benchmark's
model design (1,400 rows, 15 columns, one CPU of a 2-vCPU VM), against
node-by-node growth, the 24-tree forest took 0.34 of the time, the pruned
tree with its folds 0.7-0.8 and the depth-3 GBDT 1.35; on 49,000 rows
each of the four took 1.0-1.15 times as long.

A tree is flat node arrays in pre-order: each node, then its left subtree,
then its right one.  A subtree is thus a contiguous index range, children
come after their parent, and the leaves in index order are the columns of
the leaf encoding.  One weakest-link collapse loop, ``_prune_while``,
serves ``alpha_sequence``, ``prune_at`` and the pruning cross-validation,
which routes each fold's validation rows once and replays the collapse
steps over the ascending candidate alphas.

``route`` serves single trees, forests, GBDTs and the leaf encoding.  It
joins the trees' arrays and moves a (rows x trees) matrix of node indices
down one level per pass.  A leaf is its own child, so every entry moves
on every pass until all are at leaves; dropping the arrived ones after
each pass cost more than it saved (30-tree depth-3 GBDT: 2.8 -> 2.1 ms on
2,048 rows, 40-42 -> 30 ms on 30k; 24-tree forest on 30k: 107-110 -> 70-72
ms).  A pass costs the same dozen numpy calls for one tree as for thirty,
so the trees go together: routed one at a time, a 30-tree GBDT predicted
200 rows slower than a per-node recursion, and together three times
faster or more.  Rows go in blocks of ``_BLOCK``, which keeps a pass's
arrays in cache: 30k rows in one block took 1.6 times as long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix, check_width

_GAIN_EPS = 1e-12
_BLOCK = 1024  # rows routed together
_BATCH_ROWS = 1 << 16  # rows of the trees grown together, at most
_GROUP_CELLS = 1 << 14  # cells of the nodes a numeric scan pads to one width, at most


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
    is_leaf = feature < 0
    # child[2i] is node i's right child, child[2i + 1] its left one; a leaf reads
    # column 0, and its NaN threshold and table row 0 send it right: to itself
    child = (np.column_stack([right, left]) + np.repeat(offset, sizes)[:, None]).ravel()
    child.reshape(-1, 2)[is_leaf] = np.flatnonzero(is_leaf)[:, None]
    feat = np.where(is_leaf, 0, feature)
    by_node = value if attr == "value" else np.cumsum(is_leaf) - 1
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
        at = np.tile(offset, len(Xb))
        row = np.repeat(np.arange(len(Xb)) * p, n_trees)
        while not is_leaf[at].all():
            q = row + feat[at]
            go_left = x_flat[q] <= threshold[at]  # False at a categorical split and at a leaf
            if len(splits):
                go_left |= table[table_at[at] + codes[q]]
            at = child[2 * at + go_left]
        out[start : start + len(Xb)] = by_node[at].reshape(len(Xb), n_trees)
    return out


def _impurity(s: np.ndarray, s2: np.ndarray, n: np.ndarray, task: str) -> np.ndarray:
    """Each node's impurity from its target sum, sum of squares and rows."""
    if task == "reg":
        return np.maximum(s2 - s * s / n, 0.0)
    return 2.0 * s * (n - s) / n  # Gini mass for binary s = sum(y)


def _sums(yv: np.ndarray, sizes: np.ndarray, task: str) -> tuple[np.ndarray, np.ndarray]:
    """Target sum and sum of squares of each node, whose targets are the
    next ``sizes[i]`` of ``yv``.  One ``sum`` per node, as a node alone is
    summed: a segmented reduction (``np.add.reduceat``, a cumsum's last
    entry) rounds differently."""
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    s = np.array([yv[a:b].sum() for a, b in spans])
    if task != "reg":
        return s, s
    y2 = yv * yv
    return s, np.array([y2[a:b].sum() for a, b in spans])


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


def _groups(n: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """Nodes grouped for padding to one width: by decreasing size, a group
    takes the next node while its first node is at most twice as large and
    the group holds at most ``_GROUP_CELLS`` cells (``rows[i]`` block rows
    of ``n[i]`` each).  The padded rows hold at most twice the cells of the
    rows, and a large node is a group of its own, scanned in place."""
    if 2 * n.min() >= n.max() and rows.sum() * n.max() <= _GROUP_CELLS:
        return [np.arange(len(n))]
    by_size = np.argsort(-n, kind="stable")
    heads, top, cells = [], 0, 0
    for i, (size, count) in enumerate(zip(n[by_size].tolist(), rows[by_size].tolist())):
        cells += top * count
        if not i or 2 * size < top or cells > _GROUP_CELLS:
            heads.append(i)
            top, cells = size, size * count
    return [by_size[a:b] for a, b in zip(heads, heads[1:] + [len(n)])]


def _windows(buffer: np.ndarray, starts: np.ndarray, width: int, spaced: bool) -> np.ndarray:
    """The ``width`` entries of ``buffer`` from each start, as rows: a view
    when the starts are evenly spaced (``spaced``: a node's block), else a
    copy."""
    step = int(starts[1] - starts[0]) if len(starts) > 1 else 0
    if spaced and (np.diff(starts) == step).all():
        return np.ndarray(
            (len(starts), width), buffer.dtype, buffer, int(starts[0]) * buffer.itemsize,
            (step * buffer.itemsize, buffer.itemsize),
        )
    windows = np.ndarray((len(buffer) - width + 1, width), buffer.dtype, buffer, strides=(buffer.itemsize,) * 2)
    return windows[starts]


def _first_best(node: np.ndarray, gain: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per node 0..m-1, the largest gain of its candidates and the index of
    the first candidate that reaches it (-inf and -1 for a node without
    candidates).  A node's candidates are contiguous, in its scan order."""
    best, which = np.full(m, -np.inf), np.full(m, -1)
    if len(node):
        heads = np.concatenate(([True], node[1:] != node[:-1])).nonzero()[0]
        top = np.maximum.reduceat(gain, heads)
        hit = (gain == top.repeat(np.diff(np.append(heads, len(gain))))).nonzero()[0]
        best[node[heads]], which[node[heads]] = top, hit[hit.searchsorted(heads)]
    return best, which


def _numeric_cuts(yp, buffers, start, scan, stats, min_leaf, task):
    """The best numeric cut of each open node: (gain, column, buffer
    position of its last left row), gain -inf and column -1 where a node
    has none.

    For each open node i and numeric column f that ``scan[i, f]`` marks,
    the buffers hold a block row from ``start[i, f]``: the node's n_i
    positions in stable order of the column's value (``buffers[0]``,
    their targets in ``yp``) and the values' ranks (``buffers[1]``);
    slack follows the last row.  The rows of a group of nodes are padded
    to one width, reading into the next rows or the slack, and each sums
    its targets from its start with one cumsum, as a node alone does.  A
    cut falls where the rank rises; ``stats`` are the nodes' rows, target
    sums, sums of squares and impurities, and a node's first best cut in
    (column, position) order wins.
    """
    n, s, s2, parent = stats
    order, ranks = buffers
    m, lo = len(n), min_leaf - 1
    best, column, where = np.full(m, -np.inf), np.full(m, -1), np.zeros(m, dtype=np.intp)
    for group in _groups(n, scan.sum(axis=1)):
        i, f = scan[group].nonzero()
        if not len(i):
            continue
        node = group[i]
        row_start = start[node, f]
        # the cut after sorted position k leaves k + 1 rows on the left; both
        # sides need min_leaf rows, so k runs over [lo, n - min_leaf)
        alone = len(group) == 1  # its rows are one block, its stats scalars
        width = int(n[group].max()) - min_leaf
        rk = _windows(ranks, row_start, width + 1, alone)
        cut = rk[:, lo:width] < rk[:, lo + 1 :]
        if not alone:  # shorter rows end before the width
            short = int(n[group].min()) - min_leaf - lo
            cut[:, short:] &= np.arange(short + lo, width) < (n[node] - min_leaf)[:, None]
        row, k = np.divmod(cut.ravel().nonzero()[0], width - lo)
        k += lo
        at = row * width + k
        ys = yp[_windows(order, row_start, width, alone)]
        cs = ys.cumsum(axis=1).ravel()[at]
        cs2 = (ys * ys).cumsum(axis=1).ravel()[at] if task == "reg" else cs
        c = group[0] if alone else node[row]
        gain = _gains(parent[c], s[c], s2[c], n[c], cs, (k + 1).astype(np.float64), cs2, task)
        if alone:
            if len(gain):
                w = gain.argmax()
                best[c], column[c], where[c] = gain[w], f[row[w]], row_start[row[w]] + k[w]
            continue
        top, which = _first_best(c, gain, m)
        won = group[which[group] >= 0]
        w = which[won]
        best[won], column[won], where[won] = top[won], f[row[w]], row_start[row[w]] + k[w]
    return best, column, where


def _ranges(first: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges [first[i], first[i] + size[i]), one after another."""
    return np.arange(size.sum()) + (first - (size.cumsum() - size)).repeat(size)


def _sampled_blocks(cols, pos, r, n, scan):
    """A depth's block rows for sampled columns: per open node (its
    ``n[i]`` entries of ``pos`` in turn, rows ``r``) and each numeric
    column ``scan`` marks, its positions in stable order of value and the
    values' ranks, sorted now; returns the buffers, with slack, and the
    (node, column) table of the rows' starts, as ``_numeric_cuts`` reads
    them."""
    node, f = scan.nonzero()
    size = n[node]
    key = np.arange(len(node)).repeat(size)  # each entry's block row, then its sort key
    at = _ranges((n.cumsum() - n)[node], size)  # each entry's place in pos
    rank = (f * cols.ranks.shape[1])[key]
    rank += r[at]
    rank = cols.ranks.ravel()[rank]
    # (row, rank, place) packed in one integer is unique, so one plain sort
    # orders each row by value and ties by position, as a stable sort does;
    # in place, as the arrays are as long as the depth's sampled cells
    shift, rank_bits = len(pos).bit_length(), cols.ranks.shape[1].bit_length()
    if len(node).bit_length() + rank_bits + shift > 63:
        raise ValueError("too many rows to sort the sampled columns in one pass")
    key <<= rank_bits + shift
    rank <<= shift
    key |= rank
    key |= at
    key.sort()
    buffers = np.zeros((2, len(key) + n.max()), dtype=np.intp)
    np.bitwise_and(key, (1 << shift) - 1, out=at)
    np.take(pos, at, out=buffers[0, : len(key)])
    key >>= shift
    np.bitwise_and(key, (1 << rank_bits) - 1, out=buffers[1, : len(key)])
    buffers = tuple(buffers)
    table = np.zeros(scan.shape, dtype=np.intp)
    table[node, f] = size.cumsum() - size
    return buffers, table


def _categorical_cuts(cols, yr, r, stats, allowed, min_leaf, task):
    """The best categorical cut of each open node: (gain, feature, left),
    gain -inf and feature -1 where a node has none, ``left[i, level]``
    marking node i's left levels (global codes).  ``r`` holds the open
    nodes' rows, node after node, and ``yr`` their targets;
    ``allowed[i]`` marks the categorical columns node i searches (None:
    all).  A node's first best cut in (column, cut) order wins."""
    n, s, s2, parent = stats
    m, nc, n_levels = len(n), len(cols.cats), len(cols.level_values)
    # per (node, level) of every column searched: rows and target sums, each
    # summed in row order
    if allowed is None:
        bins = (np.arange(m).repeat(n) * n_levels + cols.codes[:, r]).ravel()
        weights = np.concatenate([yr] * nc)
    else:
        i, c = allowed.nonzero()
        t = _ranges((n.cumsum() - n)[i], n[i])  # the searched entries, by (node, column)
        bins = (i * n_levels).repeat(n[i]) + cols.codes[c.repeat(n[i]), r[t]]
        weights = yr[t]
    counts = np.bincount(bins, minlength=m * n_levels)
    present = counts.nonzero()[0]
    sums = [np.bincount(bins, weights, len(counts))[present], counts[present].astype(np.float64)]
    if task == "reg":
        sums.append(np.bincount(bins, weights * weights, len(counts))[present])
    node, level = np.divmod(present, n_levels)
    # per (node, column), levels in order of mean target (ties by value), and
    # a cut after each one but the last, cumulated in that order
    group = node * nc + cols.level_row[level]  # ascending
    rank = np.lexsort((cols.level_values[level], sums[0] / sums[1], group))
    per_group = np.bincount(group, minlength=m * nc)
    pos = np.arange(len(group)) - (per_group.cumsum() - per_group)[group]
    width = int(per_group.max())
    at = group * width + pos
    cut = at[pos < per_group[group] - 1]
    padded = np.zeros((len(sums), m * nc * width))
    padded[:, at] = np.array(sums)[:, rank]
    cs, cn, *cs2 = padded.reshape(len(sums), -1, width).cumsum(axis=2).reshape(len(sums), -1)[:, cut]
    cs2 = cs2[0] if cs2 else cs
    c, column = np.divmod(cut // width, nc)
    keep = (cn >= min_leaf) & (n[c] - cn >= min_leaf)
    cut, c, column = cut[keep], c[keep], column[keep]
    gain = _gains(parent[c], s[c], s2[c], n[c], cs[keep], cn[keep], cs2[keep], task)
    best, which = _first_best(c, gain, m)
    # each node's left set: its column's levels up to the cut, in rank order
    chosen = np.append(cut, -1)[which]
    members = rank[(group == chosen[node] // width) & (at <= chosen[node])]
    left = np.zeros((m, n_levels), dtype=bool)
    left[node[members], level[members]] = True
    return best, np.append(cols.cats[column], -1)[which], left


def _check_growth(task: str, min_leaf: int) -> None:
    if task not in ("reg", "clf"):
        raise ValueError(f"task must be 'reg' or 'clf', got {task!r}")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")


def _grow_trees(
    cols: _Columns, y: np.ndarray, samples: list[np.ndarray], max_depth: int, min_leaf: int, task: str,
    presorts: list[tuple[np.ndarray, np.ndarray]] | None = None, pool: int | None = None, rngs=None,
) -> list[tuple[Tree, np.ndarray]]:
    """Grow one tree on targets ``y`` over each sample (row ids of
    ``cols.X``, repeats allowed), depth by depth; the one grower of
    fit_tree, the forest, the GBDT and the pruning folds.  Returns per
    sample the tree and the leaf each of its entries lands in.

    ``presorts[i]``, if given, is ``cols.sort`` of sample i; it is only
    read.  Trees whose samples hold at most ``_BATCH_ROWS`` rows in all
    grow together, and a batch makes one pass per depth over the open
    nodes of all its trees, a node being open if it lies above
    ``max_depth``, has 2 * ``min_leaf`` rows or more and a positive
    impurity.  A pass holds the open nodes' rows and their blocks of the
    presorts, one node after another, and makes one numeric scan and one
    categorical scan over them all, then one gather that partitions the
    split nodes' rows and blocks stably into their open children's.
    Every sum is the one a node alone makes, so a tree does not depend on
    the batch it grows in.  With ``pool``, an open node searches only that
    many features, drawn from its tree's generator in ``rngs`` once per
    depth for the tree's open nodes in left-to-right order: the i-th
    node's pool is the columns of the ``pool`` smallest entries in row i
    of one uniform (nodes x features) matrix.  Each pass then sorts the
    sampled columns of its open nodes, and no presort is made.
    """
    _check_growth(task, min_leaf)
    samples = [np.asarray(rows) for rows in samples]
    if any(len(rows) == 0 for rows in samples):
        raise ValueError("cannot fit a tree on empty data")
    if presorts is None and pool is None:
        presorts = [cols.sort(rows, cols.numeric) for rows in samples]
    presorts = presorts if presorts is not None else [None] * len(samples)
    rngs = rngs if rngs is not None else [None] * len(samples)
    grown, first = [], 0
    while first < len(samples):
        last, total = first + 1, len(samples[first])
        while last < len(samples) and total + len(samples[last]) <= _BATCH_ROWS:
            total += len(samples[last])
            last += 1
        grown += _grow_batch(
            cols, y, samples[first:last], presorts[first:last], max_depth, min_leaf, task, pool, rngs[first:last]
        )
        first = last
    return grown


def _grow_batch(cols, y, samples, presorts, max_depth, min_leaf, task, pool, rngs):
    """The trees of ``_grow_trees`` for one batch of samples."""
    p = len(cols.numeric)
    feature_of = np.append(cols.numeric, -1)  # each numeric column's feature; -1: none
    rows = np.concatenate(samples)  # every position's row id
    yp = y[rows]
    n = np.array([len(rows) for rows in samples])
    offset = n.cumsum() - n
    if pool is None and len(samples) == 1 and p:  # a lone root reads only its own block
        buffers = presorts[0][0].reshape(-1), presorts[0][1].reshape(-1)
    elif pool is None:
        # the open nodes' blocks of every numeric column, each node's
        # positions in stable order of value and the values' ranks, and
        # slack for padded reads past the last block
        buffers = np.zeros((2, p * len(rows) + n.max()), dtype=np.intp)
        for (order, ranks), o, size in zip(presorts, offset, n):
            cells = slice(o * p, (o + size) * p)
            buffers[0, cells] = order.ravel()
            buffers[0, cells] += o
            buffers[1, cells] = ranks.ravel()
        buffers = tuple(buffers)
    side = np.zeros(len(rows), dtype=np.int8)
    leaf = np.zeros(len(rows), dtype=np.intp)  # each position's node, at the end its leaf
    pos = np.arange(len(rows))  # the open nodes' positions, node after node
    s, s2 = _sums(yp, n, task)
    impurity = _impurity(s, s2, n, task)
    tree = np.arange(len(n))
    made = [(n, s, impurity, tree)]  # per depth, its nodes in the order made
    links, cat_pairs = [], []  # per depth: (split ids, feature, threshold, first child id)
    ids = key = tree  # key: rank in (tree, left to right) order
    count, depth = len(n), 0
    keep = (n >= 2 * min_leaf) & (impurity > _GAIN_EPS)
    while depth < max_depth and keep.any():
        if depth:
            # the open children's positions, and without a pool their blocks:
            # all left children's, then all right children's, with slack
            ids, tree = kid[keep], tree[keep]
            if pool is None:
                open_kid = np.zeros((len(j), 2), dtype=bool)
                open_kid[split] = keep.reshape(2, -1).T
                side[pos] = np.where(open_kid[node_of, code - 1], code, 0)  # code 0 reads column 1: False
                in_buffer = side[buffers[0][: len(pos) * p]]
                gather = np.concatenate(((in_buffer == 1).nonzero()[0], (in_buffer == 2).nonzero()[0]))
                gather = np.concatenate((gather, np.zeros(len(pos), dtype=np.intp)))
                buffers = buffers[0][gather], buffers[1][gather]
            else:
                rank = np.empty(len(key), dtype=np.intp)
                rank[key.argsort()] = np.arange(len(key))
                key = np.concatenate((2 * rank[split], 2 * rank[split] + 1))[keep]
            pos = child_pos[keep.repeat(n)]
            n, s, s2, impurity = n[keep], s[keep], s2[keep], impurity[keep]
        m = len(n)
        node_of = np.arange(m).repeat(n)
        r = rows[pos]
        if pool is None:
            scan, allowed = np.ones((m, p), dtype=bool), None
            start = ((n.cumsum() - n) * p)[:, None] + np.arange(p) * n[:, None]
        else:
            drawn = np.zeros((m, cols.X.shape[1]), dtype=bool)
            by_key = key.argsort()
            for t in np.unique(tree):  # each tree's open nodes, left to right
                nodes = by_key[tree[by_key] == t]
                picks = rngs[t].random((len(nodes), drawn.shape[1])).argsort(axis=1, kind="stable")[:, :pool]
                drawn[nodes[:, None], picks] = True
            scan, allowed = drawn[:, cols.numeric], drawn[:, cols.cats]
            buffers, start = _sampled_blocks(cols, pos, r, n, scan)

        # each node's first best cut in (feature, position) order: a numeric
        # and a categorical cut of equal gain go to the lower feature index.
        # Zero-gain splits are allowed (an XOR pattern needs one at the root);
        # pruning removes the useless ones afterwards
        stats = n, s, s2, impurity
        gain, f, where = _numeric_cuts(yp, buffers, start, scan, stats, min_leaf, task)
        j = feature_of[f]
        thr = np.full(m, np.nan)
        on_cat = np.zeros(m, dtype=bool)
        if len(cols.cats) and (allowed is None or allowed.any()):
            c_gain, c_j, left = _categorical_cuts(cols, yp[pos], r, stats, allowed, min_leaf, task)
            on_cat = (c_gain > gain) | ((c_gain == gain) & (c_j < j))
            gain, j = np.where(on_cat, c_gain, gain), np.where(on_cat, c_j, j)
        use = gain >= -_GAIN_EPS * np.maximum(impurity, 1.0)
        if not use.any():
            break
        split = use.nonzero()[0]
        j[~use] = -1
        on_num = (use & ~on_cat).nonzero()[0]
        below = cols.X[rows[buffers[0][where[on_num]]], j[on_num]]
        above = cols.X[rows[buffers[0][where[on_num] + 1]], j[on_num]]
        mid = (below + above) / 2.0
        thr[on_num] = np.where(mid >= above, below, mid)  # a midpoint rounded up to the right value
        on_cat &= use
        if on_cat.any():
            members = (left & on_cat[:, None]).nonzero()
            cat_pairs.append((ids[members[0]], cols.level_values[members[1]]))

        # each split node's positions, stably into its children's: the left
        # children, then the right ones, each in their parents' order
        jr = j.repeat(n)
        go_left = cols.X[r, jr] <= thr.repeat(n)  # False at a categorical split
        if on_cat.any():
            at = on_cat.repeat(n).nonzero()[0]
            go_left[at] = left[node_of[at], cols.codes[cols.row_of[jr[at]], r[at]]]
        code = (jr >= 0) * (2 - go_left)  # 1 left, 2 right, 0 at an unsplit node
        child_pos = np.concatenate((pos[code == 1], pos[code == 2]))
        n_left = np.add.reduceat(code == 1, (n.cumsum() - n)[split])
        links.append((ids[split], j[split], thr[split], count))
        n = np.concatenate((n_left, n[split] - n_left))
        tree = np.concatenate((tree[split], tree[split]))
        kid = np.arange(count, count + len(n))
        count += len(n)
        leaf[child_pos] = kid.repeat(n)
        s, s2 = _sums(yp[child_pos], n, task)
        impurity = _impurity(s, s2, n, task)
        made.append((n, s, impurity, tree))
        keep = (n >= 2 * min_leaf) & (impurity > _GAIN_EPS)
        depth += 1

    # ids in the order made to pre-order within each tree: a left child
    # follows its parent, a right child follows its sibling's subtree
    n, s, impurity, tree = (np.concatenate(a) for a in zip(*made))
    kids = [first + np.arange(len(parent)) for parent, _, _, first in links]  # left children
    size = np.ones(len(n), dtype=np.intp)
    for (parent, *_), left in zip(reversed(links), reversed(kids)):
        size[parent] += size[left] + size[left + len(left)]
    pre = np.zeros(len(n), dtype=np.intp)
    feature, threshold = np.full(len(n), -1), np.full(len(n), np.nan)
    left_at, right_at = np.full(len(n), -1), np.full(len(n), -1)
    for (parent, j, thr, _), left in zip(links, kids):
        right = left + len(left)
        pre[left] = pre[parent] + 1
        pre[right] = pre[left] + size[left]
        feature[parent], threshold[parent], left_at[parent], right_at[parent] = j, thr, pre[left], pre[right]
    cat_node = np.concatenate([a for a, _ in cat_pairs] + [np.empty(0, dtype=np.intp)])
    cat_value = np.concatenate([v for _, v in cat_pairs] + [np.empty(0)])
    by_node = np.lexsort((cat_value, pre[cat_node]))
    cat_node, cat_value = cat_node[by_node], cat_value[by_node]
    grown = []
    for t in range(len(samples)):
        nodes = (tree == t).nonzero()[0] if len(samples) > 1 else slice(None)
        arrays = []
        for a in (feature, threshold, left_at, right_at, s / n, n, impurity):
            arrays.append(np.empty_like(a[nodes]))
            arrays[-1][pre[nodes]] = a[nodes]
        pairs = tree[cat_node] == t
        grown.append((Tree(
            *arrays, pre[cat_node[pairs]], cat_value[pairs],
            task, max_depth, min_leaf, cols.X.shape[1], cols.categorical,
        ), pre[leaf[offset[t] : offset[t] + len(samples[t])]]))
    return grown


def fit_tree(data: DesignMatrix, max_depth: int = 10, min_leaf: int = 1, task: str = "reg") -> Tree:
    """Greedy partition, depth by depth; deterministic for fixed input."""
    cols = _Columns(data.X, data.categorical)
    return _grow_trees(cols, data.y, [np.arange(data.n_rows)], max_depth, min_leaf, task)[0][0]


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
    losses.  The folds are contiguous row blocks; the fold trees grow
    together, each on a filter of one presort of all rows."""
    alphas = alpha_sequence(tree)
    candidates = sorted(
        {math.sqrt(a * b) for a, b in zip(alphas[:-1], alphas[1:])} | {alphas[-1]}
    )
    n = data.n_rows
    folds = min(folds, n)
    bounds = np.linspace(0, n, folds + 1).astype(int)
    cols = _Columns(data.X, data.categorical)
    order, ranks = cols.sort(np.arange(n), cols.numeric)  # positions in 0..n-1 are row ids
    used, samples, presorts = [], [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo or n - (hi - lo) < 2 * tree.min_leaf:
            continue
        train = np.ones(n, dtype=bool)
        train[lo:hi] = False
        keep = np.flatnonzero(train[order])
        shape = len(order), n - (hi - lo)
        # the fold's presort: the rows it keeps, as positions among them
        position = np.cumsum(train) - 1
        presorts.append((position[order.ravel()[keep]].reshape(shape), ranks.ravel()[keep].reshape(shape)))
        samples.append(np.flatnonzero(train))
        used.append((lo, hi))
    grown = _grow_trees(cols, data.y, samples, tree.max_depth, tree.min_leaf, tree.task, presorts)
    losses = [
        _fold_losses(fold_tree, data.X[lo:hi], data.y[lo:hi], candidates)
        for (fold_tree, _), (lo, hi) in zip(grown, used)
    ]
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
