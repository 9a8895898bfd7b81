"""Fifteen-column feature records for ordered (target, helper) user pairs.

The target plays the cold-start role: its day-0 behavior is masked from
every feature, including the population statistics behind the helper's
individuality, so day-0 labels can never leak into the inputs.  The
helper is the active side and contributes its day-0 profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Window, _Table, active_users, pair_entries, write_csv
from .mlcore.data import DesignMatrix
from .profiling import (
    KINDS,
    build_ptp,
    build_rtp,
    row_products,
    tag_similarity,
    video_similarity,
    _window_population,
)

PAST_WINDOW: Window = (-30, -1)
DAY0: Window = (0, 0)

GENDER_PAIR_CODES = {"MM": 0.0, "MF": 1.0, "FF": 2.0}

FEATURE_COLUMNS = (
    "gender_pair",
    "age_target",
    "age_helper",
    "city_target",
    "city_helper",
    "same_city",
    "friendship",
    "common_friend_ratio",
    "common_groups",
    "msg_count_month",
    "msg_days_month",
    "past_sim_month",
    "has_past",
    "helper_individuality",
    "has_individuality",
)

CATEGORICAL_COLUMNS = ("gender_pair", "city_target", "city_helper")

FEATURE_CATEGORIES = {
    "demographic": (
        "gender_pair",
        "age_target",
        "age_helper",
        "city_target",
        "city_helper",
        "same_city",
    ),
    "social": (
        "friendship",
        "common_friend_ratio",
        "common_groups",
        "msg_count_month",
        "msg_days_month",
    ),
    "interest": (
        "past_sim_month",
        "has_past",
        "helper_individuality",
        "has_individuality",
    ),
}


@dataclass(frozen=True)
class FeatureRecord:
    gender_pair: str  # canonical unordered: MM / MF / FF
    age_target: int
    age_helper: int
    city_target: int
    city_helper: int
    same_city: bool
    friendship: bool
    common_friend_ratio: float
    common_groups: int
    msg_count_month: int
    msg_days_month: int
    past_sim_month: float
    has_past: bool
    helper_individuality: float
    has_individuality: bool

    def as_row(self) -> list[float]:
        return [
            GENDER_PAIR_CODES[self.gender_pair],
            float(self.age_target),
            float(self.age_helper),
            float(self.city_target),
            float(self.city_helper),
            float(self.same_city),
            float(self.friendship),
            self.common_friend_ratio,
            float(self.common_groups),
            float(self.msg_count_month),
            float(self.msg_days_month),
            self.past_sim_month,
            float(self.has_past),
            self.helper_individuality,
            float(self.has_individuality),
        ]


def canonical_gender_pair(g1: str, g2: str) -> str:
    n_f = (g1 == "F") + (g2 == "F")
    return ("MM", "MF", "FF")[n_f]


def common_friend_ratio(c: Corpus, u: int, v: int) -> float:
    fu = c.friends(u)
    fv = c.friends(v)
    if not fu or not fv:
        return 0.0
    return len(fu & fv) / (math.sqrt(len(fu)) * math.sqrt(len(fv)))


def _masked_individuality(c: Corpus, target: int, helper: int, kind: str) -> tuple[float, bool]:
    """Helper's day-0 individuality with the target removed from the
    active population, so the value is blind to the target's day-0 data."""
    target_videos = c.view_set(target, DAY0)
    target_active = bool(target_videos)
    if kind == "vbp":
        helper_videos = c.view_set(helper, DAY0)
        if not helper_videos:
            return 0.0, False
        actives = active_users(c, DAY0)
        viewer_counts: dict[int, int] = {}
        for a in actives:
            for m in c.view_set(a, DAY0):
                viewer_counts[m] = viewer_counts.get(m, 0) + 1
        n = len(actives) - (1 if target_active else 0)
        if n <= 0:
            return 0.0, True
        num = sum(
            viewer_counts[m] - (1 if m in target_videos else 0) for m in helper_videos
        )
        return num / (math.sqrt(len(helper_videos)) * n), True

    ptp = build_ptp(c, helper, DAY0)
    if not ptp.weights:
        return 0.0, False
    n_active, counts = _window_population(c, DAY0)
    target_tags: set[int] = set()
    for m in target_videos:
        target_tags.update(c.videos[m].tags)
    n = n_active - (1 if target_active else 0)
    if n <= 0:
        return 0.0, True
    masked_counts = {
        t: counts[t] - (1 if t in target_tags else 0) for t in ptp.weights
    }
    if kind == "ptp":
        weights = ptp.weights
    else:
        weights = {}
        for t, w in ptp.weights.items():
            factor = math.log2(n / masked_counts[t]) if masked_counts[t] > 0 else 0.0
            if factor > 0:
                weights[t] = w * factor
    if not weights:
        return 0.0, True
    num = sum(w * masked_counts[t] for t, w in weights.items())
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return num / (norm * n), True


def _past_similarity(c: Corpus, target: int, helper: int, kind: str) -> tuple[float, bool]:
    if kind == "vbp":
        st = c.view_set(target, PAST_WINDOW)
        sh = c.view_set(helper, PAST_WINDOW)
        if not st or not sh:
            return 0.0, False
        return video_similarity(c, target, helper, PAST_WINDOW), True
    build = build_ptp if kind == "ptp" else build_rtp
    pt = build(c, target, PAST_WINDOW)
    ph = build(c, helper, PAST_WINDOW)
    if not pt.weights or not ph.weights:
        return 0.0, False
    return tag_similarity(pt, ph), True


def extract(c: Corpus, target: int, helper: int, kind: str) -> FeatureRecord:
    """Single-pair reference extraction; the batch path must agree exactly."""
    if kind not in KINDS:
        raise ValueError(f"unknown profile kind {kind!r}")
    if target not in c.users:
        raise KeyError(f"unknown user {target}")
    if helper not in c.users:
        raise KeyError(f"unknown user {helper}")
    if target == helper:
        raise ValueError("target and helper must differ")
    ut = c.users[target]
    uh = c.users[helper]
    msg_count, msg_days = c.message_stats(target, helper)
    past_sim, has_past = _past_similarity(c, target, helper, kind)
    indiv, has_indiv = _masked_individuality(c, target, helper, kind)
    key = (min(target, helper), max(target, helper))
    return FeatureRecord(
        gender_pair=canonical_gender_pair(ut.gender, uh.gender),
        age_target=ut.age,
        age_helper=uh.age,
        city_target=ut.city,
        city_helper=uh.city,
        same_city=ut.city == uh.city,
        friendship=key in c.friend_edges,
        common_friend_ratio=common_friend_ratio(c, target, helper),
        common_groups=len(c.groups(target) & c.groups(helper)),
        msg_count_month=msg_count,
        msg_days_month=msg_days,
        past_sim_month=past_sim,
        has_past=has_past,
        helper_individuality=indiv,
        has_individuality=has_indiv,
    )


class PairFeaturizer:
    """Vectorized feature extraction over many pairs of one corpus/kind: it
    reads the corpus's day-0 and past-month profile indexes of its kind,
    user columns and friend, group and message matrices."""

    def __init__(self, c: Corpus, kind: str):
        self.corpus = c
        self.kind = kind
        self.day0 = c.profile_index(DAY0, kind)
        self.past = c.profile_index(PAST_WINDOW, kind)

    def label_similarity(self, targets, helpers) -> np.ndarray:
        return self.day0.similarity_pairs(targets, helpers)

    def rows(self, targets, helpers) -> tuple[np.ndarray, np.ndarray]:
        """Corpus rows of aligned target and helper ids; a length mismatch,
        a self-pair or an unknown id raises."""
        targets = np.asarray(targets, dtype=np.int64)
        helpers = np.asarray(helpers, dtype=np.int64)
        if targets.shape != helpers.shape:
            raise ValueError(f"{len(targets)} targets but {len(helpers)} helpers")
        if np.any(targets == helpers):
            raise ValueError("target and helper must differ")
        return self.corpus.rows_for(targets), self.corpus.rows_for(helpers)

    # -- one function per feature column, of the target and helper rows --

    def gender_pair(self, rt: np.ndarray, rh: np.ndarray) -> np.ndarray:
        """Women in the pair, as ``GENDER_PAIR_CODES``: 0 MM, 1 MF, 2 FF."""
        c = self.corpus
        return (c.is_f[rt].astype(np.int64) + c.is_f[rh].astype(np.int64)).astype(np.float64)

    def same_city(self, rt: np.ndarray, rh: np.ndarray) -> np.ndarray:
        c = self.corpus
        return (c.cities[rt] == c.cities[rh]).astype(np.float64)

    def friendship(self, rt: np.ndarray, rh: np.ndarray) -> np.ndarray:
        return pair_entries(self.corpus.friend_matrix, rt, rh)

    def common_friend_ratio(self, rt: np.ndarray, rh: np.ndarray) -> np.ndarray:
        c = self.corpus
        common_friends = row_products(c.friend_matrix[rt], c.friend_matrix[rh])
        degree_norm = np.sqrt(c.degrees[rt] * c.degrees[rh])
        return np.divide(common_friends, degree_norm, out=np.zeros(len(rt)), where=degree_norm > 0)

    def common_groups(self, rt: np.ndarray, rh: np.ndarray) -> np.ndarray:
        c = self.corpus
        return row_products(c.group_matrix[rt], c.group_matrix[rh])

    def msg_count_month(self, rt: np.ndarray, rh: np.ndarray) -> np.ndarray:
        return pair_entries(self.corpus.msg_count, rt, rh)

    def msg_days_month(self, rt: np.ndarray, rh: np.ndarray) -> np.ndarray:
        return pair_entries(self.corpus.msg_days, rt, rh)

    def past_similarity(self, rt: np.ndarray, rh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``past_sim_month`` and ``has_past``."""
        past = self.past
        has_past = (past.row_norms[rt] > 0) & (past.row_norms[rh] > 0)
        # an empty row scores exactly 0, so pairs without a past need no mask
        return row_products(past.W_normalized[rt], past.W_normalized[rh]), has_past.astype(np.float64)

    def helper_individuality(self, rt: np.ndarray, rh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``helper_individuality`` and ``has_individuality``: the masked
        individuality over the nonzeros of the helper rows.  An item's owner
        count drops by one where the target owns it too, and rtp damps the
        helper's PTP weights under the masked population."""
        day0 = self.day0
        # day-0 PTP counts (VBP indicators) drive individuality for every kind
        P = day0.counts
        n_masked = day0.n_active - day0.active_mask[rt].astype(np.float64)
        H = P[rh].tocoo()
        pair, item, w = H.row, H.col, H.data
        # look each helper entry up among the target's entries, whose keys
        # ascend because P keeps its column indices sorted within a row
        n_items = P.shape[1]
        T = P[rt].tocoo()
        target_keys = np.append(T.row.astype(np.int64) * n_items + T.col, -1)
        keys = pair.astype(np.int64) * n_items + item
        target_owns = target_keys[np.searchsorted(target_keys[:-1], keys)] == keys
        # the helper owns each item and differs from the target, so the
        # masked owner count and the masked population are both >= 1 here
        owners = day0.item_user_counts[item] - target_owns
        if self.kind == "rtp":
            factor = np.log2(n_masked[pair] / owners)
            w = np.where(factor > 0, w * factor, 0.0)
        num = np.bincount(pair, weights=w * owners, minlength=len(rt))
        norm = np.sqrt(np.bincount(pair, weights=w * w, minlength=len(rt)))
        values = np.zeros(len(rt))
        ok = norm > 0
        values[ok] = num[ok] / (norm[ok] * n_masked[ok])
        return values, day0.active_mask[rh].astype(np.float64)

    def interest_columns(self, rt: np.ndarray, rh: np.ndarray) -> dict[str, np.ndarray]:
        """The ``interest`` columns, the only ones that depend on the kind."""
        past_sim, has_past = self.past_similarity(rt, rh)
        indiv, has_indiv = self.helper_individuality(rt, rh)
        return {
            "past_sim_month": past_sim,
            "has_past": has_past,
            "helper_individuality": indiv,
            "has_individuality": has_indiv,
        }

    def extract_batch(self, targets, helpers) -> dict[str, np.ndarray]:
        """Every column of the aligned pairs: the ``demographic`` and
        ``social`` columns, which are the same for every kind, and this
        kind's ``interest_columns``."""
        rt, rh = self.rows(targets, helpers)
        c = self.corpus
        return {
            "target": np.asarray(targets, dtype=np.int64),
            "helper": np.asarray(helpers, dtype=np.int64),
            "gender_pair": self.gender_pair(rt, rh),
            "age_target": c.ages[rt],
            "age_helper": c.ages[rh],
            "city_target": c.cities[rt],
            "city_helper": c.cities[rh],
            "same_city": self.same_city(rt, rh),
            "friendship": self.friendship(rt, rh),
            "common_friend_ratio": self.common_friend_ratio(rt, rh),
            "common_groups": self.common_groups(rt, rh),
            "msg_count_month": self.msg_count_month(rt, rh),
            "msg_days_month": self.msg_days_month(rt, rh),
            **self.interest_columns(rt, rh),
        }


class SampleTable:
    """Columnar pair features: one array per column, plus day-0 labels."""

    def __init__(self, kind: str, columns: dict[str, np.ndarray], labels: np.ndarray | None):
        self.kind = kind
        self.columns = columns
        self.labels = labels
        self._n = len(columns["target"])

    def __len__(self) -> int:
        return self._n

    def feature_matrix(self, categories=None) -> tuple[np.ndarray, tuple[int, ...], tuple[str, ...]]:
        if categories is None:
            selected = list(FEATURE_COLUMNS)
        else:
            unknown = set(categories) - set(FEATURE_CATEGORIES)
            if unknown:
                raise ValueError(f"unknown feature categories {sorted(unknown)}")
            selected = [
                name
                for cat in ("demographic", "social", "interest")
                if cat in categories
                for name in FEATURE_CATEGORIES[cat]
            ]
        X = np.column_stack([self.columns[name] for name in selected])
        cat_idx = tuple(i for i, name in enumerate(selected) if name in CATEGORICAL_COLUMNS)
        return X, cat_idx, tuple(selected)

    def to_design(self, labels=None) -> DesignMatrix:
        """Every feature column, with ``labels`` (by default the table's own) as targets."""
        X, cat_idx, names = self.feature_matrix()
        y = labels if labels is not None else self.labels
        if y is None:
            raise ValueError("sample table carries no labels")
        return DesignMatrix(X, y, cat_idx, names)


def extract_columns(fz: PairFeaturizer, targets, helpers, threads: int = 1) -> dict[str, np.ndarray]:
    """Chunked batch extraction; identical output for any thread count."""
    targets = np.asarray(targets, dtype=np.int64)
    helpers = np.asarray(helpers, dtype=np.int64)
    if threads <= 1 or len(targets) < 2 * threads:
        return fz.extract_batch(targets, helpers)
    from ._util import parallel_map

    bounds = np.linspace(0, len(targets), threads + 1).astype(int)
    chunks = [(targets[a:b], helpers[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    parts = parallel_map(lambda tp: fz.extract_batch(*tp), chunks, threads)
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def ordered_pairs(ids: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` uniform ordered pairs of distinct entries of ``ids`` (at least
    two): draw each first entry's index, then each pair's shift from 1 to
    ``len(ids) - 1`` to the second's, cyclically."""
    rng = np.random.default_rng(seed)
    first = rng.integers(0, len(ids), size=n)
    second = (first + rng.integers(1, len(ids), size=n)) % len(ids)
    return ids[first], ids[second]


def build_training_set(c: Corpus, n_pairs: int, kind: str, seed: int, threads: int = 1) -> SampleTable:
    """Uniform ordered pairs of day-0-active users with day-0 labels."""
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    actives = sorted(active_users(c, DAY0))
    if len(actives) < 2:
        raise ValueError("need at least two day-0-active users")
    targets, helpers = ordered_pairs(np.asarray(actives, dtype=np.int64), n_pairs, seed)
    fz = PairFeaturizer(c, kind)
    columns = extract_columns(fz, targets, helpers, threads)
    labels = fz.label_similarity(targets, helpers)
    return SampleTable(kind, columns, labels)


CSV_HEADER = ["target", "helper", "kind", "label_sim", *FEATURE_COLUMNS]

_INT_COLUMNS = {
    "age_target",
    "age_helper",
    "city_target",
    "city_helper",
    "same_city",
    "friendship",
    "common_groups",
    "msg_count_month",
    "msg_days_month",
    "has_past",
    "has_individuality",
    "gender_pair",
}


def write_samples(table: SampleTable, path) -> None:
    """Samples as CSV, each float as its ``repr`` (the shortest text that reads
    back as the same double, so ``read_samples`` returns the table written);
    the label field is blank without labels."""
    n = len(table)
    labels = [""] * n if table.labels is None else table.labels
    columns = [table.columns["target"], table.columns["helper"], [table.kind] * n, labels]
    formats = ["%d", "%d", "%s", "%s" if table.labels is None else "%r"]
    for name in FEATURE_COLUMNS:
        columns.append(table.columns[name])
        formats.append("%d" if name in _INT_COLUMNS else "%r")
    write_csv(path, CSV_HEADER, columns, formats)


def read_samples(path) -> SampleTable:
    """Samples as ``write_samples`` writes them; a bad header or row raises
    ``FormatError``, and so does a ``label_sim`` column that is neither all
    blank (unlabelled samples) nor all numbers."""
    table = _Table(Path(path), CSV_HEADER)
    fields = [table.column(j) for j in range(len(CSV_HEADER))]
    columns = {name: table.parse(fields[j], name) for j, name in enumerate(CSV_HEADER[:2])}
    blank = np.array(fields[3], dtype=str) == ""
    labelled = not blank.size or not blank[0]
    first = "a number" if labelled else "blank"
    table.check(blank != blank[:1], f"label_sim is {first} on the first row but {{!r}} here", fields[3])
    labels = table.parse(fields[3], "label_sim", kind=float) if labelled else None
    for j, name in enumerate(FEATURE_COLUMNS, start=4):
        columns[name] = table.parse(fields[j], name, kind=float)
    table.close()
    if not fields[0]:
        raise ValueError(f"no samples in {path}")
    kinds = set(fields[2])
    if len(kinds) != 1:
        raise ValueError(f"mixed profile kinds in {path}: {sorted(kinds)}")
    return SampleTable(kinds.pop(), columns, labels)
