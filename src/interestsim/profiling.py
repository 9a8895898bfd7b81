"""Tag-based and video-based user interest profiles and their similarities.

Two tag weighting schemes are supported: ``ptp`` weights a tag by the
number of viewed videos carrying it, ``rtp`` additionally damps tags that
are popular across the whole active population (TF-IDF style).  ``vbp``
profiles are the raw viewed-video sets.  Population statistics (active
user count, per-tag owner counts) are always computed over the same day
window as the profiles themselves.

Every production path reads the ``ProfileIndex`` that ``Corpus.profile_index``
builds once per (window, kind); ``ProfileIndex.individuality_values`` is the
one individuality.  The per-user dict engine (``build_ptp``, ``build_rtp``,
``tag_similarity``, ``video_similarity``) is reference-only, behind
``pairfeat.extract`` and the tests.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Window, active_users, check_window

KINDS = ("ptp", "rtp", "vbp")
TAG_KINDS = ("ptp", "rtp")


@dataclass(frozen=True)
class TagProfile:
    owner: int
    window: Window
    kind: str  # "ptp" or "rtp"
    weights: dict[int, float]  # tag id -> weight > 0; absent tags weigh 0


def _window_population(c: Corpus, window: Window) -> tuple[int, dict[int, int]]:
    """Active-user count and per-tag owner counts over ``window``."""
    actives = active_users(c, window)
    counts: dict[int, int] = {}
    for u in actives:
        tags: set[int] = set()
        for m in c.view_set(u, window):
            tags.update(c.videos[m].tags)
        for t in tags:
            counts[t] = counts.get(t, 0) + 1
    return len(actives), counts


def build_ptp(c: Corpus, u: int, window: Window) -> TagProfile:
    """Profile weighting tag i by the count of viewed videos tagged i."""
    if u not in c.users:
        raise KeyError(f"unknown user {u}")
    check_window(window)
    counter: Counter[int] = Counter()
    for m in c.view_set(u, window):
        counter.update(c.videos[m].tags)
    return TagProfile(u, window, "ptp", {t: float(n) for t, n in counter.items()})


def build_rtp(c: Corpus, u: int, window: Window) -> TagProfile:
    """PTP weights damped by log2(|U| / |U_i|) over the same window.

    Tags owned by every active user get an exact-zero weight and are
    dropped from the map.
    """
    ptp = build_ptp(c, u, window)
    n_active, counts = _window_population(c, window)
    weights: dict[int, float] = {}
    for t, w in ptp.weights.items():
        factor = math.log2(n_active / counts[t])
        if factor > 0.0:
            weights[t] = w * factor
    return TagProfile(u, window, "rtp", weights)


def tag_similarity(p: TagProfile, q: TagProfile) -> float:
    """Cosine similarity of two weight vectors; 0 if either has zero norm."""
    if p.kind != q.kind:
        raise ValueError(f"profile kind mismatch: {p.kind} vs {q.kind}")
    if not p.weights or not q.weights:
        return 0.0
    dot = sum(w * q.weights[t] for t, w in p.weights.items() if t in q.weights)
    np_ = math.sqrt(sum(w * w for w in p.weights.values()))
    nq = math.sqrt(sum(w * w for w in q.weights.values()))
    if np_ == 0.0 or nq == 0.0:
        return 0.0
    return dot / (np_ * nq)


def video_similarity(c: Corpus, u: int, v: int, window: Window) -> float:
    """|I_u ∩ I_v| / (sqrt(|I_u|) * sqrt(|I_v|)); 0 if either set is empty."""
    su = c.view_set(u, window)
    sv = c.view_set(v, window)
    if not su or not sv:
        return 0.0
    return len(su & sv) / (math.sqrt(len(su)) * math.sqrt(len(sv)))


def row_products(A: sp.csr_matrix, B: sp.csr_matrix) -> np.ndarray:
    """Dot product of row k of ``A`` with row k of ``B``, for every k."""
    return np.asarray(A.multiply(B).sum(axis=1)).ravel()


def self_similarity(c: Corpus, users, kind: str, lags: list[int]) -> np.ndarray:
    """Cosine between each user's day-0 profile and each day-(-lag) profile,
    as a ``len(users) x len(lags)`` array; NaN where either profile is empty."""
    if kind not in TAG_KINDS:
        raise ValueError(f"self-similarity is defined for tag kinds, got {kind!r}")
    for lag in lags:
        if not 0 <= lag <= 30:
            raise ValueError(f"lag {lag} outside [0, 30]")
    current = c.profile_index((0, 0), kind)
    rows = c.rows_for(users)
    out = np.full((len(rows), len(lags)), np.nan)
    for j, lag in enumerate(lags):
        past = c.profile_index((-lag, -lag), kind)
        ok = (current.row_norms[rows] > 0) & (past.row_norms[rows] > 0)
        out[ok, j] = row_products(current.W_normalized[rows[ok]], past.W_normalized[rows[ok]])
    return out


def self_similarity_series(c: Corpus, u: int, kind: str, lags: list[int]) -> list[float | None]:
    """One user's ``self_similarity`` row, with None in place of NaN."""
    return [None if math.isnan(v) else v for v in self_similarity(c, [u], kind, lags)[0].tolist()]


class ProfileIndex:
    """Sparse user-by-item weight matrix for one (window, kind) pair.

    Rows follow ``corpus.user_ids`` order (``corpus.rows_for``) and include
    inactive users as empty rows, so the same row indexing works across
    windows.  Columns are the corpus's ``tag_ids`` for tag kinds and sorted
    video ids for ``vbp``.

    ``counts`` holds the undamped weights.  With ``V`` the binary
    user-by-video matrix of the distinct videos viewed in the window and
    ``T`` the corpus's incidence ``video_tags``, ``counts`` is ``V`` for
    ``vbp`` and ``V @ T`` (viewed videos per tag) for the tag kinds.
    ``W`` equals ``counts``, except that ``rtp`` damps each tag by
    ``log2(n_active / item_user_counts)`` and drops exact zeros.  Both are
    canonical CSR.

    ``W_normalized`` scales each row of ``W`` to unit norm and keeps W's
    sorted column indices, so it is canonical CSR too (``sp.diags(inv) @ W``
    gives the same entries, but stores each row in descending column
    order).  ``row_products`` on canonical rows takes scipy's sorted merge,
    which emits each row's products in ascending column order, as the
    general path does for the old layout: the same products are summed in
    the same order, and every similarity is bit-identical.
    """

    def __init__(self, corpus: Corpus, window: Window, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown profile kind {kind!r}")
        check_window(window)
        self.corpus = corpus
        self.window = window
        self.kind = kind
        video_ids = np.asarray(corpus.video_ids, dtype=np.int64)
        rows, cols = corpus.viewed_pairs(window)
        V = sp.csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(len(corpus.user_ids), len(video_ids)))

        if kind == "vbp":
            self.item_ids = video_ids
            counts = V
        else:
            self.item_ids = corpus.tag_ids
            counts = V @ corpus.video_tags
            counts.sort_indices()
        self.counts = counts

        self.active_mask = np.diff(counts.indptr) > 0
        self.n_active = int(self.active_mask.sum())
        # per-item owner counts |U_i| (owners are active by construction)
        self.item_user_counts = np.bincount(counts.indices, minlength=counts.shape[1])

        W = counts
        if kind == "rtp":
            factor = np.zeros(len(self.item_ids))
            owned = self.item_user_counts > 0
            factor[owned] = np.log2(self.n_active / self.item_user_counts[owned])
            W = W.multiply(factor[np.newaxis, :]).tocsr()
            W.eliminate_zeros()
        self.W = W
        norms = np.sqrt(np.asarray(self.W.multiply(self.W).sum(axis=1)).ravel())
        self.row_norms = norms
        inv = np.zeros_like(norms)
        nz = norms > 0
        inv[nz] = 1.0 / norms[nz]
        scaled = W.data * np.repeat(inv, np.diff(W.indptr))
        self.W_normalized = sp.csr_matrix((scaled, W.indices, W.indptr), shape=W.shape)

    def similarity_pairs(self, users_a, users_b) -> np.ndarray:
        """Pairwise similarity for aligned id arrays (vectorized)."""
        ra, rb = self.corpus.rows_for(users_a), self.corpus.rows_for(users_b)
        if len(ra) != len(rb):
            raise ValueError(f"{len(ra)} users paired with {len(rb)}")
        return row_products(self.W_normalized[ra], self.W_normalized[rb])

    def individuality_values(self, user_ids) -> np.ndarray:
        """Expected affinity of each user's profile to the window's active
        population: sum_i w_i * |U_i| / (||w||_2 * |U|), with ``W``'s weights
        and the owner counts ``item_user_counts``; 0 for an empty profile."""
        rows = self.corpus.rows_for(user_ids)
        counts = self.item_user_counts.astype(np.float64)
        num = np.asarray(self.W[rows] @ counts).ravel()
        norms = self.row_norms[rows]
        out = np.zeros(len(rows))
        nz = norms > 0
        out[nz] = num[nz] / (norms[nz] * self.n_active)
        return out
