"""Immutable corpus of users, videos, tags and behavior logs.

The corpus is a snapshot covering a 31-day horizon: day 0 is the current
(target) day, negative days are the past.  All loaders validate foreign
keys and value ranges up front so downstream code never has to.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from .profiling import ProfileIndex

DAY_MIN = -30
DAY_MAX = 0

GENDERS = ("M", "F")

CSV_NAMES = {
    "users": "users.csv",
    "videos": "videos.csv",
    "views": "views.csv",
    "friends": "friends.csv",
    "groups": "groups.csv",
    "messages": "messages.csv",
}

Window = tuple[int, int]


class CorpusError(Exception):
    """Base class for corpus construction problems."""


class FormatError(CorpusError):
    """A malformed row in an input file."""

    def __init__(self, file: str, line: int, message: str):
        super().__init__(f"{file}:{line}: {message}")
        self.file = file
        self.line = line


class IntegrityError(CorpusError):
    """Dangling foreign keys or inconsistent relations."""


def check_window(window: Window) -> Window:
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}: start day must be <= end day")
    if lo < DAY_MIN or hi > DAY_MAX:
        raise ValueError(f"window {window} outside [{DAY_MIN}, {DAY_MAX}]")
    return window


@dataclass(frozen=True)
class UserRecord:
    id: int
    gender: str  # "M" or "F"
    age: int
    city: int


@dataclass(frozen=True)
class VideoRecord:
    id: int
    tags: frozenset[int]


@dataclass
class LoadReport:
    """Counts of rows dropped while loading (age filter and its fallout)."""

    users_dropped_age: int = 0
    rows_dropped_filtered_user: dict[str, int] = field(default_factory=dict)
    duplicate_views: int = 0


class Corpus:
    """Validated, immutable snapshot of all raw logs plus derived indexes.

    The raw sets are what equality compares and ``write_corpus`` writes.
    Everything derived from them is built here, once, for every other
    module to read; all of it is read-only (a CSR's ``data``, ``indices``
    and ``indptr`` too) and each CSR is canonical.  By user row
    (``rows_for``): ``ages``, ``cities`` and ``is_f``; the symmetric CSR
    ``friend_matrix`` (row sums ``degrees``), ``msg_count`` and ``msg_days``
    (the month's message total and days communicated, one sparsity
    pattern); and ``group_matrix`` over the sorted ``group_ids``.  By video
    row, ``video_tags`` over the sorted ``tag_ids``.  The view log, one
    entry per view sorted by (user row, day, video), is read only here;
    ``viewed_pairs`` serves the rest.  The corpus owns the profile indexes
    too, one read-only ``ProfileIndex`` per (window, kind), built on its
    first ``profile_index`` request (the cycle through ``index.corpus`` is
    the garbage collector's to free).  Concurrent reads are safe; two racing
    first requests for an index build it twice, equal, and keep one.
    """

    def __init__(
        self,
        users: dict[int, UserRecord],
        videos: dict[int, VideoRecord],
        views: set[tuple[int, int, int]],
        friend_edges: set[tuple[int, int]],
        memberships: set[tuple[int, int]],
        messages: dict[tuple[int, int], dict[int, int]],
        report: LoadReport | None = None,
    ):
        if not users:
            raise IntegrityError("corpus must contain at least one user")
        self.users = dict(users)
        self.videos = dict(videos)
        self.views = frozenset(views)
        self.friend_edges = frozenset(friend_edges)
        self.memberships = frozenset(memberships)
        self.messages = {pair: dict(days) for pair, days in messages.items()}
        self.report = report if report is not None else LoadReport()
        self._validate()
        self._build_indexes()
        self._profile_indexes: dict[tuple[Window, str], ProfileIndex] = {}

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        dangling: list[str] = []

        def check_user(u: int, where: str) -> None:
            if u not in self.users and len(dangling) < 10:
                dangling.append(f"{where}: unknown user {u}")

        for vid, rec in self.videos.items():
            if not rec.tags:
                raise IntegrityError(f"video {vid} has an empty tag set")
        for u, m, d in self.views:
            check_user(u, "views")
            if m not in self.videos and len(dangling) < 10:
                dangling.append(f"views: unknown video {m}")
            if not DAY_MIN <= d <= DAY_MAX:
                raise IntegrityError(f"view day {d} outside [{DAY_MIN}, {DAY_MAX}]")
        for a, b in self.friend_edges:
            if a >= b:
                raise IntegrityError(f"friend edge ({a}, {b}) not normalized a < b")
            check_user(a, "friends")
            check_user(b, "friends")
        for u, g in self.memberships:
            check_user(u, "groups")
        for (a, b), days in self.messages.items():
            if a >= b:
                raise IntegrityError(f"message pair ({a}, {b}) not normalized a < b")
            check_user(a, "messages")
            check_user(b, "messages")
            if (a, b) not in self.friend_edges and len(dangling) < 10:
                dangling.append(f"messages: pair ({a}, {b}) are not friends")
            for d, cnt in days.items():
                if not DAY_MIN <= d <= -1:
                    raise IntegrityError(f"message day {d} outside [{DAY_MIN}, -1]")
                if cnt <= 0:
                    raise IntegrityError(f"message count {cnt} for pair ({a}, {b}) not positive")
        if dangling:
            raise IntegrityError(
                "dangling references (first 10 shown):\n  " + "\n  ".join(dangling)
            )

    def _build_indexes(self) -> None:
        self.user_ids: tuple[int, ...] = tuple(sorted(self.users))
        self.video_ids: tuple[int, ...] = tuple(sorted(self.videos))
        self._ids = np.asarray(self.user_ids, dtype=np.int64)
        n = len(self.user_ids)
        log = np.fromiter(chain.from_iterable(self.views), np.int64, 3 * len(self.views)).reshape(-1, 3)
        users, videos, days = log[np.lexsort((log[:, 1], log[:, 2], log[:, 0]))].T
        self._view_rows = np.searchsorted(self._ids, users)
        self._view_days, self._view_videos = days.copy(), videos.copy()
        self._view_cols = np.searchsorted(np.asarray(self.video_ids, dtype=np.int64), videos)
        self._view_offsets = np.searchsorted(self._view_rows, np.arange(n + 1))
        # view_set bisects memoryviews: their items are Python ints, cheaper to probe than numpy scalars
        self._view_slices = tuple(map(memoryview, (self._view_offsets, self._view_days, self._view_videos)))

        self.ages = np.array([self.users[u].age for u in self.user_ids], dtype=np.float64)
        self.cities = np.array([self.users[u].city for u in self.user_ids], dtype=np.float64)
        self.is_f = np.array([self.users[u].gender == "F" for u in self.user_ids])

        self.friend_matrix = _symmetric(self.rows_for(list(self.friend_edges)), 1.0, n)
        self.degrees = np.diff(self.friend_matrix.indptr).astype(np.float64)
        members = np.asarray(list(self.memberships), dtype=np.int64).reshape(-1, 2)
        self.group_ids, group_cols = np.unique(members[:, 1], return_inverse=True)
        member_rows = self.rows_for(members[:, 0])
        self.group_matrix = sp.csr_matrix((np.ones(len(members)), (member_rows, group_cols)), (n, len(self.group_ids)))
        totals = [(a, b, sum(days.values()), len(days)) for (a, b), days in self.messages.items()]
        msgs = np.asarray(totals, dtype=np.int64).reshape(-1, 4)
        self.msg_count = _symmetric(self.rows_for(msgs[:, :2]), msgs[:, 2], n)
        self.msg_days = _symmetric(self.rows_for(msgs[:, :2]), msgs[:, 3], n)

        tag_sets = [self.videos[m].tags for m in self.video_ids]
        tags = np.fromiter(chain.from_iterable(tag_sets), np.int64, sum(map(len, tag_sets)))
        self.tag_ids = np.unique(tags)
        video_rows = np.repeat(np.arange(len(tag_sets)), [len(ts) for ts in tag_sets])
        tag_cols = np.searchsorted(self.tag_ids, tags)
        self.video_tags = sp.csr_matrix((np.ones(len(tags)), (video_rows, tag_cols)), (len(tag_sets), len(self.tag_ids)))

        csr = (self.friend_matrix, self.group_matrix, self.msg_count, self.msg_days, self.video_tags)
        for a in (self._ids, self._view_rows, self._view_days, self._view_videos, self._view_cols, self._view_offsets,
                  self.ages, self.cities, self.is_f, self.degrees, self.group_ids, self.tag_ids,
                  *(x for M in csr for x in (M.data, M.indices, M.indptr))):
            a.setflags(write=False)

    # -- queries ---------------------------------------------------------

    def _row_of(self, u: int) -> int:
        """Row of user ``u`` (one bisect, for scalar queries); -1 for an id the corpus lacks."""
        row = bisect_left(self.user_ids, u)
        return row if row < len(self.user_ids) and self.user_ids[row] == u else -1

    def rows_for(self, user_ids) -> np.ndarray:
        """Row of each user id; raises KeyError for an id the corpus lacks."""
        ids = np.asarray(user_ids, dtype=np.int64).ravel()
        rows = np.searchsorted(self._ids, ids)
        known = self._ids[np.minimum(rows, len(self._ids) - 1)] == ids
        if not known.all():
            raise KeyError(f"unknown user {ids[~known][0]}")
        return rows

    def _span(self, M: sp.csr_matrix, u: int) -> slice:
        """The entries of user ``u``'s row of ``M``; empty for an unknown id."""
        row = self._row_of(u)
        return slice(0, 0) if row < 0 else slice(M.indptr[row], M.indptr[row + 1])

    def friends(self, u: int) -> frozenset[int]:
        return frozenset(self._ids[self.friend_matrix.indices[self._span(self.friend_matrix, u)]].tolist())

    def groups(self, u: int) -> frozenset[int]:
        return frozenset(self.group_ids[self.group_matrix.indices[self._span(self.group_matrix, u)]].tolist())

    def view_set(self, u: int, window: Window) -> frozenset[int]:
        """Union of videos viewed by ``u`` over the inclusive day window."""
        lo, hi = check_window(window)
        row = self._row_of(u)
        if row < 0:
            return frozenset()
        offsets, days, videos = self._view_slices
        end = offsets[row + 1]
        start = bisect_left(days, lo, offsets[row], end)
        stop = bisect_right(days, hi, start, end)
        return frozenset(videos[start:stop].tolist())

    def viewed_pairs(self, window: Window) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct (row in ``user_ids``, column in ``video_ids``) views in the window."""
        lo, hi = check_window(window)
        inside = (self._view_days >= lo) & (self._view_days <= hi)
        n_cols = len(self.video_ids)
        keys = np.sort(self._view_rows[inside] * n_cols + self._view_cols[inside])
        return np.divmod(keys[np.diff(keys, prepend=-1) != 0], n_cols)

    def profile_index(self, window: Window, kind: str) -> ProfileIndex:
        """The ``ProfileIndex`` of ``window`` and ``kind``, built on the first
        request; a bad window or kind raises and caches nothing."""
        key = (tuple(window), kind)
        index = self._profile_indexes.get(key)
        if index is None:
            from .profiling import ProfileIndex  # profiling imports this module

            index = ProfileIndex(self, key[0], kind)
            csr = (index.counts, index.W, index.W_normalized)
            for a in (index.item_ids, index.active_mask, index.item_user_counts, index.row_norms,
                      *(x for M in csr for x in (M.data, M.indices, M.indptr))):
                a.setflags(write=False)
            self._profile_indexes[key] = index
        return index

    def message_stats(self, u: int, v: int) -> tuple[int, int]:
        """(monthly message count, days communicated) for an unordered pair."""
        span, col = self._span(self.msg_count, u), self._row_of(v)  # -1 is in no row
        at = span.start + int(np.searchsorted(self.msg_count.indices[span], col))
        if at == span.stop or self.msg_count.indices[at] != col:
            return 0, 0
        return int(self.msg_count.data[at]), int(self.msg_days.data[at])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.users == other.users
            and self.videos == other.videos
            and self.views == other.views
            and self.friend_edges == other.friend_edges
            and self.memberships == other.memberships
            and self.messages == other.messages
        )

    def __repr__(self) -> str:
        return (
            f"Corpus(users={len(self.users)}, videos={len(self.videos)}, "
            f"tags={len(self.tag_ids)}, views={len(self.views)}, "
            f"friend_edges={len(self.friend_edges)})"
        )


def _symmetric(rows: np.ndarray, values, n: int) -> sp.csr_matrix:
    """n-by-n matrix holding ``values`` at (a, b) and (b, a) for each pair
    (a, b) of ``rows``; the corpus keeps such pairs as a < b."""
    a, b = rows.reshape(-1, 2).T
    upper = sp.csr_matrix((np.broadcast_to(values, len(a)).astype(np.float64), (a, b)), shape=(n, n))
    return (upper + upper.T).tocsr()


def pair_entries(M: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dense ``M[rows[k], cols[k]]`` (scipy returns a sparse matrix for no pairs)."""
    return np.asarray(M[rows, cols]).ravel() if len(rows) else np.zeros(0)


def active_users(c: Corpus, window: Window) -> frozenset[int]:
    """Users with at least one view event inside the inclusive window."""
    rows, _ = c.viewed_pairs(window)
    return frozenset(c.user_ids[row] for row in np.unique(rows).tolist())


# -- CSV I/O --------------------------------------------------------------


def _parse_int(value: str, file: str, line: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FormatError(file, line, f"{what} is not an integer: {value!r}") from None


def _read_rows(path: Path, expected_header: list[str]):
    name = path.name
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(name, 1, "missing header row") from None
        if header != expected_header:
            raise FormatError(name, 1, f"expected header {expected_header}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise FormatError(name, lineno, f"expected {len(expected_header)} fields, got {len(row)}")
            yield lineno, row


def load_corpus(directory: str | Path, age_bounds: tuple[int, int] = (10, 40)) -> Corpus:
    """Load and validate the six corpus CSV files from ``directory``.

    Users with age outside ``age_bounds`` are dropped, along with every log
    row that references them; the drop counts end up in ``Corpus.report``.
    Rows referencing ids that never existed raise :class:`IntegrityError`.
    """
    directory = Path(directory)
    for name in CSV_NAMES.values():
        if not (directory / name).exists():
            raise FileNotFoundError(directory / name)
    report = LoadReport(rows_dropped_filtered_user={})
    lo_age, hi_age = age_bounds

    users: dict[int, UserRecord] = {}
    filtered: set[int] = set()
    fname = CSV_NAMES["users"]
    for lineno, row in _read_rows(directory / fname, ["user_id", "gender", "age", "city_id"]):
        uid = _parse_int(row[0], fname, lineno, "user_id")
        gender = row[1]
        if gender not in GENDERS:
            raise FormatError(fname, lineno, f"gender must be M or F, got {gender!r}")
        age = _parse_int(row[2], fname, lineno, "age")
        city = _parse_int(row[3], fname, lineno, "city_id")
        if uid in users or uid in filtered:
            raise FormatError(fname, lineno, f"duplicate user id {uid}")
        if not lo_age <= age <= hi_age:
            filtered.add(uid)
            report.users_dropped_age += 1
            continue
        users[uid] = UserRecord(uid, gender, age, city)

    def drop_if_filtered(table: str, *ids: int) -> bool:
        if any(i in filtered for i in ids):
            report.rows_dropped_filtered_user[table] = (
                report.rows_dropped_filtered_user.get(table, 0) + 1
            )
            return True
        return False

    videos: dict[int, VideoRecord] = {}
    fname = CSV_NAMES["videos"]
    for lineno, row in _read_rows(directory / fname, ["video_id", "tags"]):
        vid = _parse_int(row[0], fname, lineno, "video_id")
        if vid in videos:
            raise FormatError(fname, lineno, f"duplicate video id {vid}")
        if not row[1]:
            raise FormatError(fname, lineno, "video has no tags")
        tags = frozenset(_parse_int(t, fname, lineno, "tag") for t in row[1].split("|"))
        videos[vid] = VideoRecord(vid, tags)

    views: set[tuple[int, int, int]] = set()
    fname = CSV_NAMES["views"]
    for lineno, row in _read_rows(directory / fname, ["user_id", "video_id", "day"]):
        u = _parse_int(row[0], fname, lineno, "user_id")
        m = _parse_int(row[1], fname, lineno, "video_id")
        d = _parse_int(row[2], fname, lineno, "day")
        if not DAY_MIN <= d <= DAY_MAX:
            raise FormatError(fname, lineno, f"day {d} outside [{DAY_MIN}, {DAY_MAX}]")
        if drop_if_filtered("views", u):
            continue
        if (u, m, d) in views:
            report.duplicate_views += 1
            continue
        views.add((u, m, d))

    friends: set[tuple[int, int]] = set()
    fname = CSV_NAMES["friends"]
    for lineno, row in _read_rows(directory / fname, ["user_a", "user_b"]):
        a = _parse_int(row[0], fname, lineno, "user_a")
        b = _parse_int(row[1], fname, lineno, "user_b")
        if a == b:
            raise FormatError(fname, lineno, f"self-loop friendship for user {a}")
        if drop_if_filtered("friends", a, b):
            continue
        friends.add((min(a, b), max(a, b)))

    memberships: set[tuple[int, int]] = set()
    fname = CSV_NAMES["groups"]
    for lineno, row in _read_rows(directory / fname, ["user_id", "group_id"]):
        u = _parse_int(row[0], fname, lineno, "user_id")
        g = _parse_int(row[1], fname, lineno, "group_id")
        if drop_if_filtered("groups", u):
            continue
        memberships.add((u, g))

    messages: dict[tuple[int, int], dict[int, int]] = {}
    fname = CSV_NAMES["messages"]
    for lineno, row in _read_rows(directory / fname, ["user_a", "user_b", "day", "count"]):
        a = _parse_int(row[0], fname, lineno, "user_a")
        b = _parse_int(row[1], fname, lineno, "user_b")
        d = _parse_int(row[2], fname, lineno, "day")
        cnt = _parse_int(row[3], fname, lineno, "count")
        if a == b:
            raise FormatError(fname, lineno, f"self-loop message for user {a}")
        if not DAY_MIN <= d <= -1:
            raise FormatError(fname, lineno, f"message day {d} outside [{DAY_MIN}, -1]")
        if cnt <= 0:
            raise FormatError(fname, lineno, f"message count must be positive, got {cnt}")
        if drop_if_filtered("messages", a, b):
            continue
        key = (min(a, b), max(a, b))
        days = messages.setdefault(key, {})
        days[d] = days.get(d, 0) + cnt

    return Corpus(users, videos, views, friends, memberships, messages, report=report)


def write_corpus(c: Corpus, directory: str | Path) -> None:
    """Write the six corpus CSV files, sorted by primary key (bit-stable)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def dump(name: str, header: list[str], rows) -> None:
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    dump(
        CSV_NAMES["users"],
        ["user_id", "gender", "age", "city_id"],
        ((u.id, u.gender, u.age, u.city) for u in (c.users[i] for i in sorted(c.users))),
    )
    dump(
        CSV_NAMES["videos"],
        ["video_id", "tags"],
        ((v, "|".join(str(t) for t in sorted(c.videos[v].tags))) for v in sorted(c.videos)),
    )
    dump(CSV_NAMES["views"], ["user_id", "video_id", "day"], sorted(c.views))
    dump(CSV_NAMES["friends"], ["user_a", "user_b"], sorted(c.friend_edges))
    dump(CSV_NAMES["groups"], ["user_id", "group_id"], sorted(c.memberships))
    dump(
        CSV_NAMES["messages"],
        ["user_a", "user_b", "day", "count"],
        (
            (a, b, d, cnt)
            for (a, b) in sorted(c.messages)
            for d, cnt in sorted(c.messages[(a, b)].items())
        ),
    )
