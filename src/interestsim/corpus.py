"""Immutable corpus of users, videos, tags and behavior logs.

The corpus is a snapshot covering a 31-day horizon: day 0 is the current
(target) day, negative days are the past.  The constructor takes the six
logs as integer row tables shaped like the six CSV files and validates
foreign keys and value ranges up front, on those tables, so downstream code
never has to; the CSV loader checks whole columns.

The loader parses the all-integer files in C (``np.loadtxt``) where numpy's
rows are the ``csv`` module's, else, like users.csv and videos.csv, with
``csv.reader`` (``_integer_rows``).  The constructor sorts each table by one
int64 key (``_row_key``; bound: any table under about 5e8 rows).  At
``paper-desk`` seed 42 the two took ``load_corpus`` from 1.2 s to 0.5 s.
"""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from .profiling import ProfileIndex

DAY_MIN = -30
DAY_MAX = 0

GENDERS = ("M", "F")
AGE_BOUNDS = (10, 40)  # users the loader keeps, inclusive

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


class Tables(NamedTuple):
    """The six logs as integer rows, one table per corpus CSV file."""

    users: np.ndarray  # (id, is_f, age, city)
    video_tags: np.ndarray  # (video, tag), one row per tag
    views: np.ndarray  # (user, video, day)
    friends: np.ndarray  # (a, b) with a < b
    memberships: np.ndarray  # (user, group)
    messages: np.ndarray  # (a, b, day, count) with a < b


class Corpus:
    """Validated, immutable snapshot of the six logs plus derived indexes.

    The state is ``tables``: the six row tables, sorted, without repeated
    rows, with the counts of repeated (pair, day) message rows summed and
    gender flags 0 or 1.  Equality compares them and ``write_corpus``
    writes them.  All else is derived from them and read-only (a CSR's
    arrays too; each CSR is canonical).  By user row (``rows_for``):
    ``ages``, ``cities``, ``is_f``; the symmetric CSRs ``friend_matrix``
    (row sums ``degrees``), ``msg_count`` and ``msg_days`` (the month's
    message total and days, one sparsity pattern); ``group_matrix`` over
    the sorted ``group_ids``.  By video row, ``video_tags`` over the sorted
    ``tag_ids``.  The view log, sorted by (user row, day, video), serves
    ``view_set`` and ``viewed_pairs``.  The record views (``users``,
    ``videos``, ``views``, ``friend_edges``, ``memberships``, ``messages``)
    are built on first read, for the reference code that walks records.
    ``profile_index`` builds each (window, kind) ``ProfileIndex`` on first
    request and keeps it (the cycle through ``index.corpus`` is the garbage
    collector's to free); two racing first requests build it twice, equal,
    and keep one.  Concurrent reads are safe.
    """

    def __init__(self, users, video_tags, views, friends, memberships, messages, report: LoadReport | None = None):
        given = Tables(*map(_rows, (users, video_tags, views, friends, memberships, messages), (4, 2, 3, 2, 2, 4)))
        _check_values(given)
        users = given.users[np.argsort(given.users[:, 0])]
        users[:, 1] = users[:, 1] != 0
        messages = given.messages[np.argsort(_row_key(given.messages.T[:3]))]
        starts = _run_starts(*messages.T[:3])
        messages = np.column_stack((messages[starts, :3], np.add.reduceat(messages[:, 3], starts)))
        self.tables = Tables(users, *map(_canonical, given[1:5]), messages)
        _, video_tags, log, edges, members, msgs = self.tables
        self._ids = users[:, 0].copy()
        video_ids = np.unique(video_tags[:, 0])
        _check_references(self.tables, self._ids, video_ids)
        self.report = report if report is not None else LoadReport()
        self._profile_indexes: dict[tuple[Window, str], ProfileIndex] = {}

        self.user_ids: tuple[int, ...] = tuple(self._ids.tolist())
        self.video_ids: tuple[int, ...] = tuple(video_ids.tolist())
        n = len(self.user_ids)

        rows, cols = self.rows_for(log[:, 0]), np.searchsorted(video_ids, log[:, 1])
        order = np.argsort((rows * (DAY_MAX - DAY_MIN + 1) + log[:, 2] - DAY_MIN) * len(video_ids) + cols)
        self._view_rows, self._view_cols = rows[order], cols[order]
        self._view_days, self._view_videos = log[order, 2], log[order, 1]
        self._view_offsets = np.searchsorted(self._view_rows, np.arange(n + 1))
        # view_set bisects memoryviews: their items are Python ints, cheaper to probe than numpy scalars
        self._view_slices = tuple(map(memoryview, (self._view_offsets, self._view_days, self._view_videos)))

        self.is_f = users[:, 1] == 1
        self.ages, self.cities = users[:, 2].astype(np.float64), users[:, 3].astype(np.float64)

        self.friend_matrix = _symmetric(self.rows_for(edges), 1.0, n)
        self.degrees = np.diff(self.friend_matrix.indptr).astype(np.float64)
        self.group_ids, group_cols = np.unique(members[:, 1], return_inverse=True)
        member_rows = self.rows_for(members[:, 0])
        self.group_matrix = sp.csr_matrix((np.ones(len(members)), (member_rows, group_cols)), (n, len(self.group_ids)))
        # one entry per (pair, day): the CSR sums them into the month's totals
        msg_rows = self.rows_for(msgs[:, :2])
        self.msg_count = _symmetric(msg_rows, msgs[:, 3], n)
        self.msg_days = _symmetric(msg_rows, 1.0, n)

        self.tag_ids, tag_cols = np.unique(video_tags[:, 1], return_inverse=True)
        video_rows = np.searchsorted(video_ids, video_tags[:, 0])
        self.video_tags = sp.csr_matrix((np.ones(len(video_tags)), (video_rows, tag_cols)), (len(video_ids), len(self.tag_ids)))

        csr = (self.friend_matrix, self.group_matrix, self.msg_count, self.msg_days, self.video_tags)
        for a in (*self.tables, self._ids, self._view_rows, self._view_days, self._view_videos, self._view_cols,
                  self._view_offsets, self.ages, self.cities, self.is_f, self.degrees, self.group_ids, self.tag_ids,
                  *(x for M in csr for x in (M.data, M.indices, M.indptr))):
            a.setflags(write=False)

    # -- record views, built on first read ---------------------------------

    @cached_property
    def users(self) -> dict[int, UserRecord]:
        ids, is_f, ages, cities = self.tables.users.T.tolist()
        return dict(zip(ids, map(UserRecord, ids, map(GENDERS.__getitem__, is_f), ages, cities)))

    @cached_property
    def videos(self) -> dict[int, VideoRecord]:
        tags, bounds = self.tables.video_tags[:, 1].tolist(), self.video_tags.indptr.tolist()
        tag_sets = map(frozenset, map(tags.__getitem__, map(slice, bounds, bounds[1:])))
        return dict(zip(self.video_ids, map(VideoRecord, self.video_ids, tag_sets)))

    @cached_property
    def views(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(int_tuples(*self.tables.views.T))

    @cached_property
    def friend_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(int_tuples(*self.tables.friends.T))

    @cached_property
    def memberships(self) -> frozenset[tuple[int, int]]:
        return frozenset(int_tuples(*self.tables.memberships.T))

    @cached_property
    def messages(self) -> dict[tuple[int, int], dict[int, int]]:
        """``{(a, b): {day: count}}``."""
        a, b, days, counts = self.tables.messages.T
        starts = _run_starts(a, b)
        bounds, days, counts = np.append(starts, len(a)).tolist(), days.tolist(), counts.tolist()
        return {pair: dict(zip(days[lo:hi], counts[lo:hi]))
                for pair, lo, hi in zip(int_tuples(a[starts], b[starts]), bounds, bounds[1:])}

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
        return all(map(np.array_equal, self.tables, other.tables))

    def __repr__(self) -> str:
        return (
            f"Corpus(users={len(self.user_ids)}, videos={len(self.video_ids)}, "
            f"tags={len(self.tag_ids)}, views={len(self.tables.views)}, "
            f"friend_edges={len(self.tables.friends)})"
        )


def _rows(rows, width: int) -> np.ndarray:
    """``rows``, an array-like or iterable of integer rows, as an n-by-``width`` int64 array."""
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=np.int64)
    return table.reshape(len(table), width)  # raises for rows of another width


def _canonical(table: np.ndarray) -> np.ndarray:
    """The distinct rows of ``table``, sorted by their ``_row_key`` (bound: 2**63 keys)."""
    table = table[np.argsort(_row_key(table.T))]
    return table[_run_starts(*table.T)]


def _row_key(columns) -> np.ndarray:
    """One int64 per row, ordered as the rows are over ``columns``: each column's
    dense rank as a digit in mixed radix.  It raises unless the product of the
    columns' distinct counts is below 2**63, true of any corpus table under about
    5e8 rows (a day takes at most 31 values).  Sorting the shuffled ``paper-desk``
    views by it took 0.10 s, by a three-key ``np.lexsort`` 0.16 s."""
    key, size = np.zeros(len(columns[0]), dtype=np.int64), 1
    for column in columns:
        values, rank = np.unique(column, return_inverse=True)
        size *= len(values)
        if size >= 2**63:
            raise ValueError(f"row key needs {size.bit_length()} bits, past int64")
        key = key * len(values) + rank
    return key


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Rows where a run of rows equal in every one of ``columns`` starts."""
    new = np.arange(len(columns[0])) == 0
    for c in columns:
        new[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(new)


def int_tuples(*columns: np.ndarray) -> zip:
    """The rows of ``columns`` as tuples of Python ints, made one at a time and sharing one int per value."""
    shared = (np.unique(c, return_inverse=True) for c in columns)
    return zip(*(map(values.tolist().__getitem__, memoryview(index)) for values, index in shared))


def _check_values(given: Tables) -> None:
    """Raise for the first bad value of the tables as given, in the order they are given."""
    users, _, log, edges, _, msgs = given
    if not len(users):
        raise IntegrityError("corpus must contain at least one user")
    _raise_first(_repeats(users[:, 0]), "duplicate user id {}", users[:, 0])
    _raise_first((log[:, 2] < DAY_MIN) | (log[:, 2] > DAY_MAX), f"view day {{}} outside [{DAY_MIN}, {DAY_MAX}]", log[:, 2])
    _raise_first(edges[:, 0] >= edges[:, 1], "friend edge ({}, {}) not normalized a < b", *edges.T)
    _raise_first(msgs[:, 0] >= msgs[:, 1], "message pair ({}, {}) not normalized a < b", *msgs[:, :2].T)
    _raise_first((msgs[:, 2] < DAY_MIN) | (msgs[:, 2] > -1), f"message day {{}} outside [{DAY_MIN}, -1]", msgs[:, 2])
    _raise_first(msgs[:, 3] <= 0, "message count {} for pair ({}, {}) not positive", msgs[:, 3], *msgs[:, :2].T)


def _check_references(tables: Tables, user_ids: np.ndarray, video_ids: np.ndarray) -> None:
    """Raise for up to 10 dangling references, by table and, within one, in sorted order."""
    _, _, log, edges, members, msgs = tables
    pairs = msgs[_run_starts(msgs[:, 0], msgs[:, 1]), :2]
    references = (("views", "user", log[:, 0], user_ids), ("views", "video", log[:, 1], video_ids),
                  ("friends", "user", edges, user_ids), ("groups", "user", members[:, 0], user_ids),
                  ("messages", "user", pairs, user_ids))
    dangling = [f"{table}: unknown {what} {i}" for table, what, ids, known in references
                for i in np.unique(ids[~np.isin(ids, known)])[:10].tolist()]
    strangers = set(int_tuples(*pairs.T)) - set(int_tuples(*edges.T))
    dangling += [f"messages: pair ({a}, {b}) are not friends" for a, b in sorted(strangers)[:10]]
    if dangling:
        raise IntegrityError("dangling references (first 10 shown):\n  " + "\n  ".join(dangling[:10]))


def _raise_first(bad: np.ndarray, message: str, *columns) -> None:
    """IntegrityError for the first row where ``bad`` holds, ``message`` formatted with that row of ``columns``."""
    if bad.any():
        row = int(np.argmax(bad))
        raise IntegrityError(message.format(*(c[row] for c in columns)))


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


class _Table:
    """The fields of one CSV file's non-blank rows after its header.

    The fields are int64 where ``_integer_rows`` reads a file of
    ``integers``, else the ``csv`` module's strings.  Checks run on whole
    columns in a row-by-row reader's order, each noting its first failing
    row; ``close`` raises the error such a reader stops at: the earliest
    line's, of its checks the first.  Rows from the first one with a wrong
    field count on are not read.
    """

    def __init__(self, path: Path, header: list[str], integers: bool = False):
        self.name = path.name
        self.width = len(header)
        self.errors: list[tuple[int, int, str]] = []
        rows = _integer_rows(path, header) if integers else None
        if rows is not None:
            self._fields, self.lines = rows.ravel(), np.arange(len(rows)) + 2
            return
        self._fields = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                raise FormatError(self.name, 1, "missing header row")
            if found != header:
                raise FormatError(self.name, 1, f"expected header {header}, got {found}")
            # filterfalse passes each row on after extend (which returns
            # None) appends its fields: no row's list outlives its reading
            widths = np.fromiter(map(len, filterfalse(self._fields.extend, reader)), np.int64)
        self.lines = np.flatnonzero(widths) + 2
        widths = widths[widths > 0]
        self.check(widths != len(header), f"expected {len(header)} fields, got {{}}", widths)
        del self._fields[(self.errors[0][0] if self.errors else len(widths)) * self.width :]

    def column(self, j: int) -> list[str] | np.ndarray:
        return self._fields[j :: self.width]

    def check(self, bad: np.ndarray, message: str, *columns) -> None:
        """Note the first row where ``bad`` holds, ``message`` formatted with that row of ``columns``."""
        if bad.any():
            row = int(np.argmax(bad))
            self.errors.append((row, len(self.errors), message.format(*(c[row] for c in columns))))

    def parse(self, values, what: str, rows: np.ndarray | None = None, kind: type = int) -> np.ndarray:
        """``values`` as ``kind`` (``int`` or ``float``) parses them, each in the row ``rows`` gives
        (default: its own); the first value ``kind`` rejects is noted, and it and the rest read as 0."""
        dtype = np.int64 if kind is int else np.float64
        try:
            return np.array(values, dtype=dtype)  # numpy parses each string as ``kind`` does
        except (ValueError, OverflowError):
            parsed: list = []
            expected = "an integer" if kind is int else "a number"
            try:
                parsed.extend(map(dtype, map(kind, values)))  # keeps the values before the first bad one
            except ValueError:
                pass
            except OverflowError:
                expected = f"an integer in [{-2**63}, {2**63 - 1}]"
            if len(parsed) == len(values):
                raise
            row = len(parsed) if rows is None else int(rows[len(parsed)])
            self.errors.append((row, len(self.errors), f"{what} is not {expected}: {values[len(parsed)]!r}"))
            return np.array(parsed + [0] * (len(values) - len(parsed)), dtype=dtype)

    def close(self) -> None:
        """Drop the fields, then raise the first error noted, if any."""
        self._fields = []
        if self.errors:
            row, _, message = min(self.errors)
            raise FormatError(self.name, int(self.lines[row]), message)


def _integer_rows(path: Path, header: list[str]) -> np.ndarray | None:
    """The body of a CSV file of integer fields as one ``np.loadtxt`` parses it
    in C (``int``'s values: sign, ASCII digits, whitespace around), or None
    where its rows might not be the ``csv`` path's: the first line is not
    ``header``; numpy rejects a field (quoted, ``1_0``, past int64, empty); a
    row has another width; the body is empty or has an empty line (row i must
    be line i + 2); or a byte is in 0x1c-0x1f, whitespace to numpy, not ``int``.
    It reads the ``paper-desk`` views in 0.07 s, ``csv`` in 0.33 s."""
    data = path.read_bytes()
    head = ",".join(header).encode()
    if not data.startswith((head + b"\n", head + b"\r\n")) or any(c in data for c in b"\x1c\x1d\x1e\x1f"):
        return None
    lines = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + (data[-1:] not in b"\r\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns of a body without rows
            rows = np.loadtxt(path, dtype=np.int64, comments=None, delimiter=",", skiprows=1, encoding="utf-8", ndmin=2)
    except (ValueError, Warning):
        return None
    return rows if rows.shape == (lines - 1, len(header)) else None


def _repeats(values: np.ndarray) -> np.ndarray:
    """Whether each value occurs at an earlier position too."""
    repeated = np.ones(len(values), dtype=bool)
    repeated[np.unique(values, return_index=True)[1]] = False
    return repeated


def load_corpus(directory: str | Path) -> Corpus:
    """Load and validate the six corpus CSV files from ``directory``.

    Each file is read into columns, and every check runs on whole columns;
    a malformed row (a value past int64 too) raises :class:`FormatError`
    naming the first bad line.  The integer files are parsed in C where
    ``_integer_rows`` can, else like users and videos by ``csv.reader``.
    Users with age outside ``AGE_BOUNDS`` are dropped, along with every log
    row that references them; the drop counts end up in ``Corpus.report``.
    Rows referencing ids that never existed raise :class:`IntegrityError`.
    """
    directory = Path(directory)
    for name in CSV_NAMES.values():
        if not (directory / name).exists():
            raise FileNotFoundError(directory / name)
    report = LoadReport(rows_dropped_filtered_user={})

    def table(name: str, header: list[str], *checked: str) -> tuple[_Table, list[np.ndarray]]:
        """The file's table and its first fields as integers, named in errors as ``checked``
        (all fields: an integer file)."""
        t = _Table(directory / CSV_NAMES[name], header, integers=len(checked) == len(header))
        return t, [t.parse(t.column(j), what) for j, what in enumerate(checked)]

    def unfiltered(name: str, *ids: np.ndarray) -> np.ndarray:
        drop = np.isin(np.column_stack(ids), filtered).any(axis=1)
        if drop.any():
            report.rows_dropped_filtered_user[name] = int(drop.sum())
        return ~drop

    t, (uid,) = table("users", ["user_id", "gender", "age", "city_id"], "user_id")
    genders = t.column(1)
    t.check(~np.isin(np.array(genders, dtype=str), GENDERS), "gender must be M or F, got {!r}", genders)
    age, city = t.parse(t.column(2), "age"), t.parse(t.column(3), "city_id")
    t.check(_repeats(uid), "duplicate user id {}", uid)
    t.close()
    kept = (age >= AGE_BOUNDS[0]) & (age <= AGE_BOUNDS[1])
    filtered = uid[~kept]
    report.users_dropped_age = len(filtered)
    users = np.column_stack((uid, np.array(genders) == "F", age, city))[kept]

    t, (vid,) = table("videos", ["video_id", "tags"], "video_id")
    t.check(_repeats(vid), "duplicate video id {}", vid)
    text = np.array(t.column(1), dtype=str)
    t.check(text == "", "video has no tags")
    sizes = np.char.count(text, "|") + 1
    tags = t.parse("|".join(text).split("|") if len(text) else [], "tag", np.repeat(np.arange(len(text)), sizes))
    t.close()
    video_tags = np.column_stack((np.repeat(vid, sizes), tags))

    t, (u, m, d) = table("views", ["user_id", "video_id", "day"], "user_id", "video_id", "day")
    t.check((d < DAY_MIN) | (d > DAY_MAX), f"day {{}} outside [{DAY_MIN}, {DAY_MAX}]", d)
    t.close()
    views = np.column_stack((u, m, d))[unfiltered("views", u)]

    t, (a, b) = table("friends", ["user_a", "user_b"], "user_a", "user_b")
    t.check(a == b, "self-loop friendship for user {}", a)
    t.close()
    friends = np.column_stack((np.minimum(a, b), np.maximum(a, b)))[unfiltered("friends", a, b)]

    t, (u, g) = table("groups", ["user_id", "group_id"], "user_id", "group_id")
    t.close()
    memberships = np.column_stack((u, g))[unfiltered("groups", u)]

    t, (a, b, d, cnt) = table("messages", ["user_a", "user_b", "day", "count"], "user_a", "user_b", "day", "count")
    t.check(a == b, "self-loop message for user {}", a)
    t.check((d < DAY_MIN) | (d > -1), f"message day {{}} outside [{DAY_MIN}, -1]", d)
    t.check(cnt <= 0, "message count must be positive, got {}", cnt)
    t.close()
    messages = np.column_stack((np.minimum(a, b), np.maximum(a, b), d, cnt))[unfiltered("messages", a, b)]

    c = Corpus(users, video_tags, views, friends, memberships, messages, report=report)
    report.duplicate_views = len(views) - len(c.tables.views)
    return c


def write_csv(path: str | Path, header: list[str], columns, formats: list[str] | None = None) -> None:
    """A CSV file: ``header``, then one row per entry of the aligned
    ``columns``, every field formatted in one ``%`` call by its column's
    entry of ``formats`` (default ``%s``).  Fields of a column of strings
    are quoted minimally, as the ``csv`` module's writer quotes them with
    a ``"\\n"`` line terminator: one holding a comma, a quote or a newline
    is quoted, with its quotes doubled."""
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        column = np.asarray(column)
        table[:, j] = list(map(_quoted, column.tolist())) if column.dtype.kind == "U" else column
    row = ",".join(formats or ["%s"] * len(columns)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


def _quoted(field: str) -> str:
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def write_corpus(c: Corpus, directory: str | Path) -> None:
    """Write the six corpus CSV files from ``c.tables``, sorted by primary key (bit-stable)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    t = c.tables
    tags, bounds = list(map(str, t.video_tags[:, 1].tolist())), c.video_tags.indptr.tolist()
    tag_lists = list(map("|".join, map(tags.__getitem__, map(slice, bounds, bounds[1:]))))
    genders = np.array(GENDERS)[t.users[:, 1]]
    for name, header, columns in (
        ("users", ["user_id", "gender", "age", "city_id"], (t.users[:, 0], genders, *t.users[:, 2:].T)),
        ("videos", ["video_id", "tags"], (c.video_ids, tag_lists)),
        ("views", ["user_id", "video_id", "day"], t.views.T),
        ("friends", ["user_a", "user_b"], t.friends.T),
        ("groups", ["user_id", "group_id"], t.memberships.T),
        ("messages", ["user_a", "user_b", "day", "count"], t.messages.T),
    ):
        write_csv(directory / CSV_NAMES[name], header, columns)
