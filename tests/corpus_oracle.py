"""The row-by-row CSV loader and the tuple-sorting writer that
``corpus.load_corpus`` and ``corpus.write_corpus`` replaced, kept as the
reference they are tested against.

The loader parses one row at a time with ``int()``, raising
``FormatError`` at the first bad row, and builds the views, friend edges,
memberships and message dicts one row at a time.  The writer sorts the
raw tuples with ``sorted()`` and writes them with ``csv.writer``.
"""

import csv
from pathlib import Path

from interestsim.corpus import (
    CSV_NAMES,
    DAY_MAX,
    DAY_MIN,
    GENDERS,
    Corpus,
    FormatError,
    LoadReport,
    UserRecord,
    VideoRecord,
)

from conftest import corpus_from_records


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

    return corpus_from_records(users, videos, views, friends, memberships, messages, report=report)


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
