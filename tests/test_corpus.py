import csv

import numpy as np
import pytest

from interestsim.corpus import (
    Corpus,
    FormatError,
    IntegrityError,
    UserRecord,
    VideoRecord,
    active_users,
    load_corpus,
    write_corpus,
    write_csv,
)
from interestsim.synthgen import GenConfig, generate

from conftest import corpus_from_records, make_corpus


def write_csvs(tmp_path, users, videos, views, friends="", groups="", messages=""):
    (tmp_path / "users.csv").write_text("user_id,gender,age,city_id\n" + users)
    (tmp_path / "videos.csv").write_text("video_id,tags\n" + videos)
    (tmp_path / "views.csv").write_text("user_id,video_id,day\n" + views)
    (tmp_path / "friends.csv").write_text("user_a,user_b\n" + friends)
    (tmp_path / "groups.csv").write_text("user_id,group_id\n" + groups)
    (tmp_path / "messages.csv").write_text("user_a,user_b,day,count\n" + messages)


def test_empty_views_gives_empty_view_sets(tmp_path):
    write_csvs(tmp_path, "1,M,20,0\n2,F,25,0\n3,F,30,1\n", "10,5\n", "")
    c = load_corpus(tmp_path)
    assert len(c.users) == 3
    for u in c.users:
        assert c.view_set(u, (-30, 0)) == frozenset()


def test_age_filter_drops_user_and_counts(tmp_path):
    write_csvs(
        tmp_path,
        "1,M,20,0\n2,F,45,0\n",
        "10,5\n",
        "2,10,0\n1,10,0\n",
    )
    c = load_corpus(tmp_path)
    assert 2 not in c.users
    assert c.report.users_dropped_age == 1
    assert c.report.rows_dropped_filtered_user == {"views": 1}


def test_duplicate_view_rows_collapse(tmp_path):
    write_csvs(tmp_path, "1,M,20,0\n", "10,5\n", "1,10,-2\n1,10,-2\n")
    c = load_corpus(tmp_path)
    assert c.view_set(1, (-30, 0)) == frozenset({10})
    assert c.report.duplicate_views == 1


def test_malformed_row_reports_file_and_line(tmp_path):
    write_csvs(tmp_path, "1,M,twenty,0\n", "10,5\n", "")
    with pytest.raises(FormatError, match="users.csv:2"):
        load_corpus(tmp_path)


def test_dangling_foreign_key_lists_offenders(tmp_path):
    write_csvs(tmp_path, "1,M,20,0\n", "10,5\n", "9,10,0\n")
    with pytest.raises(IntegrityError, match="unknown user 9"):
        load_corpus(tmp_path)


def test_dangling_references_listed_by_table_in_sorted_order():
    with pytest.raises(IntegrityError) as info:
        make_corpus(
            views=[(9, 10, 0), (20, 11, -1), (5, 12, -2), (9, 11, -3), (1, 99, 0)],
            friends=[(1, 8), (2, 6)],
            memberships=[(12, 101), (7, 100)],
            messages={(3, 11): {-2: 1}, (1, 2): {-1: 1}},
        )
    shown = [
        "views: unknown user 5", "views: unknown user 9", "views: unknown user 20", "views: unknown video 99",
        "friends: unknown user 6", "friends: unknown user 8", "groups: unknown user 7", "groups: unknown user 12",
        "messages: unknown user 11", "messages: pair (1, 2) are not friends",
    ]
    assert str(info.value) == "dangling references (first 10 shown):\n  " + "\n  ".join(shown)


def test_message_pair_must_be_normalized():
    with pytest.raises(IntegrityError, match=r"^message pair \(2, 1\) not normalized a < b$"):
        make_corpus(friends=[(1, 2)], messages={(2, 1): {-1: 1}})


def test_message_between_non_friends_rejected():
    with pytest.raises(IntegrityError, match="not friends"):
        make_corpus(messages={(1, 2): {-3: 5}})


def test_active_users_window_membership():
    c = make_corpus(views=[(1, 10, 0), (2, 11, -8)])
    assert active_users(c, (0, 0)) == frozenset({1})
    assert active_users(c, (-7, -1)) == frozenset()
    assert active_users(c, (-8, -8)) == frozenset({2})
    with pytest.raises(ValueError):
        active_users(c, (0, -1))


def test_active_users_monotone_in_window(small_corpus):
    c, _ = small_corpus
    nested = [(-1, 0), (-7, 0), (-30, 0)]
    sets = [active_users(c, w) for w in nested]
    assert sets[0] <= sets[1] <= sets[2]


def test_coverage_ratios_counting_oracle(small_corpus):
    # fraction of day-0 actives also active in the past day/week/month,
    # checked against direct counting over raw view rows
    c, _ = small_corpus
    day0 = active_users(c, (0, 0))
    for window in [(-1, -1), (-7, -1), (-30, -1)]:
        inside = active_users(c, window)
        ratio = len(day0 & inside) / len(day0)
        brute = sum(
            1
            for u in day0
            if any(window[0] <= d <= window[1] for (uu, m, d) in c.views if uu == u)
        ) / len(day0)
        assert ratio == brute
        assert 0 < ratio <= 1
    r1 = len(day0 & active_users(c, (-1, -1))) / len(day0)
    r7 = len(day0 & active_users(c, (-7, -1))) / len(day0)
    r30 = len(day0 & active_users(c, (-30, -1))) / len(day0)
    assert r1 <= r7 <= r30


def test_tag_owner_counts_match_bruteforce(small_corpus):
    c, _ = small_corpus
    from interestsim.profiling import ProfileIndex

    idx = ProfileIndex(c, (-7, -1), "ptp")
    for j, tag in enumerate(idx.item_ids[:25]):
        brute = sum(
            1
            for u in c.users
            if any(tag in c.videos[m].tags for m in c.view_set(u, (-7, -1)))
        )
        assert idx.item_user_counts[j] == brute


def test_roundtrip_identity(tmp_path, small_corpus):
    c, _ = small_corpus
    write_corpus(c, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded == c
    # idempotent: write the loaded corpus again, bytes must match
    second = tmp_path / "second"
    write_corpus(loaded, second)
    for name in ["users.csv", "videos.csv", "views.csv", "friends.csv", "groups.csv", "messages.csv"]:
        assert (tmp_path / name).read_bytes() == (second / name).read_bytes()


def test_write_csv_quotes_string_fields_as_the_csv_module_does(tmp_path):
    texts = ["plain", "a,b", 'say "hi"', "two\nlines", "", " padded ", "x|y", '"']
    numbers = [0.1 * i for i in range(len(texts))]
    write_csv(tmp_path / "one_call.csv", ["text", "n", "x"], [texts, range(len(texts)), numbers], ["%s", "%d", "%.9g"])
    with open(tmp_path / "by_row.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["text", "n", "x"])
        writer.writerows([text, i, "%.9g" % x] for i, (text, x) in enumerate(zip(texts, numbers)))
    assert (tmp_path / "one_call.csv").read_bytes() == (tmp_path / "by_row.csv").read_bytes()


def test_corpus_requires_users():
    with pytest.raises(IntegrityError):
        Corpus({}, {}, set(), set(), set(), {})


def test_view_day_out_of_range_rejected():
    with pytest.raises(IntegrityError):
        make_corpus(views=[(1, 10, 3)])


def test_empty_video_tags_rejected():
    # a video without tags has no row in the tag table, so the corpus has no such video
    with pytest.raises(IntegrityError, match=r"views: unknown video 10$"):
        make_corpus(videos={10: VideoRecord(10, frozenset())}, views=[(1, 10, 0)])


def _scan_views(c, window):
    """user -> videos viewed in the window, by a direct scan of ``c.views``."""
    lo, hi = window
    seen: dict[int, set[int]] = {}
    for u, m, d in c.views:
        if lo <= d <= hi:
            seen.setdefault(u, set()).add(m)
    return seen


@pytest.mark.parametrize("window", [(0, 0), (-30, -1), (-7, -3), (-30, 0), (-30, -30)])
def test_view_log_matches_raw_views(small_corpus, window):
    c, _ = small_corpus
    seen = _scan_views(c, window)
    for u in c.user_ids:
        assert c.view_set(u, window) == frozenset(seen.get(u, ()))
    assert active_users(c, window) == frozenset(seen)
    rows, cols = c.viewed_pairs(window)
    pairs = [(c.user_ids[r], c.video_ids[m]) for r, m in zip(rows.tolist(), cols.tolist())]
    assert pairs == sorted((u, m) for u, vids in seen.items() for m in vids)


def test_view_log_without_views():
    windows = [(0, 0), (-30, -1), (-30, 0)]
    for c in (make_corpus(), make_corpus(views=[(1, 11, -3), (1, 12, -3), (4, 10, 0)])):
        seen = {w: _scan_views(c, w) for w in windows}
        for w in windows:
            assert active_users(c, w) == frozenset(seen[w])
            # users 2 and 3 never view; 0 and 5 are not users at all
            for u in (0, 1, 2, 3, 4, 5):
                assert c.view_set(u, w) == frozenset(seen[w].get(u, ()))
    rows, cols = make_corpus().viewed_pairs((-30, 0))
    assert len(rows) == len(cols) == 0


def test_view_log_is_read_only(small_corpus):
    c, _ = small_corpus
    for a in (c._view_rows, c._view_days, c._view_videos, c._view_offsets):
        with pytest.raises(ValueError):
            a[0] = 1


def _relations_by_dict_walk(c):
    """Friends, groups and message totals per user or pair, from the raw sets."""
    friends: dict[int, set[int]] = {}
    for a, b in c.friend_edges:
        friends.setdefault(a, set()).add(b)
        friends.setdefault(b, set()).add(a)
    groups: dict[int, set[int]] = {}
    for u, g in c.memberships:
        groups.setdefault(u, set()).add(g)
    totals = {pair: (sum(days.values()), len(days)) for pair, days in c.messages.items()}
    return friends, groups, totals


@pytest.mark.parametrize("which", ["small", "no_relations"])
def test_relation_arrays_match_raw_sets(small_corpus, which):
    c = small_corpus[0] if which == "small" else make_corpus(views=[(1, 10, 0), (2, 11, -3)])
    assert bool(c.messages and c.memberships) == (which == "small")
    friends, groups, totals = _relations_by_dict_walk(c)
    unknown = max(c.user_ids) + 1
    for u in (*c.user_ids, unknown):
        assert c.friends(u) == frozenset(friends.get(u, ()))
        assert c.groups(u) == frozenset(groups.get(u, ()))
    for a, b in c.friend_edges:
        assert c.message_stats(a, b) == c.message_stats(b, a) == totals.get((a, b), (0, 0))
    u = c.user_ids[0]
    stranger = next(v for v in c.user_ids[1:] if (u, v) not in c.friend_edges)
    assert c.message_stats(u, stranger) == (0, 0)
    assert c.message_stats(u, unknown) == c.message_stats(unknown, u) == (0, 0)
    assert c.degrees.tolist() == [len(friends.get(u, ())) for u in c.user_ids]
    assert c.ages.tolist() == [c.users[u].age for u in c.user_ids]
    assert c.cities.tolist() == [c.users[u].city for u in c.user_ids]
    assert c.is_f.tolist() == [c.users[u].gender == "F" for u in c.user_ids]
    assert c.tag_ids.tolist() == sorted(set().union(*(v.tags for v in c.videos.values())))
    T = c.video_tags
    assert T.shape == (len(c.video_ids), len(c.tag_ids)) and set(T.data.tolist()) <= {1.0}
    for j, m in enumerate(c.video_ids):
        assert set(c.tag_ids[T.indices[T.indptr[j] : T.indptr[j + 1]]].tolist()) == c.videos[m].tags


def test_relation_arrays_are_read_only(small_corpus):
    c, _ = small_corpus
    arrays = [*c.tables, c.ages, c.cities, c.is_f, c.degrees, c.group_ids, c.tag_ids]
    for M in (c.friend_matrix, c.group_matrix, c.msg_count, c.msg_days, c.video_tags):
        arrays += [M.data, M.indices, M.indptr]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]


def _edited(c, name, edit):
    """A corpus of ``c.tables``, table ``name`` replaced by what ``edit`` returns for a copy of it."""
    tables = c.tables._asdict()
    tables[name] = edit(tables[name].copy())
    return Corpus(**tables)


def _set(row, column, change):
    def edit(table):
        table[row, column] = change(table[row, column])
        return table

    return edit


def _add_edge(c):
    """One more friend edge, from the first user to a user who is not their friend yet
    (every edge of the small corpus has messages, so none can move)."""
    a = c.user_ids[0]
    b = next(b for b in c.user_ids[1:] if (a, b) not in c.friend_edges)
    return lambda friends: np.concatenate((friends, [[a, b]]))


ONE_ROW_EDITS = {
    "view_day": ("views", lambda c: _set(0, 2, lambda d: -30 if d != -30 else -29)),
    "edge": ("friends", _add_edge),
    "membership": ("memberships", lambda c: _set(0, 1, lambda g: g + 1000)),
    "message_count": ("messages", lambda c: _set(0, 3, lambda n: n + 1)),
    "gender": ("users", lambda c: _set(5, 1, lambda f: 1 - f)),
    "age": ("users", lambda c: _set(5, 2, lambda age: age + 1)),
    "city": ("users", lambda c: _set(5, 3, lambda city: city + 1)),
    "video_tag": ("video_tags", lambda c: _set(3, 1, lambda tag: tag + 1000)),
}


@pytest.mark.parametrize("which", ONE_ROW_EDITS)
def test_corpora_differing_in_one_row_compare_unequal(small_corpus, which):
    c, _ = small_corpus
    name, edit = ONE_ROW_EDITS[which]
    assert _edited(c, name, lambda table: table) == c
    changed = _edited(c, name, edit(c))
    assert changed != c and c != changed
    assert sum(not np.array_equal(a, b) for a, b in zip(changed.tables, c.tables)) == 1


def test_corpus_from_its_record_views_is_equal(small_corpus):
    c, _ = small_corpus
    again = corpus_from_records(c.users, c.videos, c.views, c.friend_edges, c.memberships, c.messages)
    assert again == c
    assert (again.users, again.videos, again.views) == (c.users, c.videos, c.views)
    assert (again.friend_edges, again.memberships, again.messages) == (c.friend_edges, c.memberships, c.messages)


def test_shuffled_and_repeated_rows_compare_equal(small_corpus):
    c, _ = small_corpus
    rng = np.random.default_rng(0)
    tables = {field: rng.permutation(table) for field, table in c.tables._asdict().items()}
    tables["views"] = np.concatenate((tables["views"], c.tables.views[::7]))
    assert Corpus(**tables) == c


def test_split_message_rows_sum_to_the_merged_count(small_corpus):
    c, _ = small_corpus
    msgs = c.tables.messages
    row = int(np.argmax(msgs[:, 3] >= 2))
    a, b, day, count = msgs[row].tolist()
    assert count >= 2
    split = np.concatenate((msgs[:row], [[a, b, day, 1]], msgs[row:]))
    split[row + 1, 3] = count - 1
    merged = _edited(c, "messages", lambda table: split)
    assert merged == c
    assert merged.messages[(a, b)][day] == count


def test_duplicate_user_id_rejected():
    users = [(1, 0, 20, 0), (2, 1, 25, 0), (1, 1, 30, 1)]
    with pytest.raises(IntegrityError, match=r"^duplicate user id 1$"):
        Corpus(users, [(10, 100)], [], [], [], [])
