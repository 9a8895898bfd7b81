import pytest

from interestsim.corpus import Corpus, UserRecord, VideoRecord
from interestsim.synthgen import GenConfig, generate


def corpus_from_records(users, videos, views, friends, memberships, messages, report=None):
    """The corpus of record-shaped relations: ``{id: UserRecord}``, ``{id: VideoRecord}``,
    (user, video, day) views, friend and membership pairs and ``{(a, b): {day: count}}``
    messages.  A video without tags has no row, so it is not in the corpus."""
    return Corpus(
        [(u, r.gender == "F", r.age, r.city) for u, r in users.items()],
        [(m, tag) for m, r in videos.items() for tag in r.tags],
        views,
        friends,
        memberships,
        [(a, b, day, count) for (a, b), days in messages.items() for day, count in days.items()],
        report=report,
    )


def make_corpus(
    users=None,
    videos=None,
    views=(),
    friends=(),
    memberships=(),
    messages=None,
):
    """Hand-built corpus for small exact-value tests."""
    if users is None:
        users = {
            1: UserRecord(1, "M", 20, 0),
            2: UserRecord(2, "F", 25, 0),
            3: UserRecord(3, "F", 30, 1),
            4: UserRecord(4, "M", 35, 1),
        }
    if videos is None:
        videos = {
            10: VideoRecord(10, frozenset({100, 101})),
            11: VideoRecord(11, frozenset({101, 102})),
            12: VideoRecord(12, frozenset({103})),
            13: VideoRecord(13, frozenset({100})),
        }
    return corpus_from_records(users, videos, set(views), set(friends), set(memberships), messages or {})


@pytest.fixture(scope="session")
def small_corpus():
    """Seeded synthetic corpus shared by tests that only need realistic shape."""
    corpus, latent = generate(
        GenConfig(seed=11, n_users=300, n_videos=150, n_tags=60, n_topics=8, n_cities=5, n_groups=12)
    )
    return corpus, latent
