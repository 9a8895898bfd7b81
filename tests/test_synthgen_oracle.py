"""``synthgen.generate`` against the per-view generator it replaced."""

from dataclasses import replace

import numpy as np
import pytest

import synthgen_oracle
from interestsim.synthgen import GenConfig, generate

SMALL = GenConfig(seed=7, n_users=300, n_videos=150, n_tags=60, n_topics=9, n_cities=5, n_groups=12)

CONFIGS = {
    "default": GenConfig(),
    "benchmark_shape": GenConfig(seed=42, n_users=1000, n_videos=400, n_tags=300, n_topics=20, n_cities=12, n_groups=40),
    "no_drift": replace(SMALL, interest_drift=0.0),
    "no_inactive": replace(SMALL, inactive_fraction=0.0),
    "topics_without_videos": replace(SMALL, n_videos=5),
    "one_topic": replace(SMALL, n_topics=1),
    "mostly_empty_days": replace(SMALL, daily_view_rate=0.05),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_generate_matches_per_view_oracle(name):
    cfg = CONFIGS[name]
    corpus, latent = generate(cfg)
    want, want_latent = synthgen_oracle.generate(cfg)
    assert corpus == want
    for field in ("user_affinity", "video_topic", "tag_topic"):
        assert np.array_equal(getattr(latent, field), getattr(want_latent, field))
    if name == "topics_without_videos":
        assert len(np.unique(latent.video_topic)) < cfg.n_topics
    if name == "mostly_empty_days":
        assert 0 < len(corpus.views) < 0.1 * cfg.n_users * 31
