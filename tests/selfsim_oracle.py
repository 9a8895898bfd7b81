"""The dict-engine self-similarity that ``profiling.self_similarity``
replaced, kept as the reference it is tested against: one user at a time,
rebuilding the day-0 and each lag day's profile from ``build_ptp`` or
``build_rtp``.  ``selfsim_table`` writes the pipeline's self-similarity
table from it, the way ``cli._selfsim_table`` did.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from interestsim.corpus import Corpus, active_users
from interestsim.profiling import TAG_KINDS, build_ptp, build_rtp, tag_similarity


def self_similarity_series(
    c: Corpus, u: int, kind: str, lags: list[int]
) -> list[float | None]:
    """Cosine between the day-0 profile and each day-(-lag) profile.

    Entries are None where the user is inactive on that lag day (or on
    day 0, in which case every entry is None).
    """
    if kind not in TAG_KINDS:
        raise ValueError(f"self-similarity is defined for tag kinds, got {kind!r}")
    build = build_ptp if kind == "ptp" else build_rtp
    current = build(c, u, (0, 0))
    out: list[float | None] = []
    for lag in lags:
        if lag < 0 or -lag < -30:
            raise ValueError(f"lag {lag} outside [0, 30]")
        if not current.weights:
            out.append(None)
            continue
        past = build(c, u, (-lag, -lag))
        out.append(tag_similarity(current, past) if past.weights else None)
    return out


def selfsim_table(corpus: Corpus, seed: int, path: Path) -> None:
    lags = [1, 3, 7, 14, 21, 30]
    actives = sorted(active_users(corpus, (0, 0)))
    rng = np.random.default_rng(seed)
    cohort = rng.choice(np.asarray(actives), size=min(400, len(actives)), replace=False)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "lag", "mean_self_similarity", "count", "stderr"])
        for kind in ("ptp", "rtp"):
            series = {lag: [] for lag in lags}
            for u in cohort:
                vals = self_similarity_series(corpus, int(u), kind, lags)
                for lag, v in zip(lags, vals):
                    if v is not None:
                        series[lag].append(v)
            for lag in lags:
                vals = np.asarray(series[lag])
                se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
                writer.writerow([kind, lag, "%.9g" % vals.mean(), len(vals), "%.9g" % se])
