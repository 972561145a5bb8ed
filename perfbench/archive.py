"""Seeded post-archive generator with its ground truth.

The archive has the layout ``firesim analyze`` reads: header
``timestamp,author_id,author_created_at,surface,valence``, timestamps as
integer ticks (hours since the Unix epoch) or ISO-8601 strings.  The truth
is derived from the generator's own records, never by parsing the CSV, so
it is independent of the program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

HEADER = "timestamp,author_id,author_created_at,surface,valence"

# Analysis settings the benchmark passes to `analyze` and the truth assumes.
ANALYSIS = {"sentiment_window": 720, "neutral_band": 0.05, "compound_alpha": 15.0,
            "detect_first_k": 20, "age_threshold": 720}


def analysis_config() -> dict:
    """The `analyze --config` JSON that sets ANALYSIS."""
    return {"analytics": {k: ANALYSIS[k] for k in ("sentiment_window", "neutral_band",
                                                   "compound_alpha")},
            "defense": {k: ANALYSIS[k] for k in ("detect_first_k", "age_threshold")}}


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_START = 473_352  # 2024-01-01T00:00Z in hours since the epoch
_SPAN_HOURS = 24 * 122  # about four months
_MALFORMED = (
    lambda r: "1704067200,7,1704067200,general_stream",  # four columns
    lambda r: f"{_START + int(r.integers(1000))},{int(r.integers(1, 999))},0,company_page,n/a",
    lambda r: f"{_START + int(r.integers(1000))},{int(r.integers(1, 999))},0,company_page,1.5",
    lambda r: f"yesterday,{int(r.integers(1, 999))},0,general_stream,-0.25",
    lambda r: f"{_START + int(r.integers(1000))},user-{int(r.integers(99))},0,general_stream,0.1",
    lambda r: f"{_START + int(r.integers(1000))},{int(r.integers(1, 999))},0,intranet,-0.5",
    lambda r: f"{_START + int(r.integers(1000))},{int(r.integers(1, 999))},0,employee_profile:x,-0.5",
)


@dataclass
class Truth:
    rows: int
    duplicates: int
    malformed: int
    # clean posts in file order of first appearance
    ticks: list[int]
    authors: list[int]
    created: list[int]
    valences: list[float]

    def sorted_order(self) -> list[int]:
        """Indices in the order `analyze` sees posts: by tick, ties in file order."""
        return sorted(range(len(self.ticks)), key=self.ticks.__getitem__)

    def expected(self, analysis: dict = ANALYSIS) -> dict:
        """Windows, volume total and detector score the analysis must report."""
        order = self.sorted_order()
        ticks = [self.ticks[i] for i in order]
        base, span = ticks[0], ticks[-1] - ticks[0] + 1
        width, band, alpha = (analysis["sentiment_window"], analysis["neutral_band"],
                              analysis["compound_alpha"])
        windows = []
        for window_id, start in enumerate(range(0, span, width)):
            end = min(start + width, span)
            vals = [self.valences[i] for i, t in zip(order, ticks) if start <= t - base < end]
            neg = sum(1 for v in vals if v < -band)
            pos = sum(1 for v in vals if v > band)
            total = 0.0
            for v in vals:  # same summation order as the program, so exact
                total += v
            n = len(vals)
            windows.append({
                "window_id": window_id, "start_tick": start, "end_tick": end,
                "post_count": n,
                "negative": neg / n if n else None,
                "neutral": (n - neg - pos) / n if n else None,
                "positive": pos / n if n else None,
                "compound": total / math.sqrt(total * total + alpha) if n else 0.0})
        first = order[:analysis["detect_first_k"]]
        now = ticks[-1]
        ages = {self.authors[i]: now - self.created[i] for i in first}
        young = sum(1 for age in ages.values() if age < analysis["age_threshold"])
        return {"rows": self.rows, "duplicates": self.duplicates,
                "malformed": self.malformed, "posts": len(self.ticks),
                "base_tick": base, "span": span, "windows": windows,
                "artificial_score": young / len(ages), "sample_size": len(ages)}


def _stamps(rng: np.random.Generator, ticks: np.ndarray) -> list[str]:
    """Write hour ticks as integers or as one of several ISO-8601 forms."""
    n = len(ticks)
    styles = rng.integers(0, 6, n)
    seconds = rng.integers(0, 3600, n)
    offsets = rng.integers(-16, 20, n) * 30  # minutes, -08:00 to +09:30
    out = []
    for tick, style, sec, off in zip(ticks.tolist(), styles.tolist(), seconds.tolist(),
                                     offsets.tolist()):
        if style < 2:
            out.append(str(tick))
            continue
        moment = _EPOCH + timedelta(hours=tick, seconds=sec)
        if style == 2:
            out.append(moment.strftime("%Y-%m-%dT%H:%M:%SZ"))
        elif style == 3:
            out.append(moment.replace(tzinfo=None).isoformat(sep=" "))  # naive is UTC
        else:
            out.append(moment.astimezone(timezone(timedelta(minutes=off))).isoformat())
    return out


def generate(seed: int, posts: int) -> tuple[str, Truth]:
    """An archive with ``posts`` clean posts plus duplicate and malformed rows.

    About 6% extra rows are exact duplicates of earlier rows and about 4%
    are malformed in one of seven ways.  Post ticks follow a storm: a decaying
    burst over a quiet background spread across four months.  A share of
    authors carry creation stamps within the detector's age threshold of the
    archive's last tick, so the artificial score is not trivially zero.
    """
    rng = np.random.default_rng(seed)
    n_authors = max(1, posts // 4)
    young = rng.random(n_authors) < 0.2
    end_tick = _START + _SPAN_HOURS - 1
    created = np.where(young, end_tick - rng.integers(1, 700, n_authors),
                       _START - rng.integers(2_000, 60_000, n_authors))
    burst_start = _START + int(rng.integers(24 * 7, 24 * 30))
    in_burst = rng.random(posts) < 0.7
    offsets = np.where(in_burst,
                       burst_start - _START + np.floor(rng.exponential(200.0, posts)),
                       rng.integers(0, _SPAN_HOURS, posts))
    ticks = _START + np.minimum(offsets.astype(np.int64), _SPAN_HOURS - 1)
    ticks[0], ticks[1] = _START, end_tick  # pin the span
    authors = rng.integers(0, n_authors, posts)
    valences = np.round(rng.uniform(-1.0, 0.6, posts), 6)
    surfaces = rng.integers(0, 4, posts)
    targets = rng.integers(0, 1000, posts)
    stamps = _stamps(rng, ticks)
    born_stamps = _stamps(rng, created[authors])

    seen = set()
    records = []  # (text, tick, author, created, valence), one per post
    for i in range(posts):
        tick, author, valence = int(ticks[i]), int(authors[i]), float(valences[i])
        while (author, tick, valence) in seen:  # keys must be unique to be posts
            valence = round(valence / 2, 7)
        seen.add((author, tick, valence))
        surface = ("company_page", "general_stream", "",
                   f"employee_profile:{targets[i]}")[surfaces[i]]
        text = f"{stamps[i]},{author},{born_stamps[i]},{surface},{valence!r}"
        records.append((text, tick, author, int(created[author]), valence))

    # Rows are placed by sort key: post i at i, a duplicate of post j
    # somewhere after j (so the first copy in file order is the post), a
    # malformed row anywhere.
    n_dup = posts * 6 // 100
    n_bad = posts * 4 // 100
    dup_src = rng.integers(0, posts, n_dup)
    keys = np.concatenate([np.arange(posts, dtype=float),
                           dup_src + rng.uniform(0.0, 1.0, n_dup) * (posts - dup_src),
                           rng.uniform(-1.0, posts, n_bad)])
    bad_kinds = rng.integers(0, len(_MALFORMED), n_bad)
    texts = ([r[0] for r in records] + [records[j][0] for j in dup_src.tolist()]
             + [_MALFORMED[k](rng) for k in bad_kinds.tolist()])
    lines = [texts[i] for i in np.argsort(keys, kind="stable").tolist()]
    truth = Truth(
        rows=len(lines), duplicates=n_dup, malformed=n_bad,
        ticks=[r[1] for r in records], authors=[r[2] for r in records],
        created=[r[3] for r in records], valences=[r[4] for r in records])
    return HEADER + "\n" + "\n".join(lines) + "\n", truth
