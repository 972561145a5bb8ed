import concurrent.futures
import contextlib
import csv
import gc
import io
import json
import math
import multiprocessing
import re
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from firesim import analytics, cli
from firesim.agents import GENERAL_STREAM, Post, Surface
from firesim.analytics import (CascadeClass, CorruptArchiveError,
                               FinancialProxy, REPORT_FILES,
                               SentimentSummary, _parse_timestamp,
                               _parse_timestamps, aggregate_window,
                               classify_run_cascade, compound_score,
                               emit_report, financial_csv_text,
                               ingest_archive, load_sentiment_summaries,
                               predict_cascade, run_outcome, sentiment_csv_text,
                               sentiment_windows, sentiment_windows_for_run,
                               window_summary)
from firesim.scenario import build_from_seed, default_config, expand_preset

DATA = Path(__file__).parent / "data"


# -- sentiment scoring -----------------------------------------------------------

class Sentiment(Enum):
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"


def score_valence(valence: float, neutral_band: float) -> Sentiment:
    """Scalar oracle of the window kernel's band rule: closed at both ends."""
    if neutral_band < 0:
        raise ValueError("neutral_band must be >= 0")
    if valence < -neutral_band:
        return Sentiment.NEGATIVE
    if valence > neutral_band:
        return Sentiment.POSITIVE
    return Sentiment.NEUTRAL


def test_score_valence_trichotomy():
    assert score_valence(-0.5, 0.1) is Sentiment.NEGATIVE
    assert score_valence(0.5, 0.1) is Sentiment.POSITIVE
    assert score_valence(0.05, 0.1) is Sentiment.NEUTRAL
    # the band is closed at both ends
    assert score_valence(0.1, 0.1) is Sentiment.NEUTRAL
    assert score_valence(-0.1, 0.1) is Sentiment.NEUTRAL
    with pytest.raises(ValueError):
        score_valence(0.0, -0.1)
    # the window kernel draws the same lines
    [w] = sentiment_windows([5], [-0.5, 0.5, 0.05, 0.1, -0.1], window=1,
                            neutral_band=0.1, alpha=15.0)
    assert (w.negative, w.neutral, w.positive) == (1 / 5, 3 / 5, 1 / 5)
    with pytest.raises(ValueError):
        sentiment_windows([1], [0.0], window=1, neutral_band=-0.1, alpha=15.0)


def test_compound_score_oracle():
    assert compound_score(5.0, 15.0) == pytest.approx(5.0 / math.sqrt(40.0))
    assert compound_score(0.0, 15.0) == 0.0
    assert compound_score(-5.0, 15.0) == pytest.approx(-5.0 / math.sqrt(40.0))


def _post(valence, tick=0, author=1):
    return Post(author=author, tick=tick, topic_id="t", surface=GENERAL_STREAM,
                valence=valence, organic=True)


def test_aggregate_window_oracle():
    posts = [_post(v) for v in (-0.8, -0.3, 0.0, 0.05, 0.4, 0.9)]
    s = aggregate_window(posts, 3, 10, 20, neutral_band=0.1, alpha=15.0)
    assert (s.window_id, s.start_tick, s.end_tick, s.post_count) == (3, 10, 20, 6)
    assert s.negative == pytest.approx(2 / 6)
    assert s.neutral == pytest.approx(2 / 6)
    assert s.positive == pytest.approx(2 / 6)
    total = -0.8 - 0.3 + 0.0 + 0.05 + 0.4 + 0.9
    assert s.compound == pytest.approx(total / math.sqrt(total * total + 15.0))


def test_aggregate_window_sum_of_negative_zeros_is_positive_zero():
    # the scalar sum starts at +0.0, and 0.0 + -0.0 == +0.0
    s = aggregate_window([_post(-0.0), _post(-0.0)], 0, 0, 24,
                         neutral_band=0.1, alpha=15.0)
    assert math.copysign(1.0, s.compound) == 1.0
    assert sentiment_csv_text([s]).endswith(",0.0\n")


def _scalar_window(posts, window_id, start, end, *, neutral_band, alpha):
    """Reference: classify with score_valence and sum valences one by one."""
    if not posts:
        return SentimentSummary(window_id, start, end, 0, None, None, None, 0.0)
    counts = {label: 0 for label in Sentiment}
    total = 0.0
    for post in posts:
        counts[score_valence(post.valence, neutral_band)] += 1
        total += post.valence
    n = len(posts)
    return SentimentSummary(window_id, start, end, n, counts[Sentiment.NEGATIVE] / n,
                            counts[Sentiment.NEUTRAL] / n, counts[Sentiment.POSITIVE] / n,
                            compound_score(total, alpha))


@pytest.mark.parametrize("preset", ["default", "defended_baseline", "rapid_massive"])
@pytest.mark.parametrize("seed", [1, 4])
def test_run_sentiment_windows_match_materialised_posts(preset, seed):
    cfg = default_config() if preset == "default" else expand_preset(preset)
    cfg = replace(cfg, graph=replace(cfg.graph, n=1000))
    sim = build_from_seed(cfg, seed)
    sim.run(cfg.run.ticks)
    ticks = len(sim.history.total_posts)
    for width in (cfg.analytics.sentiment_window, 7):
        sim.cfg = replace(cfg, analytics=replace(cfg.analytics, sentiment_window=width))
        an = sim.cfg.analytics
        bounds = [(k, start, min(start + width, ticks))
                  for k, start in enumerate(range(0, ticks, width))]
        kernel = sentiment_csv_text(sentiment_windows_for_run(sim))
        wrapped = sentiment_csv_text(
            aggregate_window(sim.post_log.posts_between(start, end), k, start, end,
                             neutral_band=an.neutral_band, alpha=an.compound_alpha)
            for k, start, end in bounds)
        scalar = sentiment_csv_text(
            _scalar_window(sim.post_log.posts_between(start, end), k, start, end,
                           neutral_band=an.neutral_band, alpha=an.compound_alpha)
            for k, start, end in bounds)
        assert kernel == wrapped == scalar


@st.composite
def _window_logs(draw):
    """Posts per tick, their valences (the band's edges and -0.0 among
    them), the neutral band and a window width from 1 to the tick count."""
    band = draw(st.sampled_from([0.0, 0.1, 0.25]))
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=24))
    valence = st.one_of(st.sampled_from([band, -band, 0.0, -0.0]),
                        st.floats(min_value=-1.0, max_value=1.0))
    valences = draw(st.lists(valence, min_size=sum(counts), max_size=sum(counts)))
    return counts, valences, band, draw(st.integers(1, len(counts)))


@given(_window_logs())
@example(([0, 3, 0, 0, 2], [0.1, -0.1, -0.0, -0.0, 0.5], 0.1, 2))
@settings(max_examples=200, deadline=None)
def test_sentiment_windows_match_each_window_aggregated_alone(log):
    counts, valences, band, width = log
    ticks = np.repeat(np.arange(len(counts)), counts).tolist()
    posts = [_post(v, tick=t) for v, t in zip(valences, ticks)]
    kernel = sentiment_csv_text(sentiment_windows(counts, valences, window=width,
                                                  neutral_band=band, alpha=15.0))
    bounds = [(k, start, min(start + width, len(counts)))
              for k, start in enumerate(range(0, len(counts), width))]
    for one_window in (aggregate_window, _scalar_window):
        rows = (one_window([p for p in posts if start <= p.tick < end], k, start, end,
                           neutral_band=band, alpha=15.0) for k, start, end in bounds)
        assert kernel == sentiment_csv_text(rows)


def test_sentiment_windows_hold_no_whole_log_array(traced_peak):
    """Counting on each window's slice peaks at 0.33 MB for 300k posts in
    seven windows; cumulative counts over the whole log took 7.2 MB."""
    rng = np.random.default_rng(0)
    counts = rng.poisson(1785, 168)
    valences = rng.uniform(-1.0, 1.0, counts.sum())
    windows, peak = traced_peak(sentiment_windows, counts, valences, window=24,
                                neutral_band=0.05, alpha=15.0)
    assert sum(w.post_count for w in windows) == len(valences)
    assert peak < valences.nbytes / 2


@st.composite
def _chunked_logs(draw):
    """Valences per tick as chunks (empty ticks, -0.0 and the band's edges
    among them), the neutral band, a window width and a sum block short
    enough that some chunks span several blocks."""
    band = draw(st.sampled_from([0.0, 0.05, 0.25]))
    valence = st.one_of(st.sampled_from([band, -band, 0.0, -0.0]),
                        st.floats(min_value=-1.0, max_value=1.0))
    chunks = draw(st.lists(st.lists(valence, max_size=9), min_size=1, max_size=16))
    return chunks, band, draw(st.integers(1, len(chunks))), draw(st.integers(1, 4))


@given(_chunked_logs())
@example(([[-0.0], [], [-0.0, -0.0]], 0.0, 3, 1))
@example(([[0.05, -0.05, 1e-300, -1e-300, 0.5], [0.1]], 0.05, 1, 2))
@settings(max_examples=300, deadline=None)
def test_chunked_window_summary_matches_one_array_and_scalar_loop(log):
    chunks, band, width, block = log
    counts = [len(c) for c in chunks]
    flat = [v for c in chunks for v in c]
    posts = [_post(v, tick=t) for t, c in enumerate(chunks) for v in c]
    bounds = [(k, start, min(start + width, len(chunks)))
              for k, start in enumerate(range(0, len(chunks), width))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytics, "SUM_BLOCK", block)
        chunked = sentiment_csv_text(
            window_summary(k, start, end, [np.array(c, dtype=float) for c in chunks[start:end]],
                           neutral_band=band, alpha=15.0)
            for k, start, end in bounds)
        one_array = sentiment_csv_text(sentiment_windows(counts, flat, window=width,
                                                         neutral_band=band, alpha=15.0))
    scalar = sentiment_csv_text(
        _scalar_window([p for p in posts if start <= p.tick < end], k, start, end,
                       neutral_band=band, alpha=15.0)
        for k, start, end in bounds)
    assert chunked == one_array == scalar


def test_window_sum_over_blocks_is_the_cumulative_sum():
    """Chunks longer than ``SUM_BLOCK`` carry the running sum across blocks,
    so the compound score is the one ``0.0 + np.cumsum(valences)[-1]`` gives."""
    rng = np.random.default_rng(3)
    valences = rng.uniform(-1.0, 1.0, 5 * analytics.SUM_BLOCK + 17) ** 3
    cuts = np.sort(rng.integers(0, len(valences), 6))
    summary = window_summary(0, 0, 7, np.split(valences, cuts), neutral_band=0.05,
                             alpha=15.0)
    assert summary.post_count == len(valences)
    assert summary.compound == compound_score(0.0 + float(np.cumsum(valences)[-1]), 15.0)


def test_run_report_reads_valences_in_place(traced_peak, tmp_path):
    """The report reads each window's valences from the post log's per-tick
    arrays: it peaks well below one copy of all valences, where the
    concatenation and its cumulative sum took two."""
    cfg = default_config()
    sim = build_from_seed(replace(cfg, graph=replace(cfg.graph, n=10_000)), 1)
    sim.run(cfg.run.ticks)
    valence_bytes = sum(valences.nbytes for _, valences, *_ in sim.post_log.ticks)
    _, peak = traced_peak(emit_report, sim, tmp_path)
    assert valence_bytes > 200_000
    assert peak < valence_bytes / 4


def test_aggregate_empty_window_reports_nulls():
    s = aggregate_window([], 0, 0, 24, neutral_band=0.1, alpha=15.0)
    assert (s.post_count, s.negative, s.neutral, s.positive, s.compound) == \
        (0, None, None, None, 0.0)


def test_sentiment_csv_roundtrip():
    rows = [
        aggregate_window([_post(-0.6), _post(0.2)], 0, 0, 24,
                         neutral_band=0.1, alpha=15.0),
        aggregate_window([], 1, 24, 48, neutral_band=0.1, alpha=15.0),
    ]
    text = sentiment_csv_text(rows)
    assert load_sentiment_summaries(text) == rows


def test_published_monthly_table_loads():
    text = (DATA / "launch_storm_monthly_sentiment.csv").read_text()
    rows = load_sentiment_summaries(text, closure_tolerance=0.01)
    assert len(rows) == 5
    first = rows[0]
    assert (first.negative, first.neutral, first.positive, first.compound) == \
        (0.085, 0.757, 0.150, 0.163)
    # one month of backlash swings the compound negative
    assert sum(1 for r in rows if r.compound < 0) == 1


def test_closure_violation_rejected():
    bad = ("window_id,start_tick,end_tick,post_count,negative,neutral,positive,compound\n"
           "0,0,24,10,0.5,0.3,0.1,0.0\n")
    with pytest.raises(ValueError, match="proportions sum"):
        load_sentiment_summaries(bad)
    with pytest.raises(ValueError, match="header"):
        load_sentiment_summaries("a,b,c\n1,2,3\n")


# -- archive ingestion -------------------------------------------------------------

ARCHIVE_HEADER_LINE = "timestamp,author_id,author_created_at,surface,valence"


def _write_archive(tmp_path, rows, header=ARCHIVE_HEADER_LINE):
    path = tmp_path / "archive.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def _columns(result):
    return (result.ticks.tolist(), result.authors.tolist(),
            result.created_ticks.tolist(), result.valences.tolist())


def test_ingest_dedups_exact_rows(tmp_path):
    rows = ["100,7,50,general_stream,-0.5"] * 3 + ["101,8,40,company_page,0.2"]
    result = ingest_archive(_write_archive(tmp_path, rows))
    assert result.total_rows == 4
    assert result.duplicate_count == 2
    assert result.malformed_count == 0
    assert _columns(result) == ([100, 101], [7, 8], [50, 40], [-0.5, 0.2])
    for column in (result.ticks, result.authors, result.created_ticks):
        assert column.dtype == np.int64
    assert result.valences.dtype == np.float64


def test_ingest_counts_malformed_rows(tmp_path):
    rows = [
        "100,7,50,general_stream,-0.5",
        "not-a-time,7,50,general_stream,-0.5",
        "100,7,50,general_stream,1.5",      # valence out of range
        "100,7,50,general_stream",           # wrong column count
        "101,9,10,general_stream,0.0",
        "102,9,10,employee_profile:4,-0.2",
        "103,2,10,company_page,-0.9",
    ]
    result = ingest_archive(_write_archive(tmp_path, rows))
    assert result.total_rows == 7
    assert result.malformed_count == 3   # a minority, so not fatal
    assert result.ticks.tolist() == [100, 101, 102, 103]  # 102: employee_profile:4


def test_ingest_blank_surface_defaults_to_stream(tmp_path):
    rows = ["100,1,50,,-0.5",                    # blank: the general stream
            "101,2,50,  ,-0.5",
            "102,3,50,  company_page ,-0.5",
            "103,4,50,employee_profile:x,-0.5",  # target is not an account id
            "104,5,50,intranet,-0.5"]            # no such surface
    result = ingest_archive(_write_archive(tmp_path, rows))
    assert result.malformed_count == 2
    assert result.authors.tolist() == [1, 2, 3]


def test_ingest_majority_malformed_is_fatal(tmp_path):
    rows = ["junk,junk,junk,junk,junk"] * 6 + ["100,7,50,general_stream,-0.5"] * 4
    with pytest.raises(CorruptArchiveError, match="malformed"):
        ingest_archive(_write_archive(tmp_path, rows))


def test_ingest_empty_file_is_fatal(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CorruptArchiveError, match="empty"):
        ingest_archive(path)
    # header-only archives are legal and simply contain nothing
    result = ingest_archive(_write_archive(tmp_path, []))
    assert result.total_rows == 0 and len(result.ticks) == 0
    assert result.ticks.dtype == np.int64 and result.valences.dtype == np.float64


def test_ingest_rejects_unknown_header(tmp_path):
    with pytest.raises(CorruptArchiveError, match="expected header"):
        ingest_archive(_write_archive(tmp_path, [], header="a,b,c,d,e"))


def test_ingest_accepts_text_score_alias(tmp_path):
    header = "timestamp,author_id,author_created_at,surface,text_score"
    result = ingest_archive(_write_archive(tmp_path,
                                           ["100,7,50,general_stream,-0.5"], header))
    assert len(result.ticks) == 1


def test_ingest_parses_iso_timestamps(tmp_path):
    stamp = "2020-12-10T06:00:00Z"
    expected = int(datetime(2020, 12, 10, 6, tzinfo=timezone.utc).timestamp() // 3600)
    created = int(datetime(2020, 12, 1, tzinfo=timezone.utc).timestamp() // 3600)
    rows = [f"{stamp},7,2020-12-01T00:00:00Z,general_stream,-0.5"]
    result = ingest_archive(_write_archive(tmp_path, rows))
    assert result.ticks.tolist() == [expected]
    assert result.created_ticks.tolist() == [created]
    # naive stamps are read as UTC
    rows = ["2020-12-10T06:00:00,7,50,general_stream,-0.5"]
    result = ingest_archive(_write_archive(tmp_path, rows))
    assert result.ticks.tolist() == [expected]


def test_ingest_fields_outside_int64_are_malformed(tmp_path):
    big, small = str(2 ** 63), str(-2 ** 63 - 1)
    rows = [f"{big},7,50,general_stream,-0.5",
            f"100,{big},50,general_stream,-0.5",
            f"100,7,{small},general_stream,-0.5",
            "100000000000000000000,7,50,general_stream,-0.5",
            f"{2 ** 63 - 1},{-2 ** 63},{-2 ** 63},general_stream,-0.5"]
    rows += ["100,7,50,general_stream,-0.5"] * 5
    result = ingest_archive(_write_archive(tmp_path, rows))
    assert result.malformed_count == 4 and result.duplicate_count == 4
    assert result.ticks.tolist() == [2 ** 63 - 1, 100]
    assert result.authors.tolist() == [-2 ** 63, 7]


# The per-row loop `ingest_archive` ran before it parsed columns, plus the
# int64 range check on ticks, authors and creation stamps: the oracle for
# the chunked column parser.
def _ingest_rows_oracle(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        kept, seen = [], set()
        total = duplicates = malformed = 0
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            total += 1
            try:
                if len(row) != 5:
                    raise ValueError("wrong column count")
                tick = _parse_timestamp(row[0])
                author = int(row[1])
                created = _parse_timestamp(row[2])
                if row[3].strip():
                    Surface.from_text(row[3].strip())
                valence = float(row[4])
                if not -1.0 <= valence <= 1.0:
                    raise ValueError("valence out of range")
                if not all(-2 ** 63 <= v < 2 ** 63 for v in (tick, author, created)):
                    raise OverflowError("outside int64")
            except (ValueError, OverflowError):
                malformed += 1
                continue
            key = (author, tick, valence)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            kept.append((tick, author, created, valence))
    columns = tuple(list(c) for c in zip(*kept)) if kept else ([], [], [], [])
    return columns, total, duplicates, malformed


def _field(lo, hi, *edges):
    """Integers in [lo, hi], drawn half the time from the edge values."""
    return st.one_of(st.sampled_from(edges), st.integers(lo, hi))


_ISO_PARTS = st.tuples(
    _field(0, 10_000, 0, 1, 1600, 1900, 2000, 2023, 2024, 2100, 9999),
    _field(0, 13, 0, 1, 2, 2, 12, 13), _field(0, 32, 0, 1, 28, 29, 29, 30, 31, 32),
    st.sampled_from("T T x"), _field(0, 25, 0, 23, 24), _field(0, 61, 0, 59, 60),
    _field(0, 61, 0, 59, 60),
    st.sampled_from(["", "", ".5", ".123456", ",5"]),
    st.one_of(st.just(""), st.just("Z"),
              st.tuples(st.sampled_from("+-"), _field(0, 25, 0, 5, 23, 24),
                        _field(0, 61, 0, 30, 59, 60))))


def _iso_stamp(parts):
    year, month, day, sep, hour, minute, second, fraction, zone = parts
    if isinstance(zone, tuple):
        zone = f"{zone[0]}{zone[1]:02d}:{zone[2]:02d}"
    return (f"{year:04d}-{month:02d}-{day:02d}{sep}{hour:02d}:{minute:02d}:{second:02d}"
            f"{fraction}{zone}")


# valid ISO stamps, weighted to month ends, leap days and offsets that cross a date
_VALID_ISO = st.builds(
    lambda moment, offset, form: (
        moment.astimezone(timezone(timedelta(minutes=offset))).isoformat()
        if form == 0 else moment.strftime("%Y-%m-%dT%H:%M:%SZ") if form == 1
        else moment.replace(tzinfo=None).isoformat(sep=" ")),
    st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                 timezones=st.just(timezone.utc)).map(lambda m: m.replace(microsecond=0)),
    st.integers(-23 * 60 - 59, 23 * 60 + 59), st.integers(0, 2))

_INTEGER_CELLS = st.one_of(
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.integers(-2 ** 63 - 2, 2 ** 63 + 1).map(str),
    st.integers(0, 10 ** 6).map(lambda v: f"+{v}"),
    st.integers(10, 10 ** 6).map(lambda v: f"{str(v)[:1]}_{str(v)[1:]}"),
    st.integers(-1000, 1000).map(lambda v: f" {v} "))


@st.composite
def _mutated(draw, cells):
    cell = draw(cells)
    alphabet = "0159-+:TZ .x٣\x00"
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(cell)))
        kind = draw(st.integers(0, 2))
        char = draw(st.sampled_from(alphabet))
        if kind == 0:
            cell = cell[:pos] + char + cell[pos + 1:]
        elif kind == 1:
            cell = cell[:pos] + cell[pos + 1:]
        else:
            cell = cell[:pos] + char + cell[pos:]
    return cell


_TIMESTAMP_CELLS = st.one_of(
    _VALID_ISO, _ISO_PARTS.map(_iso_stamp), _INTEGER_CELLS, st.text(max_size=30),
    _mutated(_VALID_ISO), _mutated(_ISO_PARTS.map(_iso_stamp)), _mutated(_INTEGER_CELLS))


@given(st.lists(_TIMESTAMP_CELLS, max_size=40))
@example(["0000-03-01T00:00:00Z", "0001-01-01T00:00:00+05:00", "9999-12-31T23:59:59-05:00",
          "1900-02-29T00:00:00Z", "2000-02-29 00:00:00", "2100-02-29T00:00:00",
          "2024-02-29T23:30:00-00:30", "2023-02-29T12:00:00Z", "2024-04-31T00:00:00Z",
          "2024-01-01T24:00:00Z", "2024-01-01T23:60:00Z", "2024-01-01T23:59:60Z",
          "2024-01-01T00:00:00+24:00", "2024-01-01T00:00:00+23:60", "2024-01-01T00:00:00+00:60",
          "2024-01-01T00:00:00-23:59", "2024-01-01x00:00:00", "2024-01-01T00:00:00z",
          "2024-01-01T1::00:00Z", "2024-0/-01T00:00:00", "12:4", "1/", ":",
          "-0", "-", "", "+7", "7_0", " 7 ", "٣", "999999999999999999", "-99999999999999999",
          "9223372036854775807", "9223372036854775808", "-9223372036854775809"])
@settings(max_examples=300, deadline=None)
def test_chunk_timestamp_parser_matches_scalar(cells):
    def scalar(cell):
        try:
            tick = _parse_timestamp(cell)
        except (ValueError, OverflowError):
            return None
        return tick if -2 ** 63 <= tick < 2 ** 63 else None

    ticks, ok = _parse_timestamps(*analytics._cell_bytes(cells))
    assert [t if good else None for t, good in zip(ticks.tolist(), ok.tolist())] == \
        [scalar(cell) for cell in cells]


def _cells(common, rare):
    """Mostly the few valid ``common`` cells, so that rows repeat often."""
    return st.one_of(st.sampled_from(common), st.sampled_from(common),
                     st.sampled_from(common), st.sampled_from(rare))


# How a cell is written: as is, or in each form ``csv.reader`` reads a quote
# in: quoted whole; quoted with ``""`` and a comma, a comma, ``\n`` or
# ``\r\n`` inside; with text after its closing quote; with a quote
# mid-field (a literal character, or at the start of an empty cell a quote
# that opens).
_SPELLINGS = st.sampled_from([
    str, str, lambda c: f'"{c}"', lambda c: f'"""{c}"","', lambda c: f'"{c},"',
    lambda c: f'"{c}\n"', lambda c: f'"\r\n{c}"', lambda c: f'"{c[:1]}"{c[1:]}',
    lambda c: f'{c[:1]}"{c[1:]}'])

# The five columns' cells: rows drawn from them repeat (author, tick,
# valence) under other spellings, creation stamps and surfaces, so keeping
# the wrong copy of a duplicate shows.
_ROW_CELLS = (_cells(["100", "2024-01-01T00:00:00Z", "101"],
                     [" 100 ", "+101", "2024-01-01T00:30:00+00:00", "2024-01-01 01:00:00",
                      "1_00", "2023-02-29T00:00:00Z", "soon", "", "9" * 20]),
              _cells(["7", "8"], ["+7", "07", "x", str(2 ** 63), " 8", "-3", "0_7", "\u0663",
                                  str(-2 ** 63), str(-2 ** 63 - 1), "9" * 18, "9" * 19]),
              _cells(["50", "2020-01-01T00:00:00-05:30", "-9"], ["later", str(-2 ** 63 - 1)]),
              _cells(["", "company_page", "employee_profile:4"],
                     ["employee_profile:x", "intranet", " general_stream "]),
              _cells(["-0.0", "0.0", "0", "-0.5"],
                     ["0.5", "1.5", "nan", "n/a", " 1 ", "-1.0", "1.", ".5", "+0.5", "1e-3",
                      "1_0", "-0", "00.50", " -0.5", "0.1234567890123456", "0.9007199254740993",
                      "-0.50000000000000000001"]))
_ARCHIVE_ROWS = st.lists(st.one_of(
    st.tuples(*_ROW_CELLS).map(",".join), st.tuples(*_ROW_CELLS).map(",".join),
    st.tuples(*(st.tuples(cells, _SPELLINGS) for cells in _ROW_CELLS)).map(
        lambda row: ",".join(spell(cell) for cell, spell in row)),
    # the last, an unterminated quote: at the end of the file, or open over later rows
    st.sampled_from(["", " , , , , ", "100,7,50,company_page", "1,2,3,4,5,6",
                     '100,7,50,company_page,"-0.5'])),
    max_size=60)


def _oracle_outcome(path):
    """``_outcome`` as the row loop gives it."""
    columns, total, duplicates, malformed = _ingest_rows_oracle(path)
    if total and malformed / total > 0.5:
        return f"{path}: {malformed} of {total} rows malformed; archive looks corrupt"
    return (*columns, np.array(columns[3], dtype=np.float64).tobytes(), total, duplicates,
            malformed)


def _assert_ingest_matches_row_loop(path):
    columns, total, duplicates, malformed = _ingest_rows_oracle(path)
    if total and malformed / total > 0.5:
        with pytest.raises(CorruptArchiveError, match="malformed"):
            ingest_archive(path)
        return
    result = ingest_archive(path)
    assert (result.total_rows, result.duplicate_count, result.malformed_count) == \
        (total, duplicates, malformed)
    assert _columns(result) == columns
    # -0.0 rows keep their sign when they come first
    assert [math.copysign(1, v) for v in result.valences.tolist()] == \
        [math.copysign(1, v) for v in columns[3]]


# header spellings that read as the header
_HEADERS = st.sampled_from([
    ARCHIVE_HEADER_LINE, '"timestamp","author_id",author_created_at,"surface","valence"',
    '"timestamp\r\n",author_id," author_created_at",surface,"valence"'])


@given(_ARCHIVE_ROWS, st.integers(1, 64), _HEADERS)
# a read that holds no line end cuts a character of two bytes in two
@example(["100,7,50," + "\u00e9" * 7 + ",0.1", "100,7,50,company_page,0.1"], 1,
         ARCHIVE_HEADER_LINE)
@settings(max_examples=150, deadline=None)
def test_chunked_ingest_matches_row_loop(tmp_path_factory, rows, block_bytes, header):
    """Blocks of a few bytes, so that records and quoted fields straddle
    the cuts between blocks."""
    path = _write_archive(tmp_path_factory.mktemp("archive"), rows, header)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytics, "_BLOCK_BYTES", block_bytes)
        _assert_ingest_matches_row_loop(path)


@given(_ARCHIVE_ROWS, st.integers(1, 64), st.booleans(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_block_ingest_matches_row_loop(tmp_path_factory, rows, block_bytes, quoted, cpus):
    """Blocks of a few bytes, cut just after a line end, hold a line or a few;
    a quoted row makes the archive one range."""
    if quoted:
        rows = rows[:len(rows) // 2] + ['"100",7,"50",company_page,"-0.5"'] + rows[len(rows) // 2:]
    path = _write_archive(tmp_path_factory.mktemp("archive"), rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytics, "_BLOCK_BYTES", block_bytes)
        _force_split(mp, cpus)
        _assert_ingest_matches_row_loop(path)
    assert multiprocessing.active_children() == []


def test_chunked_ingest_dedups_across_chunks(tmp_path, monkeypatch):
    rows = [f"{100 + k % 4},7,{50 + k},general_stream,{('-0.0', '0.0')[k % 3 == 0]}"
            for k in range(12)]
    rows[5] = '"' + rows[5].replace(",", '","') + '"'  # a quoted copy
    for block_bytes in (1, 40, 100, 400, 1 << 18):
        monkeypatch.setattr(analytics, "_BLOCK_BYTES", block_bytes)
        result = ingest_archive(_write_archive(tmp_path, rows))
        assert result.ticks.tolist() == [100, 101, 102, 103]
        assert result.created_ticks.tolist() == [50, 51, 52, 53]
        assert [math.copysign(1, v) for v in result.valences.tolist()] == [1, -1, -1, 1]
        assert result.duplicate_count == 8


def _force_split(mp, cpus, min_range_bytes=1):
    """Let ingest cut any archive of ``2 * min_range_bytes`` bytes or more
    into up to ``cpus`` ranges."""
    mp.setattr(analytics.os, "cpu_count", lambda: cpus)
    mp.setattr(analytics, "_MIN_RANGE_BYTES", min_range_bytes)


@given(_ARCHIVE_ROWS, st.integers(1, 64), st.integers(2, 4), st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_split_ingest_matches_row_loop(tmp_path_factory, rows, block_bytes, cpus,
                                       min_range_bytes):
    path = _write_archive(tmp_path_factory.mktemp("archive"), rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytics, "_BLOCK_BYTES", block_bytes)
        _force_split(mp, cpus, min_range_bytes)
        _assert_ingest_matches_row_loop(path)
    assert multiprocessing.active_children() == []


def _outcome(path):
    """An ingest as plain values (valences as bits, so -0.0 shows), or its
    CorruptArchiveError message."""
    try:
        result = ingest_archive(path)
    except CorruptArchiveError as err:
        return str(err)
    return (*_columns(result), result.valences.tobytes(), result.total_rows,
            result.duplicate_count, result.malformed_count)


def _one_and_split(path, cpus=2, min_range_bytes=1):
    """The ingest outcome on one CPU, which is one pass, and with the split
    forced, and the ranges the split used.  Neither leaves a process behind."""
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp, 1, min_range_bytes)
        assert analytics._byte_ranges(path) == [(0, path.stat().st_size)]
        one = _outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp, cpus, min_range_bytes)
        ranges = analytics._byte_ranges(path)
        split = _outcome(path)
    assert multiprocessing.active_children() == []
    return one, split, ranges


def _cuts(ranges) -> list[int]:
    return [start for start, _ in ranges[1:]]


def test_split_keeps_the_first_copy_of_a_duplicate_across_a_cut(tmp_path):
    rows = ["100,7,50,general_stream,-0.5"]
    rows += [f"{200 + k},{k},50,company_page,0.25" for k in range(8)]
    rows += ["2024-01-01T00:00:00Z,9,50,,0.0", "100,7,60,company_page,-0.5",
             "473352,9,70,general_stream,-0.0"]
    path = _write_archive(tmp_path, rows)
    one, split, ranges = _one_and_split(path)
    data = path.read_bytes()
    [cut] = _cuts(ranges)
    assert data.index(b"100,7,50") < cut < data.index(b"100,7,60")
    assert one == split
    ticks, authors, created, valences = split[:4]
    assert created[ticks.index(100)] == 50 and created[authors.index(9)] == 50
    assert split[-2:] == (2, 0)  # two duplicates, no malformed row


@pytest.mark.parametrize("ends", ["\r\n", "\r", "\r\r\n", "mixed"])
def test_split_cuts_only_after_a_line_feed(tmp_path, ends):
    rows = [ARCHIVE_HEADER_LINE] + [f"{100 + k % 5},{k % 3},50,general_stream,{k / 20}"
                                    for k in range(20)]
    if ends == "mixed":
        text = "".join(row + ("\n" if k % 4 == 3 else "\r") for k, row in enumerate(rows))
    else:
        text = ends.join(rows) + ends
    path = tmp_path / "archive.csv"
    path.write_bytes(text.encode("utf-8"))
    one, split, ranges = _one_and_split(path, cpus=3)
    assert one == split and one[-3] == 20
    data = path.read_bytes()
    if ends == "\r":  # no line feed: nowhere to cut
        assert ranges == [(0, len(data))]
    else:
        assert len(ranges) == 3 and all(data[cut - 1:cut] == b"\n" for cut in _cuts(ranges))


def test_split_skips_blank_rows_at_a_cut(tmp_path):
    rows = [f"{100 + k},{k},50,general_stream,-0.5" for k in range(6)]
    rows += ["", " , , , , ", "", "", " ", ""] * 3
    rows += [f"{200 + k},{k},50,company_page,0.5" for k in range(6)]
    path = _write_archive(tmp_path, rows)
    one, split, ranges = _one_and_split(path, cpus=4)
    assert len(ranges) == 4 and one == split
    assert split[-3:] == (12, 0, 0)


def test_quoted_archive_is_one_range_with_no_pool(tmp_path, monkeypatch):
    rows = [f"{100 + k},{k},50,general_stream,-0.5" for k in range(20)]
    rows.append('120,7,50,"company_page",0.5')
    path = _write_archive(tmp_path, rows)
    _force_split(monkeypatch, 4)
    assert analytics._byte_ranges(path) == [(0, path.stat().st_size)]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert ingest_archive(path).total_rows == 21


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xe2\x82", b"\xc3"])
def test_split_bad_utf8_in_the_last_range_is_the_one_pass_error(tmp_path, bad):
    good = [f"{100 + k},{k},50,general_stream,-0.5".encode() for k in range(12)]
    path = tmp_path / "archive.csv"
    path.write_bytes(b"\n".join([ARCHIVE_HEADER_LINE.encode()] + good + [b"101,7,50," + bad]))
    one, split, ranges = _one_and_split(path, cpus=3)
    assert len(ranges) == 3 and path.read_bytes().index(bad) > ranges[-1][0]
    assert isinstance(one, str) and "not UTF-8 text" in one
    assert split == one


def test_split_bad_header_before_bad_utf8_is_the_one_pass_error(tmp_path):
    """A single pass decodes ahead of the CSV reader, so it meets the bad
    byte of a later range before it checks the header."""
    path = tmp_path / "archive.csv"
    path.write_bytes(b"a,b,c,d,e\n" + b"100,7,50,general_stream,-0.5\n" * 4 + b"\xff\n")
    one, split, ranges = _one_and_split(path)
    assert len(ranges) == 2
    assert split == one == f"{path}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("first,second,fatal", [
    (["ok"] * 3 + ["junk"] * 2, ["ok"] + ["junk"] * 3, True),   # 5 of 9 malformed
    (["ok"] * 4 + ["junk"], ["ok"] + ["junk"] * 2, False),      # 3 of 8
])
def test_split_majority_malformed_is_judged_on_summed_counts(tmp_path, first, second,
                                                             fatal):
    """Range 0 holds a minority of malformed rows and range 1 a majority;
    only the sum over both decides."""
    good = "100,7,50,general_stream,-0.5"
    first, second = ([good if row == "ok" else row for row in rows] for rows in (first, second))
    head = "\n".join([ARCHIVE_HEADER_LINE] + first) + "\n"
    # pad the last (malformed) row so that the middle byte ends range 0
    second[-1] += "x" * (len(head) - 2 - len("\n".join(second) + "\n"))
    path = tmp_path / "archive.csv"
    path.write_text(head + "\n".join(second) + "\n", encoding="utf-8")
    one, split, ranges = _one_and_split(path)
    assert _cuts(ranges) == [len(head)]
    counts = [analytics._ingest_range((path, start, end))[-2:] for start, end in ranges]
    assert counts == [(len(first), first.count("junk")), (len(second), len(second) - 1)]
    assert one == split
    assert isinstance(split, str) == fatal


@pytest.mark.parametrize("body", ["", "\n", "\n\n\n \n", " , , , , \r\n\r\n"])
def test_split_header_only_archive_is_empty(tmp_path, body):
    path = tmp_path / "archive.csv"
    path.write_text(ARCHIVE_HEADER_LINE + "\n" + body, encoding="utf-8")
    one, split, _ = _one_and_split(path, cpus=4)
    assert one == split
    assert split[-3:] == (0, 0, 0) and split[0] == []


def test_split_empty_file_is_fatal(tmp_path):
    path = tmp_path / "archive.csv"
    path.write_bytes(b"")
    one, split, _ = _one_and_split(path)
    assert split == one == f"{path}: empty file, expected header"


def _varied_rows(count: int) -> list[str]:
    """Rows in every stamp, surface and valence form the kernels read, with a
    refused or malformed cell in some and an earlier row repeated in others."""
    epoch = datetime(2024, 1, 1, tzinfo=timezone.utc)
    rows = []
    for k in range(count):
        moment = epoch + timedelta(minutes=97 * k)
        stamp = (str(473352 + k // 3), moment.strftime("%Y-%m-%dT%H:%M:%SZ"),
                 moment.replace(tzinfo=None).isoformat(sep=" "),
                 moment.astimezone(timezone(timedelta(minutes=30 * (k % 37 - 18)))).isoformat(),
                 f" {473352 + k}", "yesterday")[k % 6 if k % 11 else 5]
        surface = ("company_page", "general_stream", "", f"employee_profile:{k % 1000}",
                   "Company_Page", "intranet")[k % 6 if k % 13 else 5]
        valence = (repr(round((k * 7919 % 2001 - 1000) / 1000, 6)), "0", "-0.0", "1e-05",
                   " 0.5", "1.5")[k % 6 if k % 7 == 0 else 0]
        rows.append(rows[k // 2] if k % 17 == 16 else
                    f"{stamp},{k % 997 if k % 19 else 'user-9'},{473000 - k},{surface},{valence}")
    return rows


def test_multi_block_archive_matches_row_loop_in_one_pass_and_split(tmp_path, monkeypatch):
    """A quote-free archive of some 150 KB, parsed in 4 KB blocks: the block
    loop meets many cuts in one pass and in each of two ranges."""
    rows = _varied_rows(3000)
    path = _write_archive(tmp_path, rows)
    monkeypatch.setattr(analytics, "_BLOCK_BYTES", 4096)
    blocks, parse_block = [], analytics._parse_block
    monkeypatch.setattr(analytics, "_parse_block", lambda data, *args: blocks.append(len(data))
                        or parse_block(data, *args))
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            _force_split(mp, cpus, 1 << 16)
            assert len(analytics._byte_ranges(path)) == cpus
            _assert_ingest_matches_row_loop(path)
    # the one pass ran in this process; forked ranges record into their own copy.
    # A block is what a read left after its last line end, then the next read.
    assert len(blocks) >= path.stat().st_size // 4096
    assert max(blocks) <= 4096 + max(map(len, rows))
    one, split, ranges = _one_and_split(path, 2, 1 << 16)
    assert len(ranges) == 2 and one == split
    assert split[-3:] == _ingest_rows_oracle(path)[1:]


def test_a_quote_never_closed_is_refused_once_its_field_passes_the_limit(tmp_path,
                                                                        monkeypatch):
    """A record open at a block's end is read again with the next block, so
    a quote never closed would carry the rest of the file, 1.2 MB here: the
    carry is refused once its field is past the reader's limit."""
    rows = ['100,7,50,company_page,"-0.5'] + ["101,8,60,general_stream,0.25"] * 40_000
    path = _write_archive(tmp_path, rows)
    monkeypatch.setattr(analytics, "_BLOCK_BYTES", 1 << 14)
    blocks, parse_block = [], analytics._parse_block
    monkeypatch.setattr(analytics, "_parse_block", lambda data, *args: blocks.append(len(data))
                        or parse_block(data, *args))
    with pytest.raises(CorruptArchiveError, match=re.escape("unreadable CSV (field larger")):
        ingest_archive(path)
    # each read as long as the carry: 16, 32, 64, 128 and 256 KiB
    assert len(blocks) == 5 and max(blocks) <= 2 * csv.field_size_limit()


def _line(column: int, cell: str) -> str:
    """``100,7,50,company_page,-0.5`` with ``cell`` in ``column``."""
    row = ["100", "7", "50", "company_page", "-0.5"]
    row[column] = cell
    return ",".join(row)


_BOUNDARY_LINES = [
    # valences: digits on each side of 2**53 and of the double's 17 digits
    *(_line(4, cell) for cell in (
        "0." + "1" * 14, "0." + "1" * 15, "0." + "1" * 16, "-0." + "9" * 16,
        "0.9007199254740991", "0.9007199254740992", "0.9007199254740993",
        "-0.9007199254740993", "0.0000000000000001", "0.000000000000000001",
        "-0.5" + "0" * 17 + "1", "0." + "0" * 22 + "1",
        "1.", ".5", "+0.5", "1e-3", "1_0", "-0", "-0.0", "00.50", " 0.5", "0.5 ", " -0.5 ",
        "-", "-.5", "0..5", "0.5.", "1", "-1", "1.0", "-1.0000000000000001", "1.0000000000000001")),
    # integers: author, tick and creation tick
    *(_line(column, cell) for column in (0, 1, 2) for cell in (
        "1" * 18, "-" + "1" * 18, "1" * 19, str(2 ** 63 - 1), str(-2 ** 63), str(2 ** 63),
        str(-2 ** 63 - 1), "+7", "0_7", "\u0663", "-0", "007", "--7", "7-")),
    # surfaces
    *(_line(3, cell) for cell in (
        "Company_Page", "COMPANY_PAGE", "company_pagex", "general_strea", " general_stream",
        "employee_profile:-3", "employee_profile:", "employee_profile:1:2",
        "employee_profile:+7", "employee_profile: 7", "employee_profile:" + "9" * 18,
        "employee_profile:" + "9" * 30, "employee_profile", "EMPLOYEE_PROFILE:4")),
    # lines the kernels do not read
    _line(1, "7\x00"), _line(3, "company_page\x00"), _line(2, "50\r"), _line(4, "-0.5\r\r"),
    _line(1, "\t7"), _line(3, "general_\u017ftream"), _line(0, " 100"), "," * 4, " , , , , ",
    "\t,\t,\t,\t,\t", "\u00a0,,,,", "\x1c,,,,",  # blank to ``str.strip``, so skipped
    '"\r\n",,,,', '" \n","",,,', '"", ,,,',  # blank within quotes, so skipped
    # a literal quote sends the block to ``_toggles``: a doubled quote keeps the line end quoted
    '1"00,7,50,"company""\n_page",-0.5',
    _line(3, "x" * 131_072), _line(3, "x" * 131_073), _line(3, "\u00e9" * 65_537),
]


@pytest.mark.parametrize("quoted", [False, True], ids=["bytes", "quoted"])
@pytest.mark.parametrize("line", _BOUNDARY_LINES,
                         ids=lambda line: repr(line if len(line) < 60 else f"{len(line)} chars"))
def test_cells_beside_each_kernel_rule_ingest_as_the_row_loop(tmp_path, line, quoted):
    """One row under test, then a good row (quoted, so that the block holds a
    quote), so that a malformed row is counted and not fatal."""
    good = '"101",8,60,general_stream,0.25' if quoted else "101,8,60,general_stream,0.25"
    path = _write_archive(tmp_path, [line, good])
    try:
        _ingest_rows_oracle(path)
    except csv.Error as err:  # a field over the reader's limit
        with pytest.raises(CorruptArchiveError, match=re.escape(f"unreadable CSV ({err})")):
            ingest_archive(path)
        return
    _assert_ingest_matches_row_loop(path)


# -- converting each cell once ------------------------------------------------------

def _mapped_by_cell(convert, cells, fill):
    """``analytics._mapped`` as a loop over cells: the oracle."""
    out, rejected = [], []
    for i, cell in enumerate(cells):
        try:
            out.append(convert(cell))
        except (ValueError, OverflowError):
            out.append(fill)
            rejected.append(i)
    return out, rejected


_CONVERTERS = {"int": (int, 0), "float": (float, math.nan), "timestamp": (_parse_timestamp, 0)}


@given(st.sampled_from(sorted(_CONVERTERS)),
       st.lists(st.sampled_from(["7", " -8 ", "+9", "1_0", "0.5", "nan", "x", "", "1e999",
                                 "2024-01-01T00:00:00Z", "9" * 25]), max_size=30))
@example("int", [])
@example("int", ["x"])
@example("int", ["x", "7", "8"])  # rejected first
@example("int", ["7", "8", "x"])  # last
@example("int", ["7", "x", "y", "z", "8"])  # several in a row
@example("int", ["x", "y", "z"])  # every cell
@example("float", ["x", "7", "y", "8", "z"])
@settings(max_examples=200, deadline=None)
def test_mapped_converts_each_cell_once_like_a_cell_loop(converter, cells):
    convert, fill = _CONVERTERS[converter]
    seen = []

    def counting(cell):
        seen.append(cell)
        return convert(cell)

    out, rejected = analytics._mapped(counting, cells, fill)
    assert seen == cells
    assert repr((out, rejected)) == repr(_mapped_by_cell(convert, cells, fill))


@pytest.mark.parametrize("cell", [" 7 ", "\t7\n", "+7", "7_0", " -7", "\u20037\u2003", "\u0663",
                                  " +1_000 ", "-0"])
def test_integer_stamps_read_as_the_scalar_parser_reads_them(cell):
    # "2024-01-01T06:30" is off the array path, and ``int`` rejects it
    ticks, ok = _parse_timestamps(*analytics._cell_bytes([cell, "2024-01-01T00:00:00Z", "soon",
                                                          cell, "7_", "2024-01-01T06:30"]))
    assert ok.tolist() == [True, True, False, True, False, True]
    assert ticks[0] == ticks[3] == _parse_timestamp(cell)
    assert ticks[5] == _parse_timestamp("2024-01-01T06:30")


def test_a_cell_outside_int64_spoils_only_its_own_row(tmp_path):
    """Rejected and out-of-range cells sit first, mid-chunk and last in one
    chunk; every other row of the chunk parses."""
    big = str(2 ** 63)
    rows = [f"{100 + k},{k},2024-01-0{1 + k % 9}T00:00:00Z,general_stream,-0.5"
            for k in range(12)]
    rows[0] = f"100,{big},50,general_stream,-0.5"        # author past int64
    rows[4] = f"-{big}0,4,50,general_stream,-0.5"        # tick below int64
    rows[5] = "yesterday,5,50,general_stream,-0.5"      # no tick at all
    rows[6] = f"106,6,{big},general_stream,-0.5"         # creation past int64
    rows[11] = f"111,{-2 ** 63 - 1},50,general_stream,-0.5"
    path = _write_archive(tmp_path, rows)
    assert path.stat().st_size < analytics._BLOCK_BYTES
    result = ingest_archive(path)
    assert result.malformed_count == 5
    assert result.authors.tolist() == [1, 2, 3, 7, 8, 9, 10]
    assert result.ticks.tolist() == [101, 102, 103, 107, 108, 109, 110]


# -- dedup on one sort key ----------------------------------------------------------

def _first_occurrences_by_lexsort(authors, ticks, valences):
    """The three-key sort ``_first_occurrences`` ran before it mixed one key."""
    bits = (valences + 0.0).view(np.int64)
    order = np.lexsort((bits, ticks, authors))
    a, t, b = authors[order], ticks[order], bits[order]
    repeat = (a[1:] == a[:-1]) & (t[1:] == t[:-1]) & (b[1:] == b[:-1])
    first = np.ones(len(order), dtype=bool)
    first[order[1:][repeat]] = False
    return first


def _constant_keys(authors, ticks, bits):
    """Every row on one key: each pair of different rows collides."""
    return np.zeros(len(authors), dtype=np.uint64)


_INT64S = st.one_of(st.integers(-3, 3), st.sampled_from([-2 ** 63, -2 ** 63 + 1, 2 ** 63 - 1]),
                    st.integers(-2 ** 63, 2 ** 63 - 1))
_DEDUP_ROWS = st.lists(st.tuples(_INT64S, _INT64S, st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0]), st.floats(-1, 1))), min_size=1, max_size=6
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=60))


@given(_DEDUP_ROWS, st.booleans())
@settings(max_examples=200, deadline=None)
def test_first_occurrences_match_the_three_key_sort(rows, collide):
    authors, ticks = (np.array([row[i] for row in rows], dtype=np.int64) for i in (0, 1))
    valences = np.array([row[2] for row in rows], dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        if collide:
            mp.setattr(analytics, "_dedup_keys", _constant_keys)
        first = analytics._first_occurrences(authors, ticks, valences)
    assert first.tolist() == _first_occurrences_by_lexsort(authors, ticks, valences).tolist()


def test_colliding_keys_fall_back_to_the_three_key_sort(tmp_path, monkeypatch):
    rows = [f"{100 + k % 3},{k % 4},50,general_stream,{('-0.0', '0.0', '0.5')[k % 3]}"
            for k in range(30)]
    path = _write_archive(tmp_path, rows)
    monkeypatch.setattr(analytics, "_dedup_keys", _constant_keys)
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    _assert_ingest_matches_row_loop(path)
    assert sorts == [1]
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp, 3)
        assert len(analytics._byte_ranges(path)) == 3
        _assert_ingest_matches_row_loop(path)
    assert sorts == [1, 1]
    assert multiprocessing.active_children() == []


# -- the cyclic collector -------------------------------------------------------------

@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("collecting", [True, False])
def test_ingest_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, cpus, collecting):
    rows = [f"{100 + k},{k},50,general_stream,-0.5" for k in range(24)]
    good = _write_archive(tmp_path, rows)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(good.read_bytes() + b"101,7,50,\xff\n")
    _force_split(monkeypatch, cpus)
    assert len(analytics._byte_ranges(good)) == cpus
    parse_rows, parsing = analytics._parse_rows, []

    def spy(*args):
        parsing.append(gc.isenabled())
        return parse_rows(*args)

    monkeypatch.setattr(analytics, "_parse_rows", spy)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert ingest_archive(good).total_rows == 24
        assert gc.isenabled() == collecting
        with pytest.raises(CorruptArchiveError, match="not UTF-8"):
            ingest_archive(bad)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert multiprocessing.active_children() == []
    if cpus == 1:  # forked workers record into their own copy of ``parsing``
        assert parsing and not any(parsing)


# Pieces of archive text: CSV syntax, line ends, quotes, NULs, valid cells
# and rows, and any short text; pieces of bytes add stray UTF-8 lead and
# continuation bytes and random bytes.  Whole rows are drawn twice as
# often as other pieces, so that many archives are mostly well formed.
_TEXT_PIECES = st.one_of(
    st.sampled_from([b"\n", b"\n", b"\r", b"\r\n", b",", b", ,", b" ", b'"', b"\x00",
                     b"\xc3\xa9", b"\xe2\x82\xac", b"100,7,50,general_stream,-0.5\n",
                     b"2024-01-01T00:00:00Z,", b"-0.0", b"employee_profile:4", b"9" * 20]),
    st.text(max_size=4).map(str.encode))
_ROWS = st.sampled_from([b"100,7,50,general_stream,-0.5\n", b"101,7,50,,0.0\r\n",
                         b"2024-01-01T00:00:00Z,8,-9,company_page,-0.0\n", b"\n"])
_BYTE_PIECES = st.one_of(_TEXT_PIECES, st.sampled_from([b"\xff", b"\xc3", b"\xa9", b"\xe2\x82"]),
                         st.binary(max_size=6))


@given(st.booleans(),
       st.one_of(st.lists(_ROWS | _ROWS | _TEXT_PIECES, max_size=40),
                 st.lists(_ROWS | _ROWS | _BYTE_PIECES, max_size=40)).map(b"".join),
       st.integers(2, 4), st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_arbitrary_bytes_give_a_result_or_corrupt_archive_error(tmp_path_factory, header,
                                                               body, cpus, min_range_bytes):
    path = tmp_path_factory.mktemp("bytes") / "archive.csv"
    path.write_bytes((ARCHIVE_HEADER_LINE.encode() + b"\n" if header else b"") + body)
    one, split, ranges = _one_and_split(path, cpus, min_range_bytes)  # raise nothing else
    event(f"{min(len(ranges), 2)} ranges, {'error' if isinstance(one, str) else 'result'}")
    assert split == one
    try:
        path.read_bytes().decode()
    except UnicodeDecodeError:
        return
    if isinstance(one, str) and "expected header" in one:
        assert not header
    else:
        assert one == _oracle_outcome(path)


@given(st.booleans(),
       st.one_of(st.lists(_ROWS | _ROWS | _TEXT_PIECES, max_size=40),
                 st.lists(_ROWS | _ROWS | _BYTE_PIECES, max_size=40)).map(b"".join))
@settings(max_examples=60, deadline=None)
def test_analyze_of_any_archive_bytes_ends_in_a_whole_report_or_a_clean_error(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        archive, out = Path(tmp) / "archive.csv", Path(tmp) / "out"
        archive.write_bytes((ARCHIVE_HEADER_LINE.encode() + b"\n" if header else b"") + body)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", str(archive), "--out", str(out)])
        assert code in (0, 2, 3, 4) and "Traceback" not in stderr.getvalue()
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert written == (["analysis.json", "sentiment_windows.csv", "volume.csv"]
                           if code == 0 else [])


# -- financial proxy ---------------------------------------------------------------

def _advance(proxy, delta, event=None):
    from firesim.analytics import update_financial_proxy
    return update_financial_proxy(proxy, delta, event, kappa=1.0, rho=0.05)


def test_financial_proxy_shock_and_recovery_oracle():
    proxy = FinancialProxy(base=100.0, floor=1.0)
    assert _advance(proxy, -0.2, "release") == pytest.approx(80.0)
    for _ in range(10):
        _advance(proxy, 0.0)
    # geometric recovery: 100 - 20 * 0.95^10
    assert proxy.value == pytest.approx(100.0 - 20.0 * 0.95 ** 10)
    assert proxy.markers == [(0, "release")]
    assert len(proxy.series) == 11


def test_financial_proxy_marker_order_and_csv():
    proxy = FinancialProxy(base=100.0, floor=1.0)
    _advance(proxy, -0.1, "release")
    _advance(proxy, 0.0)
    _advance(proxy, -0.2, "attack")
    text = financial_csv_text(proxy)
    lines = text.splitlines()
    assert lines[0] == "tick,value,event"
    assert lines[1].endswith(",release")
    assert lines[2].endswith(",")
    assert lines[3].endswith(",attack")
    assert proxy.markers == [(0, "release"), (2, "attack")]


def test_financial_proxy_floor_clamps_with_one_warning():
    proxy = FinancialProxy(base=100.0, floor=90.0)
    with pytest.warns(UserWarning, match="clamped"):
        _advance(proxy, -0.5)
    assert proxy.value == 90.0 and proxy.floor_hits == 1
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")  # a second clamp must stay silent
        _advance(proxy, -0.5)
    assert proxy.floor_hits == 2


def test_financial_proxy_overflow_raises_and_leaves_the_proxy_as_it_was():
    from firesim.analytics import FinancialOverflowError, update_financial_proxy
    proxy = FinancialProxy(base=100.0, floor=1.0)
    update_financial_proxy(proxy, 0.5, kappa=1e300, rho=0.05)
    with pytest.raises(FinancialOverflowError, match="out of float range"):
        update_financial_proxy(proxy, 0.5, kappa=1e300, rho=0.05)
    assert proxy.series == [proxy.value] and math.isfinite(proxy.value)
    # overflowing downward is clamped at the floor, as any other drop
    with pytest.warns(UserWarning, match="clamped"):
        assert update_financial_proxy(proxy, -0.5, kappa=1e300, rho=0.05) == 1.0


def test_financial_proxy_rejects_bad_anchors():
    with pytest.raises(ValueError):
        FinancialProxy(base=0.0, floor=1.0)
    with pytest.raises(ValueError):
        FinancialProxy(base=100.0, floor=-1.0)


# -- cascade forecasting -------------------------------------------------------------

def test_predict_cascade_geometric_is_exact():
    series = [100.0 * 0.8 ** t for t in range(24)]
    forecast = predict_cascade(series, horizon=10, window=24, rmse_threshold=0.2)
    assert forecast.classification is CascadeClass.PREDICTABLE
    assert forecast.decay_rate == pytest.approx(0.8, abs=1e-9)
    assert forecast.relative_rmse == pytest.approx(0.0, abs=1e-9)
    for h, value in enumerate(forecast.values, start=1):
        assert value == pytest.approx(series[-1] * 0.8 ** h, rel=1e-9)


def test_predict_cascade_white_noise_is_random():
    rng = np.random.default_rng(7)
    series = rng.uniform(5.0, 50.0, size=30)
    forecast = predict_cascade(series, horizon=10, window=24, rmse_threshold=0.2)
    assert forecast.classification is CascadeClass.RANDOM


def test_predict_cascade_degenerate_inputs():
    flat = predict_cascade([0.0] * 30, horizon=5, window=24, rmse_threshold=0.2)
    assert flat.classification is CascadeClass.RANDOM
    assert flat.values == (0.0,) * 5 and math.isinf(flat.relative_rmse)
    with pytest.raises(ValueError):
        predict_cascade([1.0, 2.0], horizon=0, window=24, rmse_threshold=0.2)
    with pytest.raises(ValueError):
        predict_cascade([1.0, 2.0], horizon=5, window=1, rmse_threshold=0.2)


def test_classify_run_cascade_uses_post_peak_flank():
    rise = [1.0, 5.0, 20.0]
    decay = [100.0 * 0.7 ** t for t in range(24)]
    forecast = classify_run_cascade(rise + decay, window=24, horizon=5,
                                    rmse_threshold=0.2)
    assert forecast.classification is CascadeClass.PREDICTABLE
    assert forecast.decay_rate == pytest.approx(0.7, abs=1e-9)
    silent = classify_run_cascade([0.0, 0.0], window=24, horizon=5,
                                  rmse_threshold=0.2)
    assert silent.classification is CascadeClass.RANDOM


# -- run reports -----------------------------------------------------------------------

def test_run_outcome_fields(finished_run):
    out = run_outcome(finished_run)
    assert out["ignited"] is True and out["fire_point"] is not None
    assert out["onset"] <= out["fire_point"] < out["extinguished_tick"]
    assert out["duration"] == out["extinguished_tick"] - out["onset"]
    assert out["total_posts"] >= out["total_organic_posts"] > 0
    assert 0.0 <= out["final_reputation"] <= 1.0
    assert out["min_financial_value"] <= out["final_financial_value"]
    assert out["plan_stage"] == "done"
    assert out["predictable"] in ("predictable", "random")
    assert json.dumps(out)  # JSON-serialisable as-is


def test_emit_report_writes_all_files_atomically(finished_run, tmp_path):
    out_dir = tmp_path / "report"
    written = emit_report(finished_run, out_dir)
    assert [p.name for p in written] == list(REPORT_FILES)
    # the report files and nothing else: no staging debris here or above
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(REPORT_FILES)
    assert [p.name for p in tmp_path.iterdir()] == ["report"]
    meta = json.loads((out_dir / "run_metadata.json").read_text())
    assert meta["schema_version"] == 1
    assert meta["outcome"]["seed"] == finished_run.cfg.run.seed
    rows = load_sentiment_summaries((out_dir / "sentiment_windows.csv").read_text())
    assert rows, "sentiment windows should not be empty for a stormy run"


# -- property tests ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                min_size=1, max_size=80))
def test_aggregate_window_proportions_close(valences):
    posts = [_post(v) for v in valences]
    s = aggregate_window(posts, 0, 0, 24, neutral_band=0.1, alpha=15.0)
    assert abs(s.negative + s.neutral + s.positive - 1.0) < 1e-9
    assert -1.0 < s.compound < 1.0
    assert s == _scalar_window(posts, 0, 0, 24, neutral_band=0.1, alpha=15.0)


@given(st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
       st.floats(min_value=1e-6, max_value=1e4, allow_nan=False))
def test_compound_score_bounded_and_sign_preserving(total, alpha):
    c = compound_score(total, alpha)
    assert -1.0 < c < 1.0
    assert c == 0.0 if total == 0.0 else math.copysign(1.0, c) == math.copysign(1.0, total)


@given(st.lists(st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
                min_size=1, max_size=60))
def test_financial_proxy_never_breaches_floor(deltas):
    proxy = FinancialProxy(base=100.0, floor=5.0)
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        for d in deltas:
            _advance(proxy, d)
    assert all(v >= 5.0 for v in proxy.series)
    assert proxy.value >= 5.0
