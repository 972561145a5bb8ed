"""Sentiment aggregation, market-value proxy, forecasting, and reports.

Everything here is a pure function of its inputs; the only state lives in
FinancialProxy, which the engine updates once per tick.  Report emission
stages files in a scratch directory and moves them into place so a failed
run never leaves a half-written report behind.
"""

from __future__ import annotations

import csv
import functools
import gc
import io
import itertools
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .agents import Post, Surface
from .pool import pool_size, run_tasks

if TYPE_CHECKING:  # pragma: no cover
    from .contagion import Simulation


def compound_score(valence_sum: float, alpha: float) -> float:
    """Bounded, sign-preserving squash of a window's valence sum."""
    return float(valence_sum / math.sqrt(valence_sum * valence_sum + alpha))


@dataclass(frozen=True)
class SentimentSummary:
    window_id: int
    start_tick: int
    end_tick: int
    post_count: int
    negative: float | None
    neutral: float | None
    positive: float | None
    compound: float


# Valences summed per ``np.cumsum`` call, which bounds the sum's scratch.
SUM_BLOCK = 4096


def window_summary(window_id: int, start: int, end: int, chunks: Iterable[np.ndarray], *,
                   neutral_band: float, alpha: float) -> SentimentSummary:
    """Proportions and compound score of a window whose float64 valences
    are ``chunks``, in order, read in place.  A valence is negative below
    ``-neutral_band``, positive above ``neutral_band``, else neutral.  The
    valences are summed left to right from +0.0, a block at a time with the
    running sum carried, so the compound score depends neither on numpy's
    pairwise summation nor on how the valences are split.  An empty window
    reports null proportions and a zero compound."""
    if neutral_band < 0:
        raise ValueError("neutral_band must be >= 0")
    n = neg = pos = 0
    total = 0.0
    run = np.empty(SUM_BLOCK + 1)  # the carried sum, then one block
    for chunk in chunks:
        n += len(chunk)
        neg += int(np.count_nonzero(chunk < -neutral_band))
        pos += int(np.count_nonzero(chunk > neutral_band))
        for a in range(0, len(chunk), SUM_BLOCK):
            block = chunk[a:a + SUM_BLOCK]
            part = run[:len(block) + 1]
            part[0], part[1:] = total, block
            total = float(np.cumsum(part, out=part)[-1])
    if n == 0:
        return SentimentSummary(window_id, start, end, 0, None, None, None, 0.0)
    return SentimentSummary(window_id, start, end, n, neg / n, (n - neg - pos) / n, pos / n,
                            compound_score(total, alpha))


def _window_bounds(ticks: int, width: int):
    """``(window id, (start, end))`` of each ``width``-tick window of ``ticks`` ticks."""
    return enumerate((start, min(start + width, ticks)) for start in range(0, ticks, width))


def sentiment_windows(counts: Sequence[int], valences: np.ndarray, *, window: int,
                      neutral_band: float, alpha: float) -> list[SentimentSummary]:
    """``window_summary`` of each ``window``-tick slice of ``len(counts)``
    ticks, where ``valences`` holds tick t's ``counts[t]`` posts in turn."""
    valences = np.asarray(valences, dtype=np.float64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)  # posts before each tick
    np.cumsum(counts, out=offsets[1:])
    return [window_summary(window_id, start, end, [valences[offsets[start]:offsets[end]]],
                           neutral_band=neutral_band, alpha=alpha)
            for window_id, (start, end) in _window_bounds(len(counts), window)]


def aggregate_window(posts: Sequence[Post], window_id: int, start_tick: int,
                     end_tick: int, *, neutral_band: float,
                     alpha: float) -> SentimentSummary:
    """Proportions and compound score for one window of posts."""
    valences = np.fromiter((p.valence for p in posts), dtype=np.float64, count=len(posts))
    return window_summary(window_id, start_tick, end_tick, [valences],
                          neutral_band=neutral_band, alpha=alpha)


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def csv_text(header: str, rows: Iterable[Iterable]) -> str:
    """A report CSV: the ``header`` line, then one line per row.  A float is
    written with ``repr`` (so it reads back exactly), ``None`` as an empty
    cell and any other value with ``str``."""
    lines = [header]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


SENTIMENT_CSV_HEADER = "window_id,start_tick,end_tick,post_count,negative,neutral,positive,compound"


def sentiment_csv_text(summaries: Iterable[SentimentSummary]) -> str:
    return csv_text(SENTIMENT_CSV_HEADER, (
        (s.window_id, s.start_tick, s.end_tick, s.post_count, s.negative, s.neutral,
         s.positive, s.compound) for s in summaries))


def load_sentiment_summaries(text: str, closure_tolerance: float = 0.01) -> list[SentimentSummary]:
    """Parse a sentiment summary CSV, checking each row's proportion closure.

    Rows with proportions must sum to 1 within the tolerance; published
    tables rounded to three decimals pass at the default 0.01.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or ",".join(header) != SENTIMENT_CSV_HEADER:
        raise ValueError(f"expected header '{SENTIMENT_CSV_HEADER}'")
    out: list[SentimentSummary] = []
    for row in reader:
        if not row:
            continue
        window_id, start, end, count = (int(v) for v in row[:4])
        props = [None if v == "" else float(v) for v in row[4:7]]
        compound = float(row[7])
        if any(p is not None for p in props):
            total = sum(p for p in props if p is not None)
            if abs(total - 1.0) > closure_tolerance:
                raise ValueError(
                    f"window {window_id}: proportions sum to {total}, "
                    f"outside 1 +/- {closure_tolerance}")
        out.append(SentimentSummary(window_id, start, end, count,
                                    props[0], props[1], props[2], compound))
    return out


ARCHIVE_HEADER = ("timestamp", "author_id", "author_created_at", "surface", "valence")
_VALENCE_COLUMN_NAMES = {"valence", "text_score"}
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


class CorruptArchiveError(ValueError):
    """An archive that cannot be read as UTF-8 CSV with the archive header,
    or whose rows are mostly malformed."""


@dataclass
class IngestResult:
    """Kept posts as file-order columns, with the row counts.

    ``ticks``, ``authors`` and ``created_ticks`` are int64 and ``valences``
    float64; row ``i`` of each belongs to the same post.
    """

    ticks: np.ndarray
    authors: np.ndarray
    created_ticks: np.ndarray
    valences: np.ndarray
    total_rows: int
    duplicate_count: int
    malformed_count: int


def _parse_timestamp(raw: str) -> int:
    """Accept integer ticks or ISO 8601 datetimes (1 tick = 1 hour)."""
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp() // 3600)


# Bytes of a range read at a time and parsed up to the last line end.  On the
# 220k-row benchmark archive, from 128 KiB to 2 MiB the parse time stays
# within noise, while the peak memory grows with the block: a range of half
# the archive peaks at 6.8 MB traced at 256 KiB (15.5 MB at 1 MiB), and one
# pass over the whole archive at 45 MB resident (49 MB at 1 MiB).
_BLOCK_BYTES = 1 << 18


_PAD = 32  # zero bytes around a parsed buffer, so a read of up to _PAD bytes stays in it
_WORD = np.dtype("<u8")


def _word(text: bytes) -> np.uint64:
    return np.frombuffer(text.ljust(8, b"\0"), dtype=_WORD)[0]


_ASCII_ZEROS, _NIBBLE_HIGH = _word(b"0" * 8), _word(b"\xf0" * 8)
_SIXES, _POINTS = _word(b"\x06" * 8), _word(b"." * 8)
_LOW7 = _word(b"\x7f" * 8)
_PAIRS, _QUADS = _word(b"\xff\0" * 4), _word(b"\xff\xff\0\0" * 2)
_ONES, _BYTE_INDEX = _word(b"\x01" * 8), _word(bytes(range(7, -1, -1)))  # byte p: 7 - p
# _BEFORE[c]: the bytes of a word before its last c bytes
_BEFORE = np.array([(1 << 8 * (8 - c)) - 1 for c in range(9)], dtype=np.uint64)
_COMPANY, _PAGE = _word(b"company_"), _word(b"page")
_GENERAL, _STREAM = _word(b"general_"), _word(b"stream")
_EMPLOYEE, _PROFILE = _word(b"employee"), _word(b"_profile")
_POW10 = 10.0 ** np.arange(19)  # exact doubles


def _padded(data: bytes) -> np.ndarray:
    """``data`` as uint8 with ``_PAD`` zero bytes on each side."""
    buf = np.zeros(len(data) + 2 * _PAD, dtype=np.uint8)
    buf[_PAD:_PAD + len(data)] = np.frombuffer(data, dtype=np.uint8)
    return buf


def _words(buf: np.ndarray) -> np.ndarray:
    """Entry i holds bytes i to i + 7 of ``buf`` as a little-endian uint64."""
    return np.ndarray((len(buf) - 7,), dtype=_WORD, buffer=buf, strides=(1,))


def _windows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """Row i holds the ``width`` bytes of ``buf`` from ``at[i]``."""
    rows = np.ndarray((len(buf) - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))
    return rows[at].view(np.uint8).reshape(len(at), width)


def _texts(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    return [buf[s:e].tobytes().decode() for s, e in zip(starts.tolist(), ends.tolist())]


def _int64_column(values: list[int], rejected: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as int64 and the mask of entries that are within int64 and
    not ``rejected``; entries out of range are 0 in the array."""
    try:
        column, ok = np.array(values, dtype=np.int64), np.ones(len(values), dtype=bool)
    except OverflowError:
        ok = np.array([_INT64_MIN <= v <= _INT64_MAX for v in values], dtype=bool)
        column = np.array([v if good else 0 for v, good in zip(values, ok)], dtype=np.int64)
    ok[rejected] = False
    return column, ok


def _mapped(convert, cells: Sequence[str], fill=0) -> tuple[list, list[int]]:
    """``convert`` over a column, with ``fill`` for each cell it rejects, and
    the indices of those cells.  ``list.extend`` keeps what it appended
    before ``convert`` raised, so each cell is converted once."""
    out, rejected, cells = [], [], iter(cells)
    while True:
        try:
            out.extend(map(convert, cells))
            return out, rejected
        except (ValueError, OverflowError):
            rejected.append(len(out))
            out.append(fill)


def _integer_cells(convert, buf, starts, ends, values, ok) -> None:
    """Set ``values`` and ``ok`` of each cell ``ok`` leaves out by ``convert``,
    an integer converter, and the int64 range."""
    at = np.flatnonzero(~ok)
    if len(at):
        values[at], ok[at] = _int64_column(*_mapped(convert, _texts(buf, starts[at], ends[at])))


# Each kernel below reads the cells ``buf[starts[i]:ends[i]]`` and returns
# their values with the mask of cells it accepts; the caller sends the rest
# through the scalar converter, so a cell reads the same either way.  Digits
# are read eight at a time from the uint64 that ends at a cell's end.

def _eight_digits(words: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last ``count`` (0 to 8) bytes of each word read as a decimal
    number, and the mask of words whose last ``count`` bytes are all digits."""
    before = _BEFORE[count]
    words = (words & ~before) | (_ASCII_ZEROS & before)  # the bytes before read as "0"
    ok = ((words & _NIBBLE_HIGH) == _ASCII_ZEROS) & (((words + _SIXES) & _NIBBLE_HIGH) == _ASCII_ZEROS)
    v = words - _ASCII_ZEROS  # byte p: the digit at p, most significant first
    v = (v * np.uint64(10) + (v >> np.uint64(8))) & _PAIRS
    v = (v * np.uint64(100) + (v >> np.uint64(16))) & _QUADS
    return (v * np.uint64(10000) + (v >> np.uint64(32))) & np.uint64(0xFFFFFFFF), ok


def _signed_digits(buf, starts, ends) -> tuple:
    """Cells of an optional ``-`` then at most 18 digits and points, read as
    one integer with a point as a ``0``; with the mask of those that hold at
    most one point with a digit on each side, the ``-`` mask, and the number
    of digits after the point (0 without one)."""
    lengths = ends - starts
    negative = (lengths >= 2) & (buf[starts] == ord("-"))
    count = lengths - negative
    ok = (count >= 1) & (count <= 18)
    words = _words(buf)
    value = np.zeros(len(starts), dtype=np.uint64)
    points = np.zeros(len(starts), dtype=np.uint64)
    decimals = np.zeros(len(starts), dtype=np.int64)
    for j in range(-(-int(np.clip(count, 0, 18).max(initial=0)) // 8)):
        word = words[ends - 8 * (j + 1)]
        inside = np.clip(count - 8 * j, 0, 8)
        # 0x80 in each byte of the cell that is ".", which then reads as "0"
        match = word ^ _POINTS
        flags = ~(((match & _LOW7) + _LOW7) | match | _LOW7) & ~_BEFORE[inside]
        word = word + (flags >> np.uint64(6))
        points += ((flags >> np.uint64(7)) * _ONES) >> np.uint64(56)
        index = ((flags >> np.uint64(7)) * _BYTE_INDEX) >> np.uint64(56)
        decimals = np.where(flags != 0, 8 * j + 7 - index.astype(np.int64), decimals)
        digits, good = _eight_digits(word, inside)
        value += digits * np.uint64(10 ** (8 * j))
        ok &= good
    ok &= (points == 0) | ((points == 1) & (decimals >= 1) & (decimals <= count - 2))
    return value.astype(np.int64), ok, negative, np.where(ok, decimals, 0)


def _integers(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """``-?[0-9]{1,18}``: such a cell is an int64 and ``int`` reads it so."""
    value, ok, negative, decimals = _signed_digits(buf, starts, ends)
    return np.where(negative, -value, value), ok & (decimals == 0)


def _decimals(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """``-?[0-9]+(\\.[0-9]+)?`` whose digits, read as one integer m, are
    below 2**53: the value is m / 10**k for k decimals.  Both are exact
    doubles and the division rounds correctly, so it equals ``float`` of the
    cell (Clinger's fast path)."""
    read, ok, negative, k = _signed_digits(buf, starts, ends)
    # the point read as a zero digit: read is 10 * whole * 10**k + fraction
    fraction = read % 10 ** k
    mantissa = np.where(k > 0, (read - fraction) // 10 + fraction, read)
    ok &= mantissa < 2 ** 53
    value = mantissa / _POW10[k]
    return np.where(negative, -value, value), ok


_ISO_WIDTH = 32  # bytes read per stamp: YYYY-MM-DDTHH:MM:SS+HH:MM is 25
# The first 19 bytes of a stamp with each digit read as "0", as words.
_ISO_HEAD = [_word(b"0000-00-"), _word(b"00T00:00"), _word(b":00")]
# First byte and width of year, month, day, hour, minute, second and the
# offset's hours and minutes in a stamp.
_ISO_FIELDS = ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2), (20, 2), (23, 2))
_MONTH_DAYS = np.array([31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)


def _iso_ticks(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """``YYYY-MM-DD[T ]HH:MM:SS`` then nothing, ``Z`` or ``+HH:MM``/``-HH:MM``,
    with every field's range checked: such a cell is an hour tick and
    ``_parse_timestamp`` reads it so."""
    lengths = ends - starts
    window = _windows(buf, starts, _ISO_WIDTH)
    digits = window - np.uint8(ord("0"))
    digit = digits <= 9
    # each digit read as "0", and " " after the date as "T"
    head = window - digits * digit
    head[:, 10] ^= (head[:, 10] == ord(" ")) * np.uint8(ord("T") ^ ord(" "))
    head = head.view(_WORD)
    iso = ((head[:, 0] == _ISO_HEAD[0]) & (head[:, 1] == _ISO_HEAD[1])
           & (head[:, 2] & _BEFORE[5] == _ISO_HEAD[2]))
    suffix = window[:, 19]
    signed = lengths == 25
    iso &= ((lengths == 19) | ((lengths == 20) & (suffix == ord("Z")))
            | (signed & ((suffix == ord("+")) | (suffix == ord("-")))
               & digit[:, 20] & digit[:, 21] & digit[:, 23] & digit[:, 24]
               & (window[:, 22] == ord(":"))))

    def number(first: int, width: int) -> np.ndarray:
        value = digits[:, first].astype(np.int32)
        for c in range(first + 1, first + width):
            value = value * 10 + digits[:, c]
        return value

    year, month, day, hour, minute, second, off_hour, off_minute = itertools.starmap(
        number, _ISO_FIELDS)
    iso &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
            & (day <= _MONTH_DAYS[np.clip(month, 1, 12) - 1])
            & (hour <= 23) & (minute <= 59) & (second <= 59)
            & (~signed | ((off_hour <= 23) & (off_minute <= 59))))
    leap_day = np.flatnonzero((month == 2) & (day == 29))
    y = year[leap_day]
    iso[leap_day] &= (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
    # days from civil (proleptic Gregorian), years counted from March
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    offset = (off_hour * 3600 + off_minute * 60) * signed
    offset = np.where(suffix == ord("-"), -offset, offset)
    # seconds // 3600, with the whole hours of days and hour taken out first
    return days * np.int64(24) + hour + (minute * 60 + second - offset) // 3600, iso


def _parse_timestamps(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Ticks of a column of timestamp cells and the mask of cells that parse:
    ISO stamps and integers by their kernels, the rest by
    ``_parse_timestamp``.  So a cell parses, and to the same tick, exactly
    when ``_parse_timestamp`` accepts it and its tick fits in int64."""
    lengths = ends - starts
    ticks, ok = np.zeros(len(starts), dtype=np.int64), np.zeros(len(starts), dtype=bool)
    for kernel, shaped in ((_iso_ticks, (lengths == 19) | (lengths == 20) | (lengths == 25)),
                           (_integers, lengths <= 19)):
        at = np.flatnonzero(shaped & ~ok)
        ticks[at], ok[at] = kernel(buf, starts[at], ends[at])
    _integer_cells(_parse_timestamp, buf, starts, ends, ticks, ok)
    return ticks, ok


@functools.lru_cache(maxsize=4096)  # bounded; archives repeat their odd surfaces
def _surface_ok(cell: str) -> bool:
    text = cell.strip()
    if not text:
        return True  # blank means the general stream
    try:
        Surface.from_text(text)
    except ValueError:
        return False
    return True


def _surfaces_ok(buf, starts, ends) -> np.ndarray:
    """Mask of valid surface cells: a blank cell, ``company_page``,
    ``general_stream`` or ``employee_profile:`` and an integer kernel cell
    by bytes, any other cell by ``_surface_ok``."""
    lengths = ends - starts
    words = _words(buf)
    head, tail = words[starts], words[starts + 8]
    ok = ((lengths == 0) | ((lengths == 12) & (head == _COMPANY) & (tail & _BEFORE[4] == _PAGE))
          | ((lengths == 14) & (head == _GENERAL) & (tail & _BEFORE[2] == _STREAM)))
    at = np.flatnonzero((lengths >= 18) & (head == _EMPLOYEE) & (tail == _PROFILE)
                        & (buf[starts + 16] == ord(":")))
    ok[at] = _integers(buf, starts[at] + 17, ends[at])[1]
    at = np.flatnonzero(~ok)
    ok[at] = [_surface_ok(text) for text in _texts(buf, starts[at], ends[at])]
    return ok


def _parse_rows(buf, starts, ends) -> tuple[np.ndarray, ...]:
    """Columns of five-cell rows (ticks, authors, creation ticks, valences) and
    the mask of valid rows; cell k of row i is ``buf[starts[k, i]:ends[k, i]]``."""
    (ticks, created), (ok, created_ok) = (
        column.reshape(2, -1) for column in _parse_timestamps(buf, starts[[0, 2]].ravel(),
                                                              ends[[0, 2]].ravel()))
    authors, authors_ok = _integers(buf, starts[1], ends[1])
    _integer_cells(int, buf, starts[1], ends[1], authors, authors_ok)
    valences, valences_ok = _decimals(buf, starts[4], ends[4])
    at = np.flatnonzero(~valences_ok)
    # a rejected valence is NaN: out of range below
    valences[at] = _mapped(float, _texts(buf, starts[4][at], ends[4][at]), math.nan)[0]
    ok &= authors_ok & created_ok & (valences >= -1.0) & (valences <= 1.0)
    ok &= _surfaces_ok(buf, starts[3], ends[3])
    return ticks, authors, created, valences, ok


def _cell_bytes(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cells`` as the kernels read them: their UTF-8 bytes one after
    another, with each cell's start and end offset."""
    text = "".join(cells)
    if text.isascii():  # each character is one byte
        data, lengths = text.encode(), map(len, cells)
    else:
        encoded = [cell.encode() for cell in cells]
        data, lengths = b"".join(encoded), map(len, encoded)
    lengths = np.fromiter(lengths, dtype=np.int64, count=len(cells))
    ends = np.cumsum(lengths) + _PAD
    return _padded(data), ends - lengths, ends


def _parse_wide(rows: list[list[str]]) -> tuple[np.ndarray, ...]:
    """``_parse_rows`` of five-cell rows of strings."""
    buf, starts, ends = _cell_bytes(list(itertools.chain.from_iterable(rows)))
    return _parse_rows(buf, starts.reshape(-1, 5).T, ends.reshape(-1, 5).T)


def _wide_rows(rows: list[list[str]]) -> tuple[list[int], int]:
    """Indices of the five-cell rows among ``csv.reader`` rows, and the number
    of rows that are not blank (the ones counted)."""
    # text in the first cell settles it at once
    counted = [i for i, row in enumerate(rows) if row and (row[0].strip() or "".join(row).strip())]
    return [i for i in counted if len(rows[i]) == 5], len(counted)


def _dedup_keys(authors: np.ndarray, ticks: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """One uint64 per (author, tick, valence bits) row, mixed by odd
    multipliers (wrapping); equal rows share a key."""
    mixed = authors.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15) ^ ticks.view(np.uint64)
    return mixed * np.uint64(0xC2B2AE3D27D4EB4F) ^ bits.view(np.uint64)


def _first_occurrences(authors: np.ndarray, ticks: np.ndarray,
                       valences: np.ndarray) -> np.ndarray:
    """Mask of rows whose (author, tick, valence) no earlier row has.

    Valences compare as floats do in a ``set``: ``-0.0`` equals ``0.0``.
    Rows are grouped by a stable sort on one key (``_dedup_keys``), or on the
    three columns when two rows that meet in that order share only the key.
    """
    bits = (valences + 0.0).view(np.int64)  # -0.0 + 0.0 is +0.0
    keys = _dedup_keys(authors, ticks, bits)
    order = np.argsort(keys, kind="stable")  # stable: ties stay in file order
    tie = np.diff(keys[order]) == 0  # uint64 differences wrap: zero only on a tie
    later, earlier = order[1:][tie], order[:-1][tie]
    if any((c[later] != c[earlier]).any() for c in (authors, ticks, bits)):
        order = np.lexsort((bits, ticks, authors))
        a, t, b = authors[order], ticks[order], bits[order]
        later = order[1:][(a[1:] == a[:-1]) & (t[1:] == t[:-1]) & (b[1:] == b[:-1])]
    first = np.ones(len(order), dtype=bool)
    first[later] = False
    return first


# Bytes each range of a split archive holds at least: a file shorter than
# two ranges is read in one pass and starts no pool.
_MIN_RANGE_BYTES = 1 << 20
# Bytes read at a time while looking for a quote or a line end.
_SCAN_BYTES = 1 << 16


def _next_line_start(fh, offset: int) -> int | None:
    """The offset just past the first ``\n`` at or after ``offset``, if any."""
    fh.seek(offset)
    while block := fh.read(_SCAN_BYTES):
        end = block.find(b"\n")
        if end >= 0:
            return offset + end + 1
        offset += len(block)
    return None


def _byte_ranges(path: str | Path) -> list[tuple[int, int]]:
    """``[start, end)`` byte ranges that tile the archive, one per CPU.

    A file is cut only when it holds no ``"`` and is at least two ranges
    long, and then only just after a ``\n``.  That byte starts a record:
    ``\n`` is never part of a UTF-8 multi-byte sequence, and without a
    quote the CSV reader ends a record at every ``\r``, ``\n`` or
    ``\r\n``.  Any other file is the one range ``(0, size)``.
    """
    size = os.path.getsize(path)
    count = pool_size(os.cpu_count() or 1, size // _MIN_RANGE_BYTES)
    if count <= 1:
        return [(0, size)]
    with open(path, "rb") as fh:
        while block := fh.read(_SCAN_BYTES):
            if b'"' in block:
                return [(0, size)]
        cuts = [0]
        for k in range(1, count):
            cut = _next_line_start(fh, max(size * k // count, cuts[-1]))
            if cut is None or cut >= size:
                break
            cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [size]))


def _check_header(path, header: list[str] | None) -> None:
    if header is None:
        raise CorruptArchiveError(f"{path}: empty file, expected header")
    header = tuple(h.strip() for h in header)
    if (len(header) != 5 or header[:4] != ARCHIVE_HEADER[:4]
            or header[4] not in _VALENCE_COLUMN_NAMES):
        raise CorruptArchiveError(f"{path}: expected header {','.join(ARCHIVE_HEADER)} "
                                  f"(last column may be text_score)")


def _toggles(data: bytes, quotes: np.ndarray) -> np.ndarray:
    """Mask of the ``quotes`` (the offsets of every ``"`` in ``data``, which
    starts a record) at which ``csv.reader`` enters or leaves a quoted
    field: a quote at a field start opens one and the next quote not
    doubled closes it; any other quote is a literal character."""
    toggles, inside, doubled = np.zeros(len(quotes), dtype=bool), False, -1
    for i, at in enumerate(quotes.tolist()):
        if at == doubled:
            continue
        if inside and data[at + 1:at + 2] == b'"':
            doubled = at + 1
        elif inside or data[at - 1:at] in b",\n\r":  # at offset 0, b"" is in any bytes
            toggles[i], inside = True, not inside
    return toggles


def _parse_block(data: bytes, header=None, final: bool = False) -> tuple:
    """Kept-row columns of the records of UTF-8 archive text that starts a
    record, their (total, malformed) counts and the bytes read: through the
    last record end, or all when ``final`` (the end then ends a record).
    With ``header`` (the archive's path) the first record is the header,
    checked and not counted.

    Records end at each ``\\r`` and ``\\n`` (so ``\\r\\n`` adds an empty
    record, which like every blank one is skipped) and fields at each ``,``
    outside a quoted field, as ``csv.reader`` splits text.  Every other
    quote opens a quoted field and the next one closes it while each quote
    after an even count of them starts a field or doubles a quote; else
    ``_toggles`` walks the quotes.  A plain row (five fields of bytes
    0x20-0x7E, none past the field limit, each quote the first or last byte
    of a cell with no other quote or separator in it; the first cell, within
    its quotes, neither empty nor led by a space, so not blank) goes to
    ``_parse_rows`` by its cells' offsets within their quotes.  Any other
    record goes through ``csv.reader`` and ``_wide_rows`` as one string, and
    its rows merge back in record order.
    """
    buf = _padded(data)
    buf[_PAD - 1] = ord("\n")  # the data starts a record
    text = buf[_PAD:_PAD + len(data)]
    seps = np.flatnonzero((text == ord(",")) | (text == ord("\n")) | (text == ord("\r")))
    spoilt = []  # offsets that send their record to csv.reader
    if b'"' in data:
        quotes = np.flatnonzero(text == ord('"'))
        toggle = (np.ones(len(quotes), dtype=bool) if np.isin(
            buf[quotes[::2] + _PAD - 1], list(b',\n\r"')).all() else _toggles(data, quotes))
        toggles = quotes[toggle]
        inside = np.searchsorted(toggles, seps) % 2 == 1
        closes = toggles[1::2]
        # literal and doubled quotes, text after a closing quote, a quote
        # never closed and separators inside quotes
        spoilt += [quotes[~toggle], closes[~np.isin(buf[closes + _PAD + 1], list(b",\n\r\0"))],
                   toggles[2 * len(closes):], seps[inside]]
        seps = seps[~inside]
    if final:
        seps = np.append(seps, len(data))
    spoilt.append(seps[np.diff(seps, prepend=-1) - 1 > csv.field_size_limit()])
    seps += _PAD
    line_ends = np.flatnonzero(buf[seps] != ord(","))  # indices into seps
    stops = seps[line_ends]
    firsts = np.append(_PAD, stops[:-1] + 1)
    fields = np.diff(line_ends, prepend=-1)
    plain = np.ones(len(stops) + 1, dtype=bool)  # the last slot: bytes after the last record
    if header is not None and len(stops):
        _check_header(header, next(csv.reader([data[:stops[0] - _PAD].decode()])))
        firsts[0], plain[0] = stops[0], False
    # a byte outside 0x20-0x7E other than a line end makes its record not plain
    if not data.isascii() or np.count_nonzero(text < 0x20) > np.count_nonzero(buf[stops]):
        spoilt.append(np.flatnonzero(((text < 0x20) | (text > 0x7E)) & (text != ord("\n"))
                                     & (text != ord("\r"))))
    plain[np.searchsorted(stops - _PAD, np.concatenate(spoilt))] = False
    lead = buf[firsts + (buf[firsts] == ord('"'))]  # a quoted cell's first byte within its quotes
    kernel = plain[:-1] & (fields == 5) & ~np.isin(lead, list(b', "'))
    rows = np.flatnonzero(kernel)
    ends = seps[line_ends[rows] + np.arange(-4, 1)[:, None]]
    starts = np.empty_like(ends)
    starts[0], starts[1:] = firsts[rows], ends[:-1] + 1
    quoted = buf[starts] == ord('"')
    starts, ends = starts + quoted, ends - quoted
    *columns, ok = _parse_rows(buf, starts, ends)
    total, malformed = len(rows), 0
    others = np.flatnonzero(~kernel & (stops > firsts))
    if len(others):
        lines = [data[a:b].decode() for a, b in zip((firsts[others] - _PAD).tolist(),
                                                     (stops[others] - _PAD).tolist())]
        split = list(csv.reader(lines))
        wide, counted = _wide_rows(split)
        total += counted
        malformed += counted - len(wide)
        if wide:
            more = _parse_wide([split[i] for i in wide])
            at = np.searchsorted(rows, others[wide])
            *columns, ok = (np.insert(column, at, extra) for column, extra in zip((*columns, ok), more))
    malformed += len(ok) - int(np.count_nonzero(ok))
    used = int(stops[-1]) + 1 - _PAD if len(stops) else 0
    return tuple(column[ok] for column in columns), total, malformed, used


def _range_parts(path, start: int, end: int):
    """``_parse_block``'s results for each block of the range, and last for
    the bytes left at its end, read as ``csv.reader`` reads to the end of
    its data.  A block is what a read holds up to its last line end (between
    the two of a ``\\r\\n`` a cut adds only an empty record), after what the
    block before left: a record still open and the bytes past its cut.  A
    record open over a whole read makes the next read as long as it, so it
    is parsed again only as often as its length doubles."""
    header, rest, size = path if start == 0 else None, b"", end - start
    with open(path, "rb") as fh:
        fh.seek(start)
        while size > 0 and (chunk := fh.read(min(max(_BLOCK_BYTES, len(rest)), size))):
            size -= len(chunk)
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1 if size > 0 else len(chunk)
            if not cut:  # no line end: read on
                rest += chunk
                continue
            data = rest + chunk[:cut]
            data.decode()  # raises on bytes that are not UTF-8
            *part, used = _parse_block(data, header)
            header, rest = header if used == 0 else None, data[used:]
            if len(rest) > csv.field_size_limit():  # raises on a field past the limit
                next(csv.reader([rest.decode()]))
            rest += chunk[cut:]
            yield part
    if rest:
        yield _parse_block(rest, header, final=True)[:3]
    elif header is not None:
        _check_header(path, None)


def _ingest_range(task: tuple[str | Path, int, int]) -> tuple:
    """Kept-row columns of one byte range with its (total, malformed) counts.

    The range starting at byte 0 reads and checks the header.  Blocks of
    about ``_BLOCK_BYTES``, cut just after a line end, are each decoded
    whole (with any record the block before left open) and then parsed by
    ``_parse_block``, so a byte that is not UTF-8 anywhere in a block is
    reported before any other fault in it.  Bytes that are not UTF-8 and CSV
    the reader rejects (a field over its size limit) raise
    CorruptArchiveError.

    The cyclic collector is off while the range parses: its few Python
    objects, strings and lists of them, hold no cycles.  The caller's
    setting is restored on return.
    """
    path, start, end = task
    parts = [(np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),)]
    total = malformed = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        for columns, rows, bad in _range_parts(path, start, end):
            parts.append(columns)
            total += rows
            malformed += bad
    except UnicodeDecodeError as err:
        raise CorruptArchiveError(f"{path}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise CorruptArchiveError(f"{path}: unreadable CSV ({err})") from None
    finally:
        if collecting:
            gc.enable()
    return *(np.concatenate(column) for column in zip(*parts)), total, malformed


def ingest_archive(path: str | Path) -> IngestResult:
    """Read an exported post archive, deduplicating and counting bad rows.

    A large quote-free archive is parsed as byte ranges (``_byte_ranges``),
    one per CPU, in a process pool; any other archive is read in one pass in
    this process.  Either way each range is read in blocks by array kernels
    (``_ingest_range``), and every row parses to the values a row-by-row
    ``csv.reader`` loop with the scalar converters gives it.  Ranges merge
    in file order, so the result is the same either way.  Exact duplicate
    rows (same author, timestamp, and valence) collapse to the first one in
    file order.  Malformed rows are counted, not fatal, unless they are the
    majority of the file.  An archive with no header, bytes that are not
    UTF-8 or CSV the reader rejects raises CorruptArchiveError; when a range
    fails, the file is read again in one pass, so the error is the one a
    single pass meets first (a block's bytes are decoded before its records
    are read).
    """
    ranges = _byte_ranges(path)
    try:
        parts = run_tasks([(path, start, end) for start, end in ranges], _ingest_range,
                          len(ranges))
    except CorruptArchiveError:
        if len(ranges) == 1:
            raise
        # The decoder reads ahead of the CSV reader, so across a cut the
        # first error in range order need not be the first a single pass meets.
        parts = [_ingest_range((path, 0, ranges[-1][1]))]
    *columns, totals, malformeds = zip(*parts)
    total, malformed = sum(totals), sum(malformeds)
    if total > 0 and malformed / total > 0.5:
        raise CorruptArchiveError(
            f"{path}: {malformed} of {total} rows malformed; archive looks corrupt")
    ticks, authors, created, valences = (np.concatenate(column) for column in columns)
    first = _first_occurrences(authors, ticks, valences)
    return IngestResult(ticks=ticks[first], authors=authors[first],
                        created_ticks=created[first], valences=valences[first],
                        total_rows=total, duplicate_count=len(first) - int(first.sum()),
                        malformed_count=malformed)


class FinancialOverflowError(OverflowError):
    """A market-value proxy that left the float range."""


@dataclass
class FinancialProxy:
    """Per-tick market-value proxy with event markers."""

    base: float
    floor: float
    value: float = field(init=False)
    series: list[float] = field(default_factory=list)
    markers: list[tuple[int, str]] = field(default_factory=list)
    floor_hits: int = 0

    def __post_init__(self) -> None:
        if self.base <= 0 or self.floor <= 0:
            raise ValueError("base and floor must be positive")
        self.value = self.base

    def copy(self) -> "FinancialProxy":
        """An independent proxy: ``series`` holds floats and ``markers``
        (tick, event) tuples, so whole-list copies are deep copies."""
        out = FinancialProxy.__new__(FinancialProxy)
        out.__dict__.update(vars(self), series=list(self.series), markers=list(self.markers))
        return out

    def __deepcopy__(self, memo) -> "FinancialProxy":
        return self.copy()


def update_financial_proxy(proxy: FinancialProxy, reputation_delta: float,
                           event: str | None = None, *, kappa: float,
                           rho: float) -> float:
    """Advance the proxy one tick: shock from reputation, drift to base.

    With no further shocks the value contracts geometrically toward base,
    so a one-off drop of d recovers to base - d*(1-rho)^n after n ticks.
    A value past the float range (a large ``kappa`` compounded over many
    ticks) raises FinancialOverflowError; one below it is clamped at the floor.
    """
    tick = len(proxy.series)
    value = proxy.value * (1.0 + kappa * reputation_delta) + rho * (proxy.base - proxy.value)
    if value < proxy.floor:
        value = proxy.floor
        proxy.floor_hits += 1
        if proxy.floor_hits == 1:
            warnings.warn("financial proxy clamped at floor value", stacklevel=2)
    if not math.isfinite(value):
        raise FinancialOverflowError(f"financial proxy value {value} at tick {tick} "
                                     f"is out of float range (kappa {kappa})")
    proxy.value = float(value)
    proxy.series.append(proxy.value)
    if event is not None:
        proxy.markers.append((tick, event))
    return proxy.value


FINANCIAL_CSV_HEADER = "tick,value,event"


def financial_csv_text(proxy: FinancialProxy) -> str:
    marks: dict[int, str] = {}
    for tick, kind in proxy.markers:
        marks[tick] = f"{marks[tick]};{kind}" if tick in marks else kind
    return csv_text(FINANCIAL_CSV_HEADER, (
        (tick, value, marks.get(tick, "")) for tick, value in enumerate(proxy.series)))


class CascadeClass(Enum):
    PREDICTABLE = "predictable"
    RANDOM = "random"


@dataclass(frozen=True)
class CascadeForecast:
    horizon: int
    values: tuple[float, ...]
    classification: CascadeClass
    decay_rate: float
    relative_rmse: float

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite ``relative_rmse`` (no fit) or
        projected value (out of float range) is None."""
        return {
            "horizon": self.horizon,
            "values": [v if math.isfinite(v) else None for v in self.values],
            "classification": self.classification.value,
            "decay_rate": self.decay_rate,
            "relative_rmse": self.relative_rmse if math.isfinite(self.relative_rmse) else None,
        }


def _project(last: float, g: float, h: int) -> float:
    """``last * g ** h``, or ``inf`` when a positive value leaves float range."""
    try:
        return last * g ** h
    except OverflowError:  # g > 1 at a long horizon
        return math.inf if last > 0 else 0.0


def predict_cascade(volumes: Sequence[float], horizon: int, *, window: int,
                    rmse_threshold: float) -> CascadeForecast:
    """Forecast post volume as geometric decay from the recent tail.

    Fits log(volume) linearly over the last ``window`` ticks and projects
    v(t+h) = v(t) * g^h.  The in-sample relative RMSE decides whether the
    cascade counts as predictable at all.
    """
    if horizon < 1 or window < 2:
        raise ValueError("horizon >= 1 and window >= 2 required")
    tail = np.asarray(volumes[-window:], dtype=float)
    if len(tail) < 2 or np.count_nonzero(tail > 0) < 2:
        return CascadeForecast(horizon, (0.0,) * horizon, CascadeClass.RANDOM,
                               0.0, math.inf)
    idx = np.flatnonzero(tail > 0)
    slope, intercept = np.polyfit(idx, np.log(tail[idx]), 1)
    fitted = np.exp(intercept + slope * np.arange(len(tail)))
    rmse = float(np.sqrt(np.mean((fitted - tail) ** 2)))
    relative = rmse / float(np.mean(tail))
    g = float(np.exp(slope))
    last = float(tail[-1])
    values = tuple(_project(last, g, h) for h in range(1, horizon + 1))
    label = CascadeClass.PREDICTABLE if relative < rmse_threshold else CascadeClass.RANDOM
    return CascadeForecast(horizon, values, label, g, relative)


def classify_run_cascade(totals: Sequence[float], *, window: int, horizon: int,
                         rmse_threshold: float) -> CascadeForecast:
    """Forecast from the decay flank immediately after a run's peak."""
    totals = list(totals)
    if not totals or max(totals) <= 0:
        return CascadeForecast(horizon, (0.0,) * horizon, CascadeClass.RANDOM,
                               0.0, math.inf)
    peak = int(np.argmax(totals))
    segment = totals[peak:peak + window]
    return predict_cascade(segment, horizon, window=window,
                           rmse_threshold=rmse_threshold)


REPORT_SCHEMA_VERSION = 1
REPORT_FILES = ("run_metadata.json", "history.csv", "sentiment_windows.csv",
                "financial.csv")


def ensure_writable(directory: str | Path) -> None:
    """Fail fast (OSError) if we cannot create files under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    probe = tempfile.NamedTemporaryFile(dir=directory, prefix=".probe", delete=True)
    probe.close()


def run_outcome(sim: "Simulation") -> dict:
    """Scalar per-run outcomes, the unit of batch aggregation."""
    history = sim.history
    totals = history.total_posts
    organic = history.organic_posts
    stress = history.mean_stress
    analytics_cfg = sim.cfg.analytics
    forecast = classify_run_cascade(
        totals, window=analytics_cfg.forecast_window,
        horizon=analytics_cfg.forecast_horizon,
        rmse_threshold=analytics_cfg.predictable_rmse)
    duration = None
    if sim.onset is not None:
        end = sim.extinguished_tick if sim.extinguished_tick is not None else len(totals)
        duration = end - sim.onset
    actions = sim.plan.actions if sim.plan is not None else []
    return {
        "seed": sim.cfg.run.seed,
        "ticks": len(totals),
        "fire_point": sim.fire_point,
        "onset": sim.onset,
        "extinguished_tick": sim.extinguished_tick,
        "duration": duration,
        "ignited": sim.fire_point is not None,
        "total_posts": int(sum(totals)),
        "total_organic_posts": int(sum(organic)),
        "peak_total_posts": float(max(totals)) if totals else 0.0,
        "peak_organic_posts": float(max(organic)) if organic else 0.0,
        "peak_mean_stress": float(max(stress)) if stress else 0.0,
        "end_mean_stress": float(stress[-1]) if stress else 0.0,
        "final_reputation": float(history.reputation[-1]) if history.reputation else 1.0,
        "min_financial_value": float(min(sim.financial.series)) if sim.financial.series else sim.financial.base,
        "final_financial_value": float(sim.financial.value),
        "ransom_paid_total": float(sim.company.ransom_paid_total),
        "data_exfiltrated": bool(sim.company.data_exfiltrated),
        "action_success": any(a.success for a in actions),
        "plan_stage": sim.plan.stage.value if sim.plan is not None else None,
        "predictable": forecast.classification.value,
        "artificial_score": (sim.playbook.verdict.artificial_score
                             if sim.playbook is not None and sim.playbook.verdict is not None
                             else None),
    }


def sentiment_windows_for_run(sim: "Simulation") -> list[SentimentSummary]:
    """The run's sentiment windows, read from its post log's per-tick valences."""
    cfg = sim.cfg.analytics
    per_tick = [valences for _, valences, *_ in sim.post_log.ticks]
    return [window_summary(window_id, start, end, per_tick[start:end],
                           neutral_band=cfg.neutral_band, alpha=cfg.compound_alpha)
            for window_id, (start, end) in _window_bounds(len(per_tick), cfg.sentiment_window)]


def run_metadata(sim: "Simulation") -> dict:
    plan = sim.plan
    verdict = sim.playbook.verdict if sim.playbook is not None else None
    outcome = run_outcome(sim)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        **{key: outcome[key] for key in ("seed", "ticks", "plan_stage", "fire_point", "onset",
                                         "extinguished_tick")},
        "config": sim.cfg.to_dict(),
        "stage_entries": list(plan.stage_entries) if plan is not None else [],
        "excluded_topics": list(plan.excluded_topics) if plan is not None else [],
        "actions": [a.to_dict() for a in plan.actions] if plan is not None else [],
        "events": sim.events,
        "verdict": verdict.to_dict() if verdict is not None else None,
        "outcome": outcome,
    }


def json_text(payload: dict) -> str:
    """``payload`` as report JSON: two-space indent, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_files(out_dir: str | Path, files: dict[str, str]) -> list[Path]:
    """Write each ``{name: text}`` under ``out_dir`` whole or not at all.

    Every file is staged in a private directory inside ``out_dir`` (where
    ``ensure_writable`` probes) before any is renamed into place, so a
    failed write leaves no partial file.  Staged files are opened normally,
    so their mode follows the umask.  Returns the final paths in order.
    """
    out_dir = Path(out_dir)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".staging-") as staging:
        for name, text in files.items():
            (Path(staging) / name).write_text(text, encoding="utf-8")
        for name in files:
            os.replace(Path(staging) / name, out_dir / name)
    return [out_dir / name for name in files]


def emit_report(sim: "Simulation", out_dir: str | Path) -> list[Path]:
    """Write the ``REPORT_FILES`` atomically; returns their paths."""
    ensure_writable(out_dir)
    return write_files(out_dir, dict(zip(REPORT_FILES, (
        json_text(run_metadata(sim)),
        sim.history.to_csv_text(),
        sentiment_csv_text(sentiment_windows_for_run(sim)),
        financial_csv_text(sim.financial)))))
