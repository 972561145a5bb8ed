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


_ISO_WIDTH = 25  # YYYY-MM-DDTHH:MM:SS+HH:MM
_ISO_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18)
_ISO_PUNCTUATION = ((4, "-"), (7, "-"), (13, ":"), (16, ":"))
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


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


def _parse_timestamps(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Ticks of a column of timestamp cells and the mask of cells that parse.

    ``YYYY-MM-DD[T ]HH:MM:SS`` with an optional ``Z`` or ``+-HH:MM`` is read
    with array arithmetic (days from the civil date, with every field's
    range checked); other cells go through ``int`` (which strips as
    ``str.strip`` does), and those it rejects through ``_parse_timestamp``.
    So a cell parses, and to the same tick, exactly when ``_parse_timestamp``
    accepts it and its tick fits in int64.
    """
    n = len(cells)
    lengths = np.fromiter(map(len, cells), dtype=np.int64, count=n)
    # code points, zero past each cell's end; longer cells are cut (and fall back)
    codes = np.array(cells, dtype=f"U{_ISO_WIDTH}").view(np.uint32).reshape(n, _ISO_WIDTH)
    d = codes - np.uint32(ord("0"))  # wraps below "0"; read only where ``digit``
    digit = d <= 9

    def number(*columns: int) -> np.ndarray:
        value = np.zeros(n, dtype=np.int64)
        for c in columns:
            value = value * 10 + d[:, c]
        return value

    # ISO stamps: 19 characters, then nothing, "Z" or "+HH:MM"/"-HH:MM"
    iso = np.isin(lengths, (19, 20, 25)) & digit[:, _ISO_DIGITS].all(axis=1)
    for c, char in _ISO_PUNCTUATION:
        iso &= codes[:, c] == ord(char)
    iso &= (codes[:, 10] == ord("T")) | (codes[:, 10] == ord(" "))
    iso &= (lengths != 20) | (codes[:, 19] == ord("Z"))
    signed = lengths == 25
    sign = np.where(codes[:, 19] == ord("-"), -1, 1)
    iso &= ~signed | (((codes[:, 19] == ord("+")) | (codes[:, 19] == ord("-")))
                      & digit[:, [20, 21, 23, 24]].all(axis=1) & (codes[:, 22] == ord(":")))
    year, month, day = number(0, 1, 2, 3), number(5, 6), number(8, 9)
    hour, minute, second = number(11, 12), number(14, 15), number(17, 18)
    off_hour, off_minute = number(20, 21), number(23, 24)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + (leap & (month == 2))
    iso &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
            & (hour <= 23) & (minute <= 59) & (second <= 59)
            & (~signed | ((off_hour <= 23) & (off_minute <= 59))))
    # days from civil (proleptic Gregorian), years counted from March
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    offset = np.where(signed, sign * (off_hour * 3600 + off_minute * 60), 0)
    seconds = days * 86400 + hour * 3600 + minute * 60 + second - offset
    ticks = seconds // 3600

    ok = iso
    rest = np.flatnonzero(~ok).tolist()
    if rest:
        values, rejected = _mapped(int, [cells[i] for i in rest])
        slow, failed = _mapped(_parse_timestamp, [cells[rest[i]] for i in rejected])
        for i, value in zip(rejected, slow):
            values[i] = value
        ticks[rest], ok[rest] = _int64_column(values, [rejected[i] for i in failed])
    return ticks, ok


# Rows parsed per chunk.  From 4,096 to 32,768 rows the ingest time of a
# 220k-row archive stays within noise, while the peak memory grows with the
# chunk (58 MB at 8,192 rows, 88 MB at 32,768).
_CHUNK_ROWS = 8192


@functools.lru_cache(maxsize=_CHUNK_ROWS)  # bounded, as the chunk bounds the rows
def _surface_ok(cell: str) -> bool:
    text = cell.strip()
    if not text:
        return True  # blank means the general stream
    try:
        Surface.from_text(text)
    except ValueError:
        return False
    return True


def _parse_rows(rows: list[list[str]]) -> tuple[np.ndarray, ...]:
    """Columns of five-cell rows (ticks, authors, creation ticks, valences) and
    the mask of valid rows."""
    stamps, author_cells, created_cells, surfaces, valence_cells = zip(*rows)
    ticks, ok = _parse_timestamps(stamps)
    authors, authors_ok = _int64_column(*_mapped(int, author_cells))
    created, created_ok = _parse_timestamps(created_cells)
    # a rejected valence is NaN: out of range below
    valences = np.array(_mapped(float, valence_cells, math.nan)[0], dtype=np.float64)
    ok &= authors_ok & created_ok & (valences >= -1.0) & (valences <= 1.0)
    ok &= np.fromiter(map(_surface_ok, surfaces), dtype=bool, count=len(rows))
    return ticks, authors, created, valences, ok


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


class _Slice(io.RawIOBase):
    """``length`` bytes of a binary file from its current offset, as a raw stream."""

    def __init__(self, raw, length: int):
        self._raw, self._left = raw, length

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(memoryview(buffer)[:self._left])
        self._left -= count
        return count

    def close(self) -> None:
        self._raw.close()
        super().close()


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


def _ingest_range(task: tuple[str | Path, int, int]) -> tuple:
    """Kept-row columns of one byte range with its (total, malformed) counts.

    The range starting at byte 0 reads and checks the header.  Rows are
    parsed ``_CHUNK_ROWS`` at a time into typed columns, which bounds the
    Python objects alive at once.  Bytes that are not UTF-8 and CSV the
    reader rejects (such as a field over its size limit) raise
    CorruptArchiveError.

    The cyclic collector is off while the range parses: its rows, lists of
    strings, hold no cycles, and their allocations would start collections
    that walk the whole heap.  The caller's setting is restored on return.
    """
    path, start, end = task
    parts = [(np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),)]
    total = malformed = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        raw = open(path, "rb", buffering=0)
        raw.seek(start)
        with io.TextIOWrapper(io.BufferedReader(_Slice(raw, end - start)),
                              encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if start == 0:
                header = next(reader, None)
                if header is None:
                    raise CorruptArchiveError(f"{path}: empty file, expected header")
                header = tuple(h.strip() for h in header)
                if (len(header) != 5 or header[:4] != ARCHIVE_HEADER[:4]
                        or header[4] not in _VALENCE_COLUMN_NAMES):
                    raise CorruptArchiveError(
                        f"{path}: expected header {','.join(ARCHIVE_HEADER)} "
                        f"(last column may be text_score)")
            while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
                # skip blank rows (text in the first cell settles it at once)
                rows = [row for row in chunk if row and (row[0].strip() or "".join(row).strip())]
                wide = [row for row in rows if len(row) == 5]
                total += len(rows)
                malformed += len(rows) - len(wide)
                if wide:
                    *columns, ok = _parse_rows(wide)
                    malformed += int(np.count_nonzero(~ok))
                    parts.append(tuple(column[ok] for column in columns))
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
    this process.  Ranges merge in file order, so the result is the same
    either way.  Exact duplicate rows (same author, timestamp, and valence)
    collapse to the first one in file order.  Malformed rows are counted,
    not fatal, unless they are the majority of the file.  An archive with
    no header, bytes that are not UTF-8 or CSV the reader rejects raises
    CorruptArchiveError; when a range fails, the file is read again in one
    pass, so the error is the one a single pass meets first.
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
