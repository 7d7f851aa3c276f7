"""Occupancy-grid ingestion/synthesis and request-workload generation.

The occupancy CSV format is one header row ``slot_seconds,<int>`` followed
by one row per channel of comma-separated 0/1 cells (0 = free, 1 =
occupied by the primary user), all rows the same length.  Requests come
in two flavors: uniformly spread over the day (set 1), or with a
configurable fraction squeezed into a hot evening window and the rest
kept out of it (set 2).

Every random draw comes from ``_Pcg64``, a pure-Python copy of the
stream of numpy's ``default_rng(seed)`` (``SeedSequence`` seeding a
``PCG64``), for exactly the calls made here.  The stream is pinned in
this module because NEP 19 promises no stability of numpy's
``Generator`` stream across releases, and every committed results CSV
depends on it; the tests check the copy against numpy draw for draw.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

from .market import Channel, Job, SpectrumAuctionError

DAY_SECONDS = 86_400
DEFAULT_SLOT_SECONDS = 75
# Request-generator ranges: times in whole seconds with both ends drawable,
# bid rates in currency per hour.
HOT_WINDOW = (68_400, 79_200)  # 19:00-22:00
DURATION_RANGE = (1_800, 7_200)  # 0.5-2 h
WINDOW_RANGE = (7_200, 14_400)  # 2-4 h
VALUE_RATE_RANGE = (1.0, 10.0)
# Every generated request and every grid channel sits in this one market.
REGION = "r1"
BAND_TYPE = "tv"


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(entropy: int | tuple[int, ...], n_words: int) -> list[int]:
    """numpy's ``SeedSequence(entropy).generate_state(n_words)``, as 32-bit words.

    Each entropy integer becomes its little-endian 32-bit words; they are
    hashed into a pool of four words, and the pool is hashed out again.
    """
    words = []
    for value in entropy if isinstance(entropy, tuple) else (entropy,):
        if value < 0:
            raise ValueError(f"seed entropy must not be negative, got {value}")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(n_words):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


class _Pcg64:
    """The draws of numpy's ``default_rng(seed)`` that the workloads make.

    A 128-bit LCG with XSL-RR output, seeded through ``_seed_state``.
    ``integers`` is Lemire's bounded method on 32-bit draws for spans up
    to 2**32 and on 64-bit draws above; a 32-bit draw keeps the other
    half of its 64-bit word for the next one, as numpy's does.
    """

    def __init__(self, seed: int) -> None:
        w = _seed_state(seed, 8)
        seed128, inc128 = (w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2],
                           w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6])
        self._inc = (inc128 << 1 | 1) & _MASK128
        self._state = (self._inc + seed128) * _PCG_MULT + self._inc & _MASK128
        self._half: int | None = None

    def next64(self) -> int:
        self._state = state = self._state * _PCG_MULT + self._inc & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self.next64()
        self._half = x >> 32
        return x & _MASK32

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        span = high - low
        if span < 1:
            raise ValueError(f"empty range [{low}, {high})")
        if span == 1:
            return low
        draw, bits = (self.next32, 32) if span <= 1 << 32 else (self.next64, 64)
        mask = (1 << bits) - 1
        m = draw() * span
        if m & mask < span:
            threshold = (1 << bits) % span
            while m & mask < threshold:
                m = draw() * span
        return low + (m >> bits)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()


class OccupancyFormatError(SpectrumAuctionError):
    """Malformed occupancy CSV; the message names the file and the offending line."""


_CELL = {0: 0, 1: 1}
_FREE_RUN = re.compile(b"\x00+")


def _grid_row(row) -> bytes:
    """One channel's cells as bytes of 0/1, from bytes or any sequence of numbers."""
    if isinstance(row, bytes) and not row.translate(None, b"\x00\x01"):
        return row
    try:
        return bytes(_CELL[cell] for cell in row)
    except KeyError as err:
        cell = err.args[0]
        shown = cell.item() if hasattr(cell, "item") else cell  # a numpy scalar as a number
        raise ValueError(f"occupancy cell {shown!r} is not 0 or 1") from None
    except TypeError:  # a scalar row, or a cell that is itself a sequence
        raise ValueError("occupancy must be 2-dimensional") from None


@dataclass(frozen=True)
class OccupancyGrid:
    """Rectangular 0/1 occupancy: one row per channel, one cell per slot.

    ``occupancy`` is a tuple of ``bytes`` rows, one byte per cell; any
    2-dimensional sequence of 0/1 numbers is accepted and converted.
    """

    slot_seconds: int
    occupancy: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        try:
            rows = tuple(_grid_row(row) for row in self.occupancy)
        except TypeError:  # not a sequence at all
            raise ValueError("occupancy must be 2-dimensional") from None
        if not rows:
            raise ValueError("occupancy must have at least one row")
        if len({len(row) for row in rows}) > 1:
            raise ValueError("occupancy rows must all have the same length")
        object.__setattr__(self, "occupancy", rows)

    @property
    def n_channels(self) -> int:
        return len(self.occupancy)

    @property
    def horizon_slots(self) -> int:
        return len(self.occupancy[0])

    @property
    def horizon_seconds(self) -> int:
        return self.horizon_slots * self.slot_seconds

    def day_slice(self, day: int) -> "OccupancyGrid":
        """Extract one 24 h window as its own grid; ``slot_seconds`` must divide 86400."""
        if self.slot_seconds > DAY_SECONDS:
            raise ValueError(f"slot_seconds {self.slot_seconds} exceeds a day ({DAY_SECONDS} s), "
                             "so a day holds no whole slot")
        if DAY_SECONDS % self.slot_seconds:
            raise ValueError(f"slot_seconds {self.slot_seconds} does not divide a day "
                             f"({DAY_SECONDS} s), so days would drift off midnight")
        per_day = DAY_SECONDS // self.slot_seconds
        start = day * per_day
        if day < 0 or start + per_day > self.horizon_slots:
            raise ValueError(f"day {day} out of range for a {self.horizon_slots}-slot grid")
        return OccupancyGrid(self.slot_seconds,
                             tuple(row[start:start + per_day] for row in self.occupancy))

    def to_channels(self, region: str, band_type: str) -> list[Channel]:
        """Free runs of each row become a channel's free intervals."""
        s = self.slot_seconds
        return [Channel(id=row_idx + 1, region=region, band_type=band_type,
                        free_intervals=tuple((run.start() * s, run.end() * s)
                                             for run in _FREE_RUN.finditer(row)))
                for row_idx, row in enumerate(self.occupancy)]


def load_occupancy(path: str) -> OccupancyGrid:
    """Parse an occupancy CSV, naming the file and line of any defect."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise OccupancyFormatError(f"{path}, line 1: empty file")
        if len(header) != 2 or header[0] != "slot_seconds":
            raise OccupancyFormatError(f"{path}, line 1: expected header 'slot_seconds,<int>'")
        try:
            slot_seconds = int(header[1])
        except ValueError:
            raise OccupancyFormatError(
                f"{path}, line 1: slot_seconds {header[1]!r} is not an integer") from None
        if slot_seconds <= 0:
            raise OccupancyFormatError(f"{path}, line 1: slot_seconds must be positive")

        rows: list[bytes] = []
        width = None
        for cells in reader:
            if not cells:
                continue
            where = f"{path}, line {reader.line_num}"
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise OccupancyFormatError(f"{where}: row has {len(cells)} cells, expected {width}")
            for cell in cells:
                if cell not in ("0", "1"):
                    raise OccupancyFormatError(f"{where}: cell {cell!r} is not 0 or 1")
            rows.append(bytes(cell == "1" for cell in cells))
        if not rows:
            raise OccupancyFormatError(f"{path}, line 2: no channel rows")
    return OccupancyGrid(slot_seconds, tuple(rows))


def save_occupancy(grid: OccupancyGrid, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot_seconds", grid.slot_seconds])
        writer.writerows(grid.occupancy)


def synthesize_occupancy(channels: int, days: int, duty_cycle: float, seed: int,
                         slot_seconds: int = DEFAULT_SLOT_SECONDS) -> OccupancyGrid:
    """Random daily occupancy pattern per channel, repeated across days.

    Each channel gets occupied runs totaling exactly
    ``round(duty_cycle * slots_per_day)`` slots, split into a few random
    bursts separated by free gaps; the same daily pattern repeats every
    day, mimicking primary users with stable daily habits.  ``slot_seconds``
    must divide 86400, so every day starts at a slot boundary.
    """
    if not 0.0 <= duty_cycle <= 1.0:
        raise ValueError("duty_cycle must lie in [0, 1]")
    if slot_seconds <= 0:
        raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")
    if slot_seconds > DAY_SECONDS:
        raise ValueError(f"slot_seconds must not exceed a day ({DAY_SECONDS}), got {slot_seconds}")
    if DAY_SECONDS % slot_seconds:
        raise ValueError(f"slot_seconds must divide a day ({DAY_SECONDS}), got {slot_seconds}")
    for name, count in (("channels", channels), ("days", days)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    per_day = DAY_SECONDS // slot_seconds
    rng = _Pcg64(seed)
    rows = []
    for _ in range(channels):
        busy = int(round(duty_cycle * per_day))
        row = bytearray(per_day)
        if busy > 0:
            free_total = per_day - busy
            # interior gaps use one free slot each, bounding the run count
            n_runs_max = min(busy, 6, free_total + 1)
            n_runs = rng.integers(1, n_runs_max + 1)
            run_lengths = _random_composition(rng, busy, n_runs, minimum=1)
            gaps = _random_composition(rng, free_total - (n_runs - 1), n_runs + 1, minimum=0)
            pos = 0
            for k, run in enumerate(run_lengths):
                pos += gaps[k] + (1 if k > 0 else 0)
                row[pos:pos + run] = b"\x01" * run
                pos += run
        rows.append(bytes(row) * days)
    return OccupancyGrid(slot_seconds, tuple(rows))


def _random_composition(rng: _Pcg64, total: int, parts: int, minimum: int) -> list[int]:
    """Split ``total`` into ``parts`` ordered pieces, each >= minimum.

    Both callers pass a ``total`` of at least ``minimum * parts``.
    """
    spare = total - minimum * parts
    cuts = sorted(rng.integers(0, spare + 1) for _ in range(parts - 1))
    return [hi - lo + minimum for lo, hi in zip([0, *cuts], [*cuts, spare])]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic request batch.

    Durations and window lengths are drawn uniformly (integer seconds)
    from ``DURATION_RANGE`` and ``WINDOW_RANGE``; bids are per-hour rates
    drawn from ``VALUE_RATE_RANGE`` times the duration in hours.  For set
    2, a ``hot_fraction`` share of requests gets windows intersecting
    ``HOT_WINDOW`` and the rest are kept entirely outside it.  Job ids
    run 1..n_requests, all in market (``REGION``, ``BAND_TYPE``).
    """

    n_requests: int
    set_kind: int = 1
    hot_fraction: float = 0.8
    horizon: int = DAY_SECONDS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        if self.set_kind not in (1, 2):
            raise ValueError("set_kind must be 1 or 2")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must lie in (0, 1]")
        if self.set_kind == 2 and HOT_WINDOW[1] > self.horizon:
            raise ValueError("the hot window must lie inside the horizon")
        if WINDOW_RANGE[1] > self.horizon:
            raise ValueError("windows cannot exceed the horizon")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


def generate_requests(spec: WorkloadSpec) -> list[Job]:
    """Draw one deterministic batch of jobs for the given spec."""
    rng = _Pcg64(spec.seed)
    t_lo, t_hi = DURATION_RANGE
    w_lo, w_hi = WINDOW_RANGE
    hs, he = HOT_WINDOW
    jobs = []
    for i in range(spec.n_requests):
        window = rng.integers(w_lo, w_hi + 1)
        # no redraw: DURATION_RANGE ends where WINDOW_RANGE starts, and
        # ``Job`` rejects a duration longer than its window
        duration = rng.integers(t_lo, t_hi + 1)
        if spec.set_kind == 2 and rng.random() < spec.hot_fraction:
            arrival = _arrival_hitting(rng, window, hs, he, spec.horizon)
        elif spec.set_kind == 2:
            arrival = _arrival_missing(rng, window, hs, he, spec.horizon)
        else:
            arrival = rng.integers(0, spec.horizon - window + 1)
        rate = rng.uniform(*VALUE_RATE_RANGE)
        jobs.append(Job(
            id=i + 1,
            region=REGION,
            band_type=BAND_TYPE,
            bid_value=rate * duration / 3600.0,
            arrival=arrival,
            deadline=arrival + window,
            duration=duration,
        ))
    return jobs


def _arrival_hitting(rng: _Pcg64, window: int, hs: int, he: int,
                     horizon: int) -> int:
    """Uniform arrival whose [a, a+window) intersects the hot range."""
    return rng.integers(hs - window + 1, min(he - 1, horizon - window) + 1)


def _arrival_missing(rng: _Pcg64, window: int, hs: int, he: int,
                     horizon: int) -> int:
    """Uniform arrival whose window stays fully clear of the hot range."""
    left = hs - window + 1  # arrivals in [0, hs - window]
    right = max(0, horizon - window - he + 1)  # arrivals in [he, horizon - window]
    pick = rng.integers(0, left + right)
    return pick if pick < left else he + (pick - left)


REQUEST_COLUMNS = ["id", "region", "band_type", "bid_value", "arrival", "deadline", "duration"]


def save_requests(jobs: list[Job], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUEST_COLUMNS)
        for j in jobs:
            writer.writerow([j.id, j.region, j.band_type, repr(j.bid_value),
                             j.arrival, j.deadline, j.duration])


def load_requests(path: str) -> list[Job]:
    """Parse a request CSV, naming the file and line of any defect."""
    parsers = {"id": int, "region": str, "band_type": str, "bid_value": float,
               "arrival": int, "deadline": int, "duration": int}
    jobs = []
    first_seen: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != REQUEST_COLUMNS:
            raise SpectrumAuctionError(
                f"{path}, line 1: expected header {','.join(REQUEST_COLUMNS)!r}")
        for cells in reader:
            if not cells:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(cells) != len(REQUEST_COLUMNS):
                raise SpectrumAuctionError(
                    f"{where}: row has {len(cells)} cells, expected {len(REQUEST_COLUMNS)}")
            fields = {}
            for name, cell in zip(REQUEST_COLUMNS, cells):
                try:
                    fields[name] = parsers[name](cell)
                except ValueError:
                    raise SpectrumAuctionError(
                        f"{where}: {name} {cell!r} is not a valid {parsers[name].__name__}") from None
            try:
                job = Job(**fields)
            except ValueError as err:
                raise SpectrumAuctionError(f"{where}: {err}") from None
            if job.id in first_seen:
                raise SpectrumAuctionError(
                    f"{where}: duplicate job id {job.id} (first on line {first_seen[job.id]})")
            first_seen[job.id] = reader.line_num
            jobs.append(job)
    return jobs
