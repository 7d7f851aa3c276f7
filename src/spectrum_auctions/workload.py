"""Occupancy-grid ingestion/synthesis and request-workload generation.

The occupancy CSV format is one header row ``slot_seconds,<int>`` followed
by one row per channel of comma-separated 0/1 cells (0 = free, 1 =
occupied by the primary user), all rows the same length.  Requests come
in two flavors: uniformly spread over the day (set 1), or with a
configurable fraction squeezed into a hot evening window and the rest
kept out of it (set 2).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

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


class OccupancyFormatError(SpectrumAuctionError):
    """Malformed occupancy CSV; the message names the file and the offending line."""


@dataclass(frozen=True)
class OccupancyGrid:
    """Rectangular 0/1 occupancy: one row per channel, one cell per slot."""

    slot_seconds: int
    occupancy: np.ndarray  # shape (channels, slots), dtype uint8

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        arr = np.asarray(self.occupancy)
        if arr.ndim != 2:
            raise ValueError("occupancy must be 2-dimensional")
        bad = arr[(arr != 0) & (arr != 1)]
        if bad.size:
            raise ValueError(f"occupancy cell {bad[0].item()!r} is not 0 or 1")
        object.__setattr__(self, "occupancy", arr.astype(np.uint8, copy=False))

    @property
    def n_channels(self) -> int:
        return int(self.occupancy.shape[0])

    @property
    def horizon_slots(self) -> int:
        return int(self.occupancy.shape[1])

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
        return OccupancyGrid(self.slot_seconds, self.occupancy[:, start:start + per_day].copy())

    def to_channels(self, region: str, band_type: str) -> list[Channel]:
        """Free runs of each row become a channel's free intervals.

        With an occupied cell added at both ends of a row, each free run
        starts and ends where the row changes value.
        """
        channels = []
        for row_idx, row in enumerate(self.occupancy):
            edges = np.flatnonzero(np.diff(np.pad(row, 1, constant_values=1)))
            edges = (edges * self.slot_seconds).tolist()
            channels.append(Channel(
                id=row_idx + 1, region=region, band_type=band_type,
                free_intervals=tuple(zip(edges[::2], edges[1::2])),
            ))
        return channels


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

        rows: list[list[int]] = []
        width = None
        for cells in reader:
            if not cells:
                continue
            where = f"{path}, line {reader.line_num}"
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise OccupancyFormatError(f"{where}: row has {len(cells)} cells, expected {width}")
            parsed = []
            for cell in cells:
                if cell not in ("0", "1"):
                    raise OccupancyFormatError(f"{where}: cell {cell!r} is not 0 or 1")
                parsed.append(int(cell))
            rows.append(parsed)
        if not rows:
            raise OccupancyFormatError(f"{path}, line 2: no channel rows")
    return OccupancyGrid(slot_seconds, np.array(rows, dtype=np.uint8))


def save_occupancy(grid: OccupancyGrid, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot_seconds", grid.slot_seconds])
        for row in grid.occupancy:
            writer.writerow([int(c) for c in row])


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
    rng = np.random.default_rng(seed)
    day_rows = []
    for _ in range(channels):
        busy = int(round(duty_cycle * per_day))
        row = np.zeros(per_day, dtype=np.uint8)
        if busy >= per_day:
            row[:] = 1
        elif busy > 0:
            free_total = per_day - busy
            # interior gaps use one free slot each, bounding the run count
            n_runs_max = min(busy, 6, free_total + 1)
            n_runs = int(rng.integers(1, n_runs_max + 1))
            run_lengths = _random_composition(rng, busy, n_runs, minimum=1)
            gaps = _random_composition(rng, free_total - (n_runs - 1), n_runs + 1, minimum=0)
            pos = 0
            for k, run in enumerate(run_lengths):
                pos += gaps[k] + (1 if k > 0 else 0)
                row[pos:pos + run] = 1
                pos += run
        day_rows.append(row)
    pattern = np.stack(day_rows)
    return OccupancyGrid(slot_seconds, np.tile(pattern, (1, days)))


def _random_composition(rng: np.random.Generator, total: int, parts: int, minimum: int) -> list[int]:
    """Split ``total`` into ``parts`` ordered pieces, each >= minimum."""
    spare = total - minimum * parts
    if spare < 0:
        raise ValueError("total too small for the requested parts")
    if parts == 1:
        return [total]
    cuts = np.sort(rng.integers(0, spare + 1, size=parts - 1))
    pieces = np.diff(np.concatenate(([0], cuts, [spare])))
    return [int(p) + minimum for p in pieces]


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
    rng = np.random.default_rng(spec.seed)
    t_lo, t_hi = DURATION_RANGE
    w_lo, w_hi = WINDOW_RANGE
    hs, he = HOT_WINDOW
    jobs = []
    for i in range(spec.n_requests):
        window = int(rng.integers(w_lo, w_hi + 1))
        # no redraw: DURATION_RANGE ends where WINDOW_RANGE starts, and
        # ``Job`` rejects a duration longer than its window
        duration = int(rng.integers(t_lo, t_hi + 1))
        if spec.set_kind == 2 and rng.random() < spec.hot_fraction:
            arrival = _arrival_hitting(rng, window, hs, he, spec.horizon)
        elif spec.set_kind == 2:
            arrival = _arrival_missing(rng, window, hs, he, spec.horizon)
        else:
            arrival = int(rng.integers(0, spec.horizon - window + 1))
        rate = float(rng.uniform(*VALUE_RATE_RANGE))
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


def _arrival_hitting(rng: np.random.Generator, window: int, hs: int, he: int,
                     horizon: int) -> int:
    """Uniform arrival whose [a, a+window) intersects the hot range."""
    lo = max(0, hs - window + 1)
    hi = min(he - 1, horizon - window)
    if hi < lo:
        raise ValueError("hot window admits no feasible arrivals")
    return int(rng.integers(lo, hi + 1))


def _arrival_missing(rng: np.random.Generator, window: int, hs: int, he: int,
                     horizon: int) -> int:
    """Uniform arrival whose window stays fully clear of the hot range."""
    left = hs - window + 1  # arrivals in [0, hs - window]
    right = horizon - window - he + 1  # arrivals in [he, horizon - window]
    left = max(0, left)
    right = max(0, right)
    if left + right == 0:
        raise ValueError("no room outside the hot window for this window length")
    pick = int(rng.integers(0, left + right))
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
