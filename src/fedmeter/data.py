"""Smart-meter data pipeline: ingestion, synthesis, usage-window detection,
anomaly injection, and per-client dataset assembly.

A load profile is one day of hourly consumption, 00:00 to 23:00: one row of
a ``(days, 24)`` float64 array, which is what a household is from ingestion
and synthesis on, so a column index is the hour of day.  Synthetic
anomalies come in five kinds: a drop to zero, single-step positive/negative
spikes, and two-step segment spikes.  Drops and negative spikes start inside
the high-usage window, positive spikes inside the low-usage window; hour
indices are circular, so a two-step anomaly starting at hour 23 touches
hours 23 and 0 of the same profile.  Each anomalous row draws its kind
uniformly, and a spike its amplitude r uniformly from ``SPIKE_AMPLITUDES``.
"""

from __future__ import annotations

import contextlib
import csv
import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .seeding import derive_seed, rng_for

HOURS_PER_DAY = 24
TRAIN_FRACTION = 0.8  # each household's share of rows in its training set
SYNTH_START = np.datetime64("2021-01-04T00", "h")  # a Monday midnight
# ISO-8601 local hours: numpy would truncate a finer time to its hour, shift
# a zoned one to UTC and read a bare date, "today" or "now" as some hour
_LOCAL_HOUR = re.compile(r"\d{4}-\d\d-\d\dT\d\d(:00(:00)?)?")

ANOMALY_KINDS = ("drop", "pos_spike", "neg_spike", "seg_pos_spike", "seg_neg_spike")
SPIKE_AMPLITUDES = (0.5, 1.5)  # the range of a spike's r, as the reference protocol's
LOW_WINDOW_HOURS = 6   # lengths of the detected usage windows, as the paper's
HIGH_WINDOW_HOURS = 7  # low window 4-10h and high window 18-1h

# Average diurnal shape (kWh) used by the synthesizer: trough over hours
# 4..9, evening peak spanning midnight (18..23 plus 0).
BASE_DIURNAL_SHAPE = np.array([
    1.30, 0.90, 0.70, 0.55,
    0.35, 0.30, 0.28, 0.30, 0.35, 0.40,
    0.55, 0.65, 0.75, 0.70, 0.65, 0.70, 0.85, 1.10,
    1.50, 1.80, 1.90, 1.85, 1.70, 1.50,
])


class DataError(ValueError):
    """Ingestion or dataset-construction contract violation."""


@dataclass
class UsageWindows:
    """Hour indices of the low- and high-consumption periods, each kept as
    a sorted tuple of ints, whatever order and integer type they come in."""

    low_hours: tuple[int, ...]
    high_hours: tuple[int, ...]

    def __post_init__(self):
        self.low_hours = tuple(sorted(int(h) for h in self.low_hours))
        self.high_hours = tuple(sorted(int(h) for h in self.high_hours))
        if not self.low_hours or not self.high_hours:
            raise DataError("usage windows must both be non-empty")
        if set(self.low_hours) & set(self.high_hours):
            raise DataError("low and high usage windows must be disjoint")


@dataclass
class LabeledDataset:
    """Parallel arrays of profiles, binary labels, and anomaly kinds."""

    profiles: np.ndarray   # [n, 24]
    labels: np.ndarray     # [n] in {0, 1}
    kinds: list[str]       # "none" or one of ANOMALY_KINDS

    def __post_init__(self):
        self.profiles = np.asarray(self.profiles, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = len(self.profiles)
        if not (len(self.labels) == len(self.kinds) == n):
            raise DataError("dataset arrays must have equal length")
        if np.any((self.labels == 1) != (np.asarray(self.kinds, dtype=str) != "none")):
            raise DataError("label 1 must coincide with a non-none anomaly kind")

    def __len__(self) -> int:
        return len(self.profiles)

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.profiles[idx], self.labels[idx],
                              [self.kinds[i] for i in idx])


# ---------------------------------------------------------------------------
# ingestion and synthesis

@contextlib.contextmanager
def utf8_text(path) -> Iterator[TextIO]:
    """Open a CSV file for reading as UTF-8, skipping a leading byte-order
    mark; bytes that are not UTF-8 raise :class:`DataError` naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: byte "
                            f"0x{exc.object[exc.start]:02x} cannot be decoded") from None


def ingest_csv(path) -> dict[str, np.ndarray]:
    """Parse an hourly-readings CSV into each household's ``(days, 24)``
    profiles: its readings in time order, with no gap, from its first
    midnight, a trailing partial day dropped.

    Expected header: household_id, timestamp (ISO-8601 local hour), kwh.
    The file is UTF-8, with or without the byte-order mark that spreadsheet
    exports write.  Row numbers in error messages count data rows from 1.
    """
    rows: dict[str, list[tuple[np.datetime64, float]]] = {}
    seen: set[tuple[str, np.datetime64]] = set()
    with utf8_text(path) as fh:
        reader = csv.DictReader(fh)
        required = {"household_id", "timestamp", "kwh"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            missing = sorted(required - set(reader.fieldnames or []))
            raise DataError(f"{path}: missing required column(s) {missing}")
        for rownum, row in enumerate(reader, start=1):
            # DictReader fills a short row with None and files a long row's
            # surplus under the key None
            if None in row or None in row.values():
                raise DataError(f"{path}: row {rownum} does not have one field per "
                                f"column of the header")
            hid, text = row["household_id"], row["timestamp"]
            try:  # numpy rejects an hour, day or month out of range
                ts = np.datetime64(text if _LOCAL_HOUR.fullmatch(text) else "NaT", "h")
            except ValueError:
                ts = np.datetime64("NaT", "h")
            if np.isnat(ts):
                raise DataError(f"{path}: timestamp at row {rownum} is not a local hour "
                                f"in ISO-8601, such as 2021-01-04T13: {text!r}")
            try:
                kwh = float(row["kwh"])
            except ValueError:
                raise DataError(f"{path}: unparseable kwh at row {rownum}") from None
            if not np.isfinite(kwh):  # float() parses "nan", "inf" and "1e999"
                raise DataError(f"{path}: non-finite kwh at row {rownum}: {row['kwh']!r}")
            if kwh < 0:
                raise DataError(f"{path}: negative kwh at row {rownum}")
            key = (hid, ts)
            if key in seen:
                raise DataError(f"{path}: duplicate (household, timestamp) at row {rownum}")
            seen.add(key)
            rows.setdefault(hid, []).append((ts, kwh))

    out = {}
    for hid, pairs in rows.items():
        pairs.sort(key=lambda p: p[0])
        ts = np.array([p[0] for p in pairs], dtype="datetime64[h]")
        steps = np.diff(ts).astype(np.int64)
        if np.any(steps != 1):
            raise DataError(f"household {hid}: readings must be hourly with no gaps "
                            f"(offending step after {ts[np.argmax(steps != 1)]})")
        kwh = np.array([p[1] for p in pairs])
        # datetime64[h] counts hours from 1970-01-01T00, a midnight
        kwh = kwh[-int(ts[0].astype(np.int64)) % HOURS_PER_DAY:]
        n_days = len(kwh) // HOURS_PER_DAY
        out[hid] = kwh[:n_days * HOURS_PER_DAY].reshape(n_days, HOURS_PER_DAY)
    return out


def synthetic_households(count: int, days: int, seed: int) -> Iterator[tuple[str, np.ndarray]]:
    """The ``count`` synthetic households of master seed ``seed``, as
    ``(household_id, profiles)`` with ids ``h00``, ``h01``, ...: what
    ``fedmeter synth-data`` writes and what a run without ``data.csv_path``
    trains on.  Ids are padded to the width of the largest index, at least
    2, so they sort in synthesis order, as a CSV run orders them."""
    width = max(2, len(str(count - 1)))
    for h in range(count):
        hid = f"h{h:0{width}d}"
        yield hid, synthesize_household(days, seed=derive_seed(seed, "data", h),
                                        household_id=hid)


def synthesize_household(days: int, seed: int, household_id: str = "h0") -> np.ndarray:
    """Generate a plausible household's ``(days, 24)`` profiles from
    ``SYNTH_START``: the diurnal shape with a morning trough and evening
    peak, weekend uplift, and multiplicative noise."""
    if days < 1:
        raise DataError(f"days must be >= 1, got {days}")
    rng = rng_for(seed, "synth", household_id)

    scale = rng.uniform(0.7, 1.4)
    hour_jitter = rng.uniform(0.95, 1.05, size=HOURS_PER_DAY)
    daily = BASE_DIURNAL_SHAPE * scale * hour_jitter

    weekly = np.where(np.arange(days) % 7 >= 5, 1.15, 1.0)  # the start is a Monday
    values = weekly[:, None] * daily
    return values * rng.lognormal(mean=0.0, sigma=0.12, size=values.shape)


def _as_profiles(values, ndim: int) -> np.ndarray:
    """``values`` as float64: one ``(24,)`` load profile when ``ndim`` is 1,
    a ``(days, 24)`` array of them when it is 2."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != ndim or values.shape[-1] != HOURS_PER_DAY:
        rows = "" if ndim == 1 else " in each row of a 2-D array"
        raise DataError(f"load profile must have exactly {HOURS_PER_DAY} values{rows}, "
                        f"got shape {values.shape}")
    return values


# ---------------------------------------------------------------------------
# usage windows

def _best_circular_window(hour_means: np.ndarray, extremum: int, k: int,
                          maximize: bool) -> np.ndarray:
    """The hours of the length-k circular window containing the extremum
    hour whose mean is most extreme, from its start; ties resolved toward
    the lower start hour."""
    best_start, best_mean = None, None
    for offset in range(k):
        start = (extremum - offset) % HOURS_PER_DAY
        m = hour_means[_window_positions(start, k)].mean()
        better = (best_mean is None
                  or (m > best_mean if maximize else m < best_mean)
                  or (m == best_mean and start < best_start))
        if better:
            best_start, best_mean = start, m
    return _window_positions(best_start, k)


def detect_usage_windows(profiles: np.ndarray) -> UsageWindows:
    """Low/high usage windows of ``(days, 24)`` profiles, as contiguous
    circular hour ranges of ``LOW_WINDOW_HOURS`` and ``HIGH_WINDOW_HOURS``
    around the extreme-mean hours (``UsageWindows`` rejects an overlap)."""
    profiles = _as_profiles(profiles, 2)
    if len(profiles) == 0:
        raise DataError("cannot detect usage windows from an empty profile set")
    hour_means = profiles.mean(axis=0)
    if hour_means.max() == hour_means.min():
        raise DataError("degenerate: no distinct windows (constant hourly means)")
    low = _best_circular_window(hour_means, int(np.argmin(hour_means)), LOW_WINDOW_HOURS, False)
    high = _best_circular_window(hour_means, int(np.argmax(hour_means)), HIGH_WINDOW_HOURS, True)
    return UsageWindows(low_hours=low, high_hours=high)


# ---------------------------------------------------------------------------
# anomaly injection

def _window_positions(start: int, length: int) -> np.ndarray:
    return (start + np.arange(length)) % HOURS_PER_DAY


def inject_drop(profile: np.ndarray, start: int, length: int) -> np.ndarray:
    """A copy of the ``(24,)`` profile with ``length`` consecutive hours
    starting at ``start`` (circular) zeroed out."""
    if length not in (1, 2):
        raise DataError(f"drop length must be 1 or 2, got {length}")
    values = _as_profiles(profile, 1).copy()
    values[_window_positions(start, length)] = 0.0
    return values


def inject_spike(profile: np.ndarray, start: int, length: int, r: float,
                 direction: str) -> np.ndarray:
    """A copy of the ``(24,)`` profile with ``length`` consecutive hours
    scaled by (1+r) or (1-r), r in ``SPIKE_AMPLITUDES``.

    A negative spike with r > 1 yields negative consumption, which is kept.
    """
    if length not in (1, 2):
        raise DataError(f"spike length must be 1 or 2, got {length}")
    if not (SPIKE_AMPLITUDES[0] <= r <= SPIKE_AMPLITUDES[1]):
        raise DataError(f"spike amplitude r={r} outside allowed range {SPIKE_AMPLITUDES}")
    if direction not in ("positive", "negative"):
        raise DataError(f"spike direction must be positive or negative, got {direction!r}")
    values = _as_profiles(profile, 1).copy()
    pos = _window_positions(start, length)
    factor = (1.0 + r) if direction == "positive" else (1.0 - r)
    values[pos] = values[pos] * factor
    return values


def _inject_kind(profile: np.ndarray, kind: str, windows: UsageWindows,
                 rng: np.random.Generator) -> np.ndarray:
    direction = "positive" if "pos" in kind else "negative"
    pool = windows.low_hours if direction == "positive" else windows.high_hours
    # the draw rng.choice(pool) makes, without its argument checks
    start = pool[rng.integers(len(pool))]
    if kind == "drop":
        return inject_drop(profile, start, int(rng.integers(1, 3)))
    length = 2 if kind.startswith("seg_") else 1
    return inject_spike(profile, start, length, float(rng.uniform(*SPIKE_AMPLITUDES)),
                        direction)


def build_dataset(profiles: np.ndarray, windows: UsageWindows, anomaly_fraction: float,
                  seed: int) -> LabeledDataset:
    """The ``(days, 24)`` originals labeled 0, then anomalous copies of a
    seeded random ``anomaly_fraction`` of them, each of a kind drawn
    uniformly from ``ANOMALY_KINDS``."""
    if not (0.0 < anomaly_fraction < 1.0):
        raise DataError(f"anomaly_fraction must be in (0, 1), got {anomaly_fraction!r}")
    profiles = _as_profiles(profiles, 2)
    if len(profiles) == 0:
        raise DataError("cannot build a dataset from zero profiles")
    rng = rng_for(seed, "inject")
    n = len(profiles)
    n_anom = int(round(anomaly_fraction * n))
    source_idx = np.sort(rng.choice(n, size=n_anom, replace=False))
    # searching this cdf for one rng.random() is the draw rng.choice(ANOMALY_KINDS,
    # p=uniform) makes, without its argument checks
    cdf = np.full(len(ANOMALY_KINDS), 1.0 / len(ANOMALY_KINDS)).cumsum()
    cdf /= cdf[-1]

    kinds, injected = [], []
    for i in source_idx:  # each row draws its kind, then its injection
        kinds.append(ANOMALY_KINDS[cdf.searchsorted(rng.random(), side="right")])
        injected.append(_inject_kind(profiles[i], kinds[-1], windows, rng))
    return LabeledDataset(np.vstack([profiles, *injected]),
                          np.repeat([0, 1], [n, n_anom]),
                          ["none"] * n + kinds)


# ---------------------------------------------------------------------------
# scaling and splitting

def normalize(dataset: LabeledDataset) -> LabeledDataset:
    """Min-max scale by the clean rows' range; spikes may exceed [0, 1]."""
    clean = dataset.profiles[dataset.labels == 0]
    vmin, vmax = float(clean.min()), float(clean.max())
    if vmax == vmin:
        raise DataError("constant series: min equals max, cannot scale")
    return LabeledDataset((dataset.profiles - vmin) / (vmax - vmin), dataset.labels,
                          list(dataset.kinds))


def split(dataset: LabeledDataset, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified train/test split, ``TRAIN_FRACTION`` of each class to
    training; disjoint, union equals the input."""
    rng = rng_for(seed, "split")
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for label in (0, 1):
        idx = np.flatnonzero(dataset.labels == label)
        if len(idx) < 2:
            raise DataError(f"class {label} has {len(idx)} sample(s); need at least 2 to split")
        perm = rng.permutation(idx)
        n_train = int(round(TRAIN_FRACTION * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)  # keep both sides non-empty
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    tr = np.sort(np.concatenate(train_idx))
    te = np.sort(np.concatenate(test_idx))
    return dataset.subset(tr), dataset.subset(te)
