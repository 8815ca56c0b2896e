import re

import numpy as np
import pytest

from fedmeter import data as dp
from fedmeter.data import DataError, LabeledDataset, UsageWindows
from fedmeter.seeding import rng_for


def hourly_stamps(n, start="2021-01-04T00"):
    return np.datetime64(start, "h") + np.arange(n).astype("timedelta64[h]")


def write_csv(path, rows, header="household_id,timestamp,kwh"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def ingest_readings(tmp_path, kwh, start="2021-01-04T00", hid="a"):
    """The profiles ``ingest_csv`` makes of one household's hourly ``kwh``
    from ``start``."""
    f = tmp_path / f"{hid}.csv"
    write_csv(f, [f"{hid},{t},{v!r}" for t, v in zip(hourly_stamps(len(kwh), start),
                                                     map(float, kwh))])
    return dp.ingest_csv(f)[hid]


class TestIngest:
    def test_two_households_row_conservation(self, tmp_path):
        rows = []
        for hid in ("a", "b"):
            for i, ts in enumerate(hourly_stamps(48)):
                rows.append(f"{hid},{ts},{0.5 + 0.01 * i}")
        f = tmp_path / "meters.csv"
        write_csv(f, rows)
        profiles = dp.ingest_csv(f)
        assert set(profiles) == {"a", "b"}
        for p in profiles.values():
            np.testing.assert_array_equal(p, (0.5 + 0.01 * np.arange(48)).reshape(2, 24))

    def test_rows_sorted_by_timestamp(self, tmp_path):
        ts = hourly_stamps(24)
        order = np.random.default_rng(0).permutation(24)
        rows = [f"a,{ts[i]},{i}" for i in order]
        f = tmp_path / "m.csv"
        write_csv(f, rows)
        np.testing.assert_array_equal(dp.ingest_csv(f)["a"], [np.arange(24)])

    def test_negative_kwh_cites_row(self, tmp_path):
        ts = hourly_stamps(10)
        rows = [f"a,{ts[i]},{1.0 if i != 6 else -0.2}" for i in range(10)]
        f = tmp_path / "m.csv"
        write_csv(f, rows)
        with pytest.raises(DataError, match="row 7"):
            dp.ingest_csv(f)

    @pytest.mark.parametrize("reading", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_kwh_cites_row(self, tmp_path, reading):
        ts = hourly_stamps(10)
        rows = [f"a,{ts[i]},{1.0 if i != 6 else reading}" for i in range(10)]
        f = tmp_path / "m.csv"
        write_csv(f, rows)
        with pytest.raises(DataError, match="non-finite kwh at row 7"):
            dp.ingest_csv(f)

    def test_missing_column(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("household_id,when,kwh\na,2021-01-01T00,1\n")
        with pytest.raises(DataError, match="timestamp"):
            dp.ingest_csv(f)

    # numpy would truncate a time finer than the hour to it, shift a zoned
    # one to UTC (with a warning), read a bare date or "today" as midnight and
    # "now" as the hour it is run, and warn of a zone for a trailing space
    @pytest.mark.parametrize("stamp", ["yesterday", "", "NaT", "2021-01-04T01:30",
                                       "2021-01-04T01:00:00.000", "2021-01-04T01+05:00",
                                       "2021-01-04T01:00Z", "2021-01-04 01-0100",
                                       "2021-01-04", "today", "now", "2021-01-04T05 ",
                                       "2021-01-04 05", "2021-01-04T24"])
    @pytest.mark.filterwarnings("error")
    def test_timestamp_that_is_not_a_local_hour_cites_row(self, tmp_path, stamp):
        f = tmp_path / "m.csv"
        write_csv(f, ["a,2021-01-04T00,1.0", f"a,{stamp},1.0"])
        with pytest.raises(DataError, match=r"timestamp at row 2 is not a local hour in "
                           rf"ISO-8601, such as 2021-01-04T13: {re.escape(repr(stamp))}$"):
            dp.ingest_csv(f)

    def test_minutes_on_the_hour_read_as_that_hour(self, tmp_path):
        f = tmp_path / "m.csv"
        write_csv(f, [f"a,{t}:00:00,{i}" for i, t in enumerate(hourly_stamps(24))])
        np.testing.assert_array_equal(dp.ingest_csv(f)["a"], [np.arange(24)])

    def test_duplicate_household_timestamp(self, tmp_path):
        f = tmp_path / "m.csv"
        write_csv(f, ["a,2021-01-04T00,1.0", "a,2021-01-04T00,2.0"])
        with pytest.raises(DataError, match="duplicate"):
            dp.ingest_csv(f)

    def test_gap_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        write_csv(f, ["a,2021-01-04T01,1.0", "a,2021-01-04T03,1.0", "a,2021-01-04T00,1.0"])
        with pytest.raises(DataError, match=r"^household a: readings must be hourly with no "
                           r"gaps \(offending step after 2021-01-04T01\)$"):
            dp.ingest_csv(f)

    def test_byte_order_mark_parses_to_the_same_series(self, tmp_path):
        rows = [f"a,{t},{0.5 + 0.1 * i}" for i, t in enumerate(hourly_stamps(30))]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(plain, rows)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = dp.ingest_csv(plain), dp.ingest_csv(marked)
        assert set(got) == set(want) == {"a"}
        assert got["a"].shape == (1, 24)
        np.testing.assert_array_equal(got["a"], want["a"])

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_undecodable_byte_names_the_file(self, tmp_path, where):
        f = tmp_path / "m.csv"
        header, row = b"household_id,timestamp,kwh\n", b"a,2021-01-04T00,1.0\n"
        if where == "header":
            header = header.replace(b"kwh", b"kwh\xff")
        else:
            row = row.replace(b"a,", b"\xff,")
        f.write_bytes(header + row)
        with pytest.raises(DataError, match=f"{f}: not UTF-8 text: byte 0xff"):
            dp.ingest_csv(f)

    def test_nineteen_households_three_years(self, tmp_path):
        # 25,560 hourly readings per household segment into 1,065 days
        stamps = [str(t) for t in hourly_stamps(25560)]
        lines = []
        for h in range(19):
            lines.extend(f"h{h},{t},1.0" for t in stamps)
        f = tmp_path / "big.csv"
        write_csv(f, lines)
        profiles = dp.ingest_csv(f)
        assert len(profiles) == 19
        for p in profiles.values():
            assert p.shape == (1065, 24)


class TestSynthesize:
    def test_deterministic(self):
        a = dp.synthesize_household(30, seed=5)
        b = dp.synthesize_household(30, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, dp.synthesize_household(30, seed=6))

    def test_reading_count(self):
        profiles = dp.synthesize_household(30, seed=0)
        assert profiles.shape == (30, 24) and profiles.dtype == np.float64

    def test_days_validation(self):
        with pytest.raises(DataError):
            dp.synthesize_household(0, seed=0)

    @pytest.mark.parametrize("count,first,last", [(1, "h00", "h00"), (100, "h00", "h99"),
                                                  (101, "h000", "h100")])
    def test_household_ids_sort_in_synthesis_order(self, count, first, last):
        ids = [hid for hid, _ in dp.synthetic_households(count, 1, seed=0)]
        assert (ids[0], ids[-1]) == (first, last) and ids == sorted(ids)

    def test_high_window_mean_exceeds_low(self):
        by_hour = dp.synthesize_household(365, seed=9)
        high = by_hour[:, [18, 19, 20, 21, 22, 23, 0]].mean()
        low = by_hour[:, [4, 5, 6, 7, 8, 9]].mean()
        assert high > low


class TestSegment:
    """``ingest_csv`` cuts each household's readings into 00:00-23:00 days."""

    def test_exact_days(self, tmp_path):
        profiles = ingest_readings(tmp_path, np.arange(72.0))
        assert profiles.shape == (3, 24)
        np.testing.assert_array_equal(profiles[1], np.arange(24.0, 48.0))

    def test_partial_day_dropped(self, tmp_path):
        profiles = ingest_readings(tmp_path, np.arange(70.0))
        np.testing.assert_array_equal(profiles, np.arange(48.0).reshape(2, 24))

    def test_empty(self, tmp_path):
        # a file of no readings has no households
        f = tmp_path / "m.csv"
        f.write_text("household_id,timestamp,kwh\n")
        assert dp.ingest_csv(f) == {}

    def test_ends_before_its_first_midnight(self, tmp_path):
        profiles = ingest_readings(tmp_path, np.ones(5), start="2021-01-04T07")
        assert profiles.shape == (0, 24)

    def test_profiles_start_at_midnight(self, tmp_path):
        # one diurnal curve, read from 00:00 and from 07:00 of the same day
        curve = np.tile(dp.BASE_DIURNAL_SHAPE, 10)
        at_midnight = ingest_readings(tmp_path, curve, hid="a")
        profiles = ingest_readings(tmp_path, curve[7:], start="2021-01-04T07", hid="b")
        assert len(profiles) == 9
        np.testing.assert_array_equal(profiles[0], dp.BASE_DIURNAL_SHAPE)
        assert dp.detect_usage_windows(profiles) == dp.detect_usage_windows(at_midnight)


class TestUsageWindows:
    def test_known_trough_and_peak(self):
        base = np.full(24, 1.0)
        base[4:10] = 0.2          # trough 4..9
        base[18:24] = 2.0         # peak 18..23
        base[0] = 1.8             # peak wraps midnight
        profiles = np.stack([base * (1 + 0.001 * i) for i in range(10)])
        w = dp.detect_usage_windows(profiles)
        assert w.low_hours == (4, 5, 6, 7, 8, 9)
        assert w.high_hours == (0, 18, 19, 20, 21, 22, 23)

    def test_synthesized_data_matches_default_windows(self):
        w = dp.detect_usage_windows(dp.synthesize_household(365, seed=3))
        assert w.low_hours == (4, 5, 6, 7, 8, 9)
        assert w.high_hours == (0, 18, 19, 20, 21, 22, 23)

    def test_constant_profiles_degenerate(self):
        profiles = np.ones((5, 24))
        with pytest.raises(DataError, match="degenerate"):
            dp.detect_usage_windows(profiles)

    @pytest.mark.parametrize("shape", [(24,), (3, 23), (3, 25), (2, 3, 24)])
    def test_array_that_is_not_days_by_24_rejected(self, shape):
        with pytest.raises(DataError, match="exactly 24 values"):
            dp.detect_usage_windows(np.ones(shape))

    def test_disjointness_enforced(self):
        with pytest.raises(DataError, match="disjoint"):
            UsageWindows(low_hours=(1, 2), high_hours=(2, 3))

    def test_overlapping_detected_windows_rejected(self):
        # the lowest hour 10 sits next to the highest, 11; the low window
        # reaches right into the dip at 12-16, the high one left over 10
        profile = np.full(24, 2.0)
        profile[10], profile[11], profile[12:17] = 0.0, 3.0, 0.1
        with pytest.raises(DataError, match="disjoint"):
            dp.detect_usage_windows(profile[None])


class TestInjection:
    def test_drop_two_steps(self):
        p = np.ones(24)
        out = dp.inject_drop(p, 18, 2)
        assert out[18] == 0.0 and out[19] == 0.0
        assert np.sum(out != p) == 2

    def test_drop_single_step(self):
        p = np.ones(24)
        out = dp.inject_drop(p, 20, 1)
        assert np.sum(out == 0.0) == 1

    def test_drop_bad_length(self):
        with pytest.raises(DataError):
            dp.inject_drop(np.ones(24), 18, 3)

    def test_positive_spike_formula(self):
        p = np.full(24, 2.0)
        out = dp.inject_spike(p, 5, 1, r=1.0, direction="positive")
        assert out[5] == 4.0

    def test_negative_spike_formula(self):
        p = np.full(24, 2.0)
        out = dp.inject_spike(p, 19, 1, r=0.5, direction="negative")
        assert out[19] == 1.0

    def test_segment_spike_locality(self):
        p = np.full(24, 3.0)
        out = dp.inject_spike(p, 10, 2, r=0.7, direction="positive")
        assert np.sum(out != p) == 2

    def test_midnight_wrap(self):
        p = np.ones(24)
        out = dp.inject_drop(p, 23, 2)
        assert out[23] == 0.0 and out[0] == 0.0

    def test_negative_values_kept(self):
        p = np.full(24, 2.0)
        out = dp.inject_spike(p, 18, 1, r=1.5, direction="negative")
        assert out[18] == pytest.approx(-1.0)

    @pytest.mark.parametrize("shape", [(23,), (25,), (1, 24)])
    def test_row_that_is_not_24_values_rejected(self, shape):
        with pytest.raises(DataError, match="exactly 24 values"):
            dp.inject_drop(np.ones(shape), 18, 1)
        with pytest.raises(DataError, match="exactly 24 values"):
            dp.inject_spike(np.ones(shape), 5, 1, r=1.0, direction="positive")

    def test_returns_a_new_row(self):
        p = np.ones(24)
        dp.inject_drop(p, 18, 2)
        dp.inject_spike(p, 5, 1, r=1.0, direction="positive")
        np.testing.assert_array_equal(p, np.ones(24))

    @pytest.mark.parametrize("r", [0.49, 1.51, 2.0])
    def test_r_out_of_range(self, r):
        with pytest.raises(DataError, match="outside"):
            dp.inject_spike(np.ones(24), 5, 1, r=r,
                            direction="positive")

    @pytest.mark.parametrize("r", [0.5, 1.5])
    def test_r_at_either_end_of_the_amplitude_range(self, r):
        # the fixed range [0.5, 1.5] is closed
        out = dp.inject_spike(np.full(24, 2.0), 5, 1, r=r, direction="positive")
        assert out[5] == 2.0 * (1.0 + r)


WINDOWS = UsageWindows(low_hours=(4, 5, 6, 7, 8, 9),
                       high_hours=(0, 18, 19, 20, 21, 22, 23))


def toy_profiles(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 2.0, size=(n, 24))


class TestLabeledDataset:
    @pytest.mark.parametrize("labels,kinds", [
        ([0, 0, 0, 1], ["none", "drop", "none", "drop"]),
        ([0, 0, 0, 1], ["none", "none", "none", "none"]),
        ([0, 0, 0, 0], ["none", "none", "none", "drop"]),
    ], ids=["first_mismatch_before_a_match", "label_without_kind", "kind_without_label"])
    def test_label_kind_mismatch_is_caught_in_any_row(self, labels, kinds):
        with pytest.raises(DataError, match="label 1 must coincide"):
            LabeledDataset(np.zeros((4, 24)), np.array(labels), kinds, np.arange(4))

    def test_mismatch_in_the_last_row_of_many_is_caught(self):
        labels = np.r_[np.zeros(999, int), 1]
        kinds = ["none"] * 1000
        with pytest.raises(DataError, match="label 1 must coincide"):
            LabeledDataset(np.zeros((1000, 24)), labels, kinds, np.arange(1000))

    def test_empty_dataset(self):
        ds = LabeledDataset(np.zeros((0, 24)), np.zeros(0, int), [], np.zeros(0, int))
        assert len(ds) == 0 and len(ds.subset(np.zeros(0, int))) == 0


class TestBuildDataset:
    def test_size_arithmetic(self):
        ds = dp.build_dataset(toy_profiles(1000), WINDOWS, 0.1, seed=1)
        assert len(ds) == 1100
        assert int(ds.labels.sum()) == 100
        np.testing.assert_array_equal(ds.day_indices[:1000], np.arange(1000))
        assert np.all(np.diff(ds.day_indices[1000:]) > 0)  # sorted, distinct sources

    @pytest.mark.parametrize("shape", [(24,), (10, 23), (0, 25), (2, 5, 24)])
    def test_array_that_is_not_days_by_24_rejected(self, shape):
        with pytest.raises(DataError, match="exactly 24 values"):
            dp.build_dataset(np.ones(shape), WINDOWS, 0.1, seed=1)

    def test_no_profiles_rejected(self):
        with pytest.raises(DataError, match="zero profiles"):
            dp.build_dataset(np.ones((0, 24)), WINDOWS, 0.1, seed=1)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 2.0, -0.1])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(DataError, match=r"anomaly_fraction must be in \(0, 1\)"):
            dp.build_dataset(toy_profiles(10), WINDOWS, fraction, seed=1)

    def test_deterministic(self):
        a = dp.build_dataset(toy_profiles(100), WINDOWS, 0.1, seed=3)
        b = dp.build_dataset(toy_profiles(100), WINDOWS, 0.1, seed=3)
        assert np.array_equal(a.profiles, b.profiles) and a.kinds == b.kinds

    def test_draws_are_generator_choices(self):
        # each anomaly draws what Generator.choice would: its kind uniformly,
        # then its start hour from the kind's window
        ds = dp.build_dataset(toy_profiles(200, seed=4), WINDOWS, 0.3, seed=4)
        rng = rng_for(4, "inject")
        assert np.array_equal(ds.day_indices[200:], np.sort(rng.choice(200, 60, replace=False)))
        kinds = dp.ANOMALY_KINDS
        for row in range(200, len(ds)):
            kind = str(rng.choice(kinds, p=[1 / len(kinds)] * len(kinds)))
            assert ds.kinds[row] == kind
            hours = WINDOWS.low_hours if "pos" in kind else WINDOWS.high_hours
            start = int(rng.choice(hours))
            changed = np.flatnonzero(ds.profiles[row] != ds.profiles[ds.day_indices[row]])
            assert start in changed
            if kind == "drop":
                rng.integers(1, 3)  # its length
            else:
                rng.uniform(0.5, 1.5)  # its amplitude

    def test_injection_fidelity(self):
        """Every anomalous row differs from its source in exactly the injected
        window, with values matching the drop/spike formulas and legal starts."""
        profiles = toy_profiles(400, seed=7)
        ds = dp.build_dataset(profiles, WINDOWS, 0.25, seed=7)
        n = len(profiles)
        for row in range(n, len(ds)):
            src = profiles[ds.day_indices[row]]
            out = ds.profiles[row]
            kind = ds.kinds[row]
            diff = np.flatnonzero(out != src)
            assert 1 <= len(diff) <= 2
            if kind == "drop":
                assert np.all(out[diff] == 0.0)
                legal = WINDOWS.high_hours
            elif kind in ("pos_spike", "seg_pos_spike"):
                ratios = out[diff] / src[diff] - 1.0
                assert np.allclose(ratios, ratios[0])
                assert 0.5 <= ratios[0] <= 1.5
                legal = WINDOWS.low_hours
            else:
                ratios = 1.0 - out[diff] / src[diff]
                assert np.allclose(ratios, ratios[0])
                assert 0.5 <= ratios[0] <= 1.5
                legal = WINDOWS.high_hours
            # start hour of the (possibly wrapping) window is in the legal set
            if len(diff) == 1:
                assert diff[0] in legal
            else:
                a, b = diff
                start = a if (a + 1) % 24 == b % 24 else b
                assert start in legal
            if kind.startswith("seg_"):
                assert len(diff) == 2


class TestNormalize:
    def make(self, values):
        arr = np.tile(np.asarray(values, float), (24 // len(values) + 1,))[:24]
        return LabeledDataset(arr[None, :], np.array([0]), ["none"], np.array([0]))

    def test_minmax(self):
        arr = np.zeros((1, 24))
        arr[0, :3] = [0.0, 5.0, 10.0]
        ds = LabeledDataset(arr, np.array([0]), ["none"], np.array([0]))
        out = dp.normalize(ds)
        assert out.profiles[0, 1] == 0.5 and out.profiles[0, 2] == 1.0
        assert (out.profiles.min(), out.profiles.max()) == (0.0, 1.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.uniform(0, 3, (10, 24)), np.zeros(10, int),
                            ["none"] * 10, np.arange(10))
        out = dp.normalize(ds)
        vmin, vmax = ds.profiles.min(), ds.profiles.max()  # every row is clean
        restored = out.profiles * (vmax - vmin) + vmin
        np.testing.assert_allclose(restored, ds.profiles, atol=1e-12)

    def test_spikes_may_exceed_unit_range(self):
        clean = np.full((1, 24), 1.0)
        clean[0, 0] = 0.0  # range [0, 1] raw
        spiked = clean.copy()
        spiked[0, 18] = 2.5
        ds = LabeledDataset(np.vstack([clean, spiked]), np.array([0, 1]),
                            ["none", "pos_spike"], np.array([0, 0]))
        out = dp.normalize(ds)
        assert out.profiles[1, 18] == 2.5

    def test_constant_series(self):
        ds = LabeledDataset(np.ones((2, 24)), np.zeros(2, int), ["none"] * 2,
                            np.arange(2))
        with pytest.raises(DataError, match="constant"):
            dp.normalize(ds)


class TestSplit:
    def build(self, n_clean=1000, n_anom=100, seed=0):
        profiles = toy_profiles(n_clean, seed)
        return dp.build_dataset(profiles, WINDOWS, n_anom / n_clean, seed=seed)

    def test_split_sizes(self):
        train, test = dp.split(self.build(), seed=0)
        assert len(train) == 880 and len(test) == 220

    def test_stratification(self):
        ds = self.build()
        train, test = dp.split(ds, seed=1)
        overall = ds.labels.mean()
        assert abs(train.labels.mean() - overall) < 0.01
        assert abs(test.labels.mean() - overall) < 0.01

    def test_deterministic(self):
        ds = self.build()
        a = dp.split(ds, seed=2)
        b = dp.split(ds, seed=2)
        assert np.array_equal(a[0].profiles, b[0].profiles)

    def test_disjoint_union(self):
        ds = self.build(n_clean=97, n_anom=13)
        train, test = dp.split(ds, seed=3)
        assert len(train) + len(test) == len(ds)
        combined = np.vstack([train.profiles, test.profiles])
        assert np.array_equal(np.sort(combined, axis=None),
                              np.sort(ds.profiles, axis=None))

    def test_tiny_class_rejected(self):
        ds = LabeledDataset(np.random.default_rng(0).uniform(size=(3, 24)),
                            np.array([0, 0, 1]), ["none", "none", "drop"],
                            np.arange(3))
        with pytest.raises(DataError, match="class 1"):
            dp.split(ds, seed=0)

