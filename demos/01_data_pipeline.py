"""Walk through the data pipeline: synthesize a household's daily load
profiles, detect the usage windows, and inject each anomaly kind.

Run:  python3 demos/01_data_pipeline.py
"""

import numpy as np

from fedmeter import data as dp

# one synthetic household, one year of hourly readings: one row per day
# (00:00 to 23:00), one column per hour
profiles = dp.synthesize_household(days=365, seed=7, household_id="demo")
print(f"synthesized {profiles.size} hourly readings as {len(profiles)} daily load "
      f"profiles of 24 steps (mean {profiles.mean():.3f} kWh, max {profiles.max():.3f} kWh)")

# the synthesizer's diurnal shape has a morning trough and an evening peak
windows = dp.detect_usage_windows(profiles)
print(f"low-usage hours:  {windows.low_hours}")
print(f"high-usage hours: {windows.high_hours}")

hour_means = profiles.mean(axis=0)
bar = lambda v: "#" * int(round(v / hour_means.max() * 40))
print("\nmean consumption by hour:")
for hour, value in enumerate(hour_means):
    marker = " <- low" if hour in windows.low_hours else (
        " <- high" if hour in windows.high_hours else "")
    print(f"  {hour:02d}h {value:6.3f} {bar(value)}{marker}")

# inject one of each anomaly kind into the same day for comparison
day = profiles[100]
print(f"\nday 100 original:            {np.round(day, 2)}")
drop = dp.inject_drop(day, start=19, length=2)
print(f"drop at 19h-20h:             {np.round(drop, 2)}")
spike = dp.inject_spike(day, start=6, length=1, r=1.2, direction="positive")
print(f"positive spike at 6h r=1.2:  {np.round(spike, 2)}")
dip = dp.inject_spike(day, start=20, length=2, r=1.4, direction="negative")
print(f"negative segment spike 20h:  {np.round(dip, 2)}  (negative kept)")

# assemble the labeled dataset the classifiers train on
dataset = dp.build_dataset(profiles, windows, anomaly_fraction=0.10, seed=7)
normalized = dp.normalize(dataset)
train, test = dp.split(normalized, seed=7)
clean = dataset.profiles[dataset.labels == 0]  # normalize scales by the clean range
print(f"\ndataset: {len(dataset)} samples ({int(dataset.labels.sum())} anomalous), "
      f"scaled by [{clean.min():.3f}, {clean.max():.3f}] kWh")
print(f"split: {len(train)} train / {len(test)} test, "
      f"anomaly share {train.labels.mean():.3f} / {test.labels.mean():.3f}")
