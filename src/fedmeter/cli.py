"""Command-line entry point.

Subcommands: synth-data, run, report.  ``run`` runs the experiment its
config describes: the config's ``protocol`` picks what it trains and
scores, and each ``--set KEY=VALUE`` overrides one entry, in the order
given; nothing else overrides the config.
Exit codes: 0 success, 2 config or input-data error, 3 numeric failure (a
non-finite loss or activation), 4 I/O error.  Relative output directories
resolve under $FEDMETER_OUTPUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .data import HOURS_PER_DAY, SYNTH_START, DataError, synthetic_households, utf8_text
from .evaluation import METRICS_CSV_HEADER
from .experiment import (ConfigError, apply_override, config_from_dict,
                         run_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmeter",
        description="Federated smart-meter anomaly detection under adversarial attacks")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth-data", help="write a synthetic hourly-readings CSV")
    synth.add_argument("--households", type=int, default=19)
    synth.add_argument("--days", type=int, default=365)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(func=cmd_synth_data)

    run = sub.add_parser("run", help="run the experiment a config describes")
    run.add_argument("--config", help="experiment config JSON; its protocol picks the run")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry, applied in order, e.g. "
                          "protocol=sweep_epsilon or train.epochs=20 (a run's length "
                          "in global epochs; a federated run trains that many rounds "
                          "of one local epoch per client)")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="combine metrics.csv files from run dirs")
    report.add_argument("runs", nargs="+", help="run directories")
    report.add_argument("--out", help="combined CSV path (default: stdout)")
    report.set_defaults(func=cmd_report)
    return parser


def _config_from_args(args) -> "ExperimentConfig":
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise ConfigError(f"{args.config}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):  # the overrides are set on it
            raise ConfigError(f"{args.config}: must be a JSON object of settings")
    for override in args.set:
        if "=" not in override:
            raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
        key, value = override.split("=", 1)
        apply_override(raw, key, value)
    return config_from_dict(raw)


def cmd_synth_data(args) -> int:
    for flag, value in (("--households", args.households), ("--days", args.days)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    rows = 0
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["household_id", "timestamp", "kwh"])
        stamps = (SYNTH_START + np.arange(args.days * HOURS_PER_DAY)).astype(str).tolist()
        for hid, profiles in synthetic_households(args.households, args.days, args.seed):
            for ts, kwh in zip(stamps, profiles.ravel()):
                writer.writerow([hid, ts, f"{kwh:.12g}"])
                rows += 1
    print(f"wrote {rows} readings for {args.households} household(s) to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    result = run_experiment(cfg)
    print(f"run '{cfg.name}': {len(result.rows)} metrics row(s) -> {result.output_dir}")
    for row in result.rows:
        print("  " + ", ".join(row))
    return EXIT_OK


def cmd_report(args) -> int:
    combined = [["run"] + METRICS_CSV_HEADER]
    for run_dir in args.runs:
        path = os.path.join(run_dir, "metrics.csv")
        with utf8_text(path) as fh:
            reader = csv.reader(fh)
            if next(reader, None) != METRICS_CSV_HEADER:
                raise DataError(f"{path}: not a metrics file; its first line must be "
                                f"{','.join(METRICS_CSV_HEADER)}")
            for row in reader:
                if len(row) != len(METRICS_CSV_HEADER):
                    raise DataError(f"{path}: line {reader.line_num} has {len(row)} "
                                    f"field(s), the metrics header has "
                                    f"{len(METRICS_CSV_HEADER)}")
                combined.append([os.path.basename(os.path.normpath(run_dir))] + row)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(combined)
        print(f"wrote {len(combined) - 1} row(s) to {args.out}")
    else:
        for row in combined:
            print(",".join(row))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:  # any other ValueError is a bug: a traceback
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
