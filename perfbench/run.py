"""fedmeter benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload fl_lstm_pgd --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a source checkout; the benchmark imports fedmeter from
``src/`` of that checkout and nowhere else.  The work of a run is fixed by
``--seconds``: it runs ``max(1, seconds // nominal)`` operations, where the
nominal operation time is a constant per workload, so two commits measured
with the same ``--seconds`` do identical work.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics from span tracing.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  ``--workload all`` runs every workload untraced and traced,
each in a fresh process, and prints one table.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

# BLAS threads are pinned before numpy loads.
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("fl_lstm_pgd", "fl_transformer_clean", "attack_transformer_pgd")
DEFAULT_SEED = 0
SETUP_SAMPLES = 7  # this process plus six fresh ones that only set up
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description="fedmeter benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_fedmeter():
    """Import fedmeter from this checkout's ``src/``; exit with an error if absent."""
    if not os.path.isfile(os.path.join(SRC, "fedmeter", "__init__.py")):
        sys.exit(f"perfbench: no fedmeter sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import fedmeter
    if os.path.dirname(os.path.dirname(os.path.abspath(fedmeter.__file__))) != SRC:
        sys.exit(f"perfbench: fedmeter imported from {fedmeter.__file__}, not {SRC}")
    return fedmeter


def blas_threads_in_use():
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def setup_samples(args, own_setup_s: float) -> list[float]:
    """Set-up time of this process and of fresh processes that only set up."""
    samples = [own_setup_s]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_problems(workload: str, seed: int, ops: int, summary: dict):
    """Compare a default-seed run against stored values; None if not applicable."""
    ref = load_reference().get(workload)
    if ref is None or seed != ref["seed"] or ops != ref["ops"]:
        return None
    return [f"{key} {summary[key]!r} != reference {ref[key]!r}"
            for key in ("accuracy", "asr", "digest") if key in ref and summary[key] != ref[key]]


def run_workload(args) -> int:
    fedmeter = import_fedmeter()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = max(1, int(args.seconds // workload.nominal_op_s))
    pgd_check = workloads.PgdCheck()
    tracer = None
    if args.trace and not args.setup_only:
        tracer = tracing.Tracer()
        tracer.install(fedmeter)
    workload.setup(args.seed)
    own_setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    out_dir = os.path.join(OUT_ROOT, args.workload, f"trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    attempted = failed = 0
    problems: list[str] = []

    def record(label: str, found: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"{label}: {p}" for p in found)

    run_start = time.perf_counter()
    op_times = []
    for i in range(ops):
        start = time.perf_counter()
        try:
            workload.operation()
        except Exception as exc:  # a failed operation is counted, not fatal
            record(f"operation {i + 1}", [f"{type(exc).__name__}: {exc}"])
            break
        op_times.append(time.perf_counter() - start)
        record(f"operation {i + 1}", workload.check_operation() + pgd_check.drain())
    summary = {}
    if len(op_times) == ops:
        checks, summary = workload.finish(out_dir)
        for label, found in checks:
            record(label, found)
        ref = reference_problems(args.workload, args.seed, ops, summary)
        if ref is not None:
            record("reference values", ref)
    run_s = time.perf_counter() - run_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
        metrics = tracer.layer_metrics()
        metrics["trace.run_s"] = run_s
        units = dict(tracing.per_layer_names())
        result_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        for line in round_breakdown(metrics):
            print(line)
    else:
        setups = setup_samples(args, own_setup_s)
        op_median = statistics.median(op_times) if op_times else float("nan")
        result_metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s_p50": {"value": op_median, "unit": "s"},
            "rows_per_s": {"value": workload.rows_per_op / op_median, "unit": "rows/s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"operations: {len(op_times)} of {ops} "
              f"({'rounds' if args.workload.startswith('fl_') else 'PGD calls'}), "
              f"times {[round(t, 3) for t in op_times]}; setup samples "
              f"{[round(s, 3) for s in setups]}")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for p in problems:
        print("FAILED " + p)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": ops,
                   "op_times_s": op_times, "summary": summary, "env": env,
                   "problems": problems, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def round_breakdown(metrics: dict) -> list[str]:
    """Share of run_round covered by its child layer spans, and the main split."""
    total = metrics["federation.run_round.s"]
    if not total:
        return []
    return [
        f"run_round: {metrics['federation.run_round.calls']} calls, {total:.3f} s; "
        f"child spans cover {1 - metrics['federation.run_round.self_s'] / total:.1%}",
        f"  poisoned_training_set {metrics['federation.poisoned_training_set.s'] / total:.1%}, "
        f"train_local {metrics['models.train_local.s'] / total:.1%}, "
        f"make_model {metrics['models.make_model.s'] / total:.1%}, "
        f"wire {metrics['models.wire.s'] / total:.1%}, "
        f"fedavg {metrics['federation.fedavg.s'] / total:.1%} of run_round",
    ]


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import_fedmeter()
    ok = True
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            results[trace] = json.loads(done.stdout.strip().splitlines()[-1])
        untraced, layers = results[0], results[1]["metrics"]
        ok = ok and untraced["correct"] and results[1]["correct"]
        with open(os.path.join(OUT_ROOT, name, "trace0", "result.json"), encoding="utf-8") as fh:
            n = len(json.load(fh)["op_times_s"])
        # per-workload names of the two generic metrics
        alias = ({"op_s_p50": f"round_s_p50, n={n} rounds"} if name.startswith("fl_")
                 else {"rows_per_s": f"pgd_rows_per_s, n={n} calls"})
        table = [(k, m["value"], m["unit"] + (f" ({alias[k]})" if k in alias else ""))
                 for k, m in untraced["metrics"].items()]
        table.append(("error_rate", untraced["failed"] / untraced["attempted"], "fraction"))
        table.append(("trace_overhead_s", layers["trace.run_s"]["value"]
                      - untraced["metrics"]["run_s"]["value"], "s"))
        for metric, value, unit in table:
            print(f"{name:24s} {metric:18s} {value:14.4f} {unit}")
        for line in round_breakdown({k: m["value"] for k, m in layers.items()}):
            print(f"{name:24s} {line}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
