"""Benchmark for bouquetdet: time to a verdict, failures, memory, set-up
time and, in a traced run, per-layer self times and sizes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload symbolic|randomized|bouquets \\
        --seed N --seconds S --trace 0|1

The workload runs in one child process (worker.py) against the checkout's
`src`.  The last line of stdout is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Raw results, with
every call's time and, when traced, every span, go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170        # the whole run, set-up launches included
SETUP_LAUNCHES = 15


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"cli.output_bytes": "bytes", "polyring.coeff_bits": "bits",
            "trace.overhead_frac": "frac"}.get(name, "count")


PER_LAYER = list(spans.SELF_TIMES) + spans.COUNTS + ["trace.overhead_frac"]
END_TO_END = {"solve_s": "s", "ok_frac": "frac", "peak_rss_mib": "MiB", "setup_s": "s"}


def setup_times(env: dict) -> list[float]:
    """Wall time of fresh interpreters importing bouquetdet.cli; the first
    launch is untimed, so byte-code compilation is not counted."""
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bouquetdet.cli"], env=env,
                       cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n))
    if p <= 0:
        return f"no percentile has ten of {n} passes beyond it"
    value = sorted(values)[math.ceil(p / 100 * n) - 1]
    return f"p{p} {value:.4f} s"


def summarize(raw: dict, setup: list[float]) -> dict:
    calls = [c for p in [raw["warmup"]] + raw["passes"] for c in p["calls"]]
    failures = [c for c in calls if c["fail"]]
    for c in failures:
        print(f"FAILED {c['name']}: {c['fail']}", file=sys.stderr)
    untraced = [p["seconds"] for p in raw["passes"] if not p["traced"]]
    print(f"{raw['workload']} seed {raw['seed']}: {len(untraced)} untraced passes, "
          f"{len(calls)} calls, {len(failures)} failed "
          f"(fail_frac {len(failures) / len(calls):.4f}); pass time median "
          f"{statistics.median(untraced):.4f} s, {tail(untraced)}")
    if raw["trace"]:
        traced = [p for p in raw["passes"] if p["traced"]]
        by_index = {p["index"]: p["seconds"] for p in raw["passes"] if not p["traced"]}
        overhead = statistics.median(p["seconds"] / by_index[p["index"]] for p in traced) - 1
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in PER_LAYER[:-1]}
        values["trace.overhead_frac"] = overhead
        metrics = {name: {"value": values[name], "unit": per_layer_unit(name)}
                   for name in PER_LAYER}
    else:
        values = {"solve_s": statistics.median(untraced),
                  "ok_frac": 1 - len(failures) / len(calls),
                  "peak_rss_mib": raw["maxrss_kib"] / 1024,
                  "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": not failures, "attempted": len(calls), "failed": len(failures),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    src = ROOT / "src"
    if not (src / "bouquetdet" / "cli.py").is_file():
        print(f"no bouquetdet package under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONHASHSEED": str(args.seed % 2**32)}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    raw_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    try:
        setup = [] if args.trace else setup_times(env)
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as work:
            worker = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--work", work, "--out", str(raw_path)],
                env=env, cwd=ROOT, timeout=deadline - time.monotonic())
    except subprocess.CalledProcessError as exc:
        print(f"importing bouquetdet.cli failed: {exc}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print(f"workload did not finish within {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    with open(raw_path) as fh:
        raw = json.load(fh)
    raw["setup_s"] = setup
    with open(raw_path, "w") as fh:
        json.dump(raw, fh)
    print(f"raw results: {raw_path.relative_to(ROOT)}")
    print(json.dumps(summarize(raw, setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
