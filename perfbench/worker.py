"""Runs one workload in-process and writes the raw results.

Started by run.py, one process per workload, with PYTHONPATH pointing at
the checkout's `src` and PYTHONHASHSEED fixed by the seed.  Each call is a
`bouquetdet.cli.main([...])` made from this one thread after the previous
call returned (a closed loop with one caller).  Usage:

    worker.py --workload NAME --seed N --seconds S --trace 0|1 \
              --work DIR --out FILE
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

import workloads
from spans import Tracer

# Cap on this process's address space, well under the 8 GB of the machine
# the benchmark was written on (no swap): an expansion that blows up then
# raises MemoryError, counted as a failed call, instead of drawing the
# kernel's OOM killer.
ADDRESS_SPACE_CAP = 2 << 30


def cap_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run_call(cli, call: workloads.Call, tracer: Tracer | None) -> dict:
    """Time one CLI call with stdout and stderr captured in memory, then
    check its output."""
    out, err = io.StringIO(), io.StringIO()
    code, failure = None, ""
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(call.argv))
            else:
                code = tracer.call("cli.main", cli.main, list(call.argv))
        except MemoryError:
            failure = "MemoryError"
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed call; the run goes on
            failure = traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
    text = out.getvalue()
    sign = None
    if not failure:
        failure, sign = workloads.check(call, code, text)
        if failure and err.getvalue():
            failure += f" ({err.getvalue().strip()[:200]})"
    return {"name": call.name, "s": seconds, "fail": failure, "sign": sign,
            "output_bytes": len(text.encode())}


def run_pass(cli, calls: list[workloads.Call], index: int,
             tracer: Tracer | None) -> dict:
    if tracer is not None:
        tracer.pass_id = index
    records = [run_call(cli, call, tracer) for call in calls]
    groups: dict[str, set] = {}
    for call, rec in zip(calls, records):
        if call.sign_group and not rec["fail"]:
            groups.setdefault(call.sign_group, set()).add(rec["sign"])
    for call, rec in zip(calls, records):
        if len(groups.get(call.sign_group, ())) > 1 and not rec["fail"]:
            rec["fail"] = "randomized and symbolic signs differ"
    result = {"index": index, "traced": tracer is not None,
              "seconds": sum(r["s"] for r in records), "calls": records}
    if tracer is not None:
        tracer.counts[index]["cli.output_bytes"] += sum(r["output_bytes"] for r in records)
        result["layers"] = tracer.per_layer(index)
    return result


def compare(untraced: dict, traced: dict) -> None:
    """Tracing must not change any verdict or sign."""
    for a, b in zip(untraced["calls"], traced["calls"]):
        if (bool(a["fail"]), a["sign"]) != (bool(b["fail"]), b["sign"]) and not b["fail"]:
            b["fail"] = "traced and untraced runs disagree"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--work", required=True, help="directory for inputs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    cap_address_space()
    from bouquetdet import cli

    tracer = Tracer() if args.trace else None
    passes = []
    warmup = run_pass(cli, workloads.pass_calls(args.workload, args.seed, "warmup",
                                                args.work), -1, None)
    start = time.perf_counter()
    index = 0
    while True:
        calls = workloads.pass_calls(args.workload, args.seed, index, args.work)
        if tracer is None:
            passes.append(run_pass(cli, calls, index, None))
        else:
            # Alternate which side of a pair runs first, so drift during
            # the run does not bias the tracing overhead.
            pair = {}
            for traced in ([False, True] if index % 2 == 0 else [True, False]):
                if traced:
                    with tracer:
                        pair[True] = run_pass(cli, calls, index, tracer)
                else:
                    pair[False] = run_pass(cli, calls, index, None)
            compare(pair[False], pair[True])
            passes += [pair[False], pair[True]]
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > args.seconds:
            break

    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "warmup": warmup, "passes": passes,
           "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "spans": tracer.dump() if tracer else []}
    with open(args.out, "w") as fh:
        json.dump(raw, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
