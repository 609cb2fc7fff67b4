"""The benchmark's workloads: for each pass, a fixed list of CLI calls on
freshly generated inputs, and the checks every call's output must pass.

Each pass draws its inputs from (seed, workload, pass index): element
names and their order, and for line arrangements the line coefficients.
Which instances a workload runs never depends on the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import instances

TRIALS = "20"


@dataclass(frozen=True)
class Call:
    """One `bouquetdet` invocation and what its output must show."""
    name: str                   # e.g. "verify symbolic U(3,5)"
    argv: tuple[str, ...]
    dims: tuple[int, ...] = ()  # expected block dims (verify, matrix)
    rows: int = 0               # expected rows (rho)
    sign_group: str = ""        # calls in one group must report one sign


WORKLOADS = ("symbolic", "randomized", "bouquets")


def pass_calls(workload: str, seed: int, index: int | str,
               directory: str) -> list[Call]:
    """Write the inputs of one pass into `directory` and return its calls."""
    rng = random.Random(f"{seed}:{workload}:{index}")

    def save(name: str, data: dict) -> str:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def verify(name: str, kind: str, data: dict, dims: list[int], mode: str,
               sign_group: str = "") -> Call:
        argv = ["verify", save(name, data), "--kind", kind, "--mode", mode]
        if mode == "randomized":
            argv += ["--trials", TRIALS, "--seed", str(rng.randrange(2**31))]
        return Call(f"verify {mode} {name}", tuple(argv), tuple(dims),
                    sign_group=sign_group)

    # The small COM and U(2,4) calls cost a few milliseconds.  They make
    # every traced layer do some measured work on every workload.
    if workload == "symbolic":
        return [verify("U(3,5)", "matroid", *instances.uniform(rng, 3, 5), "symbolic"),
                verify("U(2,6)", "matroid", *instances.uniform(rng, 2, 6), "symbolic"),
                verify("M(K4)", "matroid", *instances.graphic_complete(rng, 4), "symbolic"),
                verify("com5-concurrent3", "com", *instances.line_com(rng, 5, 3), "symbolic")]
    if workload == "randomized":
        u24 = instances.uniform(rng, 2, 4)
        return [verify("U(3,6)", "matroid", *instances.uniform(rng, 3, 6), "randomized"),
                verify("U(4,6)", "matroid", *instances.uniform(rng, 4, 6), "randomized"),
                verify("M(K4)", "matroid", *instances.graphic_complete(rng, 4), "randomized"),
                verify("U(2,9)", "matroid", *instances.uniform(rng, 2, 9), "randomized"),
                verify("com5", "com", *instances.line_com(rng, 5), "randomized"),
                verify("U(2,4)", "matroid", *u24, "randomized", sign_group="U(2,4)"),
                verify("U(2,4)", "matroid", *u24, "symbolic", sign_group="U(2,4)")]
    if workload == "bouquets":
        com10, dims10 = instances.line_com(rng, 10)
        com10_path = save("com10", com10)
        b3, dims3 = instances.uniform_bouquet(rng, 3, 2, 5)
        b2, dims2 = instances.uniform_bouquet(rng, 2, 3, 5)
        b2_path = save("2xU(3,5)", b2)
        return [
            Call("check com10", ("check", com10_path, "--kind", "com")),
            verify("com10", "com", com10, dims10, "randomized"),
            verify("com8-concurrent4", "com", *instances.line_com(rng, 8, 4), "symbolic"),
            verify("3xU(2,5)", "bouquet", b3, dims3, "symbolic", sign_group="3xU(2,5)"),
            verify("3xU(2,5)", "bouquet", b3, dims3, "randomized", sign_group="3xU(2,5)"),
            Call("matrix 2xU(3,5)", ("matrix", b2_path, "--kind", "bouquet"), tuple(dims2)),
            verify("2xU(3,5)", "bouquet", b2, dims2, "symbolic"),
            Call("rho U(4,9)", ("rho", save("U(4,9)", instances.uniform(rng, 4, 9)[0]),
                                "--kind", "matroid"),
                 rows=instances.uniform_flat_count(4, 9)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check(call: Call, code: int, out: str) -> tuple[str, int | None]:
    """Check one call's exit code and JSON output against what the input
    must give.  Returns (failure reason or "", reported sign or None)."""
    if code != 0:
        return f"exit code {code}", None
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}", None
    command = call.argv[0]
    if command == "verify":
        if payload.get("verdict") is not True:
            return "verdict is not true", None
        if payload.get("sign") not in (1, -1):
            return f"sign {payload.get('sign')!r}", None
        dims = sorted(b["dim"] for b in payload["blocks"])
        if dims != sorted(call.dims):
            return f"block dims {dims} != {sorted(call.dims)}", None
        return "", payload["sign"]
    if command == "check":
        return ("" if payload.get("valid") is True else "input reported invalid"), None
    if command == "matrix":
        dims = sorted(f["stop"] - f["start"] for f in payload["families"])
        if dims != sorted(call.dims) or len(payload["entries"]) != sum(dims):
            return f"matrix family dims {dims} != {sorted(call.dims)}", None
        return "", None
    if command == "rho":
        if len(payload) != call.rows:
            return f"{len(payload)} rho rows != {call.rows}", None
        return "", None
    raise ValueError(f"no check for command {command!r}")
