"""Tests of the benchmark itself: its generators, closed forms, output
checks and tracing.  Run from the repository root with
``python -m pytest perfbench -q``."""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import instances
import run
import workloads
import worker
from bouquetdet import (WeightAssignment, chain_matrix, com, matroid,
                        min_labeling)
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# (kind, generator) on sizes small enough to build in well under a second.
SMALL = [
    ("matroid", lambda rng: instances.uniform(rng, 2, 4)),
    ("matroid", lambda rng: instances.uniform(rng, 3, 5)),
    ("matroid", lambda rng: instances.uniform(rng, 2, 6)),
    ("matroid", lambda rng: instances.graphic_complete(rng, 4)),
    ("bouquet", lambda rng: instances.uniform_bouquet(rng, 3, 2, 5)),
    ("bouquet", lambda rng: instances.uniform_bouquet(rng, 2, 3, 5)),
    ("com", lambda rng: instances.line_com(rng, 6)),
    ("com", lambda rng: instances.line_com(rng, 7, 4)),
]


def adapter_poset(kind: str, data: dict):
    """The flat or zero-set poset the CLI builds for this input kind."""
    if kind == "matroid":
        return matroid.flat_lattice(matroid.matroid_from_json(data))[0]
    if kind == "bouquet":
        return matroid.bouquet_flat_poset(matroid.bouquet_from_json(data))[0]
    return com.zero_set_poset(com.com_from_json(data))[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind,make", SMALL)
def test_generated_inputs_are_accepted_with_closed_form_dims(kind, make, seed):
    data, dims = make(random.Random(seed))
    P = adapter_poset(kind, json.loads(json.dumps(data)))
    assert P.is_bouquet()
    M = chain_matrix(P, min_labeling(P), WeightAssignment.default(P))
    assert sorted(stop - start for start, stop in M.family_bounds) == sorted(dims)


def test_same_seed_same_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = workloads.pass_calls("bouquets", 7, 3, str(tmp_path / "a"))
    second = workloads.pass_calls("bouquets", 7, 3, str(tmp_path / "b"))
    assert [c.dims for c in first] == [c.dims for c in second]
    for name in ("com10", "3xU(2,5)"):
        assert ((tmp_path / "a" / f"{name}.json").read_text()
                == (tmp_path / "b" / f"{name}.json").read_text())


@pytest.mark.parametrize("lines,fixture", [
    ([(1, 0, 0), (0, 1, 0), (1, 1, -1)], "com_generic_lines.json"),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], "com_concurrent_lines.json"),
])
def test_enumerator_reproduces_fixtures(lines, fixture):
    exact = [tuple(Fraction(v) for v in line) for line in lines]
    expected = json.loads((FIXTURES / fixture).read_text())["covectors"]
    assert instances.covectors(exact) == expected


@pytest.mark.parametrize("n", [3, 5, 8])
def test_generic_arrangement_face_count(n):
    lines = instances.arrangement(random.Random(n), n)
    # vertices + edges + cells of n generic lines
    expected = comb(n, 2) + n * n + 1 + n + comb(n, 2)
    assert len(instances.covectors(lines)) == expected


def test_closed_forms():
    assert instances.uniform_flat_count(4, 9) == 131
    assert instances.uniform(random.Random(0), 3, 6)[1] == [10]
    assert instances.graphic_complete(random.Random(0), 4)[1] == [6]
    _, dims = instances.line_com(random.Random(0), 8, 4)
    assert sorted(dims) == [1] * 22 + [3]


def test_check_rejects_wrong_outputs():
    call = workloads.Call("verify", ("verify", "x.json"), dims=(4, 4))
    good = {"verdict": True, "sign": -1, "blocks": [{"dim": 4}, {"dim": 4}]}
    assert workloads.check(call, 0, json.dumps(good)) == ("", -1)
    assert workloads.check(call, 1, json.dumps(good))[0] == "exit code 1"
    assert workloads.check(call, 0, json.dumps({**good, "verdict": False}))[0]
    assert workloads.check(call, 0, json.dumps({**good, "blocks": [{"dim": 8}]}))[0]
    rho = workloads.Call("rho", ("rho", "x.json"), rows=3)
    assert workloads.check(rho, 0, json.dumps({"a": 1, "b": 2}))[0]


def small_calls(directory: Path) -> list[workloads.Call]:
    rng = random.Random(5)
    u24, u24_dims = instances.uniform(rng, 2, 4)
    bq, bq_dims = instances.uniform_bouquet(rng, 2, 2, 4)
    paths = {}
    for name, data in [("u24", u24), ("bq", bq)]:
        paths[name] = str(directory / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    return [
        workloads.Call("verify symbolic", ("verify", paths["bq"], "--kind", "bouquet"),
                       tuple(bq_dims), sign_group="bq"),
        workloads.Call("verify randomized", ("verify", paths["bq"], "--kind", "bouquet",
                                             "--mode", "randomized", "--seed", "3"),
                       tuple(bq_dims), sign_group="bq"),
        workloads.Call("matrix", ("matrix", paths["u24"], "--kind", "matroid"),
                       tuple(u24_dims)),
        workloads.Call("rho", ("rho", paths["u24"], "--kind", "matroid"),
                       rows=instances.uniform_flat_count(2, 4)),
    ]


def test_traced_and_untraced_agree(tmp_path):
    from bouquetdet import cli, determinant
    original = determinant.det_bareiss
    calls = small_calls(tmp_path)
    untraced = worker.run_pass(cli, calls, 0, None)
    tracer = Tracer()
    with tracer:
        assert determinant.det_bareiss is not original
        traced = worker.run_pass(cli, calls, 0, tracer)
    assert determinant.det_bareiss is original
    worker.compare(untraced, traced)
    for a, b in zip(untraced["calls"], traced["calls"]):
        assert a["fail"] == b["fail"] == ""
        assert a["sign"] == b["sign"]
    layers = traced["layers"]
    assert set(layers) == set(run.PER_LAYER) - {"trace.overhead_frac"}
    assert layers["determinant.rhs_calls"] == 3   # twice in symbolic verify
    assert layers["polyring.exact_div_calls"] > 0
    assert layers["determinant.blocks"] == 4
    assert layers["cli.output_bytes"] == sum(c["output_bytes"] for c in traced["calls"])
    spans = tracer.dump()
    assert {s["name"] for s in spans if s["parent"] == -1} == {"cli.main"}


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.per_layer_unit(name)) for name in run.PER_LAYER]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "symbolic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
