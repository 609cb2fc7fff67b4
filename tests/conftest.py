import json
from pathlib import Path

import pytest

from bouquetdet import (WeightAssignment, build_poset, matroid, min_labeling,
                        poset_from_json, verify_theorem)
from bouquetdet.polyring import Polynomial
from ring_ops import Poly, one

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def power(p: Polynomial, k: int) -> Poly:
    """p^k for k >= 0, by repeated multiplication."""
    out = one()
    for _ in range(k):
        out = out * p
    return out


def verify_default(P, **kwargs):
    """`verify_theorem` with the min-labeling and the variables in the
    poset's atom order, as the CLI runs it without --atom-order."""
    return verify_theorem(P, min_labeling(P), WeightAssignment.default(P), **kwargs)


@pytest.fixture(scope="session")
def bouquet_example():
    """The worked 10-element bouquet: atoms a1..a5, tops r1..r4."""
    return poset_from_json(load_fixture("poset_bouquet_example.json"))


@pytest.fixture(scope="session")
def pentagon():
    """N5: a lattice that is neither atomic nor semimodular."""
    return poset_from_json(load_fixture("poset_pentagon.json"))


@pytest.fixture(scope="session")
def one_atom():
    return build_poset(["0", "a"], [("0", "a")])


@pytest.fixture(scope="session")
def u23():
    return matroid.matroid_from_json(load_fixture("matroid_u23.json"))


@pytest.fixture(scope="session")
def u23_lattice(u23):
    return matroid.flat_lattice(u23)


@pytest.fixture(scope="session")
def labeled(bouquet_example):
    P = bouquet_example
    return P, min_labeling(P), WeightAssignment.default(P)
