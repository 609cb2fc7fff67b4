"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  All comparisons are exact (integer / polynomial
equality); there are no tolerances to tune.
"""

import random
import time
from itertools import combinations

import networkx as nx
import pytest

from arrangement_oracle import (CONCURRENT_LINES, GENERIC_LINES,
                                enumerate_covectors)
from bouquetdet.chains import (WeightAssignment, chain_matrix, min_labeling,
                               neat_chain_families, packed_block)
from bouquetdet.com import validate_com, zero_set_poset
from bouquetdet.determinant import block_decompose, det_minors, verify_theorem
from bouquetdet.matroid import (Matroid, bouquet_from_json, flat_lattice,
                                matroid_from_json)
from conftest import load_fixture, power, verify_default
from ring_ops import gram_entries, gram_entry, lift, one, oracle_text, var, zero
from test_com import composition
from test_determinant import block_product, det_cofactor, global_verdict
from test_matroid import brute_rank, simplify
from test_poset import brute_geometric_failure, scan_meet

MATROID_FIXTURES = ["matroid_u23.json", "matroid_u24.json", "matroid_u34.json",
                    "matroid_k3.json", "matroid_k4_minus_edge.json",
                    "matroid_cycle4.json"]


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def brute_mobius(leq, x, y):
    """Möbius recursion straight on a raw order relation dict."""
    if y not in leq[x]:
        return 0
    if x == y:
        return 1
    return -sum(brute_mobius(leq, x, z) for z in leq if y in leq[z] and z in leq[x] and z != y)


def all_fixture_posets():
    """Every bouquet poset the suite verifies against."""
    out = []
    from bouquetdet.poset import poset_from_json, build_poset
    out.append(("bouquet-example",
                poset_from_json(load_fixture("poset_bouquet_example.json"))))
    out.append(("one-atom", build_poset(["0", "a"], [("0", "a")])))
    for name in MATROID_FIXTURES:
        P, _ = flat_lattice(matroid_from_json(load_fixture(name)))
        out.append((name, P))
    b = bouquet_from_json(load_fixture("bouquet_example.json"))
    from bouquetdet.matroid import bouquet_flat_poset
    out.append(("bouquet-of-matroids", bouquet_flat_poset(b)[0]))
    for name in ("com_generic_lines.json", "com_concurrent_lines.json"):
        data = load_fixture(name)
        P, _ = zero_set_poset(validate_com(data["ground"], data["covectors"]))
        out.append((name, P))
    return out


def test_criterion_1_worked_example_end_to_end(bouquet_example):
    start = time.monotonic()
    P = bouquet_example
    lab = min_labeling(P)
    ok = (lab["r1"], lab["r2"], lab["r3"], lab["r4"]) == ("a1", "a1", "a2", "a4")

    fams = neat_chain_families(P, lab)
    ok &= {t: set(cs) for t, cs in fams.items()} == {
        "r1": {("a4", "r1")}, "r2": {("a5", "r2")},
        "r3": {("a3", "r3"), ("a5", "r3")}, "r4": {("a5", "r4")}}

    w = WeightAssignment.default(P)
    v = {a: var(w.atom_vars[a]) for a in P.atoms}
    M = chain_matrix(P, lab, w)
    c = lambda *e: e
    entry = lambda ci, cj: M.entries[M.chains.index(ci)][M.chains.index(cj)]
    expected = {
        (c("a4", "r1"), c("a4", "r1")): v["a1"] * v["a4"],
        (c("a5", "r2"), c("a5", "r2")): v["a1"] * v["a5"],
        (c("a5", "r3"), c("a5", "r3")): v["a2"] * v["a5"] + v["a3"] * v["a5"],
        (c("a3", "r3"), c("a3", "r3")): v["a2"] * v["a3"] + v["a3"] * v["a5"],
        (c("a5", "r3"), c("a3", "r3")): -(v["a3"] * v["a5"]),
        (c("a5", "r4"), c("a5", "r4")): v["a4"] * v["a5"],
    }
    for (ci, cj), val in expected.items():
        ok &= entry(ci, cj) == oracle_text(val) and entry(cj, ci) == oracle_text(val)
    for i in range(M.dim):
        for j in range(M.dim):
            key_hit = any({M.chains[i], M.chains[j]} == {ci, cj}
                          for ci, cj in expected)
            if not key_hit:
                ok &= M.entries[i][j] == "0"
                ok &= gram_entry(M.vectors[i], M.vectors[j]).is_zero()

    rep = verify_theorem(P, lab, w)
    target = (power(v["a5"], 3) * power(v["a4"], 2) * v["a3"] * v["a2"]
              * power(v["a1"], 2) * (v["a2"] + v["a3"] + v["a5"]))
    ok &= rep.verdict and rep.sign == 1 and block_product(rep.blocks) == target
    ok &= (rep.verdict, rep.sign) == global_verdict(P)[:2]
    ok &= P.rho("a1") == 2 and P.rho("r1") == 0
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(f"1 worked example end-to-end ({elapsed:.2f}s)", ok)


def test_criterion_2_flag_matrix_identity():
    start = time.monotonic()
    ok = True
    for name in MATROID_FIXTURES:
        m = matroid_from_json(load_fixture(name))
        P, mapping = flat_lattice(m)
        rep = verify_default(P)
        ok &= rep.verdict
        # independent exponent oracle on the raw flats, by inclusion
        flats = sorted(mapping.values(), key=lambda f: (len(f), sorted(f)))
        leq = {frozenset(a): {frozenset(b) for b in flats if a <= b} for a in flats}
        top = flats[-1]
        ranks = {f: brute_rank(m, f) for f in flats}
        for x, flat in mapping.items():
            beta = (-1) ** ranks[flat] * sum(
                brute_mobius(leq, frozenset(), g) * ranks[g]
                for g in flats if g <= flat)
            ok &= rep.exponents[x] == beta * abs(brute_mobius(leq, flat, top))
    # closed form for the three-point line
    P, _ = flat_lattice(matroid_from_json(load_fixture("matroid_u23.json")))
    rep = verify_default(P)
    w1, w2, w3 = (var(i) for i in range(3))
    closed = w1 * w2 * w3 * (w1 + w2 + w3)
    ok &= rep.sign == 1 and block_product(rep.blocks) == closed
    ok &= (rep.verdict, rep.sign) == global_verdict(P)[:2]
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(f"2 flag-matrix identity on matroid fixtures ({elapsed:.2f}s)", ok)


def test_criterion_3_cross_family_entries_zero():
    # The entries are formed pair by pair from the Gram vectors (the
    # library forms only the family blocks), then compared with the
    # printed ones.
    ok = True
    checked = 0
    for name, P in all_fixture_posets():
        if len(P.maximal) < 2:
            continue
        M = chain_matrix(P, min_labeling(P), WeightAssignment.default(P))
        for i in range(M.dim):
            for j in range(M.dim):
                if M.chains[i][-1] != M.chains[j][-1]:
                    entry = gram_entry(M.vectors[i], M.vectors[j])
                    ok &= entry == zero() and M.entries[i][j] == "0"
                    checked += 1
    ok &= checked > 0
    report(f"3 zero cross-family entries ({checked} pairs)", ok)


def test_criterion_4_determinant_oracle_equivalence():
    ok = True
    for name, P in all_fixture_posets():
        M = chain_matrix(P, min_labeling(P), WeightAssignment.default(P))
        blocks = block_decompose(M)
        product = one()
        for _, G in blocks:
            B = gram_entries(G)
            layout, entries = packed_block(G)
            d = lift(layout.unpack(det_minors(entries)))
            if len(B) <= 6:
                ok &= d == det_cofactor(B)
            product = product * d
        if M.dim <= 6:
            ok &= product == det_cofactor(gram_entries(M.vectors))
    report("4 minor expansion vs cofactor equivalence", ok)


def test_criterion_5_com_corollary():
    start = time.monotonic()
    conc = validate_com(["l1", "l2", "l3"], enumerate_covectors(CONCURRENT_LINES))
    P, _ = zero_set_poset(conc)
    Q, _ = flat_lattice(matroid_from_json(load_fixture("matroid_u23.json")))
    ok = nx.is_isomorphic(nx.DiGraph(list(P.covers)), nx.DiGraph(list(Q.covers)))
    ok &= verify_default(P).verdict
    gen = validate_com(["l1", "l2", "l3"], enumerate_covectors(GENERIC_LINES))
    ok &= load_fixture("com_generic_lines.json")["covectors"] == list(gen.covectors)
    G, _ = zero_set_poset(gen)
    ok &= verify_default(G).verdict
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(f"5 sign-vector corollary ({elapsed:.2f}s)", ok)


def test_criterion_6_randomized_symbolic_agreement():
    ok = True
    for name, P in all_fixture_posets():
        sym = verify_default(P, mode="symbolic")
        rand = verify_default(P, mode="randomized", trials=20, seed=2024)
        ok &= sym.verdict == rand.verdict and sym.sign == rand.sign == 1
    report("6 randomized/symbolic agreement", ok)


def random_binary_matroid(rng, n_ground, n_rows):
    """Column matroid of a random 0/1 matrix over GF(2)."""
    cols = [tuple(rng.randrange(2) for _ in range(n_rows)) for _ in range(n_ground)]
    ids = [f"e{i+1}" for i in range(n_ground)]

    def gf2_rank(vectors):
        rows = [int("".join(map(str, v)), 2) for v in vectors]
        basis = []
        for r in rows:
            for b in basis:
                r = min(r, r ^ b)
            if r:
                basis.append(r)
                basis.sort(reverse=True)
        return len(basis)

    ind = []
    for k in range(n_ground + 1):
        for combo in combinations(range(n_ground), k):
            if gf2_rank([cols[i] for i in combo]) == k:
                ind.append(frozenset(ids[i] for i in combo))
    return Matroid(tuple(ids), frozenset(ind))


def test_criterion_7_structural_property_suite():
    ok = True
    posets = all_fixture_posets()
    for name, P in posets:
        b = P.bottom
        leq = {x: {y for y in P.elements if P.leq(x, y)} for x in P.elements}
        for x in P.elements:
            for y in P.elements:
                if P.leq(x, y) and x != y:
                    ok &= sum(brute_mobius(leq, x, z) for z in P.elements
                              if P.leq(x, z) and P.leq(z, y)) == 0
            ok &= P.mobius(x) == brute_mobius(leq, b, x)
        ok &= P.beta(b) == 0
        ok &= (not P.is_bouquet()) or all(scan_meet(P, x, y) is not None
                                          for x in P.elements for y in P.elements)
        M = chain_matrix(P, min_labeling(P), WeightAssignment.default(P))
        for i in range(M.dim):
            for j in range(M.dim):
                ok &= M.entries[i][j] == M.entries[j][i]
    for name in ("com_generic_lines.json", "com_concurrent_lines.json"):
        data = load_fixture(name)
        c = validate_com(data["ground"], data["covectors"])
        pool = set(c.covectors)
        for x in c.covectors:
            for y in c.covectors:
                ok &= composition(x, y) in pool
    rng = random.Random(20240824)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = random_binary_matroid(rng, n, rng.randint(1, 3))
        simple, _ = simplify(m)
        if not simple.ground:
            continue
        P, _ = flat_lattice(simple)
        ok &= brute_geometric_failure(P) is None
        ok &= P.bouquet_failure() is None and len(P.maximal) == 1
    report("7 structural property suite", ok)
