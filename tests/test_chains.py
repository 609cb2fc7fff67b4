from itertools import permutations

import pytest

from bouquetdet.chains import (Chain, InvalidLabeling, WeightAssignment,
                               chain_matrix, enumerate_maximal_chains,
                               generators, is_neat, make_labeling,
                               min_labeling, neat_chain_families, weight)
from bouquetdet.poset import build_poset
from bouquetdet.polyring import Polynomial
from test_poset import join_all


def brute_generators(P, chain):
    """Exhaustive scan over all ordered atom tuples."""
    k = len(chain.elements)
    out = []
    for tup in permutations(P.atoms, k):
        cur = None
        ok = True
        for a, x in zip(tup, chain.elements):
            cur = a if cur is None else P.join(cur, a)
            if cur != x:
                ok = False
                break
        if ok:
            out.append(tup)
    return sorted(out)


def is_convex(P, labeling):
    """True iff whenever l(x) = a, every element strictly between a and x
    also carries label a."""
    for x in P.elements:
        if x == P.bottom:
            continue
        a = labeling[x]
        for z in P.down_set(x):
            if z != x and z != a and z != P.bottom and P.leq(a, z):
                if labeling[z] != a:
                    return False
    return True


class TestLabeling:
    def test_min_labels(self, bouquet_example):
        lab = min_labeling(bouquet_example)
        assert lab["r1"] == "a1"
        assert lab["r2"] == "a1"
        assert lab["r3"] == "a2"
        assert lab["r4"] == "a4"
        for a in bouquet_example.atoms:
            assert lab[a] == a

    def test_one_atom(self, one_atom):
        assert min_labeling(one_atom)["a"] == "a"

    def test_min_labeling_is_convex(self, bouquet_example):
        assert is_convex(bouquet_example, min_labeling(bouquet_example))

    def test_nonconvex_counterexample(self):
        # rank-3 chain stack over three atoms: top labeled by an atom not
        # used on the intermediate element
        P = build_poset(
            ["0", "a", "b", "c", "m", "t"],
            [("0", "a"), ("0", "b"), ("0", "c"),
             ("a", "m"), ("b", "m"), ("m", "t"), ("c", "t")])
        lab = make_labeling(P, {"a": "a", "b": "b", "c": "c",
                                "m": "b", "t": "a"})
        assert not is_convex(P, lab)

    def test_bad_label_rejected(self, bouquet_example):
        with pytest.raises(InvalidLabeling):
            make_labeling(bouquet_example,
                          {x: "a5" for x in bouquet_example.elements})


class TestChains:
    def test_count_and_families(self, bouquet_example):
        chains = enumerate_maximal_chains(bouquet_example)
        assert len(chains) == 9
        by_top = {}
        for c in chains:
            by_top.setdefault(c.top, []).append(c)
        assert {t: len(v) for t, v in by_top.items()} == \
            {"r1": 2, "r2": 2, "r3": 3, "r4": 2}

    def test_one_atom(self, one_atom):
        assert enumerate_maximal_chains(one_atom) == [Chain(("a",))]

    def test_lengths_match_rank(self, bouquet_example):
        for c in enumerate_maximal_chains(bouquet_example):
            assert c.size == bouquet_example.rank(c.top)


class TestNeatness:
    def test_neat_chains(self, bouquet_example):
        P = bouquet_example
        lab = min_labeling(P)
        assert is_neat(P, lab, Chain(("a5", "r4")))
        assert not is_neat(P, lab, Chain(("a4", "r4")))
        neat = [c for c in enumerate_maximal_chains(P) if is_neat(P, lab, c)]
        assert {c.elements for c in neat} == {
            ("a5", "r4"), ("a5", "r3"), ("a5", "r2"), ("a4", "r1"), ("a3", "r3")}

    def test_single_atom_chain(self, one_atom):
        lab = min_labeling(one_atom)
        assert is_neat(one_atom, lab, Chain(("a",)))

    def test_definitions_agree_for_convex(self, bouquet_example):
        # For a convex labeling, a chain is neat iff its labels are distinct.
        P = bouquet_example
        lab = min_labeling(P)
        for c in enumerate_maximal_chains(P):
            labels = [lab[x] for x in c.elements]
            assert is_neat(P, lab, c) == (len(set(labels)) == len(labels))

    def test_families(self, bouquet_example, one_atom):
        fams = neat_chain_families(bouquet_example, min_labeling(bouquet_example))
        assert [c.elements for c in fams["r1"]] == [("a4", "r1")]
        assert {c.elements for c in fams["r3"]} == {("a3", "r3"), ("a5", "r3")}
        fams1 = neat_chain_families(one_atom, min_labeling(one_atom))
        assert [c.elements for c in fams1["a"]] == [("a",)]


class TestGenerators:
    def test_examples(self, bouquet_example):
        P = bouquet_example
        assert set(generators(P, Chain(("a5", "r3")))) == {("a5", "a2"), ("a5", "a3")}
        assert set(generators(P, Chain(("a3", "r3")))) == {("a3", "a2"), ("a3", "a5")}

    def test_single(self, one_atom):
        assert generators(one_atom, Chain(("a",))) == [("a",)]

    def test_against_brute_force(self, bouquet_example):
        P = bouquet_example
        for c in enumerate_maximal_chains(P):
            assert sorted(generators(P, c)) == brute_generators(P, c)

    def test_tuples_distinct_and_join_to_top(self, bouquet_example):
        P = bouquet_example
        for c in enumerate_maximal_chains(P):
            for t in generators(P, c):
                assert len(set(t)) == len(t)
                assert join_all(P, t) == c.top


class TestWeight:
    def test_values(self, labeled):
        P, _, w = labeled
        w2, w3, w5 = (Polynomial.var(w.atom_vars[a]) for a in ("a2", "a3", "a5"))
        assert weight(P, "r3", w) == w2 + w3 + w5
        for a in P.atoms:
            assert weight(P, a, w) == w.var(a)
        assert weight(P, "0", w) == Polynomial.zero()


class TestChainMatrix:
    def test_printed_entries(self, labeled):
        P, lab, w = labeled
        M = chain_matrix(P, lab, w)
        v = {a: Polynomial.var(w.atom_vars[a]) for a in P.atoms}
        at = lambda *els: M.chains.index(Chain(tuple(els)))
        assert M.entries[at("a4", "r1")][at("a4", "r1")] == v["a1"] * v["a4"]
        assert M.entries[at("a5", "r2")][at("a5", "r2")] == v["a1"] * v["a5"]
        assert M.entries[at("a5", "r3")][at("a5", "r3")] == \
            v["a2"] * v["a5"] + v["a3"] * v["a5"]
        assert M.entries[at("a3", "r3")][at("a3", "r3")] == \
            v["a2"] * v["a3"] + v["a3"] * v["a5"]
        assert M.entries[at("a5", "r3")][at("a3", "r3")] == -(v["a3"] * v["a5"])
        assert M.entries[at("a5", "r4")][at("a5", "r4")] == v["a4"] * v["a5"]
        # every remaining pair is zero
        for i in range(M.dim):
            for j in range(M.dim):
                if i != j and {M.chains[i].top, M.chains[j].top} != {"r3"}:
                    assert M.entries[i][j].is_zero()

    def test_one_atom(self, one_atom):
        M = chain_matrix(one_atom, min_labeling(one_atom),
                         WeightAssignment.default(one_atom))
        assert M.dim == 1
        assert M.entries[0][0] == Polynomial.var(0)

    def test_u23(self, u23_lattice):
        P, _ = u23_lattice
        M = chain_matrix(P, min_labeling(P), WeightAssignment.default(P))
        w1, w2, w3 = (Polynomial.var(i) for i in range(3))
        assert M.dim == 2
        assert M.entries[0][0] == w1 * w2 + w2 * w3
        assert M.entries[0][1] == -(w2 * w3)
        assert M.entries[1][0] == -(w2 * w3)
        assert M.entries[1][1] == w1 * w3 + w2 * w3

    def test_symmetry(self, labeled, u23_lattice):
        P, lab, w = labeled
        for M in (chain_matrix(P, lab, w),
                  chain_matrix(u23_lattice[0], min_labeling(u23_lattice[0]),
                               WeightAssignment.default(u23_lattice[0]))):
            for i in range(M.dim):
                for j in range(M.dim):
                    assert M.entries[i][j] == M.entries[j][i]

    def test_diagonal_positive(self, labeled):
        _, _, _ = labeled
        P, lab, w = labeled
        M = chain_matrix(P, lab, w)
        for i in range(M.dim):
            assert all(c > 0 for c in M.entries[i][i].terms.values())
