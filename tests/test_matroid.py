from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bouquetdet.chains import WeightAssignment
from bouquetdet.determinant import rho_exponents, verify_theorem
from bouquetdet.matroid import (EmptySetMissing, ExchangeFails, Matroid,
                                MatroidError, NotAClutter, NotDownwardClosed,
                                NotSimple, bouquet_flat_poset,
                                bouquet_from_json, build_bouquet_of_matroids,
                                build_matroid, flat_lattice, matroid_from_json,
                                set_id)
from bouquetdet.polyring import Polynomial
from conftest import load_fixture


def brute_rank(m, subset):
    """Oracle: the size of a largest independent subset."""
    s = frozenset(subset)
    return max(len(i) for i in m.independents if i <= s)


def brute_closure(m, subset):
    """Oracle: the subset plus every element that leaves its rank alone."""
    s = frozenset(subset)
    r = brute_rank(m, s)
    return s | {e for e in m.ground if brute_rank(m, s | {e}) == r}


def substitute(p, mapping):
    """Ring homomorphism sending variable v to mapping[v] (identity on
    variables not in the mapping)."""
    out = Polynomial.zero()
    for m, c in p.terms.items():
        term = Polynomial.const(c)
        for v, e in m:
            term = term * mapping.get(v, Polynomial.var(v)) ** e
        out = out + term
    return out


def ground_substitution(P, weights, support, ground_vars):
    """Map each atom variable to the sum of the ground-element variables
    in the atom's support.  Applied to both sides of a verified identity,
    it re-expresses the identity in ground-element variables (ring
    homomorphisms preserve equality)."""
    return {weights.atom_vars[a]: sum((Polynomial.var(ground_vars[e])
                                       for e in sorted(support[a])),
                                      Polynomial.zero())
            for a in P.atoms}


def test_substitute():
    w0, w1, w2, u1, u2 = (Polynomial.var(i) for i in (0, 1, 2, 10, 11))
    assert substitute(w0 * w1, {0: u1 + u2}) == u1 * w1 + u2 * w1
    p = w0 ** 2 * w1 + w2
    assert substitute(p, {}) == p


def simplify(m):
    """Delete loops and keep one representative per parallel class.

    Returns the simple matroid and the map element -> representative
    (None for loops).
    """
    loops = {e for e in m.ground if frozenset([e]) not in m.independents}
    rep = {e: None for e in loops}
    classes = {}
    for e in m.ground:
        if e in loops:
            continue
        cl = brute_closure(m, [e])
        if cl not in classes:
            classes[cl] = e
        rep[e] = classes[cl]
    keep = set(classes.values())
    ground = tuple(e for e in m.ground if e in keep)
    independents = frozenset(i for i in m.independents if i <= keep)
    return Matroid(ground, independents), rep


class TestBuild:
    def test_u23(self, u23):
        assert brute_rank(u23, ["1", "2", "3"]) == 2
        assert u23.is_simple()

    def test_empty_set_missing(self):
        with pytest.raises(EmptySetMissing):
            build_matroid(["1"], [["1"]])

    def test_not_downward_closed(self):
        with pytest.raises(NotDownwardClosed):
            build_matroid(["1", "2", "3", "4"],
                          [[], ["1"], ["2"], ["1", "2"], ["3", "4"]])

    def test_exchange_fails(self):
        # two disjoint "independent" pairs with no mixing
        with pytest.raises(ExchangeFails):
            build_matroid(["1", "2", "3"],
                          [[], ["1"], ["2"], ["3"], ["2", "3"]])


def exchange_holds(family):
    """Oracle: the exchange axiom checked on every pair |I| < |J|."""
    return all(any(i1 | {e} in family for e in i2 - i1)
               for i1 in family for i2 in family if len(i1) < len(i2))


def exchange_verdict(ground, family):
    """What build_matroid says about a downward-closed family holding the
    empty set: True (accepted) or False (ExchangeFails)."""
    try:
        build_matroid(ground, family)
    except ExchangeFails:
        return False
    return True


def down_closure(sets):
    return {frozenset(c) for s in sets for k in range(len(s) + 1)
            for c in combinations(sorted(s), k)} | {frozenset()}


class TestExchangeOracle:
    """build_matroid checks exchange between adjacent sizes only; the
    all-pairs check is the oracle."""

    @pytest.mark.parametrize("name", [
        "matroid_u23.json", "matroid_u24.json", "matroid_u34.json",
        "matroid_k3.json", "matroid_k4_minus_edge.json", "matroid_cycle4.json"])
    def test_fixtures_and_perturbations(self, name):
        data = load_fixture(name)
        family = {frozenset(i) for i in data["independents"]}
        assert exchange_holds(family) and exchange_verdict(data["ground"], family)
        # Drop one or two maximal sets: the family stays downward-closed,
        # and exchange survives for some of these and fails for others.
        maximal = sorted((s for s in family if not any(s < t for t in family)), key=sorted)
        for k in (1, 2):
            for dropped in combinations(maximal, k):
                smaller = family - set(dropped)
                assert exchange_verdict(data["ground"], smaller) == exchange_holds(smaller)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sets(st.sampled_from("abcdef"), max_size=4), max_size=6))
    def test_random_families(self, generators):
        family = down_closure(generators)
        ground = sorted({e for s in family for e in s})
        assert exchange_verdict(ground, family) == exchange_holds(family)


class TestRankClosureFlats:
    def test_flats_u23(self, u23):
        assert [set_id(f) for f in u23.flats()] == \
            ["{}", "{1}", "{2}", "{3}", "{1,2,3}"]

    def test_closure_of_ground(self, u23):
        assert brute_closure(u23, u23.ground) == frozenset(u23.ground)

    def test_flats_are_closure_fixed_points(self, u23):
        for f in u23.flats():
            assert brute_closure(u23, f) == f


def uniform(r, n):
    ground = [str(i) for i in range(n)]
    return build_matroid(ground, [s for k in range(r + 1)
                                  for s in combinations(ground, k)])


def graphic_complete(n):
    """M(K_n): edge sets of the complete graph on n vertices with no cycle."""
    edges = list(combinations(range(n), 2))

    def is_forest(subset):
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v
        for u, v in subset:
            a, b = find(u), find(v)
            if a == b:
                return False
            parent[a] = b
        return True
    ground = [f"{u}{v}" for u, v in edges]
    return build_matroid(ground, [[f"{u}{v}" for u, v in s] for k in range(n)
                                  for s in combinations(edges, k) if is_forest(s)])


ORACLE_MATROIDS = {
    **{name: lambda name=name: matroid_from_json(load_fixture(name)) for name in (
        "matroid_u23.json", "matroid_u24.json", "matroid_u34.json",
        "matroid_k3.json", "matroid_k4_minus_edge.json", "matroid_cycle4.json")},
    "U(2,9)": lambda: uniform(2, 9),
    "U(4,9)": lambda: uniform(4, 9),
    "M(K5)": lambda: graphic_complete(5),
    # a loop and a parallel pair: the empty set is not a flat
    "loop+parallel": lambda: build_matroid(["1", "2", "3", "4"],
                                           [[], ["1"], ["2"], ["3"], ["1", "2"], ["1", "3"]]),
}


@pytest.mark.parametrize("name", ORACLE_MATROIDS)
def test_rank_closure_flats_against_brute_force(name):
    """Oracle: flats as the fixed points of the closure, with rank as the
    largest independent subset, over every subset of the ground set."""
    m = ORACLE_MATROIDS[name]()
    subsets = [frozenset(c) for k in range(len(m.ground) + 1)
               for c in combinations(m.ground, k)]
    rank = {s: brute_rank(m, s) for s in subsets}
    flats = []
    for s in subsets:
        closure = s | {e for e in m.ground if rank[s | {e}] == rank[s]}
        if closure == s:
            flats.append(s)
    assert m.flats() == sorted(flats, key=lambda f: (len(f), sorted(f)))


class TestSimple:
    def test_loop_not_simple(self):
        m = build_matroid(["1", "2"], [[], ["1"]])  # "2" is a loop
        assert not m.is_simple()

    def test_simplify_parallel_pair(self):
        m = build_matroid(["1", "2"], [[], ["1"], ["2"]])  # 1 and 2 parallel
        simple, rep = simplify(m)
        assert len(simple.ground) == 1
        assert rep["1"] == rep["2"]

    def test_simplify_drops_loops(self):
        m = build_matroid(["1", "2"], [[], ["1"]])
        simple, rep = simplify(m)
        assert simple.ground == ("1",)
        assert rep["2"] is None


class TestFlatLattice:
    def test_u23(self, u23_lattice):
        P, mapping = u23_lattice
        assert len(P.elements) == 5
        assert P.rank("{1,2,3}") == 2
        assert P.is_geometric_lattice()
        assert mapping["{1,2}"] if "{1,2}" in mapping else True

    def test_free_single_element(self):
        m = build_matroid(["e"], [[], ["e"]])
        P, _ = flat_lattice(m)
        assert P.elements == ("{}", "{e}")

    def test_rejects_non_simple(self):
        m = build_matroid(["1", "2"], [[], ["1"], ["2"]])
        with pytest.raises(NotSimple):
            flat_lattice(m)

    def test_rank_matches_matroid(self, u23, u23_lattice):
        P, _ = u23_lattice
        assert brute_rank(u23, u23.ground) == P.rank("{1,2,3}")

    @pytest.mark.parametrize("name", [
        "matroid_u23.json", "matroid_u24.json", "matroid_u34.json",
        "matroid_k3.json", "matroid_k4_minus_edge.json", "matroid_cycle4.json"])
    def test_fixture_lattices_geometric(self, name):
        m = matroid_from_json(load_fixture(name))
        P, _ = flat_lattice(m)
        assert P.is_geometric_lattice()


class TestBouquet:
    def test_single_roof_is_matroid(self, u23):
        b = build_bouquet_of_matroids(
            u23.ground, [u23.ground], [sorted(i) for i in u23.independents])
        P, _ = bouquet_flat_poset(b)
        assert len(P.elements) == 5  # same as the plain flat lattice

    def test_two_disjoint_free_roofs(self):
        b = bouquet_from_json(load_fixture("bouquet_two_free_roofs.json"))
        P, _ = bouquet_flat_poset(b)
        assert P.bottom == "{}"
        assert set(P.atoms) == {"{x}", "{y}"}

    @pytest.mark.parametrize("ground, roofs", [
        pytest.param(["x", "x", "y"], [["x"], ["y"]], id="duplicate-ground"),
        pytest.param(["x"], [["x"], ["y"]], id="roof-outside-ground"),
    ])
    def test_ground_checked(self, ground, roofs):
        with pytest.raises(MatroidError, match="ground"):
            build_bouquet_of_matroids(ground, roofs, [[], ["x"], ["y"]])

    def test_not_a_clutter(self):
        with pytest.raises(NotAClutter):
            build_bouquet_of_matroids(
                ["1", "2"], [["1"], ["1", "2"]], [[], ["1"], ["2"]])

    def test_example_bouquet_matches_poset(self, bouquet_example):
        import networkx as nx
        b = bouquet_from_json(load_fixture("bouquet_example.json"))
        P, _ = bouquet_flat_poset(b)
        assert P.is_bouquet()
        g1 = nx.DiGraph(list(P.covers))
        g2 = nx.DiGraph(list(bouquet_example.covers))
        assert nx.is_isomorphic(g1, g2)


class TestFlagMatrixIdentity:
    @pytest.mark.parametrize("name", [
        "matroid_u23.json", "matroid_u24.json", "matroid_u34.json",
        "matroid_k3.json", "matroid_k4_minus_edge.json", "matroid_cycle4.json"])
    def test_verifies(self, name):
        m = matroid_from_json(load_fixture(name))
        P, _ = flat_lattice(m)
        assert verify_theorem(P).verdict

    def test_ground_substitution_preserves_identity(self, u23_lattice):
        from test_determinant import block_product, global_verdict
        P, mapping = u23_lattice
        weights = WeightAssignment.default(P)
        report = verify_theorem(P, weights=weights)
        verdict, sign, _, rhs = global_verdict(P)
        assert report.verdict
        assert (report.verdict, report.sign) == (verdict, sign)
        ground_vars = {e: 100 + i for i, e in enumerate(sorted("123"))}
        sub = ground_substitution(P, weights, mapping, ground_vars)
        assert substitute(block_product(report.blocks), sub) == \
            substitute(rhs if report.sign == 1 else -rhs, sub)

    def test_exponents_match_rho(self, u23_lattice):
        P, _ = u23_lattice
        exps = rho_exponents(P)
        top = P.maximal[0]
        for x in P.elements:
            assert exps[x] == P.beta(x) * abs(P.mobius(x, top))
