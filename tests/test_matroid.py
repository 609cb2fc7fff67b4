from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bouquetdet import matroid as matroid_mod
from bouquetdet.chains import WeightAssignment, min_labeling
from bouquetdet.cli import KINDS
from bouquetdet.determinant import verify_theorem
from bouquetdet.matroid import (EmptySetMissing, ExchangeAcrossRoofsFails,
                                ExchangeFails, MatroidError, NotAClutter,
                                NotDownwardClosed, NotSimple, RoofNotMatroid,
                                UnionMismatch, bouquet_flat_poset,
                                bouquet_from_json, build_bouquet_of_matroids,
                                build_matroid, flat_lattice, matroid_from_json,
                                set_id)
from conftest import load_fixture, power, verify_default
from ring_ops import const, var, zero


def named(m, mask):
    """The ground elements of m at the set bits of `mask`."""
    return frozenset(e for i, e in enumerate(m.ground) if mask >> i & 1)


@cache
def independents(m):
    """The independent sets of m, as name sets, read off its extension table."""
    return frozenset(named(m, i) for i in m.ext)


def flat_sets(m):
    """The flats of m, as name sets, sorted by size then names."""
    return sorted((named(m, f) for f in m.flats()), key=lambda f: (len(f), sorted(f)))


def brute_rank(m, subset):
    """Oracle: the size of a largest independent subset."""
    s = frozenset(subset)
    return max(len(i) for i in independents(m) if i <= s)


def brute_closure(m, subset):
    """Oracle: the subset plus every element that leaves its rank alone."""
    s = frozenset(subset)
    r = brute_rank(m, s)
    return s | {e for e in m.ground if brute_rank(m, s | {e}) == r}


def substitute(p, mapping):
    """Ring homomorphism sending variable v to mapping[v] (identity on
    variables not in the mapping)."""
    out = zero()
    for m, c in p.terms.items():
        term = const(c)
        for v, e in m:
            term = term * power(mapping.get(v, var(v)), e)
        out = out + term
    return out


def ground_substitution(P, weights, support, ground_vars):
    """Map each atom variable to the sum of the ground-element variables
    in the atom's support.  Applied to both sides of a verified identity,
    it re-expresses the identity in ground-element variables (ring
    homomorphisms preserve equality)."""
    return {weights.atom_vars[a]: sum((var(ground_vars[e])
                                       for e in sorted(support[a])), zero())
            for a in P.atoms}


def test_substitute():
    w0, w1, w2, u1, u2 = (var(i) for i in (0, 1, 2, 10, 11))
    assert substitute(w0 * w1, {0: u1 + u2}) == u1 * w1 + u2 * w1
    p = power(w0, 2) * w1 + w2
    assert substitute(p, {}) == p


def simplify(m):
    """Delete loops and keep one representative per parallel class.

    Returns the simple matroid and the map element -> representative
    (None for loops).
    """
    loops = {e for e in m.ground if frozenset([e]) not in independents(m)}
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
    return build_matroid(ground, [i for i in independents(m) if i <= keep]), rep


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


class TestWitnessOrder:
    """With two violations, each error names the first in input order
    (elements in ground order), so no witness depends on the order in
    which a set of sets is scanned; each pair of cases lists the same
    sets in two orders."""

    @pytest.mark.parametrize("independents, message", [
        ([[], ["a"], ["c", "d"], ["a", "b"]], "{c,d} is independent but {c} is not"),
        ([[], ["a"], ["a", "b"], ["c", "d"]], "{a,b} is independent but {b} is not"),
    ], ids=["in-order", "reordered"])
    def test_not_downward_closed(self, independents, message):
        # ground order d, c, b, a: {c,d} lacks both {c} and {d}, and d,
        # first in ground order, names the missing {c}
        with pytest.raises(NotDownwardClosed) as info:
            build_matroid(["d", "c", "b", "a"], independents)
        assert str(info.value) == message

    @pytest.mark.parametrize("independents, message", [
        ([[], ["a"], ["b"], ["c"], ["d"], ["a", "b"], ["c", "d"]],
         "no element of {c,d} extends {a}"),
        ([[], ["c"], ["b"], ["a"], ["d"], ["c", "d"], ["a", "b"]],
         "no element of {a,b} extends {c}"),
    ], ids=["in-order", "reordered"])
    def test_exchange_fails(self, independents, message):
        with pytest.raises(ExchangeFails) as info:
            build_matroid(["a", "b", "c", "d"], independents)
        assert str(info.value) == message

    @pytest.mark.parametrize("ground, message", [
        (["a", "b", "c", "d"], "roof 1: {c,d} is independent but {d} is not"),
        (["d", "c", "b", "a"], "roof 1: {c,d} is independent but {c} is not"),
    ], ids=["in-order", "reordered"])
    def test_roof_not_downward_closed(self, ground, message):
        # {c,d} lacks both {c} and {d}; the element dropped is the first
        # in the bouquet's ground order, not in name order
        with pytest.raises(RoofNotMatroid) as info:
            build_bouquet_of_matroids(ground, [["a", "b"], ["c", "d"]],
                                      [[], ["a"], ["b"], ["a", "b"], ["c", "d"]])
        assert isinstance(info.value.cause, NotDownwardClosed)
        assert str(info.value) == message

    @pytest.mark.parametrize("independents, message", [
        ([[], ["a"], ["b"], ["a", "b"], ["c"], ["a", "c"], ["b", "c"]],
         '["{c}", "{a,c}", "{b,c}"]'),
        ([[], ["b", "c"], ["a", "c"], ["c"], ["a"], ["b"], ["a", "b"]],
         '["{b,c}", "{a,c}", "{c}"]'),
    ], ids=["in-order", "reordered"])
    def test_union_mismatch(self, independents, message):
        # the sets within no roof, in input order, as a JSON array
        with pytest.raises(UnionMismatch) as info:
            build_bouquet_of_matroids(["a", "b", "c"], [["a", "b"]], independents)
        assert str(info.value) == f"independent sets not within any roof: {message}"

    @pytest.mark.parametrize("ground, independents, message", [
        # {c} + a and {c} + b both fail: the first element in ground order
        (["a", "b", "c", "d"], [[], ["a"], ["b"], ["c"], ["d"], ["c", "d"]],
         "{c} + 'a' not independent"),
        (["b", "a", "c", "d"], [[], ["a"], ["b"], ["c"], ["d"], ["c", "d"]],
         "{c} + 'b' not independent"),
    ], ids=["in-order", "reordered"])
    def test_exchange_across_roofs_element(self, ground, independents, message):
        with pytest.raises(ExchangeAcrossRoofsFails) as info:
            build_bouquet_of_matroids(ground, [["a", "b", "c"], ["c", "d"]], independents)
        assert str(info.value) == message

    @pytest.mark.parametrize("independents, message", [
        # {c} + a and {d} + a both fail: the first shared set in input order
        ([[], ["a"], ["c"], ["d"], ["e"], ["c", "e"], ["d", "e"]],
         "{c} + 'a' not independent"),
        ([[], ["a"], ["d"], ["c"], ["e"], ["c", "e"], ["d", "e"]],
         "{d} + 'a' not independent"),
    ], ids=["in-order", "reordered"])
    def test_exchange_across_roofs_shared_set(self, independents, message):
        with pytest.raises(ExchangeAcrossRoofsFails) as info:
            build_bouquet_of_matroids(["a", "c", "d", "e"],
                                      [["a", "c", "d"], ["c", "d", "e"]], independents)
        assert str(info.value) == message


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

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_links_against_all_pairs(self, data):
        """The check from links accepts exactly the families the
        all-pairs oracle accepts, and on a failure names the oracle's
        witness: the first I in input order, then the first J of size
        |I| + 1 that no element extends I from.  Families are drawn on at
        most 7 elements, from generators or from the r-subsets of a set
        with some dropped, listed with repeats in a shuffled order."""
        ground = data.draw(st.permutations("abcdefg"))
        if data.draw(st.booleans()):
            generators = data.draw(st.lists(st.sets(st.sampled_from(ground), max_size=5),
                                            max_size=6))
        else:
            r = data.draw(st.integers(1, 4))
            top = data.draw(st.sets(st.sampled_from(ground), min_size=r))
            generators = [set(c) for c in combinations(sorted(top), r)]
            for _ in range(data.draw(st.integers(0, min(2, len(generators) - 1)))):
                generators.pop(data.draw(st.integers(0, len(generators) - 1)))
        family = down_closure(generators)
        ordered = sorted(family, key=sorted)
        repeats = data.draw(st.lists(st.sampled_from(ordered), max_size=4))
        listed = [sorted(s) for s in data.draw(st.permutations(ordered + repeats))]
        expected = None
        if not exchange_holds(family):
            sets = list(dict.fromkeys(map(frozenset, listed)))
            expected = next(f"no element of {set_id(j)} extends {set_id(i)}"
                            for i in sets for j in sets
                            if len(j) == len(i) + 1 and not any(i | {e} in family
                                                                for e in j - i))
        try:
            build_matroid(ground, listed)
        except ExchangeFails as exc:
            assert str(exc) == expected
        else:
            assert expected is None


class TestRankClosureFlats:
    def test_flats_u23(self, u23):
        assert [set_id(f) for f in flat_sets(u23)] == \
            ["{}", "{1}", "{2}", "{3}", "{1,2,3}"]

    def test_closure_of_ground(self, u23):
        assert brute_closure(u23, u23.ground) == frozenset(u23.ground)

    def test_flats_are_closure_fixed_points(self, u23):
        for f in flat_sets(u23):
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


def line_in_rank_4():
    """Seven points in rank 4 with 1, 2, 3 and 4 on a line: the sets of at
    most four points with at most two on the line.  The line is a rank-2
    flat of four points, so it is listed after every rank-3 flat of three."""
    ground = [str(i) for i in range(1, 8)]
    return build_matroid(ground, [s for k in range(5) for s in combinations(ground, k)
                                  if len({"1", "2", "3", "4"} & set(s)) <= 2])


ORACLE_MATROIDS = {
    **{name: lambda name=name: matroid_from_json(load_fixture(name)) for name in (
        "matroid_u23.json", "matroid_u24.json", "matroid_u34.json",
        "matroid_k3.json", "matroid_k4_minus_edge.json", "matroid_cycle4.json")},
    "U(2,9)": lambda: uniform(2, 9),
    "U(4,9)": lambda: uniform(4, 9),
    "M(K5)": lambda: graphic_complete(5),
    "line in rank 4": line_in_rank_4,
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
    assert flat_sets(m) == sorted(flats, key=lambda f: (len(f), sorted(f)))


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
        assert P.bouquet_failure() is None and P.maximal == ("{1,2,3}",)
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
        # geometric: a bouquet with one maximal element
        assert P.bouquet_failure() is None and len(P.maximal) == 1


class TestBouquet:
    def test_single_roof_is_matroid(self, u23):
        b = build_bouquet_of_matroids(
            u23.ground, [u23.ground], [sorted(i) for i in independents(u23)])
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


@pytest.mark.parametrize("name", ["matroid_u34.json", "bouquet_example.json",
                                  "com_generic_lines.json"])
def test_valid_input_names_no_set(monkeypatch, name):
    """Names come back only in element ids and witnesses: a valid input
    reaches its poset with no mask turned back into a set of names, while
    a witness is named through `_named`."""
    calls = []
    original = matroid_mod._named
    monkeypatch.setattr(matroid_mod, "_named", lambda *args: calls.append(args) or original(*args))
    kind = KINDS[name.split("_")[0]]
    assert kind.poset(kind.parse(load_fixture(name))).is_bouquet()
    assert calls == []
    with pytest.raises(NotDownwardClosed):
        build_matroid(["a", "b"], [[], ["a", "b"]])
    assert calls


class TestFlagMatrixIdentity:
    @pytest.mark.parametrize("name", [
        "matroid_u23.json", "matroid_u24.json", "matroid_u34.json",
        "matroid_k3.json", "matroid_k4_minus_edge.json", "matroid_cycle4.json"])
    def test_verifies(self, name):
        m = matroid_from_json(load_fixture(name))
        P, _ = flat_lattice(m)
        assert verify_default(P).verdict

    @pytest.mark.parametrize("mode", ["symbolic", "randomized"])
    def test_line_in_rank_4(self, mode):
        P, _ = flat_lattice(line_in_rank_4())
        line = P.elements.index("{1,2,3,4}")
        assert P.rank("{1,2,3,4}") == 2
        assert all(P.elements.index(x) < line for x in P.elements
                   if P.rank(x) == 3 and x.count(",") == 2)
        report = verify_default(P, mode=mode)
        assert report.verdict and [b[1] for b in report.blocks] == [10]

    def test_ground_substitution_preserves_identity(self, u23_lattice):
        from test_determinant import block_product, global_verdict
        P, mapping = u23_lattice
        weights = WeightAssignment.default(P)
        report = verify_theorem(P, min_labeling(P), weights)
        verdict, sign, _, rhs = global_verdict(P)
        assert report.verdict and report.sign == 1
        assert (report.verdict, report.sign) == (verdict, sign)
        ground_vars = {e: 100 + i for i, e in enumerate(sorted("123"))}
        sub = ground_substitution(P, weights, mapping, ground_vars)
        assert substitute(block_product(report.blocks), sub) == substitute(rhs, sub)

    def test_exponents_match_rho(self, u23_lattice):
        P, _ = u23_lattice
        exps = {x: P.rho(x) for x in P.elements}
        top = P.maximal[0]
        from test_poset import brute_mobius  # test_poset imports this module
        for x in P.elements:
            assert exps[x] == P.beta(x) * abs(brute_mobius(P, x, top))
