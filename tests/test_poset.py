import pytest
from hypothesis import given, settings, strategies as st

from bouquetdet.matroid import flat_lattice
from bouquetdet.poset import (CycleDetected, NotComparable, RedundantCover,
                              UnknownElement, build_poset, inclusion_poset,
                              poset_from_json)
from conftest import FIXTURES, load_fixture
from test_matroid import graphic_complete, uniform


def brute_mobius(P, x, y):
    """Independent recursion straight from the defining sum."""
    if not P.leq(x, y):
        return 0
    if x == y:
        return 1
    return -sum(brute_mobius(P, x, z) for z in P.elements
                if P.leq(x, z) and P.leq(z, y) and z != y)


class TestBuild:
    def test_smallest(self):
        P = build_poset(["0", "a1"], [("0", "a1")])
        assert P.bottom == "0"
        assert P.atoms == ("a1",)

    def test_inclusion_poset(self):
        sets = [frozenset("ab"), frozenset("b"), frozenset(), frozenset("a"),
                frozenset("b"), frozenset("abc")]
        P, mapping = inclusion_poset(sets)
        assert P.elements == ("{}", "{a}", "{b}", "{a,b}", "{a,b,c}")
        assert P.covers == {("{}", "{a}"), ("{}", "{b}"), ("{a}", "{a,b}"),
                            ("{b}", "{a,b}"), ("{a,b}", "{a,b,c}")}
        assert mapping["{a,b}"] == frozenset("ab")

    def test_example_shape(self, bouquet_example):
        P = bouquet_example
        assert P.bottom == "0"
        assert set(P.atoms) == {"a1", "a2", "a3", "a4", "a5"}
        assert set(P.maximal) == {"r1", "r2", "r3", "r4"}

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_redundant_cover(self):
        with pytest.raises(RedundantCover):
            build_poset(["0", "a", "b"], [("0", "a"), ("a", "b"), ("0", "b")])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownElement):
            build_poset(["a"], [("a", "b")])


class TestMeetJoin:
    def test_idempotent(self, bouquet_example):
        assert bouquet_example.meet("a1", "a1") == "a1"

    def test_join_example(self, bouquet_example):
        assert bouquet_example.join("a5", "a2") == "r3"

    def test_join_absent(self, bouquet_example):
        assert bouquet_example.join("a1", "a2") is None

    def test_meet_against_scan(self, bouquet_example, pentagon):
        # exhaustive-scan oracle for the greatest lower bound
        for P in (bouquet_example, pentagon):
            for x in P.elements:
                for y in P.elements:
                    lb = [z for z in P.elements if P.leq(z, x) and P.leq(z, y)]
                    greatest = [z for z in lb if all(P.leq(u, z) for u in lb)]
                    assert P.meet(x, y) == (greatest[0] if greatest else None)

    def test_join_against_scan(self, bouquet_example):
        # exhaustive-scan oracle for the least upper bound
        P = bouquet_example
        for x in P.elements:
            for y in P.elements:
                ub = [z for z in P.elements if P.leq(x, z) and P.leq(y, z)]
                least = [z for z in ub if all(P.leq(z, u) for u in ub)]
                assert P.join(x, y) == (least[0] if least else None)


class TestStructure:
    def test_meet_semilattice(self, bouquet_example, pentagon):
        assert bouquet_example.is_meet_semilattice()
        assert pentagon.is_meet_semilattice()  # lattices are meet semilattices
        antichain = build_poset(["a", "b"], [])
        assert not antichain.is_meet_semilattice()

    def test_geometric_interval(self, bouquet_example):
        P = bouquet_example
        assert P.interval("0", "r3").is_geometric_lattice()

    def test_pentagon_not_geometric(self, pentagon):
        reason, witness = pentagon.geometric_failure()
        assert reason in ("not-atomic", "not-semimodular")
        assert not pentagon.is_geometric_lattice()

    def test_single_chain_not_atomic(self):
        P = build_poset(["0", "a", "b"], [("0", "a"), ("a", "b")])
        assert P.geometric_failure()[0] == "not-atomic"

    def test_bouquet(self, bouquet_example, pentagon, one_atom):
        assert bouquet_example.is_bouquet()
        assert not pentagon.is_bouquet()
        assert one_atom.is_bouquet()

    def test_bouquet_implies_meet_semilattice(self, bouquet_example, one_atom):
        for P in (bouquet_example, one_atom):
            assert not P.is_bouquet() or P.is_meet_semilattice()

    def test_semimodularity_exhaustive(self, bouquet_example):
        # on each geometric interval: x^y covered by x implies y covered by x v y
        P = bouquet_example
        for r in P.maximal:
            I = P.interval("0", r)
            for x in I.elements:
                for y in I.elements:
                    m, j = I.meet(x, y), I.join(x, y)
                    if (m, x) in I.covers:
                        assert y == j or (y, j) in I.covers


def brute_geometric_failure(P):
    """Oracle: meet and join recomputed for every unordered pair, then for
    every ordered pair in the semimodularity test."""
    els = P.elements
    for i, x in enumerate(els):
        for y in els[i + 1:]:
            if P.meet(x, y) is None or P.join(x, y) is None:
                return ("not-lattice", (x, y))
    for x in els:
        below = [a for a in P.atoms if P.leq(a, x)]
        if P.join_all(below) != x:
            return ("not-atomic", (x,))
    for x in els:
        for y in els:
            m = P.meet(x, y)
            j = P.join(x, y)
            if (m, x) in P.covers and (y, j) not in P.covers and y != j:
                return ("not-semimodular", (x, y))
    return None


def lattice_intervals(P):
    """P and its intervals [0, x] and [x, 1]."""
    top = P.maximal[0]
    yield P
    for x in P.elements:
        yield P.interval(P.bottom, x)
        yield P.interval(x, top)


@st.composite
def small_posets(draw):
    """Posets on up to 7 elements in a drawn element order: the covers of
    the transitive closure of a drawn relation i < j, half of the time
    with a bottom and a top added, so that lattices occur often."""
    n = draw(st.integers(1, 7))
    less = {(i, j) for i, j in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14)) if i < j}
    if draw(st.booleans()):
        less |= {(0, j) for j in range(1, n)} | {(i, n - 1) for i in range(n - 1)}
    for k in range(n):
        less |= {(i, j) for i, a in less if a == k for b, j in less if b == k}
    covers = [(f"e{i}", f"e{j}") for i, j in less
              if not any((i, k) in less and (k, j) in less for k in range(n))]
    order = draw(st.permutations([f"e{i}" for i in range(n)]))
    return build_poset(order, covers)


class TestGeometricFailureOracle:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("poset_*.json")))
    def test_poset_fixtures(self, name):
        P = poset_from_json(load_fixture(name))
        for r in P.maximal:
            I = P.interval(P.bottom, r)
            assert I.geometric_failure() == brute_geometric_failure(I)
        assert P.geometric_failure() == brute_geometric_failure(P)

    @pytest.mark.parametrize("elements, covers, reason", [
        (["a", "b"], [], "not-lattice"),
        (["0", "a", "b"], [("0", "a"), ("a", "b")], "not-atomic"),
        # atomic, but 0 = a ^ c is covered by c while a is not covered by
        # a v c = 1
        (["0", "a", "b", "c", "ab", "1"],
         [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("b", "ab"),
          ("ab", "1"), ("c", "1")], "not-semimodular"),
        (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
         None),
    ])
    def test_each_reason(self, elements, covers, reason):
        P = build_poset(elements, covers)
        found = P.geometric_failure()
        assert (found and found[0]) == reason
        assert found == brute_geometric_failure(P)

    @pytest.mark.parametrize("make", [lambda: uniform(4, 9), lambda: graphic_complete(5)],
                             ids=["U(4,9)", "M(K5)"])
    def test_matroid_intervals(self, make):
        for I in lattice_intervals(flat_lattice(make())[0]):
            assert I.geometric_failure() == brute_geometric_failure(I) is None

    @settings(max_examples=300, deadline=None)
    @given(small_posets())
    def test_small_posets(self, P):
        assert P.geometric_failure() == brute_geometric_failure(P)


class TestRank:
    def test_values(self, bouquet_example):
        P = bouquet_example
        assert P.rank("0") == 0
        assert P.rank("a1") == 1
        assert P.rank("r1") == 2

    def test_atoms_have_rank_one(self, bouquet_example, one_atom):
        for P in (bouquet_example, one_atom):
            assert all(P.rank(a) == 1 for a in P.atoms)


class TestInvariants:
    def test_mobius_values(self, bouquet_example):
        P = bouquet_example
        assert P.mobius("a1", "a1") == 1
        assert P.mobius("0", "a1") == -1
        assert P.mobius("0", "r3") == 2

    def test_mobius_against_brute_force(self, bouquet_example, pentagon):
        for P in (bouquet_example, pentagon):
            for x in P.elements:
                for y in P.elements:
                    assert P.mobius(x, y) == brute_mobius(P, x, y)

    def test_mobius_row_sum(self, bouquet_example):
        P = bouquet_example
        for x in P.elements:
            for y in P.elements:
                if P.leq(x, y) and x != y:
                    total = sum(P.mobius(x, z) for z in P.elements
                                if P.leq(x, z) and P.leq(z, y))
                    assert total == 0

    def test_beta(self, bouquet_example, one_atom):
        P = bouquet_example
        assert P.beta("a1") == 1
        assert P.beta("r1") == 0
        assert P.beta("0") == 0
        assert one_atom.beta("0") == 0

    def test_rho(self, bouquet_example, one_atom):
        P = bouquet_example
        assert P.rho("a1") == 2
        assert P.rho("r1") == 0
        assert one_atom.rho("a") == 1

    def test_rho_beta_against_oracle(self, bouquet_example):
        # recompute rho from scratch with the brute-force Möbius recursion
        P = bouquet_example
        ranks = {x: P.rank(x) for x in P.elements}
        for x in P.elements:
            beta = (-1) ** ranks[x] * sum(
                brute_mobius(P, "0", y) * ranks[y]
                for y in P.elements if P.leq(y, x))
            assert P.beta(x) == beta
            rho = beta * sum(abs(brute_mobius(P, x, r))
                             for r in P.maximal if P.leq(x, r))
            assert P.rho(x) == rho


class TestInterval:
    def test_diamond(self, bouquet_example):
        I = bouquet_example.interval("0", "r1")
        assert set(I.elements) == {"0", "a1", "a4", "r1"}

    def test_single(self, bouquet_example):
        I = bouquet_example.interval("a1", "a1")
        assert I.elements == ("a1",)

    def test_not_comparable(self, bouquet_example):
        with pytest.raises(NotComparable):
            bouquet_example.interval("a1", "r3")
