import pytest

from bouquetdet.poset import (CycleDetected, NotComparable, RedundantCover,
                              UnknownElement, build_poset, inclusion_poset)


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
