import functools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import find, given, settings, strategies as st

from arrangement_oracle import enumerate_covectors
from bouquetdet import poset as poset_mod
from bouquetdet.com import com_from_json, validate_com, zero_set_poset
from bouquetdet.matroid import bouquet_from_json, flat_lattice, matroid_from_json
from bouquetdet.poset import (CycleDetected, NotABouquet, NotRanked,
                              RedundantCover, UnknownElement, build_poset,
                              inclusion_poset, poset_from_json, set_id)
from conftest import FIXTURES, load_fixture
from test_com import zero_set
from test_determinant import uniform_bouquet
from test_matroid import graphic_complete, line_in_rank_4, uniform


def masks(ground, sets):
    """The mask of each set over the positions of `ground`, bit i for ground[i]."""
    return [sum(1 << ground.index(e) for e in s) for s in sets]


def zero_masks(c):
    """The zero set of each covector of the COM c, read off its sign
    string, as a mask over c.ground."""
    return masks(c.ground, (zero_set(c.ground, x) for x in c.covectors))


# -- scan oracles ------------------------------------------------------
#
# The order comes from a search over P.covers, never from the poset's
# own masks, so these check the kernel rather than restate it.

@functools.lru_cache(maxsize=None)
def closure(P):
    """(above, below): x -> frozenset of y >= x, and of y <= x, from the
    reflexive transitive closure of P.covers."""
    succ = {x: [] for x in P.elements}
    for a, b in P.covers:
        succ[a].append(b)
    above = {}
    for x in P.elements:
        seen = {x}
        stack = [x]
        while stack:
            for y in succ[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        above[x] = frozenset(seen)
    below = {x: frozenset(y for y in P.elements if x in above[y]) for x in P.elements}
    return above, below


def scan_leq(P, x, y):
    return y in closure(P)[0][x]


def scan_meet(P, x, y):
    """The common lower bound above all the others, or None."""
    below = closure(P)[1]
    lower = below[x] & below[y]
    return next((m for m in lower if lower <= below[m]), None)


def join_all(P, xs):
    """The common upper bound of `xs` below all the others, or None; for
    the empty set, the least element."""
    above = closure(P)[0]
    upper = frozenset(P.elements).intersection(*(above[x] for x in xs))
    return next((j for j in upper if upper <= above[j]), None)


def scan_join(P, x, y):
    return join_all(P, (x, y))


def interval(P, x, y):
    """Induced subposet on {z : x <= z <= y}."""
    if not scan_leq(P, x, y):
        raise ValueError(f"{x!r} is not below {y!r}")
    above, below = closure(P)
    members = above[x] & below[y]
    return build_poset([z for z in P.elements if z in members],
                       [(a, b) for a, b in P.covers if a in members and b in members])


def ranks(P):
    """x -> rank, or None when P is not ranked."""
    try:
        return {x: P.rank(x) for x in P.elements}
    except NotRanked:
        return None


@functools.lru_cache(maxsize=None)
def brute_mobius(P, x, y):
    """Independent recursion straight from the defining sum, on the
    scanned order."""
    above, below = closure(P)
    if y not in above[x]:
        return 0
    if x == y:
        return 1
    return -sum(brute_mobius(P, x, z) for z in above[x] & below[y] if z != y)


def chain_lengths(P):
    """x -> the lengths of the saturated chains from the bottom up to x;
    all empty when there is no bottom."""
    lengths = {x: set() for x in P.elements}
    if P.bottom is not None:
        stack = [(P.bottom, 0)]
        while stack:
            x, n = stack.pop()
            lengths[x].add(n)
            stack += [(y, n + 1) for y in P.upper_covers(x)]
    return lengths


def brute_invariants(P):
    """x -> (rank, mu(0̂, x), beta, rho) from the chain lengths and
    `brute_mobius`, or None when P has no bottom or is not ranked."""
    lengths = chain_lengths(P)
    if any(len(v) != 1 for v in lengths.values()):
        return None
    rank = {x: min(v) for x, v in lengths.items()}
    above, below = closure(P)
    tops = [r for r in P.elements if above[r] == {r}]
    out = {}
    for x in P.elements:
        beta = (-1) ** rank[x] * sum(brute_mobius(P, P.bottom, y) * rank[y]
                                     for y in below[x])
        rho = beta * sum(abs(brute_mobius(P, x, r)) for r in tops)
        out[x] = (rank[x], brute_mobius(P, P.bottom, x), beta, rho)
    return out


def invariants(P):
    """x -> (rank, mu(0̂, x), beta, rho) as the poset gives them."""
    return {x: (P.rank(x), P.mobius(x), P.beta(x), P.rho(x)) for x in P.elements}


class TestBuild:
    def test_smallest(self):
        P = build_poset(["0", "a1"], [("0", "a1")])
        assert P.bottom == "0"
        assert P.atoms == ("a1",)

    def test_inclusion_poset(self):
        # ab, b, {}, a, b, abc over the ground (c, a, b)
        P, mapping = inclusion_poset(("c", "a", "b"), [0b110, 0b100, 0, 0b010, 0b100, 0b111])
        assert P.elements == ("{}", "{a}", "{b}", "{a,b}", "{a,b,c}")
        assert P.covers == {("{}", "{a}"), ("{}", "{b}"), ("{a}", "{a,b}"),
                            ("{b}", "{a,b}"), ("{a,b}", "{a,b,c}")}
        assert mapping["{a,b}"] == frozenset("ab")

    @settings(max_examples=200, deadline=None)
    @given(st.permutations("abcde"), st.lists(st.frozensets(st.sampled_from("abcde")),
                                              max_size=12))
    def test_inclusion_covers_against_scan(self, ground, sets):
        P, mapping = inclusion_poset(ground, masks(ground, sets))
        distinct = set(sets)
        assert P.covers == {(set_id(a), set_id(b)) for a in distinct for b in distinct
                            if a < b and not any(a < c < b for c in distinct)}
        assert mapping == {set_id(s): s for s in distinct}

    @settings(max_examples=200, deadline=None)
    @given(st.permutations("abcde"), st.lists(st.frozensets(st.sampled_from("abcde")),
                                              max_size=12))
    def test_inclusion_poset_equals_built(self, ground, sets):
        """The masks inclusion_poset passes to the constructor give the
        poset build_poset makes from the covers of a pairwise scan."""
        distinct = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
        covers = [(set_id(a), set_id(b)) for a in distinct for b in distinct
                  if a < b and not any(a < c < b for c in distinct)]
        P = inclusion_poset(ground, masks(ground, sets))[0]
        Q = build_poset([set_id(s) for s in distinct], covers)
        assert (P.elements, P.covers, P.bottom, P.atoms, P.maximal) == \
            (Q.elements, Q.covers, Q.bottom, Q.atoms, Q.maximal)
        assert all(P.upper_covers(x) == Q.upper_covers(x) for x in P.elements)
        assert (P._up, P._down) == (Q._up, Q._down)
        assert ranks(P) == ranks(Q)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_inclusion_poset_equals_built_on_wide_grounds(self, data):
        """As above, over names whose sort order is not their numeric
        order (b10 sorts before b9) and grounds of up to 80 elements,
        past one 64-bit word: the column bitsets and the set masks may
        span several words."""
        n = data.draw(st.integers(1, 80))
        names = data.draw(st.permutations([f"b{i}" for i in range(n)]))
        sets = data.draw(st.lists(st.frozensets(st.sampled_from(names)), max_size=6))
        big = data.draw(st.frozensets(st.sampled_from(names), min_size=n - n // 8))
        sets += [big, big - {names[0]}, frozenset(names)]
        distinct = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
        covers = [(set_id(a), set_id(b)) for a in distinct for b in distinct
                  if a < b and not any(a < c < b for c in distinct)]
        P, mapping = inclusion_poset(names, masks(names, sets))
        Q = build_poset([set_id(s) for s in distinct], covers)
        assert P.elements == Q.elements
        assert (P.covers, P._up, P._down) == (Q.covers, Q._up, Q._down)
        assert mapping == {set_id(s): s for s in distinct}

    def test_inclusion_ids_injective(self):
        # {"a,b"} and {"a", "b"} would both print {a,b} with bare names; a
        # name that is empty or has a comma or a quote is written as its
        # JSON string.
        P, mapping = inclusion_poset(["a,b", "a", "b"], [0, 0b001, 0b110])
        assert P.elements == ("{}", '{"a,b"}', "{a,b}")
        assert mapping == {"{}": frozenset(), '{"a,b"}': frozenset({"a,b"}),
                           "{a,b}": frozenset({"a", "b"})}
        assert set_id([""]) == '{""}' and set_id(['a"b', "c"]) == '{"a\\"b",c}'

    @given(st.sets(st.text(',"{}\\ab', max_size=3), max_size=3),
           st.sets(st.text(',"{}\\ab', max_size=3), max_size=3))
    def test_set_id_injective(self, s, t):
        assert (set_id(s) == set_id(t)) == (s == t)

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

    @pytest.mark.parametrize("seed", ["1", "3"])
    def test_redundant_witness_independent_of_hash_seed(self, seed):
        """With two redundant covers, the first by name is reported under
        every string hash seed (1 and 3 iterate a set of the pairs in
        different orders)."""
        script = ("from bouquetdet.poset import RedundantCover, build_poset\n"
                  "try:\n"
                  "    build_poset(['0', 'a', 'b', 'c'], [('0', 'a'), ('a', 'b'),"
                  " ('b', 'c'), ('0', 'b'), ('a', 'c')])\n"
                  "except RedundantCover as exc:\n"
                  "    print(exc)\n")
        path = [str(Path(poset_mod.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "cover ('0', 'b') implied via 'a'\n"

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownElement):
            build_poset(["a"], [("a", "b")])


def is_meet_semilattice(P):
    """Every pair has a meet, by the scan."""
    els = P.elements
    return all(scan_meet(P, x, y) is not None
               for i, x in enumerate(els) for y in els[i + 1:])


def is_geometric(P):
    """A geometric lattice is a bouquet with one maximal element."""
    return P.bouquet_failure() is None and len(P.maximal) == 1


# 0, atoms a, b, c, d, x above b, c, d and y above a, b, c: atomic, but x
# and y have the common lower bounds 0, b and c, and no meet.
HARD_CASE = (["0", "a", "b", "c", "d", "x", "y"],
             [("0", "a"), ("0", "b"), ("0", "c"), ("0", "d"), ("b", "x"),
              ("c", "x"), ("d", "x"), ("a", "y"), ("b", "y"), ("c", "y")])
# Atomic, but 0 = a ^ c is covered by c while a is not covered by
# a v c = 1; with atom d and a second top r2 above c and d.
NOT_SEMIMODULAR = (["0", "a", "b", "c", "ab", "1"],
                   [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("b", "ab"),
                    ("ab", "1"), ("c", "1")])
TWO_TOPS = (NOT_SEMIMODULAR[0] + ["d", "r2"],
            NOT_SEMIMODULAR[1] + [("0", "d"), ("c", "r2"), ("d", "r2")])


class TestStructure:
    def test_meet_semilattice(self, bouquet_example, pentagon):
        assert is_meet_semilattice(bouquet_example)
        assert is_meet_semilattice(pentagon)  # lattices are meet semilattices
        antichain = build_poset(["a", "b"], [])
        assert not is_meet_semilattice(antichain)
        assert antichain.bouquet_failure() == ("not-lattice", ("a", "b"))

    def test_geometric_interval(self, bouquet_example):
        P = bouquet_example
        assert is_geometric(interval(P, "0", "r3"))

    def test_pentagon_not_geometric(self, pentagon):
        # c lies above the atom a only, and a < c
        assert pentagon.bouquet_failure() == ("not-atomic", ("c",))

    def test_empty_not_geometric(self):
        # A lattice has a bottom, which the empty poset lacks.
        assert build_poset([], []).bouquet_failure() == ("not-lattice", ())

    def test_single_chain_not_atomic(self):
        P = build_poset(["0", "a", "b"], [("0", "a"), ("a", "b")])
        assert P.bouquet_failure() == ("not-atomic", ("b",))

    def test_hard_case(self):
        """Atomic but not a meet semilattice: the at-atoms test rejects
        it, at b v c, which has the two minimal upper bounds x and y."""
        P = build_poset(*HARD_CASE)
        assert not is_meet_semilattice(P) and scan_meet(P, "x", "y") is None
        assert P.bouquet_failure() == ("not-lattice", ("c", "b"))
        assert not brute_is_bouquet(P)

    def test_two_tops(self):
        # The fault of the whole is in [0, 1], though a and d have no join.
        P = build_poset(*TWO_TOPS)
        assert P.bouquet_failure() == ("not-semimodular", ("c", "a"))
        assert brute_geometric_failure(interval(P, "0", "1"))[0] == "not-semimodular"

    def test_require_bouquet(self, bouquet_example, pentagon):
        bouquet_example.require_bouquet()
        with pytest.raises(NotABouquet) as exc:
            pentagon.require_bouquet()
        assert (exc.value.reason, exc.value.witness) == ("not-atomic", ("c",))
        assert str(exc.value) == 'not a bouquet of geometric lattices: not-atomic ["c"]'

    def test_bouquet(self, bouquet_example, pentagon, one_atom):
        assert bouquet_example.is_bouquet()
        assert not pentagon.is_bouquet()
        assert one_atom.is_bouquet()

    def test_bouquet_builds_no_poset(self, monkeypatch):
        # the generic-lines COM's zero-set poset has three tops; the
        # bouquet test runs on the poset itself, with no interval built
        c = com_from_json(load_fixture("com_generic_lines.json"))
        P, _ = inclusion_poset(c.ground, zero_masks(c))
        assert len(P.maximal) == 3
        calls = []
        original = poset_mod.build_poset
        monkeypatch.setattr(poset_mod, "build_poset",
                            lambda *args: calls.append(args) or original(*args))
        assert P.is_bouquet()
        assert calls == []

    def test_bouquet_implies_meet_semilattice(self, bouquet_example, one_atom):
        for P in (bouquet_example, one_atom):
            assert not P.is_bouquet() or is_meet_semilattice(P)

    def test_semimodularity_exhaustive(self, bouquet_example):
        # on each geometric interval: x^y covered by x implies y covered by x v y
        P = bouquet_example
        for r in P.maximal:
            I = interval(P, "0", r)
            for x in I.elements:
                for y in I.elements:
                    m, j = scan_meet(I, x, y), scan_join(I, x, y)
                    if (m, x) in I.covers:
                        assert y == j or (y, j) in I.covers


def brute_semimodular_failure(P):
    """The first ordered pair (x, y), by the scans, where x covers x ^ y
    but x v y neither equals nor covers y."""
    for x in P.elements:
        for y in P.elements:
            m = scan_meet(P, x, y)
            j = scan_join(P, x, y)
            if (m, x) in P.covers and (y, j) not in P.covers and y != j:
                return (x, y)
    return None


def brute_geometric_failure(P):
    """Oracle: meet and join recomputed by the scans for every unordered
    pair, then for every ordered pair in the semimodularity test."""
    els = P.elements
    for i, x in enumerate(els):
        for y in els[i + 1:]:
            if scan_meet(P, x, y) is None or scan_join(P, x, y) is None:
                return ("not-lattice", (x, y))
    for x in els:
        below = [a for a in P.atoms if scan_leq(P, a, x)]
        if join_all(P, below) != x:
            return ("not-atomic", (x,))
    pair = brute_semimodular_failure(P)
    return None if pair is None else ("not-semimodular", pair)


def brute_is_bouquet(P):
    """Oracle, by the definition: a meet semilattice with a bottom whose
    interval below each maximal element is a geometric lattice."""
    return (P.bottom is not None and is_meet_semilattice(P)
            and all(brute_geometric_failure(interval(P, P.bottom, r)) is None
                    for r in P.maximal))


def brute_bouquet_failure(P):
    """Oracle for `bouquet_failure`, in its documented order, on the
    scanned order: the minimal elements; then each x against the join of
    the atoms below it; then, for each x and each atom a not below x
    with a common upper bound, the join a v x and the covers."""
    above, below = closure(P)
    els = P.elements
    minimal = [x for x in els if below[x] == {x}]
    if len(minimal) != 1:
        return ("not-lattice", tuple(minimal[:2]))
    atoms = sorted(a for a in els if below[a] == {minimal[0], a} and a != minimal[0])
    for x in els:
        if join_all(P, [a for a in atoms if a in below[x]]) != x:
            return ("not-atomic", (x,))
    for x in els:
        for a in atoms:
            if a not in below[x] and above[a] & above[x]:
                j = scan_join(P, a, x)
                if j is None:
                    return ("not-lattice", (a, x))
                if (x, j) not in P.covers:
                    return ("not-semimodular", (a, x))
    return None


def lattice_intervals(P):
    """P and its intervals [0, x] and [x, 1]."""
    top = P.maximal[0]
    yield P
    for x in P.elements:
        yield interval(P, P.bottom, x)
        yield interval(P, x, top)


def drawn_relation(draw, n, max_size=14):
    return {(i, j) for i, j in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_size)) if i < j}


def cover_pairs(n, less):
    """The covers of the transitive closure of a relation i < j on range(n)."""
    for k in range(n):
        less |= {(i, j) for i, a in less if a == k for b, j in less if b == k}
    return [(i, j) for i, j in less
            if not any((i, k) in less and (k, j) in less for k in range(n))]


@st.composite
def small_posets(draw):
    """Posets on up to 7 elements in a drawn element order: the covers of
    the transitive closure of a drawn relation i < j, half of the time
    with a bottom and a top added, so that lattices occur often."""
    n = draw(st.integers(1, 7))
    less = drawn_relation(draw, n)
    if draw(st.booleans()):
        less |= {(0, j) for j in range(1, n)} | {(i, n - 1) for i in range(n - 1)}
    covers = [(f"e{i}", f"e{j}") for i, j in cover_pairs(n, less)]
    order = draw(st.permutations([f"e{i}" for i in range(n)]))
    return build_poset(order, covers)


@st.composite
def many_top_posets(draw):
    """Posets with a bottom e0 and mostly several maximal elements, in a
    drawn element order: either two or three small bounded posets (often
    lattices, often geometric ones) glued at their bottoms, or a drawn
    relation with e0 put below everything."""
    if draw(st.booleans()):
        names, covers = ["e0"], []
        for part in range(draw(st.integers(2, 3))):
            n = draw(st.integers(2, 6))
            less = (drawn_relation(draw, n, max_size=4) | {(0, j) for j in range(1, n)}
                    | {(i, n - 1) for i in range(n - 1)})

            def name(i, part=part):
                return f"p{part}e{i}" if i else "e0"
            names += [name(i) for i in range(1, n)]
            covers += [(name(i), name(j)) for i, j in cover_pairs(n, less)]
    else:
        n = draw(st.integers(2, 7))
        less = drawn_relation(draw, n) | {(0, j) for j in range(1, n)}
        names = [f"e{i}" for i in range(n)]
        covers = [(f"e{i}", f"e{j}") for i, j in cover_pairs(n, less)]
    return build_poset(draw(st.permutations(names)), covers)


@st.composite
def atomic_lattices(draw):
    """Atomistic lattices in a drawn element order: a drawn family of
    subsets of up to five points, with the empty set, the points and the
    whole set added and closed under intersection, ordered by inclusion.
    The meet is the intersection, the join the least member above the
    union, and each member is the join of its points."""
    points = "abcde"[:draw(st.integers(2, 5))]
    family = {frozenset(), frozenset(points)} | {frozenset(a) for a in points}
    family |= set(draw(st.lists(st.frozensets(st.sampled_from(points)), max_size=8)))
    while True:
        meets = {a & b for a in family for b in family} - family
        if not meets:
            break
        family |= meets
    P = inclusion_poset(points, masks(points, family))[0]
    return build_poset(draw(st.permutations(P.elements)), P.covers)


@st.composite
def atom_set_posets(draw):
    """A bottom, up to five atoms and elements over drawn atom sets,
    ordered by inclusion, in a drawn element order.  Each element is the
    join of the atoms below it, but the family is not closed under
    intersection, so two elements may have common lower bounds and no
    meet: the case where only the at-atoms test rejects the poset."""
    points = "abcde"[:draw(st.integers(2, 5))]
    family = {frozenset()} | {frozenset(a) for a in points}
    family |= set(draw(st.lists(st.frozensets(st.sampled_from(points), min_size=2),
                                max_size=6)))
    P = inclusion_poset(points, masks(points, family))[0]
    return build_poset(draw(st.permutations(P.elements)), P.covers)


def fixture_poset(name):
    """The poset of a fixture of any kind, built without the bouquet
    check of the adapters."""
    data = load_fixture(name)
    kind = name.split("_")[0]
    if kind == "poset":
        return poset_from_json(data)
    if kind == "matroid":
        return flat_lattice(matroid_from_json(data))[0]
    if kind == "bouquet":
        b = bouquet_from_json(data)
        return inclusion_poset(b.ground, set().union(*(m.flats() for m in b.roof_matroids)))[0]
    c = com_from_json(data)
    return inclusion_poset(c.ground, zero_masks(c))[0]


def down_set(P, x):
    """The elements at or below x, read off the poset's down-mask of x."""
    mask = P._down[P.elements.index(x)]
    return frozenset(y for k, y in enumerate(P.elements) if mask >> k & 1)


def assert_order_matches_scan(P):
    for x in P.elements:
        assert down_set(P, x) == closure(P)[1][x]
        assert P.atoms_below(x) == [a for a in P.elements
                                    if a in P.atoms and scan_leq(P, a, x)]
        for y in P.elements:
            assert P.leq(x, y) == scan_leq(P, x, y)


class TestOrderKernel:
    """The down-masks, leq and atoms_below against the scan oracles."""

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("poset_*.json")))
    def test_poset_fixtures(self, name):
        assert_order_matches_scan(poset_from_json(load_fixture(name)))

    @settings(max_examples=200, deadline=None)
    @given(small_posets())
    def test_small_posets(self, P):
        assert_order_matches_scan(P)


class TestBouquetOracle:
    """is_bouquet against the definition: the semilattice check, then the
    geometric-lattice oracle on the interval below each maximal element."""

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("poset_*.json")))
    def test_poset_fixtures(self, name):
        P = poset_from_json(load_fixture(name))
        assert P.is_bouquet() == brute_is_bouquet(P)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("com_*.json")))
    def test_com_zero_set_posets(self, name):
        c = com_from_json(load_fixture(name))
        P, _ = inclusion_poset(c.ground, zero_masks(c))
        assert P.is_bouquet() is brute_is_bouquet(P) is True

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("bouquet_*.json")))
    def test_matroid_bouquet_posets(self, name):
        b = bouquet_from_json(load_fixture(name))
        P, _ = inclusion_poset(b.ground, set().union(*(m.flats() for m in b.roof_matroids)))
        assert len(P.maximal) > 1
        assert P.is_bouquet() is brute_is_bouquet(P) is True

    def test_glued_lattices(self):
        # U(2,3) and B2 glued at the bottom: a bouquet; with a chain
        # 0 < c < cc added as a third top it is not (cc is not atomic)
        covers = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "abc"), ("b", "abc"),
                  ("c", "abc"), ("0", "d"), ("0", "e"), ("d", "de"), ("e", "de")]
        P = build_poset(["0", "a", "b", "c", "abc", "d", "e", "de"], covers)
        assert P.is_bouquet() is brute_is_bouquet(P) is True
        Q = build_poset(list(P.elements) + ["f", "ff"],
                        covers + [("0", "f"), ("f", "ff")])
        assert Q.is_bouquet() is brute_is_bouquet(Q) is False

    @settings(max_examples=300, deadline=None)
    @given(many_top_posets())
    def test_many_top_posets(self, P):
        assert P.is_bouquet() == brute_is_bouquet(P)

    @settings(max_examples=200, deadline=None)
    @given(small_posets())
    def test_small_posets(self, P):
        assert P.is_bouquet() == brute_is_bouquet(P)

    @settings(max_examples=300, deadline=None)
    @given(atom_set_posets())
    def test_atom_set_posets(self, P):
        assert P.is_bouquet() == brute_is_bouquet(P)

    def test_draws_include_atomic_non_semilattices(self):
        """The drawn family reaches the case of the lemma that no pair
        scan is left to catch: atomic, not a meet semilattice."""
        P = find(atom_set_posets(), lambda P: not is_meet_semilattice(P))
        reason, _ = P.bouquet_failure()
        assert reason != "not-atomic"
        assert not brute_is_bouquet(P)


ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))


class TestBouquetFailureOracle:
    """bouquet_failure, verdict and witness, against the scan oracle in
    the documented order; its verdict against the definition."""

    @staticmethod
    def check(P):
        assert P.bouquet_failure() == brute_bouquet_failure(P)
        assert (P.bouquet_failure() is None) == brute_is_bouquet(P)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, name):
        self.check(fixture_poset(name))

    @pytest.mark.parametrize("case", [HARD_CASE, NOT_SEMIMODULAR, TWO_TOPS],
                             ids=["hard-case", "not-semimodular", "two-tops"])
    def test_cases(self, case):
        self.check(build_poset(*case))

    @settings(max_examples=200, deadline=None)
    @given(small_posets())
    def test_small_posets(self, P):
        self.check(P)

    @settings(max_examples=200, deadline=None)
    @given(many_top_posets())
    def test_many_top_posets(self, P):
        self.check(P)

    @settings(max_examples=200, deadline=None)
    @given(atom_set_posets())
    def test_atom_set_posets(self, P):
        self.check(P)


class TestGeometricFailureOracle:
    """A bouquet with one maximal element against the geometric-lattice
    oracle."""

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("poset_*.json")))
    def test_poset_fixtures(self, name):
        P = poset_from_json(load_fixture(name))
        for r in P.maximal:
            I = interval(P, P.bottom, r)
            assert is_geometric(I) == (brute_geometric_failure(I) is None)
        assert is_geometric(P) == (brute_geometric_failure(P) is None)

    @pytest.mark.parametrize("elements, covers, reason", [
        (["a", "b"], [], "not-lattice"),
        (["0", "a", "b"], [("0", "a"), ("a", "b")], "not-atomic"),
        (*NOT_SEMIMODULAR, "not-semimodular"),
        (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
         None),
    ])
    def test_each_reason(self, elements, covers, reason):
        P = build_poset(elements, covers)
        found = P.bouquet_failure()
        assert (found and found[0]) == reason
        assert found == brute_bouquet_failure(P)
        assert is_geometric(P) == (brute_geometric_failure(P) is None)
        if reason is not None:
            assert brute_geometric_failure(P)[0] == reason

    @pytest.mark.parametrize("make", [lambda: uniform(4, 9), lambda: graphic_complete(5)],
                             ids=["U(4,9)", "M(K5)"])
    def test_matroid_intervals(self, make):
        for I in lattice_intervals(flat_lattice(make())[0]):
            assert is_geometric(I) and brute_geometric_failure(I) is None

    @settings(max_examples=300, deadline=None)
    @given(small_posets())
    def test_small_posets(self, P):
        assert is_geometric(P) == (brute_geometric_failure(P) is None)


class TestSemimodularAtAtoms:
    """The at-atoms test (x v a covers x for every atom a not below x)
    against the pairwise semimodularity scan, on atomistic lattices,
    where it is the only test of the pass that can fail."""

    @settings(max_examples=300, deadline=None)
    @given(atomic_lattices())
    def test_atomic_lattices(self, P):
        failure = P.bouquet_failure()
        assert (failure and failure[0]) in (None, "not-semimodular")
        assert (failure is None) is (brute_semimodular_failure(P) is None)

    def test_draws_include_non_semimodular(self):
        P = find(atomic_lattices(), lambda P: brute_semimodular_failure(P) is not None)
        assert P.bouquet_failure()[0] == "not-semimodular"

    @pytest.mark.parametrize("make", [lambda: uniform(4, 9), lambda: graphic_complete(5)],
                             ids=["U(4,9)", "M(K5)"])
    def test_matroid_intervals(self, make):
        for I in lattice_intervals(flat_lattice(make())[0]):
            assert I.bouquet_failure() is None and brute_semimodular_failure(I) is None


class TestRank:
    def test_values(self, bouquet_example):
        P = bouquet_example
        assert P.rank("0") == 0
        assert P.rank("a1") == 1
        assert P.rank("r1") == 2

    def test_atoms_have_rank_one(self, bouquet_example, one_atom):
        for P in (bouquet_example, one_atom):
            assert all(P.rank(a) == 1 for a in P.atoms)

    @settings(max_examples=200, deadline=None)
    @given(small_posets())
    def test_small_posets(self, P):
        """Ranks against the lengths of all saturated chains from the
        bottom, on posets listed in drawn element orders."""
        lengths = chain_lengths(P)
        if all(len(v) == 1 for v in lengths.values()):
            assert ranks(P) == {x: v.pop() for x, v in lengths.items()}
        else:
            assert ranks(P) is None


# x = 0, y = 0, x + y = 0 and x - y = 0 meet in a 4-fold point, and x = 1
# crosses the other three in double points.
FOUR_FOLD_LINES = [tuple(map(Fraction, line)) for line in
                   [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (1, 0, -1)]]

TABLE_POSETS = {
    "U(2,9)": lambda: flat_lattice(uniform(2, 9))[0],
    "U(4,9)": lambda: flat_lattice(uniform(4, 9))[0],
    "M(K5)": lambda: flat_lattice(graphic_complete(5))[0],
    "line in rank 4": lambda: flat_lattice(line_in_rank_4())[0],
    "3xU(2,5)": lambda: uniform_bouquet(3, 2, 5),
    "2xU(3,5)": lambda: uniform_bouquet(2, 3, 5),
    "4-fold point": lambda: zero_set_poset(validate_com(
        [f"l{i}" for i in range(1, 6)], enumerate_covectors(FOUR_FOLD_LINES)))[0],
}


class TestInvariants:
    def test_mobius_values(self, bouquet_example):
        P = bouquet_example
        assert brute_mobius(P, "a1", "a1") == 1
        assert P.mobius("a1") == -1
        assert P.mobius("r3") == 2

    def test_mobius_against_brute_force(self, bouquet_example, pentagon):
        P = bouquet_example
        for x in P.elements:
            assert P.mobius(x) == brute_mobius(P, "0", x)
        with pytest.raises(NotRanked, match="unequal saturated chain lengths"):
            pentagon.mobius(pentagon.bottom)

    def test_mobius_row_sum(self, bouquet_example):
        """sum_{x<=z<=y} mu(x, z) = 0 for x < y: from the table for x = 0̂,
        and for every x from the recursion, which also passes the column
        sums sum_{x<=z<=y} mu(z, y) = 0."""
        P = bouquet_example
        for x in P.elements:
            for y in P.elements:
                if P.leq(x, y) and x != y:
                    between = [z for z in P.elements if P.leq(x, z) and P.leq(z, y)]
                    assert sum(brute_mobius(P, x, z) for z in between) == 0
                    assert sum(brute_mobius(P, z, y) for z in between) == 0
                    if x == P.bottom:
                        assert sum(P.mobius(z) for z in between) == 0

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

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(small_posets(), many_top_posets()))
    def test_table_small_posets(self, P):
        """The table against the brute-force recursions, and NotRanked
        from every accessor exactly where TestRank expects it; the posets
        with several tops sum |mu(x, r)| over more than one r."""
        expected = brute_invariants(P)
        if expected is None:
            for accessor in (P.rank, P.mobius, P.beta, P.rho):
                with pytest.raises(NotRanked):
                    accessor(P.elements[0])
        else:
            assert invariants(P) == expected

    @pytest.mark.parametrize("name", TABLE_POSETS)
    def test_table_generated(self, name):
        P = TABLE_POSETS[name]()
        assert invariants(P) == brute_invariants(P)


class TestInterval:
    def test_diamond(self, bouquet_example):
        I = interval(bouquet_example, "0", "r1")
        assert set(I.elements) == {"0", "a1", "a4", "r1"}

    def test_single(self, bouquet_example):
        I = interval(bouquet_example, "a1", "a1")
        assert I.elements == ("a1",)

    def test_not_comparable(self, bouquet_example):
        with pytest.raises(ValueError):
            interval(bouquet_example, "a1", "r3")
