import random
from collections import Counter
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrangement_oracle import (CONCURRENT_LINES, GENERIC_LINES,
                                enumerate_covectors, exact_covectors,
                                random_lines)
from bouquetdet.chains import (InvalidLabeling,
                               WeightAssignment, chain_matrix, generators,
                               make_labeling, min_labeling,
                               neat_chain_families, weight)
from bouquetdet.cli import KINDS
from bouquetdet.com import validate_com, zero_set_poset
from bouquetdet.matroid import flat_lattice
from bouquetdet.poset import build_poset
from conftest import load_fixture
from ring_ops import (Poly, gram_entry, monomial_mask, oracle_text, var,
                      weight_poly, zero)
from test_cli import EXIT_CODES, FIXTURE_FILES, fixture_kind
from test_determinant import small_bouquets, uniform_bouquet
from test_matroid import graphic_complete, uniform
from test_poset import down_set, join_all, scan_join


def enumerate_maximal_chains(P):
    """Oracle: all saturated chains atom -> maximal element, listed by
    depth-first search and then sorted lexicographically."""
    chains = []

    def extend(prefix):
        ups = P.upper_covers(prefix[-1])
        if not ups:
            chains.append(tuple(prefix))
            return
        for y in sorted(ups):
            prefix.append(y)
            extend(prefix)
            prefix.pop()

    for a in sorted(P.atoms):
        extend([a])
    chains.sort()
    return chains


def is_neat(P, labeling, chain):
    """Oracle: l(x_i) <= x_i but l(x_i) not below x_{i-1}, reading x_0 as
    the bottom (so the first step always passes)."""
    prev = None
    for x in chain:
        a = labeling[x]
        if not P.leq(a, x):
            return False
        if prev is not None and P.leq(a, prev):
            return False
        prev = x
    return True


def oracle_families(P, labeling):
    """Oracle: the maximal chains filtered by `is_neat`, grouped by top."""
    families = {r: [] for r in P.maximal}
    for c in enumerate_maximal_chains(P):
        if is_neat(P, labeling, c):
            families[c[-1]].append(c)
    return families


def permutation_sign(src, dst):
    """Sign of the permutation carrying tuple src onto dst (same atoms),
    by walking its cycles."""
    pos = {a: i for i, a in enumerate(src)}
    perm = [pos[a] for a in dst]
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def pairwise_chain_matrix(P, labeling, weights):
    """Oracle: entry (C, C') summed pair by pair, over each generator
    tuple of C and each of its reorderings that generates C', with the
    reordering's sign from its cycles.  Both triangles are computed.
    Returns (chains, family tops, family bounds, entries printed by
    `oracle_text`)."""
    families = oracle_families(P, labeling)
    chains, tops, bounds = [], [], []
    for r in P.maximal:
        start = len(chains)
        chains.extend(families[r])
        tops.append(r)
        bounds.append((start, len(chains)))
    gens = [brute_generators(P, c) for c in chains]
    n = len(chains)
    rows = [[zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if len(chains[i]) != len(chains[j]):
                continue
            for a_tuple in gens[i]:
                exponents = Counter(weights.atom_vars[a] for a in a_tuple)
                for b_tuple in gens[j]:
                    if set(b_tuple) == set(a_tuple):
                        rows[i][j] = rows[i][j] + Poly(
                            {tuple(sorted(exponents.items())):
                             permutation_sign(a_tuple, b_tuple)})
    return (tuple(chains), tuple(tops), tuple(bounds),
            tuple(tuple(map(oracle_text, row)) for row in rows))


def inversion_vector(tuples, var):
    """Oracle for a Gram vector: the atom set of each tuple, its
    squarefree monomial read as a variable mask, -> the tuple's sign from
    the inversions of its variables, counted pair by pair.  No two tuples
    may share an atom set."""
    g = {}
    for t in tuples:
        vs = [var[a] for a in t]
        S = monomial_mask(tuple((v, 1) for v in sorted(vs)))
        assert S not in g, t
        inversions = sum(u > v for u, v in combinations(vs, 2))
        g[S] = -1 if inversions & 1 else 1
    return g


def inversion_gram_vectors(P, chains, weights):
    """Oracle for `ChainMatrix.vectors`: the `inversion_vector` of each
    chain's tuples from the exhaustive scan."""
    return tuple(inversion_vector(brute_generators(P, c), weights.atom_vars)
                 for c in chains)


def mask_atoms(S, var):
    """The atoms whose variables are the bits of the mask S."""
    return [a for a, v in var.items() if S >> v & 1]


def brute_generators(P, chain):
    """Exhaustive scan over all ordered atom tuples, for those whose
    partial joins (folded with `scan_join`) trace the chain."""
    k = len(chain)
    out = []
    for tup in permutations(P.atoms, k):
        cur = None
        ok = True
        for a, x in zip(tup, chain):
            cur = a if cur is None else scan_join(P, cur, a)
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
        for z in down_set(P, x):
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
            by_top.setdefault(c[-1], []).append(c)
        assert {t: len(v) for t, v in by_top.items()} == \
            {"r1": 2, "r2": 2, "r3": 3, "r4": 2}

    def test_one_atom(self, one_atom):
        assert enumerate_maximal_chains(one_atom) == [("a",)]

    def test_lengths_match_rank(self, bouquet_example):
        for c in enumerate_maximal_chains(bouquet_example):
            assert len(c) == bouquet_example.rank(c[-1])


class TestNeatness:
    def test_neat_chains(self, bouquet_example):
        P = bouquet_example
        lab = min_labeling(P)
        assert is_neat(P, lab, ("a5", "r4"))
        assert not is_neat(P, lab, ("a4", "r4"))
        neat = [c for c in enumerate_maximal_chains(P) if is_neat(P, lab, c)]
        assert set(neat) == {
            ("a5", "r4"), ("a5", "r3"), ("a5", "r2"), ("a4", "r1"), ("a3", "r3")}

    def test_single_atom_chain(self, one_atom):
        lab = min_labeling(one_atom)
        assert is_neat(one_atom, lab, ("a",))

    def test_definitions_agree_for_convex(self, bouquet_example):
        # For a convex labeling, a chain is neat iff its labels are distinct.
        P = bouquet_example
        lab = min_labeling(P)
        for c in enumerate_maximal_chains(P):
            labels = [lab[x] for x in c]
            assert is_neat(P, lab, c) == (len(set(labels)) == len(labels))

    def test_families(self, bouquet_example, one_atom):
        fams = neat_chain_families(bouquet_example, min_labeling(bouquet_example))
        assert fams["r1"] == [("a4", "r1")]
        assert set(fams["r3"]) == {("a3", "r3"), ("a5", "r3")}
        fams1 = neat_chain_families(one_atom, min_labeling(one_atom))
        assert fams1["a"] == [("a",)]


class TestGenerators:
    """`generators` gives a chain's Gram vector, keyed by atom-set masks,
    against the exhaustive scan and the inversions of each tuple."""

    def test_examples(self, bouquet_example):
        # a1, ..., a5 on w1, ..., w5: (a5, a2) and (a5, a3) each have one
        # inversion, (a3, a2) one and (a3, a5) none.
        P = bouquet_example
        var = WeightAssignment.default(P).atom_vars
        mask = lambda *atoms: sum(1 << var[a] for a in atoms)
        assert generators(P, ("a5", "r3"), WeightAssignment(var)) == {
            mask("a5", "a2"): -1, mask("a5", "a3"): -1}
        assert generators(P, ("a3", "r3"), WeightAssignment(var)) == {
            mask("a3", "a2"): -1, mask("a3", "a5"): 1}

    def test_single(self, one_atom):
        assert generators(one_atom, ("a",), WeightAssignment({"a": 0})) == {1: 1}
        assert generators(one_atom, ("a",), WeightAssignment({"a": 3})) == {8: 1}

    def test_against_brute_force(self, bouquet_example):
        P = bouquet_example
        var = WeightAssignment.default(P).atom_vars
        for c in enumerate_maximal_chains(P):
            assert generators(P, c, WeightAssignment(var)) == inversion_vector(
                brute_generators(P, c), var)

    def test_tuples_distinct_and_join_to_top(self, bouquet_example):
        P = bouquet_example
        var = WeightAssignment.default(P).atom_vars
        for c in enumerate_maximal_chains(P):
            for S in generators(P, c, WeightAssignment(var)):
                atoms = mask_atoms(S, var)
                assert len(atoms) == len(c)
                assert join_all(P, atoms) == c[-1]

    @pytest.mark.parametrize("name", [
        *(n for n in FIXTURE_FILES if n != "poset_pentagon.json"),
        "U(3,6)", "M(K4)", "3xU(2,5)"])
    def test_levels(self, name):
        """The level product against the exhaustive scan; no two tuples
        of a chain share an atom set, so the vector has one key per tuple
        and every stored Gram coefficient is +-1."""
        P = {"U(3,6)": lambda: flat_lattice(uniform(3, 6))[0],
             "M(K4)": lambda: flat_lattice(graphic_complete(4))[0],
             "3xU(2,5)": lambda: uniform_bouquet(3, 2, 5)}.get(
                 name, lambda: _fixture_poset(name))()
        var = WeightAssignment.default(P).atom_vars
        for c in enumerate_maximal_chains(P):
            tuples = brute_generators(P, c)
            assert len({frozenset(t) for t in tuples}) == len(tuples)
            assert generators(P, c, WeightAssignment(var)) == inversion_vector(tuples, var)
        M = chain_matrix(P, min_labeling(P), WeightAssignment.default(P))
        assert all(c in (1, -1) for g in M.vectors for c in g.values())


class TestWeight:
    def test_values(self, labeled):
        P, _, w = labeled
        w2, w3, w5 = (var(w.atom_vars[a]) for a in ("a2", "a3", "a5"))
        assert weight_poly(weight(P, "r3", w)) == w2 + w3 + w5
        for a in P.atoms:
            assert weight_poly(weight(P, a, w)) == var(w.atom_vars[a])
        assert weight_poly(weight(P, "0", w)) == zero()
        assert weight(P, "r3", w) == sum(1 << w.atom_vars[a] for a in ("a2", "a3", "a5"))

    def test_not_injective(self, bouquet_example):
        # a1 and a2 on one variable would share atom sets across families
        # (entry ([a5 < r2], [a5 < r3]) would be w1*w5): refused before any
        # matrix is built.
        atom_vars = {a: i for i, a in enumerate(bouquet_example.atoms)}
        atom_vars["a2"] = atom_vars["a1"]
        with pytest.raises(ValueError, match=r"^atoms 'a1' and 'a2' share the "
                                             r"variable w1; weights must be injective$"):
            WeightAssignment(atom_vars)


class TestChainMatrix:
    def test_printed_entries(self, labeled):
        P, lab, w = labeled
        M = chain_matrix(P, lab, w)
        v = {a: var(w.atom_vars[a]) for a in P.atoms}
        at = lambda *els: M.chains.index(els)
        entry = lambda ci, cj: M.entries[at(*ci)][at(*cj)]
        assert entry(("a4", "r1"), ("a4", "r1")) == oracle_text(v["a1"] * v["a4"])
        assert entry(("a5", "r2"), ("a5", "r2")) == oracle_text(v["a1"] * v["a5"])
        assert entry(("a5", "r3"), ("a5", "r3")) == \
            oracle_text(v["a2"] * v["a5"] + v["a3"] * v["a5"])
        assert entry(("a3", "r3"), ("a3", "r3")) == \
            oracle_text(v["a2"] * v["a3"] + v["a3"] * v["a5"])
        assert entry(("a5", "r3"), ("a3", "r3")) == oracle_text(-(v["a3"] * v["a5"]))
        assert entry(("a5", "r4"), ("a5", "r4")) == oracle_text(v["a4"] * v["a5"])
        # every remaining pair is zero, formed from the Gram vectors
        for i in range(M.dim):
            for j in range(M.dim):
                if i != j and {M.chains[i][-1], M.chains[j][-1]} != {"r3"}:
                    assert gram_entry(M.vectors[i], M.vectors[j]).is_zero()
                    assert M.entries[i][j] == "0"

    def test_one_atom(self, one_atom):
        M = chain_matrix(one_atom, min_labeling(one_atom),
                         WeightAssignment.default(one_atom))
        assert M.dim == 1
        assert M.entries[0][0] == "w1"

    def test_u23(self, u23_lattice):
        P, _ = u23_lattice
        M = chain_matrix(P, min_labeling(P), WeightAssignment.default(P))
        assert M.dim == 2
        assert M.entries == (("w1*w2 + w2*w3", "-w2*w3"),
                             ("-w2*w3", "w1*w3 + w2*w3"))

    def test_symmetry(self, labeled, u23_lattice):
        P, lab, w = labeled
        for M in (chain_matrix(P, lab, w),
                  chain_matrix(u23_lattice[0], min_labeling(u23_lattice[0]),
                               WeightAssignment.default(u23_lattice[0]))):
            for i in range(M.dim):
                for j in range(M.dim):
                    assert M.entries[i][j] == M.entries[j][i]

    def test_diagonal_positive(self, labeled):
        # every coefficient of a diagonal entry is positive: no "-" is
        # printed, and none is "0"
        P, lab, w = labeled
        M = chain_matrix(P, lab, w)
        for i in range(M.dim):
            assert "-" not in M.entries[i][i] and M.entries[i][i] != "0"
            assert all(c > 0 for c in gram_entry(M.vectors[i], M.vectors[i]).terms.values())


def _com_poset(lines):
    return zero_set_poset(validate_com(["l1", "l2", "l3"],
                                       enumerate_covectors(lines)))[0]


def _fixture_poset(name):
    kind = KINDS[fixture_kind(name)]
    return kind.poset(kind.parse(load_fixture(name)))


ORACLE_POSETS = {
    **{name: lambda name=name: _fixture_poset(name)
       for name in FIXTURE_FILES if name != "poset_pentagon.json"},
    "generic lines": lambda: _com_poset(GENERIC_LINES),
    "concurrent lines": lambda: _com_poset(CONCURRENT_LINES),
    "U(2,4)": lambda: flat_lattice(uniform(2, 4))[0],
    "U(3,6)": lambda: flat_lattice(uniform(3, 6))[0],
    "U(2,7)": lambda: flat_lattice(uniform(2, 7))[0],
    "M(K4)": lambda: flat_lattice(graphic_complete(4))[0],
}

# the oracle posets and two larger ones, for the generator-sign oracle
GRAM_POSETS = {
    **ORACLE_POSETS,
    "M(K5)": lambda: flat_lattice(graphic_complete(5))[0],
    "3xU(2,5)": lambda: uniform_bouquet(3, 2, 5),
}


def _atom_order(P, order):
    """The atoms in the default order, reversed, or shuffled."""
    atoms = list(P.atoms)
    if order == "reversed":
        atoms.reverse()
    elif order == "shuffled":
        random.Random(len(atoms)).shuffle(atoms)
    return atoms


class TestAgainstOracles:
    """Neat chains grown cover by cover and the Gram-product chain
    matrix, against the maximal-chain filter and the pairwise matrix."""

    @staticmethod
    def check(P, labeling, weights):
        assert list(neat_chain_families(P, labeling).items()) == \
            list(oracle_families(P, labeling).items())
        M = chain_matrix(P, labeling, weights)
        assert (M.chains, M.family_tops, M.family_bounds, M.entries) == \
            pairwise_chain_matrix(P, labeling, weights)
        assert all(all(g.values()) for g in M.vectors)

    @pytest.mark.parametrize("order", ["default", "reversed", "shuffled"])
    @pytest.mark.parametrize("name", ORACLE_POSETS)
    def test_min_labeling(self, name, order):
        # The min-labeling and the variables follow one atom order, as in
        # the CLI's --atom-order; away from the default order the variable
        # order differs from the atom-name order.
        P = ORACLE_POSETS[name]()
        atoms = _atom_order(P, order)
        self.check(P, min_labeling(P, atoms),
                   WeightAssignment({a: i for i, a in enumerate(atoms)}))

    @pytest.mark.parametrize("order", ["default", "reversed", "shuffled"])
    @pytest.mark.parametrize("name", GRAM_POSETS)
    def test_gram_signs(self, name, order):
        P = GRAM_POSETS[name]()
        atoms = _atom_order(P, order)
        weights = WeightAssignment({a: i for i, a in enumerate(atoms)})
        M = chain_matrix(P, min_labeling(P, atoms), weights)
        assert M.vectors == inversion_gram_vectors(P, M.chains, weights)

    @pytest.mark.parametrize("order", ["default", "reversed", "shuffled"])
    def test_explicit_labeling(self, bouquet_example, order):
        # Each element labeled by the last atom below it in name order,
        # which is not the min-labeling.
        P = bouquet_example
        labels = {x: max(a for a in P.atoms if P.leq(a, x))
                  for x in P.elements if x != P.bottom}
        labeling = make_labeling(P, labels)
        assert labeling != min_labeling(P)
        atoms = _atom_order(P, order)
        self.check(P, labeling,
                   WeightAssignment({a: i for i, a in enumerate(atoms)}))


class TestSignRule:
    """The sign rule of `generators`, a flip per odd count of variables
    above the new one, where it could break: numberings with gaps and not
    monotone in atom order, against the inversion oracle over the
    exhaustive scan, and the entries against the pairwise matrix."""

    @staticmethod
    def check(P, seed):
        n = len(P.atoms)
        numbers = random.Random(seed).sample(range(4 * n + 3), n)
        assume(max(numbers, default=n) >= n)  # some number below is skipped
        assume(n < 2 or numbers != sorted(numbers))
        weights = WeightAssignment(dict(zip(P.atoms, numbers)))
        labeling = min_labeling(P)
        M = chain_matrix(P, labeling, weights)
        assert M.vectors == inversion_gram_vectors(P, M.chains, weights)
        assert (M.chains, M.family_tops, M.family_bounds, M.entries) == \
            pairwise_chain_matrix(P, labeling, weights)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]),
           st.integers(0, 2 ** 16))
    def test_uniform_bouquets(self, roofs, shape, seed):
        self.check(uniform_bouquet(roofs, *shape), seed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 16),
           st.integers(0, 2 ** 16))
    def test_line_coms(self, n, concurrent, lines_seed, seed):
        lines = random_lines(random.Random(lines_seed), n, min(concurrent, n))
        names = [f"l{i}" for i in range(n)]
        self.check(zero_set_poset(validate_com(names, exact_covectors(lines)))[0], seed)


def assert_block_diagonal(P):
    """The lemma in the `chain_matrix` docstring, on every maximal chain,
    so under every labeling: the atoms of each atom set of a chain of
    family r join to r (folded with `scan_join`), so no atom set lies in
    two families."""
    assert P.is_bouquet()
    var = WeightAssignment.default(P).atom_vars
    family: dict[int, str] = {}
    for c in enumerate_maximal_chains(P):
        for S in generators(P, c, WeightAssignment(var)):
            assert reduce(lambda x, a: scan_join(P, x, a), mask_atoms(S, var)) == c[-1]
            assert family.setdefault(S, c[-1]) == c[-1]


class TestBlockDiagonal:
    @pytest.mark.parametrize("name", sorted(set(FIXTURE_FILES) - set(EXIT_CODES)))
    def test_fixtures(self, name):
        assert_block_diagonal(_fixture_poset(name))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]))
    def test_uniform_bouquets(self, roofs, shape):
        assert_block_diagonal(uniform_bouquet(roofs, *shape))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 16))
    def test_arrangement_coms(self, n, concurrent, seed):
        lines = random_lines(random.Random(seed), n, min(concurrent, n))
        names = [f"l{i}" for i in range(n)]
        assert_block_diagonal(zero_set_poset(validate_com(names, exact_covectors(lines)))[0])


class TestFamilyWeight:
    """The fact the layout test of `determinant.factors_match` rests on:
    the variables of family r's block, the OR of its atom-set masks, are
    those of w(r), and w(x) lies within w(r) exactly when x <= r, so block
    r is tried on the weights of the elements below r.  Under injective
    variable numberings with gaps."""

    @staticmethod
    def check(P, seed):
        n = len(P.atoms)
        numbers = random.Random(seed).sample(range(4 * n + 3), n)
        assume(max(numbers, default=n) >= n)  # some number below is skipped
        weights = WeightAssignment(dict(zip(P.atoms, numbers)))
        M = chain_matrix(P, min_labeling(P), weights)
        for r, (start, stop) in zip(M.family_tops, M.family_bounds):
            if start == stop:
                continue
            w_r = weight(P, r, weights)
            assert reduce(or_, (S for g in M.vectors[start:stop] for S in g)) == w_r
            for x in P.elements:
                assert (weight(P, x, weights) & ~w_r == 0) == P.leq(x, r)

    @settings(max_examples=30, deadline=None)
    @given(small_bouquets(), st.integers(0, 2 ** 16))
    def test_small_bouquets(self, P, seed):
        self.check(P, seed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]),
           st.integers(0, 2 ** 16))
    def test_uniform_bouquets(self, roofs, shape, seed):
        self.check(uniform_bouquet(roofs, *shape), seed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 16),
           st.integers(0, 2 ** 16))
    def test_line_coms(self, n, concurrent, lines_seed, seed):
        lines = random_lines(random.Random(lines_seed), n, min(concurrent, n))
        names = [f"l{i}" for i in range(n)]
        self.check(zero_set_poset(validate_com(names, exact_covectors(lines)))[0], seed)
