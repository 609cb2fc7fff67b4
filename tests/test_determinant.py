import json
import random
from collections import Counter
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from arrangement_oracle import exact_covectors, random_lines
from bouquetdet import chains, determinant, polyring
from bouquetdet.chains import (WeightAssignment, chain_matrix, make_labeling,
                               min_labeling, weight)
from bouquetdet.com import validate_com, zero_set_poset
from bouquetdet.cli import KINDS, main
from bouquetdet.determinant import (MAX_GROUP_BYTES, VERIFICATION_PRIME,
                                    GramBlockMod, TooLarge, block_decompose,
                                    block_determinants, det_minors, det_mod,
                                    factors_match, group_trials, lane_reducer,
                                    lane_width, verify_theorem)
from bouquetdet.matroid import (bouquet_flat_poset, bouquet_from_json,
                                build_matroid, flat_lattice)
from bouquetdet.polyring import Packing, Polynomial
from bouquetdet.poset import NotABouquet
from conftest import load_fixture, power, verify_default
from ring_ops import (Poly, const, det_via_minors, eval_mod, gram_entries,
                      lift, one, packed_blocks, unpacked_blocks, var,
                      weight_poly, zero)
from test_cli import EXIT_CODES, FIXTURE_FILES, fixture_kind
from test_matroid import graphic_complete, independents, line_in_rank_4, uniform
from test_polyring import power_product, weight_div


def det_cofactor(M):
    """Laplace-expansion determinant: the independent oracle for
    det_minors, limited to dimension 8."""
    n = len(M)
    if n > 8:
        raise TooLarge(f"cofactor expansion limited to dimension 8, got {n}")

    def expand(rows, cols):
        if not rows:
            return one()
        r = rows[0]
        acc = zero()
        for pos, c in enumerate(cols):
            if M[r][c].is_zero():
                continue
            term = M[r][c] * expand(rows[1:], cols[:pos] + cols[pos + 1:])
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc

    return expand(list(range(n)), list(range(n)))


def det_mod_dense(rows, p):
    """Determinant of an integer matrix modulo a prime by dense Gaussian
    elimination, one entry at a time: the oracle for the packed `det_mod`."""
    n = len(rows)
    a = [[x % p for x in row] for row in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det % p
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                for j in range(k, n):
                    a[i][j] = (a[i][j] - f * a[k][j]) % p
    return det % p


def packed_rows(matrices, p):
    """A group of integer matrices, all n x n, as `det_mod` reads them:
    each row one int, each negative entry raised by a multiple of p to
    lie in [p, 2p), entries at or above p kept as they are, all in the
    width `lane_width` gives for the group's largest entry plus the
    n - 1 elimination steps.  Returns (rows of each matrix, width)."""
    matrices = [[[x % p + p if x < 0 else x for x in row] for row in M]
                for M in matrices]
    top = max((x for M in matrices for row in M for x in row), default=0)
    n = len(matrices[0]) if matrices else 0
    width = lane_width(top + max(n - 1, 0) * 3 * p * p, p)
    return [[sum(x << j * width for j, x in enumerate(row)) for row in M]
            for M in matrices], width


def unpacked(rows, width):
    """Packed rows of a square matrix back as lists of their fields."""
    n, mask = len(rows), (1 << width) - 1
    return [[r >> j * width & mask for j in range(n)] for r in rows]


def rhs_product(P, weights):
    """Oracle: the factorization's right-hand side prod over all
    elements x of w(x)^rho(x), expanded, with the exponent table."""
    exponents = {x: P.rho(x) for x in P.elements}
    product = power_product(
        (weight_poly(weight(P, x, weights)), exponents[x]) for x in P.elements)
    return product, exponents


def block_product(blocks):
    """Oracle: the determinant, expanded, as the product of the packed
    (top, dim, layout, det) blocks a report or `block_determinants`
    gives."""
    product = one()
    for _, _, d in unpacked_blocks(blocks):
        product = product * d
    return product


def text_value(text):
    """A printed polynomial or product of factors, parsed and expanded by
    sympy, independently of the library's own arithmetic."""
    return sympy.expand(sympy.sympify(text.replace("^", "**")))


class TestBlockDecompose:
    def test_example_blocks(self, labeled):
        P, lab, w = labeled
        blocks = block_decompose(chain_matrix(P, lab, w))
        assert [len(B) for _, B in blocks] == [1, 1, 2, 1]

    def test_single_block(self, one_atom):
        M = chain_matrix(one_atom, min_labeling(one_atom),
                         WeightAssignment.default(one_atom))
        blocks = block_decompose(M)
        assert len(blocks) == 1 and len(blocks[0][1]) == 1

    def test_u23_single_family(self, u23_lattice):
        P, _ = u23_lattice
        M = chain_matrix(P, min_labeling(P), WeightAssignment.default(P))
        blocks = block_decompose(M)
        assert len(blocks) == 1 and len(blocks[0][1]) == 2


class TestBareiss:
    """det_minors on small cases.  This class and TestBareissOracle keep
    the names they had when they tested the Bareiss elimination that
    det_minors replaced, so that their results compare across that change."""

    def test_1x1(self):
        assert det_via_minors([[var(0) * var(3)]]) == var(0) * var(3)

    def test_empty(self):
        assert det_minors([]) == {0: 1}  # the packed 1, in any layout
        assert det_via_minors([]) == one()

    def test_r3_block(self, labeled):
        P, lab, w = labeled
        M = chain_matrix(P, lab, w)
        block = next(gram_entries(G) for top, G in block_decompose(M) if top == "r3")
        w2, w3, w5 = (var(w.atom_vars[a]) for a in ("a2", "a3", "a5"))
        # cofactor-expansion oracle, frozen:
        # (w2w5 + w3w5)(w2w3 + w3w5) - (w3w5)^2
        expected = w2 * w3 * w5 * (w2 + w3 + w5)
        assert det_via_minors(block) == expected

    def test_diag(self):
        assert det_via_minors([[var(0), zero()],
                               [zero(), var(1)]]) == var(0) * var(1)

    def test_singular(self):
        assert det_via_minors([[var(0), var(0)], [var(0), var(0)]]) == zero()

    def test_row_swap_sign(self):
        z = zero()
        m = [[z, var(0)], [var(1), z]]
        assert det_via_minors(m) == -(var(0) * var(1))


class TestCofactor:
    def test_agrees_with_bareiss(self, labeled, u23_lattice):
        # Named for the elimination det_minors replaced (see TestBareiss).
        P, lab, w = labeled
        for M in (chain_matrix(P, lab, w),
                  chain_matrix(u23_lattice[0], min_labeling(u23_lattice[0]),
                               WeightAssignment.default(u23_lattice[0]))):
            for _, G in block_decompose(M):
                B = gram_entries(G)
                assert det_cofactor(B) == det_via_minors(B)

    def test_1x1(self):
        p = var(0) + var(1)
        assert det_cofactor([[p]]) == p

    def test_diag(self):
        assert det_cofactor([[var(0), zero()],
                             [zero(), var(1)]]) == var(0) * var(1)

    def test_too_large(self):
        m = [[one()] * 9 for _ in range(9)]
        with pytest.raises(TooLarge):
            det_cofactor(m)

    def test_full_matrix_equals_block_product(self, labeled):
        P, lab, w = labeled
        M = chain_matrix(P, lab, w)
        product = one()
        for _, G in block_decompose(M):
            product = product * det_via_minors(gram_entries(G))
        assert det_cofactor(gram_entries(M.vectors)) == product


def random_matrix(rng, n, shape):
    """A seeded sparse n x n matrix over w1..w3: about a third of the
    entries zero, the others up to three terms of degree at most 2 with
    small coefficients, then reshaped:
    - "zero-lead": the top left entry is zero;
    - "swap": column 0 is zero but in the last row, whose entry has one
      term, so every nonzero term pairs row n - 1 with column 0;
    - "dense-top": row 0 has many terms in column 0 and row 1 one;
    - "singular": the last row is w1 * row 0 - 2 * row 1 (w1 * row 0
      when n = 2);
    - "zero-column": the middle column is zero."""
    def term():
        exponents = Counter(rng.choices(range(3), k=rng.randint(0, 2)))
        return Poly({tuple(sorted(exponents.items())):
                     rng.choice([-3, -2, -1, 1, 2, 3])})

    def entry():
        if rng.random() < 0.35:
            return zero()
        return sum((term() for _ in range(rng.randint(1, 3))), zero())

    M = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "zero-lead":
        M[0][0] = zero()
    elif shape == "swap":
        for row in M[:-1]:
            row[0] = zero()
        M[-1][0] = var(rng.randrange(3))
    elif shape == "dense-top":
        M[0][0] = var(0) + var(1) + var(2) + const(5)
        M[1][0] = var(rng.randrange(3))
    elif shape == "singular":
        M[-1] = [var(1) * a - const(2 if n > 2 else 0) * b
                 for a, b in zip(M[0], M[1])]
    elif shape == "zero-column":
        for row in M:
            row[n // 2] = zero()
    return M


class TestBareissOracle:
    """det_minors against independent determinants, sign included."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("shape", ["plain", "zero-lead", "swap", "dense-top",
                                       "singular", "zero-column"])
    def test_equals_cofactor(self, shape, n):
        for seed in range(4):
            M = random_matrix(random.Random(f"{shape} {n} {seed}"), n, shape)
            det = det_via_minors(M)
            assert det == det_cofactor(M)
            if shape in ("singular", "zero-column"):
                assert det.is_zero()

    def test_above_cofactor_limit(self):
        # U(3,6) and U(2,9) have one family block each, of dimension 10
        # and 8: det_minors against the dense mod-p elimination.
        p = VERIFICATION_PRIME
        for r, n, dim in [(3, 6, 10), (2, 9, 8)]:
            P = flat_lattice(uniform(r, n))[0]
            [(_, G)] = block_decompose(chain_matrix(P, min_labeling(P),
                                                    WeightAssignment.default(P)))
            B = gram_entries(G)
            assert len(B) == dim
            det = det_via_minors(B)
            rng = random.Random(10 * r + n)
            for _ in range(3):
                point = {v: rng.randint(1, 10**6) for v in det.variables()}
                rows = [[eval_mod(e, point, p) for e in row] for row in B]
                assert eval_mod(det, point, p) == det_mod_dense(rows, p)
            if dim == 10:
                # Reversing the 10 rows is 5 transpositions.
                assert det_via_minors(B[::-1]) == -det

    def test_no_polynomial_arithmetic(self, monkeypatch):
        # The blocks are packed from the Gram vectors and expanded on
        # packed dicts: no polynomial is built, so none is multiplied.
        P = flat_lattice(graphic_complete(4))[0]
        weights = WeightAssignment.default(P)
        blocks = block_decompose(chain_matrix(P, min_labeling(P), weights))
        B = next(gram_entries(G) for _, G in blocks if len(G) == 6)
        expected = det_cofactor(B)
        calls = []
        init = Polynomial.__init__
        monkeypatch.setattr(Polynomial, "__init__",
                            lambda self, *a: calls.append(1) or init(self, *a))
        packed = block_determinants(P, min_labeling(P), weights)
        assert calls == []
        monkeypatch.undo()
        assert next(d for _, dim, d in unpacked_blocks(packed) if dim == 6) == expected


def random_int_matrix(rng, n, shape):
    """A seeded integer n x n matrix, about a third of the entries zero,
    the others in [-9, 9], near +-p or in [p, 3p), reshaped as in
    `random_matrix`: "zero-lead", "swap" (column 0 nonzero only in the
    last row), and "singular" (the last row is 3 * row 0 - row 1, or
    row 0 at n = 2)."""
    p = VERIFICATION_PRIME
    M = [[0 if rng.random() < 0.35 else
          rng.choice([rng.randint(-9, 9), p - 1, -p - 2, rng.randrange(p, 3 * p)])
          for _ in range(n)] for _ in range(n)]
    if shape == "zero-lead":
        M[0][0] = 0
    elif shape == "swap":
        for row in M[:-1]:
            row[0] = 0
        M[-1][0] = rng.choice([-1, 1]) * rng.randint(1, 9)
    elif shape == "singular" and n > 1:
        M[-1] = [3 * a - b if n > 2 else a for a, b in zip(M[0], M[1])]
    return M


class TestDetMod:
    """The packed-row det_mod against the cofactor determinant reduced
    mod p, and against the dense elimination `det_mod_dense`."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("shape", ["plain", "zero-lead", "swap", "singular"])
    def test_equals_cofactor(self, shape, n):
        p = VERIFICATION_PRIME
        for seed in range(4):
            M = random_int_matrix(random.Random(f"{shape} {n} {seed}"), n, shape)
            expected = det_cofactor([[const(c) for c in row] for row in M])
            assert det_mod(*packed_rows([M], p), p) == [expected.terms.get((), 0) % p]
            if shape == "singular" and n > 1 or shape == "zero-lead" and n == 1:
                assert det_mod(*packed_rows([M], p), p) == [0]

    @pytest.mark.parametrize("n", [7, 12, 25, 40])
    @pytest.mark.parametrize("shape", ["plain", "zero-lead", "swap", "singular"])
    def test_equals_dense(self, shape, n):
        p = VERIFICATION_PRIME
        for seed in range(2):
            M = random_int_matrix(random.Random(f"dense {shape} {n} {seed}"), n, shape)
            [det] = det_mod(*packed_rows([M], p), p)
            assert det == det_mod_dense(M, p)
            if shape == "singular":
                assert det == 0

    def test_last_pivot_takes_no_inverse(self, monkeypatch):
        # One inverse per step for the whole group and none at the last
        # step: a group of 1 x 1 matrices needs none, of n x n ones n - 1,
        # and none is taken once every matrix has dropped out.
        calls = []
        monkeypatch.setattr(determinant, "pow", lambda *a: calls.append(a) or pow(*a),
                            raising=False)
        p = VERIFICATION_PRIME
        assert det_mod(*packed_rows([[[-5]], [[3]]], p), p) == [p - 5, 3]
        assert calls == []
        tridiagonal = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]  # det 4
        reversed_rows = tridiagonal[::-1]  # one transposition: det -4
        dropping = [[1, 2, 5], [3, 6, 1], [2, 4, 7]]  # column 1 = 2 * column 0
        assert det_mod(*packed_rows([tridiagonal, reversed_rows, dropping], p),
                       p) == [4, p - 4, 0]
        assert len(calls) == 2 and all(a[1:] == (-1, p) for a in calls)
        calls.clear()
        assert det_mod(*packed_rows([dropping, dropping], p), p) == [0, 0]
        assert len(calls) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_group_equals_dense(self, data):
        """A group of 1-5 matrices, n from 0 to 8, entries up to a drawn
        top (a digit, about p, a Gram row's fields or far wider, which
        widens the fields), against `det_mod_dense` one matrix at a
        time.  One matrix may have a column k >= 1 that is a combination
        of the earlier ones mod p, so it drops out at step k or before
        while the others go on; one may have a first entry that is 0 mod
        p, so it alone swaps rows at step 0."""
        p = VERIFICATION_PRIME
        n = data.draw(st.integers(0, 8), label="n")
        trials = data.draw(st.integers(1, 5), label="trials")
        top = data.draw(st.sampled_from([9, 3 * p, 64 * p * p, 2 ** 200]), label="top")
        entry = st.one_of(st.integers(0, 9), st.integers(0, top),
                          st.sampled_from([p, 2 * p, top]))
        group = data.draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                                            min_size=n, max_size=n),
                                   min_size=trials, max_size=trials), label="group")
        if n >= 2 and data.draw(st.booleans(), label="singular"):
            M = group[data.draw(st.integers(0, trials - 1))]
            k = data.draw(st.integers(1, n - 1), label="k")
            combination = data.draw(st.lists(st.integers(0, p - 1), min_size=k,
                                             max_size=k))
            lift = data.draw(st.sampled_from([0, p]))
            for row in M:
                row[k] = sum(c * x for c, x in zip(combination, row)) % p + lift
            assert det_mod_dense(M, p) == 0
        if n >= 2 and data.draw(st.booleans(), label="swap"):
            group[data.draw(st.integers(0, trials - 1))][0][0] = data.draw(
                st.sampled_from([0, p]))
        expected = [det_mod_dense(M, p) for M in group]
        assert det_mod(*packed_rows(group, p), p) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lane_reduction(self, data):
        """At the widest fields a width allows (`lane_width`), one Barrett
        step leaves every field congruent to its input mod p and below
        3p, with nothing carried or borrowed across fields."""
        p = data.draw(st.sampled_from([VERIFICATION_PRIME, 2 ** 61 - 1, 65537, 3]))
        width = data.draw(st.integers(1, 300), label="width")
        v = max(v for v in range(width + 1) if lane_width((1 << v) - 1, p) <= width)
        field = st.one_of(st.integers(0, (1 << v) - 1),
                          st.sampled_from([0, (1 << v) - 1, (1 << v) // p * p,
                                           (1 << v) // p * p - 1, p - 1]).filter(
                              lambda x: 0 <= x < 1 << v))
        fields = data.draw(st.lists(field, min_size=1, max_size=6), label="fields")
        X = sum(x << j * width for j, x in enumerate(fields))
        Y = lane_reducer(width, p, len(fields))(X)
        assert 0 <= Y < 1 << len(fields) * width
        for j, x in enumerate(fields):
            y = Y >> j * width & (1 << width) - 1
            assert y % p == x % p and y < 3 * p

    def test_group_sizing(self):
        # Every trial of U(3,6)'s and M(K6)'s blocks in one group of the
        # default 20; a group of one trial once one packed matrix, of
        # dim^2 * width bits, is over MAX_GROUP_BYTES: M(K7)'s block has
        # dimension 720 and fields of at least 131 bits.
        p = VERIFICATION_PRIME
        for matroid, dim in [(uniform(3, 6), 10), (graphic_complete(6), 120)]:
            P = flat_lattice(matroid)[0]
            [(_, G)] = block_decompose(chain_matrix(P, min_labeling(P),
                                                    WeightAssignment.default(P)))
            number = {S: i for i, S in enumerate({S for g in G for S in g})}
            B = GramBlockMod(G, number, p)
            assert B.dim == dim and group_trials(B.dim, B.width) >= 20
        assert group_trials(720, 131) == 1
        bits = 8 * MAX_GROUP_BYTES
        assert [group_trials(1, w)
                for w in (bits + 1, bits, bits // 2, bits // 3)] == [1, 1, 2, 3]
        assert group_trials(0, 1) == bits


class TestRhsProduct:
    def test_example(self, labeled):
        P, lab, w = labeled
        product, exps = rhs_product(P, w)
        v = {a: var(w.atom_vars[a]) for a in P.atoms}
        expected = (power(v["a5"], 3) * power(v["a4"], 2) * v["a3"] * v["a2"]
                    * power(v["a1"], 2) * (v["a2"] + v["a3"] + v["a5"]))
        assert product == expected
        assert exps == {"0": 0, "a1": 2, "a2": 1, "a3": 1, "a4": 2, "a5": 3,
                        "r1": 0, "r2": 0, "r3": 1, "r4": 0}

    def test_one_atom(self, one_atom):
        product, _ = rhs_product(one_atom, WeightAssignment.default(one_atom))
        assert product == var(0)

    def test_u23(self, u23_lattice):
        P, _ = u23_lattice
        product, exps = rhs_product(P, WeightAssignment.default(P))
        w1, w2, w3 = (var(i) for i in range(3))
        assert product == w1 * w2 * w3 * (w1 + w2 + w3)
        # direct beta * |mu(K, top)| recomputation
        from test_poset import brute_mobius  # test_poset imports this module
        for x in P.elements:
            assert exps[x] == P.beta(x) * abs(brute_mobius(P, x, "{1,2,3}"))


class TestVerify:
    def test_example(self, bouquet_example):
        report = verify_default(bouquet_example)
        assert report.verdict
        assert report.sign == 1

    def test_one_atom(self, one_atom):
        report = verify_default(one_atom)
        assert report.verdict and report.sign == 1
        assert block_product(report.blocks) == var(0)
        assert (report.verdict, report.sign) == global_verdict(one_atom)[:2]

    def test_u23(self, u23_lattice):
        P, _ = u23_lattice
        report = verify_default(P)
        w1, w2, w3 = (var(i) for i in range(3))
        assert report.verdict
        assert block_product(report.blocks) == w1 * w2 * w3 * (w1 + w2 + w3)
        assert (report.verdict, report.sign) == global_verdict(P)[:2]

    def test_lone_block_determinant(self, u23_lattice, bouquet_example):
        # The lone block's determinant, unpacked on demand; None for
        # several blocks and in randomized mode.
        P, _ = u23_lattice
        w1, w2, w3 = (var(i) for i in range(3))
        assert verify_default(P).determinant == w1 * w2 * w3 * (w1 + w2 + w3)
        assert verify_default(P, mode="randomized", trials=1).determinant is None
        assert verify_default(bouquet_example).determinant is None

    def test_not_a_bouquet(self, pentagon):
        with pytest.raises(NotABouquet):
            verify_default(pentagon)

    @pytest.mark.parametrize("mode", ["symbolic", "randomized"])
    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trials(self, u23_lattice, mode, trials):
        # no trial would check anything, so there is no verdict to give
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_default(u23_lattice[0], mode=mode, trials=trials)

    def test_randomized_agrees(self, bouquet_example, one_atom, u23_lattice):
        for P in (bouquet_example, one_atom, u23_lattice[0]):
            sym = verify_default(P, mode="symbolic")
            rand = verify_default(P, mode="randomized", trials=20, seed=7)
            assert sym.verdict == rand.verdict
            assert sym.sign == rand.sign

    def test_randomized_negated_block(self, monkeypatch, bouquet_example):
        # One block's determinant negated mod p in every trial: the sign
        # is never -1, so both sides differ and the verdict is false.
        dets = GramBlockMod.dets
        first = []

        def patched(block, powers):
            if not first:
                first.append(block)
            ds = dets(block, powers)
            return [-d % block.p for d in ds] if block is first[0] else ds

        monkeypatch.setattr(GramBlockMod, "dets", patched)
        report = verify_default(bouquet_example, mode="randomized", trials=5, seed=3)
        assert first
        assert (report.verdict, report.sign) == (False, None)

    def test_report_json_shape(self, bouquet_example):
        payload = verify_default(bouquet_example).to_json()
        assert set(payload) >= {"verdict", "sign", "det", "product",
                                "exponents", "blocks", "mode", "trials", "seed"}


def global_verdict(P):
    """Oracle: multiply the block determinants, expand the global
    prod w(x)^rho(x) and compare; (verdict, sign, det, rhs)."""
    weights = WeightAssignment.default(P)
    det = block_product(determinant.block_determinants(P, min_labeling(P), weights))
    rhs, _ = rhs_product(P, weights)
    verdict = det == rhs
    return verdict, 1 if verdict else None, det, rhs


def uniform_bouquet_json(roofs, r, n):
    """`roofs` copies of U(r, n), each sharing r - 1 elements with the
    next, as the bouquet-of-matroids input schema."""
    step = n - (r - 1)
    ground = [f"b{i:02d}" for i in range(roofs * step + r - 1)]
    members = [ground[i * step: i * step + n] for i in range(roofs)]
    independents = sorted({tuple(s) for roof in members
                           for k in range(r + 1) for s in combinations(roof, k)})
    return {"ground": ground, "roofs": members,
            "independents": [list(s) for s in independents]}


def uniform_bouquet(roofs, r, n):
    """The flat poset of `uniform_bouquet_json(roofs, r, n)`."""
    return bouquet_flat_poset(bouquet_from_json(uniform_bouquet_json(roofs, r, n)))[0]


def fixture_poset(name):
    kind = KINDS[fixture_kind(name)]
    return kind.poset(kind.parse(load_fixture(name)))


INSTANCES = {
    **{name: lambda name=name: fixture_poset(name) for name in FIXTURE_FILES
       if name not in EXIT_CODES},
    "U(3,5)": lambda: flat_lattice(uniform(3, 5))[0],
    "U(2,6)": lambda: flat_lattice(uniform(2, 6))[0],
    "M(K4)": lambda: flat_lattice(graphic_complete(4))[0],
    "line in rank 4": lambda: flat_lattice(line_in_rank_4())[0],
    "2xU(3,5)": lambda: uniform_bouquet(2, 3, 5),
    "3xU(2,5)": lambda: uniform_bouquet(3, 2, 5),
}


class TestBlockVerdict:
    """The verdict from factor counts per block against the global
    expand-and-compare."""

    @pytest.mark.parametrize("name", INSTANCES)
    def test_equals_global(self, name):
        P = INSTANCES[name]()
        report = verify_default(P)
        verdict, sign, det, rhs = global_verdict(P)
        assert (report.verdict, report.sign) == (verdict, sign)
        assert block_product(report.blocks) == det
        assert power_product((weight_poly(w), e) for w, e in report.rhs) == rhs

    @staticmethod
    def perturbed(monkeypatch, P, change):
        """Symbolic verify of P with block i's determinant replaced by
        change(i, det, w), w the element weights, and packed in a layout
        of its own variables and degree; the global oracle sees the same
        block determinants.  Returns (report, oracle, number of products
        verify forms outside the block expansions, where a product of the
        blocks or the global right-hand side would be formed: every
        product goes through `mul_into`, and one inside `det_minors` has
        at most one block's degree)."""
        weights = WeightAssignment.default(P)
        w = {x: weight_poly(weight(P, x, weights)) for x in P.elements}
        original = determinant.block_determinants
        monkeypatch.setattr(determinant, "block_determinants", lambda *args: packed_blocks(
            [(top, dim, change(i, lift(d), w))
             for i, (top, dim, d) in enumerate(unpacked_blocks(original(*args)))]))
        expanding, products = [], []
        det_minors, mul_into = determinant.det_minors, determinant.mul_into

        def expand(M):
            expanding.append(1)
            try:
                return det_minors(M)
            finally:
                expanding.pop()

        def multiply(out, a, b):
            if not expanding:
                products.append(1)
            return mul_into(out, a, b)

        monkeypatch.setattr(determinant, "det_minors", expand)
        monkeypatch.setattr(determinant, "mul_into", multiply)
        report = verify_default(P)
        made = len(products)
        return report, global_verdict(P), made

    # Blocks of the worked example, in order: r1, r2, r3, r4; the r3 block
    # is w2*w3*w5*(w2 + w3 + w5), the last factor being w(r3).
    @pytest.mark.parametrize("change, verdict, sign, expansions", [
        pytest.param(lambda i, d, w: d * const(2) if i == 0 else d,
                     False, None, 0, id="scaled"),
        pytest.param(lambda i, d, w: d * w["a1"] if i == 0 else d,
                     False, None, 0, id="extra-factor"),
        pytest.param(lambda i, d, w: d * w["r3"] if i == 0
                     else weight_div(d, w["r3"].variables()) if i == 2 else d,
                     True, 1, 0, id="moved-factor"),
        # Every block determinant has nonnegative coefficients
        # (Cauchy-Binet), so a negated block is a miss.
        pytest.param(lambda i, d, w: -d if i == 1 else d,
                     False, None, 0, id="negated"),
        pytest.param(lambda i, d, w: -(d * w["r3"]) if i == 0
                     else weight_div(d, w["r3"].variables()) if i == 2 else d,
                     False, None, 0, id="moved-factor-negated"),
    ])
    def test_perturbed_blocks(self, monkeypatch, bouquet_example, change,
                              verdict, sign, expansions):
        report, oracle, made = self.perturbed(monkeypatch, bouquet_example, change)
        oracle_verdict, oracle_sign, det, rhs = oracle
        assert (report.verdict, report.sign) == (oracle_verdict, oracle_sign)
        assert (report.verdict, report.sign) == (verdict, sign)
        assert block_product(report.blocks) == det
        assert made == expansions
        block_texts, det_text, product_text = report.texts()
        assert block_texts == [d.to_string() for _, _, d in unpacked_blocks(report.blocks)]
        assert text_value(det_text) == text_value(det.to_string())
        assert text_value(product_text) == text_value(rhs.to_string())


class TestFactorsMatch:
    """The factor count on packed block determinants."""

    def test_one_packing_per_block(self, monkeypatch, bouquet_example):
        # From the Gram vectors to the verdict, the symbolic path builds
        # one layout per block (formatting, which orders terms in a
        # layout of its own, is not run here).
        for P in (bouquet_example, uniform_bouquet(3, 2, 5)):
            weights = WeightAssignment.default(P)
            rhs = [(weight(P, x, weights), P.rho(x)) for x in P.elements if P.rho(x)]
            layouts = []
            init = polyring.Packing.__init__
            monkeypatch.setattr(polyring.Packing, "__init__",
                                lambda self, *a: layouts.append(self) or init(self, *a))
            blocks = block_determinants(P, min_labeling(P), weights)
            assert factors_match(blocks, rhs)
            monkeypatch.undo()
            assert len(blocks) > 1
            assert layouts == [layout for _, _, layout, _ in blocks]

    x0, x1 = var(0), var(1)
    w0, w1, w01 = frozenset({0}), frozenset({1}), frozenset({0, 1})

    @pytest.mark.parametrize("dets, factors, match", [
        pytest.param([one()], [], True, id="constant-1"),
        pytest.param([const(2)], [], False, id="constant-2"),
        pytest.param([zero()], [], False, id="zero"),
        pytest.param([zero()], [(w0, 1)], False, id="zero-with-factor"),
        pytest.param([x0 * (x0 + x1), x1, one()],
                     [(w0, 1), (w1, 1), (w01, 1)], True, id="factors"),
        pytest.param([x0, x1 * (x0 + x1), one()],
                     [(w0, 1), (w1, 1), (w01, 1)], True, id="moved-factor"),
        pytest.param([x0 * x0], [(w0, 1)], False, id="square-for-one"),
        pytest.param([x0], [(w0, 2)], False, id="one-for-square"),
    ])
    def test_degenerate_layouts(self, dets, factors, match):
        blocks = packed_blocks([(f"r{i}", 1, d) for i, d in enumerate(dets)])
        assert factors_match(blocks, factors) is match

    def test_zero_in_block_layout(self):
        # A zero D_r in a layout with variables, which every weight fits:
        # a miss, not a division of zero by w.
        w = frozenset({0, 1})
        assert factors_match([("r", 2, Packing({0, 1}, 2), {})], [(w, 2)]) is False


K4 = graphic_complete(4)


@st.composite
def small_bouquets(draw):
    """The flat lattice of U(r, n) or of a graph on four vertices, or the
    zero-set poset of an arrangement of up to five lines."""
    kind = draw(st.sampled_from(["uniform", "graphic", "lines"]))
    if kind == "uniform":
        r = draw(st.integers(2, 3))
        return flat_lattice(uniform(r, draw(st.integers(r, 6 if r == 2 else 5))))[0]
    if kind == "graphic":
        edges = draw(st.sets(st.sampled_from(K4.ground), min_size=1))
        return flat_lattice(build_matroid(
            sorted(edges), [sorted(s) for s in independents(K4) if s <= edges]))[0]
    n = draw(st.integers(1, 5))
    lines = random_lines(random.Random(draw(st.integers(0, 2 ** 16))), n,
                         draw(st.integers(0, n)))
    return zero_set_poset(validate_com([f"l{i}" for i in range(n)],
                                       exact_covectors(lines)))[0]


class TestSignIsPlusOne:
    """Every block is G^T * diag(w^S) * G, so by Cauchy-Binet no block
    determinant has a negative coefficient and the sign is +1, under any
    labeling and variable order, not only the min-labeling."""

    @settings(max_examples=60, deadline=None)
    @given(small_bouquets(), st.data())
    def test_block_coefficients_nonnegative(self, P, data):
        labeling = make_labeling(P, {
            x: data.draw(st.sampled_from([a for a in P.atoms if P.leq(a, x)]))
            for x in P.elements if x != P.bottom})
        atoms = data.draw(st.permutations(P.atoms))
        weights = WeightAssignment({a: i for i, a in enumerate(atoms)})
        gram = block_decompose(chain_matrix(P, labeling, weights))
        dets = unpacked_blocks(block_determinants(P, labeling, weights))
        for (top, G), (_, dim, d) in zip(gram, dets):
            assert all(c >= 0 for c in d.terms.values())
            if not d.is_zero():
                # The layout lemma (`factors_match`): D_r has every
                # variable of its atom sets and degree dim * rank(r).
                assert d.variables() == {v for g in G for S in g for v, _ in S}
                assert {sum(e for _, e in m) for m in d.terms} == {dim * P.rank(top)}
        report = verify_theorem(P, labeling, weights)
        assert (report.verdict, report.sign) == (True, 1)
        assert all(e >= 0 for e in report.exponents.values())


GRAM_INSTANCES = {
    "U(3,6)": lambda: flat_lattice(uniform(3, 6))[0],
    **{name: INSTANCES[name] for name in ("M(K4)", "3xU(2,5)",
                                          "com_generic_lines.json",
                                          "com_concurrent_lines.json",
                                          "bouquet_example.json")},
}


class TestGramEvaluation:
    """The blocks randomized mode evaluates from the Gram factor against
    `eval_mod` of each entry of the polynomial block."""

    @pytest.mark.parametrize("name", GRAM_INSTANCES)
    def test_blocks_equal_eval_mod(self, name):
        P = GRAM_INSTANCES[name]()
        weights = WeightAssignment.default(P)
        p = VERIFICATION_PRIME
        rng = random.Random(name)
        point = {v: rng.randrange(1, p) for v in weights.atom_vars.values()}
        for _, G in block_decompose(chain_matrix(P, min_labeling(P), weights)):
            B = gram_entries(G)
            number = {S: i for i, S in enumerate({S for g in G for S in g})}
            powers = [0] * len(number)
            for S, i in number.items():
                powers[i] = eval_mod(Polynomial({S: 1}), point, p)
            block = GramBlockMod(G, number, p)
            expected = [[eval_mod(e, point, p) for e in row] for row in B]
            fields = unpacked(block.rows(powers), block.width)
            assert [[x % p for x in row] for row in fields] == expected
            # det_mod's room: n - 1 additions below 3p^2 on top, within
            # the width rule
            top = max((x for row in fields for x in row), default=0)
            assert lane_width(top + max(len(B) - 1, 0) * 3 * p * p, p) <= block.width
            assert block.dets([powers, powers]) == [det_mod_dense(expected, p)] * 2

    def test_no_entry_expanded(self, monkeypatch):
        # Randomized mode builds no polynomial entry and evaluates only
        # the right-hand side's weights, once per trial each, as the
        # sets of their variables' slots in increasing variable order.
        # In groups of 3 trials (so of 3 and 1 here), trial t still
        # evaluates the t-th point the seed draws, trial by trial.
        P = INSTANCES["M(K4)"]()
        weights = WeightAssignment({a: 2 * i + 1 for i, a in enumerate(P.atoms)})
        evaluated, points = [], []
        weight_mod = determinant.weight_mod
        monkeypatch.setattr(determinant, "weight_mod", lambda w, point, p:
                            evaluated.append(w) or points.append(point)
                            or weight_mod(w, point, p))
        monkeypatch.setattr(determinant, "group_trials", lambda dim, width: 3)
        monkeypatch.setattr(chains, "packed_block", None)
        monkeypatch.setattr(determinant, "packed_block", None)
        report = verify_theorem(P, min_labeling(P), weights, mode="randomized",
                                trials=4, seed=9)
        assert report.verdict
        slot = {2 * i + 1: i for i in range(len(P.atoms))}
        assert evaluated == [{slot[v] for v in q} for q, _ in report.rhs] * 4
        rng, p = random.Random(9), VERIFICATION_PRIME
        drawn = [[rng.randrange(1, p) for _ in P.atoms] for _ in range(4)]
        assert points == [point for point in drawn for _ in report.rhs]

    def test_randomized_k5(self):
        # M(K5): one block of dimension 4! = 24, past the cofactor limit.
        P = flat_lattice(graphic_complete(5))[0]
        report = verify_default(P, mode="randomized", trials=3, seed=5)
        assert [d for _, d, *_ in report.blocks] == [24]
        assert report.verdict and report.sign == 1


# Multi-block inputs whose global product of blocks is too large to form
# (4xU(2,5): 39 s and 2.6 GB; 3xU(2,6): out of memory under 3 GiB).
LARGE_BOUQUETS = {"4xU(2,5)": ((4, 2, 5), [4, 4, 4, 4]),
                  "3xU(2,6)": ((3, 2, 6), [5, 5, 5])}


@pytest.mark.parametrize("command", ["verify", "det"])
@pytest.mark.parametrize("name", LARGE_BOUQUETS)
def test_large_bouquet_factored(tmp_path, capsys, name, command):
    shape, dims = LARGE_BOUQUETS[name]
    path = tmp_path / "bouquet.json"
    path.write_text(json.dumps(uniform_bouquet_json(*shape)))
    code = main([command, str(path), "--kind", "bouquet"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.encode()) < 64 * 1024
    payload = json.loads(out)
    assert [b["dim"] for b in payload["blocks"]] == dims
    assert payload["det"] == "*".join(f"({b['det']})" for b in payload["blocks"])
    if command == "verify":
        assert payload["verdict"] is True and payload["sign"] == 1
