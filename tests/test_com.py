import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from arrangement_oracle import (CONCURRENT_LINES, GENERIC_LINES,
                                SEVEN_LINES, enumerate_covectors,
                                exact_covectors, random_lines)
from bouquetdet import com as com_mod
from bouquetdet.com import (FSViolation, GroundMismatch, SEViolation,
                            com_from_json, validate_com, zero_set,
                            zero_set_poset)
from bouquetdet.matroid import flat_lattice, matroid_from_json
from conftest import FIXTURES, load_fixture, verify_default

E3 = ("l1", "l2", "l3")


def negate(x):
    return x.translate(str.maketrans("+-", "-+"))


def composition(x, y):
    """(X o Y)_e = X_e where nonzero, else Y_e."""
    return "".join(a if a != "0" else b for a, b in zip(x, y))


def face(c, x):
    """F(X) = {X o Y : Y in L} of a covector X of the COM c."""
    return sorted({composition(x, y) for y in c.covectors})


@pytest.fixture(scope="module")
def generic():
    return com_from_json(load_fixture("com_generic_lines.json"))


@pytest.fixture(scope="module")
def concurrent():
    return com_from_json(load_fixture("com_concurrent_lines.json"))


class TestSignVectorOps:
    def test_composition_idempotent(self):
        assert composition("+-0", "+-0") == "+-0"
        assert composition("0+0", "-0-") == "-+-"

    def test_zero_set_support(self):
        assert zero_set(E3, "0+0") == {"l1", "l3"}
        assert set(E3) - zero_set(E3, "0+0") == {"l2"}

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            zero_set(E3, "+-")


class TestValidation:
    def test_fixtures_match_grid_oracle(self):
        # the shipped fixture files are exactly what the exact
        # point-enumeration oracle produces
        assert load_fixture("com_generic_lines.json")["covectors"] == \
            enumerate_covectors(GENERIC_LINES)
        assert load_fixture("com_concurrent_lines.json")["covectors"] == \
            enumerate_covectors(CONCURRENT_LINES)

    def test_line_fixtures_are_coms(self, generic, concurrent):
        assert len(generic.covectors) == 19
        assert len(concurrent.covectors) == 13

    def test_duplicate_ground_names(self):
        # Two crossing lines: all nine sign vectors.  One name for both
        # lines would merge their zero sets into a different poset.
        crossing = ["".join(v) for v in product("+-0", repeat=2)]
        assert validate_com(["l1", "l2"], crossing).is_om()
        with pytest.raises(GroundMismatch, match="duplicate ground"):
            validate_com(["l1", "l1"], crossing)

    def test_zero_vector_alone_is_om(self):
        c = validate_com(["e"], ["0"])
        assert c.is_om()

    def test_single_positive_covector(self):
        c = validate_com(["e"], ["+"])
        assert not c.is_om()

    def test_fs_violation(self):
        # {0, +} lacks 0 o (-(+)) = -
        with pytest.raises(FSViolation):
            validate_com(["e"], ["0", "+"])

    def test_se_violation(self):
        # +- and -+ compose fine under FS closure but eliminating l1
        # needs a covector 0? which is absent
        with pytest.raises(SEViolation) as info:
            validate_com(["l1", "l2"], ["+-", "-+", "++", "--"])
        assert info.value.witness == ("+-", "-+", "l1")

    def test_se_witness_from_unequal_supports(self):
        # (++, --) is the first failing pair of equal support, but the
        # first failing pair in input order is (++, -0): no 0+ at e0
        with pytest.raises(SEViolation) as info:
            validate_com(["e0", "e1"], ["++", "-0", "--", "-+"])
        assert info.value.witness == ("++", "-0", "e0")

    def test_om_flags(self, generic, concurrent):
        assert concurrent.is_om()
        assert not generic.is_om()

    def test_fs_implies_composition(self, generic, concurrent):
        for c in (generic, concurrent):
            pool = set(c.covectors)
            for x in c.covectors:
                for y in c.covectors:
                    assert composition(x, y) in pool


def brute_force_com(ground, covectors):
    """Oracle for validate_com: the FS and SE axioms checked straight from
    their definitions, scanning every covector Z for every ordered pair
    (X, Y) and every separating element e."""
    ground = tuple(ground)
    vecs = list(dict.fromkeys(covectors))
    pool = frozenset(vecs)
    for x in vecs:
        for y in vecs:
            if composition(x, negate(y)) not in pool:
                raise FSViolation(x, y)
    for x in vecs:
        for y in vecs:
            sep = [i for i, (a, b) in enumerate(zip(x, y))
                   if a != "0" and b != "0" and a != b]
            comp = composition(x, y)
            for e in sep:
                if not any(z[e] == "0" and all(z[f] == comp[f] for f in range(len(ground))
                                               if f not in sep)
                           for z in vecs):
                    raise SEViolation(x, y, ground[e])
    return tuple(vecs)


def outcome(validate, ground, covectors):
    """The covectors on success, else the exception class and witness."""
    try:
        result = validate(ground, covectors)
    except (FSViolation, SEViolation) as exc:
        return type(exc), exc.witness
    return getattr(result, "covectors", result)


def validated(ground, covectors):
    """validate_com's outcome, and the number of times it ran the
    pair-by-pair SE rescan."""
    calls = []
    original = com_mod._se_witness
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(com_mod, "_se_witness", lambda *args: calls.append(args) or original(*args))
        return outcome(validate_com, ground, covectors), len(calls)


def assert_matches_brute_force(ground, covectors):
    """validate_com gives the oracle's outcome, which is returned; an SE
    failure is found by the rescan, and a COM passes SE on the face
    certificate alone."""
    expected = outcome(brute_force_com, ground, covectors)
    got, rescans = validated(ground, covectors)
    assert got == expected
    assert rescans >= 1 if expected[:1] == (SEViolation,) else rescans == 0
    return expected


def fs_closure(vecs):
    closed = set(vecs)
    while True:
        new = {composition(x, negate(y)) for x in closed for y in closed} - closed
        if not new:
            return sorted(closed)
        closed |= new


@st.composite
def sign_vector_sets(draw):
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.text("+-0", min_size=n, max_size=n), max_size=8))
    if draw(st.booleans()):
        # FS holds after closing, so strong elimination decides
        vecs = draw(st.permutations(fs_closure(vecs)))
    return [f"e{i}" for i in range(n)], vecs


def perturb(rng, covectors):
    """A line COM with covectors dropped, a +- pair dropped, signs flipped
    or a covector repeated, then possibly shuffled."""
    vecs = list(covectors)
    how = rng.randrange(4)
    if how == 0:
        for _ in range(rng.randint(1, 3)):
            vecs.pop(rng.randrange(len(vecs)))
    elif how == 1:
        x = rng.choice(vecs)
        vecs = [y for y in vecs if y not in (x, negate(x))]
    elif how == 2:
        for _ in range(rng.randint(1, 2)):
            k, f = rng.randrange(len(vecs)), rng.randrange(len(vecs[0]))
            vecs[k] = vecs[k][:f] + rng.choice("+-0".replace(vecs[k][f], "")) + vecs[k][f + 1:]
    else:
        vecs.append(rng.choice(vecs))
    if rng.random() < 0.5:
        rng.shuffle(vecs)
    return vecs


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(sign_vector_sets())
    def test_sign_vector_sets(self, case):
        ground, vecs = case
        assert_matches_brute_force(ground, vecs)

    def test_perturbed_line_coms(self):
        rng = random.Random(4)
        seen = set()
        for lines in (GENERIC_LINES, CONCURRENT_LINES):
            base = enumerate_covectors(lines)
            ground = [f"l{i + 1}" for i in range(len(lines))]
            for vecs in [base] + [perturb(rng, base) for _ in range(150)]:
                expected = assert_matches_brute_force(ground, vecs)
                seen.add(expected[0] if isinstance(expected[0], type) else "ok")
        assert seen == {"ok", FSViolation, SEViolation}

    def test_perturbed_seven_lines(self):
        base = enumerate_covectors(SEVEN_LINES)
        # every face is sampled: 1 + 7 + sum(m_v - 1) = 20 regions and
        # 7 + sum(m_v) = 28 edges over the 9 vertices
        assert [sum(x.count("0") == k for x in base) for k in (0, 1)] == [20, 28]
        assert len(base) == 20 + 28 + 9
        ground = [f"l{i + 1}" for i in range(len(SEVEN_LINES))]
        rng = random.Random(4)
        cases = [base] + [perturb(rng, base) for _ in range(40)]
        # without a vertex, SE fails first on two edges of one line
        cases += [[x for x in base if x != v] for v in base if v.count("0") > 1]
        seen = set()
        for vecs in cases:
            expected = assert_matches_brute_force(ground, vecs)
            if expected[0] is SEViolation:
                x, y, _ = expected[1]
                seen.add("tope pair" if "0" not in x + y else "face pair")
            else:
                seen.add(expected[0] if isinstance(expected[0], type) else "ok")
        assert {"ok", FSViolation, "face pair"} <= seen


class TestFaceCertificate:
    """Valid COMs pass strong elimination on the face certificate alone:
    the pair-by-pair rescan never runs."""

    def test_parallel_class_face(self):
        # e0 and e1 are parallel: the only proper face of ++ is 00, with
        # D = {e0, e1}, so a certificate from faces with |D| = 1 would fail
        vecs = ["++", "--", "00"]
        assert validated(["e0", "e1"], vecs) == (tuple(vecs), 0)

    def test_rank_one_om_on_forty_elements(self):
        # The zero set of 0...0 is all 40 positions, but the restrictions
        # of -Y to it are three: enumerating sign patterns rather than
        # nonempty column bitsets would take 3^40 steps.
        vecs = ["0" * 40, "+" * 40, "-" * 40]
        start = time.perf_counter()
        assert validated([f"e{i}" for i in range(40)], vecs) == (tuple(vecs), 0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("com_*.json")))
    def test_fixtures(self, name):
        data = load_fixture(name)
        assert validated(data["ground"], data["covectors"]) == (tuple(data["covectors"]), 0)

    @pytest.mark.parametrize("lines", [GENERIC_LINES, CONCURRENT_LINES, SEVEN_LINES],
                             ids=["generic", "concurrent", "seven"])
    def test_oracle_bases(self, lines):
        vecs = enumerate_covectors(lines)
        assert exact_covectors(lines) == vecs
        ground = [f"l{i + 1}" for i in range(len(lines))]
        assert validated(ground, vecs) == (tuple(vecs), 0)

    @pytest.mark.parametrize("n, concurrent", [(10, 0), (10, 4), (20, 4), (30, 0), (30, 4)])
    def test_seeded_line_coms(self, n, concurrent):
        vecs = exact_covectors(random_lines(random.Random(n + concurrent), n, concurrent))
        # complete: 1 + n + sum(m_v - 1) regions and n + sum(m_v) edges
        # over the vertices v, m_v of the lines meeting at v
        folds = [x.count("0") for x in vecs if x.count("0") > 1]
        assert [sum(x.count("0") == k for x in vecs) for k in (0, 1)] == \
            [1 + n + sum(m - 1 for m in folds), n + sum(folds)]
        if concurrent:
            assert max(folds) == concurrent
        ground = [f"l{i + 1}" for i in range(n)]
        assert validated(ground, vecs) == (tuple(vecs), 0)


def separator(x, y):
    return {i for i, (a, b) in enumerate(zip(x, y)) if {a, b} == {"+", "-"}}


def support(x):
    return {i for i, a in enumerate(x) if a != "0"}


class TestEqualSupportLemma:
    """SE needs checking on equal-support pairs only: for X, Y in an
    FS-closed set, (X o Y, Y o X) is a pair of equal support with the
    same separator whose composition is X o Y again."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.text("+-0", min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_composed_pair(self, vecs):
        closed = fs_closure(vecs)
        pool = set(closed)
        for x in closed:
            for y in closed:
                xy, yx = composition(x, y), composition(y, x)
                assert xy in pool and yx in pool
                assert support(xy) == support(yx)
                assert separator(xy, yx) == separator(x, y)
                assert composition(xy, yx) == xy


class TestFace:
    def test_face_of_zero(self, concurrent):
        zero = "000"
        assert set(face(concurrent, zero)) == set(concurrent.covectors)

    def test_face_of_tope(self, generic):
        assert face(generic, "+++") == ["+++"]

    def test_face_of_edge_covector(self, concurrent):
        # covector vanishing on one line: composing adds the two
        # incident topes
        faces = face(concurrent, "0++")
        assert len(faces) == 3 and "0++" in faces

    def test_face_restriction_is_om(self, generic, concurrent):
        for c in (generic, concurrent):
            for x in c.covectors:
                keep = [i for i, s in enumerate(x) if s == "0"]
                restricted = {"".join(y[i] for i in keep) for y in face(c, x)}
                sub = validate_com([c.ground[i] for i in keep], sorted(restricted))
                assert sub.is_om()


class TestZeroSetPoset:
    def test_zero_sets_meet_via_composition(self, generic, concurrent):
        for c in (generic, concurrent):
            for x in c.covectors:
                for y in c.covectors:
                    assert zero_set(c.ground, composition(x, y)) == \
                        zero_set(c.ground, x) & zero_set(c.ground, y)

    def test_concurrent_matches_u23_lattice(self, concurrent):
        import networkx as nx
        P, _ = zero_set_poset(concurrent)
        Q, _ = flat_lattice(matroid_from_json(load_fixture("matroid_u23.json")))
        assert nx.is_isomorphic(nx.DiGraph(list(P.covers)),
                                nx.DiGraph(list(Q.covers)))

    def test_generic_is_bouquet(self, generic):
        P, mapping = zero_set_poset(generic)
        assert P.is_bouquet()
        assert len(P.maximal) == 3
        assert mapping[P.bottom] == frozenset()

    def test_singleton(self):
        c = validate_com(["e"], ["0"])
        P, _ = zero_set_poset(c)
        assert P.elements == ("{e}",)

    def test_theorem_holds(self, generic, concurrent):
        for c in (generic, concurrent):
            P, _ = zero_set_poset(c)
            assert verify_default(P).verdict
