import random

import pytest
from hypothesis import given, strategies as st

from bouquetdet.determinant import det_bareiss
from bouquetdet.polyring import DivisionByZero, NotDivisible, Polynomial

w = [Polynomial.var(i) for i in range(6)]


def power_product(factors):
    """Product of p_i^k_i; the empty product is 1."""
    out = Polynomial.one()
    for p, k in factors:
        if k:
            out = out * p**k
    return out


def poly_from_terms(terms):
    out = Polynomial.zero()
    for coeff, exps in terms:
        mono = Polynomial.const(coeff)
        for v, e in enumerate(exps):
            mono = mono * Polynomial.var(v) ** e
        out = out + mono
    return out


# Small random polynomials in three variables.
polys = st.lists(
    st.tuples(st.integers(-4, 4),
              st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))),
    max_size=4,
).map(poly_from_terms)


def test_add_inverse():
    assert w[0] + (-w[0]) == Polynomial.zero()


def test_mul_distributes_example():
    # (w2 + w3) * w5 expands to the two products
    assert (w[1] + w[2]) * w[4] == w[1] * w[4] + w[2] * w[4]


def test_mul_by_one():
    p = w[0] * w[1] + Polynomial.const(3) * w[4]
    assert p * Polynomial.one() == p


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_exact_div_roundtrip(p, q):
    if q.is_zero():
        with pytest.raises(DivisionByZero):
            (p * q).exact_div(q)
    else:
        assert (p * q).exact_div(q) == p


# Polynomials in six variables whose terms have degree at most 6.
polys6 = st.lists(
    st.tuples(st.integers(-9, 9), st.lists(st.integers(0, 5), max_size=6)),
    max_size=6,
).map(lambda terms: poly_from_terms(
    (c, [vs.count(v) for v in range(6)]) for c, vs in terms))


@given(polys6, polys6)
def test_exact_div_roundtrip_six_variables(p, q):
    for a, b in ((p, q), (q, p)):
        if not b.is_zero():
            assert (a * b).exact_div(b) == a


def test_exact_div_examples():
    p = w[0] * w[1] * w[2] * (w[0] + w[1] + w[2])
    assert p.exact_div(w[0]) == w[1] * w[2] * (w[0] + w[1] + w[2])
    assert p.exact_div(p) == Polynomial.one()
    with pytest.raises(NotDivisible):
        (w[0] + w[1]).exact_div(w[0])


def test_exact_div_large_exponents():
    # exponents far wider than a small fixed field
    assert (w[0] ** 300 * w[1]).exact_div(w[0] ** 299) == w[0] * w[1]
    p = (w[0] ** 1000 + w[2] ** 999 * w[1]) * (w[0] ** 3 - w[1] ** 500)
    assert p.exact_div(w[0] ** 3 - w[1] ** 500) == w[0] ** 1000 + w[2] ** 999 * w[1]


def test_large_variable_index():
    v = Polynomial.var(10_000)
    p = (v + w[0]) * (v ** 2 - w[5])
    assert p.exact_div(v + w[0]) == v ** 2 - w[5]
    assert v.variables() == {10_000}
    assert (v * w[0]).to_string() == "w1*w10001"


@pytest.mark.parametrize("p, q", [
    (w[0] ** 2 + w[1], w[0]),               # leading terms divide, a later one does not
    (Polynomial.const(3) * w[0], Polynomial.const(2) * w[0]),  # coefficient
    (w[0] ** 2, w[0] * w[1]),               # same degree, monomial does not divide
    (w[0], w[0] * w[1]),                    # divisor of higher degree
    (w[1] ** 3, w[0]),                      # variable absent from the dividend
    (w[0] * w[1] + Polynomial.one(), w[0] + w[1]),  # nonzero remainder
])
def test_not_divisible(p, q):
    with pytest.raises(NotDivisible):
        p.exact_div(q)


def test_pow_and_power_product():
    assert (w[0] + w[1]) ** 0 == Polynomial.one()
    assert power_product([]) == Polynomial.one()
    lhs = power_product([(w[4], 3), (w[3], 2), (w[2], 1), (w[1], 1),
                         (w[0], 2), (w[1] + w[2] + w[4], 1)])
    rhs = (w[4] ** 3 * w[3] ** 2 * w[2] * w[1] * w[0] ** 2
           * (w[1] + w[2] + w[4]))
    assert lhs == rhs


PRIME = 2305843009213693967


def test_eval_mod_examples():
    assert w[0].eval_mod({0: 5}, PRIME) == 5
    p = w[1] * w[4] + w[2] * w[4]
    assert p.eval_mod({1: 1, 2: 2, 4: 3}, PRIME) == 9
    assert Polynomial.zero().eval_mod({}, PRIME) == 0


@given(polys, polys)
def test_eval_mod_homomorphism(p, q):
    assignment = {0: 17, 1: 91, 2: 123456}
    ev = lambda r: r.eval_mod(assignment, PRIME)
    assert ev(p * q) == ev(p) * ev(q) % PRIME
    assert ev(p + q) == (ev(p) + ev(q)) % PRIME


@given(polys, polys)
def test_canonical_form(p, q):
    # equal iff the canonical strings are identical
    assert (p == q) == (p.to_string() == q.to_string())


def test_to_string():
    p = w[0] ** 2 * w[1] + Polynomial.const(3) * w[4]
    assert p.to_string() == "w1^2*w2 + 3*w5"
    assert (-w[0] + w[1]).to_string() in ("w2 - w1", "-w1 + w2")
    assert Polynomial.zero().to_string() == "0"


def test_to_string_graded_lex_order():
    # higher total degree first; within a degree, the higher power of
    # the lower-indexed variable first
    p = (w[1] + Polynomial.const(3) + w[0] * w[2] + w[1] ** 2 + w[0]
         + w[0] ** 2 * w[1] - Polynomial.const(2) * w[2] ** 3 - w[0] * w[1] * w[5])
    assert p.to_string() == ("w1^2*w2 - w1*w2*w6 - 2*w3^3 + w1*w3 + w2^2"
                             " + w1 + w2 + 3")


def reference_to_string(p):
    """Oracle: the term loop with one factor string per occurrence, in the
    order of a sort on (total degree, exponent vector)."""
    if p.is_zero():
        return "0"
    n = max(p.variables(), default=-1) + 1

    def order(m):
        exps = dict(m)
        return (sum(exps.values()), [exps.get(v, 0) for v in range(n)])

    out = ""
    for m in sorted(p.terms, key=order, reverse=True):
        c = p.terms[m]
        factors = [f"w{v + 1}" if e == 1 else f"w{v + 1}^{e}" for v, e in m]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        out += ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
        out += body
    return out


@given(polys6)
def test_to_string_against_reference(p):
    assert p.to_string() == reference_to_string(p)


def to_sympy(p, symbols):
    import sympy
    return sympy.Add(*[c * sympy.Mul(*[symbols[v] ** e for v, e in m])
                       for m, c in p.terms.items()])


@pytest.mark.parametrize("seed", range(8))
def test_det_bareiss_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = rng.randint(1, 4)

    def entry():
        return poly_from_terms((rng.randint(-3, 3), [rng.randint(0, 2) for _ in range(3)])
                               for _ in range(rng.randint(0, 3)))

    M = [[entry() for _ in range(n)] for _ in range(n)]
    symbols = sympy.symbols("w1:4")
    expected = sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in M]).det()
    assert sympy.expand(to_sympy(det_bareiss(M), symbols) - expected) == 0


@pytest.mark.parametrize("name", ["degree-300", "zero-column"])
def test_det_bareiss_packing_width(monkeypatch, name):
    # High single-variable powers: numerators reach degree twice the sum
    # of the rows' largest entry degrees, and the layout must hold them
    # with every guard bit clear (a set guard bit marks a failed
    # monomial division).
    sympy = pytest.importorskip("sympy")
    from bouquetdet import determinant
    x, y, z = w[:3]
    c = Polynomial.const
    if name == "degree-300":
        M = [[x**300 + y, x**299 * y, z**7],
             [y**300 - x, x**300 + z**2, x**150 * y**150],
             [z**300 + x, c(5) * x**200, x**300 - y**300]]
    else:
        M = [[x**300, c(0), y**2], [z, c(0), x * y], [c(3), c(0), x**150]]
    dividends = []
    div_exact = determinant.div_exact

    def checked(p, q, guard):
        dividends.append(p)
        assert not any(k & guard for k in p)
        return div_exact(p, q, guard)

    monkeypatch.setattr(determinant, "div_exact", checked)
    det = det_bareiss(M)
    assert dividends
    symbols = sympy.symbols("w1:4")
    expected = sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in M]).det()
    assert sympy.expand(to_sympy(det, symbols) - expected) == 0
    assert det.is_zero() == (name == "zero-column")
