import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bouquetdet.polyring import Packing, div_weight, sum_text
from conftest import power
from ring_ops import (Poly, const, det_via_minors, eval_mod, lift, one,
                      oracle_text, pack, var, variable_mask, weight_poly, zero)

w = [var(i) for i in range(6)]


def weight_case(p, weight):
    """(layout, packed p, weight as a variable mask): the layout holds p's
    variables and the weight's, of degree deg p."""
    layout = Packing(variable_mask(p.variables()) | weight, p.total_degree())
    return layout, pack(layout, p), weight


def weight_div(p, weight):
    """The quotient q with p = w * q, w the weight whose variables are the
    mask `weight`, or None: p packed as `weight_case` packs it, divided
    with `div_weight` and the quotient unpacked."""
    layout, packed, weight = weight_case(p, weight)
    q = div_weight(packed, layout, weight)
    return None if q is None else layout.unpack(q)


def power_product(factors):
    """Product of p_i^k_i; the empty product is 1."""
    out = one()
    for p, k in factors:
        if k:
            out = out * power(p, k)
    return out


def poly_from_terms(terms):
    out = zero()
    for coeff, exps in terms:
        mono = const(coeff)
        for v, e in enumerate(exps):
            mono = mono * power(var(v), e)
        out = out + mono
    return out


# Small random polynomials in three variables.
polys = st.lists(
    st.tuples(st.integers(-4, 4),
              st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))),
    max_size=4,
).map(poly_from_terms)


def test_add_inverse():
    assert w[0] + (-w[0]) == zero()


def test_mul_distributes_example():
    # (w2 + w3) * w5 expands to the two products
    assert (w[1] + w[2]) * w[4] == w[1] * w[4] + w[2] * w[4]


def test_mul_by_one():
    p = w[0] * w[1] + const(3) * w[4]
    assert p * one() == p


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


# Weights over the three variables of `polys` and one variable absent
# from them.
weights = st.sets(st.integers(0, 3), min_size=1).map(variable_mask)


@given(polys, weights)
def test_exact_div_roundtrip(p, weight):
    assert weight_div(weight_poly(weight) * p, weight) == p


# Polynomials in six variables whose terms have degree at most 6.
polys6 = st.lists(
    st.tuples(st.integers(-9, 9), st.lists(st.integers(0, 5), max_size=6)),
    max_size=6,
).map(lambda terms: poly_from_terms(
    (c, [vs.count(v) for v in range(6)]) for c, vs in terms))


@given(polys6, st.sets(st.integers(0, 6), min_size=1).map(variable_mask))
def test_exact_div_roundtrip_six_variables(p, weight):
    assert weight_div(weight_poly(weight) * p, weight) == p
    # w * p + 1 has the remainder 1 by w
    assert weight_div(weight_poly(weight) * p + one(), weight) is None


def test_exact_div_examples():
    p = w[0] * w[1] * w[2] * (w[0] + w[1] + w[2])
    assert weight_div(p, 0b1) == w[1] * w[2] * (w[0] + w[1] + w[2])
    assert weight_div(p, 0b111) == w[0] * w[1] * w[2]
    assert weight_div(w[0] + w[1], 0b11) == one()
    assert weight_div(w[0] + w[1], 0b1) is None


def test_exact_div_large_exponents():
    # exponents far wider than a small fixed field
    assert weight_div(power(w[0], 300) * w[1], 0b1) == power(w[0], 299) * w[1]
    q = power(w[0], 1000) + power(w[2], 999) * w[1]
    assert weight_div(q * (w[0] + w[1]), 0b11) == q
    # x^300 - y^300 = (x + y) * (x^299 - x^298*y + ... - y^299)
    p = power(w[0], 300) - power(w[1], 300)
    q = weight_div(p, 0b11)
    assert q is not None and (w[0] + w[1]) * q == p
    assert len(q.terms) == 300
    assert weight_div(power(w[0], 301) - power(w[1], 301), 0b11) is None


def test_large_variable_index():
    v = var(10_000)
    p = (v + w[0]) * (power(v, 2) - w[5])
    assert weight_div(p, 1 << 10_000 | 1) == power(v, 2) - w[5]
    assert v.variables() == {10_000}
    assert (v * w[0]).to_string() == "w1*w10001"


@pytest.mark.parametrize("p, q", [
    (power(w[0], 2) + w[1], {0}),            # leading terms divide, a later one does not
    (const(2) * w[0] + const(3) * w[1], {0, 1}),  # unequal coefficients
    (power(w[0], 2), {0, 1}),               # same degree, a monomial
    (const(5), {0}),                        # divisor of higher degree
    (power(w[1], 3), {0}),                  # variable absent from the dividend
    (w[0] * w[1] + one(), {0, 1}),          # nonzero remainder
])
def test_not_divisible(p, q):
    # q is the weight's set of variables
    assert weight_div(p, variable_mask(q)) is None


@st.composite
def weight_divisions(draw):
    """(layout, packed p, weight as its variable mask).  The layout
    holds up to five variables and a degree bound of deg p or above; the
    weight is one variable, every layout variable or a drawn subset, and
    may have variables absent from p.  p is w * q plus up to two further
    terms, so it is divisible about half the time; its terms are not
    homogeneous, and the packed dict also keeps some monomials with
    coefficient 0.  Exponents of 300 and more go on any variable but the
    weight's first, and on that one too when the weight has at most two
    variables: a quotient by a longer weight with such a power of its
    first variable has a term for almost every monomial below it, far
    too many for either side of the comparison."""
    variables = sorted(draw(st.sets(st.integers(0, 11), min_size=1, max_size=5)))
    weight = draw(st.one_of(st.sampled_from(variables).map(lambda v: {v}),
                            st.just(set(variables)),
                            st.sets(st.sampled_from(variables), min_size=1)))
    small, large = st.integers(0, 3), st.one_of(st.integers(0, 3), st.integers(300, 302))
    first = min(weight) if len(weight) > 2 else None
    exponents = st.fixed_dictionaries({}, optional={
        v: small if v == first else large for v in variables})
    monomial = exponents.map(lambda m: Poly({tuple(
        (v, e) for v, e in sorted(m.items()) if e): 1}))
    terms = st.lists(st.tuples(st.integers(-4, 4), monomial), max_size=3)
    q = sum((const(c) * m for c, m in draw(terms)), zero())
    extra = sum((const(c) * m for c, m in draw(terms.map(lambda t: t[:2]))), zero())
    p = weight_poly(variable_mask(weight)) * q + extra
    zeros = draw(st.lists(monomial, max_size=2))
    degree = max([p.total_degree()] + [m.total_degree() for m in zeros])
    layout = Packing(variable_mask(variables), degree + draw(st.sampled_from([0, 0, 1, 4])))
    packed = pack(layout, p)
    for m in zeros:
        packed.setdefault(layout.key(next(iter(m.terms))), 0)
    return layout, packed, variable_mask(weight)


@settings(max_examples=200, deadline=None)
@given(weight_divisions())
@example(weight_case(w[0] * w[1] * w[2] * (w[0] + w[1] + w[2]), 0b1))
@example(weight_case(w[0] * w[1] * w[2] * (w[0] + w[1] + w[2]), 0b111))
@example(weight_case(w[0] + w[1], 0b1))
@example(weight_case((power(w[0], 1000) + power(w[2], 999) * w[1]) * (w[0] + w[1]),
                     0b11))
# degree 3: the two-bit field of w[0] holds 3, its largest value
@example(weight_case(power(w[0], 2) * (w[0] + w[1]), 0b11))
def test_div_weight_against_sympy(case):
    # One polynomial is a Groebner basis of the ideal it generates, so
    # sympy's remainder of p by w is zero under any order iff w divides p.
    sympy = pytest.importorskip("sympy")
    layout, packed, weight = case
    p = lift(layout.unpack(packed))
    q = div_weight(packed, layout, weight)
    n = max(layout.shift) + 1
    ring, *_ = sympy.ring([f"w{v + 1}" for v in range(n)], sympy.ZZ, sympy.lex)

    def element(f):
        return ring({tuple(dict(m).get(v, 0) for v in range(n)): c
                     for m, c in f.terms.items()})

    remainder = element(p).rem(element(weight_poly(weight)))
    assert (q is None) == (remainder != 0)
    if q is not None:
        assert weight_poly(weight) * layout.unpack(q) == p


def test_pow_and_power_product():
    assert power(w[0] + w[1], 0) == one()
    assert power_product([]) == one()
    lhs = power_product([(w[4], 3), (w[3], 2), (w[2], 1), (w[1], 1),
                         (w[0], 2), (w[1] + w[2] + w[4], 1)])
    rhs = (power(w[4], 3) * power(w[3], 2) * w[2] * w[1] * power(w[0], 2)
           * (w[1] + w[2] + w[4]))
    assert lhs == rhs


PRIME = 2305843009213693967


def test_eval_mod_examples():
    assert eval_mod(w[0], {0: 5}, PRIME) == 5
    p = w[1] * w[4] + w[2] * w[4]
    assert eval_mod(p, {1: 1, 2: 2, 4: 3}, PRIME) == 9
    assert eval_mod(zero(), {}, PRIME) == 0


@given(polys, polys)
def test_eval_mod_homomorphism(p, q):
    assignment = {0: 17, 1: 91, 2: 123456}
    ev = lambda r: eval_mod(r, assignment, PRIME)
    assert ev(p * q) == ev(p) * ev(q) % PRIME
    assert ev(p + q) == (ev(p) + ev(q)) % PRIME


@given(polys, polys)
def test_canonical_form(p, q):
    # equal iff the canonical strings are identical
    assert (p == q) == (p.to_string() == q.to_string())


def test_to_string():
    p = power(w[0], 2) * w[1] + const(3) * w[4]
    assert p.to_string() == "w1^2*w2 + 3*w5"
    assert (-w[0] + w[1]).to_string() in ("w2 - w1", "-w1 + w2")
    assert zero().to_string() == "0"


def test_sum_text():
    # a weight's text, formatted from its variable mask
    assert sum_text(0b10110) == (w[1] + w[2] + w[4]).to_string() == "w2 + w3 + w5"
    assert sum_text(1 << 10_000 | 1) == (var(10_000) + w[0]).to_string()


def test_to_string_graded_lex_order():
    # higher total degree first; within a degree, the higher power of
    # the lower-indexed variable first
    p = (w[1] + const(3) + w[0] * w[2] + power(w[1], 2) + w[0]
         + power(w[0], 2) * w[1] - const(2) * power(w[2], 3)
         - w[0] * w[1] * w[5])
    assert p.to_string() == ("w1^2*w2 - w1*w2*w6 - 2*w3^3 + w1*w3 + w2^2"
                             " + w1 + w2 + 3")


@given(polys6)
def test_to_string_against_reference(p):
    assert p.to_string() == oracle_text(p)


@st.composite
def packed_polys(draw):
    """(layout, packed polynomial, the same as a `Poly`).  The layout holds
    up to six variables, not all of them in the polynomial, and a degree
    bound that may exceed its degree; the polynomial is homogeneous, as
    every one the pipeline packs is, of a drawn degree up to the bound
    (0 for the constant); the terms have coefficients of either sign,
    zero and multi-digit ones included, and may repeat a monomial."""
    variables = draw(st.sets(st.integers(0, 11), max_size=6))
    degree = draw(st.integers(0, 7))
    layout = Packing(variable_mask(variables), degree)
    d = draw(st.integers(0, degree)) if variables else 0
    monomial = st.lists(st.sampled_from(sorted(variables)), min_size=d, max_size=d) \
        if variables else st.just([])
    coefficient = st.one_of(st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12))
    packed, terms = {}, {}
    for c, vs in draw(st.lists(st.tuples(coefficient, monomial), max_size=8)):
        m = tuple(sorted((v, vs.count(v)) for v in set(vs)))
        k = layout.key(m)
        packed[k] = packed.get(k, 0) + c
        terms[m] = terms.get(m, 0) + c
    return layout, packed, Poly(terms)


@settings(max_examples=300)
@given(packed_polys())
def test_text_against_oracle(drawn):
    layout, packed, p = drawn
    assert layout.text(packed) == oracle_text(p)


def test_text_examples():
    layout = Packing(0b10010011, 3)
    key = layout.key
    assert layout.text({}) == "0"
    assert layout.text({key(((0, 1),)): 0}) == "0"
    assert layout.text({0: -12}) == "-12"
    assert layout.text({key(((0, 2), (1, 1))): 1, key(((4, 1),)): 3}) == "w1^2*w2 + 3*w5"
    assert layout.text({key(((1, 1),)): 1, key(((0, 1),)): -1, 0: 10}) == "-w1 + w2 + 10"
    assert layout.text({key(((7, 2),)): -1, key(((0, 1), (4, 1))): 25}) == "25*w1*w5 - w8^2"
    # A key has no degree field, so falling keys are lex order: graded-lex
    # within one degree.  Polynomial.to_string, which takes mixed degrees,
    # sorts by degree first.
    assert layout.text({key(((7, 3),)): -1, key(((0, 1), (4, 1))): 25}) == "25*w1*w5 - w8^3"
    assert (const(25) * w[0] * w[4] - power(var(7), 3)).to_string() == "-w8^3 + 25*w1*w5"
    assert layout.text({key(((0, 1),)): 1, key(((1, 2),)): 1}) == "w1 + w2^2"
    assert (w[0] + power(w[1], 2)).to_string() == "w2^2 + w1"


def to_sympy(p, symbols):
    import sympy
    return sympy.Add(*[c * sympy.Mul(*[symbols[v] ** e for v, e in m])
                       for m, c in p.terms.items()])


@pytest.mark.parametrize("seed", range(8))
def test_det_bareiss_matches_sympy(seed):
    # det_minors; the name is from the elimination it replaced.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = rng.randint(1, 4)

    def entry():
        return poly_from_terms((rng.randint(-3, 3), [rng.randint(0, 2) for _ in range(3)])
                               for _ in range(rng.randint(0, 3)))

    M = [[entry() for _ in range(n)] for _ in range(n)]
    symbols = sympy.symbols("w1:4")
    expected = sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in M]).det()
    assert sympy.expand(to_sympy(det_via_minors(M), symbols) - expected) == 0


@pytest.mark.parametrize("name", ["degree-300", "zero-column"])
def test_det_bareiss_packing_width(name):
    # High single-variable powers: every minor has degree at most the sum
    # of the rows' largest entry degrees (900 here, reached by x^900 on
    # the diagonal), and the layout must hold it without a field running
    # into the next.  (The name is from the elimination det_minors
    # replaced.)
    sympy = pytest.importorskip("sympy")
    x, y, z = w[:3]
    c = const
    if name == "degree-300":
        M = [[power(x, 300) + y, power(x, 299) * y, power(z, 7)],
             [power(y, 300) - x, power(x, 300) + power(z, 2),
              power(x, 150) * power(y, 150)],
             [power(z, 300) + x, c(5) * power(x, 200), power(x, 300) - power(y, 300)]]
    else:
        M = [[power(x, 300), c(0), power(y, 2)], [z, c(0), x * y],
             [c(3), c(0), power(x, 150)]]
    det = det_via_minors(M)
    symbols = sympy.symbols("w1:4")
    expected = sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in M]).det()
    assert sympy.expand(to_sympy(det, symbols) - expected) == 0
    assert det.is_zero() == (name == "zero-column")
    assert det.total_degree() == (900 if name == "degree-300" else 0)
