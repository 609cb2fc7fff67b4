"""Sparse multivariate polynomials over arbitrary-precision integers.

Variables are nonnegative integer indices; index i prints as "w{i+1}".
Monomials are stored as sorted tuples of (variable, exponent) pairs with
all exponents positive, so equal polynomials have identical internal
form.  Terms are ordered graded-lexicographically with
w1 > w2 > ... for printing and for leading-term division.

Multiplication and exact division run on packed monomials (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  A `Packing` lays monomials out in one
int: the total degree in the top field, then one field per variable of
the layout, the smallest index highest.  A larger int is then exactly an
earlier monomial in the graded-lex order, and multiplying monomials is
adding ints.  The field width comes from a degree bound, plus one guard
bit per exponent field: when one monomial does not divide another, their
difference is negative or has a guard bit set.  A packed polynomial is a
dict from packed monomial to coefficient, and the two kernels work on
those: `mul_into` adds a product into a dict, and `div_exact` keeps its
remainder as such a dict together with a max-heap of its keys (after
Johnson, 1974), pops the leading monomial, forms one quotient term t and
subtracts t * (q - LT(q)) in place.  `Polynomial.__mul__` and
`exact_div` pack their operands in a layout of their own, call a kernel
and unpack the result.  Bareiss elimination (`determinant.det_bareiss`)
packs each block in one layout, of degree bound 2D for D the sum of the
rows' largest entry degrees, calls the same kernels at every step, with
the entry of fewest terms as pivot, and unpacks only the determinant.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Mapping

Monomial = tuple[tuple[int, int], ...]
_exponent = itemgetter(1)


class PolyError(Exception):
    pass


class DivisionByZero(PolyError):
    pass


class NotDivisible(PolyError):
    """Exact division was requested but the remainder is nonzero.  The
    message omits the operands: factor counting expects this error."""


def _mono_degree(m: Monomial) -> int:
    return sum(map(_exponent, m))


class Packing:
    """Packed-int layout of the monomials in `variables` up to total
    degree `degree` (see the module docstring)."""

    __slots__ = ("fields", "shift", "top", "mask")

    def __init__(self, variables: set[int], degree: int):
        width = degree.bit_length() + 1
        self.mask = (1 << width) - 1
        shift = self.top = len(variables) * width
        fields = []
        for v in sorted(variables):
            shift -= width
            fields.append((v, shift))
        self.fields = fields
        self.shift = dict(fields)

    def guard(self) -> int:
        """The top bit of every exponent field."""
        high = (self.mask + 1) >> 1
        return sum(high << s for _, s in self.fields)

    def key(self, m: Monomial) -> int:
        shift = self.shift
        deg = key = 0
        for v, e in m:
            deg += e
            key += e << shift[v]
        return key + (deg << self.top)

    def pack(self, p: "Polynomial") -> dict[int, int]:
        key = self.key
        return {key(m): c for m, c in p._terms.items()}

    def unpack(self, packed: Mapping[int, int]) -> "Polynomial":
        fields, mask = self.fields, self.mask
        out = Polynomial()
        out._terms = {
            tuple((v, e) for v, s in fields if (e := k >> s & mask)): c
            for k, c in packed.items() if c}
        return out


def mul_into(out: dict[int, int], a: Mapping[int, int],
             b: Mapping[int, int]) -> dict[int, int]:
    """Add the product of the packed polynomials a and b to `out`, all in
    one layout wide enough for the product, and return `out`.  Terms that
    cancel are left in with coefficient 0."""
    b_terms = list(b.items())
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b_terms:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def div_exact(p: Mapping[int, int], q: Mapping[int, int],
              guard: int) -> dict[int, int]:
    """The packed quotient s with p = q * s; raises NotDivisible when
    there is none.  p and q share one layout wide enough for p, whose
    guard bits are `guard`; zero coefficients of p are ignored and q must
    be nonzero.

    Leading-term division in graded-lex order: over an integral domain
    the quotient's leading term is always LT(p)/LT(q), so the greedy loop
    ends with zero remainder iff q divides p.
    """
    rem = {k: c for k, c in p.items() if c}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    tail = dict(q)
    lt_q = max(tail)
    lc_q = tail.pop(lt_q)
    tail = list(tail.items())
    quot: dict[int, int] = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        m = k - lt_q
        s, r = divmod(c, lc_q)
        if m < 0 or m & guard or r:
            raise NotDivisible("nonzero remainder")
        quot[m] = s
        # Every key m + t below is smaller than k, so no key that has
        # left the heap comes back and each key is pushed once.
        for t, ct in tail:
            key = m + t
            if key in rem:
                rem[key] -= s * ct
            else:
                rem[key] = -s * ct
                heapq.heappush(heap, -key)
    return quot


class Polynomial:
    """Immutable element of Z[w_1, w_2, ...]."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if c:
                    clean[m] = c
        self._terms: dict[Monomial, int] = clean
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(c: int) -> "Polynomial":
        return Polynomial({(): c})

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.const(1)

    @staticmethod
    def var(index: int) -> "Polynomial":
        if index < 0:
            raise ValueError("variable index must be >= 0")
        return Polynomial({((index, 1),): 1})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[int]:
        return {v for m in self._terms for v, _ in m}

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(map(_mono_degree, self._terms))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self._terms or not other._terms:
            return Polynomial.zero()
        layout = Packing(self.variables() | other.variables(),
                         self.total_degree() + other.total_degree())
        return layout.unpack(mul_into({}, layout.pack(self), layout.pack(other)))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def exact_div(self, q: "Polynomial") -> "Polynomial":
        """Quotient s with self = q * s; raises NotDivisible otherwise
        (see `div_exact`)."""
        if q.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return Polynomial.zero()
        degree = self.total_degree()
        if q.total_degree() > degree:
            raise NotDivisible("divisor of higher degree than the dividend")
        layout = Packing(self.variables() | q.variables(), degree)
        return layout.unpack(div_exact(layout.pack(self), layout.pack(q),
                                       layout.guard()))

    # -- homomorphisms ------------------------------------------------

    def eval_mod(self, assignment: Mapping[int, int], modulus: int) -> int:
        """Value at an integer point, reduced modulo a prime."""
        total = 0
        for m, c in self._terms.items():
            val = c % modulus
            for v, e in m:
                val = val * pow(assignment[v] % modulus, e, modulus) % modulus
            total = (total + val) % modulus
        return total

    # -- formatting ---------------------------------------------------

    def to_string(self) -> str:
        """Canonical text form, e.g. "w1^2*w2 + 3*w5"."""
        terms = self._terms
        if not terms:
            return "0"
        factors = {f for m in terms for f in m}
        names = {v: f"w{v + 1}" for v, _ in factors}
        factor = {(v, e): names[v] if e == 1 else f"{names[v]}^{e}"
                  for v, e in factors}.__getitem__
        order = Packing(set(names), self.total_degree()).key
        out = []
        for m in sorted(terms, key=order, reverse=True):
            c = terms[m]
            out.append(" - " if c < 0 else " + ")
            if not m:
                out.append(str(abs(c)))
                continue
            if c != 1 and c != -1:
                out.append(f"{abs(c)}*")
            out.append("*".join(map(factor, m)))
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"
