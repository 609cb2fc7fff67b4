"""Sparse multivariate polynomials over arbitrary-precision integers.

Variables are nonnegative integer indices; index i prints as "w{i+1}".
Monomials are stored as sorted tuples of (variable, exponent) pairs with
all exponents positive, so equal polynomials have identical internal
form.  Terms are printed in graded-lexicographic order with
w1 > w2 > ....

Multiplication runs on packed monomials (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  A `Packing` lays monomials out in one int: one field per
variable of the layout, the smallest index highest, each field
`degree.bit_length()` bits wide for the layout's degree bound, so no
exponent of a monomial within the bound overflows its field.  There is
no field for the total degree: every polynomial the pipeline packs is
homogeneous (the entries of family block r, its minors, D_r and every
quotient of D_r by a weight all have one degree each), so that field
would be constant within a polynomial.  A larger int is then exactly an
earlier monomial in the lex order, which within one degree is the
graded-lex order, and multiplying monomials is adding ints.  A set of
variables is a mask, one int with bit v for variable v, as the atom
sets and weights of `chains` are: a layout takes its variables as one,
and `Packing.power` packs the squarefree monomial w^S of a mask S.
A packed polynomial is a dict from packed monomial to coefficient, and
the two kernels work on those: `mul_into` adds a product into a dict,
and `div_weight` divides by a weight, the sum of the variables of a
mask, with synthetic division in its first variable (Knuth, TAOCP
vol. 2, 4.6.1), which never divides a coefficient.

The symbolic determinant keeps one layout per family block, from its
Gram vectors to the printed text (see `determinant`); division has one
caller, the factor count (`determinant.factors_match`), and every divisor
it uses is a weight.  `Packing.text` prints a packed polynomial straight
from its keys: sorting them falling is the graded-lex order of a
homogeneous polynomial, and each key's fields are its exponents.
`Polynomial.to_string`, the one caller with mixed degrees, sorts by
degree first.
`Polynomial`, a dict of monomial tuples, and `Packing.unpack` are kept
for the test oracles; no command builds one.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping

from .poset import _bits

Monomial = tuple[tuple[int, int], ...]
_exponent = itemgetter(1)


def _mono_degree(m: Monomial) -> int:
    return sum(map(_exponent, m))


class Packing:
    """Packed-int layout of the monomials in `variables` up to total
    degree `degree` (see the module docstring)."""

    __slots__ = ("variables", "fields", "shift", "mask")

    def __init__(self, variables: int, degree: int):
        width = degree.bit_length()
        self.variables, self.mask = variables, (1 << width) - 1
        shift = variables.bit_count() * width
        fields = []
        for v in _bits(variables):
            shift -= width
            fields.append((v, shift))
        self.fields = fields
        self.shift = dict(fields)

    def key(self, m: Monomial) -> int:
        shift = self.shift
        return sum(e << shift[v] for v, e in m)

    def power(self, S: int) -> int:
        """The packed w^S of a variable mask S: 1 in the field of each
        variable of S."""
        shift = self.shift
        return sum(1 << shift[v] for v in _bits(S))

    def text(self, packed: Mapping[int, int]) -> str:
        """The text of a packed polynomial, e.g. "w1^2*w2 + 3*w5": terms
        by falling key, which is graded-lex order with w1 > w2 > ... when
        the polynomial is homogeneous, zero coefficients left out, "0"
        when none is left, and spaces only between terms."""
        keys = sorted(packed, reverse=True)
        return self.terms_text(zip(keys, map(packed.__getitem__, keys)))

    def terms_text(self, terms: Iterable[tuple[int, int]]) -> str:
        """The text of the (key, coefficient) terms in the order given,
        as `text` prints it."""
        mask = self.mask
        names = [(s, f"w{v + 1}") for v, s in self.fields]
        out = []
        for k, c in terms:
            if c:
                factors = [n if e == 1 else f"{n}^{e}"
                           for s, n in names if (e := k >> s & mask)]
                if abs(c) != 1 or not factors:
                    factors.insert(0, str(abs(c)))
                out.append((" - " if c < 0 else " + ") + "*".join(factors))
        if not out:
            return "0"
        lead = out[0]  # " + " or " - " comes off, a minus stays
        out[0] = "-" + lead[3:] if lead[1] == "-" else lead[3:]
        return "".join(out)

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
    cancel are left in with coefficient 0; `out` is neither a nor b."""
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def div_weight(p: Mapping[int, int], layout: Packing,
               w: int) -> dict[int, int] | None:
    """The packed quotient q with p = w * q, w the weight whose variables
    are the mask `w`, or None when there is none.  p and q are packed in
    `layout`, which holds the variables of w and is wide enough for p;
    zero coefficients of p are dropped on the way.

    Synthetic division by w = x_a + r, a the first variable of w and r
    the sum of the rest: write p = sum over e of P_e * x_a^e with each
    P_e free of x_a; then q = sum of Q_e * x_a^e with
    Q_(e-1) = P_e - r * Q_e from the highest e down, and w divides p iff
    the remainder P_0 - r * Q_0 is zero.  Every term formed has total
    degree at most deg p, so no field overflows.

    First, one pass over the keys of p against the bits of w's fields:
    a nonzero term with no variable of w proves a miss, as setting w's
    variables to 0 kills w * q but not that term.  It returns None
    before any quotient term is formed.
    """
    mask = layout.mask
    x_a, *r = [1 << layout.shift[v] for v in _bits(w)]  # w's variables, packed
    fields = (x_a + sum(r)) * mask
    if not all(map(fields.__and__, p)) and any(p[k] for k in p if not k & fields):
        return None
    shift = x_a.bit_length() - 1
    parts: dict[int, dict[int, int]] = {}  # e -> P_e, keys free of x_a
    for k, c in p.items():
        e = k >> shift & mask
        parts.setdefault(e, {})[k - e * x_a] = c
    quotient: dict[int, int] = {}
    q: dict[int, int] = {}  # Q_e, keys free of x_a
    for e in range(max(parts, default=0), -1, -1):
        part = parts.get(e, {})
        for k, c in q.items():
            for t in r:
                part[k + t] = part.get(k + t, 0) - c
        q = {k: c for k, c in part.items() if c}  # Q_(e-1), or the remainder
        if e:
            lift = (e - 1) * x_a
            for k, c in q.items():
                quotient[k + lift] = c
    return None if q else quotient


class Polynomial:
    """Immutable element of Z[w_1, w_2, ...] as a dict of monomial
    tuples, for the test oracles (see the module docstring)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c}

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    # -- formatting ---------------------------------------------------

    def to_string(self) -> str:
        """Canonical text form, e.g. "w1^2*w2 + 3*w5", in graded-lex order:
        terms by falling total degree, then by falling key, as
        `Packing.text` prints a homogeneous polynomial."""
        layout = Packing(sum(1 << v for v in self.variables()), self.total_degree())
        terms = sorted((_mono_degree(m), layout.key(m), c) for m, c in self._terms.items())
        return layout.terms_text((k, c) for _, k, c in reversed(terms))

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


def sum_text(variables: int) -> str:
    """The text of the sum of the variables of the mask, as `Packing.text`
    prints it, e.g. "w2 + w3 + w5"."""
    return " + ".join(f"w{v + 1}" for v in _bits(variables))
