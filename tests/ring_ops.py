"""Ring operations on `Polynomial` for the test oracles.

The library keeps the symbolic path packed, down to the printed text,
and builds no polynomial.  The oracles (the Laplace expansion, the
expanded products of the blocks and of the right-hand side,
substitution, the sympy and mod-p comparisons) add, negate, multiply
and evaluate polynomials, so those operations live here: `Poly` is a
`Polynomial` with them, and a plain `Polynomial` on the other side of a
binary operation is read as a `Poly`.  `variable_mask` gives a set of
variables as the mask `Packing` and the weights take.  `pack` and
`det_via_minors` carry polynomial matrices to and from the packed kernel
`det_minors`.  `mask_monomial` and
`monomial_mask` convert an atom set between the library's variable mask
and a squarefree monomial.  `gram_entry` and `gram_entries` form chain
matrix entries from the Gram vectors, keyed by masks, pair by pair, the
oracle for the library's packed family blocks and their zero off-block
entries.
`oracle_text` prints a polynomial term by term from its monomial tuples,
the oracle for `Packing.text`.
"""

from bouquetdet.determinant import det_minors
from bouquetdet.polyring import Packing, Polynomial, mul_into


class Poly(Polynomial):
    __slots__ = ()

    def __add__(self, other: Polynomial) -> "Poly":
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Polynomial) -> "Poly":
        return self + -lift(other)

    def __rsub__(self, other: Polynomial) -> "Poly":
        return lift(other) + -self

    def __mul__(self, other: Polynomial) -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        layout = Packing(variable_mask(self.variables() | other.variables()),
                         self.total_degree() + other.total_degree())
        return lift(layout.unpack(mul_into({}, pack(layout, self), pack(layout, other))))

    __rmul__ = __mul__


def lift(p: Polynomial) -> Poly:
    """p with the ring operations."""
    return p if isinstance(p, Poly) else Poly(p.terms)


def zero() -> Poly:
    return Poly()


def const(c: int) -> Poly:
    return Poly({(): c})


def one() -> Poly:
    return const(1)


def var(index: int) -> Poly:
    if index < 0:
        raise ValueError("variable index must be >= 0")
    return Poly({((index, 1),): 1})


def variable_mask(variables) -> int:
    """The mask of a set of variables, bit v for variable v."""
    return sum(1 << v for v in set(variables))


def weight_poly(w: int) -> Poly:
    """The weight given as a variable mask, as the sum of its variables,
    read bit by bit."""
    return Poly({((v, 1),): 1 for v in range(w.bit_length()) if w >> v & 1})


def mask_monomial(S: int) -> tuple:
    """The squarefree monomial w^S of the variable mask S (bit v for
    variable v), read bit by bit."""
    return tuple((v, 1) for v in range(S.bit_length()) if S >> v & 1)


def monomial_mask(m) -> int:
    """The variable mask of a squarefree monomial; the inverse of
    `mask_monomial`."""
    assert all(e == 1 for _, e in m), m
    return sum(1 << v for v, _ in m)


def gram_entry(g, h) -> Poly:
    """The sum over the atom sets S of both Gram vectors g and h, keyed
    by their masks, of g(S) * h(S) * w^S."""
    return Poly({mask_monomial(S): c * h[S] for S, c in g.items() if S in h})


def gram_entries(vectors) -> list[list[Poly]]:
    """The Gram matrix of the vectors over Z[w], every entry formed."""
    return [[gram_entry(g, h) for h in vectors] for g in vectors]


def oracle_text(p: Polynomial) -> str:
    """The text of p, e.g. "w1^2*w2 + 3*w5", from its monomial tuples:
    terms in the order of a sort on (total degree, exponent vector),
    falling, which is graded-lex with w1 > w2 > ..., independent of the
    packed keys; "0" for zero."""
    terms = p.terms
    if not terms:
        return "0"
    n = max(p.variables(), default=-1) + 1

    def order(m):
        exps = dict(m)
        return sum(exps.values()), [exps.get(v, 0) for v in range(n)]

    out = []
    for m in sorted(terms, key=order, reverse=True):
        c = terms[m]
        out.append(" - " if c < 0 else " + ")
        if not m:
            out.append(str(abs(c)))
            continue
        if c != 1 and c != -1:
            out.append(f"{abs(c)}*")
        out.append("*".join(f"w{v + 1}" if e == 1 else f"w{v + 1}^{e}" for v, e in m))
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def eval_mod(p: Polynomial, assignment, modulus: int) -> int:
    """Value of p at an integer point, reduced modulo a prime."""
    total = 0
    for m, c in p.terms.items():
        val = c % modulus
        for v, e in m:
            val = val * pow(assignment[v] % modulus, e, modulus) % modulus
        total = (total + val) % modulus
    return total


def pack(layout: Packing, p: Polynomial) -> dict[int, int]:
    """p packed in the layout, which must hold its variables and degree."""
    return {layout.key(m): c for m, c in p.terms.items()}


def det_via_minors(M: list[list[Polynomial]]) -> Poly:
    """`det_minors` on a square matrix of polynomials: the entries packed
    in one layout over their variables of degree bound D, the sum over
    the rows of their largest entry degree (every minor has degree at
    most D), and the determinant unpacked."""
    degree = sum(max((e.total_degree() for e in row), default=0) for row in M)
    layout = Packing(variable_mask(v for row in M for e in row for v in e.variables()), degree)
    return lift(layout.unpack(det_minors([[pack(layout, e) for e in row] for row in M])))


def unpacked_blocks(blocks) -> list[tuple]:
    """(top, dim, layout, packed det) blocks, as `block_determinants` and
    a symbolic report give them, as (top, dim, det) with det a `Poly`."""
    return [(top, dim, lift(layout.unpack(d))) for top, dim, layout, d in blocks]


def packed_blocks(blocks) -> list[tuple]:
    """(top, dim, det) blocks as `factors_match` takes them, (top, dim,
    layout, packed det), each det in `Packing(det.variables(), deg det)`;
    the inverse of `unpacked_blocks`."""
    out = []
    for top, dim, d in blocks:
        layout = Packing(variable_mask(d.variables()), d.total_degree())
        out.append((top, dim, layout, pack(layout, d)))
    return out
