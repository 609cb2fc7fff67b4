"""Exact symbolic determinant of the chain matrix and verification of
its factorization det = prod over elements x of w(x)^rho(x).

The sign is +1, proved once here.  Each family block is
G^T * diag(w^S) * G, G the matrix of its Gram vectors (a row per atom set
S, a column per chain), so by Cauchy-Binet its determinant D_r is the sum
over the dim_r-sets T of atom sets of det(G_T)^2 * prod over S in T of
w^S: every coefficient of D_r is >= 0.  R = prod w(x)^rho(x) is a product
of sums of variables, nonzero with every coefficient >= 0, so -R has a
negative coefficient and D = -R never holds; the same goes for each block
and its own product of weights.  So the identity checked is D = R, and a
cofactor of -1 is a miss like any other.

Symbolic mode computes each family block's determinant by division-free
expansion over column subsets (`det_minors`) and counts the weights
w(x) among its factors; it never multiplies the blocks together or
expands the right-hand side.  The expansion keeps one table from each
set S of columns to the minor of the first |S| rows on S and extends it
a row at a time, each step adding one entry times one minor into a
minor one column larger.  Each block is packed once, straight from its
Gram vectors, in `Packing(atom variables of the block, dim_r * rank(r))`
(`chains.packed_block`): every entry of family r is homogeneous of degree
rank(r), so every minor has degree at most dim_r * rank(r).  The
expansion, the packed D_r it returns, the factor count and the printed
text (`Packing.text`) all stay in that layout.  The table of an n x n
block peaks at C(n, n // 2) minors, so a block of dimension above
MAX_SYMBOLIC_DIM raises TooLarge before any block is expanded.

Both modes take the chain matrix as its Gram factor, one signed vector
g_C per chain over atom sets S; it is block-diagonal by family (proved
in `chains.chain_matrix`), so `block_decompose` just slices the vectors
and symbolic mode expands the diagonal blocks alone.
Randomized mode never builds a polynomial entry: per trial it draws each
variable uniformly from [1, p - 1], p a fixed 62-bit prime, computes w^S
mod p once per atom set and packs each block row into one int from the
Gram vectors (`GramBlockMod`), and the trials of a lockstep group
eliminate their packed rows mod p together
(`det_mod`): one batch inverse of all the group's pivots per step, and
each pivot row reduced in all its fields at once by a Barrett step
(`lane_reducer`), in fields as wide as `lane_width` rules; a weight
w(x), a set of variables, is the sum of their values.  A trial of a
false identity passes with probability at most deg / (p - 1),
deg <= max(sum over blocks r of dim_r * rank(r), sum over x of rho(x))
(Schwartz 1980; Zippel 1979); the bound does not cover
det - prod w(x)^rho(x) nonzero over Z with every coefficient divisible
by p.  The independent oracles these are tested against (a
Laplace-expansion determinant, a dense mod-p elimination, the expanded
products) live in tests.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, NamedTuple

from .chains import (ChainMatrix, GramVector, Labeling, Packed,
                     WeightAssignment, chain_matrix, packed_block, weight)
from .polyring import (Monomial, Packing, Polynomial, div_weight, mul_into,
                       sum_text)
from .poset import BouquetdetError, Poset

# Fixed evaluation prime for randomized verification: smallest prime
# above 2^61 (62 bits).
VERIFICATION_PRIME = 2305843009213693967

# The largest family block symbolic mode expands.  The minor table of an
# n x n block peaks at C(n, n // 2) minors: at n = 15 (U(3,7)) that is
# 6435 minors and about 0.35 GiB; at n = 20 (U(4,7)) it is 29 times as many.
MAX_SYMBOLIC_DIM = 15


class DeterminantError(BouquetdetError):
    pass


class TooLarge(DeterminantError):
    pass


PackedBlock = tuple[str, int, Packing, Packed]  # (top, dim, layout, D_r)


def block_decompose(M: ChainMatrix) -> list[tuple[str, tuple[GramVector, ...]]]:
    """The diagonal blocks of the family-grouped chain matrix, one per
    neat chain family, each as (top, Gram vectors of its chains); the
    off-block entries are zero (`chains.chain_matrix`)."""
    return [(top, M.vectors[start:stop])
            for top, (start, stop) in zip(M.family_tops, M.family_bounds)]


def det_minors(M: list[list[Packed]]) -> Packed:
    """Exact determinant of a square matrix of packed entries, all in one
    layout wide enough for every minor, by division-free expansion over
    column subsets (see the module docstring); returned packed in that
    layout, {} when it is zero.  For a family block the layout of
    `packed_block` is wide enough: each entry has degree rank(r), so a
    minor of k rows has degree k * rank(r) <= dim * rank(r) = deg D_r.

    After k rows the table maps each k-subset S of the columns, as a
    bitmask, to the packed minor of those rows on S; a subset whose
    minor is zero is absent.  Row k adds +/- a_kj * D(S) into
    D(S + {j}) for each nonzero a_kj with j not in S, negated when an
    odd number of the columns of S lie above j (the inversions that
    placing column j after them adds).
    """
    n = len(M)
    for row in M:
        if len(row) != n:
            raise DeterminantError("matrix is not square")
    minors: dict[int, Packed] = {0: {0: 1}}  # the empty minor is 1
    for row in M:
        entries = [(j, 1 << j, a, {t: -c for t, c in a.items()})
                   for j, a in enumerate(row) if a]
        extended: dict[int, Packed] = {}
        while minors:
            S, D = minors.popitem()
            for j, bit, a, minus_a in entries:
                if not S & bit:
                    odd = (S >> j).bit_count() & 1
                    mul_into(extended.setdefault(S | bit, {}),
                             minus_a if odd else a, D)
        for S, D in extended.items():
            D = {t: c for t, c in D.items() if c}
            if D:
                minors[S] = D
    return minors.get((1 << n) - 1, {})


def block_determinants(P: Poset, labeling: Labeling, weights: WeightAssignment
                       ) -> list[PackedBlock]:
    """The determinant D_r of each family block of the chain matrix, as
    (top, dim, layout, D_r) with D_r packed in the block's layout (see
    `packed_block`); the matrix's determinant is their product.  Only the
    diagonal blocks are expanded, and none is when a block's dimension is
    above MAX_SYMBOLIC_DIM: that raises TooLarge first."""
    blocks = block_decompose(chain_matrix(P, labeling, weights))
    for top, G in blocks:
        if len(G) > MAX_SYMBOLIC_DIM:
            raise TooLarge(
                f"the block with top {top} has dimension {len(G)}, above "
                f"{MAX_SYMBOLIC_DIM}, the largest that symbolic mode expands; "
                f"verify it with --mode randomized")
    out = []
    for top, G in blocks:
        layout, entries = packed_block(G)
        out.append((top, len(G), layout, det_minors(entries)))
    return out


def factors_match(blocks: list[PackedBlock],
                  factors: list[tuple[frozenset[int], int]]) -> bool:
    """Whether prod D_r = prod w^e over `factors`, D_r the packed block
    determinants and each w a weight, a sum of variables given as their
    set.  Each D_r is divided in its own layout by each w whose variables
    the layout has (a w with a variable outside it, which D_r lacks,
    cannot divide it), more variables first, until `div_weight` returns
    None.

    For a family block this is the layout `Packing(D_r.variables(),
    deg D_r)` whenever D_r != 0.  Every entry is homogeneous of degree
    rank(r), as every atom set of family r has rank(r) atoms, so
    dim * rank(r) = deg D_r.  And every variable of the entries occurs in
    D_r: by Cauchy-Binet D_r is the sum over the dim-sets T of atom sets
    of det(G_T)^2 * w^T, with no cancellation, and every nonzero row S of
    G lies in some row basis T.  So the layout is wide enough for
    `div_weight` on D_r.  The weights are distinct sums of
    variables, so pairwise non-associate primes, and no D_r has a
    negative coefficient (module docstring): the identity holds iff every
    cofactor is the packed 1, {0: 1}, and the counts of each w, summed
    over the blocks, equal its exponent.  A zero D_r is a miss."""
    counts = dict.fromkeys((w for w, _ in factors), 0)
    weights = sorted(counts, key=len, reverse=True)
    for _, _, layout, det in blocks:
        if not det:
            return False
        cofactor = det
        for w in weights:
            if w.issubset(layout.shift):
                while (quotient := div_weight(cofactor, layout, w)) is not None:
                    cofactor = quotient
                    counts[w] += 1
        if cofactor != {0: 1}:
            return False
    return all(counts[w] == e for w, e in factors)


def product_text(factors: list[tuple[str, int]]) -> str:
    """The text of a product of (text, exponent) factors, joined by "*";
    "1" for none.  A factor of several terms (its text has a space, as
    `Packing.text` puts spaces only between terms) is put in
    parentheses when there are two or more factors or its exponent is
    above 1."""
    if not factors:
        return "1"
    out = []
    for text, e in factors:
        if " " in text and (len(factors) > 1 or e > 1):
            text = f"({text})"
        out.append(text if e == 1 else f"{text}^{e}")
    return "*".join(out)


def det_texts(blocks: list[PackedBlock]) -> tuple[list[str], str]:
    """The text of each block determinant, printed once in its own
    layout, and the text of the determinant: the product of the blocks."""
    texts = [layout.text(det) for _, _, layout, det in blocks]
    return texts, product_text([(t, 1) for t in texts])


def blocks_json(blocks: list[tuple], texts: list[str] | None) -> list[dict]:
    """The blocks as `det` and `verify` print them: top, dim and the
    determinant's text, None for each block when there are no texts."""
    texts = texts or [None] * len(blocks)
    return [{"top": t, "dim": d, "det": text}
            for (t, d, *_), text in zip(blocks, texts)]


class VerificationReport(NamedTuple):
    verdict: bool
    exponents: dict[str, int]
    rhs: list[tuple[frozenset[int], int]]  # (w(x), rho(x)) for rho(x) != 0, in element order
    # (top, dim, layout, D_r) as `block_determinants` gives them in
    # symbolic mode; (top, dim, None, None) in randomized mode
    blocks: list[tuple[str, int, Packing | None, Packed | None]]
    mode: str
    trials: int = 0
    seed: int = 0

    @property
    def sign(self) -> int | None:
        """1 on a true verdict, None on a false one: the sign is never -1
        (module docstring)."""
        return 1 if self.verdict else None

    @property
    def determinant(self) -> Polynomial | None:
        """The lone block's determinant, unpacked on each call; None for
        several blocks, whose product is never formed, and in randomized
        mode.  (perfbench's tracer reads this; no command does.)"""
        if len(self.blocks) != 1 or self.blocks[0][2] is None:
            return None
        _, _, layout, det = self.blocks[0]
        return layout.unpack(det)

    def texts(self) -> tuple[list[str] | None, str | None, str | None]:
        """The texts of the block determinants, of their product and of
        the right-hand side, each block formatted once; None in
        randomized mode.  On a true verdict the right-hand side is the
        product of the blocks, on a false one prod w(x)^rho(x)."""
        if self.mode != "symbolic":
            return None, None, None
        block_texts, det = det_texts(self.blocks)
        if self.verdict:
            return block_texts, det, det
        return block_texts, det, product_text([(sum_text(w), e) for w, e in self.rhs])

    def to_json(self) -> dict:
        block_texts, det, product = self.texts()
        return {
            "verdict": self.verdict,
            "sign": self.sign,
            "det": det,
            "product": product,
            "exponents": dict(self.exponents),
            "blocks": blocks_json(self.blocks, block_texts),
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
        }


def lane_width(bound: int, p: int) -> int:
    """The field width W of packed rows whose fields stay below `bound`
    through elimination mod the prime p (`det_mod`): with v =
    bound.bit_length() and k = p.bit_length(), W = max(v + 1,
    2v - 2k + 3).  Fields below 2^v need v bits and the Barrett step of
    `lane_reducer` needs 2s bits for its products, s = v - k + 1; the rule
    keeps one spare bit over each."""
    v, k = bound.bit_length(), p.bit_length()
    return max(v + 1, 2 * (v - k) + 3)


def lane_reducer(width: int, p: int, lanes: int) -> Callable[[int], int]:
    """The Barrett step on `lanes` packed fields of `width` bits at once:
    it maps X to an int whose every field is congruent mod p to X's and
    below 3p, in a constant number of big-int operations.

    Each field x must be below 2^v, v the largest with `lane_width` at
    most `width`.  With k = p.bit_length(), s = v - k + 1,
    mu = floor(2^v / p) < 2^s and L the low s bits of every field:
    t = (X >> (k - 1)) & L holds floor(x / 2^(k - 1)) < 2^s in each field
    (v <= W, so no bit of the next field enters), t * mu < 2^(2s) <= 2^W
    carries into no field, and q = ((t * mu) >> s) & L holds
    floor(t * mu / 2^s).  As 2^(k - 1) <= p, x/p - t * mu / 2^s < 2, so
    floor(x / p) - 2 <= q <= floor(x / p): every x - q * p lies in
    [0, 3p), and X - q * p borrows across no field."""
    k = p.bit_length()
    v = min(width - 1, (width + 2 * k - 3) // 2)
    s = max(v - k + 1, 0)  # 0 when fields are below 2^(k - 1) <= p already
    mu = (1 << v) // p
    low = sum(((1 << s) - 1) << j * width for j in range(lanes))

    def reduce(X: int) -> int:
        return X - ((X >> k - 1 & low) * mu >> s & low) * p

    return reduce


def det_mod(matrices: list[list[int]], width: int, p: int) -> list[int]:
    """The determinants modulo the prime p of a group of n x n matrices,
    each a list of n packed rows (row i is one int, column j in bits
    [j * width, (j + 1) * width)), entries nonnegative and not
    necessarily below p; `width` is `lane_width` of a bound on every
    field through elimination: the largest entry plus (n - 1) * 3p^2.
    The rows' lists are overwritten.

    Gaussian elimination mod p, the matrices in lockstep.  At step k each
    matrix takes as pivot its first row whose column-k entry is nonzero
    mod p (a matrix with none has determinant 0 and leaves the group).
    The step's pivots are inverted together with one `pow` (Montgomery's
    batch inversion: prefix products, one inverse, a backward pass) and
    none at the last step.  Each pivot row is reduced by `lane_reducer`,
    its fields below 3p, and each lower row i takes R_i += (p - f) * R_k
    with f = a_ik / a_kk, then drops column k with a shift: each
    addition is below 3p^2, and no carry crosses a field.  So a pivot
    row takes a constant number of big-int operations, a matrix O(n^2)
    Python-level operations in all, and a step one inverse for the
    whole group.
    """
    n = len(matrices[0]) if matrices else 0
    mask = (1 << width) - 1
    reduce = lane_reducer(width, p, n)
    dets = [1] * len(matrices)
    live = list(enumerate(matrices))
    for k in range(n):
        kept, pivots = [], []
        for t, rows in live:
            for i in range(k, n):
                if a := (rows[i] & mask) % p:
                    break
            else:
                dets[t] = 0
                continue
            if i != k:
                rows[k], rows[i] = rows[i], rows[k]
                dets[t] = -dets[t]
            dets[t] = dets[t] * a % p
            kept.append((t, rows))
            pivots.append(a)
        live = kept
        if k == n - 1 or not live:
            break  # no row left to eliminate: skip the inverse
        prefix = []  # prefix[j] = product of the pivots before j
        product = 1
        for a in pivots:
            prefix.append(product)
            product = product * a % p
        inv = pow(product, -1, p)  # 1 / (product of the step's pivots)
        for (_, rows), a, before in zip(reversed(live), reversed(pivots),
                                        reversed(prefix)):
            inv_a, inv = inv * before % p, inv * a % p
            pivot_row = reduce(rows[k] >> width)
            for i in range(k + 1, n):
                row = rows[i]
                f = (row & mask) * inv_a % p
                row >>= width
                if f:
                    row += (p - f) * pivot_row
                rows[i] = row
    return [d % p for d in dets]


# The bytes of packed rows one lockstep group of `det_mod` may hold.  A
# trial's matrix has dim^2 * width bits: 0.25 MB for M(K6)'s block (dim
# 120, 141-bit fields) and about 9.5 MB for M(K7)'s (dim 720, 147 bits).
# 8 MiB takes all 20 default trials of M(K6) and of every smaller block
# in one group and runs M(K7) one trial at a time.  Measured on randomized
# M(K6) (CLI, 2 vCPU, 12 runs): the group of 20 lifts peak RSS from 21.9
# to 30.1 MiB, as `det_mod` overwrites the rows in place.
MAX_GROUP_BYTES = 8 << 20


def group_trials(dim: int, width: int) -> int:
    """How many trials of a block of this dimension and field width one
    lockstep group takes: as many packed matrices as fit in
    MAX_GROUP_BYTES, and at least one."""
    return max(1, 8 * MAX_GROUP_BYTES // max(1, dim * dim * width))


class GramBlockMod:
    """A family block evaluated modulo p from its Gram vectors, as packed
    rows for `det_mod`.  Column pattern S holds g_C'(S) mod p in the field
    of each chain C' of the block; at a point with w^S = powers[number of
    S], row C is the sum over the atom sets S of g_C of
    (g_C(S) * w^S mod p) times pattern S.  A field then holds at most
    |g_C| products below p^2, and `width` is `lane_width` of that plus
    the n - 1 elimination steps of `det_mod`, each adding below 3p^2."""

    def __init__(self, vectors: tuple[GramVector, ...],
                 number: dict[Monomial, int], p: int):
        self.p = p
        self.dim = n = len(vectors)
        bound = (max(map(len, vectors), default=0) * (p - 1) ** 2
                 + max(n - 1, 0) * 3 * p * p)
        self.width = width = lane_width(bound, p)
        columns: dict[Monomial, int] = {}
        for j, g in enumerate(vectors):
            for S, c in g.items():
                columns[S] = columns.get(S, 0) + (c % p << j * width)
        self.terms = [[(number[S], c, columns[S]) for S, c in g.items()]
                      for g in vectors]

    def rows(self, powers: list[int]) -> list[int]:
        p = self.p
        return [sum(c * powers[i] % p * column for i, c, column in terms)
                for terms in self.terms]

    def dets(self, powers: list[list[int]]) -> list[int]:
        """The block's determinant mod p at each trial's powers, the
        trials eliminated in lockstep."""
        return det_mod([self.rows(pw) for pw in powers], self.width, self.p)


def weight_mod(w: Iterable[int], point: list[int], p: int) -> int:
    """The weight w, a sum of variables given by their slots, at the
    point modulo p."""
    return sum(map(point.__getitem__, w)) % p


def verify_theorem(P: Poset, labeling: Labeling, weights: WeightAssignment,
                   mode: str = "symbolic", trials: int = 20,
                   seed: int = 0) -> VerificationReport:
    """Check det(chain matrix) = prod w(x)^rho(x).

    Symbolic mode counts the factors w(x) of each block determinant
    exactly (see `factors_match`).  Randomized mode runs the trials in
    lockstep groups of consecutive trials (`group_trials` of each block,
    the fewest).  Per group it draws each trial's point, each variable
    uniformly from [1, p - 1] (p the fixed 62-bit prime; trial by trial,
    variables in increasing order, so a seed gives the same points
    whatever the groups), evaluates w^S once per trial and atom set S of
    the Gram factor, each block's rows from it (`GramBlockMod`) and
    their determinants together with `det_mod`, and requires both sides
    to agree in every trial, stopping after the first group where one
    does not.  Neither mode multiplies the blocks together or expands
    the right-hand side.

    The randomized error bound (Schwartz 1980; Zippel 1979): if det - R
    is nonzero modulo p, R = prod w(x)^rho(x), a trial passes with
    probability at most deg / (p - 1), where deg <= max(sum over blocks
    r of dim_r * rank(r), sum over x of rho(x)); a false identity passes
    every trial with probability at most (deg / (p - 1))^trials.  Not
    covered: det - R nonzero over Z with every coefficient divisible
    by p.

    ValueError for an unknown mode, and for trials < 1 in either mode,
    with which randomized mode would check nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    P.require_bouquet()
    exponents = {x: P.rho(x) for x in P.elements}  # >= 0 on a bouquet (Poset.rho)
    # Distinct elements of a bouquet have distinct atom sets, so each
    # weight belongs to one element.
    rhs = [(weight(P, x, weights), e) for x, e in exponents.items() if e]

    if mode == "symbolic":
        blocks = block_determinants(P, labeling, weights)
        return VerificationReport(factors_match(blocks, rhs), exponents, rhs,
                                  blocks, "symbolic")

    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")

    blocks = block_decompose(chain_matrix(P, labeling, weights))
    p = VERIFICATION_PRIME
    rng = random.Random(seed)
    variables = sorted(set(weights.atom_vars.values()))
    slot = {v: i for i, v in enumerate(variables)}
    number: dict[Monomial, int] = {}  # atom set -> its index in powers
    for _, G in blocks:
        for g in G:
            for S in g:
                number.setdefault(S, len(number))
    atom_slots = [[slot[v] for v, _ in S] for S in number]
    rhs_slots = [(frozenset(slot[v] for v in w), e) for w, e in rhs]
    mod_blocks = [GramBlockMod(G, number, p) for _, G in blocks]
    size = min(group_trials(B.dim, B.width) for B in mod_blocks)
    verdict = True
    for start in range(0, trials, size):
        group = [[rng.randrange(1, p) for _ in variables]
                 for _ in range(min(size, trials - start))]
        powers = []
        for point in group:
            values = []
            for slots in atom_slots:
                value = 1
                for i in slots:
                    value = value * point[i] % p
                values.append(value)
            powers.append(values)
        dets = [1] * len(group)
        for B in mod_blocks:
            dets = [d * e % p for d, e in zip(dets, B.dets(powers))]
        for point, det_val in zip(group, dets):
            rhs_val = 1
            for w, e in rhs_slots:
                rhs_val = rhs_val * pow(weight_mod(w, point, p), e, p) % p
            verdict = verdict and det_val == rhs_val
        if not verdict:
            break
    return VerificationReport(verdict, exponents, rhs,
                              [(t, len(G), None, None) for t, G in blocks],
                              "randomized", trials=trials, seed=seed)
