"""Labelings, neat maximal chains, their Gram vectors, element weights,
and assembly of the symmetric chain matrix over Z[w].

Chains follow the convention that the bottom element is excluded: a
maximal chain runs from an atom up to a maximal element.  Neat chains
are grown cover by cover, as neatness is decided one cover at a time.
The chain matrix is the Gram product G^T diag(w^S) G of one signed
vector per chain over the atom sets S of its generator tuples (after
Brylawski and Varchenko), so it is symmetric by construction, and it is
block-diagonal by family (proved in `chain_matrix`).  An atom set is a
variable mask, one int with bit v for variable v, from `generators`,
which forms each vector as a product of levels, to both determinant
engines, and so is a weight w(x), from `weight`, to the factor count,
the mod-p evaluation and the printed product; the levels are differences
of weights.  `packed_block` forms each family block straight from its
Gram vectors, its keys packed by `Packing.power`.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Mapping, Sequence

from .polyring import Packing
from .poset import Poset, PosetError, _bits


class InvalidLabeling(PosetError):
    pass


# A saturated chain (x_1, ..., x_k) from an atom to a maximal element:
# consecutive entries are covers, and x_k is its top.
Chain = tuple[str, ...]
# An atom l(x) <= x for every element x above the bottom.
Labeling = dict[str, str]
# Atom set S, as a mask with bit v for variable v -> ±1.
GramVector = dict[int, int]


def make_labeling(P: Poset, labels: Mapping[str, str]) -> Labeling:
    """Validate an explicit labeling: defined on every element above the
    bottom, each label an atom below its element."""
    atoms = set(P.atoms)
    for x in P.elements:
        if x == P.bottom:
            continue
        a = labels.get(x)
        if a is None:
            raise InvalidLabeling(f"no label for {x!r}")
        if a not in atoms or not P.leq(a, x):
            raise InvalidLabeling(f"label {a!r} is not an atom below {x!r}")
    return {x: labels[x] for x in P.elements if x != P.bottom}


def min_labeling(P: Poset, atom_order: Sequence[str] | None = None) -> Labeling:
    """Label each element by the smallest atom below it, in the given
    atom order (default: the order atoms appear in the poset), which
    must list every atom once."""
    order = tuple(atom_order) if atom_order is not None else P.atoms
    labels = {}
    for x in P.elements:
        if x == P.bottom:
            continue
        for a in order:
            if P.leq(a, x):
                labels[x] = a
                break
        else:
            raise InvalidLabeling(f"no atom below {x!r}")
    return labels


def neat_chain_families(P: Poset, labeling: Labeling) -> dict[str, list[Chain]]:
    """Neat chains partitioned by their top (maximal) element, each family
    in lexicographic order of its element sequences.  Every maximal
    element appears as a key, possibly with an empty family.

    A maximal chain x_1 < ... < x_k is neat when l(x_i) is not below
    x_{i-1} for every i > 1 (the first step always passes, as l(x_1) is
    x_1).  Each step is decided by the cover (x_{i-1}, x_i) alone, so the
    chains are grown depth-first from the atoms along the neat upper
    covers, which `Poset` lists by name (the atoms are the upper covers
    of 0̂), and that reaches them in lexicographic order.
    """
    families: dict[str, list[Chain]] = {r: [] for r in P.maximal}

    def extend(prefix: list[str]) -> None:
        x = prefix[-1]
        ups = P.upper_covers(x)
        if not ups:
            families[x].append(tuple(prefix))
            return
        for y in ups:
            if not P.leq(labeling[y], x):
                prefix.append(y)
                extend(prefix)
                prefix.pop()

    for a in P.atoms:
        extend([a])
    return families


def generators(P: Poset, chain: Chain, weights: WeightAssignment) -> GramVector:
    """The Gram vector g_C of the chain: the atom set S of each ordered
    atom tuple (a_1, ..., a_k) whose partial joins trace the chain,
    a_1 v ... v a_i = x_i, as a variable mask, mapped to the tuple's
    sign, (-1)^(number of inversions of the variables of a_1, ..., a_k).

    Level i holds the atoms below x_i and not below x_{i-1} (x_0 = 0̂),
    the variables of w(x_i) & ~w(x_{i-1}) (`weight`), and the tuples are
    the product of the levels.  This needs a meet semilattice with 0̂, as
    every checked bouquet is: there such an atom a has
    x_{i-1} < x_{i-1} v a <= x_i, so x_{i-1} v a = x_i by the cover.  The
    levels are disjoint, so each tuple has its own atom set, and the
    product is taken over the masks.  The sign follows level by level:
    a tuple on the variables S extended by a variable v not in S gains
    one inversion for each variable of S above v and no other, so its
    sign flips exactly when (S >> v).bit_count() is odd.
    """
    vector: GramVector = {0: 1}
    below = 0
    for x in chain:
        cur = weight(P, x, weights)
        level = [(v, 1 << v) for v in _bits(cur & ~below)]
        vector = {S | bit: -c if (S >> v).bit_count() & 1 else c
                  for S, c in vector.items() for v, bit in level}
        below = cur
    return vector


class WeightAssignment:
    """Injective map atom -> polynomial variable index, checked."""
    __slots__ = ("atom_vars",)

    def __init__(self, atom_vars: dict[str, int]):
        owner: dict[int, str] = {}
        for a, v in atom_vars.items():
            if owner.setdefault(v, a) != a:
                raise ValueError(f"atoms {owner[v]!r} and {a!r} share the "
                                 f"variable w{v + 1}; weights must be injective")
        self.atom_vars = atom_vars

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightAssignment)
                and self.atom_vars == other.atom_vars)

    @staticmethod
    def default(P: Poset) -> "WeightAssignment":
        return WeightAssignment({a: i for i, a in enumerate(P.atoms)})


def weight(P: Poset, x: str, weights: WeightAssignment) -> int:
    """Weight w(x), the sum of the atom variables below x, as the mask of
    those variables, bit v for variable v (injective weights, so one bit
    per atom)."""
    var = weights.atom_vars
    return sum(1 << var[a] for a in P.atoms_below(x))


Packed = dict[int, int]  # packed monomial -> coefficient (see polyring)


def packed_block(G: tuple[GramVector, ...]) -> tuple[Packing, list[list[Packed]]]:
    """The layout of a family block and its entries packed in it, straight
    from its Gram vectors: the layout is `Packing(variables of the block,
    dim * rank)`, the variables the OR of its atom-set masks and rank the
    size of its atom sets (all of family r have rank(r) atoms), and entry
    (C, C') is the sum over the atom sets S of both of
    g_C(S) * g_C'(S) * key(S), key(S) = `layout.power(S)` the packed w^S:
    the one place an entry of the chain matrix is formed."""
    atom_sets = {S for g in G for S in g}
    rank = next(iter(atom_sets), 0).bit_count()
    layout = Packing(reduce(or_, atom_sets, 0), len(G) * rank)
    key = {S: layout.power(S) for S in atom_sets}
    rows = [{key[S]: c for S, c in g.items()} for g in G]
    return layout, [[{k: c * h[k] for k, c in g.items() if k in h} for h in rows]
                    for g in rows]


class ChainMatrix:
    """Symmetric matrix over Z[w] indexed by neat chains, with the index
    grouped into neat chain families (family = common top element), held
    as its Gram factor: one vector g_C of ±1 coefficients per chain.  The
    printed entries are formed on first use and kept, each family block
    packed once and printed in its own layout, every off-block entry "0"
    (see `chain_matrix`)."""
    __slots__ = ("chains", "family_tops", "family_bounds", "vectors", "_entries")

    def __init__(self, chains: tuple[Chain, ...], family_tops: tuple[str, ...],
                 family_bounds: tuple[tuple[int, int], ...],  # [start, stop) per family
                 vectors: tuple[GramVector, ...]):
        self.chains, self.family_tops = chains, family_tops
        self.family_bounds, self.vectors = family_bounds, vectors
        self._entries: tuple[tuple[str, ...], ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.chains)

    @property
    def entries(self) -> tuple[tuple[str, ...], ...]:
        """The text of every entry, row by row."""
        if self._entries is None:
            rows = []
            for start, stop in self.family_bounds:
                layout, block = packed_block(self.vectors[start:stop])
                rows += [("0",) * start + tuple(map(layout.text, row))
                         + ("0",) * (self.dim - stop) for row in block]
            self._entries = tuple(rows)
        return self._entries

    def to_json(self) -> dict:
        return {
            "chains": [list(c) for c in self.chains],
            "families": [{"top": t, "start": b[0], "stop": b[1]}
                         for t, b in zip(self.family_tops, self.family_bounds)],
            "entries": [list(row) for row in self.entries],
        }


def chain_matrix(P: Poset, labeling: Labeling, weights: WeightAssignment) -> ChainMatrix:
    """Chain matrix: entry (C, C') sums sgn(sigma) * w_{i_1}...w_{i_k}
    over atom tuples A generating C whose reorderings sigma(A) generate
    C'.  sgn(sigma) is the product of the signs of A and sigma(A) against
    increasing variable index, so entry (C, C') is the sum over atom sets
    S of g_C(S) * g_C'(S) * w^S, with g_C(S) = ±1 the sign of C's one
    generator tuple on S (see `generators`).  The matrix keeps the
    vectors g_C.

    It is block-diagonal by family, under every labeling.  The partial
    joins of a tuple generating a chain of family r trace the chain, so
    r is the join of its atom set S; were S also the atom set of a chain
    of family r', r' would be that join too.  The weights are injective,
    so w^S determines S: every cross-family entry is the empty sum.  P
    must be a bouquet, as `generators` needs, and is not checked here:
    the CLI's `_load_poset` (for `matrix` and `det`) and
    `determinant.verify_theorem` require it with `Poset.require_bouquet`.

    Each family r has |mu(0̂, r)| neat chains, its block's dimension, with
    one exemption: the one-element poset, whose only element is both 0̂
    and the top of its one family.  Chains start at an atom and it has
    none, so that family has no chain and its block has dimension 0,
    while |mu(0̂, 0̂)| = 1.  Its determinant, the empty one, is 1, the
    empty product on the right-hand side, so the verdict is true.
    """
    families = neat_chain_families(P, labeling)
    chains: list[Chain] = []
    tops: list[str] = []
    bounds: list[tuple[int, int]] = []
    for r in P.maximal:
        start = len(chains)
        chains.extend(families[r])
        tops.append(r)
        bounds.append((start, len(chains)))

    return ChainMatrix(tuple(chains), tuple(tops), tuple(bounds),
                       tuple(generators(P, c, weights) for c in chains))
