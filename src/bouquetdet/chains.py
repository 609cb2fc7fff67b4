"""Labelings, neat maximal chains, generating atom tuples, element
weights, and assembly of the symmetric chain matrix over Z[w].

Chains follow the convention that the bottom element is excluded: a
maximal chain runs from an atom up to a maximal element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .polyring import Polynomial
from .poset import Poset, PosetError


class InvalidLabeling(PosetError):
    pass


@dataclass(frozen=True)
class Chain:
    """Saturated chain [x_1 < x_2 < ... < x_k] from an atom to a maximal
    element; consecutive entries are covers."""
    elements: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def top(self) -> str:
        return self.elements[-1]

    def __repr__(self) -> str:
        return "[" + " < ".join(self.elements) + "]"


@dataclass(frozen=True)
class Labeling:
    """Assignment of an atom l(x) <= x to every element above the bottom."""
    labels: dict[str, str] = field(hash=False)

    def __getitem__(self, x: str) -> str:
        return self.labels[x]


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
    return Labeling({x: labels[x] for x in P.elements if x != P.bottom})


def min_labeling(P: Poset, atom_order: Sequence[str] | None = None) -> Labeling:
    """Label each element by the smallest atom below it, in the given
    atom order (default: the order atoms appear in the poset)."""
    order = tuple(atom_order) if atom_order is not None else P.atoms
    if sorted(order) != sorted(P.atoms):
        raise InvalidLabeling("atom_order must be a permutation of the atoms")
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
    return Labeling(labels)


def is_convex(P: Poset, labeling: Labeling) -> bool:
    """True iff whenever l(x) = a, every element strictly between a and x
    also carries label a."""
    for x in P.elements:
        if x == P.bottom:
            continue
        a = labeling[x]
        for z in P.down_set(x):
            if z != x and z != a and z != P.bottom and P.leq(a, z):
                if labeling[z] != a:
                    return False
    return True


def enumerate_maximal_chains(P: Poset) -> list[Chain]:
    """All saturated chains atom -> maximal element, in lexicographic
    order of their element sequences."""
    chains: list[Chain] = []

    def extend(prefix: list[str]) -> None:
        ups = P.upper_covers(prefix[-1])
        if not ups:
            chains.append(Chain(tuple(prefix)))
            return
        for y in sorted(ups):
            prefix.append(y)
            extend(prefix)
            prefix.pop()

    for a in sorted(P.atoms):
        extend([a])
    chains.sort(key=lambda c: c.elements)
    return chains


def is_neat(P: Poset, labeling: Labeling, chain: Chain) -> bool:
    """l(x_i) <= x_i but l(x_i) not below x_{i-1}, reading x_0 as the
    bottom (so the first step always passes)."""
    prev: str | None = None
    for x in chain.elements:
        a = labeling[x]
        if not P.leq(a, x):
            return False
        if prev is not None and P.leq(a, prev):
            return False
        prev = x
    return True


def is_neat_distinct_labels(P: Poset, labeling: Labeling, chain: Chain) -> bool:
    """Shortcut valid for convex labelings: neat iff all labels distinct."""
    labels = [labeling[x] for x in chain.elements]
    return len(set(labels)) == len(labels)


def neat_chain_families(P: Poset, labeling: Labeling) -> dict[str, list[Chain]]:
    """Neat chains partitioned by their top (maximal) element.  Every
    maximal element appears as a key, possibly with an empty family."""
    families: dict[str, list[Chain]] = {r: [] for r in P.maximal}
    for c in enumerate_maximal_chains(P):
        if is_neat(P, labeling, c):
            families[c.top].append(c)
    return families


def generators(P: Poset, chain: Chain) -> list[tuple[str, ...]]:
    """All ordered atom tuples (a_1, ..., a_k) whose partial joins trace
    the chain: a_1 v ... v a_i = x_i.

    The choice at level i only depends on (x_{i-1}, x_i), so the tuples
    are the cartesian product of per-level candidate sets.  a_1 must be
    x_1 itself, and repeats cannot occur (a repeated atom would stall the
    join).
    """
    levels: list[list[str]] = [[chain.elements[0]]]
    for prev, cur in zip(chain.elements, chain.elements[1:]):
        cands = [a for a in P.atoms if P.leq(a, cur) and not P.leq(a, prev)
                 and P.join(prev, a) == cur]
        levels.append(sorted(cands))
    tuples: list[tuple[str, ...]] = [()]
    for cands in levels:
        tuples = [t + (a,) for t in tuples for a in cands]
    return tuples


@dataclass(frozen=True)
class WeightAssignment:
    """Injective map atom -> polynomial variable index."""
    atom_vars: dict[str, int] = field(hash=False)

    @staticmethod
    def default(P: Poset) -> "WeightAssignment":
        return WeightAssignment({a: i for i, a in enumerate(P.atoms)})

    def var(self, atom: str) -> Polynomial:
        return Polynomial.var(self.atom_vars[atom])


def weight(P: Poset, x: str, weights: WeightAssignment) -> Polynomial:
    """Weight w(x) = sum of atom variables below x.  Ground-element
    variables come in through ground_substitution."""
    out = Polynomial.zero()
    for a in P.atoms:
        if P.leq(a, x):
            out = out + weights.var(a)
    return out


def ground_substitution(P: Poset, weights: WeightAssignment,
                        support: Mapping[str, frozenset],
                        ground_vars: Mapping[str, int]) -> dict[int, Polynomial]:
    """Substitution map expanding each atom variable into the sum of
    ground-element variables in the atom's support.

    Used by the matroid / covector adapters: applying it to both sides
    of a verified determinant identity re-expresses the identity in
    ground-element variables (ring homomorphisms preserve equality).
    """
    mapping: dict[int, Polynomial] = {}
    for a in P.atoms:
        total = Polynomial.zero()
        for e in sorted(support[a]):
            total = total + Polynomial.var(ground_vars[e])
        mapping[weights.atom_vars[a]] = total
    return mapping


def _permutation_sign(src: tuple[str, ...], dst: tuple[str, ...]) -> int:
    """Sign of the permutation carrying tuple src onto dst (same atoms)."""
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


@dataclass(frozen=True)
class ChainMatrix:
    """Symmetric matrix over Z[w] indexed by neat chains, with the index
    grouped into neat chain families (family = common top element)."""
    chains: tuple[Chain, ...]
    family_tops: tuple[str, ...]
    family_bounds: tuple[tuple[int, int], ...]  # [start, stop) per family
    entries: tuple[tuple[Polynomial, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.chains)

    def entry(self, c: Chain, d: Chain) -> Polynomial:
        i = self.chains.index(c)
        j = self.chains.index(d)
        return self.entries[i][j]

    def to_json(self) -> dict:
        return {
            "chains": [list(c.elements) for c in self.chains],
            "families": [{"top": t, "start": b[0], "stop": b[1]}
                         for t, b in zip(self.family_tops, self.family_bounds)],
            "entries": [[p.to_string() for p in row] for row in self.entries],
        }


def chain_matrix(P: Poset, labeling: Labeling, weights: WeightAssignment) -> ChainMatrix:
    """Chain matrix: entry (C, C') sums sgn(sigma) * w_{i_1}...w_{i_k}
    over atom tuples A generating C whose reorderings sigma(A) generate
    C'.  Entries with |C| != |C'| carry no terms; same-size entries are
    computed from the generic formula even across families, so the
    cross-family zeros are genuinely computed, not assumed.
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

    gens = [generators(P, c) for c in chains]
    by_set = [
        {frozenset(t): [u for u in g if frozenset(u) == frozenset(t)] for t in g}
        for g in gens
    ]
    n = len(chains)
    rows = [[Polynomial.zero()] * n for _ in range(n)]
    # Both triangles are computed independently; the symmetry of the
    # result is asserted in tests rather than built in.
    for i in range(n):
        for j in range(n):
            if chains[i].size != chains[j].size:
                continue
            acc = Polynomial.zero()
            for a_tuple in gens[i]:
                key = frozenset(a_tuple)
                for b_tuple in by_set[j].get(key, ()):
                    sign = _permutation_sign(a_tuple, b_tuple)
                    term = Polynomial.const(sign)
                    for atom in a_tuple:
                        term = term * weights.var(atom)
                    acc = acc + term
            rows[i][j] = acc
    return ChainMatrix(tuple(chains), tuple(tops), tuple(bounds),
                       tuple(tuple(row) for row in rows))
