"""Labelings, neat maximal chains, generating atom tuples, element
weights, and assembly of the symmetric chain matrix over Z[w].

Chains follow the convention that the bottom element is excluded: a
maximal chain runs from an atom up to a maximal element.  Neat chains
are grown cover by cover, as neatness is decided one cover at a time.
The chain matrix is the Gram product G^T diag(w^S) G of one signed
vector per chain over the atom sets S of its generator tuples (after
Brylawski and Varchenko), so it is symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from .polyring import Monomial, Polynomial
from .poset import Poset, PosetError


class InvalidLabeling(PosetError):
    pass


@dataclass(frozen=True)
class Chain:
    """Saturated chain [x_1 < x_2 < ... < x_k] from an atom to a maximal
    element; consecutive entries are covers."""
    elements: tuple[str, ...]

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
    return Labeling(labels)


def neat_chain_families(P: Poset, labeling: Labeling) -> dict[str, list[Chain]]:
    """Neat chains partitioned by their top (maximal) element, each family
    in lexicographic order of its element sequences.  Every maximal
    element appears as a key, possibly with an empty family.

    A maximal chain x_1 < ... < x_k is neat when l(x_i) is not below
    x_{i-1} for every i > 1 (the first step always passes, as l(x_1) is
    x_1).  Each step is decided by the cover (x_{i-1}, x_i) alone, so the
    chains are grown depth-first from the sorted atoms along the sorted
    neat upper covers, which reaches them in lexicographic order.
    """
    families: dict[str, list[Chain]] = {r: [] for r in P.maximal}

    def extend(prefix: list[str]) -> None:
        x = prefix[-1]
        ups = P.upper_covers(x)
        if not ups:
            families[x].append(Chain(tuple(prefix)))
            return
        for y in sorted(ups):
            if not P.leq(labeling[y], x):
                prefix.append(y)
                extend(prefix)
                prefix.pop()

    for a in sorted(P.atoms):
        extend([a])
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
    """Weight w(x) = sum of atom variables below x."""
    out = Polynomial.zero()
    for a in P.atoms:
        if P.leq(a, x):
            out = out + weights.var(a)
    return out


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
    C'.  sgn(sigma) is the product of the signs of A and sigma(A) against
    increasing variable index, so entry (C, C') is the sum over atom sets
    S of g_C(S) * g_C'(S) * w^S, with g_C(S) the summed signs of C's
    generator tuples on S.  Entries across families are computed like all
    others, so their zeros are genuinely computed, not assumed.
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

    var = weights.atom_vars
    vectors: list[dict[Monomial, int]] = []
    for c in chains:
        g: dict[Monomial, int] = {}
        for t in generators(P, c):
            vs = [var[a] for a in t]
            inversions = sum(u > v for u, v in combinations(vs, 2))
            S = tuple((v, 1) for v in sorted(vs))
            g[S] = g.get(S, 0) + (-1 if inversions & 1 else 1)
        vectors.append(g)
    entries = tuple(
        tuple(Polynomial({S: c * h[S] for S, c in g.items() if S in h})
              for h in vectors)
        for g in vectors)
    return ChainMatrix(tuple(chains), tuple(tops), tuple(bounds), entries)
