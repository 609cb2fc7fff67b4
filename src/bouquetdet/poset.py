"""Finite posets, with the order-theoretic invariants used by the
chain-matrix pipeline: the bouquet test, rank, mu(0̂, x), Crapo beta,
and the cumulated rho exponent.

The order is held once, as int bitmasks over element positions, bit i
standing for `elements[i]`: the down-mask of x has a bit for every
y <= x.  The `Poset` constructor derives the rest from the down-masks:
up-masks (so x <= y is one bit test), covers, bottom, atoms and maximal
elements.  `build_poset` validates outside input and closes its covers
into down-masks.  `inclusion_poset` takes sets as masks over a ground's
positions, as the matroid and COM adapters hold them, and passes its
down-masks straight on; names enter only where it forms the ids.  The
common upper bounds of x and y are the up-set `up[x] & up[y]`, which
has a least element j exactly when it is the principal filter `up[j]`;
so their join is a dict lookup of that mask (none when it is not a
key).  The bouquet test is one pass over these masks that tests each
element against the atoms only, with no interval built and no pair of
elements scanned: every x is the join of the atoms below it, and x v a
exists and covers x for every atom a not below x with which x has a
common upper bound.
These two make the poset a meet semilattice and every [0̂, r]
semimodular (proved at `Poset.is_bouquet`); the first failure is the
witness that `Poset.bouquet_failure` names.  Rank, mu(0̂, x), beta and rho
come from one table, built on first use in one pass up the poset and one
pass down each [0̂, r], r maximal (see `Poset._invariants`).

All relations are materialized at build time (desk-scale instances), and
a Poset is immutable afterwards, so queries are safe to run concurrently.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Iterator, Sequence


class BouquetdetError(Exception):
    """Root of every error this package raises on input it rejects: an
    invalid structure, a poset that is not a bouquet, or a block too
    large for symbolic mode.  The CLI exits 2 on it."""


class PosetError(BouquetdetError):
    pass


class UnknownElement(PosetError):
    pass


class CycleDetected(PosetError):
    pass


class RedundantCover(PosetError):
    """A cover pair already implied by transitivity."""


class NotRanked(PosetError):
    pass


class NotABouquet(PosetError):
    """The poset is not a bouquet of geometric lattices, for `reason`,
    shown by `witness` (see `Poset.bouquet_failure`)."""

    def __init__(self, reason: str, witness: tuple):
        super().__init__(f"not a bouquet of geometric lattices: {reason} "
                         f"{json.dumps(list(witness))}")
        self.reason, self.witness = reason, witness


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Immutable finite poset, held as down-masks.  Use build_poset() for
    cover pairs, inclusion_poset() for sets ordered by inclusion."""

    __slots__ = (
        "elements", "covers", "_index", "_up", "_down", "_by_up",
        "_upcov", "_downcov", "bottom", "atoms", "_atom_mask", "maximal",
        "_bouquet", "_failure", "_table",
    )

    def __init__(self, elements: Sequence[str], down: list[int]):
        """`down[i]` masks the elements at or below `elements[i]` in a
        partial order.  y covers x when x is strictly below y and below
        nothing else strictly below y; covers are listed by name."""
        self.elements = elements = tuple(elements)
        self._index = {x: i for i, x in enumerate(elements)}
        if len(self._index) != len(elements):
            raise UnknownElement("duplicate element identifiers")
        up = [1 << j for j in range(len(elements))]
        self._downcov = downcov = {}
        upcov: dict[str, list[str]] = {x: [] for x in elements}
        for j, (y, d) in enumerate(zip(elements, down)):
            bit = 1 << j
            below = rest = d & ~bit
            implied = 0
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                up[i] |= bit
                implied |= down[i] & ~low
                rest ^= low
            downcov[y] = xs = tuple(sorted(elements[i] for i in _bits(below & ~implied)))
            for x in xs:
                upcov[x].append(y)
        self.covers = frozenset((x, y) for y, xs in downcov.items() for x in xs)
        self._upcov = {x: tuple(sorted(v)) for x, v in upcov.items()}
        self._up = up
        self._down = down
        self._by_up = {m: i for i, m in enumerate(up)}
        minimal = [x for x in elements if not downcov[x]]
        self.bottom = minimal[0] if len(minimal) == 1 else None
        self.atoms = self._upcov[self.bottom] if self.bottom is not None else ()
        self._atom_mask = sum(1 << self._index[a] for a in self.atoms)
        self.maximal = tuple(x for x in elements if not upcov[x])
        self._bouquet: bool | None = None
        self._failure: tuple[str, tuple] | None = None
        self._table: list[tuple[int, int, int, int]] | None = None

    # -- order queries ------------------------------------------------

    def _pos(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(x) from None

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self._pos(x)] >> self._pos(y) & 1)

    def atoms_below(self, x: str) -> list[str]:
        """The atoms at or below x, in element order."""
        els = self.elements
        return [els[i] for i in _bits(self._down[self._pos(x)] & self._atom_mask)]

    def upper_covers(self, x: str) -> tuple[str, ...]:
        self._pos(x)
        return self._upcov[x]

    # -- structure tests ----------------------------------------------

    def _failure_pass(self) -> tuple[str, tuple] | None:
        """The first failure of the two tests of `is_bouquet`, in the
        order `bouquet_failure` documents, or None.  (A) x is the join of
        the atoms below it when their common up-mask is up[x]; for the
        bottom there are no atoms below, and the empty join is the whole
        poset, the bottom's up-mask.  (B) x v a is the element whose
        up-mask is up[x] & up[a], when some element has that up-mask, and
        it covers x when the interval [x, x v a], the mask
        up[x] & down[x v a], holds x and x v a only.  n * |atoms| mask lookups in all."""
        els, up, down, by_up = self.elements, self._up, self._down, self._by_up
        if self.bottom is None:
            return ("not-lattice", tuple(x for x in els if not self._downcov[x])[:2])
        everything, atom_mask = (1 << len(els)) - 1, self._atom_mask
        for x, u, d in zip(els, up, down):
            upper, rest = everything, d & atom_mask
            while rest:
                low = rest & -rest
                upper &= up[low.bit_length() - 1]
                rest ^= low
            if upper != u:
                return ("not-atomic", (x,))
        atoms = [(a, up[self._index[a]]) for a in self.atoms]
        for x, ux in zip(els, up):
            for a, ua in atoms:
                common = ux & ua
                # common is ux exactly when a <= x, and 0 when x and a
                # have no common upper bound
                if common and common != ux:
                    j = by_up.get(common)
                    if j is None:
                        return ("not-lattice", (a, x))
                    if (ux & down[j]).bit_count() != 2:
                        return ("not-semimodular", (a, x))
        return None

    def is_bouquet(self) -> bool:
        """Meet semilattice with a bottom 0̂ whose interval [0̂, r] below
        each maximal element r is a geometric lattice.  (Every interval
        of the poset sits inside some [0̂, r], and intervals of geometric
        lattices are geometric, so the top intervals suffice.)

        One pass decides it (`_failure_pass`), with no interval built and
        no pair of elements scanned; it runs once, and later calls return
        the stored verdict.  Claim: a finite poset with a unique minimal
        element 0̂, which then lies below every element, is a bouquet iff
        (A) every x is the join of the atoms below it, and (B) for every
        x and every atom a not below x that has a common upper bound with
        x, the join x v a exists and covers x.

        Lemma: an atomistic lattice is semimodular iff x v a covers x for
        every x and every atom a not below x.  (=>) a ^ x = 0̂ is covered
        by a, so by semimodularity x is covered by a v x.  (<=) Let x ^ y
        be covered by x.  Some atom a <= x is not below y, or x would be
        the join of atoms below y and x ^ y = x.  Then x ^ y <
        (x ^ y) v a <= x, so x = (x ^ y) v a and x v y = y v a, which
        covers y.

        (=>) In a finite meet semilattice with 0̂, each [0̂, r] is a lattice
        whose meets and joins are the poset's: x ^ y lies below r, and
        when x and y have a common upper bound, the meet of all their
        common upper bounds is their join, which lies below r.  The
        covers of [0̂, r] are the poset's covers, and its atoms are the
        poset's atoms below r.  (A): a common upper bound u of the atoms
        below x has u ^ x above them all, so u ^ x = x in the atomistic
        [0̂, x], and u lies above x.  (B): a common upper bound of x and a
        lies below some maximal r, so [0̂, r] holds x, a and x v a, and the
        lemma applies there.

        (<=) Joins of atom sets first: if a set S of atoms has a common
        upper bound, then v S exists and its up-set is the intersection
        of the up-sets of the atoms in S.  By induction on |S|: the empty
        join is 0̂; for S = T + {a}, v T = t exists, and every common
        upper bound of S lies above t, so v S = t when a <= t, and
        otherwise (B) gives t v a, whose up-set is up(t) & up(a).  Now
        let x and y be any elements and m the join of the atoms below
        both, which exists as x bounds them.  x and y lie in the up-set
        of m, so m <= x, y; and any z <= x, y has its atoms among those
        of m, so by (A) the up-set of z holds that of m, and z <= m.  So m = x ^ y:
        the poset is a meet semilattice, each [0̂, r] is a lattice,
        atomistic by (A) and semimodular by (B) and the lemma.

        `bouquet_failure` gives the witness when the answer is no."""
        if self._bouquet is None:
            self._failure = self._failure_pass()
            self._bouquet = self._failure is None
        return self._bouquet

    def bouquet_failure(self) -> tuple[str, tuple] | None:
        """None on a bouquet, otherwise (reason, witness), the first
        failure in this order:
        - no unique minimal element: ("not-lattice", the first two
          minimal elements), or () for the empty poset;
        - else the first x, in element order, that is not the join of the
          atoms below it: ("not-atomic", (x,));
        - else the first x in element order and, for it, the first atom
          a not below x, in atom order (`atoms`, by name), that has a
          common upper bound with x: ("not-lattice", (a, x)) when x v a
          does not exist, and ("not-semimodular", (a, x)) when x v a does
          not cover x.  There a covers a ^ x = 0̂, while a v x does not
          cover x."""
        self.is_bouquet()
        return self._failure

    def require_bouquet(self) -> None:
        """Raise NotABouquet, naming the reason and the witness of
        `bouquet_failure`, unless this poset is a bouquet."""
        if not self.is_bouquet():
            raise NotABouquet(*self._failure)

    # -- rank and invariants ------------------------------------------

    def _invariants(self, x: str) -> tuple[int, int, int, int]:
        """(rank, mu(0̂, x), beta, rho) of x, read from a table built on
        first use.  By down-set size the bottom comes first and every
        element after all those below it; one pass in that order gives the
        rank (NotRanked when the lower covers' ranks differ), mu(0̂, x) =
        -sum_{y<x} mu(0̂, y) and beta.  One pass down each [0̂, r], r
        maximal, by falling rank gives mu(x, r) = -sum_{x<z<=r} mu(z, r),
        of which the table keeps the sum over r of |mu(x, r)|; rho(x) is
        beta(x) times that sum."""
        i = self._pos(x)
        if self._table is None:
            if self.bottom is None:
                raise NotRanked("no unique bottom element")
            els, index, up, down = self.elements, self._index, self._up, self._down
            n = len(els)
            rank, mu, beta, total = [0] * n, [0] * n, [0] * n, [0] * n
            order = sorted(range(n), key=lambda j: down[j].bit_count())
            mu[order[0]] = 1
            for j in order[1:]:
                ranks = {rank[index[c]] for c in self._downcov[els[j]]}
                if len(ranks) != 1:
                    raise NotRanked(f"unequal saturated chain lengths at {els[j]!r}")
                rank[j] = k = ranks.pop() + 1
                m = s = 0
                rest = down[j] ^ 1 << j
                while rest:
                    low = rest & -rest
                    y = low.bit_length() - 1
                    m -= mu[y]
                    s += mu[y] * rank[y]
                    rest ^= low
                mu[j], beta[j] = m, (-1) ** k * (s + m * k)
            for r in map(index.get, self.maximal):
                mu_r = {r: 1}  # z -> mu(z, r)
                total[r] += 1
                for z in sorted(_bits(down[r] ^ 1 << r), key=rank.__getitem__, reverse=True):
                    m, rest = 0, up[z] & down[r] ^ 1 << z
                    while rest:
                        low = rest & -rest
                        m -= mu_r[low.bit_length() - 1]
                        rest ^= low
                    mu_r[z] = m
                    total[z] += abs(m)
            self._table = list(zip(rank, mu, beta, (b * t for b, t in zip(beta, total))))
        return self._table[i]

    def rank(self, x: str) -> int:
        return self._invariants(x)[0]

    def mobius(self, x: str) -> int:
        """Möbius value mu(0̂, x)."""
        return self._invariants(x)[1]

    def beta(self, x: str) -> int:
        """Crapo beta: (-1)^r(x) * sum_{y <= x} mu(0̂, y) r(y)."""
        return self._invariants(x)[2]

    def rho(self, x: str) -> int:
        """Cumulated rho: beta(x) * sum over maximal r >= x of |mu(x, r)|.

        Never negative on a bouquet: each [0̂, x] is a geometric lattice,
        the flats of a simple matroid, whose beta is >= 0 (Crapo, "A
        higher invariant for matroids", 1967), and the sum is of absolute
        values."""
        return self._invariants(x)[3]

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"


def build_poset(elements: Sequence[str], covers: Iterable[Sequence[str]]) -> Poset:
    """Validate and build a poset from elements and cover pairs.

    Rejects cycles, unknown endpoints, duplicate identifiers, and covers
    already implied by transitivity (RedundantCover) -- redundant pairs
    in hand-written fixtures are almost always input mistakes.  The first
    redundant pair by name is reported, via its lower end's first given
    upper cover by name below its upper end.
    """
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise UnknownElement("duplicate element identifiers")
    cover_set = set()
    for pair in covers:
        x, y = pair
        if x not in index or y not in index:
            raise UnknownElement(f"cover endpoint not an element: {(x, y)!r}")
        if x == y:
            raise CycleDetected(f"self-cover {x!r}")
        cover_set.add((x, y))
    ups: list[list[int]] = [[] for _ in elements]
    pending = [0] * len(elements)
    for x, y in cover_set:
        ups[index[x]].append(index[y])
        pending[index[y]] += 1

    # Kahn's topological sort closes the down-masks along the covers and
    # doubles as the cycle check: a popped element's mask is final.
    down = [1 << i for i in range(len(elements))]
    stack = [i for i, n in enumerate(pending) if n == 0]
    done = 0
    while stack:
        i = stack.pop()
        done += 1
        for j in ups[i]:
            down[j] |= down[i]
            pending[j] -= 1
            if pending[j] == 0:
                stack.append(j)
    if done != len(elements):
        cyclic = [x for x, n in zip(elements, pending) if n > 0]
        raise CycleDetected(f"cover relation has a cycle through {cyclic!r}")

    # Every cover of the closed order is a given pair, so the given pairs
    # that are not covers are exactly the redundant ones.
    P = Poset(elements, down)
    redundant = sorted(cover_set - P.covers)
    if redundant:
        x, y = redundant[0]
        z = min(z for a, z in cover_set if a == x and z != y and P.leq(z, y))
        raise RedundantCover(f"cover {(x, y)!r} implied via {z!r}")
    return P


def set_id(s: Iterable[str]) -> str:
    """Canonical string id for a ground subset, e.g. "{a,b}"."""
    return "{" + ",".join(sorted(s)) + "}"


def inclusion_poset(ground: Sequence[str],
                    masks: Iterable[int]) -> tuple[Poset, dict[str, frozenset]]:
    """Distinct sets ordered by inclusion, each a mask over the positions
    of `ground`, bit i for ground[i].

    Element ids are canonical set strings, listed by size, then by their
    names in order; the returned id -> set of names mapping is kept for
    perfbench and the tests until ROADMAP item 1.  Column i is the bitset
    of the sets holding ground[i].  A set a lies within b exactly when it
    avoids every position outside b, so the down-mask of b is the AND over
    those positions of the complemented columns: one AND per position
    that b lacks and some set holds, with no pair of sets compared.  The
    masks go straight to `Poset`.
    """
    # (size, names in order) is unique to a set: the order of the elements
    keyed = sorted((m.bit_count(), sorted(ground[i] for i in _bits(m)), m) for m in set(masks))
    columns = [0] * len(ground)
    union = 0
    for k, (_, _, mask) in enumerate(keyed):
        union |= mask
        for i in _bits(mask):
            columns[i] |= 1 << k
    everyone = (1 << len(keyed)) - 1
    avoid = {1 << i: everyone ^ c for i, c in enumerate(columns)}  # by the bit of ground[i]
    down = []
    for _, _, mask in keyed:
        d, rest = everyone, union ^ mask
        while rest:
            low = rest & -rest
            d &= avoid[low]
            rest ^= low
        down.append(d)
    ids = [set_id(names) for _, names, _ in keyed]
    return Poset(ids, down), {i: frozenset(names) for i, (_, names, _) in zip(ids, keyed)}


def json_strings(value, field: str, depth: int = 1) -> list:
    """`value`, checked to be a JSON array of strings, or for depth 2 an
    array of such arrays, so that no string is read as its characters;
    TypeError naming `field` otherwise.  The types are checked in bulk;
    only on a failure are the arrays rescanned, in order, to name the
    first value of a wrong type."""
    if not isinstance(value, list):
        raise TypeError(f"{field}: expected an array, got {type(value).__name__}")
    if depth > 1:
        if not (set(map(type, value)) <= {list}
                and set(map(type, chain.from_iterable(value))) <= {str}):
            for v in value:
                json_strings(v, field, depth - 1)
        return value
    if not set(map(type, value)) <= {str}:
        wrong = next(v for v in value if type(v) is not str)
        raise TypeError(f"{field}: expected a string, got {type(wrong).__name__}")
    return value


def poset_from_json(data: dict) -> Poset:
    return build_poset(json_strings(data["elements"], "elements"),
                       json_strings(data["covers"], "covers", 2))
