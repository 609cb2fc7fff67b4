"""Finite posets, with the order-theoretic invariants used by the
chain-matrix pipeline: meet/join, rank, mu(0̂, x), Crapo beta, and the
cumulated rho exponent.

The order is held once, as int bitmasks over element positions, bit i
standing for `elements[i]`: the down-mask of x has a bit for every
y <= x.  The `Poset` constructor derives the rest from the down-masks:
up-masks (so x <= y is one bit test), covers, bottom, atoms and maximal
elements.  `build_poset` validates outside input and closes its covers
into down-masks; `inclusion_poset` passes its masks straight on.  The
common lower bounds of x and y are the down-set `down[x] & down[y]`,
which has a greatest element m exactly when it is the principal ideal
`down[m]`; so the meet is a dict lookup of that mask (None when it is
not a key), and the join is the same lookup on up-masks.  The bouquet
test runs on these masks in one pass over the poset, without building
any interval, and tests semimodularity on atoms only: an atomistic
lattice is semimodular iff x v a covers x for every x and every atom a
not below x (proved at `Poset.is_bouquet`).  Rank, mu(0̂, x), beta and rho
come from one table, built on first use in one pass up the poset and one
pass down each [0̂, r], r maximal (see `Poset._invariants`).

All relations are materialized at build time (desk-scale instances), and
a Poset is immutable afterwards, so queries are safe to run concurrently.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class PosetError(Exception):
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
    """The poset is not a bouquet of geometric lattices."""


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
        "elements", "covers", "_index", "_up", "_down", "_by_up", "_by_down",
        "_upcov", "_downcov", "bottom", "atoms", "_atom_mask", "maximal",
        "_semilattice", "_bouquet", "_table",
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
        for j, d in enumerate(down):
            below, implied = d & ~(1 << j), 0
            for i in _bits(below):
                up[i] |= 1 << j
                implied |= down[i] & ~(1 << i)
            covered = _bits(below & ~implied)
            downcov[elements[j]] = tuple(sorted(elements[i] for i in covered))
        self.covers = frozenset((x, y) for y, xs in downcov.items() for x in xs)
        upcov: dict[str, list[str]] = {x: [] for x in elements}
        for x, y in sorted(self.covers):
            upcov[x].append(y)
        self._upcov = {x: tuple(v) for x, v in upcov.items()}
        self._up = up
        self._down = down
        self._by_up = {m: i for i, m in enumerate(up)}
        self._by_down = {m: i for i, m in enumerate(down)}
        minimal = [x for x in elements if not downcov[x]]
        self.bottom = minimal[0] if len(minimal) == 1 else None
        self.atoms = self._upcov[self.bottom] if self.bottom is not None else ()
        self._atom_mask = sum(1 << self._index[a] for a in self.atoms)
        self.maximal = tuple(x for x in elements if not upcov[x])
        self._semilattice: bool | None = None
        self._bouquet: bool | None = None
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

    def meet(self, x: str, y: str) -> str | None:
        """Greatest lower bound, or None if it does not exist."""
        m = self._by_down.get(self._down[self._pos(x)] & self._down[self._pos(y)])
        return None if m is None else self.elements[m]

    def join(self, x: str, y: str) -> str | None:
        """Least upper bound, or None if it does not exist."""
        j = self._by_up.get(self._up[self._pos(x)] & self._up[self._pos(y)])
        return None if j is None else self.elements[j]

    # -- structure tests ----------------------------------------------

    def is_meet_semilattice(self) -> bool:
        """Every pair has a meet.  Evaluated once; later calls return the
        stored verdict."""
        if self._semilattice is None:
            down, by_down = self._down, self._by_down
            self._semilattice = all(d & e in by_down
                                    for i, d in enumerate(down) for e in down[i + 1:])
        return self._semilattice

    def _atomic_failure(self) -> int | None:
        """Position of the first element that is not the join of the
        atoms below it: the common up-mask of those atoms is not its own
        up-mask.  (For the bottom there are no atoms below, and the
        empty join is the whole poset, the bottom's up-mask.)"""
        up, atoms = self._up, self._atom_mask
        everything = (1 << len(up)) - 1
        for i, (u, d) in enumerate(zip(up, self._down)):
            upper = everything
            for a in _bits(d & atoms):
                upper &= up[a]
            if upper != u:
                return i
        return None

    def _semimodular_at_atoms(self) -> bool:
        """x v a covers x for every x and every atom a not below x that
        has a common upper bound with x.  One join lookup per such pair,
        n * |atoms| in all; a missing join (which a meet semilattice does
        not have) counts as a failure.  j covers x when the interval
        [x, j], the mask up[x] & down[j], holds x and j only.

        On an atomistic lattice this is semimodularity (see `is_bouquet`),
        whose pairwise test `_semimodular_failure` is kept for the
        witness."""
        up, down, by_up = self._up, self._down, self._by_up
        atoms = [up[self._index[a]] for a in self.atoms]
        for ux in up:
            for ua in atoms:
                common = ux & ua
                # common is ux exactly when a <= x
                if common and common != ux:
                    j = by_up.get(common)
                    if j is None or (ux & down[j]).bit_count() != 2:
                        return False
        return True

    def _semimodular_failure(self) -> tuple[int, int] | None:
        """First ordered pair (x, y) of positions, x outer, that has a
        meet and a join, where x covers x ^ y but x v y neither equals
        nor covers y."""
        els, index, downcov = self.elements, self._index, self._downcov
        up, down, by_up = self._up, self._down, self._by_up
        for i, (x, ui, di) in enumerate(zip(els, up, down)):
            # x ^ y is covered by x when its down-mask is one of these;
            # x = y never fails, as x ^ x = x is not covered by x.
            covered = {down[index[m]] for m in downcov[x]}
            for k in [k for k, dk in enumerate(down) if di & dk in covered]:
                j = by_up.get(ui & up[k])
                if j is not None and j != k and els[k] not in downcov[els[j]]:
                    return i, k
        return None

    def geometric_failure(self) -> tuple[str, tuple] | None:
        """None if this poset is a geometric lattice, otherwise a
        (reason, witness) pair: reason in {"not-lattice", "not-atomic",
        "not-semimodular"}.  The witness is the first failing unordered
        pair, element or ordered pair in element order; the empty poset,
        which has no bottom, is not a lattice, with an empty witness."""
        els = self.elements
        if not els:
            return ("not-lattice", ())
        up, down, by_up, by_down = self._up, self._down, self._by_up, self._by_down
        for i, (ui, di) in enumerate(zip(up, down)):
            for k in range(i + 1, len(els)):
                if di & down[k] not in by_down or ui & up[k] not in by_up:
                    return ("not-lattice", (els[i], els[k]))
        x = self._atomic_failure()
        if x is not None:
            return ("not-atomic", (els[x],))
        pair = None if self._semimodular_at_atoms() else self._semimodular_failure()
        if pair is not None:
            return ("not-semimodular", (els[pair[0]], els[pair[1]]))
        return None

    def is_bouquet(self) -> bool:
        """Meet semilattice with a bottom 0̂ whose interval [0̂, r] below
        each maximal element r is a geometric lattice.  (Every interval
        of the poset sits inside some [0̂, r], and intervals of geometric
        lattices are geometric, so the top intervals suffice.)

        The test runs in one pass over the poset, with no interval built.
        In a finite meet semilattice with 0̂, each [0̂, r] is a lattice
        whose meets and joins are the poset's: x ^ y lies below r, and
        when x and y have a common upper bound, the meet of all their
        common upper bounds is their join, which lies below r.  The
        covers of [0̂, r] are the poset's covers, and its atoms are the
        poset's atoms below r.  So every [0̂, r] is geometric exactly
        when (1) every element is the join of the atoms below it, and
        (2) semimodularity holds on every pair with a common upper bound,
        these being the pairs that lie together in some [0̂, r].

        Semimodularity is tested on atoms only.  Lemma: an atomistic
        lattice is semimodular iff x v a covers x for every x and every
        atom a not below x.  (=>) a ^ x = 0̂ is covered by a, so by
        semimodularity x is covered by a v x.  (<=) Let x ^ y be covered
        by x.  Some atom a <= x is not below y, or x would be the join of
        atoms below y and x ^ y = x.  Then x ^ y < (x ^ y) v a <= x, so
        x = (x ^ y) v a and x v y = y v a, which covers y.  Applied to
        each [0̂, r], (2) becomes: x v a covers x for every x and every
        atom a not below x with a common upper bound
        (`_semimodular_at_atoms`), one join lookup per element and atom
        instead of one per pair.

        Evaluated once; later calls return the stored verdict."""
        if self._bouquet is None:
            self._bouquet = (
                self.bottom is not None and self.is_meet_semilattice()
                and self._atomic_failure() is None
                and self._semimodular_at_atoms())
        return self._bouquet

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
                for y in _bits(down[j] ^ 1 << j):
                    m -= mu[y]
                    s += mu[y] * rank[y]
                mu[j], beta[j] = m, (-1) ** k * (s + m * k)
            for r in map(index.get, self.maximal):
                mu_r = {r: 1}  # z -> mu(z, r)
                total[r] += 1
                for z in sorted(_bits(down[r]), key=rank.__getitem__, reverse=True)[1:]:
                    mu_r[z] = m = -sum(mu_r[u] for u in _bits(up[z] & down[r] ^ 1 << z))
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


def inclusion_poset(sets: Iterable[frozenset]) -> tuple[Poset, dict[str, frozenset]]:
    """Distinct sets ordered by inclusion.

    Element ids are canonical set strings, listed by increasing size; the
    returned id -> set mapping is kept for perfbench and the tests until
    ROADMAP item 1.  The down-mask of each set comes from subset tests
    against the sets listed up to it, and goes straight to `Poset`.
    """
    sets = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    ids = [set_id(s) for s in sets]
    down = [sum(1 << k for k, a in enumerate(sets[:i + 1]) if a <= b)
            for i, b in enumerate(sets)]
    return Poset(ids, down), dict(zip(ids, sets))


def json_strings(value, field: str, depth: int = 1) -> list:
    """`value`, checked to be a JSON array of strings, or for depth 2 an
    array of such arrays, so that no string is read as its characters;
    TypeError naming `field` otherwise."""
    kind, name = (list, "an array") if depth else (str, "a string")
    if not isinstance(value, kind):
        raise TypeError(f"{field}: expected {name}, got {type(value).__name__}")
    return [json_strings(v, field, depth - 1) for v in value] if depth else value


def poset_from_json(data: dict) -> Poset:
    return build_poset(json_strings(data["elements"], "elements"),
                       json_strings(data["covers"], "covers", 2))
