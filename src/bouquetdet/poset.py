"""Finite posets given by cover relations, with the order-theoretic
invariants used by the chain-matrix pipeline: meet/join, rank, Möbius
function, Crapo beta, and the cumulated rho exponent.

The order is held as int bitmasks over element positions, bit i standing
for `elements[i]`: the up-mask of x has a bit for every y >= x, the
down-mask one for every y <= x, so x <= y is one bit test.  The common
lower bounds of x and y are the down-set `down[x] & down[y]`, which has a
greatest element m exactly when it is the principal ideal `down[m]`; so
the meet is a dict lookup of that mask (None when it is not a key), and
the join is the same lookup on up-masks.  The bouquet test runs on these
masks in one pass over the poset, without building any interval (see
`Poset.is_bouquet`).

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
    """Immutable finite poset.  Use build_poset() to construct."""

    __slots__ = (
        "elements", "covers", "_index", "_up", "_down", "_by_up", "_by_down",
        "_upcov", "_downcov", "bottom", "atoms", "maximal", "_order", "_rank",
        "_semilattice", "_bouquet", "_mobius_cache",
    )

    def __init__(self, elements: tuple[str, ...], covers: frozenset[tuple[str, str]],
                 up: list[int], down: list[int],
                 upcov: dict[str, tuple[str, ...]], downcov: dict[str, tuple[str, ...]],
                 order: tuple[str, ...]):
        """`up`/`down` are the masks by element position; `order` is a
        topological order of `elements` (bottom-up)."""
        self.elements = elements
        self.covers = covers
        self._index = {x: i for i, x in enumerate(elements)}
        self._up = up
        self._down = down
        self._by_up = {m: i for i, m in enumerate(up)}
        self._by_down = {m: i for i, m in enumerate(down)}
        self._upcov = upcov
        self._downcov = downcov
        minimal = [x for x in elements if not downcov[x]]
        self.bottom = minimal[0] if len(minimal) == 1 else None
        if self.bottom is not None:
            self.atoms = tuple(self._upcov[self.bottom])
        else:
            self.atoms = ()
        self.maximal = tuple(x for x in elements if not upcov[x])
        self._order = order
        self._rank: dict[str, int] | None = None
        self._semilattice: bool | None = None
        self._bouquet: bool | None = None
        self._mobius_cache: dict[tuple[int, int], int] = {}

    # -- order queries ------------------------------------------------

    def _pos(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(x) from None

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self._pos(x)] >> self._pos(y) & 1)

    def down_set(self, x: str) -> frozenset:
        return frozenset(self.elements[k] for k in _bits(self._down[self._pos(x)]))

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
        up = self._up
        atoms = 0
        for a in self.atoms:
            atoms |= 1 << self._index[a]
        everything = (1 << len(up)) - 1
        for i, (u, d) in enumerate(zip(up, self._down)):
            upper = everything
            for a in _bits(d & atoms):
                upper &= up[a]
            if upper != u:
                return i
        return None

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
        pair, element or ordered pair in element order."""
        els = self.elements
        up, down, by_up, by_down = self._up, self._down, self._by_up, self._by_down
        for i, (ui, di) in enumerate(zip(up, down)):
            for k in range(i + 1, len(els)):
                if di & down[k] not in by_down or ui & up[k] not in by_up:
                    return ("not-lattice", (els[i], els[k]))
        x = self._atomic_failure()
        if x is not None:
            return ("not-atomic", (els[x],))
        pair = self._semimodular_failure()
        if pair is not None:
            return ("not-semimodular", (els[pair[0]], els[pair[1]]))
        return None

    def is_geometric_lattice(self) -> bool:
        return self.geometric_failure() is None

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

        Evaluated once; later calls return the stored verdict."""
        if self._bouquet is None:
            self._bouquet = (
                self.bottom is not None and self.is_meet_semilattice()
                and self._atomic_failure() is None
                and self._semimodular_failure() is None)
        return self._bouquet

    # -- rank and invariants ------------------------------------------

    def _ranks(self) -> dict[str, int]:
        if self._rank is not None:
            return self._rank
        if self.bottom is None:
            raise NotRanked("no unique bottom element")
        rank = {self.bottom: 0}
        for x in self._order:
            if x == self.bottom:
                continue
            parents = {rank[p] for p in self._downcov[x]}
            if len(parents) != 1:
                raise NotRanked(f"unequal saturated chain lengths at {x!r}")
            rank[x] = parents.pop() + 1
        self._rank = rank
        return rank

    def rank(self, x: str) -> int:
        self._pos(x)
        return self._ranks()[x]

    def _mu(self, i: int, j: int) -> int:
        """mu on element positions; see `mobius`."""
        up_i = self._up[i]
        if not up_i >> j & 1:
            return 0
        cached = self._mobius_cache.get((i, j))
        if cached is not None:
            return cached
        # Iterate the interval bottom-up (by the size of [x, z]) so
        # recursion depth stays flat.
        down = self._down
        values: dict[int, int] = {}
        for z in sorted(_bits(up_i & down[j]), key=lambda z: (up_i & down[z]).bit_count()):
            if z == i:
                values[z] = 1
            else:
                values[z] = -sum(values[u] for u in _bits(up_i & down[z] & ~(1 << z)))
            self._mobius_cache[(i, z)] = values[z]
        return values[j]

    def mobius(self, x: str, y: str) -> int:
        """Möbius value mu(x, y); zero when x is not below y."""
        return self._mu(self._pos(x), self._pos(y))

    def beta(self, x: str) -> int:
        """Crapo beta: (-1)^r(x) * sum_{y <= x} mu(0̂, y) r(y)."""
        i = self._pos(x)
        ranks = self._ranks()
        b = self._index[self.bottom]
        els = self.elements
        total = sum(self._mu(b, k) * ranks[els[k]] for k in _bits(self._down[i]))
        return (-1) ** ranks[x] * total

    def rho(self, x: str) -> int:
        """Cumulated rho: beta(x) * sum over maximal r >= x of |mu(x, r)|."""
        i = self._pos(x)
        tops = [self._index[r] for r in self.maximal]
        return self.beta(x) * sum(abs(self._mu(i, r)) for r in tops)

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"


def build_poset(elements: Sequence[str], covers: Iterable[Sequence[str]]) -> Poset:
    """Validate and build a poset from elements and cover pairs.

    Rejects cycles, unknown endpoints, duplicate identifiers, and covers
    already implied by transitivity (RedundantCover) -- redundant pairs
    in hand-written fixtures are almost always input mistakes.
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

    upcov: dict[str, list[str]] = {x: [] for x in elements}
    downcov: dict[str, list[str]] = {x: [] for x in elements}
    for x, y in sorted(cover_set):
        upcov[x].append(y)
        downcov[y].append(x)

    # Kahn topological sort doubles as the cycle check.
    pending = {x: len(downcov[x]) for x in elements}
    stack = [x for x in elements if pending[x] == 0]
    order = []
    while stack:
        x = stack.pop()
        order.append(x)
        for y in upcov[x]:
            pending[y] -= 1
            if pending[y] == 0:
                stack.append(y)
    if len(order) != len(elements):
        cyclic = [x for x in elements if pending[x] > 0]
        raise CycleDetected(f"cover relation has a cycle through {cyclic!r}")

    # Up-masks top-down, down-masks bottom-up, each from the covers.
    up = [0] * len(elements)
    for x in reversed(order):
        mask = 1 << index[x]
        for y in upcov[x]:
            mask |= up[index[y]]
        up[index[x]] = mask

    for x, y in cover_set:
        for z in upcov[x]:
            if z != y and up[index[z]] >> index[y] & 1:
                raise RedundantCover(f"cover {(x, y)!r} implied via {z!r}")

    down = [0] * len(elements)
    for y in order:
        mask = 1 << index[y]
        for x in downcov[y]:
            mask |= down[index[x]]
        down[index[y]] = mask

    return Poset(
        elements, frozenset(cover_set), up, down,
        {x: tuple(v) for x, v in upcov.items()},
        {x: tuple(v) for x, v in downcov.items()},
        tuple(order),
    )


def set_id(s: Iterable[str]) -> str:
    """Canonical string id for a ground subset, e.g. "{a,b}"."""
    return "{" + ",".join(sorted(s)) + "}"


def inclusion_poset(sets: Iterable[frozenset]) -> tuple[Poset, dict[str, frozenset]]:
    """Distinct sets ordered by inclusion.

    Element ids are canonical set strings, listed by increasing size; the
    returned id -> set mapping is kept for perfbench and the tests until
    ROADMAP item 1.

    `inside[i]` masks the sets strictly inside set i (all listed before
    it); the sets that i covers are those minus everything strictly
    inside one of them.
    """
    sets = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    ids = [set_id(s) for s in sets]
    inside: list[int] = []
    covers = []
    for i, b in enumerate(sets):
        strict = [k for k, a in enumerate(sets[:i]) if a < b]
        mask = implied = 0
        for k in strict:
            mask |= 1 << k
            implied |= inside[k]
        inside.append(mask)
        covers += [(ids[k], ids[i]) for k in strict if not implied >> k & 1]
    poset = build_poset(ids, covers)
    return poset, dict(zip(ids, sets))


def poset_from_json(data: dict) -> Poset:
    return build_poset(data["elements"], [tuple(c) for c in data["covers"]])
