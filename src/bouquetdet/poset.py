"""Finite posets given by cover relations, with the order-theoretic
invariants used by the chain-matrix pipeline: meet/join, rank, Möbius
function, Crapo beta, and the cumulated rho exponent.

All relations are materialized at build time (desk-scale instances), and
a Poset is immutable afterwards, so queries are safe to run concurrently.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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


class NotComparable(PosetError):
    pass


class NotABouquet(PosetError):
    """The poset is not a bouquet of geometric lattices."""


class Poset:
    """Immutable finite poset.  Use build_poset() to construct."""

    __slots__ = (
        "elements", "covers", "_up", "_down", "_upcov", "_downcov",
        "bottom", "atoms", "maximal", "_order", "_rank", "_bouquet",
        "_mobius_cache",
    )

    def __init__(self, elements: tuple[str, ...], covers: frozenset[tuple[str, str]],
                 up: dict[str, frozenset], down: dict[str, frozenset],
                 upcov: dict[str, tuple[str, ...]], downcov: dict[str, tuple[str, ...]],
                 order: tuple[str, ...]):
        """`order` is a topological order of `elements` (bottom-up)."""
        self.elements = elements
        self.covers = covers
        self._up = up
        self._down = down
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
        self._bouquet: bool | None = None
        self._mobius_cache: dict[tuple[str, str], int] = {}

    # -- order queries ------------------------------------------------

    def _check(self, *xs: str) -> None:
        for x in xs:
            if x not in self._up:
                raise UnknownElement(x)

    def leq(self, x: str, y: str) -> bool:
        self._check(x, y)
        return y in self._up[x]

    def up_set(self, x: str) -> frozenset:
        self._check(x)
        return self._up[x]

    def down_set(self, x: str) -> frozenset:
        self._check(x)
        return self._down[x]

    def upper_covers(self, x: str) -> tuple[str, ...]:
        self._check(x)
        return self._upcov[x]

    def lower_covers(self, x: str) -> tuple[str, ...]:
        self._check(x)
        return self._downcov[x]

    def meet(self, x: str, y: str) -> str | None:
        """Greatest lower bound, or None if it does not exist."""
        self._check(x, y)
        lower = self._down[x] & self._down[y]
        for m in lower:
            if lower <= self._down[m]:
                return m
        return None

    def join(self, x: str, y: str) -> str | None:
        """Least upper bound, or None if it does not exist."""
        self._check(x, y)
        upper = self._up[x] & self._up[y]
        for j in upper:
            if upper <= self._up[j]:
                return j
        return None

    def join_all(self, xs: Iterable[str]) -> str | None:
        """Least upper bound of a set; for the empty set, the bottom."""
        xs = list(xs)
        if not xs:
            return self.bottom
        upper = self._up[xs[0]]
        for x in xs[1:]:
            upper = upper & self._up[x]
        for j in upper:
            if upper <= self._up[j]:
                return j
        return None

    # -- structure tests ----------------------------------------------

    def is_meet_semilattice(self) -> bool:
        els = self.elements
        return all(self.meet(x, y) is not None
                   for i, x in enumerate(els) for y in els[i + 1:])

    def geometric_failure(self) -> tuple[str, tuple] | None:
        """None if this poset is a geometric lattice, otherwise a
        (reason, witness) pair: reason in {"not-lattice", "not-atomic",
        "not-semimodular"}."""
        els = self.elements
        for i, x in enumerate(els):
            for y in els[i + 1:]:
                if self.meet(x, y) is None or self.join(x, y) is None:
                    return ("not-lattice", (x, y))
        for x in els:
            below = [a for a in self.atoms if self.leq(a, x)]
            if self.join_all(below) != x:
                return ("not-atomic", (x,))
        for x in els:
            for y in els:
                m = self.meet(x, y)
                j = self.join(x, y)
                if (m, x) in self.covers and (y, j) not in self.covers and y != j:
                    return ("not-semimodular", (x, y))
        return None

    def is_geometric_lattice(self) -> bool:
        return self.geometric_failure() is None

    def is_bouquet(self) -> bool:
        """Meet semilattice whose interval below each maximal element is
        a geometric lattice.  (Every interval of the poset sits inside
        some [0̂, r], and intervals of geometric lattices are geometric,
        so checking the top intervals suffices.)  Evaluated once; later
        calls return the stored verdict."""
        if self._bouquet is None:
            self._bouquet = (
                self.bottom is not None and self.is_meet_semilattice()
                and all(self.interval(self.bottom, r).is_geometric_lattice()
                        for r in self.maximal))
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
        self._check(x)
        return self._ranks()[x]

    def mobius(self, x: str, y: str) -> int:
        """Möbius value mu(x, y); zero when x is not below y."""
        self._check(x, y)
        if not self.leq(x, y):
            return 0
        key = (x, y)
        cached = self._mobius_cache.get(key)
        if cached is not None:
            return cached
        # Iterate the interval bottom-up so recursion depth stays flat.
        interval = self._up[x] & self._down[y]
        by_height = sorted(interval, key=lambda z: len(self._up[x] & self._down[z]))
        values: dict[str, int] = {}
        for z in by_height:
            if z == x:
                values[z] = 1
            else:
                values[z] = -sum(values[u] for u in (self._up[x] & self._down[z]) if u != z)
            self._mobius_cache[(x, z)] = values[z]
        return values[y]

    def beta(self, x: str) -> int:
        """Crapo beta: (-1)^r(x) * sum_{y <= x} mu(0̂, y) r(y)."""
        self._check(x)
        ranks = self._ranks()
        b = self.bottom
        total = sum(self.mobius(b, y) * ranks[y] for y in self._down[x])
        return (-1) ** ranks[x] * total

    def rho(self, x: str) -> int:
        """Cumulated rho: beta(x) * sum over maximal r >= x of |mu(x, r)|."""
        self._check(x)
        tops = [r for r in self.maximal if self.leq(x, r)]
        return self.beta(x) * sum(abs(self.mobius(x, r)) for r in tops)

    # -- derived posets -----------------------------------------------

    def interval(self, x: str, y: str) -> "Poset":
        """Induced subposet on {z : x <= z <= y}."""
        self._check(x, y)
        if not self.leq(x, y):
            raise NotComparable(f"{x!r} is not below {y!r}")
        members = self._up[x] & self._down[y]
        elements = tuple(z for z in self.elements if z in members)
        covers = [(a, b) for (a, b) in self.covers if a in members and b in members]
        return build_poset(elements, covers)

    def to_json(self) -> dict:
        return {"elements": list(self.elements),
                "covers": [list(c) for c in sorted(self.covers)]}

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"


def build_poset(elements: Sequence[str], covers: Iterable[Sequence[str]]) -> Poset:
    """Validate and build a poset from elements and cover pairs.

    Rejects cycles, unknown endpoints, duplicate identifiers, and covers
    already implied by transitivity (RedundantCover) -- redundant pairs
    in hand-written fixtures are almost always input mistakes.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise UnknownElement("duplicate element identifiers")
    index = set(elements)
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

    up: dict[str, set[str]] = {x: {x} for x in elements}
    for x in reversed(order):
        for y in upcov[x]:
            up[x] |= up[y]

    for x, y in cover_set:
        for z in upcov[x]:
            if z != y and y in up[z]:
                raise RedundantCover(f"cover {(x, y)!r} implied via {z!r}")

    down: dict[str, set[str]] = {x: set() for x in elements}
    for x in elements:
        for y in up[x]:
            down[y].add(x)

    return Poset(
        elements, frozenset(cover_set),
        {x: frozenset(s) for x, s in up.items()},
        {x: frozenset(s) for x, s in down.items()},
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
    returned id -> set mapping doubles as weight support for
    ground-variable substitution.
    """
    sets = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    ids = {s: set_id(s) for s in sets}
    covers = []
    for a in sets:
        for b in sets:
            if a < b and not any(a < c < b for c in sets):
                covers.append((ids[a], ids[b]))
    poset = build_poset([ids[s] for s in sets], covers)
    return poset, {ids[s]: s for s in sets}


def poset_from_json(data: dict) -> Poset:
    return build_poset(data["elements"], [tuple(c) for c in data["covers"]])
