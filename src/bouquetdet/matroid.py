"""Matroids from explicit independent-set families, their flat lattices,
and bouquets of matroids glued along roof subsets.

Every set is held as an int bitmask over ground positions, bit i for
ground[i]; names map to positions only where input is read, and return
only in witnesses and in the frozensets handed to `inclusion_poset`.  A
matroid's family is held as its extension table, each independent set I
-> the mask of the e outside I with I + e independent.  One pass fills
it and checks downward closure, exchange is read from it as the links of
`build_matroid`, and a flat is the complement of an entry.

Flat posets produced here plug straight into the chain-matrix pipeline:
elements are canonical set strings like "{a,b}".  Each poset comes with
its id -> flat mapping, kept for perfbench and the tests until ROADMAP
item 1.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Sequence

from .poset import BouquetdetError, Poset, _bits, inclusion_poset, json_strings, set_id


class MatroidError(BouquetdetError):
    pass


class EmptySetMissing(MatroidError):
    pass


class NotDownwardClosed(MatroidError):
    pass


class ExchangeFails(MatroidError):
    pass


class NotSimple(MatroidError):
    pass


class NotAClutter(MatroidError):
    pass


class RoofNotMatroid(MatroidError):
    def __init__(self, index: int, cause: MatroidError):
        super().__init__(f"roof {index}: {cause}")
        self.index = index
        self.cause = cause


class UnionMismatch(MatroidError):
    pass


class ExchangeAcrossRoofsFails(MatroidError):
    pass


class Matroid:
    """Matroid given by ground set and full independent-set family."""

    __slots__ = ("ground", "independents", "_ext")

    def __init__(self, ground: tuple[str, ...], independents: frozenset):
        self.ground = ground
        self.independents = independents
        self._ext: dict[int, int] | None = None

    def _extensions(self) -> dict[int, int]:
        """Each independent mask I -> the mask of the e outside I with
        I + e independent; `build_matroid` hands over the table it checked,
        and a matroid built directly derives it on first use."""
        if self._ext is None:
            bit = {e: 1 << i for i, e in enumerate(self.ground)}
            self._ext = _extensions(self.ground, _masks(bit, self.independents,
                                                         "independent set"))
        return self._ext

    def flats(self) -> list[frozenset]:
        """All flats, sorted by size then elements: the closures of the
        independent sets.  Every flat is the closure of a basis of it,
        and the closure of an independent I adds every e with I + e
        dependent, so it is the complement of I's extensions."""
        full = (1 << len(self.ground)) - 1
        return sorted((_named(self.ground, full ^ e) for e in set(self._extensions().values())),
                      key=lambda f: (len(f), sorted(f)))

    def is_simple(self) -> bool:
        """No loops and no parallel pairs: every subset of size <= 2 is
        independent, so the empty set extends by every element and each
        singleton by every other."""
        ext = self._extensions()
        full = (1 << len(self.ground)) - 1
        return ext.get(0) == full and all(ext.get(1 << i) == full ^ 1 << i
                                          for i in range(len(self.ground)))

    def __repr__(self) -> str:
        return f"Matroid({len(self.ground)} elements, {len(self.independents)} independent sets)"


def _named(ground: Sequence[str], mask: int) -> frozenset:
    """The ground elements at the set bits of `mask`."""
    return frozenset(ground[i] for i in _bits(mask))


def _masks(bit: dict[str, int], sets: Iterable[frozenset], what: str) -> list[int]:
    """The mask of each set, from `bit`, a ground element's mask; raises
    MatroidError naming the first set not within the ground set."""
    try:
        return [sum(map(bit.__getitem__, s)) for s in sets]
    except KeyError:
        s = next(s for s in sets if not s <= bit.keys())
        raise MatroidError(f"{what} {set_id(s)} not within the ground set") from None


def _extensions(ground: Sequence[str], masks: Iterable[int]) -> dict[int, int]:
    """I -> the mask of the e outside I with I + e in the family, for the
    distinct masks of a family, in their first order; each I - e of each I
    is looked up once, and NotDownwardClosed names the first I with one
    missing, and the first such e in ground order."""
    ext = dict.fromkeys(masks, 0)
    for m in ext:
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            try:
                ext[m ^ low] |= low
            except KeyError:
                raise NotDownwardClosed(
                    f"{set_id(_named(ground, m))} is independent but "
                    f"{set_id(_named(ground, m ^ low))} is not") from None
    return ext


def _links_multipartite(ext: dict[int, int]) -> bool:
    """Whether, for each independent K, the graph on {a : K+a independent}
    with an edge {b, c} whenever K+b+c is independent is complete
    multipartite: non-adjacency is an equivalence relation.  The part of
    a vertex a is a with its non-neighbours, the extensions of K that do
    not extend K+a; each part is taken from its lowest vertex and must be
    the part of each of its members.  One lookup per vertex per K."""
    for k, vertices in ext.items():
        rest = vertices
        while rest:
            low = rest & -rest
            part = vertices & ~ext[k | low]
            rest &= ~part
            others = part ^ low
            while others:
                b = others & -others
                others ^= b
                if vertices & ~ext[k | b] != part:
                    return False
    return True


def build_matroid(ground: Sequence[str], independents: Iterable[Iterable[str]]) -> Matroid:
    """Validate the three independent-set axioms and build the matroid.

    Each set is a mask over ground positions, bit i for ground[i].  The
    family must hold the empty set and be downward-closed, checked while
    the extension table of `Matroid._extensions` is filled.

    Exchange is checked from the links.  Claim: a downward-closed family
    holding the empty set has exchange (for I, J independent with
    |I| < |J| some e in J - I has I+e independent) iff the local rule
    holds: for each independent K and distinct a, b, c with K+a and K+b+c
    independent, K+a+b or K+a+c is independent.  (=>) exchange on K+a and
    K+b+c.  (<=) a (|I| + 1)-subset of J is independent, so |J| = |I| + 1
    suffices; induct on |I|, then on |I & J| descending.  If I lies in J,
    J = I+e.  Else take a in I - J and K = I - a.  Exchange at |K| on K
    and J gives b in J - K with K+b independent, and b is not in I, as a
    is not in J.  The inner induction on (K+b, J), one more in common,
    gives c in J - (K+b) with K+b+c independent, c not in I either.  The
    local rule then makes I+b or I+c independent.  Fix K.  If K+b or K+c
    is dependent, so is K+b+c, and the rule holds; so the rule at K is
    about the vertices of the graph of `_links_multipartite`, and says
    that a vertex adjacent to neither b nor c makes b and c
    non-adjacent.  Non-adjacency (with each vertex counted non-adjacent
    to itself) is reflexive and symmetric, so the rule at K says it is an
    equivalence: the graph is complete multipartite.

    Only when a link fails are the pairs rescanned, in input order, for
    a witness.  The rescan checks exchange between sizes k and k + 1,
    which by the claim fails too; an input on which it finds none is
    accepted.

    Witnesses follow input order with duplicates dropped: NotDownwardClosed
    names the first independent set I with a subset missing, then the
    first e of I, in ground order, whose I - e is not independent;
    ExchangeFails names the first I, then the first J of size |I| + 1
    that no element extends I from.
    """
    ground = tuple(ground)
    bit = {e: 1 << i for i, e in enumerate(ground)}
    if len(bit) != len(ground):
        raise MatroidError("duplicate ground elements")
    family = dict.fromkeys(map(frozenset, independents))  # distinct, in input order
    masks = _masks(bit, family, "independent set")
    if 0 not in masks:
        raise EmptySetMissing("the empty set must be independent")
    ext = _extensions(ground, masks)
    if not _links_multipartite(ext):
        by_size: dict[int, list[int]] = {}
        for j in ext:
            by_size.setdefault(j.bit_count(), []).append(j)
        for i, extends in ext.items():
            for j in by_size.get(i.bit_count() + 1, ()):
                if not extends & j:
                    raise ExchangeFails(f"no element of {set_id(_named(ground, j))} "
                                        f"extends {set_id(_named(ground, i))}")
    m = Matroid(ground, frozenset(family))
    m._ext = ext
    return m


def flat_lattice(m: Matroid) -> tuple[Poset, dict[str, frozenset]]:
    """Poset of flats ordered by inclusion; requires a simple matroid.

    Returns the poset (element ids are canonical set strings, listed in
    order of increasing rank) and the id -> flat mapping, kept for
    perfbench and the tests until ROADMAP item 1.
    """
    if not m.is_simple():
        raise NotSimple("flat lattice requires a simple matroid")
    return inclusion_poset(m.flats())


class BouquetOfMatroids:
    """Independent-set family on a ground set whose restriction to each
    roof is a matroid, glued by a cross-roof exchange condition."""

    __slots__ = ("ground", "roofs", "independents", "roof_matroids")

    def __init__(self, ground: tuple[str, ...], roofs: tuple[frozenset, ...],
                 independents: frozenset, roof_matroids: tuple[Matroid, ...]):
        self.ground = ground
        self.roofs = roofs
        self.independents = independents
        self.roof_matroids = roof_matroids

    def __repr__(self) -> str:
        return f"BouquetOfMatroids({len(self.ground)} elements, {len(self.roofs)} roofs)"


def build_bouquet_of_matroids(ground: Sequence[str], roofs: Iterable[Iterable[str]],
                              independents: Iterable[Iterable[str]]) -> BouquetOfMatroids:
    """Validate the three bouquet conditions: each roof restriction is a
    matroid, the family is the union of the restrictions, and exchange
    holds across roofs.  The ground elements are distinct and every roof
    lies within them.

    Roofs and sets are masks over ground positions, bit i for ground[i];
    a set naming an element outside the ground set takes the bit past
    them, which lies in no roof.

    Witnesses follow input order with duplicates dropped: each roof's
    restriction keeps the input order for `build_matroid`; UnionMismatch
    lists the sets within no roof as a JSON array; and
    ExchangeAcrossRoofsFails names the first failure over the ordered
    pairs of roofs (a, b), then the sets within both, then the elements
    e of a outside b in ground order.
    """
    ground = tuple(ground)
    bit = {e: 1 << i for i, e in enumerate(ground)}
    if len(bit) != len(ground):
        raise MatroidError("duplicate ground elements")
    roofs = tuple(frozenset(r) for r in roofs)
    roof_masks = _masks(bit, roofs, "roof")
    stray = 1 << len(ground)
    family = {s: sum(map(bit.get, s, repeat(stray)))  # in input order
              for s in map(frozenset, independents)}
    for i, a in enumerate(roof_masks):
        for j, b in enumerate(roof_masks):
            if i != j and not a & ~b:
                raise NotAClutter(f"roof {set_id(roofs[i])} is contained in roof {set_id(roofs[j])}")
    roof_matroids = []
    restrictions = []
    for i, (roof, r) in enumerate(zip(roofs, roof_masks)):
        restricted = {s: m for s, m in family.items() if not m & ~r}
        restrictions.append(restricted)
        try:
            roof_matroids.append(build_matroid(sorted(roof), restricted))
        except MatroidError as exc:
            raise RoofNotMatroid(i, exc) from exc
    within = set().union(*restrictions)
    if extra := [set_id(s) for s in family if s not in within]:
        import json  # loaded with `poset` already; only this error needs it here
        raise UnionMismatch(f"independent sets not within any roof: {json.dumps(extra)}")
    pool = set(family.values())
    for i, a in enumerate(roof_masks):
        for j, b in enumerate(roof_masks):
            if i == j:
                continue
            outside = [(e, 1 << e) for e in _bits(a & ~b)]
            for s, m in restrictions[i].items():
                if not m & ~b:
                    for e, low in outside:
                        if m | low not in pool:
                            raise ExchangeAcrossRoofsFails(
                                f"{set_id(s)} + {ground[e]!r} not independent")
    return BouquetOfMatroids(ground, roofs, frozenset(family), tuple(roof_matroids))


def bouquet_flat_poset(b: BouquetOfMatroids) -> tuple[Poset, dict[str, frozenset]]:
    """Union of the per-roof flats ordered by inclusion.

    Each roof matroid must be simple.  The poset is only built here: the
    CLI's `_load_poset` and `determinant.verify_theorem` require it to be
    a bouquet of geometric lattices.
    """
    flats: set[frozenset] = set()
    for i, m in enumerate(b.roof_matroids):
        if not m.is_simple():
            raise NotSimple(f"roof {i} matroid is not simple")
        flats.update(m.flats())
    return inclusion_poset(flats)


def matroid_from_json(data: dict) -> Matroid:
    return build_matroid(json_strings(data["ground"], "ground"),
                         json_strings(data["independents"], "independents", 2))


def bouquet_from_json(data: dict) -> BouquetOfMatroids:
    return build_bouquet_of_matroids(json_strings(data["ground"], "ground"),
                                     json_strings(data["roofs"], "roofs", 2),
                                     json_strings(data["independents"], "independents", 2))
