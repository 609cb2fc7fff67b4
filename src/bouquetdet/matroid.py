"""Matroids from explicit independent-set families, their flat lattices,
and bouquets of matroids glued along roof subsets.

Flat posets produced here plug straight into the chain-matrix pipeline:
elements are canonical set strings like "{a,b}".  Each poset comes with
its id -> flat mapping, kept for perfbench and the tests until ROADMAP
item 1.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .poset import NotABouquet, Poset, inclusion_poset, set_id


class MatroidError(Exception):
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

    __slots__ = ("ground", "independents")

    def __init__(self, ground: tuple[str, ...], independents: frozenset):
        self.ground = ground
        self.independents = independents

    def flats(self) -> list[frozenset]:
        """All flats, sorted by size then elements: the closures of the
        independent sets.  Every flat is the closure of a basis of it,
        and an independent set is its own basis."""
        ind = self.independents
        flats = {i.union([e for e in self.ground
                          if e not in i and i | {e} not in ind])
                 for i in ind}
        return sorted(flats, key=lambda f: (len(f), sorted(f)))

    def is_simple(self) -> bool:
        """No loops and no parallel pairs: every subset of size <= 2 is
        independent."""
        for e in self.ground:
            if frozenset([e]) not in self.independents:
                return False
        for e, f in combinations(self.ground, 2):
            if frozenset([e, f]) not in self.independents:
                return False
        return True

    def __repr__(self) -> str:
        return f"Matroid({len(self.ground)} elements, {len(self.independents)} independent sets)"


def build_matroid(ground: Sequence[str], independents: Iterable[Iterable[str]]) -> Matroid:
    """Validate the three independent-set axioms and build the matroid."""
    ground = tuple(ground)
    ground_set = set(ground)
    if len(ground_set) != len(ground):
        raise MatroidError("duplicate ground elements")
    family = set()
    for i in independents:
        s = frozenset(i)
        if not s <= ground_set:
            raise MatroidError(f"independent set {set_id(s)} not within the ground set")
        family.add(s)
    if frozenset() not in family:
        raise EmptySetMissing("the empty set must be independent")
    for s in family:
        for e in s:
            if s - {e} not in family:
                raise NotDownwardClosed(
                    f"{set_id(s)} is independent but {set_id(s - {e})} is not")
    # The family is downward-closed, so exchange between sizes k and
    # k + 1 implies it for all |I| < |J|: any (|I| + 1)-subset of J is
    # independent and offers J's candidates outside I.
    by_size: dict[int, list[frozenset]] = {}
    for s in family:
        by_size.setdefault(len(s), []).append(s)
    for s in family:
        extends = {e for e in ground_set - s if s | {e} in family}
        for j in by_size.get(len(s) + 1, ()):
            if extends.isdisjoint(j):
                raise ExchangeFails(f"no element of {set_id(j)} extends {set_id(s)}")
    return Matroid(ground, frozenset(family))


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
    lies within them."""
    ground = tuple(ground)
    ground_set = set(ground)
    if len(ground_set) != len(ground):
        raise MatroidError("duplicate ground elements")
    roofs = tuple(frozenset(r) for r in roofs)
    for r in roofs:
        if not r <= ground_set:
            raise MatroidError(f"roof {set_id(r)} not within the ground set")
    family = frozenset(frozenset(i) for i in independents)
    for i, a in enumerate(roofs):
        for j, b in enumerate(roofs):
            if i != j and a <= b:
                raise NotAClutter(f"roof {set_id(a)} is contained in roof {set_id(b)}")
    roof_matroids = []
    restrictions = []
    for i, roof in enumerate(roofs):
        restricted = frozenset(s for s in family if s <= roof)
        restrictions.append(restricted)
        try:
            roof_matroids.append(build_matroid(sorted(roof), restricted))
        except MatroidError as exc:
            raise RoofNotMatroid(i, exc) from exc
    union = frozenset().union(*restrictions) if restrictions else frozenset()
    if union != family:
        extra = family - union
        raise UnionMismatch(
            f"independent sets not within any roof: {[set_id(s) for s in extra]}")
    for i, a in enumerate(roofs):
        for j, b in enumerate(roofs):
            if i == j:
                continue
            for s in restrictions[i] & restrictions[j]:
                for e in a - b:
                    if s | {e} not in family:
                        raise ExchangeAcrossRoofsFails(
                            f"{set_id(s)} + {e!r} not independent")
    return BouquetOfMatroids(ground, roofs, family, tuple(roof_matroids))


def bouquet_flat_poset(b: BouquetOfMatroids) -> tuple[Poset, dict[str, frozenset]]:
    """Union of the per-roof flats ordered by inclusion.

    Each roof matroid must be simple.  Raises NotABouquet when the result
    is not a bouquet of geometric lattices: that is a modeling error in
    the input, not something to accept silently.
    """
    flats: set[frozenset] = set()
    for i, m in enumerate(b.roof_matroids):
        if not m.is_simple():
            raise NotSimple(f"roof {i} matroid is not simple")
        flats.update(m.flats())
    poset, mapping = inclusion_poset(flats)
    if not poset.is_bouquet():
        raise NotABouquet("flat poset is not a bouquet of geometric lattices")
    return poset, mapping


def matroid_from_json(data: dict) -> Matroid:
    return build_matroid(data["ground"], data["independents"])


def bouquet_from_json(data: dict) -> BouquetOfMatroids:
    return build_bouquet_of_matroids(data["ground"], data["roofs"], data["independents"])
