"""Matroids from explicit independent-set families, their flat lattices,
and bouquets of matroids glued along roof subsets.

Flat posets produced here plug straight into the chain-matrix pipeline:
elements are canonical set strings like "{a,b}" and each poset comes
with a mapping back to the underlying flats, usable as adapter weight
support.
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

    def rank(self, subset: Iterable[str]) -> int:
        s = frozenset(subset)
        return max(len(i) for i in self.independents if i <= s)

    def closure(self, subset: Iterable[str]) -> frozenset:
        s = frozenset(subset)
        r = self.rank(s)
        return s | {e for e in self.ground
                    if e not in s and self.rank(s | {e}) == r}

    def flats(self) -> list[frozenset]:
        """All closure-closed subsets, by brute-force fixed-point scan."""
        out = set()
        ground = list(self.ground)
        for k in range(len(ground) + 1):
            for combo in combinations(ground, k):
                s = frozenset(combo)
                if self.closure(s) == s:
                    out.add(s)
        return sorted(out, key=lambda f: (len(f), sorted(f)))

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
    for i1 in family:
        for i2 in family:
            if len(i1) < len(i2):
                if not any(i1 | {e} in family for e in i2 - i1):
                    raise ExchangeFails(
                        f"no element of {set_id(i2)} extends {set_id(i1)}")
    return Matroid(ground, frozenset(family))


def simplify(m: Matroid) -> tuple[Matroid, dict[str, str | None]]:
    """Delete loops and keep one representative per parallel class.

    Returns the simple matroid and the map element -> representative
    (None for loops).
    """
    loops = {e for e in m.ground if frozenset([e]) not in m.independents}
    rep: dict[str, str | None] = {e: None for e in loops}
    classes: dict[frozenset, str] = {}
    for e in m.ground:
        if e in loops:
            continue
        cl = m.closure([e])
        if cl not in classes:
            classes[cl] = e
        rep[e] = classes[cl]
    keep = set(classes.values())
    ground = tuple(e for e in m.ground if e in keep)
    independents = frozenset(i for i in m.independents if i <= keep)
    return Matroid(ground, independents), rep


def flat_lattice(m: Matroid) -> tuple[Poset, dict[str, frozenset]]:
    """Poset of flats ordered by inclusion; requires a simple matroid.

    Returns the poset (element ids are canonical set strings, listed in
    order of increasing rank) and the id -> flat mapping, which doubles
    as the weight support for ground-variable substitution.
    """
    if not m.is_simple():
        raise NotSimple("flat lattice requires a simple matroid; simplify first")
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
    holds across roofs."""
    ground = tuple(ground)
    roofs = tuple(frozenset(r) for r in roofs)
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
