"""Sign-vector systems: complexes of oriented matroids (COMs), oriented
matroids, and the zero-set poset feeding the chain-matrix pipeline.

Covectors are strings over {+, -, 0} in ground-set order (e.g. "+-0"),
which keeps fixtures compact and diffable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .poset import NotABouquet, Poset, _bits, inclusion_poset, json_strings


class ComError(Exception):
    pass


class GroundMismatch(ComError):
    pass


class FSViolation(ComError):
    """Face symmetry fails; carries the witness pair."""

    def __init__(self, x: str, y: str):
        super().__init__(f"X o (-Y) missing for X={x} Y={y}")
        self.witness = (x, y)


class SEViolation(ComError):
    """Strong elimination fails; carries the witness (X, Y, e)."""

    def __init__(self, x: str, y: str, e: str):
        super().__init__(f"no eliminating covector for X={x} Y={y} at {e}")
        self.witness = (x, y, e)


_SIGNS = set("+-0")


def _check_vector(ground: Sequence[str], x: str) -> None:
    if len(x) != len(ground) or not set(x) <= _SIGNS:
        raise GroundMismatch(f"covector {x!r} does not fit ground of size {len(ground)}")


def _sign_masks(x: str) -> tuple[int, int]:
    """(plus, minus) bitmasks of a covector; bit i is ground position i."""
    plus = minus = 0
    for i, s in enumerate(x):
        if s == "+":
            plus |= 1 << i
        elif s == "-":
            minus |= 1 << i
    return plus, minus


def zero_set(ground: Sequence[str], x: str) -> set[str]:
    _check_vector(ground, x)
    return {e for e, a in zip(ground, x) if a == "0"}


class CovectorSet:
    """Validated COM (E, L).  Construct via validate_com()."""

    __slots__ = ("ground", "covectors")

    def __init__(self, ground: tuple[str, ...], covectors: tuple[str, ...]):
        self.ground = ground
        self.covectors = covectors

    def is_om(self) -> bool:
        """An OM is a COM containing the all-zero covector."""
        return "0" * len(self.ground) in self.covectors

    def __repr__(self) -> str:
        return f"CovectorSet({len(self.ground)} elements, {len(self.covectors)} covectors)"


def validate_com(ground: Sequence[str], covectors: Iterable[str]) -> CovectorSet:
    """Check face symmetry (FS) and strong elimination (SE) on every pair
    of covectors, with no sampling; raises FSViolation / SEViolation with
    a witness on failure.  The axioms are those of Bandelt, Chepoi and
    Knauer, "COMs: complexes of oriented matroids" (JCTA 2018).

    Each covector is held as two bitmasks over the ground positions, the
    positions signed + and the positions signed -.

    FS: X o (-Y) is X off the zero set z(X) and -Y on it, so it depends
    only on X and on Y restricted to z(X).  Topes (no zeros) pass at
    once; every other X is checked against the distinct restrictions of
    -Y to z(X), collected once per distinct zero set, each check two mask
    expressions and one set lookup.  Only a failing X has its row
    rescanned, in input order, for the witness.

    SE: `at[s][f]` is the bitset of covector indices with sign s at
    position f.  The outcome for a pair (X, Y) depends only on the
    separator S = S(X, Y) and on X o Y off S, where X o Y = Y o X, so
    each unordered pair needs one test.  SE asks for a Z that is 0 at e
    and equals X o Y off S, for each e in S: the covectors that equal
    X o Y off S are those that are 0 off the support of X o Y (a bitset
    kept per support) AND-ed with `at[(X o Y)_f][f]` over the rest of
    the support outside S, and the pair fails at the first e in S, in
    ground order, where none of them is 0.

    Only pairs of equal support need the test.  FS holds by now, and FS
    gives composition: X o Y = X o (-(X o (-Y))).  So X o Y and Y o X
    are in L; both have support supp(X) u supp(Y); they differ exactly
    on S, so S(X o Y, Y o X) = S; and (X o Y) o (Y o X) = X o Y.  The
    pair (X o Y, Y o X) therefore asks SE for the same Z at the same e
    as (X, Y), and some pair fails iff some equal-support pair fails.
    The covectors are grouped by support and each class is tested pair
    by pair; only on a failure are all pairs rescanned, with the same
    test, for the witness.

    Witnesses follow input order with duplicates dropped: FSViolation
    names the first failing (X, Y), X in the outer loop; SEViolation the
    first failing pair in the same order, then the first failing e in
    ground order.
    """
    ground = tuple(ground)
    if len(set(ground)) != len(ground):
        raise GroundMismatch("duplicate ground elements")
    n = len(ground)
    vecs = []
    seen = set()
    for x in covectors:
        _check_vector(ground, x)
        if x not in seen:
            seen.add(x)
            vecs.append(x)
    masks = [_sign_masks(x) for x in vecs]
    pool = {plus | minus << n for plus, minus in masks}
    # -Y restricted to each zero set z, as (plus, minus) pairs, deduplicated
    flipped: dict[int, set[tuple[int, int]]] = {}
    everywhere = (1 << n) - 1
    for x, (xp, xm) in zip(vecs, masks):
        zero = everywhere & ~(xp | xm)
        if not zero:
            continue  # a tope: X o (-Y) = X
        rows = flipped.get(zero)
        if rows is None:
            rows = flipped[zero] = {(ym & zero, yp & zero) for yp, ym in masks}
        if any((xp | plus) | (xm | minus) << n not in pool for plus, minus in rows):
            y = next(y for y, (yp, ym) in zip(vecs, masks)
                     if (xp | ym & zero) | (xm | yp & zero) << n not in pool)
            raise FSViolation(x, y)
    at = {s: [0] * n for s in _SIGNS}
    for k, x in enumerate(vecs):
        for f, s in enumerate(x):
            at[s][f] |= 1 << k
    # covector indices by support, and per support U the covectors that
    # are 0 everywhere off U
    classes: dict[int, list[int]] = {}
    for k, (xp, xm) in enumerate(masks):
        classes.setdefault(xp | xm, []).append(k)
    plus_at, minus_at, zero_at = at["+"], at["-"], at["0"]
    everyone = (1 << len(vecs)) - 1
    candidates = {}
    for support in classes:
        agree = everyone
        for f in _bits(everywhere & ~support):
            agree &= zero_at[f]
        candidates[support] = agree
    positions = lru_cache(maxsize=None)(lambda mask: tuple(_bits(mask)))

    def se_failure(i: int, j: int) -> int | None:
        """The first e in S(X, Y), in ground order, with no covector Z
        that is 0 at e and equals X o Y off S; None if there is none."""
        (xp, xm), (yp, ym) = masks[i], masks[j]
        sep = xp & ym | xm & yp
        # supp(X o Y) is a support class: X o Y is in L, as FS holds
        agree = candidates[xp | xm | yp | ym]
        for f in positions((xp | yp) & ~sep):
            agree &= plus_at[f]
        for f in positions((xm | ym) & ~sep):
            agree &= minus_at[f]
        for e in positions(sep):
            if not agree & zero_at[e]:
                return e
        return None

    if any(se_failure(i, j) is not None
           for members in classes.values()
           for i, j in combinations(members, 2)):
        for i, j in combinations(range(len(vecs)), 2):
            failing = se_failure(i, j)
            if failing is not None:
                raise SEViolation(vecs[i], vecs[j], ground[failing])
    return CovectorSet(ground, tuple(vecs))


def zero_set_poset(c: CovectorSet) -> tuple[Poset, dict[str, frozenset]]:
    """Distinct zero sets ordered by inclusion.

    Element ids are canonical set strings; the returned id -> zero set
    mapping is kept for perfbench and the tests until ROADMAP item 1.
    Raises NotABouquet when the result is not a bouquet of geometric
    lattices.
    """
    poset, mapping = inclusion_poset(
        frozenset(zero_set(c.ground, x)) for x in c.covectors)
    if not poset.is_bouquet():
        raise NotABouquet("zero-set poset is not a bouquet of geometric lattices")
    return poset, mapping


def com_from_json(data: dict) -> CovectorSet:
    return validate_com(json_strings(data["ground"], "ground"),
                        json_strings(data["covectors"], "covectors"))
