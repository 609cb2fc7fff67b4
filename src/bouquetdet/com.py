"""Sign-vector systems: complexes of oriented matroids (COMs), oriented
matroids, and the zero-set poset feeding the chain-matrix pipeline.

Covectors are strings over {+, -, 0} in ground-set order (e.g. "+-0"),
which keeps fixtures compact and diffable.  Inside, every sign vector
and every set of ground elements is an int bitmask over ground
positions, bit i for ground[i], and each column of the covector list is
a bitset over covector indices; names return only in witnesses and in
the frozensets handed to `inclusion_poset`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .poset import BouquetdetError, Poset, _bits, inclusion_poset, json_strings


class ComError(BouquetdetError):
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


# sign s -> the translation of a sign string into the digits of s's mask
_DIGITS = {"+": str.maketrans("+-0", "100"), "-": str.maketrans("+-0", "010"),
           "0": str.maketrans("+-0", "001")}


def _sign_masks(rows: list[str], s: str) -> list[int]:
    """For each sign string of `rows`, the bitmask of its positions
    holding the sign `s`, bit i for position i.  One reversal and one
    translation serve all the rows: the joined string, reversed, lists
    each row reversed, most significant position first."""
    if not rows:
        return []
    digits = ("0|".join(rows) + "0")[::-1].translate(_DIGITS[s]).split("|")
    digits.reverse()
    return [int(d, 2) for d in digits]


def zero_set(ground: Sequence[str], x: str) -> set[str]:
    _check_vector(ground, x)
    return {e for e, a in zip(ground, x) if a == "0"}


class CovectorSet:
    """Validated COM (E, L).  Construct via validate_com()."""

    __slots__ = ("ground", "covectors", "zeros")

    def __init__(self, ground: tuple[str, ...], covectors: tuple[str, ...],
                 zeros: tuple[int, ...]):
        self.ground = ground
        self.covectors = covectors
        self.zeros = zeros  # the zero set of each covector, as a mask

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
    positions signed + and the positions signed -, and packed into one
    int, the + mask in the low n bits and the - mask above it.  Each
    column is held too: `at[s][f]` is the bitset of covector indices with
    sign s at position f.

    FS: X o (-Y) is X off the zero set z(X) and -Y on it, so it depends
    only on X and on -Y restricted to z(X).  For each distinct zero set z
    the distinct restrictions of -Y to z, r(z), come from the columns:
    descend z position by position, splitting each bitset of the Y that
    share a restriction so far three ways by the sign at the next
    position, and keep only the nonempty bitsets.  A level holds at most
    min(3^k, N) of them, so z costs at most min(3^|z|, N) * |z| ANDs,
    not a pass over all N covectors.  Then X o (-Y) is X | r for r in
    r(z(X)), and each check is one OR and one set lookup.  Topes (no
    zeros) pass at once.  Only a failing X has its row rescanned, in
    input order, for the witness.

    SE, by faces.  Call Z a proper face of X when Z is in L, Z != X and
    Z_f is 0 or X_f for every f.  The certificate: for every X, and every
    Y != X with supp Y = supp X, some proper face Z of X has
    D = supp X minus supp Z inside the separator S(X, Y).

    Lemma: given FS, the certificate implies SE on every pair.  First the
    equal-support pairs, by induction on |S(X, Y)|.  Here X o Y = X, so SE
    asks, at each e in S, for a covector that is 0 at e and equals X off
    S.  Take Z as in the certificate and W = Z o (-X), in L by FS: W is X
    off D and -X on D, so supp W = supp X and S(X, W) = D.  For e in D,
    Z itself will do: it is 0 on D and equals X elsewhere.  For e in
    S - D, W and Y agree on D and differ exactly on S - D, a smaller
    separator, so by induction some covector is 0 at e and equals
    W o Y = W off S - D, hence X off S.  Then any pair: FS gives
    composition, X o Y = X o (-(X o (-Y))), so X o Y and Y o X are in L;
    both have support supp X u supp Y, they differ exactly on S, so
    S(X o Y, Y o X) = S, and (X o Y) o (Y o X) = X o Y.  That pair of
    equal support asks SE for the same covector at the same e as (X, Y).

    `at[s][f]` is the bitset of covector indices with sign s at position
    f.  The faces of X are the covectors that are 0 off supp X (a bitset
    kept per support) AND-ed, for each f in supp X, with those whose sign
    at f is 0 or X_f.  The Y not yet separated start as X's support
    class without X; each face keeps only those that agree with X
    somewhere on its D, the OR over f in D of `at[X_f][f]`, and the
    certificate holds at X when none is left.  A COM passes: its
    covectors of support U = supp X, restricted to U, are the topes of a
    contraction of L, itself a COM.  Merging each class of parallel
    elements there (elements zero together, whose signs agree on every
    covector or differ on every one) gives a simple COM on the same
    topes, and a COM's tope graph is a partial cube (BCK 2018).  So a
    shortest path from X to Y first steps to a tope X' that differs from
    X on exactly one parallel class P inside S(X, Y).  SE on (X, X') at
    some e in P gives a covector 0 at e, so 0 on all of P, and equal to X
    off P: a proper face of X with D = P.  P is a single element only in
    a simple COM: in {++, --, 00} on (e0, e1) the only proper face of ++
    is 00, with D = {e0, e1}, so faces with |D| = 1 do not suffice.

    Only when the certificate fails are all pairs rescanned, in input
    order, for a witness (`_se_witness`); an input on which the rescan
    finds none is accepted.  So no verdict rests on the converse of the
    lemma.

    Witnesses follow input order with duplicates dropped: FSViolation
    names the first failing (X, Y), X in the outer loop; SEViolation the
    first failing unordered pair in the same order, then the first
    failing e in ground order.
    """
    ground = tuple(ground)
    if len(set(ground)) != len(ground):
        raise GroundMismatch("duplicate ground elements")
    n = len(ground)
    vecs = list(dict.fromkeys(covectors))
    if not (set(map(len, vecs)) <= {n} and set("".join(vecs)) <= _SIGNS):
        for x in vecs:
            _check_vector(ground, x)
    masks = list(zip(_sign_masks(vecs, "+"), _sign_masks(vecs, "-")))
    columns = ["".join(column) for column in zip(*vecs)] or [""] * n
    at = {s: _sign_masks(columns, s) for s in _SIGNS}
    # the columns again, keyed by the bit of their position
    bits = [1 << f for f in range(n)]
    plus_at, minus_at, zero_at = (dict(zip(bits, at[s])) for s in "+-0")
    everyone = (1 << len(vecs)) - 1
    everywhere = (1 << n) - 1
    pool = {plus | minus << n for plus, minus in masks}
    restricted: dict[int, list[int]] = {}  # zero set z -> r(z)
    for x, (xp, xm) in zip(vecs, masks):
        zero = everywhere & ~(xp | xm)
        if not zero:
            continue  # a tope: X o (-Y) = X
        rows = restricted.get(zero)
        if rows is None:
            # descend z position by position: each node is a restriction
            # of -Y to the positions so far and the bitset of its Y
            nodes, rest = [(0, everyone)], zero
            while rest:
                low = rest & -rest
                rest ^= low
                splits = ((low << n, plus_at[low]), (low, minus_at[low]), (0, zero_at[low]))
                nodes = [(r | add, keep) for r, ys in nodes for add, column in splits
                         if (keep := ys & column)]
            rows = restricted[zero] = [r for r, _ in nodes]
        xk = xp | xm << n
        if not pool.issuperset(map(xk.__or__, rows)):
            y = next(y for y, (yp, ym) in zip(vecs, masks)
                     if xk | (ym & zero) | (yp & zero) << n not in pool)
            raise FSViolation(x, y)
    supports = [xp | xm for xp, xm in masks]
    classes: dict[int, int] = {}  # support -> bitset of its covectors
    for k, support in enumerate(supports):
        classes[support] = classes.get(support, 0) | 1 << k
    candidates = {}  # support U -> the covectors that are 0 off U
    for support in classes:
        agree = everyone
        for f in _bits(everywhere & ~support):
            agree &= at["0"][f]
        candidates[support] = agree
    plus_or_zero = {b: p | zero_at[b] for b, p in plus_at.items()}
    minus_or_zero = {b: m | zero_at[b] for b, m in minus_at.items()}

    def certified(k: int) -> bool:
        xp, xm = masks[k]
        support = supports[k]
        unseparated = classes[support] & ~(1 << k)
        if not unseparated:
            return True
        faces = candidates[support] & ~(1 << k)
        rest = xp
        while rest:
            low = rest & -rest
            faces &= plus_or_zero[low]
            rest ^= low
        rest = xm
        while rest:
            low = rest & -rest
            faces &= minus_or_zero[low]
            rest ^= low
        while faces:
            z = faces & -faces
            faces ^= z
            agree = 0
            rest = support & ~supports[z.bit_length() - 1]
            while rest:
                low = rest & -rest
                agree |= plus_at[low] if xp & low else minus_at[low]
                rest ^= low
            unseparated &= agree
            if not unseparated:
                return True
        return False

    if not all(map(certified, range(len(vecs)))):
        witness = _se_witness(masks, at, candidates)
        if witness is not None:
            i, j, e = witness
            raise SEViolation(vecs[i], vecs[j], ground[e])
    return CovectorSet(ground, tuple(vecs), tuple(everywhere ^ u for u in supports))


def _se_witness(masks: list[tuple[int, int]], at: dict[str, list[int]],
                candidates: dict[int, int]) -> tuple[int, int, int] | None:
    """The pair-by-pair SE test of `validate_com`: the first pair of
    covector indices i < j, in input order, and the first e in
    S = S(X, Y), in ground order, such that no covector is 0 at e and
    equals X o Y off S; None when there is none.

    The outcome depends only on S and on X o Y off S, and X o Y = Y o X
    there, so each unordered pair needs one test.  The covectors that
    equal X o Y off S are those that are 0 off the support of X o Y
    (`candidates`, which has that support as a key once FS holds) AND-ed
    with `at[(X o Y)_f][f]` over the rest of that support outside S."""
    plus_at, minus_at, zero_at = at["+"], at["-"], at["0"]
    positions = lru_cache(maxsize=None)(lambda mask: tuple(_bits(mask)))
    for i, j in combinations(range(len(masks)), 2):
        (xp, xm), (yp, ym) = masks[i], masks[j]
        sep = xp & ym | xm & yp
        agree = candidates[xp | xm | yp | ym]
        for f in positions((xp | yp) & ~sep):
            agree &= plus_at[f]
        for f in positions((xm | ym) & ~sep):
            agree &= minus_at[f]
        for e in positions(sep):
            if not agree & zero_at[e]:
                return i, j, e
    return None


def zero_set_poset(c: CovectorSet) -> tuple[Poset, dict[str, frozenset]]:
    """Distinct zero sets ordered by inclusion, read straight from the
    zero masks of the covectors that `validate_com` checked.

    Element ids are canonical set strings; the returned id -> zero set
    mapping is kept for perfbench and the tests until ROADMAP item 1.
    The poset is only built here: the CLI's `_load_poset` and
    `determinant.verify_theorem` require it to be a bouquet.
    """
    ground = c.ground
    return inclusion_poset(frozenset(ground[i] for i in _bits(z)) for z in set(c.zeros))


def com_from_json(data: dict) -> CovectorSet:
    return validate_com(json_strings(data["ground"], "ground"),
                        json_strings(data["covectors"], "covectors"))
