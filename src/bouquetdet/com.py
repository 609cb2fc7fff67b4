"""Sign-vector systems: complexes of oriented matroids (COMs), oriented
matroids, faces, and the zero-set poset feeding the chain-matrix
pipeline.

Covectors are strings over {+, -, 0} in ground-set order (e.g. "+-0"),
which keeps fixtures compact and diffable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .poset import NotABouquet, Poset, inclusion_poset


class ComError(Exception):
    pass


class GroundMismatch(ComError):
    pass


class NotACovector(ComError):
    pass


class NotValidated(ComError):
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


def negate(x: str) -> str:
    return x.translate(str.maketrans("+-", "-+"))


def composition(x: str, y: str) -> str:
    """(X o Y)_e = X_e where nonzero, else Y_e."""
    if len(x) != len(y):
        raise GroundMismatch("covectors on different ground sets")
    return "".join(a if a != "0" else b for a, b in zip(x, y))


def separator(ground: Sequence[str], x: str, y: str) -> set[str]:
    """Elements where X and Y carry opposite nonzero signs."""
    _check_vector(ground, x)
    _check_vector(ground, y)
    return {e for e, a, b in zip(ground, x, y)
            if a != "0" and b != "0" and a != b}


def support(ground: Sequence[str], x: str) -> set[str]:
    _check_vector(ground, x)
    return {e for e, a in zip(ground, x) if a != "0"}


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

    def face(self, x: str) -> list[str]:
        """F(X) = {X o Y : Y in L}."""
        if x not in self.covectors:
            raise NotACovector(x)
        return sorted({composition(x, y) for y in self.covectors})

    def __repr__(self) -> str:
        return f"CovectorSet({len(self.ground)} elements, {len(self.covectors)} covectors)"


def validate_com(ground: Sequence[str], covectors: Iterable[str]) -> CovectorSet:
    """Check face symmetry (FS) and strong elimination (SE) by brute
    force; raises FSViolation / SEViolation with a witness on failure."""
    ground = tuple(ground)
    vecs = []
    seen = set()
    for x in covectors:
        _check_vector(ground, x)
        if x not in seen:
            seen.add(x)
            vecs.append(x)
    pool = frozenset(vecs)
    for x in vecs:
        for y in vecs:
            if composition(x, negate(y)) not in pool:
                raise FSViolation(x, y)
    for x in vecs:
        for y in vecs:
            sep = [i for i, (a, b) in enumerate(zip(x, y))
                   if a != "0" and b != "0" and a != b]
            if not sep:
                continue
            comp = composition(x, y)
            sep_set = set(sep)
            for e in sep:
                for z in vecs:
                    if z[e] != "0":
                        continue
                    if all(z[f] == comp[f] for f in range(len(ground))
                           if f not in sep_set):
                        break
                else:
                    raise SEViolation(x, y, ground[e])
    return CovectorSet(ground, tuple(vecs))


def zero_set_poset(c: CovectorSet) -> tuple[Poset, dict[str, frozenset]]:
    """Distinct zero sets ordered by inclusion.

    Element ids are canonical set strings; the returned mapping doubles
    as weight support for ground-variable substitution.  Raises
    NotABouquet when the result is not a bouquet of geometric lattices.
    """
    if not isinstance(c, CovectorSet):
        raise NotValidated("zero_set_poset needs a validated CovectorSet")
    poset, mapping = inclusion_poset(
        frozenset(zero_set(c.ground, x)) for x in c.covectors)
    if not poset.is_bouquet():
        raise NotABouquet("zero-set poset is not a bouquet of geometric lattices")
    return poset, mapping


def com_from_json(data: dict) -> CovectorSet:
    return validate_com(data["ground"], data["covectors"])
