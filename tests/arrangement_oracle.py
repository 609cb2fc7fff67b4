"""Exact enumeration of the sign vectors realized by an affine line
arrangement in the plane.

This is the construction oracle for the sign-vector fixtures: covectors
are read off at exact rational sample points -- a dense grid, every
pairwise intersection of the lines, and grid-parametrized points on each
line -- so every cell, edge, and vertex of the arrangement is hit.  The
resulting sets are what the fixture JSON files were generated from, and
the tests regenerate them here and compare.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# A line is (a, b, c) for the form a*x + b*y + c.
Line = tuple[Fraction, Fraction, Fraction]

GENERIC_LINES: list[Line] = [
    (Fraction(1), Fraction(0), Fraction(0)),    # x = 0
    (Fraction(0), Fraction(1), Fraction(0)),    # y = 0
    (Fraction(1), Fraction(1), Fraction(-1)),   # x + y = 1
]

CONCURRENT_LINES: list[Line] = [
    (Fraction(1), Fraction(0), Fraction(0)),    # x = 0
    (Fraction(0), Fraction(1), Fraction(0)),    # y = 0
    (Fraction(1), Fraction(1), Fraction(0)),    # x + y = 0
]

# x = -1, 0, 1, y = -1, 0, 1 and x + y = 0: triple points at (0, 0),
# (-1, 1) and (1, -1), six double points.
SEVEN_LINES: list[Line] = [
    (Fraction(1), Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(1), Fraction(1), Fraction(0)),
]


def _sign(v: Fraction) -> str:
    if v > 0:
        return "+"
    if v < 0:
        return "-"
    return "0"


def sign_vector(lines: list[Line], x: Fraction, y: Fraction) -> str:
    return "".join(_sign(a * x + b * y + c) for a, b, c in lines)


def _intersection(l1: Line, l2: Line) -> tuple[Fraction, Fraction] | None:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    x = (-c1 * b2 + c2 * b1) / det
    y = (-a1 * c2 + a2 * c1) / det
    return x, y


def _points_on_line(line: Line, params: list[Fraction]):
    a, b, c = line
    for t in params:
        if b != 0:
            yield t, (-c - a * t) / b
        else:
            yield -c / a, t


def enumerate_covectors(lines: list[Line]) -> list[str]:
    """All sign vectors realized by points of the plane, for desk-scale
    arrangements whose features lie within the sampling window."""
    step = Fraction(1, 4)
    grid = [Fraction(-2) + k * step for k in range(17)]
    points: set[tuple[Fraction, Fraction]] = set()
    for x in grid:
        for y in grid:
            points.add((x, y))
    for l1, l2 in combinations(lines, 2):
        p = _intersection(l1, l2)
        if p is not None:
            points.add(p)
    for line in lines:
        points.update(_points_on_line(line, grid))
    return sorted({sign_vector(lines, x, y) for x, y in points})
