"""Exact enumeration of the sign vectors realized by an affine line
arrangement in the plane.

This is the construction oracle for the sign-vector fixtures: covectors
are read off at exact rational sample points -- a dense grid, every
pairwise intersection of the lines, and grid-parametrized points on each
line -- so every cell, edge, and vertex of the arrangement is hit.  The
resulting sets are what the fixture JSON files were generated from, and
the tests regenerate them here and compare.  `exact_covectors` reads the
covectors of arrangements of any extent off their vertices and edges,
for the seeded arrangements of `random_lines`.
"""

from __future__ import annotations

import random
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


def random_lines(rng: random.Random, n: int, concurrent: int = 0) -> list[Line]:
    """n pairwise non-parallel lines with small integer coefficients; the
    first `concurrent` pass through the origin, the others miss it."""
    lines: list[Line] = []
    slopes = set()
    while len(lines) < n:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        slope = Fraction(a, b) if b else None
        if (a or b) and slope not in slopes:
            slopes.add(slope)
            c = 0 if len(lines) < concurrent else rng.choice([-1, 1]) * rng.randint(1, 20)
            lines.append((Fraction(a), Fraction(b), Fraction(c)))
    return lines


def exact_covectors(lines: list[Line]) -> list[str]:
    """All sign vectors of an arrangement of at least one line, no two of
    them equal: every vertex; on each line, a point between each two
    consecutive vertices and one past each end, or any point when the
    line meets no other; and, since every region borders an edge and a
    point of an edge lies on one line only, each edge's sign vector with
    its 0 made + and made -."""
    on: list[set[tuple[Fraction, Fraction]]] = [set() for _ in lines]
    for i, j in combinations(range(len(lines)), 2):
        p = _intersection(lines[i], lines[j])
        if p is not None:
            on[i].add(p)
            on[j].add(p)
    vectors = {sign_vector(lines, x, y) for points in on for x, y in points}
    for i, (line, points) in enumerate(zip(lines, on)):
        # _points_on_line's parameter: x, or y on a vertical line
        ts = sorted(p[0] if line[1] != 0 else p[1] for p in points)
        params = [(s + t) / 2 for s, t in zip(ts, ts[1:])] + [ts[0] - 1, ts[-1] + 1] \
            if ts else [Fraction(0)]
        for x, y in _points_on_line(line, params):
            v = sign_vector(lines, x, y)
            vectors.update(v[:i] + s + v[i + 1:] for s in "0+-")
    return sorted(vectors)
