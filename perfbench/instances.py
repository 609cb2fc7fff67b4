"""Seeded instance generators for the benchmark.

Every generator returns the JSON document the CLI reads (``--kind matroid``,
``bouquet`` or ``com``) together with the block dimensions the chain matrix
must have, derived from closed forms rather than from the program:

* U(r, n): one block of dim C(n-1, r-1) = |mu(0, 1)| of the flat lattice;
* M(K_n): one block of dim (n-1)! (the partition lattice Pi_n);
* a bouquet of uniform roofs: one block per roof, each as for U(r, n);
* a line arrangement: one block per vertex, of dim k-1 for k concurrent
  lines (1 for a generic vertex).

The generators use only the standard library, so the program under test
receives nothing but the generated files.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial


def labels(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct element names in an order drawn from rng.

    The poset sorts its elements by name, so the draw changes which atom
    the min-labeling sees first and hence the neat chains.
    """
    names = [f"{prefix}{k}" for k in range(n)]
    rng.shuffle(names)
    return names


def uniform(rng: random.Random, r: int, n: int) -> tuple[dict, list[int]]:
    """U(r, n): every subset of size <= r is independent."""
    ground = labels(rng, n, "e")
    independents = [list(s) for k in range(r + 1) for s in combinations(ground, k)]
    return {"ground": ground, "independents": independents}, [comb(n - 1, r - 1)]


def uniform_flat_count(r: int, n: int) -> int:
    """Flats of U(r, n): the subsets of size < r and the whole ground set."""
    return sum(comb(n, k) for k in range(r)) + 1


def graphic_complete(rng: random.Random, n: int) -> tuple[dict, list[int]]:
    """M(K_n): edge sets of K_n that are forests."""
    edges = list(combinations(range(n), 2))
    names = labels(rng, len(edges), "k")
    independents = []
    for k in range(n):
        for subset in combinations(range(len(edges)), k):
            if _is_forest(n, [edges[i] for i in subset]):
                independents.append([names[i] for i in subset])
    return {"ground": names, "independents": independents}, [factorial(n - 1)]


def _is_forest(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def uniform_bouquet(rng: random.Random, roofs: int, r: int,
                    n: int) -> tuple[dict, list[int]]:
    """Bouquet of `roofs` copies of U(r, n), roof i sharing r-1 elements
    with roof i+1 and none with the others.

    Sharing fewer elements than the rank keeps every shared independent
    set extendable by any element of either roof, so cross-roof exchange
    holds, and each roof's interval is the flat lattice of U(r, n).
    """
    if r < 2 or n <= 2 * (r - 1):
        raise ValueError("need r >= 2 and n > 2(r-1) so roofs stay distinct")
    shared = r - 1
    size = roofs * n - (roofs - 1) * shared
    ground = labels(rng, size, "b")
    members = [ground[i * (n - shared): i * (n - shared) + n] for i in range(roofs)]
    independents = {frozenset(s) for roof in members
                    for k in range(r + 1) for s in combinations(roof, k)}
    data = {"ground": ground, "roofs": members,
            "independents": sorted(sorted(s) for s in independents)}
    return data, [comb(n - 1, r - 1)] * roofs


# -- line arrangements -------------------------------------------------

Line = tuple[Fraction, Fraction, Fraction]   # a*x + b*y + c


def _meet(l1: Line, l2: Line) -> tuple[Fraction, Fraction] | None:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return (b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det


def vertices(lines: list[Line]) -> dict[tuple[Fraction, Fraction], set[int]]:
    """Each intersection point with the indices of the lines through it."""
    out: dict[tuple[Fraction, Fraction], set[int]] = {}
    for i, j in combinations(range(len(lines)), 2):
        p = _meet(lines[i], lines[j])
        if p is not None:
            out.setdefault(p, set()).update((i, j))
    return out


def _value(line: Line, p: tuple[Fraction, Fraction]) -> Fraction:
    a, b, c = line
    return a * p[0] + b * p[1] + c


def _sign_vector(lines: list[Line], p: tuple[Fraction, Fraction]) -> str:
    return "".join("+" if v > 0 else "-" if v < 0 else "0"
                   for v in (_value(line, p) for line in lines))


def covectors(lines: list[Line]) -> list[str]:
    """Exact covector set of an affine line arrangement in the plane.

    Samples every vertex, every edge (the midpoints between consecutive
    vertices on a line and a point on each ray past the end vertices, or
    any point of a line that meets no other), and each edge point pushed
    to both sides of its line by a rational step small enough that no
    other line changes sign.  Every cell borders an edge, so this finds
    every cell, edge and vertex.
    """
    verts = vertices(lines)
    points = set(verts)
    for i, (a, b, c) in enumerate(lines):
        direction = (-b, a)
        if b != 0:
            origin = (Fraction(0), -c / b)
        else:
            origin = (-c / a, Fraction(0))
        ts = sorted({_param(origin, direction, p) for p, on in verts.items() if i in on})
        if ts:
            params = [(s + t) / 2 for s, t in zip(ts, ts[1:])] + [ts[0] - 1, ts[-1] + 1]
        else:
            params = [Fraction(0)]
        for t in params:
            p = (origin[0] + t * direction[0], origin[1] + t * direction[1])
            points.add(p)
            points.update(_push_off(lines, i, p))
    return sorted({_sign_vector(lines, p) for p in points})


def _param(origin, direction, p) -> Fraction:
    dx, dy = direction
    if dx != 0:
        return (p[0] - origin[0]) / dx
    return (p[1] - origin[1]) / dy


def _push_off(lines: list[Line], i: int, p: tuple[Fraction, Fraction]):
    """p moved off line i along its normal, once to each side.  Moving by
    eps*(a_i, b_i) changes line j's value by eps*(a_i*a_j + b_i*b_j), so
    eps below |value_j| / (2*(|a_i*a_j + b_i*b_j| + 1)) keeps its sign."""
    a, b, _ = lines[i]
    eps = Fraction(1)
    for j, line in enumerate(lines):
        if j != i:
            dot = abs(a * line[0] + b * line[1])
            eps = min(eps, abs(_value(line, p)) / (2 * (dot + 1)))
    return [(p[0] + s * eps * a, p[1] + s * eps * b) for s in (1, -1)]


def _random_line(rng: random.Random, through: tuple[int, int] | None = None) -> Line:
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if a or b:
            break
    if through is None:
        c = rng.randint(-20, 20)
    else:
        c = -(a * through[0] + b * through[1])
    return Fraction(a), Fraction(b), Fraction(c)


def arrangement(rng: random.Random, n: int, concurrent: int = 0) -> list[Line]:
    """n pairwise non-parallel lines with integer coefficients.  The first
    `concurrent` lines (0, or 3 and more) pass through one common point;
    apart from that point no three lines meet."""
    if concurrent in (1, 2) or concurrent > n:
        raise ValueError("concurrent must be 0 or between 3 and n")
    while True:
        point = (rng.randint(-5, 5), rng.randint(-5, 5))
        lines = [_random_line(rng, point) for _ in range(concurrent)]
        lines += [_random_line(rng) for _ in range(n - concurrent)]
        if _has_shape(lines, concurrent):
            return lines


def _has_shape(lines: list[Line], concurrent: int) -> bool:
    if len({_direction(line) for line in lines}) != len(lines):
        return False
    sizes = sorted(len(on) for on in vertices(lines).values())
    expected = [2] * (comb(len(lines), 2) - comb(concurrent, 2))
    return sizes == sorted(expected + ([concurrent] if concurrent else []))


def _direction(line: Line) -> tuple[Fraction, Fraction]:
    a, b, _ = line
    return (Fraction(1), b / a) if a != 0 else (Fraction(0), Fraction(1))


def line_com(rng: random.Random, n: int, concurrent: int = 0) -> tuple[dict, list[int]]:
    """COM of a random arrangement as generated by `arrangement`."""
    lines = arrangement(rng, n, concurrent)
    dims = [len(on) - 1 for on in vertices(lines).values()]
    return {"ground": labels(rng, n, "l"), "covectors": covectors(lines)}, dims
