"""Exact symbolic determinant of the chain matrix and verification of
its factorization det = +/- prod over elements x of w(x)^rho(x).

The symbolic determinant is computed per family block with fraction-free
(Bareiss) elimination; a Laplace-expansion determinant serves as an
independent cross-check oracle for small blocks.  Randomized mode
evaluates both sides of the identity at random integer points modulo a
fixed 62-bit prime instead of expanding anything symbolically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .chains import ChainMatrix, Labeling, WeightAssignment, chain_matrix, min_labeling, weight
from .polyring import Polynomial, power_product
from .poset import NotABouquet, Poset

# Fixed evaluation prime for randomized verification: smallest prime
# above 2^61 (62 bits).
VERIFICATION_PRIME = 2305843009213693967


class DeterminantError(Exception):
    pass


class NonZeroOffBlock(DeterminantError):
    """A cross-family entry of the chain matrix is nonzero."""


class TooLarge(DeterminantError):
    pass


Matrix = list[list[Polynomial]]


def block_decompose(M: ChainMatrix) -> list[tuple[str, Matrix]]:
    """Split the family-grouped chain matrix into its diagonal blocks,
    one per neat chain family, after asserting every off-block entry is
    the zero polynomial."""
    blocks = []
    for top, (start, stop) in zip(M.family_tops, M.family_bounds):
        for i in range(start, stop):
            for j in range(M.dim):
                if (j < start or j >= stop) and not M.entries[i][j].is_zero():
                    raise NonZeroOffBlock(
                        f"entry ({M.chains[i]}, {M.chains[j]}) = "
                        f"{M.entries[i][j].to_string()}")
        blocks.append((top, [list(M.entries[i][start:stop])
                             for i in range(start, stop)]))
    return blocks


def det_bareiss(M: Matrix) -> Polynomial:
    """Exact determinant by single-step fraction-free elimination.

    Every division is by the previous pivot and is exact over Z[w];
    a nonzero remainder would mean a bug and raises NotDivisible.
    """
    n = len(M)
    for row in M:
        if len(row) != n:
            raise DeterminantError("matrix is not square")
    if n == 0:
        return Polynomial.one()
    a = [list(row) for row in M]
    sign = 1
    prev = Polynomial.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = Polynomial.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def det_cofactor(M: Matrix) -> Polynomial:
    """Laplace-expansion determinant; independent oracle, dimension <= 8."""
    n = len(M)
    for row in M:
        if len(row) != n:
            raise DeterminantError("matrix is not square")
    if n > 8:
        raise TooLarge(f"cofactor expansion limited to dimension 8, got {n}")

    def expand(rows: list[int], cols: list[int]) -> Polynomial:
        if not rows:
            return Polynomial.one()
        r = rows[0]
        acc = Polynomial.zero()
        for pos, c in enumerate(cols):
            if M[r][c].is_zero():
                continue
            minor = expand(rows[1:], cols[:pos] + cols[pos + 1:])
            term = M[r][c] * minor
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc

    return expand(list(range(n)), list(range(n)))


def block_determinants(P: Poset, labeling: Labeling, weights: WeightAssignment
                       ) -> tuple[Polynomial, list[tuple[str, int, Polynomial]]]:
    """Bareiss determinant of each family block of the chain matrix, as
    (top, dim, det) triples, and their product."""
    block_dets = [(top, len(B), det_bareiss(B))
                  for top, B in block_decompose(chain_matrix(P, labeling, weights))]
    det = Polynomial.one()
    for _, _, d in block_dets:
        det = det * d
    return det, block_dets


def rho_exponents(P: Poset) -> dict[str, int]:
    """The exponent table x -> rho(x) of the right-hand side; a negative
    exponent raises DeterminantError."""
    exponents = {x: P.rho(x) for x in P.elements}
    for x, e in exponents.items():
        if e < 0:
            raise DeterminantError(f"negative exponent rho({x!r}) = {e}")
    return exponents


def rhs_product(P: Poset, weights: WeightAssignment) -> tuple[Polynomial, dict[str, int]]:
    """The factorization's right-hand side: product over all elements x
    of w(x)^rho(x), together with the exponent table."""
    exponents = rho_exponents(P)
    product = power_product(
        (weight(P, x, weights), exponents[x]) for x in P.elements)
    return product, exponents


@dataclass
class VerificationReport:
    verdict: bool
    sign: int | None
    determinant: Polynomial | None
    rhs: Polynomial | None
    exponents: dict[str, int]
    blocks: list[tuple[str, int, Polynomial | None]]  # (top, dim, block det)
    mode: str
    trials: int = 0
    seed: int = 0
    prime: int = 0

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "sign": self.sign,
            "det": None if self.determinant is None else self.determinant.to_string(),
            "product": None if self.rhs is None else self.rhs.to_string(),
            "exponents": dict(self.exponents),
            "blocks": [{"top": t, "dim": d,
                        "det": None if p is None else p.to_string()}
                       for t, d, p in self.blocks],
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
        }


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant of an integer matrix modulo a prime."""
    n = len(rows)
    a = [[x % p for x in row] for row in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det % p
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                for j in range(k, n):
                    a[i][j] = (a[i][j] - f * a[k][j]) % p
    return det % p


def verify_theorem(P: Poset, labeling: Labeling | None = None,
                   weights: WeightAssignment | None = None,
                   mode: str = "symbolic", trials: int = 20,
                   seed: int = 0) -> VerificationReport:
    """Check det(chain matrix) = +/- prod w(x)^rho(x).

    Symbolic mode expands both sides exactly and resolves the sign by
    trying + then -.  Randomized mode evaluates both sides at `trials`
    random points in [1, 10^6] modulo a fixed 62-bit prime and requires
    one consistent sign across all trials; it never expands the
    right-hand side.
    """
    if not P.is_bouquet():
        raise NotABouquet("input poset is not a bouquet of geometric lattices")
    if labeling is None:
        labeling = min_labeling(P)
    if weights is None:
        weights = WeightAssignment.default(P)

    if mode == "symbolic":
        det, block_dets = block_determinants(P, labeling, weights)
        rhs, exponents = rhs_product(P, weights)
        if det == rhs:
            sign, verdict = 1, True
        elif det == -rhs:
            sign, verdict = -1, True
        else:
            sign, verdict = None, False
        return VerificationReport(verdict, sign, det, rhs, exponents,
                                  block_dets, "symbolic")

    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")

    blocks = block_decompose(chain_matrix(P, labeling, weights))
    exponents = rho_exponents(P)
    p = VERIFICATION_PRIME
    rng = random.Random(seed)
    variables = sorted(set(weights.atom_vars.values()))
    element_weights = {x: weight(P, x, weights) for x in P.elements}
    sign: int | None = None
    verdict = True
    for _ in range(trials):
        assignment = {v: rng.randint(1, 10**6) for v in variables}
        det_val = 1
        for _, B in blocks:
            rows = [[e.eval_mod(assignment, p) for e in row] for row in B]
            det_val = det_val * _det_mod(rows, p) % p
        rhs_val = 1
        for x in P.elements:
            e = exponents[x]
            if e:
                rhs_val = rhs_val * pow(element_weights[x].eval_mod(assignment, p), e, p) % p
        if det_val == rhs_val:
            trial_sign = 1
        elif det_val == (-rhs_val) % p:
            trial_sign = -1
        else:
            verdict = False
            sign = None
            break
        if sign is None:
            sign = trial_sign
        elif sign != trial_sign:
            verdict = False
            sign = None
            break
    return VerificationReport(verdict, sign if verdict else None, None, None,
                              exponents, [(t, len(B), None) for t, B in blocks],
                              "randomized", trials=trials, seed=seed, prime=p)
