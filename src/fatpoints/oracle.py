"""Finite-field interpolation oracle for fat-point linear systems.

h^0 of d*H - sum(m_i E_i) on a blow-up of P^n equals the dimension of the
space of degree-d forms vanishing to order m_i at each point.  Working in
the affine chart where every sample point has last coordinate 1, the
vanishing conditions are rows of partial derivatives of the monomials
(valid verbatim in characteristic p as long as p > d), and h^0 is the
corank of the resulting matrix over F_p.

The rank can only drop at special points, so full rank at any
configuration certifies the value at very general points, while a rank
deficiency is evidence only (at an explicitly constructed configuration it
is a statement about that configuration).

All matrix arithmetic is exact int64 modular arithmetic under numpy; no
floating point is involved anywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .elliptic import CubicCurve, Point
from .lattice import (
    BlowupContext,
    DivisorClass,
    canonical_class,
    vdim,
    vdim_quadratic,
)


@dataclass(frozen=True)
class PointConfig:
    """A configuration of r distinct points of P^n over F_p.

    Points are stored as affine n-tuples (the chart where the last
    homogeneous coordinate is 1).  `source` records how the configuration
    was produced ("general-random", "cubic-torsion", "nodal-quartic",
    "explicit"), together with any construction parameters in `meta`.
    """

    n: int
    prime: int
    points: tuple[tuple[int, ...], ...]
    source: str = "explicit"
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        for pt in self.points:
            if len(pt) != self.n:
                raise ValueError("each point needs n affine coordinates")

    @property
    def r(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class OracleBudget:
    """How much finite-field work an effectivity query may spend.

    When `config` is provided the system is evaluated at that explicit
    configuration (position-dependent answers, recorded as a caveat);
    otherwise points are drawn at random for every seed.
    """

    prime: int = 65537
    seeds: tuple[int, ...] = (1, 2, 3)
    config: PointConfig | None = None


# Elimination and the derivative tables multiply two residues in int64 and
# then add or subtract a third, so (p - 1)^2 + p must stay below 2^63; the
# power of two below sqrt(2^63) keeps that with room to spare.  Testing the
# range first caps trial division at 46,341 steps.
PRIME_LIMIT = 1 << 31


def check_prime(p: int) -> int:
    if p >= PRIME_LIMIT:
        raise ValueError(f"{p} is too large: primes must be below 2^31 "
                         "so that products of residues fit in int64")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")
    return p


# -- point sampling -----------------------------------------------------------

def sample_general(n: int, r: int, prime: int, seed: int) -> PointConfig:
    """r distinct uniformly random affine points of P^n over F_p."""
    check_prime(prime)
    rng = random.Random(("general", n, r, prime, seed).__repr__())
    pts: list[tuple[int, ...]] = []
    seen = set()
    while len(pts) < r:
        candidate = tuple(rng.randrange(prime) for _ in range(n))
        if candidate in seen:
            continue
        seen.add(candidate)
        pts.append(candidate)
    return PointConfig(n=n, prime=prime, points=tuple(pts),
                       source="general-random", meta={"seed": seed})


def sample_cubic_torsion(prime: int, seed: int, r: int = 10) -> PointConfig:
    """Ten points on a smooth plane cubic with a 2-torsion constraint.

    Draws a Weierstrass curve y^2 = x^3 + ax + b with a rational 2-torsion
    point T = (x0, 0), insists on gcd(3, |E|) = 1, then samples nine random
    affine points and solves for a tenth so that the group sum S of all ten
    satisfies 3S = -T.  Under the identification of degree-zero divisor
    classes with group elements (the base point at infinity is a flex),
    this makes 10*(line) - 3*(p_1 + ... + p_10) restrict on the cubic to
    exactly the 2-torsion class T.

    The point count is exhaustive, so the prime must satisfy p <= 2^20.
    """
    check_prime(prime)
    if prime > 1 << 20:
        raise ValueError("torsion construction counts points exhaustively; "
                         "use a prime <= 2^20")
    if prime < 10:
        raise ValueError("prime too small for a torsion configuration")
    rng = random.Random(("cubic-torsion", prime, r, seed).__repr__())
    for _ in range(200):
        x0 = rng.randrange(prime)
        a = rng.randrange(prime)
        b = (-pow(x0, 3, prime) - a * x0) % prime
        try:
            curve = CubicCurve(a, b, prime)
        except ValueError:
            continue
        order = curve.point_count()
        if order % 3 == 0:
            continue
        torsion: Point = (x0, 0)
        target = curve.multiply(pow(3, -1, order), torsion)
        config = _torsion_points(curve, target, r, rng)
        if config is None:
            continue
        points = config
        if not all(curve.contains(pt) for pt in points):
            raise AssertionError("torsion configuration point off the cubic")
        total = curve.sum_points(points)
        if curve.add(curve.multiply(3, total), torsion) is not None:
            raise AssertionError("torsion configuration misses 3S = -T")
        return PointConfig(
            n=2, prime=prime, points=tuple(points), source="cubic-torsion",
            meta={"a": a, "b": b, "torsion": torsion, "order": order, "seed": seed})
    raise ArithmeticError("could not build a valid torsion configuration; "
                          "try another seed or prime")


def _torsion_points(curve: CubicCurve, target: Point, r: int,
                    rng: random.Random) -> list[tuple[int, int]] | None:
    for _ in range(50):
        pts: list[tuple[int, int]] = []
        seen = set()
        while len(pts) < r - 1:
            x = rng.randrange(curve.p)
            ys = curve.y_coordinates(x)
            if not ys:
                continue
            y = rng.choice(ys)
            if (x, y) in seen:
                continue
            seen.add((x, y))
            pts.append((x, y))
        partial = curve.sum_points(pts)
        last = curve.add(target, curve.negate(partial))
        if last is None or last in seen:
            continue
        return pts + [last]
    return None


def sample_nodal_quartic(prime: int, seed: int, r: int = 14) -> PointConfig:
    """A node plus r-1 simple points on a plane quartic over F_p.

    Draws a random quartic form constrained to be singular at a random
    point (three linear conditions on the 15 coefficients) and samples the
    remaining points on the curve.  The first configuration point is the
    node; assigning it multiplicity 2 and the others multiplicity 1 makes
    the class 4H - 2E_1 - E_2 - ... - E_r effective at this configuration
    by construction.
    """
    check_prime(prime)
    rng = random.Random(("nodal-quartic", prime, r, seed).__repr__())
    exponents = affine_exponents(2, 4)
    for _ in range(100):
        node = (rng.randrange(prime), rng.randrange(prime))
        rows = _point_condition_rows(node, multiplicity=2, exponents=exponents,
                                     prime=prime)
        basis = nullspace_mod_p(rows, prime)
        coeffs = np.zeros(len(exponents), dtype=np.int64)
        for vec in basis:
            coeffs = (coeffs + rng.randrange(prime) * vec) % prime
        if not coeffs.any():
            continue
        points = _points_on_affine_curve(coeffs, exponents, prime, r - 1,
                                         rng, forbidden={node})
        if points is None:
            continue
        return PointConfig(
            n=2, prime=prime, points=(node, *points), source="nodal-quartic",
            meta={"coefficients": coeffs.tolist(), "seed": seed})
    raise ArithmeticError("could not sample a nodal quartic configuration")


def _points_on_affine_curve(coeffs: np.ndarray, exponents: np.ndarray, prime: int,
                            count: int, rng: random.Random,
                            forbidden: set) -> list[tuple[int, int]] | None:
    ys = np.arange(prime, dtype=np.int64)
    found: list[tuple[int, int]] = []
    seen = set(forbidden)
    for _ in range(40 * count):
        if len(found) == count:
            return found
        x = rng.randrange(prime)
        # Collapse f(x, y) to a univariate polynomial in y, then scan roots.
        y_coeffs = np.zeros(5, dtype=np.int64)
        for (ex, ey), c in zip(exponents, coeffs):
            y_coeffs[ey] = (y_coeffs[ey] + int(c) * pow(x, int(ex), prime)) % prime
        vals = np.zeros_like(ys)
        for c in y_coeffs[::-1]:
            vals = (vals * ys + int(c)) % prime
        roots = np.flatnonzero(vals == 0)
        rng.shuffle(roots_list := [int(v) for v in roots])
        for y in roots_list:
            if (x, y) not in seen:
                seen.add((x, y))
                found.append((x, y))
                break
    return found if len(found) == count else None


# -- interpolation matrices ---------------------------------------------------

@lru_cache(maxsize=None)
def _affine_exponents_cached(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    if degree < 0:
        return ()

    def rec(vars_left: int, budget: int):
        if vars_left == 0:
            yield ()
            return
        for e in range(budget + 1):
            for rest in rec(vars_left - 1, budget - e):
                yield (e, *rest)

    return tuple(rec(n, degree))


def affine_exponents(n: int, degree: int) -> np.ndarray:
    """Exponent vectors of the monomials of degree <= `degree` in n variables.

    These are the degree-`degree` monomials of P^n restricted to the chart
    where the homogenizing coordinate is 1; the order is fixed and
    deterministic.
    """
    exps = _affine_exponents_cached(n, degree)
    return np.array(exps, dtype=np.int64).reshape(len(exps), n)


def _derivative_table(x: int, max_exp: int, max_order: int, prime: int) -> np.ndarray:
    """T[a, e] = e!/(e-a)! * x^(e-a) mod p (0 when a > e)."""
    powers = np.ones(max_exp + 1, dtype=np.int64)
    for e in range(1, max_exp + 1):
        powers[e] = powers[e - 1] * (x % prime) % prime
    T = np.zeros((max_order + 1, max_exp + 1), dtype=np.int64)
    for a in range(max_order + 1):
        for e in range(a, max_exp + 1):
            fall = 1
            for t in range(a):
                fall = fall * ((e - t) % prime) % prime
            T[a, e] = fall * powers[e - a] % prime
    return T


def _point_condition_rows(point: Sequence[int], multiplicity: int,
                          exponents: np.ndarray, prime: int) -> np.ndarray:
    """All derivative-vanishing rows of one fat point (orders < multiplicity)."""
    n = len(point)
    max_exp = int(exponents.max(initial=0))
    orders = affine_exponents(n, multiplicity - 1)
    block = np.ones((len(orders), len(exponents)), dtype=np.int64)
    for j in range(n):
        T = _derivative_table(int(point[j]), max_exp, multiplicity - 1, prime)
        block = block * T[orders[:, j]][:, exponents[:, j]] % prime
    return block


def conditions_matrix(D: DivisorClass, config: PointConfig) -> np.ndarray:
    """The fat-point interpolation matrix of D at the given configuration.

    Rows are the derivative conditions (one per derivative order of total
    degree < m_i at the i-th point), columns the degree-d monomials; the
    row count is sum binom(m_i + n - 1, n) over the points with m_i >= 1
    (a multiplicity <= 0 imposes no condition) and the column count
    binom(d + n, n).  This is the one place a configuration is validated:
    it must match the class's (n, r), the class must be integral with
    d >= 0, and the prime must pass `check_prime` and exceed d so that no
    falling factorial degenerates in characteristic p.
    """
    ctx = D.ctx
    if not D.is_integral:
        raise ValueError("interpolation requires an integral class")
    if config.n != ctx.n or config.r != ctx.r:
        raise ValueError("configuration does not match the blow-up context")
    d = int(D.d)
    if d < 0:
        raise ValueError("negative degree has no monomials")
    check_prime(config.prime)
    if config.prime <= d:
        raise ValueError(f"prime {config.prime} must exceed the degree {d}")
    exponents = affine_exponents(ctx.n, d)
    blocks = [np.zeros((0, len(exponents)), dtype=np.int64)]
    for point, mi in zip(config.points, D.m):
        if mi >= 1:
            blocks.append(_point_condition_rows(point, int(mi), exponents,
                                                config.prime))
    return np.vstack(blocks)


def _echelon_mod_p(matrix: np.ndarray, prime: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over F_p and its pivot columns, by forward elimination
    that updates only the nonzero rows below each pivot (int64 numpy)."""
    check_prime(prime)
    A = np.array(matrix, dtype=np.int64) % prime
    rows, cols = A.shape
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        nz = np.flatnonzero(A[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, c]), prime - 2, prime)
        below = A[rank + 1:, c]
        nzb = np.flatnonzero(below)
        if nzb.size:
            sel = rank + 1 + nzb
            factors = below[nzb] * inv % prime
            A[sel, c:] = (A[sel, c:] - factors[:, None] * A[rank, c:]) % prime
        pivots.append(c)
    return A, pivots


def rank_mod_p(matrix: np.ndarray, prime: int) -> int:
    """Exact rank over F_p by Gaussian elimination."""
    return len(_echelon_mod_p(matrix, prime)[1])


def nullspace_mod_p(matrix: np.ndarray, prime: int) -> list[np.ndarray]:
    """Basis of the right kernel over F_p: for each free column the unique
    kernel vector that is 1 there and 0 on the other free columns."""
    A, pivots = _echelon_mod_p(matrix, prime)
    cols = A.shape[1]
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for row, pc in reversed(list(enumerate(pivots))):
            # Reduce each product before summing: an int64 dot product of
            # residues overflows for primes near 2^31.
            s = int((A[row, pc + 1:] * v[pc + 1:] % prime).sum())
            v[pc] = -s * pow(int(A[row, pc]), prime - 2, prime) % prime
        basis.append(v)
    return basis


# -- h^0 and derived invariants -----------------------------------------------

@dataclass(frozen=True)
class InterpolationResult:
    """Outcome of a finite-field h^0 computation for one divisor class."""

    divisor: DivisorClass
    prime: int
    h0: int
    rank: int
    vdim: int
    edim: int
    h1: int | None
    special: bool
    source: str

    def as_row(self) -> dict:
        return {
            "vdim": self.vdim,
            "edim": self.edim,
            "h0": self.h0,
            "h1": self.h1,
            "special": self.special,
        }


def _clamped(D: DivisorClass) -> DivisorClass:
    """Replace negative multiplicities by zero (they impose no conditions)."""
    if all(mi >= 0 for mi in D.m):
        return D
    return DivisorClass(D.ctx, D.d, [max(mi, Fraction(0)) for mi in D.m])


def h0_at_config(D: DivisorClass, config: PointConfig) -> tuple[int, int]:
    """(h0, rank) of the fat-point system at one explicit configuration."""
    if D.d < 0:
        return 0, 0
    M = conditions_matrix(D, config)
    rank = rank_mod_p(M, config.prime)
    return M.shape[1] - rank, rank


def linear_system_dimension(
    D: DivisorClass,
    *,
    prime: int = 65537,
    seeds: Sequence[int] = (1, 2, 3),
    config: PointConfig | None = None,
) -> InterpolationResult:
    """h^0 (and h^1, speciality) of a fat-point system over F_p.

    With an explicit `config` the system is evaluated there once.
    Otherwise one configuration of uniformly random points is drawn per
    seed and h^0 is minimized over the seeds:
    ranks only drop at special configurations, so the minimum is the best
    available upper bound for -- and generically equals -- the value at
    very general points.
    """
    ctx = D.ctx
    if config is not None:
        h0, rank = h0_at_config(D, config)
        source = config.source
    else:
        if not seeds:
            raise ValueError("need at least one seed")
        h0 = rank = None
        for seed in seeds:
            cfg = sample_general(ctx.n, ctx.r, prime, seed)
            h0_s, rank_s = h0_at_config(D, cfg)
            if h0 is None or h0_s < h0:
                h0, rank = h0_s, rank_s
        source = "min-over-seeds"
    Dc = _clamped(D)
    v = vdim(Dc)
    e = max(v, -1)
    h1 = None
    if ctx.n == 2:
        K = canonical_class(ctx)
        if (K - D).d < 0:
            h1 = h0 - 1 - int(vdim_quadratic(D))
    p_used = config.prime if config is not None else prime
    return InterpolationResult(divisor=D, prime=p_used, h0=h0,
                               rank=rank, vdim=v, edim=e, h1=h1,
                               special=(h0 - 1 != e), source=source)


# -- scripted scenarios ---------------------------------------------------------

def torsion_parity_table(prime: int = 65537, curve_seeds: Sequence[int] = (1, 2),
                         n_max: int = 4) -> list[dict]:
    """h^1 of n*(10H - 3 sum E_i) at torsion configurations on plane cubics.

    For ten points on a smooth cubic chosen so that the class restricts to
    a nontrivial 2-torsion class on the curve, h^1 alternates: 0 for odd
    multiples, 1 for even ones.  One table row per (curve seed, n).
    """
    ctx = BlowupContext(2, 10)
    D = DivisorClass(ctx, 10, (3,) * 10)
    rows = []
    for seed in curve_seeds:
        config = sample_cubic_torsion(prime, seed)
        for n in range(1, n_max + 1):
            res = linear_system_dimension(n * D, config=config)
            rows.append({
                "curve_seed": seed,
                "curve": (config.meta["a"], config.meta["b"]),
                "n": n,
                "vdim": res.vdim,
                "h0": res.h0,
                "h1": res.h1,
                "special": res.special,
            })
    return rows


def p4_quadric_table(prime: int = 65537, seeds: Sequence[int] = (1, 2, 3),
                     m_max: int = 6) -> list[dict]:
    """Multiples of 2H - sum(E_i) through 14 general points of P^4.

    Reproduces the degree-2m interpolation counts: m = 1 gives a single
    quadric, m = 2 and 3 are special (the square and cube of that quadric
    survive although the virtual dimension is -1), and from m = 4 on the
    systems are non-special.
    """
    ctx = BlowupContext(4, 14)
    D = DivisorClass(ctx, 2, (1,) * 14)
    rows = []
    for m in range(1, m_max + 1):
        res = linear_system_dimension(m * D, prime=prime, seeds=seeds)
        rows.append({"m": m, **res.as_row()})
    return rows
