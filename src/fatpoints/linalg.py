"""Exact rational and integer linear algebra helpers.

Small dense problems only (the lattice rank here is r+1 <= ~20), solved
exactly: integers where the data are integral (the fraction-free Bareiss
LDL, the unimodular kernel of one row, integer square roots) and
`fractions.Fraction` elsewhere.  No floating point anywhere, so there is
no rounding to account for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


class LinearAlgebraError(ArithmeticError):
    pass


def ldl_decompose(G: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[Fraction]]:
    """Factor a symmetric rational matrix as G = L diag(pivots) L^T.

    L is unit lower triangular and no row/column pivoting is performed, so
    the pivots are the ratios of leading principal minors.  A zero pivot
    before completion (possible only for non-definite G) raises
    :class:`LinearAlgebraError`.

    The elimination is Bareiss's fraction-free one on the integer matrix
    A = lam*G, lam the lcm of the entry denominators: each step divides
    exactly by the previous pivot, so every intermediate is an integer and
    the k-th pivot entry is the leading principal minor Delta_k of A.  Then
    pivot_k = Delta_k / (Delta_{k-1} lam) and L_ik = A_ik / Delta_k, with
    A_ik the entry after k steps.
    """
    n = len(G)
    lower = [[Fraction(G[i][j]) for j in range(i + 1)] for i in range(n)]
    lam = math.lcm(*(x.denominator for row in lower for x in row))
    # Working copy of the lower triangle of lam*G.
    work = [[x.numerator * (lam // x.denominator) for x in row] for row in lower]
    L: Matrix = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    pivots: list[Fraction] = []
    prev = 1
    for k in range(n):
        piv = work[k][k]
        if piv == 0:
            raise LinearAlgebraError("zero pivot in LDL (matrix is not definite)")
        pivots.append(Fraction(piv, prev * lam))
        for i in range(k + 1, n):
            row, a_ik = work[i], work[i][k]
            L[i][k] = Fraction(a_ik, piv)
            for j in range(k + 1, i + 1):
                row[j] = (piv * row[j] - a_ik * work[j][k]) // prev
        prev = piv
    return L, pivots


def solve_linear(L: Sequence[Sequence[Fraction]], pivots: Sequence[Fraction],
                 b: Sequence[Fraction]) -> list[Fraction]:
    """Solve L diag(pivots) L^T x = b from the factors of :func:`ldl_decompose`.

    Forward substitution through the unit lower triangular L, one division
    by each pivot, then back substitution through L^T.
    """
    n = len(pivots)
    y: list[Fraction] = []
    for i in range(n):
        y.append(Fraction(b[i]) - sum(L[i][j] * y[j] for j in range(i)))
    x = [yi / p for yi, p in zip(y, pivots)]
    for i in reversed(range(n)):
        x[i] -= sum(L[j][i] * x[j] for j in range(i + 1, n))
    return x


def integer_kernel_of_row(coeffs: Sequence[int]) -> list[list[int]]:
    """Basis of the saturated integer kernel of one linear functional.

    Runs unimodular column operations (the Euclidean algorithm across the
    row) on an identity matrix; the columns not carrying the final gcd form
    a basis of {x in Z^n : sum coeffs[i] x[i] = 0}.
    """
    n = len(coeffs)
    v = [int(c) for c in coeffs]
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    if all(c == 0 for c in v):
        return cols
    while True:
        nonzero = [j for j in range(n) if v[j] != 0]
        if len(nonzero) == 1:
            k = nonzero[0]
            return [cols[j] for j in range(n) if j != k]
        piv = min(nonzero, key=lambda j: abs(v[j]))
        for j in nonzero:
            if j == piv:
                continue
            q = v[j] // v[piv]
            if q:
                v[j] -= q * v[piv]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[piv])]


def clear_denominators(values: Sequence[Fraction]) -> list[int]:
    """The primitive positive integer multiple of a rational vector (0 stays 0)."""
    lcm = math.lcm(*(v.denominator for v in values))
    ints = [int(v * lcm) for v in values]
    g = math.gcd(*ints) or 1
    return [v // g for v in ints]


def floor_sqrt(x: Fraction) -> int:
    """Largest integer s with s^2 <= x, for rational x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    return math.isqrt(x.numerator // x.denominator)


def quadratic_integer_range(c: Fraction, rho: Fraction) -> range:
    """All integers z with (z + c)^2 <= rho, as a range (empty if rho < 0).

    Endpoints are found from floor_sqrt plus a single exact adjustment, so
    the bounds are provably tight without any floating point.
    """
    if rho < 0:
        return range(0)
    s = floor_sqrt(rho)

    def valid(z: int) -> bool:
        t = z + c
        return t * t <= rho

    upper = math.floor(s - c)
    if valid(upper + 1):
        upper += 1
    lower = math.ceil(-s - c)
    if valid(lower - 1):
        lower -= 1
    return range(lower, upper + 1)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None
