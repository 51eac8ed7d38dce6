"""Short Weierstrass curves over prime fields.

Just enough elliptic-curve machinery for constrained point sampling on a
plane cubic: the affine group law, scalar multiplication, and an exact
O(p) point count via a vectorized Legendre-symbol sum (kept honest by the
Hasse bound).  Points are (x, y) pairs of ints; the point at infinity is
None and also serves as the group identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Point = tuple[int, int] | None


def legendre_symbols(values: np.ndarray, p: int) -> np.ndarray:
    """Vectorized v^((p-1)/2) mod p mapped to {-1, 0, +1}."""
    result = np.ones_like(values)
    base = values % p
    e = (p - 1) // 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    out = np.where(result == p - 1, -1, result)
    return out.astype(np.int64)


@dataclass(frozen=True)
class CubicCurve:
    """y^2 = x^3 + a x + b over F_p (p an odd prime, curve smooth)."""

    a: int
    b: int
    p: int

    def __post_init__(self) -> None:
        if self.p < 5:
            raise ValueError("need an odd prime p >= 5")
        disc = (-16 * (4 * pow(self.a, 3, self.p) + 27 * pow(self.b, 2, self.p))) % self.p
        if disc == 0:
            raise ValueError("singular curve (discriminant vanishes)")

    def contains(self, P: Point) -> bool:
        if P is None:
            return True
        x, y = P
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def negate(self, P: Point) -> Point:
        if P is None:
            return None
        x, y = P
        return (x, (-y) % self.p)

    def add(self, P: Point, Q: Point) -> Point:
        p = self.p
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            slope = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        y3 = (slope * (x1 - x3) - y1) % p
        return (x3, y3)

    def multiply(self, k: int, P: Point) -> Point:
        if k < 0:
            return self.multiply(-k, self.negate(P))
        R: Point = None
        Q = P
        while k:
            if k & 1:
                R = self.add(R, Q)
            Q = self.add(Q, Q)
            k >>= 1
        return R

    def sum_points(self, points) -> Point:
        total: Point = None
        for P in points:
            total = self.add(total, P)
        return total

    def point_count(self) -> int:
        """|E(F_p)| = p + 1 + sum_x chi(x^3 + ax + b), checked against Hasse."""
        xs = np.arange(self.p, dtype=np.int64)
        t = (xs * xs % self.p * xs + self.a * xs + self.b) % self.p
        n = self.p + 1 + int(legendre_symbols(t, self.p).sum())
        if (n - self.p - 1) ** 2 > 4 * self.p:
            raise ArithmeticError("point count violates the Hasse bound")
        return n

    def y_coordinates(self, x: int) -> list[int]:
        """All y with (x, y) on the curve: Euler's criterion, then Tonelli-Shanks."""
        p = self.p
        t = (x * x % p * x + self.a * x + self.b) % p
        if t == 0:
            return [0]
        if pow(t, (p - 1) // 2, p) != 1:
            return []
        q, m = p - 1, 0
        while q % 2 == 0:
            q, m = q // 2, m + 1
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        # Invariants: root^2 = t * u and c has order 2^m.
        c, u, root = pow(z, q, p), pow(t, q, p), pow(t, (q + 1) // 2, p)
        while u != 1:
            i, u2 = 1, u * u % p
            while u2 != 1:
                i, u2 = i + 1, u2 * u2 % p
            b = pow(c, 1 << (m - i - 1), p)
            m, c, u, root = i, b * b % p, u * b * b % p, root * b % p
        return sorted({root, p - root})
