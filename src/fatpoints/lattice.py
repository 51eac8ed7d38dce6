"""Divisor and curve classes on blow-ups of projective space.

The Picard group of the blow-up X of P^n at r points in very general
position is freely generated by the pullback H of a hyperplane and the
exceptional classes E_1, ..., E_r.  A divisor class is written

    D = d*H - m_1*E_1 - ... - m_r*E_r.

On surfaces (n = 2) the intersection pairing is diagonal with H^2 = 1 and
E_i^2 = -1, the canonical class is -3H + sum(E_i), and the standard
invariants (arithmetic genus, virtual and expected dimension, positive
light cone) are polynomial expressions in the coefficients.

Every coefficient is an exact `fractions.Fraction`; no invariant in this
module is ever computed in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import clear_denominators

Rational = int | Fraction


def _frac(x: Rational | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class BlowupContext:
    """The blow-up of P^n at r points in very general position.

    Only the pair (n, r) matters: it fixes the Picard lattice, its
    intersection pairing, and the canonical class.
    """

    n: int
    r: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("ambient dimension n must be an integer >= 2")
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError("number of points r must be an integer >= 0")

    @property
    def is_surface(self) -> bool:
        return self.n == 2

    def __str__(self) -> str:
        return f"Bl_{self.r} P^{self.n}"


def _require_same_context(a, b) -> None:
    if a.ctx != b.ctx:
        raise ValueError(f"context mismatch: {a.ctx} vs {b.ctx}")


def _require_surface(ctx: BlowupContext) -> None:
    if ctx.n != 2:
        raise ValueError("this operation is defined on surfaces (n = 2) only")


@dataclass(frozen=True)
class DivisorClass:
    """The class d*H - sum(m_i * E_i) in Pic of a blow-up of P^n."""

    ctx: BlowupContext
    d: Fraction
    m: tuple[Fraction, ...]

    def __init__(self, ctx: BlowupContext, d: Rational, m: Iterable[Rational] = ()):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "d", _frac(d))
        mm = tuple(_frac(x) for x in m)
        if len(mm) != ctx.r:
            raise ValueError(f"expected {ctx.r} multiplicities, got {len(mm)}")
        object.__setattr__(self, "m", mm)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _require_same_context(self, other)
        return DivisorClass(self.ctx, self.d + other.d,
                            tuple(a + b for a, b in zip(self.m, other.m)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _require_same_context(self, other)
        return DivisorClass(self.ctx, self.d - other.d,
                            tuple(a - b for a, b in zip(self.m, other.m)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.ctx, -self.d, tuple(-a for a in self.m))

    def __rmul__(self, scalar: Rational) -> "DivisorClass":
        s = _frac(scalar)
        return DivisorClass(self.ctx, s * self.d, tuple(s * a for a in self.m))

    __mul__ = __rmul__

    # -- queries ---------------------------------------------------------

    @property
    def is_integral(self) -> bool:
        return self.d.denominator == 1 and all(x.denominator == 1 for x in self.m)

    @property
    def is_zero(self) -> bool:
        return self.d == 0 and all(x == 0 for x in self.m)

    def text(self) -> str:
        """Canonical human-readable form ``dH - m1 E1 - ... - mr Er``."""
        return _class_text(self.d, self.m, "H", "E")

    __str__ = text


@dataclass(frozen=True)
class CurveClass:
    """The 1-cycle class delta*h - sum(mu_i * e_i) in the dual basis.

    Here h, e_1, ..., e_r pair with H, E_1, ..., E_r as dual bases:
    h.H = 1, e_i.E_i = -1 is *not* used -- the pairing of a divisor with a
    curve class is d*delta - sum(m_i * mu_i).  On a surface the two bases
    are identified coefficient-for-coefficient.
    """

    ctx: BlowupContext
    delta: Fraction
    mu: tuple[Fraction, ...]

    def __init__(self, ctx: BlowupContext, delta: Rational, mu: Iterable[Rational] = ()):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "delta", _frac(delta))
        mm = tuple(_frac(x) for x in mu)
        if len(mm) != ctx.r:
            raise ValueError(f"expected {ctx.r} coefficients, got {len(mm)}")
        object.__setattr__(self, "mu", mm)

    def text(self) -> str:
        """Canonical human-readable form ``delta h - mu1 e1 - ... - mur er``."""
        return _class_text(self.delta, self.mu, "h", "e")

    __str__ = text


def _class_text(lead: Fraction, coeffs: Sequence[Fraction], h: str, e: str) -> str:
    """``lead h - c1 e1 - ...``, with ``+ |ci|`` for negative coefficients."""
    parts = [f"{format_rational(lead)}{h}"]
    for i, c in enumerate(coeffs, start=1):
        sign, size = ("-", c) if c >= 0 else ("+", -c)
        parts.append(f"{sign} {format_rational(size)} {e}{i}")
    return " ".join(parts)


# -- constructors ---------------------------------------------------------

def hyperplane(ctx: BlowupContext) -> DivisorClass:
    """The hyperplane pullback H."""
    return DivisorClass(ctx, 1, (0,) * ctx.r)


def exceptional(ctx: BlowupContext, i: int) -> DivisorClass:
    """The i-th exceptional class E_i (1-based)."""
    if not 1 <= i <= ctx.r:
        raise ValueError(f"index {i} out of range 1..{ctx.r}")
    m = [0] * ctx.r
    m[i - 1] = -1
    return DivisorClass(ctx, 0, m)


def canonical_class(ctx: BlowupContext) -> DivisorClass:
    """The canonical class K of the blow-up.

    For a surface this is -3H + sum(E_i).  For n > 2 the standard blow-up
    formula -(n+1)H + (n-1) sum(E_i) is supplied as a convention; no
    higher-dimensional invariant in this package depends on it.
    """
    if ctx.n == 2:
        return DivisorClass(ctx, -3, (-1,) * ctx.r)
    return DivisorClass(ctx, -(ctx.n + 1), (-(ctx.n - 1),) * ctx.r)


def minus_k(ctx: BlowupContext, s: int | None = None) -> DivisorClass:
    """The class 3H - E_1 - ... - E_s on a surface context (default s = r)."""
    _require_surface(ctx)
    s = ctx.r if s is None else s
    if not 0 <= s <= ctx.r:
        raise ValueError(f"s must lie in 0..{ctx.r}")
    return DivisorClass(ctx, 3, (1,) * s + (0,) * (ctx.r - s))


def curve_h(ctx: BlowupContext) -> CurveClass:
    """The class h of a general line."""
    return CurveClass(ctx, 1, (0,) * ctx.r)


def curve_e(ctx: BlowupContext, k: int) -> CurveClass:
    """The class e_k of a line inside the k-th exceptional divisor (1-based)."""
    if not 1 <= k <= ctx.r:
        raise ValueError(f"index {k} out of range 1..{ctx.r}")
    mu = [0] * ctx.r
    mu[k - 1] = -1
    return CurveClass(ctx, 0, mu)


def line_through(ctx: BlowupContext, i: int, j: int) -> CurveClass:
    """The class h - e_i - e_j of a line through the i-th and j-th points."""
    if i == j:
        raise ValueError("need two distinct points")
    mu = [0] * ctx.r
    for k in (i, j):
        if not 1 <= k <= ctx.r:
            raise ValueError(f"index {k} out of range 1..{ctx.r}")
        mu[k - 1] = 1
    return CurveClass(ctx, 1, mu)


def divisor_to_curve(D: DivisorClass) -> CurveClass:
    """On a surface, the curve class with the same coefficients."""
    _require_surface(D.ctx)
    return CurveClass(D.ctx, D.d, D.m)


def curve_to_divisor(C: CurveClass) -> DivisorClass:
    """On a surface, the divisor class with the same coefficients."""
    _require_surface(C.ctx)
    return DivisorClass(C.ctx, C.delta, C.mu)


# -- pairings -------------------------------------------------------------

def pair(D1: DivisorClass, D2: DivisorClass) -> Fraction:
    """Intersection number of two divisor classes on a surface."""
    _require_same_context(D1, D2)
    _require_surface(D1.ctx)
    return D1.d * D2.d - sum(a * b for a, b in zip(D1.m, D2.m))


def pair_div_curve(D: DivisorClass, C: CurveClass) -> Fraction:
    """Pairing of a divisor class with a curve class, in any dimension."""
    _require_same_context(D, C)
    return D.d * C.delta - sum(a * b for a, b in zip(D.m, C.mu))


def gram_matrix(classes: Sequence[DivisorClass]) -> list[list[Fraction]]:
    """Pairwise intersection matrix of surface divisor classes."""
    return [[pair(a, b) for b in classes] for a in classes]


# -- numerical invariants ---------------------------------------------------

def arithmetic_genus(D: DivisorClass) -> Fraction:
    """The arithmetic genus (D^2 + D.K)/2 + 1 of a surface class."""
    _require_surface(D.ctx)
    K = canonical_class(D.ctx)
    return (pair(D, D) + pair(D, K)) / 2 + 1


def _binom(a: int, k: int) -> int:
    # The count-of-monomials convention: zero whenever a < k (in particular
    # for all negative a).
    return math.comb(a, k) if a >= k else 0


def vdim(D: DivisorClass) -> int:
    """Virtual dimension binom(d+n, n) - sum binom(m_i+n-1, n) - 1.

    Defined for integral classes with nonnegative multiplicities; each
    point of multiplicity m imposes binom(m+n-1, n) linear conditions on
    forms of degree d.
    """
    if not D.is_integral:
        raise ValueError("virtual dimension requires an integral class")
    if any(mi < 0 for mi in D.m):
        raise ValueError("virtual dimension requires nonnegative multiplicities")
    n = D.ctx.n
    d = int(D.d)
    return _binom(d + n, n) - sum(_binom(int(mi) + n - 1, n) for mi in D.m) - 1


def vdim_quadratic(D: DivisorClass) -> Fraction:
    """Surface virtual dimension (D^2 - D.K)/2, valid for any rational class."""
    _require_surface(D.ctx)
    K = canonical_class(D.ctx)
    return (pair(D, D) - pair(D, K)) / 2


def edim(D: DivisorClass) -> int:
    """Expected dimension max(vdim, -1)."""
    return max(vdim(D), -1)


def in_positive_cone(D: DivisorClass) -> bool:
    """Whether D lies in the positive light cone: D^2 >= 0 and D.H >= 0."""
    _require_surface(D.ctx)
    return pair(D, D) >= 0 and D.d >= 0


def rr_certifies_effective(D: DivisorClass) -> bool:
    """Riemann-Roch effectivity certificate on a surface.

    If (K - D).H < 0 then h^2 = h^0(K - D) vanishes, so
    h^0(D) >= chi(O(D)) = vdim(D) + 1; the class is then effective as soon
    as the virtual dimension is nonnegative.
    """
    _require_surface(D.ctx)
    if not D.is_integral:
        raise ValueError("effectivity certificate requires an integral class")
    K = canonical_class(D.ctx)
    return vdim_quadratic(D) >= 0 and (K - D).d < 0


def primitive_integer_model(D: DivisorClass) -> DivisorClass:
    """Scale a nonzero class by a positive rational to primitive integer form."""
    d, *m = clear_denominators((D.d, *D.m))
    return DivisorClass(D.ctx, d, m)


# -- quadratic field elements ----------------------------------------------

@dataclass(frozen=True)
class QuadraticNumber:
    """An element u + v*sqrt(w) of a real quadratic extension of Q.

    Arithmetic (addition, multiplication, conjugation) is exact.  Two
    values may be combined only when they share the same radicand w > 0.
    When w happens to be a perfect square the representation is no longer
    unique; the operations here never rely on uniqueness.
    """

    rational: Fraction
    coefficient: Fraction
    radicand: Fraction

    def __init__(self, rational: Rational, coefficient: Rational, radicand: Rational):
        w = _frac(radicand)
        if w <= 0:
            raise ValueError("radicand must be positive")
        object.__setattr__(self, "rational", _frac(rational))
        object.__setattr__(self, "coefficient", _frac(coefficient))
        object.__setattr__(self, "radicand", w)

    @classmethod
    def of(cls, x: Rational, radicand: Rational) -> "QuadraticNumber":
        return cls(x, 0, radicand)

    def _coerce(self, other) -> "QuadraticNumber":
        if isinstance(other, QuadraticNumber):
            if other.radicand != self.radicand:
                raise ValueError("mixed radicands")
            return other
        return QuadraticNumber.of(_frac(other), self.radicand)

    def __add__(self, other) -> "QuadraticNumber":
        o = self._coerce(other)
        return QuadraticNumber(self.rational + o.rational,
                               self.coefficient + o.coefficient, self.radicand)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticNumber":
        return QuadraticNumber(-self.rational, -self.coefficient, self.radicand)

    def __sub__(self, other) -> "QuadraticNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QuadraticNumber":
        return self._coerce(other) - self

    def __mul__(self, other) -> "QuadraticNumber":
        o = self._coerce(other)
        return QuadraticNumber(
            self.rational * o.rational + self.coefficient * o.coefficient * self.radicand,
            self.rational * o.coefficient + self.coefficient * o.rational,
            self.radicand)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.rational, -self.coefficient, self.radicand)

    @property
    def is_rational(self) -> bool:
        return self.coefficient == 0

    def __str__(self) -> str:
        return (f"{format_rational(self.rational)} + "
                f"{format_rational(self.coefficient)}*sqrt({format_rational(self.radicand)})")


# -- serialization ----------------------------------------------------------

def format_rational(x: Fraction) -> int | str:
    """Render a Fraction as an int, or as a normalized "p/q" string."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(x) -> Fraction:
    """Inverse of :func:`format_rational`; accepts ints and "p/q" strings."""
    if isinstance(x, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"cannot parse rational from {x!r}")


def class_to_json(D: DivisorClass) -> dict:
    """JSON object {"n":, "r":, "d":, "m": [...]} for a divisor class."""
    return {
        "n": D.ctx.n,
        "r": D.ctx.r,
        "d": format_rational(D.d),
        "m": [format_rational(x) for x in D.m],
    }


def class_from_json(obj: dict) -> DivisorClass:
    """Parse the JSON divisor-class format back into a :class:`DivisorClass`."""
    try:
        ctx = BlowupContext(int(obj["n"]), int(obj["r"]))
        d = parse_rational(obj["d"])
        m = [parse_rational(x) for x in obj["m"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed divisor-class JSON: {exc}") from exc
    return DivisorClass(ctx, d, m)
