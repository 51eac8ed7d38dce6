"""Nef screening, orthogonal-complement genus bounds, and the speciality
classifier.

For a big nef class D on a blown-up plane the Hodge index theorem makes the
intersection form negative definite on the orthogonal complement of D, so
the arithmetic genus is a concave quadratic there.  The classifier rests on
the maximum genus of a *nonzero effective* class orthogonal to D:

  * no effective orthogonal class of genus >= 1  ->  all large multiples of
    D have vanishing h^1 (asymptotically non-special);
  * a certified effective orthogonal class of genus >= 2  ->  h^1 of large
    multiples is eventually positive (asymptotically special);
  * maximum exactly 1 -> either behavior can occur (the decision depends on
    geometry the lattice cannot see), reported as Indeterminate.

Effectivity at very general points is not decidable by a closed formula,
so every answer carries a certificate (Riemann-Roch, Weyl reduction,
exceptional sums, or a finite-field rank with its caveat) and honest
Unknown verdicts are possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .lattice import (
    BlowupContext,
    CurveClass,
    DivisorClass,
    QuadraticNumber,
    canonical_class,
    curve_e,
    curve_h,
    exceptional,
    hyperplane,
    line_through,
    pair,
    pair_div_curve,
    arithmetic_genus,
    primitive_integer_model,
    rr_certifies_effective,
    _require_surface,
)
from .linalg import (
    integer_kernel_of_row,
    ldl_decompose,
    quadratic_integer_range,
    rational_sqrt,
    solve_linear,
)
from .oracle import OracleBudget, linear_system_dimension
from .weyl import (
    ReductionStatus,
    minus_one_orbit_representatives,
    reduce_class,
)

# Effectivity queries skip the interpolation oracle for classes with more
# degree-d monomials (matrix columns) than this.
ORACLE_MAX_COLUMNS = 6000


class ScreeningError(RuntimeError):
    """A constructed class failed its nef screening."""


# -- nef tests ------------------------------------------------------------------

def is_nef_few_points(D: DivisorClass) -> bool:
    """Nef test on a blow-up of P^n at r < 2^n points.

    In that range the Mori cone is generated by the exceptional lines e_k
    and the lines h - e_i - e_j through two points, so nefness amounts to
    m_k >= 0 for all k and d >= m_i + m_j for all i < j.  For r < 2 those
    pair conditions are vacuous and the degenerate generators take over
    (d >= m_k and d >= 0).
    """
    ctx = D.ctx
    if ctx.r >= 2 ** ctx.n:
        raise ValueError(f"nef test requires r < 2^n (got r={ctx.r}, n={ctx.n})")
    if D.d < 0 or any(mk < 0 for mk in D.m):
        return False
    if ctx.r >= 2:
        top = sorted(D.m, reverse=True)
        if D.d < top[0] + top[1]:
            return False
    elif ctx.r == 1 and D.d < D.m[0]:
        return False
    return True


@dataclass(frozen=True)
class ConeMembership:
    """D as a nonnegative combination of nef-cone generators, or a separator.

    The generators are H, H - E_i and 2H - sum_{i in I} E_i over subsets I.
    When `inside`, `combination` lists (generator, coefficient) pairs that
    sum to D; otherwise `separator` is a curve class pairing nonnegatively
    with every generator but negatively with D (an exact Farkas witness).
    Both certificates are re-verified before being returned.
    """

    inside: bool
    combination: tuple[tuple[DivisorClass, Fraction], ...] | None
    separator: CurveClass | None


def _verify_membership(D: DivisorClass, combo) -> None:
    total = DivisorClass(D.ctx, 0, (0,) * D.ctx.r)
    for gen, coeff in combo:
        if coeff < 0:
            raise AssertionError("negative coefficient in cone combination")
        total = total + coeff * gen
    if total != D:
        raise AssertionError("cone combination does not reproduce the class")


def _verify_separator(D: DivisorClass, ell: CurveClass) -> None:
    if pair_div_curve(D, ell) >= 0:
        raise AssertionError("separator does not separate")
    if ell.delta < 0:
        raise AssertionError("separator pairs negatively with H")
    # against H - E_i: delta - mu_i >= 0
    if any(ell.delta - mu < 0 for mu in ell.mu):
        raise AssertionError("separator pairs negatively with some H - E_i")
    # against 2H - sum_I E_i: worst subset collects the positive mu_i
    worst = 2 * ell.delta - sum(mu for mu in ell.mu if mu > 0)
    if worst < 0:
        raise AssertionError("separator pairs negatively with a 2H - sum_I E_i")


def nef_cone_membership(D: DivisorClass) -> ConeMembership:
    """Exact membership of D in the cone spanned by H, H-E_i, 2H-sum_I E_i.

    Feasible answers come with an explicit staircase combination (layers of
    2H - sum_I E_i over the capped multiplicity profile); infeasible ones
    with a separating curve class.  Certificates are verified against the
    full generator family before returning, so the two outcomes are sound
    independently of how they were found.
    """
    ctx = D.ctx
    if ctx.r >= 2 ** ctx.n:
        raise ValueError(f"membership test requires r < 2^n (got r={ctx.r})")
    order = sorted(range(ctx.r), key=lambda i: (-D.m[i], i))
    m_sorted = [D.m[i] for i in order]

    for i in range(ctx.r):
        if D.m[i] < 0:
            sep = curve_e(ctx, i + 1)
            _verify_separator(D, sep)
            return ConeMembership(False, None, sep)

    if ctx.r >= 2 and D.d < m_sorted[0] + m_sorted[1]:
        sep = line_through(ctx, order[0] + 1, order[1] + 1)
        _verify_separator(D, sep)
        return ConeMembership(False, None, sep)
    if ctx.r == 1 and D.d < D.m[0]:
        # h - e_1 prices nonnegatively against every generator.
        sep = CurveClass(ctx, 1, (1,))
        _verify_separator(D, sep)
        return ConeMembership(False, None, sep)
    if D.d < 0:
        sep = curve_h(ctx)
        _verify_separator(D, sep)
        return ConeMembership(False, None, sep)

    combo: list[tuple[DivisorClass, Fraction]] = []
    if ctx.r == 0:
        combo.append((hyperplane(ctx), Fraction(D.d)))
    elif ctx.r == 1:
        if D.m[0] > 0:
            gen = DivisorClass(ctx, 1, (1,))
            combo.append((gen, Fraction(D.m[0])))
        if D.d - D.m[0] > 0:
            combo.append((hyperplane(ctx), Fraction(D.d - D.m[0])))
    else:
        cap = m_sorted[1]
        # Residual of the largest multiplicity goes through H - E_top.
        excess = m_sorted[0] - cap
        if excess > 0:
            m = [0] * ctx.r
            m[order[0]] = 1
            combo.append((DivisorClass(ctx, 1, m), Fraction(excess)))
        # Staircase layers on the capped profile: the level set above each
        # threshold is a subset I with generator 2H - sum_I E_i.
        loads = [cap] + m_sorted[1:]
        for j in range(1, ctx.r):
            weight = loads[j] - (loads[j + 1] if j + 1 < ctx.r else 0)
            if weight > 0:
                members = order[: j + 1]
                m = [0] * ctx.r
                for i in members:
                    m[i] = 1
                combo.append((DivisorClass(ctx, 2, m), Fraction(weight)))
        slack = D.d - m_sorted[0] - cap
        if slack > 0:
            combo.append((hyperplane(ctx), Fraction(slack)))
    combo = [(g, c) for g, c in combo if c != 0]
    _verify_membership(D, combo)
    return ConeMembership(True, tuple(combo), None)


@dataclass(frozen=True)
class NefScreenReport:
    """Outcome of the surface nef screening (an explicit semi-decision).

    `passed` means: D lies in the positive light cone and pairs
    nonnegatively with every class in the Weyl orbit of the exceptional
    classes up to the stated degree bound.  A failure always carries a
    witness class with negative pairing.
    """

    passed: bool
    degree_bound: int
    witness: DivisorClass | None = None
    reason: str = ""


def screen_nef_surface(D: DivisorClass, degree_bound: int) -> NefScreenReport:
    """Screen a surface class for nefness against the (-1)-orbit.

    The orbit of the exceptional class is infinite for r >= 10, so this is
    a semi-decision: NotNef answers are definitive (the witness is an
    actual curve class), while a pass only asserts nefness up to the
    degree bound.
    """
    ctx = D.ctx
    _require_surface(ctx)
    if D.d < 0:
        return NefScreenReport(False, degree_bound, hyperplane(ctx),
                               "negative degree against a general line")
    if pair(D, D) < 0:
        return NefScreenReport(False, degree_bound, D,
                               "negative self-intersection")
    for i, mi in enumerate(D.m):
        if mi < 0:
            return NefScreenReport(False, degree_bound, exceptional(ctx, i + 1),
                                   "negative multiplicity against an exceptional curve")
    if ctx.r:
        order = sorted(range(ctx.r), key=lambda i: (-D.m[i], i))
        m_desc = [D.m[i] for i in order]
        for d_rep, m_rep in minus_one_orbit_representatives(ctx, degree_bound):
            # Both multiplicity vectors descending: this dot product is the
            # rearrangement-maximal alignment, hence the minimal pairing of
            # D against the permutation orbit of the representative.
            val = D.d * d_rep - sum(a * b for a, b in zip(m_desc, m_rep))
            if val < 0:
                witness_m = [0] * ctx.r
                for pos, idx in enumerate(order):
                    witness_m[idx] = m_rep[pos]
                witness = DivisorClass(ctx, d_rep, witness_m)
                return NefScreenReport(False, degree_bound, witness,
                                       "negative pairing with a (-1)-orbit class")
    return NefScreenReport(True, degree_bound)


# -- the orthogonal complement ---------------------------------------------------

@dataclass(frozen=True)
class GramBasis:
    """Integer basis of D-perp, its Gram matrix G and one factorization of it.

    G = L diag(pivots) L^T with L unit lower triangular; for D^2 > 0 the
    Hodge index theorem forces the pivots all negative, which `pivots`
    certifies exactly.  The genus (x^2 + x.K)/2 + 1 is strictly concave on
    D-perp; `center` is its maximizer x*, the solution of G x = -k/2 with
    k_i = B_i.K, and `upper` is the maximum 1 + k.x*/4.
    """

    divisor: DivisorClass
    basis: tuple[DivisorClass, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[Fraction, ...]
    L: tuple[tuple[Fraction, ...], ...]
    center: tuple[Fraction, ...]
    upper: Fraction

    def genus_candidates(self, threshold: int) -> tuple[DivisorClass, ...]:
        """All nonzero integer classes in D-perp with genus >= threshold.

        The constraint is an ellipsoid around `center` (the form is negative
        definite on D-perp), enumerated by a recursive Fincke-Pohst walk
        over the exact LDL factors; per-coordinate integer bounds come from
        exact rational square roots, so no candidate is ever lost to
        rounding.  Output in canonical order.
        """
        radius2 = 2 * (self.upper - threshold)
        if radius2 < 0:
            return ()
        # -G is positive definite with the same L and negated pivots: walk
        # coordinates from the last.
        L, x_star = self.L, self.center
        pivots = [-p for p in self.pivots]
        rank = len(pivots)

        found: list[tuple] = []
        coords = [0] * rank

        def walk(level: int, used: Fraction) -> None:
            if level < 0:
                if any(coords):
                    found.append(tuple(coords))
                return
            shift = -x_star[level] + sum(
                L[j][level] * (coords[j] - x_star[j]) for j in range(level + 1, rank))
            budget = (radius2 - used) / pivots[level]
            for z in quadratic_integer_range(shift, budget):
                coords[level] = z
                w = z + shift
                walk(level - 1, used + pivots[level] * w * w)
            coords[level] = 0

        walk(rank - 1, Fraction(0))

        # Replay each coordinate vector as an integer class and check the
        # postconditions exactly; enumeration bugs would surface here.
        D = self.divisor
        d_vec, k_vec = _int_vector(D), _int_vector(canonical_class(D.ctx))
        vectors = [_int_vector(B) for B in self.basis]
        out = []
        for coords in found:
            x = [0] * len(d_vec)
            for z, vec in zip(coords, vectors):
                if z:
                    x = [a + z * b for a, b in zip(x, vec)]
            # 2 * genus = x^2 + x.K + 2
            if _dot(x, d_vec) != 0 or _dot(x, x) + _dot(x, k_vec) + 2 < 2 * threshold:
                raise AssertionError(f"walk produced a class outside the shell: {x}")
            out.append((x[0], tuple(x[1:])))
        out.sort()
        return tuple(DivisorClass(D.ctx, d, m) for d, m in out)


def _int_vector(D: DivisorClass) -> list[int]:
    """The integral class dH - sum m_i E_i as the vector (d, m_1..m_r)."""
    return [int(D.d)] + [int(mi) for mi in D.m]


def _dot(a: list[int], b: list[int]) -> int:
    """The intersection pairing on vectors (d, m_1..m_r) of a surface."""
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def orthogonal_gram(D: DivisorClass) -> GramBasis:
    """Saturated integer basis of D-perp plus its negative-definite Gram.

    The basis comes from unimodular column elimination on the single row
    expressing the pairing with D, so it spans the full integer kernel.
    """
    ctx = D.ctx
    _require_surface(ctx)
    if not D.is_integral:
        raise ValueError("expected an integral class")
    if pair(D, D) <= 0:
        raise ValueError("orthogonal Gram analysis requires D^2 > 0")
    # x = (delta, mu_1..mu_r) pairs with D as delta*d - sum mu_i m_i.
    row = [int(D.d)] + [-int(mi) for mi in D.m]
    kernel = integer_kernel_of_row(row)
    gram = [[_dot(a, b) for b in kernel] for a in kernel]
    L, pivots = ldl_decompose(gram)
    if any(p >= 0 for p in pivots):
        raise AssertionError("Hodge index violation: Gram of D-perp not negative definite")
    k_vec = _int_vector(canonical_class(ctx))
    k = [_dot(vec, k_vec) for vec in kernel]
    center = solve_linear(L, pivots, [-Fraction(ki, 2) for ki in k])
    upper = 1 + Fraction(1, 4) * sum(ki * xi for ki, xi in zip(k, center))
    basis = tuple(DivisorClass(ctx, vec[0], vec[1:]) for vec in kernel)
    return GramBasis(D, basis, tuple(tuple(map(Fraction, row)) for row in gram),
                     tuple(pivots), tuple(map(tuple, L)), tuple(center), upper)


def orthogonal_genus_upper(D: DivisorClass) -> Fraction:
    """Exact maximum of the genus function over the real span of D-perp.

    The genus (x^2 + x.K)/2 + 1 is strictly concave on D-perp, so its
    continuous maximum -- at the `center` of `orthogonal_gram` -- is a true
    upper bound for the genus of every class orthogonal to D.
    """
    return orthogonal_gram(D).upper


def orthogonal_genus_candidates(D: DivisorClass, threshold: int = 1
                                ) -> tuple[DivisorClass, ...]:
    """All nonzero integer classes orthogonal to D with genus >= threshold,
    in canonical order (see :meth:`GramBasis.genus_candidates`)."""
    return orthogonal_gram(D).genus_candidates(threshold)


# -- effectivity ------------------------------------------------------------------

class Effectivity(Enum):
    EFFECTIVE = "Effective"
    NOT_EFFECTIVE = "NotEffective"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class EffectivityReport:
    status: Effectivity
    route: str
    caveat: str | None = None
    h0: int | None = None


def _exceptional_sum_verdict(D: DivisorClass, route: str) -> EffectivityReport | None:
    """Decide degree-zero classes: effective iff a nonneg sum of E_i."""
    if D.d != 0:
        return None
    if all(mi <= 0 for mi in D.m):
        return EffectivityReport(Effectivity.EFFECTIVE, route + "exceptional sum")
    return EffectivityReport(Effectivity.NOT_EFFECTIVE,
                             route + "degree zero with a positive multiplicity")


def effectivity_verdict(D: DivisorClass,
                        budget: OracleBudget | None = OracleBudget()
                        ) -> EffectivityReport:
    """Three-valued effectivity of an integral surface class, with certificates.

    Decision cascade: degree sign, degree-zero classes, Weyl reduction
    (a reduction driving the degree negative certifies non-effectivity;
    stripping the negative pseudostandard tail leaves a standard part to
    which the Riemann-Roch certificate applies), then the finite-field
    oracle.  A vanishing h^0 at any sampled configuration certifies
    h^0 = 0 at very general points by semicontinuity; a positive h^0 at
    random or explicitly supplied points is recorded as effectivity with a
    position caveat.  Anything left over is Unknown.
    """
    ctx = D.ctx
    _require_surface(ctx)
    if not D.is_integral:
        raise ValueError("effectivity is about integral classes")
    if D.is_zero:
        return EffectivityReport(Effectivity.EFFECTIVE, "zero class")
    if D.d < 0:
        return EffectivityReport(Effectivity.NOT_EFFECTIVE,
                                 "negative degree against the nef class H")
    verdict = _exceptional_sum_verdict(D, "")
    if verdict is not None:
        return verdict

    reduced = D
    if ctx.r >= 3:
        report = reduce_class(D)
        if report.status is ReductionStatus.DEGREE_WENT_NEGATIVE:
            return EffectivityReport(
                Effectivity.NOT_EFFECTIVE,
                "Weyl reduction reaches negative degree (the group preserves effectivity)")
        reduced = report.result
        verdict = _exceptional_sum_verdict(reduced, "Weyl reduction + ")
        if verdict is not None:
            return verdict
    # Strip the negative pseudostandard tail: those are exceptional
    # components added to a standard class, and sums of effectives are
    # effective.
    stripped = DivisorClass(ctx, reduced.d,
                            [max(mi, Fraction(0)) for mi in reduced.m])
    if rr_certifies_effective(stripped):
        route = ("Riemann-Roch" if stripped == D
                 else "Weyl reduction + exceptional tail + Riemann-Roch")
        return EffectivityReport(Effectivity.EFFECTIVE, route)

    if budget is not None:
        config = budget.config
        # The oracle works over the supplied configuration's field when
        # there is one, so that prime is the one that must exceed the degree.
        prime = budget.prime if config is None else config.prime
        cols = math.comb(int(D.d) + ctx.n, ctx.n)
        if cols <= ORACLE_MAX_COLUMNS and prime > int(D.d):
            res = linear_system_dimension(D, prime=prime, seeds=budget.seeds,
                                          config=config)
            where = ("sampled points" if config is None
                     else "the supplied configuration")
            if res.h0 == 0:
                return EffectivityReport(
                    Effectivity.NOT_EFFECTIVE,
                    f"interpolation oracle: h0 = 0 at {where} "
                    "(semicontinuity pushes vanishing to very general points)",
                    h0=0)
            if config is not None:
                return EffectivityReport(
                    Effectivity.EFFECTIVE,
                    "interpolation oracle at the supplied configuration",
                    caveat="position-dependent: certifies effectivity at the "
                           "supplied points only", h0=res.h0)
            return EffectivityReport(
                Effectivity.EFFECTIVE,
                "interpolation oracle at random configurations",
                caveat="h0 > 0 observed at sampled points; for very general "
                       "points this is evidence, not a proof", h0=res.h0)
    return EffectivityReport(Effectivity.UNKNOWN, "no certificate within budget")


# -- the classifier ----------------------------------------------------------------

class OrthogonalGenusVerdict(Enum):
    ZERO = "Zero"
    ONE = "One"
    AT_LEAST_TWO = "AtLeastTwo"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class OrthogonalGenusReport:
    """Certified bounds for the maximal genus of effective classes in D-perp.

    `lower` is the best certified value (0 when no effective candidate was
    found), achieved by the `witnesses`; `upper` is the concave relaxation
    bound over the real span; `undecided` lists candidates whose
    effectivity the budget could not settle.
    """

    lower: int
    witnesses: tuple[DivisorClass, ...]
    upper: Fraction
    verdict: OrthogonalGenusVerdict
    undecided: tuple[DivisorClass, ...] = ()
    witness_reports: tuple[EffectivityReport, ...] = ()


class SpecialityTag(Enum):
    ASYMPTOTICALLY_NON_SPECIAL = "AsymptoticallyNonSpecial"
    ASYMPTOTICALLY_SPECIAL = "AsymptoticallySpecial"
    INDETERMINATE = "Indeterminate"
    UNKNOWN = "Unknown"


_TAG_FOR_VERDICT = {
    OrthogonalGenusVerdict.ZERO: SpecialityTag.ASYMPTOTICALLY_NON_SPECIAL,
    OrthogonalGenusVerdict.AT_LEAST_TWO: SpecialityTag.ASYMPTOTICALLY_SPECIAL,
    OrthogonalGenusVerdict.ONE: SpecialityTag.INDETERMINATE,
    OrthogonalGenusVerdict.UNKNOWN: SpecialityTag.UNKNOWN,
}


@dataclass(frozen=True)
class SpecialityVerdict:
    tag: SpecialityTag
    evidence: OrthogonalGenusReport
    degree_bound: int


def classify_asymptotic(D: DivisorClass, *, degree_bound: int = 10,
                        budget: OracleBudget | None = OracleBudget(),
                        genus_threshold: int = 1) -> SpecialityVerdict:
    """Classify the asymptotic speciality of a big, screened-nef class.

    Walks the orthogonal classes of genus >= `genus_threshold` (normally 1)
    from the highest genus down, settles their effectivity with
    certificates, and maps the certified maximal genus to the verdict: 0 ->
    asymptotically non-special, >= 2 -> asymptotically special, exactly 1 ->
    Indeterminate (both behaviors occur; deciding between them needs
    geometric data beyond the lattice).  If an undecided candidate could
    change the answer the verdict is Unknown -- in particular
    AsymptoticallyNonSpecial is never returned while any candidate is
    undecided.

    The first certified effective class of genus >= 2 settles the answer,
    so the shell of genus >= max(2, threshold) is enumerated first and the
    lower shell only when nothing in it was certified effective.  Both
    shells are judged in (-genus, d, m) order, the order of one walk over
    everything, so the verdict is the same as that walk's.
    """
    screen = screen_nef_surface(D, degree_bound)
    if not screen.passed:
        raise ValueError(f"class failed nef screening: {screen.reason} "
                         f"(witness {screen.witness})")
    if pair(D, D) <= 0:
        raise ValueError("classification requires a big class (D^2 > 0)")
    gb = orthogonal_gram(D)
    top = max(2, genus_threshold)

    def by_genus(shell):
        # Canonical (d, m) order within each genus: the sort is stable.
        return sorted(((int(arithmetic_genus(c)), c) for c in shell),
                      key=lambda gc: -gc[0])

    def ordered():
        yield from by_genus(gb.genus_candidates(top))
        if genus_threshold < top:
            # Reached only past the upper shell, which the lower walk finds
            # again; it has been judged already.
            yield from ((g, c) for g, c in by_genus(gb.genus_candidates(genus_threshold))
                        if g < top)

    effective: list[tuple[int, DivisorClass, EffectivityReport]] = []
    undecided: list[tuple[int, DivisorClass]] = []
    for genus, cand in ordered():
        rep = effectivity_verdict(cand, budget)
        if rep.status is Effectivity.EFFECTIVE:
            effective.append((genus, cand, rep))
            if genus >= 2:
                # A certified effective class of genus >= 2 settles the
                # question; remaining candidates cannot lower the verdict.
                break
        elif rep.status is Effectivity.UNKNOWN:
            undecided.append((genus, cand))

    eff_max = max((g for g, _, _ in effective), default=None)
    unk_max = max((g for g, _ in undecided), default=None)

    if eff_max is not None and eff_max >= 2:
        verdict = OrthogonalGenusVerdict.AT_LEAST_TWO
    elif unk_max is not None and unk_max >= 2:
        verdict = OrthogonalGenusVerdict.UNKNOWN
    elif eff_max == 1:
        # Every candidate has genus <= 1 here, so the certified value 1 is
        # already the exact maximum whatever the undecided ones turn out to be.
        verdict = OrthogonalGenusVerdict.ONE
    elif unk_max is not None:
        verdict = OrthogonalGenusVerdict.UNKNOWN
    else:
        verdict = OrthogonalGenusVerdict.ZERO

    witnesses = tuple(c for g, c, _ in effective if g == eff_max) if eff_max else ()
    reports = tuple(r for g, _, r in effective if g == eff_max) if eff_max else ()
    report = OrthogonalGenusReport(
        lower=eff_max or 0,
        witnesses=witnesses,
        upper=gb.upper,
        verdict=verdict,
        undecided=tuple(c for _, c in undecided),
        witness_reports=reports,
    )
    return SpecialityVerdict(_TAG_FOR_VERDICT[verdict], report, degree_bound)


def speciality_witness(C: DivisorClass, *, degree_bound: int = 10) -> DivisorClass:
    """A big, screened-nef integer class orthogonal to a negative class C.

    Orthogonal projection of the ample reference (r+1)H - sum(E_i) onto
    C-perp, cleared to a primitive integer class.  Because C^2 < 0 the
    projection keeps positive self-intersection; if the result fails the
    nef screen a ScreeningError is raised rather than silently accepted.
    Downstream, a certified effective C with genus >= 2 makes the returned
    class asymptotically special.
    """
    ctx = C.ctx
    _require_surface(ctx)
    c2 = pair(C, C)
    if c2 >= 0:
        raise ValueError("witness construction needs C^2 < 0")
    if arithmetic_genus(C) <= 1:
        raise ValueError("witness construction needs arithmetic genus > 1")
    reference = DivisorClass(ctx, ctx.r + 1, (1,) * ctx.r)
    projected = reference - (pair(reference, C) / c2) * C
    witness = primitive_integer_model(projected)
    if witness.d < 0:
        witness = -witness
    if pair(witness, C) != 0:
        raise AssertionError("projected class is not orthogonal to C")
    if pair(witness, witness) <= 0:
        raise AssertionError("projected class is not big")
    screen = screen_nef_surface(witness, degree_bound)
    if not screen.passed:
        raise ScreeningError(
            f"projected class {witness} failed nef screening: {screen.reason} "
            f"(witness {screen.witness})")
    return witness


# -- the quadratic null family -------------------------------------------------

@dataclass(frozen=True)
class QuadraticFamilyReport:
    """A degree-preserving null extension of an 8-point class to 10 points.

    From B on the 8-point lattice with 2B^2 - (B.K)^2 > 0, the two extra
    multiplicities a +- sqrt(b) (a = -B.K/2, b = (2B^2 - (B.K)^2)/4) make
    D = B - (a+sqrt(b)) E_9 - (a-sqrt(b)) E_10 satisfy D^2 = D.K = 0
    exactly in Q(sqrt(b)).  When b is a perfect square the family
    degenerates to an honest integer class, reported as `integer_class`.
    """

    base: DivisorClass
    shift: Fraction
    radicand: Fraction
    coefficient_plus: QuadraticNumber
    coefficient_minus: QuadraticNumber
    self_intersection: QuadraticNumber
    canonical_pairing: QuadraticNumber
    integer_class: DivisorClass | None


def null_class_extension(B: DivisorClass) -> QuadraticFamilyReport:
    """Extend an 8-point class to a null class on 10 points over Q(sqrt(b))."""
    ctx = B.ctx
    _require_surface(ctx)
    if ctx.r != 8:
        raise ValueError("the base class must live on the 8-point lattice")
    K8 = canonical_class(ctx)
    bk = pair(B, K8)
    shift = -bk / 2
    radicand = (2 * pair(B, B) - bk * bk) / 4
    if radicand <= 0:
        raise ValueError("need 2 B^2 - (B.K)^2 > 0")
    plus = QuadraticNumber(shift, 1, radicand)
    minus = QuadraticNumber(shift, -1, radicand)
    # D = B - plus*E_9 - minus*E_10 on the 10-point lattice.
    self_int = (QuadraticNumber.of(pair(B, B), radicand)
                - plus * plus - minus * minus)
    # K_10 pairs with E_9, E_10 as -1 each, so D.K_10 = B.K_8 + plus + minus.
    canon = QuadraticNumber.of(bk, radicand) + plus + minus
    if not (self_int.rational == 0 and self_int.coefficient == 0):
        raise AssertionError("self-intersection failed to vanish")
    if not (canon.rational == 0 and canon.coefficient == 0):
        raise AssertionError("canonical pairing failed to vanish")
    integer_class = None
    root = rational_sqrt(radicand)
    if root is not None:
        ctx10 = BlowupContext(2, 10)
        integer_class = DivisorClass(
            ctx10, B.d, tuple(B.m) + (shift + root, shift - root))
    return QuadraticFamilyReport(
        base=B, shift=shift, radicand=radicand,
        coefficient_plus=plus, coefficient_minus=minus,
        self_intersection=self_int, canonical_pairing=canon,
        integer_class=integer_class)
