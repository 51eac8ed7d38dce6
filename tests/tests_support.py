"""Shared generators for the property and acceptance suites."""

import random
from fractions import Fraction

from fatpoints import (
    BlowupContext,
    DivisorClass,
    Effectivity,
    OracleBudget,
    OrthogonalGenusReport,
    OrthogonalGenusVerdict,
    SpecialityTag,
    SpecialityVerdict,
    arithmetic_genus,
    effectivity_verdict,
    exceptional,
    fundamental_roots,
    orthogonal_gram,
    pair,
    reflect,
    screen_nef_surface,
)
from fatpoints.linalg import LinearAlgebraError, ldl_decompose


def reference_ldl(G):
    """Textbook LDL^T over Fraction: the Schur complement, one step per pivot."""
    n = len(G)
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    pivots = []
    work = [[Fraction(G[i][j]) for j in range(i + 1)] for i in range(n)]
    for k in range(n):
        piv = work[k][k]
        if piv == 0:
            raise LinearAlgebraError("zero pivot")
        pivots.append(piv)
        for i in range(k + 1, n):
            L[i][k] = work[i][k] / piv
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                work[i][j] -= L[i][k] * L[j][k] * piv
    return L, pivots


def reference_classify(D, *, degree_bound=10, budget=OracleBudget(), genus_threshold=1):
    """The classifier as one walk: every orthogonal class of genus >=
    `genus_threshold`, judged in (-genus, d, m) order up to the first
    certified effective class of genus >= 2."""
    screen = screen_nef_surface(D, degree_bound)
    if not screen.passed or pair(D, D) <= 0:
        raise ValueError("expected a big, screened-nef class")
    gb = orthogonal_gram(D)
    ordered = sorted(gb.genus_candidates(genus_threshold),
                     key=lambda c: (-arithmetic_genus(c), c.d, c.m))
    effective, undecided = [], []
    for cand in ordered:
        genus = int(arithmetic_genus(cand))
        rep = effectivity_verdict(cand, budget)
        if rep.status is Effectivity.EFFECTIVE:
            effective.append((genus, cand, rep))
            if genus >= 2:
                break
        elif rep.status is Effectivity.UNKNOWN:
            undecided.append(cand)
    eff_max = max((g for g, _, _ in effective), default=None)
    unk_max = max((int(arithmetic_genus(c)) for c in undecided), default=None)
    if eff_max is not None and eff_max >= 2:
        verdict = OrthogonalGenusVerdict.AT_LEAST_TWO
    elif unk_max is not None and unk_max >= 2:
        verdict = OrthogonalGenusVerdict.UNKNOWN
    elif eff_max == 1:
        verdict = OrthogonalGenusVerdict.ONE
    elif unk_max is not None:
        verdict = OrthogonalGenusVerdict.UNKNOWN
    else:
        verdict = OrthogonalGenusVerdict.ZERO
    tag = {
        OrthogonalGenusVerdict.ZERO: SpecialityTag.ASYMPTOTICALLY_NON_SPECIAL,
        OrthogonalGenusVerdict.AT_LEAST_TWO: SpecialityTag.ASYMPTOTICALLY_SPECIAL,
        OrthogonalGenusVerdict.ONE: SpecialityTag.INDETERMINATE,
        OrthogonalGenusVerdict.UNKNOWN: SpecialityTag.UNKNOWN,
    }[verdict]
    best = [(c, r) for g, c, r in effective if g == eff_max] if eff_max else []
    report = OrthogonalGenusReport(
        lower=eff_max or 0,
        witnesses=tuple(c for c, _ in best),
        upper=gb.upper,
        verdict=verdict,
        undecided=tuple(undecided),
        witness_reports=tuple(r for _, r in best),
    )
    return SpecialityVerdict(tag, report, degree_bound)


def ldl_negative_definite(G):
    """Negative definiteness by LDL pivot signs; a zero pivot means no."""
    try:
        _, pivots = ldl_decompose(G)
    except LinearAlgebraError:
        return False
    return all(p < 0 for p in pivots)


def additivity_pairs(count, seed, bound=3):
    """Pairs (M, F): M screened-nef, F an orthogonal sum of (-1)-classes
    with M.F = 0 and all multiplicities nonnegative.

    Starts from a pulled-back anticanonical combination a*H + t*(3H - sum
    over a subset) together with exceptional classes off its support, then
    moves the pair by a random Weyl word (an isometry preserving nefness
    and effectivity).  Words that drag a component of F back to exceptional
    shape (negative multiplicity) are rerolled so that the binomial virtual
    dimension applies verbatim.
    """
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        r = rng.randint(5, 10)
        ctx = BlowupContext(2, r)
        support_size = rng.randint(1, min(8, r - 1))
        support = set(rng.sample(range(r), support_size))
        free = [i for i in range(r) if i not in support]
        a = rng.randint(0, 3)
        t = rng.randint(1, 3)
        M = DivisorClass(ctx, a + 3 * t,
                         [t if i in support else 0 for i in range(r)])
        chosen = rng.sample(free, rng.randint(1, len(free)))
        F = DivisorClass(ctx, 0, (0,) * r)
        for i in chosen:
            F = F + exceptional(ctx, i + 1)
        roots = fundamental_roots(ctx)
        for _ in range(rng.randint(0, 6)):
            root = rng.choice(roots)
            M = reflect(M, root)
            F = reflect(F, root)
        if any(mi < 0 for mi in F.m):
            continue
        assert all(mi >= 0 for mi in M.m), "reflections must preserve nef multiplicities"
        assert pair(M, F) == 0
        assert screen_nef_surface(M, bound).passed
        out.append((M, F))
    if len(out) < count:
        raise AssertionError("generator failed to produce enough pairs")
    return out
