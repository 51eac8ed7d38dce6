"""Shared generators for the property and acceptance suites."""

import random

from fatpoints import (
    BlowupContext,
    DivisorClass,
    exceptional,
    fundamental_roots,
    pair,
    reflect,
    screen_nef_surface,
)
from fatpoints.linalg import LinearAlgebraError, ldl_decompose


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
