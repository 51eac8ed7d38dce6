"""The Weyl group action on the Picard lattice of a blown-up plane.

The group is generated by reflections in the fundamental roots

    E_1 - E_2, ..., E_{r-1} - E_r,  H - E_1 - E_2 - E_3,

each of self-intersection -2 and orthogonal to the canonical class.  The
difference roots permute multiplicities; the last root is the degree-two
Cremona transformation based at the first three points.  Reflections are
isometries of the lattice and preserve the effective, nef and positive
cones, which is what makes the reduction to pseudostandard form and the
orbit of the exceptional classes useful for positivity questions.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import tempfile
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .lattice import (
    BlowupContext,
    DivisorClass,
    canonical_class,
    gram_matrix,
    pair,
    _require_surface,
)
from .linalg import LinearAlgebraError, clear_denominators, ldl_decompose, solve_linear


@dataclass(frozen=True)
class Root:
    """A reflection root: a class with R^2 = -2 orthogonal to K."""

    divisor: DivisorClass

    def __post_init__(self) -> None:
        R = self.divisor
        _require_surface(R.ctx)
        if pair(R, R) != -2:
            raise ValueError("a root must have self-intersection -2")
        if pair(R, canonical_class(R.ctx)) != 0:
            raise ValueError("a root must be orthogonal to the canonical class")


def difference_root(ctx: BlowupContext, i: int) -> Root:
    """The root E_i - E_{i+1} (1-based i < r)."""
    if not 1 <= i <= ctx.r - 1:
        raise ValueError(f"difference root index {i} out of range 1..{ctx.r - 1}")
    m = [0] * ctx.r
    m[i - 1] = -1
    m[i] = 1
    return Root(DivisorClass(ctx, 0, m))


def cremona_root(ctx: BlowupContext) -> Root:
    """The root H - E_1 - E_2 - E_3 (requires r >= 3)."""
    if ctx.r < 3:
        raise ValueError("the Cremona root needs at least 3 points")
    m = [1, 1, 1] + [0] * (ctx.r - 3)
    return Root(DivisorClass(ctx, 1, m))


def fundamental_roots(ctx: BlowupContext) -> tuple[Root, ...]:
    """The r-1 difference roots followed by the Cremona root.

    For r < 3 there is no Cremona root and only the difference roots are
    returned (an empty tuple when r <= 1): the Weyl group degenerates to
    the permutation group of the exceptional classes.
    """
    _require_surface(ctx)
    roots = [difference_root(ctx, i) for i in range(1, ctx.r)]
    if ctx.r >= 3:
        roots.append(cremona_root(ctx))
    return tuple(roots)


def reflect(D: DivisorClass, root: Root) -> DivisorClass:
    """The reflection D + (D.R) R; an involution preserving the pairing."""
    R = root.divisor
    return D + pair(D, R) * R


class ReductionStatus(Enum):
    STANDARD = "Standard"
    PSEUDOSTANDARD_NEGATIVE_TAIL = "PseudostandardNegativeTail"
    DEGREE_WENT_NEGATIVE = "DegreeWentNegative"


@dataclass(frozen=True)
class ReductionReport:
    """Result of reducing a class to pseudostandard form.

    The trace lists the applied roots in order; re-applying them to the
    input reproduces the result exactly.
    """

    input: DivisorClass
    trace: tuple[Root, ...]
    result: DivisorClass
    status: ReductionStatus

    def replay(self) -> DivisorClass:
        D = self.input
        for root in self.trace:
            D = reflect(D, root)
        return D


def reduce_class(D: DivisorClass) -> ReductionReport:
    """Reduce an integral surface class to pseudostandard form.

    Repeatedly sorts the multiplicities into descending order (difference
    reflections) and applies the Cremona reflection while d < m_1+m_2+m_3.
    Each Cremona step strictly decreases the degree, so the loop stops at a
    pseudostandard class or as soon as the degree becomes negative --
    the latter certifies that the input is not effective, since the Weyl
    group preserves effectivity and effective classes have d >= 0.
    """
    ctx = D.ctx
    _require_surface(ctx)
    if ctx.r < 3:
        raise ValueError("reduction needs at least 3 points (no Cremona root)")
    if not D.is_integral:
        raise ValueError("reduction is defined for integral classes; "
                         "scale rational classes first")
    d = int(D.d)
    m = [int(x) for x in D.m]
    r = ctx.r
    trace: list[Root] = []

    def sort_descending() -> None:
        # Bubble sort: every adjacent swap is a difference-root reflection,
        # so the trace stays faithful.  Stable, ties never swap.
        swapped = True
        while swapped:
            swapped = False
            for i in range(r - 1):
                if m[i] < m[i + 1]:
                    m[i], m[i + 1] = m[i + 1], m[i]
                    trace.append(difference_root(ctx, i + 1))
                    swapped = True

    cremona = cremona_root(ctx)
    status = None
    while True:
        sort_descending()
        if d >= m[0] + m[1] + m[2]:
            status = (ReductionStatus.STANDARD if m[-1] >= 0
                      else ReductionStatus.PSEUDOSTANDARD_NEGATIVE_TAIL)
            break
        s = d - (m[0] + m[1] + m[2])
        d += s
        m[0] += s
        m[1] += s
        m[2] += s
        trace.append(cremona)
        if d < 0:
            status = ReductionStatus.DEGREE_WENT_NEGATIVE
            break
    return ReductionReport(input=D, trace=tuple(trace),
                           result=DivisorClass(ctx, d, m), status=status)


def is_minus_one_class(D: DivisorClass) -> bool:
    """Whether D lies in the Weyl orbit of an exceptional class.

    Requires D^2 = D.K = -1 together with reduction to the form
    (d = 0; one multiplicity -1, the rest 0).  For r < 3 the group is just
    the permutation group, so only the E_i themselves qualify.
    """
    ctx = D.ctx
    _require_surface(ctx)
    if not D.is_integral:
        raise ValueError("expected an integral class")
    K = canonical_class(ctx)
    if pair(D, D) != -1 or pair(D, K) != -1:
        return False
    if ctx.r < 3:
        sorted_m = sorted((int(x) for x in D.m), reverse=True)
        return int(D.d) == 0 and sorted_m == [0] * (ctx.r - 1) + [-1]
    report = reduce_class(D)
    res = report.result
    return (int(res.d) == 0
            and sorted(int(x) for x in res.m) == [-1] + [0] * (ctx.r - 1))


# -- the (-1)-orbit ---------------------------------------------------------

# A class dH - sum m_i E_i as plain ints (d, (m_1, ..., m_r)).
Representative = tuple[int, tuple[int, ...]]


def minus_one_orbit_representatives(ctx: BlowupContext,
                                    degree_bound: int) -> list[Representative]:
    """Sorted-multiplicity representatives of the orbit of E_r, degree <= bound.

    Breadth-first closure of the exceptional class under Cremona
    reflections based at arbitrary point triples, with multiplicities kept
    in descending order (the difference roots act by permutation, so the
    sorted vector is a canonical representative).  Pruning at the degree
    bound loses nothing: reversing the reduction of any orbit member walks
    up from the exceptional class through degrees that never exceed the
    member's own.
    """
    _require_surface(ctx)
    if ctx.r == 0 or degree_bound < 0:
        return []
    start = (0, tuple([0] * (ctx.r - 1) + [-1]))
    seen = {start}
    queue = deque([start])
    triples = list(combinations(range(ctx.r), 3)) if ctx.r >= 3 else []
    while queue:
        d, m = queue.popleft()
        for i, j, k in triples:
            s = d - m[i] - m[j] - m[k]
            if s == 0:
                continue
            d2 = d + s
            if d2 < 0 or d2 > degree_bound:
                continue
            mm = list(m)
            mm[i] += s
            mm[j] += s
            mm[k] += s
            mm.sort(reverse=True)
            node = (d2, tuple(mm))
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return sorted(seen)


def minus_one_orbit(ctx: BlowupContext, degree_bound: int) -> list[DivisorClass]:
    """The full orbit of E_r under the Weyl group, up to the degree bound.

    Expands each sorted representative over all distinct permutations of
    its multiplicities; the output order is canonical (by degree, then by
    the multiplicity vector), independent of the search order.
    """
    reps = minus_one_orbit_representatives(ctx, degree_bound)
    return [DivisorClass(ctx, d, m) for d, m in expand_representatives(reps)]


def orbit_size(representatives: Iterable[Representative]) -> int:
    """Number of orbit members: one multinomial len(m)! / prod count(v)! per
    representative, the number of distinct permutations of its multiplicities."""
    total = 0
    for _, m in representatives:
        size = math.factorial(len(m))
        for count in Counter(m).values():
            size //= math.factorial(count)
        total += size
    return total


def expand_representatives(representatives: Iterable[Representative]
                           ) -> Iterator[Representative]:
    """All permutations of the representatives, merged into (d, m) order."""
    return heapq.merge(*(_distinct_permutations(d, m) for d, m in representatives))


def _distinct_permutations(d: int, m: Sequence[int]) -> Iterator[Representative]:
    """(d, p) for the distinct permutations p of m, in lexicographic order.

    The standard next-permutation step: find the longest nonincreasing
    suffix, swap its left neighbour with the rightmost larger entry and
    reverse the suffix.  A separate function so that d is bound per call.
    """
    p = sorted(m)
    while True:
        yield d, tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = p[:i:-1]


# -- orbit cache --------------------------------------------------------------

# Version 1 (no "format" key) stored every orbit member as a class JSON line.
ORBIT_CACHE_FORMAT = 2


class OrbitCacheError(ValueError):
    """An orbit cache file in another format, torn, or with a bad entry."""


def orbit_cache_path(cache_dir: str | Path, ctx: BlowupContext, bound: int) -> Path:
    return Path(cache_dir) / f"orbit_n{ctx.n}_r{ctx.r}_b{bound}.jsonl"


def write_orbit_cache(path: str | Path, ctx: BlowupContext, bound: int,
                      representatives: Sequence[Representative]) -> None:
    """Write the orbit representatives as JSON lines.

    The header line records the format version, the key (ctx, bound) and
    the number of representatives; one {"d", "m"} line follows for each.
    The file is written to a temporary sibling and atomically renamed, so
    concurrent readers never see a torn cache.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"format": ORBIT_CACHE_FORMAT, "ctx": {"n": ctx.n, "r": ctx.r},
                         "bound": bound, "representatives": len(representatives)},
                        sort_keys=True)]
    lines.extend(json.dumps({"d": d, "m": list(m)}, sort_keys=True)
                 for d, m in representatives)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_orbit_cache(path: str | Path
                     ) -> tuple[BlowupContext, int, list[Representative]]:
    """Read and validate a file written by :func:`write_orbit_cache`.

    Raises OrbitCacheError unless the header has the current format, the
    number of entries matches it, the entries are strictly increasing, and
    each is a sorted (-1)-class: 0 <= d <= bound, C^2 = C.K = -1.
    """
    try:
        with open(path) as handle:
            header, *entries = [json.loads(line) for line in handle]
        if header.get("format") != ORBIT_CACHE_FORMAT:
            raise ValueError(f"format {header.get('format')!r}, "
                             f"expected {ORBIT_CACHE_FORMAT}")
        ctx = BlowupContext(_json_int(header["ctx"]["n"]), _json_int(header["ctx"]["r"]))
        bound = _json_int(header["bound"])
        size = _json_int(header["representatives"])
        reps = [(_json_int(e["d"]), tuple(_json_int(x) for x in e["m"]))
                for e in entries]
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise OrbitCacheError(f"{path}: not a valid orbit cache ({exc!r})") from exc
    if ctx.n != 2:
        raise OrbitCacheError(f"{path}: the orbit lives on surfaces, not n = {ctx.n}")
    if len(reps) != size:
        raise OrbitCacheError(f"{path}: {len(reps)} entries, header says {size}")
    for k, (d, m) in enumerate(reps):
        if k and reps[k - 1] >= (d, m):
            raise OrbitCacheError(f"{path}: entries out of order at line {k + 2}")
        if (len(m) != ctx.r or not 0 <= d <= bound
                or any(m[i] < m[i + 1] for i in range(len(m) - 1))
                or d * d - sum(x * x for x in m) != -1 or sum(m) - 3 * d != -1):
            raise OrbitCacheError(f"{path}: line {k + 2} is not a sorted (-1)-class "
                                  f"of degree <= {bound}: {(d, m)}")
    return ctx, bound, reps


def _json_int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def cached_minus_one_orbit(ctx: BlowupContext, bound: int,
                           cache_dir: str | Path | None) -> list[Representative]:
    """Orbit representatives keyed by (n, r, bound), through a file cache.

    A missing file, one in another format or for another key, a torn file
    or one with an invalid entry is regenerated and rewritten atomically.
    """
    if cache_dir is None:
        return minus_one_orbit_representatives(ctx, bound)
    path = orbit_cache_path(cache_dir, ctx, bound)
    if path.exists():
        try:
            cached_ctx, cached_bound, reps = read_orbit_cache(path)
            if (cached_ctx, cached_bound) == (ctx, bound):
                return reps
        except (OSError, OrbitCacheError):
            pass
    reps = minus_one_orbit_representatives(ctx, bound)
    write_orbit_cache(path, ctx, bound, reps)
    return reps


# -- classification of standard classes --------------------------------------

class StandardClassKind(Enum):
    H_MINUS_E1_MULTIPLE = "MultipleOfHminusE1"
    MINUS_K9_MULTIPLE = "MultipleOfMinusK9"
    COUNTEREXAMPLE = "Counterexample"


def standard_class_kind(D: DivisorClass) -> StandardClassKind:
    """Classify a standard class with D^2 <= 0 and D.K <= 0.

    Such a class is a positive multiple of H - E_1 or of 3H - E_1 - ... - E_9
    (the latter padded with zero multiplicities when r > 9); anything else
    is reported as a counterexample, which the exhaustive test suite shows
    never happens.  The zero class is accepted and reported as the
    degenerate zero multiple of H - E_1.

    Raises ValueError when the class is not standard (sorted, nonnegative
    multiplicities, d >= m_1 + m_2 + m_3) or fails D^2 <= 0, D.K <= 0.
    """
    ctx = D.ctx
    _require_surface(ctx)
    m = list(D.m)
    if any(m[i] < m[i + 1] for i in range(len(m) - 1)) or (m and m[-1] < 0):
        raise ValueError("not standard: multiplicities must be sorted and nonnegative")
    top = m[:3] + [Fraction(0)] * (3 - min(3, len(m)))
    if D.d < sum(top[:3]):
        raise ValueError("not standard: requires d >= m_1 + m_2 + m_3")
    if pair(D, D) > 0:
        raise ValueError("requires nonpositive self-intersection")
    if pair(D, canonical_class(ctx)) > 0:
        raise ValueError("requires nonpositive pairing with the canonical class")

    if all(x == 0 for x in m[1:]):
        if D.d == (m[0] if m else 0):
            return StandardClassKind.H_MINUS_E1_MULTIPLE
        return StandardClassKind.COUNTEREXAMPLE
    lead = m[0]
    if (lead > 0 and len(m) >= 9 and all(x == lead for x in m[:9])
            and all(x == 0 for x in m[9:]) and D.d == 3 * lead):
        return StandardClassKind.MINUS_K9_MULTIPLE
    return StandardClassKind.COUNTEREXAMPLE


# -- blocking divisors --------------------------------------------------------

def blocking_divisor(curves: Sequence[DivisorClass]) -> DivisorClass:
    """An effective combination pairing negatively with every input class.

    Given classes whose Gram matrix is negative definite (as happens for
    distinct irreducible curves orthogonal to a big nef class), factor the
    Gram once, solve Gram a = -(1, ..., 1) exactly from its LDL factors and
    clear denominators; the solution has
    positive coefficients whenever the off-diagonal pairings are
    nonnegative, which holds for classes of distinct irreducible curves.
    """
    if not curves:
        raise ValueError("need at least one class")
    ctx = curves[0].ctx
    for c in curves[1:]:
        if c.ctx != ctx:
            raise ValueError("context mismatch among input classes")
    try:
        L, pivots = ldl_decompose(gram_matrix(curves))
        definite = all(p < 0 for p in pivots)
    except LinearAlgebraError:  # a zero pivot
        definite = False
    if not definite:
        raise ValueError("Gram matrix is not negative definite")
    a = solve_linear(L, pivots, [Fraction(-1)] * len(curves))
    if any(x <= 0 for x in a):
        raise ArithmeticError(
            "solution is not positive; inputs cannot be classes of distinct "
            "irreducible curves (some off-diagonal pairing is negative)")
    coeffs = clear_denominators(a)
    E = coeffs[0] * curves[0]
    for c, C in zip(coeffs[1:], curves[1:]):
        E = E + c * C
    return E
