"""Query generators, query runners and answer checkers for the workloads.

A workload is an endless stream of *cycles*.  Every cycle has the same
composition (the slot list below), and the seed only decides what fills
each slot: which points, multiplicities, permutations, oracle seeds and
orbit keys.  Fixed composition keeps the latency percentiles on the same
cost band from seed to seed; the slot lists put the p50 and p90 positions
inside a band, away from the boundary between two bands.

The checkers use routes independent of the code being timed: Cremona
reduction written here, binomial bounds, frozen acceptance values,
multinomial counts, and plain integer intersection numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import fatpoints
from fatpoints import cli, oracle, positivity, weyl

PRIME = 65537


@dataclass
class Query:
    kind: str
    args: tuple
    expect: object = None   # frozen or generator-known expectation, if any


# -- integer lattice helpers (independent of fatpoints.lattice) ----------------

def _dot(d1, m1, d2, m2) -> int:
    return d1 * d2 - sum(a * b for a, b in zip(m1, m2))


def _canonical_dot(d, m) -> int:
    # K = -3H + sum E_i, so D.K = -3d + sum m_i.
    return -3 * d + sum(m)


def _genus(d, m) -> Fraction:
    return Fraction(_dot(d, m, d, m) + _canonical_dot(d, m), 2) + 1


def _vdim(n: int, d: int, m) -> int:
    def binom(a, k):
        return math.comb(a, k) if a >= k else 0
    return binom(d + n, n) - sum(binom(max(x, 0) + n - 1, n) for x in m) - 1


def cremona_h0(d: int, m) -> int:
    """h0 on the plane blown up at r <= 8 general points, by Cremona reduction.

    Negative multiplicities are fixed exceptional components and are
    stripped; Cremona reflections preserve h0.  Reduce until the degree
    goes negative (no sections) or the class is standard, where h0 is
    vdim + 1 for at most 8 points.
    """
    m = list(m)
    while True:
        m = sorted((max(x, 0) for x in m), reverse=True)
        if d < 0:
            return 0
        excess = d - m[0] - m[1] - m[2]
        if excess >= 0:
            return _vdim(2, d, m) + 1
        d += excess
        m[0] += excess
        m[1] += excess
        m[2] += excess


def _minus_one_walk(rng: random.Random, r: int, min_degree: int, max_degree: int):
    """A random (-1)-class with nonnegative multiplicities, by Cremona moves."""
    while True:
        d, m = 0, [0] * (r - 1) + [-1]
        for _ in range(rng.randint(1, 4)):
            i, j, k = rng.sample(range(r), 3)
            s = d - m[i] - m[j] - m[k]
            if d + s > max_degree:
                break
            d += s
            m[i] += s
            m[j] += s
            m[k] += s
        if d >= min_degree and min(m) >= 0:
            return d, m


def _multiset_permutations(values):
    """Distinct permutations in lexicographic order (next-permutation)."""
    a = sorted(values)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


# -- interp ---------------------------------------------------------------------

def _p2_small(rng: random.Random, special: bool, dlo: int, dhi: int):
    """P^2 class on 3..8 points whose h0 Cremona reduction decides."""
    while True:
        r = rng.randint(3, 8)
        d = rng.randint(dlo, dhi)
        m = [rng.randint(0, (2 * d) // 3) for _ in range(r)]
        h0 = cremona_h0(d, m)
        if (h0 != max(_vdim(2, d, m) + 1, 0)) == special and h0 <= 60:
            return Query("p2_cremona", (2, r, d, tuple(m), _seeds(rng, 3)), h0)


def _seeds(rng: random.Random, count: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, 1000), count))


# Cost bands, cheapest first: 10 random small classes (under ~5 ms), 6
# copies of one P^2 shape with permuted multiplicities (p50 falls in the
# middle of this band), 3 fixed systems around 10-80 ms, 4 torsion
# configurations (p90 falls here), then the two largest P^4 systems.  The
# bands holding a percentile have seed-independent cost; only their
# multiplicity order, points and oracle seeds change with the seed.
INTERP_SLOTS = (
    ["p2_small_low"] * 3 + ["p2_small_special_low"] * 3
    + ["p2_large_special_low"] * 2 + ["p3_special", "p4_m1"]
    + ["p2_mid"] * 6
    + ["torsion_2", "nodal", "p4_m3"]
    + ["torsion_3"] * 4
    + ["p4_m4", "p4_m5"]
)

# 13H - 3(E1..E8) - 2(E9..E12): 105 columns, 60 rows, non-special.
P2_MID = (12, 13, (3,) * 8 + (2,) * 4)


def interp_query(slot: str, rng: random.Random) -> Query:
    if slot == "p2_small_low":
        return _p2_small(rng, False, 4, 8)
    if slot == "p2_small_special_low":
        return _p2_small(rng, True, 4, 8)
    if slot == "p2_large_special_low":
        r = rng.randint(9, 14)
        d, m = _minus_one_walk(rng, r, 1, 5)
        k = 2 if d >= 3 else 3
        return Query("bounds", (2, r, k * d, tuple(k * x for x in m), _seeds(rng, 3)))
    if slot == "p3_special":
        # Twice the quadric through 9 of the points: h0 = 1 > vdim + 1 = -1.
        r = rng.randint(9, 12)
        m = [2] * 9 + [0] * (r - 9)
        rng.shuffle(m)
        return Query("bounds", (3, r, 4, tuple(m), _seeds(rng, 3)))
    if slot == "p2_mid":
        r, d, m = P2_MID
        m = list(m)
        rng.shuffle(m)
        return Query("bounds", (2, r, d, tuple(m), _seeds(rng, 3)))
    if slot.startswith("p4_m"):
        k = int(slot[4:])
        # m = 5 has about 1000 columns; one seed keeps it near 1 s.
        return Query("p4_quadric", (k, _seeds(rng, 1 if k == 5 else 3)))
    if slot.startswith("torsion_"):
        return Query("torsion", (rng.randint(1, 40), int(slot[8:])))
    if slot == "nodal":
        return Query("nodal", (rng.randint(1, 40),))
    raise KeyError(slot)


def run_interp(q: Query):
    if q.kind in ("p2_cremona", "bounds"):
        n, r, d, m, seeds = q.args
        D = fatpoints.DivisorClass(fatpoints.BlowupContext(n, r), d, m)
        return oracle.linear_system_dimension(D, prime=PRIME, seeds=seeds)
    if q.kind == "p4_quadric":
        k, seeds = q.args
        D = fatpoints.DivisorClass(fatpoints.BlowupContext(4, 14), 2 * k, (k,) * 14)
        return oracle.linear_system_dimension(D, prime=PRIME, seeds=seeds)
    if q.kind == "torsion":
        curve_seed, k = q.args
        config = oracle.sample_cubic_torsion(PRIME, curve_seed)
        D = fatpoints.DivisorClass(fatpoints.BlowupContext(2, 10), 10 * k, (3 * k,) * 10)
        return oracle.linear_system_dimension(D, config=config)
    if q.kind == "nodal":
        (seed,) = q.args
        config = oracle.sample_nodal_quartic(PRIME, seed)
        D = fatpoints.DivisorClass(fatpoints.BlowupContext(2, 14), 4, (2,) + (1,) * 13)
        return oracle.linear_system_dimension(D, config=config)
    raise KeyError(q.kind)


# Criterion 1 of the acceptance suite: multiples m(2H - sum E_i) on 14
# points of P^4.  Exact h0 where frozen; m = 2, 3 are special with h0 >= 1,
# and m >= 4 is non-special, so h0 = vdim + 1.
P4_FROZEN = {1: 1, 4: 5, 5: 21}


def check_interp(q: Query, res) -> bool:
    if q.kind == "p2_cremona":
        return res.h0 == q.expect
    if q.kind == "bounds":
        n, r, d, m, _ = q.args
        return _within_bounds(n, d, m, res.h0)
    if q.kind == "p4_quadric":
        k = q.args[0]
        if k in P4_FROZEN:
            return res.h0 == P4_FROZEN[k] and not res.special
        return res.h0 >= 1 and res.special and res.vdim == -1
    if q.kind == "torsion":
        # Criterion 2: at a 2-torsion configuration h1 alternates 0, 1, 0, 1.
        k = q.args[1]
        return res.h1 == (0 if k % 2 else 1) and _within_bounds(2, 10 * k, (3 * k,) * 10, res.h0)
    if q.kind == "nodal":
        # Effective at its own configuration by construction.
        return res.h0 >= 1 and _within_bounds(2, 4, (2,) + (1,) * 13, res.h0)
    return False


def _within_bounds(n: int, d: int, m, h0: int) -> bool:
    return max(_vdim(n, d, m) + 1, 0) <= h0 <= math.comb(d + n, n)


# -- classify ---------------------------------------------------------------------

# The p50 falls among random screened-nef classes on 11 points (about
# 40 ms, nearly independent of the class), the p90 among speciality
# witnesses of a nodal quartic through 14 points at genus threshold 2
# (about 80 ms, whichever point is the node).  The most expensive slot
# is the criterion-10 special case: the witness 195H - 91E1 - 46(E2..E14)
# at threshold 1, a 315-candidate Fincke-Pohst walk plus one oracle call
# per candidate.
CLASSIFY_SLOTS = (
    ["c10_nonspecial", "c10_indeterminate", "c10_unknown"]
    + ["screened_t2"] * 2 + ["screened"] * 14
    + ["witness_t2"] * 4
    + ["c10_special"]
)


@dataclass
class ClassifyInput:
    D: object
    budget: object
    threshold: int


def classify_query(slot: str, rng: random.Random) -> Query:
    ctx10 = fatpoints.BlowupContext(2, 10)
    if slot == "c10_nonspecial":
        D = fatpoints.hyperplane(fatpoints.BlowupContext(2, 2))
        return Query(slot, (ClassifyInput(D, fatpoints.OracleBudget(), 1),))
    if slot in ("c10_indeterminate", "c10_unknown"):
        D = fatpoints.DivisorClass(ctx10, 10, (3,) * 10)
        budget = None
        if slot == "c10_indeterminate":
            config = oracle.sample_cubic_torsion(PRIME, seed=rng.choice((1, 2)))
            budget = fatpoints.OracleBudget(config=config)
        return Query(slot, (ClassifyInput(D, budget, 1),))
    if slot == "c10_special":
        ctx14 = fatpoints.BlowupContext(2, 14)
        C = fatpoints.DivisorClass(ctx14, 4, (2,) + (1,) * 13)
        config = oracle.sample_nodal_quartic(PRIME, seed=3)
        D = positivity.speciality_witness(C, degree_bound=5)
        return Query(slot, (ClassifyInput(D, fatpoints.OracleBudget(config=config), 1),))
    if slot == "witness_t2":
        m = [1] * 14
        m[rng.randrange(14)] = 2
        C = fatpoints.DivisorClass(fatpoints.BlowupContext(2, 14), 4, m)
        D = positivity.speciality_witness(C, degree_bound=5)
        budget = fatpoints.OracleBudget(seeds=_seeds(rng, 3))
        return Query("generated", (ClassifyInput(D, budget, 2),))
    if slot in ("screened", "screened_t2"):
        threshold = 2 if slot == "screened_t2" else 1
        while True:
            d = rng.randint(20, 24)
            m = [rng.randint(d // 4, d // 3) for _ in range(11)]
            D = fatpoints.DivisorClass(fatpoints.BlowupContext(2, 11), d, m)
            # Near -K the orthogonal ellipsoid holds thousands of candidates;
            # keep classes with none, whose cost hardly depends on the class.
            if (_dot(d, m, d, m) > 0 and positivity.screen_nef_surface(D, 5).passed
                    and positivity.orthogonal_genus_upper(D) < Fraction(7, 5)
                    and not positivity.orthogonal_genus_candidates(D, threshold)):
                budget = fatpoints.OracleBudget(seeds=_seeds(rng, 3))
                return Query("generated", (ClassifyInput(D, budget, threshold),))
    raise KeyError(slot)


def run_classify(q: Query):
    (inp,) = q.args
    return positivity.classify_asymptotic(inp.D, degree_bound=5, budget=inp.budget,
                                          genus_threshold=inp.threshold)


def check_classify(q: Query, verdict) -> bool:
    (inp,) = q.args
    D = inp.D
    ev = verdict.evidence
    d, m = int(D.d), [int(x) for x in D.m]
    tag = verdict.tag.value
    ok = ev.lower <= ev.upper
    ok &= tag == {"Zero": "AsymptoticallyNonSpecial", "One": "Indeterminate",
                  "AtLeastTwo": "AsymptoticallySpecial",
                  "Unknown": "Unknown"}[ev.verdict.value]
    ok &= not (tag == "AsymptoticallyNonSpecial" and ev.undecided)
    ok &= len(ev.witnesses) == len(ev.witness_reports)
    for w, rep in zip(ev.witnesses, ev.witness_reports):
        wd, wm = int(w.d), [int(x) for x in w.m]
        ok &= _dot(d, m, wd, wm) == 0
        ok &= _genus(wd, wm) == ev.lower >= inp.threshold
        ok &= rep.status.value == "Effective"
    for u in ev.undecided:
        ok &= _dot(d, m, int(u.d), [int(x) for x in u.m]) == 0
    # Criterion 10 of the acceptance suite, frozen.
    if q.kind == "c10_nonspecial":
        ok &= tag == "AsymptoticallyNonSpecial" and not ev.undecided
    elif q.kind == "c10_indeterminate":
        ok &= tag == "Indeterminate" and [(int(w.d), [int(x) for x in w.m])
                                          for w in ev.witnesses] == [(3, [1] * 10)]
    elif q.kind == "c10_special":
        ok &= tag == "AsymptoticallySpecial" and ev.lower >= 2
    elif q.kind == "c10_unknown":
        ok &= tag == "Unknown" and bool(ev.undecided)
    return bool(ok)


# -- orbit --------------------------------------------------------------------------

# Cost bands: 10 slots under ~15 ms (nef screens, reductions, small lists
# and cache reads or writes), 6 counts of about 21 ms (p50 here), 3 around
# 75-110 ms, 4 counts of r = 12, bound 3 (p90 here), then two large counts.
ORBIT_SLOTS = (
    ["nef"] * 2 + ["reduce"] * 3 + ["list"] * 2 + ["cache"] * 3
    + ["count_low"] * 6
    + ["count_mid"] * 3
    + ["count_high"] * 4
    + ["count_top_a", "count_top_b"]
)

ORBIT_COUNTS = {
    "count_low": ((10, 3), (12, 2)),
    "count_mid": ((11, 3), (9, 6), (10, 4)),
    "count_high": ((12, 3),),
    "count_top_a": ((11, 4),),
    "count_top_b": ((12, 4),),
}
ORBIT_LIST = ((6, 5), (7, 4), (7, 5), (6, 6))
ORBIT_CACHE = ((7, 5), (8, 3), (8, 4), (7, 6))


@dataclass
class CliInput:
    argv: list
    key: tuple | None = None   # (r, bound) for orbit queries
    cls: tuple | None = None   # (d, m) for class queries


def orbit_query(slot: str, rng: random.Random, cache_dir: str) -> Query:
    if slot in ("nef", "reduce"):
        r = rng.randint(9, 13)
        d = rng.randint(10, 40)
        m = [rng.randint(0, d // 3) for _ in range(r)]
        cls = json.dumps({"n": 2, "r": r, "d": d, "m": m})
        argv = ["nef", cls, "--bound", "6"] if slot == "nef" else ["reduce", cls]
        return Query(slot, (CliInput(argv, cls=(d, m)),))
    if slot == "list":
        r, b = rng.choice(ORBIT_LIST)
        return Query(slot, (CliInput(["orbit", str(r), "--bound", str(b), "--list"], (r, b)),))
    if slot == "cache":
        r, b = rng.choice(ORBIT_CACHE)
        argv = ["orbit", str(r), "--bound", str(b), "--cache-dir", cache_dir]
        if rng.random() < 0.5:
            argv.append("--list")
        return Query(slot, (CliInput(argv, (r, b)),))
    r, b = rng.choice(ORBIT_COUNTS[slot])
    return Query("count", (CliInput(["orbit", str(r), "--bound", str(b)], (r, b)),))


def run_orbit(q: Query):
    (inp,) = q.args
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(inp.argv))
    return code, buf.getvalue()


class OrbitChecker:
    """Expected orbit data, computed once per (r, bound) outside the timing."""

    def __init__(self):
        self._reps: dict = {}
        self._sets: dict = {}

    def reps(self, r: int, b: int):
        if (r, b) not in self._reps:
            self._reps[(r, b)] = weyl.minus_one_orbit_representatives(
                fatpoints.BlowupContext(2, r), b)
        return self._reps[(r, b)]

    def count(self, r: int, b: int) -> int:
        total = 0
        for _, m in self.reps(r, b):
            mult = math.factorial(len(m))
            for value in set(m):
                mult //= math.factorial(m.count(value))
            total += mult
        return total

    def members(self, r: int, b: int) -> set:
        if (r, b) not in self._sets:
            self._sets[(r, b)] = {(d, perm) for d, m in self.reps(r, b)
                                  for perm in _multiset_permutations(m)}
        return self._sets[(r, b)]

    def check(self, q: Query, res) -> bool:
        (inp,) = q.args
        code, out = res
        if code != 0:
            return False
        payload = json.loads(out)
        if q.kind in ("nef", "reduce"):
            d, m = inp.cls
            return (self._check_nef(d, m, payload) if q.kind == "nef"
                    else self._check_reduce(d, m, payload))
        r, b = inp.key
        ok = payload["count"] == self.count(r, b)
        if "--cache-dir" in inp.argv:
            ok &= payload["cache_file"] is not None
        if "--list" in inp.argv:
            listed = [(c["d"], tuple(c["m"])) for c in payload["classes"]]
            ok &= all(_dot(dd, mm, dd, mm) == -1 and _canonical_dot(dd, mm) == -1
                      for dd, mm in listed)
            ok &= set(listed) == self.members(r, b) and len(listed) == len(set(listed))
        return bool(ok)

    def _check_nef(self, d, m, payload) -> bool:
        bound = payload["bound"]
        desc = sorted(m, reverse=True)
        passed = (d >= 0 and _dot(d, m, d, m) >= 0 and min(m) >= 0
                  and all(d * dr - sum(a * b for a, b in zip(desc, mr)) >= 0
                          for dr, mr in self.reps(len(m), bound)))
        ok = payload["nef_up_to_bound"] == passed
        if not passed:
            w = payload["witness"]
            ok &= _dot(d, m, w["d"], w["m"]) < 0
        return ok

    @staticmethod
    def _check_reduce(d, m, payload) -> bool:
        # Replay the printed trace with integer reflections D + (D.R) R.
        cd, cm = d, list(m)
        for root in payload["trace"]:
            rd, rm = root["d"], root["m"]
            s = _dot(cd, cm, rd, rm)
            cd, cm = cd + s * rd, [a + s * b for a, b in zip(cm, rm)]
        res = payload["result"]
        ok = (cd, cm) == (res["d"], res["m"])
        status = payload["status"]
        if status == "DegreeWentNegative":
            ok &= cd < 0
        else:
            ok &= all(cm[i] >= cm[i + 1] for i in range(len(cm) - 1))
            ok &= cd >= cm[0] + cm[1] + cm[2]
            ok &= (status == "Standard") == (cm[-1] >= 0)
        return ok


# -- registry -------------------------------------------------------------------------

WARMUP = {
    "interp": ["p2_small_low", "p2_mid", "p4_m1", "torsion_2"],
    "classify": ["c10_nonspecial", "screened", "witness_t2"],
    "orbit": ["nef", "reduce", "list", "count_low"],
}

SLOTS = {"interp": INTERP_SLOTS, "classify": CLASSIFY_SLOTS, "orbit": ORBIT_SLOTS}


class Workload:
    """One workload: its cycle stream, runner and checker."""

    def __init__(self, name: str, seed: int, cache_dir: str) -> None:
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.cache_dir = cache_dir
        self.orbit_checker = OrbitChecker()
        self.emitted = 0   # bytes the CLI printed, for the orbit workload

    def make(self, slot: str, rng: random.Random) -> Query:
        if self.name == "interp":
            return interp_query(slot, rng)
        if self.name == "classify":
            return classify_query(slot, rng)
        return orbit_query(slot, rng, self.cache_dir)

    def cycle(self) -> list[Query]:
        queries = [self.make(slot, self.rng) for slot in SLOTS[self.name]]
        self.rng.shuffle(queries)
        return queries

    def warmup(self) -> list[Query]:
        rng = random.Random(f"{self.name}:warmup")
        return [self.make(slot, rng) for slot in WARMUP[self.name]]

    def run(self, q: Query):
        if self.name == "interp":
            return run_interp(q)
        if self.name == "classify":
            return run_classify(q)
        code, out = run_orbit(q)
        self.emitted += len(out)
        return code, out

    def check(self, q: Query, result) -> bool:
        if self.name == "interp":
            return check_interp(q, result)
        if self.name == "classify":
            return check_classify(q, result)
        return self.orbit_checker.check(q, result)
