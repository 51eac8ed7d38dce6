"""Command-line front end.

One binary with subcommands (vdim, reduce, nef, classify, orbit, demo).
Configuration precedence is flags > config file (JSON) > defaults, and all
output is deterministic: JSON keys are sorted and rationals are normalized
to "p/q" with positive denominator.  Exit code 0 means every check in the
invocation passed; mismatches and counterexamples exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .lattice import (
    BlowupContext,
    DivisorClass,
    canonical_class,
    class_from_json,
    class_to_json,
    format_rational,
    pair,
    vdim,
    vdim_quadratic,
)
from .oracle import OracleBudget, check_prime, p4_quadric_table, torsion_parity_table
from .positivity import (
    SpecialityVerdict,
    classify_asymptotic,
    is_nef_few_points,
    nef_cone_membership,
    null_class_extension,
    screen_nef_surface,
)
from .weyl import (
    cached_minus_one_orbit,
    expand_representatives,
    is_minus_one_class,
    minus_one_orbit,
    minus_one_orbit_representatives,
    orbit_cache_path,
    orbit_size,
    reduce_class,
    standard_class_kind,
    StandardClassKind,
)


@dataclass
class RunConfig:
    prime: int = 65537
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    orbit_bound: int = 10
    genus_threshold: int = 1
    output: str = "json"
    cache_dir: str | None = None

    def validate(self) -> "RunConfig":
        # Config-file values arrive untyped; bool is refused as an int.
        for key in ("prime", "orbit_bound", "genus_threshold"):
            if type(getattr(self, key)) is not int:
                raise ValueError(f"{key} must be an integer")
        if not isinstance(self.seeds, list) or any(type(s) is not int for s in self.seeds):
            raise ValueError("seeds must be a list of integers")
        if not isinstance(self.cache_dir, (str, type(None))):
            raise ValueError("cache_dir must be a string or null")
        try:
            check_prime(self.prime)
        except ValueError as exc:
            raise ValueError(f"--prime {exc}") from exc
        if self.orbit_bound < 1:
            raise ValueError("--bound must be >= 1")
        if self.genus_threshold < 1:
            raise ValueError("--genus-threshold must be >= 1")
        if self.output not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.output}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        return self


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        data = json.loads(read_input(args.config))
        if not isinstance(data, dict):
            raise ValueError("--config must hold a JSON object")
        for key in ("prime", "seeds", "orbit_bound", "genus_threshold",
                    "output", "cache_dir"):
            if key in data:
                setattr(cfg, key, data[key])
    for key, value in (("prime", args.prime), ("orbit_bound", args.bound),
                       ("genus_threshold", args.genus_threshold),
                       ("output", args.format), ("cache_dir", args.cache_dir)):
        if value is not None:
            setattr(cfg, key, value)
    if args.seed:
        cfg.seeds = list(args.seed)
    return cfg.validate()


def read_input(path: str) -> str:
    """Text of a --config or --file path; an unreadable one is invalid input."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def read_class(args: argparse.Namespace) -> DivisorClass:
    if not (args.file or args.cls):
        raise ValueError("provide a divisor class (positional JSON or --file)")
    text = read_input(args.file) if args.file else args.cls
    try:
        return class_from_json(json.loads(text))
    except ValueError as exc:
        raise ValueError(f"malformed class JSON: {exc}") from exc


def emit(payload, cfg: RunConfig, rows_key: str | None = None) -> None:
    """Print a report deterministically in the configured format."""
    if cfg.output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    rows = payload.get(rows_key) if rows_key and isinstance(payload, dict) else None
    if cfg.output == "csv" and isinstance(rows, list) and rows and isinstance(rows[0], dict):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue().rstrip("\n"))
        return
    # text: stable flat rendering
    def render(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)):
                    print(f"{pad}{key}:")
                    render(value, indent + 1)
                else:
                    print(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, (dict, list)):
                    render(value, indent + 1)
                else:
                    print(f"{pad}- {value}")
        else:
            print(f"{pad}{obj}")

    render(payload)


def verdict_to_json(verdict: SpecialityVerdict) -> dict:
    ev = verdict.evidence
    return {
        "tag": verdict.tag.value,
        "paPerp": {
            "lower": ev.lower,
            "upper": format_rational(ev.upper),
            "witnesses": [class_to_json(w) for w in ev.witnesses],
            "undecided": [class_to_json(w) for w in ev.undecided],
            "verdict": ev.verdict.value,
        },
        "bound": verdict.degree_bound,
    }


# -- subcommands ---------------------------------------------------------------

def cmd_vdim(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    D = read_class(args)
    payload: dict = {"class": class_to_json(D), "text": D.text()}
    binomial_applies = D.is_integral and all(mi >= 0 for mi in D.m)
    if binomial_applies:
        payload["vdim"] = vdim(D)
        payload["edim"] = max(payload["vdim"], -1)
    if D.ctx.n == 2:
        quad = vdim_quadratic(D)
        payload["vdim_quadratic"] = format_rational(quad)
        if binomial_applies:
            payload["identity_holds"] = quad == payload["vdim"]
    elif not binomial_applies:
        raise ValueError("the binomial virtual dimension needs an "
                         "integral class with nonnegative multiplicities")
    emit(payload, cfg)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    D = read_class(args)
    report = reduce_class(D)
    payload = {
        "input": class_to_json(D),
        "result": class_to_json(report.result),
        "result_text": report.result.text(),
        "status": report.status.value,
        "trace": [class_to_json(root.divisor) for root in report.trace],
        "trace_length": len(report.trace),
        "is_minus_one_class": is_minus_one_class(D),
    }
    emit(payload, cfg)
    return 0


def cmd_nef(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    D = read_class(args)
    ctx = D.ctx
    payload: dict = {"class": class_to_json(D)}
    if ctx.r < 2 ** ctx.n:
        membership = nef_cone_membership(D)
        payload["regime"] = "mori-dual"
        payload["nef"] = is_nef_few_points(D)
        payload["in_cone"] = membership.inside
        if membership.inside:
            payload["combination"] = [
                {"generator": class_to_json(g), "coefficient": format_rational(c)}
                for g, c in membership.combination]
        else:
            payload["separating_curve"] = {
                "delta": format_rational(membership.separator.delta),
                "mu": [format_rational(x) for x in membership.separator.mu]}
        agreement = payload["nef"] == membership.inside
        payload["agreement"] = agreement
        emit(payload, cfg)
        return 0 if agreement else 1
    if ctx.n != 2:
        raise ValueError("no nef test available for n > 2 with r >= 2^n")
    screen = screen_nef_surface(D, cfg.orbit_bound)
    payload["regime"] = "surface-screen"
    payload["nef_up_to_bound"] = screen.passed
    payload["bound"] = screen.degree_bound
    if not screen.passed:
        payload["witness"] = class_to_json(screen.witness)
        payload["reason"] = screen.reason
    emit(payload, cfg)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    D = read_class(args)
    budget = OracleBudget(prime=cfg.prime, seeds=tuple(cfg.seeds))
    verdict = classify_asymptotic(D, degree_bound=cfg.orbit_bound, budget=budget,
                                  genus_threshold=cfg.genus_threshold)
    emit(verdict_to_json(verdict), cfg)
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    ctx = BlowupContext(2, args.r)
    bound = cfg.orbit_bound
    if cfg.cache_dir:
        reps = cached_minus_one_orbit(ctx, bound, cfg.cache_dir)
        cache_file = str(orbit_cache_path(cfg.cache_dir, ctx, bound))
    else:
        reps = minus_one_orbit_representatives(ctx, bound)
        cache_file = None
    payload = {
        "ctx": {"n": 2, "r": args.r},
        "bound": bound,
        "count": orbit_size(reps),
        "cache_file": cache_file,
    }
    if args.list:
        payload["classes"] = [{"n": 2, "r": args.r, "d": d, "m": list(m)}
                              for d, m in expand_representatives(reps)]
    emit(payload, cfg)
    return 0


# -- scripted demos ---------------------------------------------------------------

def demo_ex_14pts(cfg: RunConfig) -> tuple[dict, bool]:
    rows = p4_quadric_table(prime=cfg.prime, seeds=tuple(cfg.seeds), m_max=6)
    expected_vdim = {1: 0, 2: -1, 3: -1, 4: 4, 5: 20, 6: 55}
    ok = True
    for row in rows:
        m = row["m"]
        ok &= row["vdim"] == expected_vdim[m]
        if m == 1:
            ok &= row["h0"] == 1 and not row["special"]
        elif m in (2, 3):
            ok &= row["h0"] >= 1 and row["special"]
        elif m == 4:
            ok &= row["h0"] == 5 and not row["special"]
        else:
            ok &= not row["special"]
    return {"rows": rows, "ok": ok}, ok


def demo_ex_mix(cfg: RunConfig) -> tuple[dict, bool]:
    rows = torsion_parity_table(prime=cfg.prime, curve_seeds=tuple(cfg.seeds[:2]), n_max=4)
    ok = all(row["h1"] == (0 if row["n"] % 2 else 1) for row in rows)
    curves = {row["curve"] for row in rows}
    ok &= len(curves) >= min(2, len(cfg.seeds))
    return {"rows": rows, "ok": ok}, ok


def demo_lemma_std(cfg: RunConfig) -> tuple[dict, bool]:
    """Exhaustively classify standard classes with D^2 <= 0 >= D.K."""
    r_max, d_max = 10, 12
    counts = {kind.value: 0 for kind in StandardClassKind}
    checked = 0
    for r in range(0, r_max + 1):
        ctx = BlowupContext(2, r)
        K = canonical_class(ctx)
        for d in range(0, d_max + 1):
            for m in _sorted_tuples(r, d):
                D = DivisorClass(ctx, d, m)
                if pair(D, D) > 0 or pair(D, K) > 0:
                    continue
                counts[standard_class_kind(D).value] += 1
                checked += 1
    ok = counts[StandardClassKind.COUNTEREXAMPLE.value] == 0
    return {"checked": checked, "counts": counts, "r_max": r_max,
            "d_max": d_max, "ok": ok}, ok


def _sorted_tuples(r: int, d: int):
    """Nonincreasing multiplicity tuples with d >= m1+m2+m3 and sum <= 3d."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, prev: int, total: int) -> None:
        if total > 3 * d:
            return
        if len(prefix) >= 3 and sum(prefix[:3]) > d:
            return
        if remaining == 0:
            if sum(prefix[:3]) <= d:
                out.append(tuple(prefix))
            return
        for val in range(min(prev, d), -1, -1):
            rec(prefix + [val], remaining - 1, val, total + val)

    rec([], r, d, 0)
    return out


def demo_orbit_check(cfg: RunConfig) -> tuple[dict, bool]:
    r, bound = 9, 5
    ctx = BlowupContext(2, r)
    orbit = minus_one_orbit(ctx, bound)
    K = canonical_class(ctx)
    sound = all(pair(C, C) == -1 and pair(C, K) == -1 for C in orbit)
    brute = _brute_force_minus_one(ctx, bound)
    complete = {(int(c.d), tuple(int(x) for x in c.m)) for c in orbit} == brute
    ok = sound and complete
    return {"r": r, "bound": bound, "count": len(orbit),
            "sound": sound, "complete": complete, "ok": ok}, ok


def _brute_force_minus_one(ctx: BlowupContext, bound: int) -> set:
    """Independent lattice scan: C^2 = C.K = -1, degree <= bound, E-reducible."""
    from itertools import permutations

    results = set()
    r = ctx.r
    for d in range(0, bound + 1):
        target_sum = 3 * d - 1
        target_sq = d * d + 1
        for m_sorted in _signed_sorted_tuples(r, target_sum, target_sq):
            D = DivisorClass(ctx, d, m_sorted)
            if is_minus_one_class(D):
                seen = set()
                for perm in permutations(m_sorted):
                    if perm not in seen:
                        seen.add(perm)
                        results.add((d, perm))
    return results


def _signed_sorted_tuples(r: int, target_sum: int, target_sq: int):
    """Nonincreasing integer tuples with the given sum and sum of squares."""
    out = []
    top = math.isqrt(target_sq)

    def rec(prefix: list[int], remaining: int, prev: int, total: int, sq: int):
        if sq > target_sq:
            return
        if remaining == 0:
            if total == target_sum and sq == target_sq:
                out.append(tuple(prefix))
            return
        # remaining entries lie in [-top, prev]
        if total + remaining * prev < target_sum:
            return
        if total - remaining * top > target_sum:
            return
        for val in range(min(prev, top), -top - 1, -1):
            rec(prefix + [val], remaining - 1, val, total + val, sq + val * val)

    rec([], r, top, 0, 0)
    return out


def demo_quad_family(cfg: RunConfig) -> tuple[dict, bool]:
    samples = 100
    ctx8 = BlowupContext(2, 8)
    checked = 0
    for B in _random_valid_bases(ctx8, samples):
        null_class_extension(B)  # raises on any failed identity
        checked += 1
    base = DivisorClass(ctx8, 6, (2,) * 8)
    report = null_class_extension(base)
    integer_ok = report.integer_class is not None
    screen_ok = False
    if integer_ok:
        screen = screen_nef_surface(report.integer_class, 10)
        screen_ok = screen.passed
    ok = checked == samples and integer_ok and screen_ok
    return {"random_checked": checked, "shift": format_rational(report.shift),
            "radicand": format_rational(report.radicand),
            "integer_instance": class_to_json(report.integer_class) if integer_ok else None,
            "nef_screen_bound_10": screen_ok, "ok": ok}, ok


def _random_valid_bases(ctx8: BlowupContext, samples: int):
    """Random 8-point classes with 2 B^2 > (B.K)^2, concentrated near the
    anticanonical ray where that quadratic is positive."""
    import random

    rng = random.Random(20240901)
    found = 0
    attempts = 0
    while found < samples and attempts < 200 * samples:
        attempts += 1
        k = rng.randint(4, 12)
        m = [Fraction(k + rng.randint(-1, 1)) for _ in range(8)]
        d = Fraction(3 * k + rng.randint(-1, 1))
        if rng.random() < 0.25:
            # rational classes are fair game too
            d += Fraction(1, 2)
            m[rng.randrange(8)] += Fraction(1, 2)
        B = DivisorClass(ctx8, d, m)
        bk = pair(B, canonical_class(ctx8))
        if 2 * pair(B, B) - bk * bk <= 0:
            continue
        found += 1
        yield B


DEMOS = {
    "ex-14pts": demo_ex_14pts,
    "ex-mix": demo_ex_mix,
    "lemma-std": demo_lemma_std,
    "orbit-check": demo_orbit_check,
    "quad-family": demo_quad_family,
}


def cmd_demo(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    payload, ok = DEMOS[args.name](cfg)
    payload["demo"] = args.name
    emit(payload, cfg, rows_key="rows")
    return 0 if ok else 1


# -- entry point --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatpoints",
        description="Positivity and speciality invariants of divisor classes "
                    "on blow-ups of projective space (exact arithmetic).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=None,
                        help="prime for the interpolation oracle (default 65537)")
    common.add_argument("--seed", type=int, action="append", default=None,
                        help="oracle seed; repeatable")
    common.add_argument("--bound", type=int, default=None,
                        help="degree bound for the (-1)-orbit screening")
    common.add_argument("--genus-threshold", type=int, default=None,
                        help="minimum genus for orthogonal candidates")
    common.add_argument("--format", choices=("json", "csv", "text"), default=None)
    common.add_argument("--cache-dir", default=None)
    common.add_argument("--config", default=None, help="JSON config file")

    class_args = argparse.ArgumentParser(add_help=False)
    class_args.add_argument("cls", nargs="?", default=None, metavar="CLASS_JSON",
                            help='e.g. \'{"n":2,"r":3,"d":2,"m":[1,1,1]}\'')
    class_args.add_argument("--file", default=None, help="read the class JSON from a file")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("vdim", parents=[common, class_args],
                   help="virtual/expected dimension").set_defaults(func=cmd_vdim)
    sub.add_parser("reduce", parents=[common, class_args],
                   help="Weyl reduction to pseudostandard form").set_defaults(func=cmd_reduce)
    sub.add_parser("nef", parents=[common, class_args],
                   help="nef test (Mori-dual for r < 2^n, orbit screen on surfaces)"
                   ).set_defaults(func=cmd_nef)
    sub.add_parser("classify", parents=[common, class_args],
                   help="asymptotic speciality classification").set_defaults(func=cmd_classify)
    orbit = sub.add_parser("orbit", parents=[common],
                           help="enumerate the (-1)-class orbit on a surface")
    orbit.add_argument("r", type=int, help="number of blown-up points")
    orbit.add_argument("--list", action="store_true", help="include the classes")
    orbit.set_defaults(func=cmd_orbit)
    demo = sub.add_parser("demo", parents=[common],
                          help="scripted scenario with expected-table verification")
    demo.add_argument("name", choices=sorted(DEMOS))
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; invalid input exits 2 with a message."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
