import dataclasses
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

from fatpoints import (
    BlowupContext,
    DivisorClass,
    Effectivity,
    OracleBudget,
    PointConfig,
    SpecialityTag,
    arithmetic_genus,
    canonical_class,
    classify_asymptotic,
    effectivity_verdict,
    exceptional,
    hyperplane,
    is_nef_few_points,
    minus_k,
    nef_cone_membership,
    null_class_extension,
    orthogonal_genus_candidates,
    orthogonal_genus_upper,
    orthogonal_gram,
    pair,
    pair_div_curve,
    sample_cubic_torsion,
    sample_nodal_quartic,
    screen_nef_surface,
    speciality_witness,
    vdim,
)
from tests_support import reference_classify


def random_class(rng, ctx, d_range=(0, 9), m_range=(-3, 6)):
    return DivisorClass(ctx, rng.randint(*d_range),
                        [rng.randint(*m_range) for _ in range(ctx.r)])


class TestNefFewPoints:
    def test_quadric_14_points(self):
        ctx = BlowupContext(4, 14)
        assert is_nef_few_points(DivisorClass(ctx, 2, (1,) * 14))

    def test_h_minus_e1(self):
        ctx = BlowupContext(4, 14)
        assert is_nef_few_points(DivisorClass(ctx, 1, (1,) + (0,) * 13))

    def test_line_through_three_fails(self):
        ctx = BlowupContext(4, 14)
        assert not is_nef_few_points(DivisorClass(ctx, 1, (1, 1, 1) + (0,) * 11))

    def test_requires_few_points(self):
        ctx = BlowupContext(2, 4)
        with pytest.raises(ValueError):
            is_nef_few_points(hyperplane(ctx))


class TestConeMembership:
    def test_quadric_through_both_points(self):
        ctx = BlowupContext(3, 2)
        D = DivisorClass(ctx, 2, (1, 1))
        got = nef_cone_membership(D)
        assert got.inside
        assert (D, Q(1)) in got.combination

    def test_too_singular(self):
        # H - 2E1 is not nef: a line through the first point separates.
        # (The exceptional line e1 does not: it pairs as +2.)
        ctx = BlowupContext(3, 2)
        D = DivisorClass(ctx, 1, (2, 0))
        got = nef_cone_membership(D)
        assert not got.inside
        assert pair_div_curve(D, got.separator) < 0

    def test_negative_multiplicity_separated_by_exceptional_line(self):
        ctx = BlowupContext(3, 2)
        got = nef_cone_membership(DivisorClass(ctx, 2, (-1, 0)))
        assert not got.inside
        assert got.separator.delta == 0 and got.separator.mu[0] == -1

    def test_agrees_with_inequalities_exhaustive(self):
        # full box n = 3, r <= 4, coefficients in [-3, 3]
        for r in range(0, 5):
            ctx = BlowupContext(3, r)
            for d in range(-3, 4):
                for m in itertools.product(range(-3, 4), repeat=r):
                    D = DivisorClass(ctx, d, m)
                    assert nef_cone_membership(D).inside == is_nef_few_points(D), D

    def test_agrees_on_random_p4_classes(self):
        rng = random.Random(63)
        ctx = BlowupContext(4, 14)
        for _ in range(1000):
            D = random_class(rng, ctx, d_range=(-2, 8), m_range=(-2, 5))
            assert nef_cone_membership(D).inside == is_nef_few_points(D)

    def test_certificates_replay(self):
        rng = random.Random(64)
        ctx = BlowupContext(4, 14)
        gens_pair_floor = 0
        for _ in range(200):
            D = random_class(rng, ctx, d_range=(-2, 8), m_range=(-2, 5))
            got = nef_cone_membership(D)
            if got.inside:
                total = DivisorClass(ctx, 0, (0,) * ctx.r)
                for gen, coeff in got.combination:
                    assert coeff >= 0
                    total = total + coeff * gen
                assert total == D
            else:
                ell = got.separator
                assert pair_div_curve(D, ell) < 0
                # the separator must price nonnegatively against every
                # generator 2H - sum_I E_i, including the worst subset
                worst = 2 * ell.delta - sum(mu for mu in ell.mu if mu > 0)
                assert worst >= gens_pair_floor
                assert all(ell.delta - mu >= 0 for mu in ell.mu)
                assert ell.delta >= 0


class TestSurfaceScreen:
    def test_big_semiample_class(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        for bound in (3, 6, 10):
            assert screen_nef_surface(D, bound).passed

    def test_exceptional_fails(self):
        ctx = BlowupContext(2, 3)
        report = screen_nef_surface(exceptional(ctx, 1), 3)
        assert not report.passed
        assert report.witness == exceptional(ctx, 1)

    def test_line_through_two_fails(self):
        ctx = BlowupContext(2, 3)
        D = DivisorClass(ctx, 1, (1, 1, 0))
        report = screen_nef_surface(D, 3)
        assert not report.passed

    def test_witness_has_negative_pairing(self):
        from fatpoints import is_minus_one_class

        rng = random.Random(65)
        ctx = BlowupContext(2, 8)
        for _ in range(200):
            D = random_class(rng, ctx)
            report = screen_nef_surface(D, 4)
            if report.passed:
                continue
            assert pair(D, report.witness) < 0 or pair(D, D) < 0
            if "orbit" in report.reason:
                assert is_minus_one_class(report.witness)

    def test_orbit_witness_is_aligned_orbit_member(self):
        from fatpoints import is_minus_one_class

        # positive square, nonnegative multiplicities, yet the line through
        # the two triple points separates; the witness must be that line,
        # aligned to the right coordinates
        ctx = BlowupContext(2, 8)
        D = DivisorClass(ctx, 5, (0, 3, 1, 3, 0, 0, 0, 0))
        assert pair(D, D) == 6
        report = screen_nef_surface(D, 3)
        assert not report.passed and "orbit" in report.reason
        assert pair(D, report.witness) < 0
        assert is_minus_one_class(report.witness)
        assert report.witness == DivisorClass(ctx, 1, (0, 1, 0, 1, 0, 0, 0, 0))

    def test_anticanonical_nine_passes(self):
        ctx = BlowupContext(2, 9)
        assert screen_nef_surface(minus_k(ctx), 8).passed


class TestOrthogonalGram:
    def test_h_two_points(self):
        ctx = BlowupContext(2, 2)
        gb = orthogonal_gram(hyperplane(ctx))
        assert len(gb.basis) == 2
        assert gb.gram == ((Q(-1), Q(0)), (Q(0), Q(-1)))
        assert all(p < 0 for p in gb.pivots)

    def test_basis_orthogonal_to_class(self):
        rng = random.Random(66)
        for _ in range(200):
            r = rng.randint(0, 12)
            ctx = BlowupContext(2, r)
            D = random_class(rng, ctx, d_range=(1, 9), m_range=(-4, 6))
            if pair(D, D) <= 0:
                continue
            gb = orthogonal_gram(D)
            assert len(gb.basis) == r
            for B in gb.basis:
                assert pair(B, D) == 0

    def test_hodge_negative_pivots(self):
        # the acceptance suite runs 1000; keep a fast version here
        rng = random.Random(67)
        count = 0
        while count < 150:
            r = rng.randint(1, 12)
            ctx = BlowupContext(2, r)
            D = random_class(rng, ctx, d_range=(1, 9), m_range=(-4, 6))
            if pair(D, D) <= 0 or D.d <= 0:
                continue
            gb = orthogonal_gram(D)
            assert all(p < 0 for p in gb.pivots)
            count += 1

    def test_factors_reproduce_gram_and_center(self):
        rng = random.Random(68)
        count = 0
        while count < 60:
            ctx = BlowupContext(2, rng.randint(0, 12))
            D = random_class(rng, ctx, d_range=(1, 9), m_range=(-4, 6))
            if pair(D, D) <= 0:
                continue
            gb = orthogonal_gram(D)
            n = len(gb.basis)
            K = canonical_class(ctx)
            for i in range(n):
                assert gb.L[i][i] == 1 and not any(gb.L[i][i + 1:])
                for j in range(n):
                    assert sum(gb.L[i][t] * gb.pivots[t] * gb.L[j][t]
                               for t in range(n)) == gb.gram[i][j]
                assert (sum(gb.gram[i][j] * gb.center[j] for j in range(n))
                        == -pair(gb.basis[i], K) / 2)
            assert gb.upper == 1 + sum(pair(B, K) * x for B, x in zip(gb.basis, gb.center)) / 4
            count += 1

    def test_rejects_nonpositive_square(self):
        ctx = BlowupContext(2, 2)
        with pytest.raises(ValueError):
            orthogonal_gram(exceptional(ctx, 1))

    def test_ten_point_class_ten_negative_pivots(self):
        ctx = BlowupContext(2, 10)
        gb = orthogonal_gram(DivisorClass(ctx, 10, (3,) * 10))
        assert len(gb.pivots) == 10
        assert all(p < 0 for p in gb.pivots)


class TestGenusUpper:
    def test_h_two_points(self):
        ctx = BlowupContext(2, 2)
        assert orthogonal_genus_upper(hyperplane(ctx)) == Q(5, 4)

    def test_trivial_complement(self):
        ctx = BlowupContext(2, 0)
        assert orthogonal_genus_upper(hyperplane(ctx)) == 1

    def test_ten_point_class_reaches_one(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        upper = orthogonal_genus_upper(D)
        assert upper >= 1
        assert upper == Q(9, 8)

    def test_dominates_candidates(self):
        rng = random.Random(68)
        count = 0
        while count < 40:
            r = rng.randint(1, 8)
            ctx = BlowupContext(2, r)
            D = random_class(rng, ctx, d_range=(1, 7), m_range=(-2, 4))
            if pair(D, D) <= 0 or D.d <= 0:
                continue
            count += 1
            upper = orthogonal_genus_upper(D)
            for x in orthogonal_genus_candidates(D, 1):
                assert arithmetic_genus(x) <= upper


class TestGenusCandidates:
    def test_h_two_points(self):
        # the integer lattice of H-perp contains exactly three classes of
        # genus >= 1: -E1, -E2 and -E1-E2 (all of genus exactly 1)
        ctx = BlowupContext(2, 2)
        got = orthogonal_genus_candidates(hyperplane(ctx), 1)
        expected = {
            DivisorClass(ctx, 0, (1, 0)),
            DivisorClass(ctx, 0, (0, 1)),
            DivisorClass(ctx, 0, (1, 1)),
        }
        assert set(got) == expected
        assert all(arithmetic_genus(x) == 1 for x in got)

    def test_h_two_points_brute_force(self):
        # independent box scan over the coefficients of H-perp
        ctx = BlowupContext(2, 2)
        brute = set()
        for a in range(-4, 5):
            for b in range(-4, 5):
                if (a, b) == (0, 0):
                    continue
                x = DivisorClass(ctx, 0, (-a, -b))
                if arithmetic_genus(x) >= 1:
                    brute.add(x)
        assert set(orthogonal_genus_candidates(hyperplane(ctx), 1)) == brute

    def test_ten_point_class(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        got = orthogonal_genus_candidates(D, 1)
        assert got == (minus_k(ctx),)

    def test_threshold_two_empty_for_mix_class(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        assert orthogonal_genus_candidates(D, 2) == ()

    def test_brute_force_small_contexts(self):
        rng = random.Random(69)
        count = 0
        while count < 25:
            r = rng.randint(1, 3)
            ctx = BlowupContext(2, r)
            D = random_class(rng, ctx, d_range=(1, 5), m_range=(0, 3))
            if pair(D, D) <= 0:
                continue
            count += 1
            got = set(orthogonal_genus_candidates(D, 1))
            # box wide enough to contain everything the walk found, with a
            # completeness margin
            top = max((max(abs(int(x.d)), *(abs(int(mi)) for mi in x.m))
                       for x in got), default=0) + 3
            if top > 14:
                continue
            brute = set()
            for coeffs in itertools.product(range(-top, top + 1), repeat=r + 1):
                x = DivisorClass(ctx, coeffs[0], [-c for c in coeffs[1:]])
                if x.is_zero or pair(x, D) != 0:
                    continue
                if arithmetic_genus(x) >= 1:
                    brute.add(x)
            assert got == brute, (D, got, brute)

    def test_postconditions(self):
        ctx = BlowupContext(2, 14)
        C = DivisorClass(ctx, 4, (2,) + (1,) * 13)
        D = speciality_witness(C, degree_bound=4)
        cands = orthogonal_genus_candidates(D, 1)
        assert C in cands
        for x in cands:
            assert pair(x, D) == 0
            assert arithmetic_genus(x) >= 1

    def test_replay_survives_optimized_mode(self):
        # A walk widened by one step finds classes outside the shell; the
        # replay must refuse them also under python -O, which drops asserts.
        code = (
            "import sys\n"
            "from fatpoints import BlowupContext, DivisorClass, positivity\n"
            "walk = positivity.quadratic_integer_range\n"
            "def wide(c, rho):\n"
            "    z = walk(c, rho)\n"
            "    return range(z.start - 1, z.stop + 1)\n"
            "positivity.quadratic_integer_range = wide\n"
            "D = DivisorClass(BlowupContext(2, 10), 10, (3,) * 10)\n"
            "gb = positivity.orthogonal_gram(D)\n"
            "try:\n"
            "    gb.genus_candidates(1)\n"
            "except AssertionError:\n"
            "    print(sys.flags.optimize, 'raised')\n"
            "else:\n"
            "    print(sys.flags.optimize, 'returned')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.split() == ["1", "raised"]


class TestEffectivity:
    def test_anticanonical_nine(self):
        ctx = BlowupContext(2, 9)
        rep = effectivity_verdict(minus_k(ctx), None)
        assert rep.status is Effectivity.EFFECTIVE
        assert "Riemann-Roch" in rep.route

    def test_negative_h(self):
        ctx = BlowupContext(2, 0)
        rep = effectivity_verdict(DivisorClass(ctx, -1, ()), None)
        assert rep.status is Effectivity.NOT_EFFECTIVE

    def test_double_line_needs_oracle(self):
        ctx = BlowupContext(2, 2)
        D = DivisorClass(ctx, 2, (2, 2))
        rep = effectivity_verdict(D, OracleBudget(seeds=(1, 2)))
        assert rep.status is Effectivity.EFFECTIVE
        assert rep.h0 == 1
        assert rep.caveat is not None

    def test_exceptional_sum(self):
        ctx = BlowupContext(2, 3)
        D = 2 * exceptional(ctx, 1) + exceptional(ctx, 3)
        rep = effectivity_verdict(D, None)
        assert rep.status is Effectivity.EFFECTIVE

    def test_degree_zero_positive_multiplicity(self):
        ctx = BlowupContext(2, 2)
        rep = effectivity_verdict(-1 * exceptional(ctx, 1), None)
        assert rep.status is Effectivity.NOT_EFFECTIVE

    def test_weyl_negative_degree(self):
        ctx = BlowupContext(2, 4)
        D = DivisorClass(ctx, 1, (1, 1, 1, 1))
        rep = effectivity_verdict(D, None)
        assert rep.status is Effectivity.NOT_EFFECTIVE
        assert "Weyl" in rep.route

    def test_anticanonical_ten_not_effective_at_random_points(self):
        ctx = BlowupContext(2, 10)
        rep = effectivity_verdict(minus_k(ctx), OracleBudget(seeds=(1, 2)))
        assert rep.status is Effectivity.NOT_EFFECTIVE
        assert rep.h0 == 0

    def test_anticanonical_ten_effective_on_cubic(self):
        cfg = sample_cubic_torsion(65537, seed=1)
        ctx = BlowupContext(2, 10)
        rep = effectivity_verdict(minus_k(ctx), OracleBudget(config=cfg))
        assert rep.status is Effectivity.EFFECTIVE
        assert rep.caveat is not None

    def test_unknown_without_budget(self):
        ctx = BlowupContext(2, 10)
        rep = effectivity_verdict(minus_k(ctx), None)
        assert rep.status is Effectivity.UNKNOWN

    def test_squared_line_class(self):
        # 2(H - E1 - E2) reduces to an exceptional sum, no oracle needed
        ctx = BlowupContext(2, 3)
        D = DivisorClass(ctx, 2, (2, 2, 0))
        rep = effectivity_verdict(D, None)
        assert rep.status is Effectivity.EFFECTIVE

    def test_configuration_prime_guards_the_degree(self):
        # The budget's default prime exceeds d = 2, the configuration's
        # prime 2 does not: no oracle call, so no ValueError out of it.
        ctx = BlowupContext(2, 2)
        cfg = PointConfig(n=2, prime=2, points=((0, 0), (1, 0)))
        rep = effectivity_verdict(DivisorClass(ctx, 2, (2, 2)), OracleBudget(config=cfg))
        assert rep.status is Effectivity.UNKNOWN

    def test_configuration_prime_overrides_budget_prime(self):
        ctx = BlowupContext(2, 2)
        cfg = PointConfig(n=2, prime=65537, points=((0, 0), (1, 0)))
        rep = effectivity_verdict(DivisorClass(ctx, 2, (2, 2)),
                                  OracleBudget(prime=2, config=cfg))
        assert rep.status is Effectivity.EFFECTIVE
        assert rep.route == "interpolation oracle at the supplied configuration"
        assert rep.h0 == 1


class TestClassifier:
    def test_one_dperp_factorization_per_classification(self, monkeypatch):
        from fatpoints import positivity

        ctx10, ctx14 = BlowupContext(2, 10), BlowupContext(2, 14)
        cases = [
            (hyperplane(BlowupContext(2, 2)), OracleBudget()),
            (DivisorClass(ctx10, 10, (3,) * 10),
             OracleBudget(config=sample_cubic_torsion(65537, seed=1))),
            (speciality_witness(DivisorClass(ctx14, 4, (2,) + (1,) * 13), degree_bound=5),
             OracleBudget(config=sample_nodal_quartic(65537, seed=3))),
        ]
        # Shells walked: genus >= 2 first, genus >= 1 only when nothing in
        # the upper shell was certified effective.
        expected_shells = [[2, 1], [2, 1], [2]]
        calls = Counter()
        for name in ("orthogonal_gram", "ldl_decompose", "solve_linear"):
            def counted(*args, _name=name, _fn=getattr(positivity, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(positivity, name, counted)
        shells = []
        walk = positivity.GramBasis.genus_candidates

        def recorded(self, threshold):
            shells.append(threshold)
            return walk(self, threshold)
        monkeypatch.setattr(positivity.GramBasis, "genus_candidates", recorded)
        for (D, budget), expected in zip(cases, expected_shells):
            calls.clear()
            shells.clear()
            classify_asymptotic(D, degree_bound=5, budget=budget)
            assert calls == {"orthogonal_gram": 1, "ldl_decompose": 1, "solve_linear": 1}
            assert shells == expected

    def test_shell_walk_equals_one_walk(self):
        def same(D, **kwargs):
            assert classify_asymptotic(D, **kwargs) == reference_classify(D, **kwargs)

        # The classes of acceptance criterion 10.
        ctx10, ctx14 = BlowupContext(2, 10), BlowupContext(2, 14)
        D_mix = DivisorClass(ctx10, 10, (3,) * 10)
        quartic = sample_nodal_quartic(65537, seed=3)
        same(hyperplane(BlowupContext(2, 2)), degree_bound=5)
        same(D_mix, degree_bound=5,
             budget=OracleBudget(config=sample_cubic_torsion(65537, seed=1)))
        same(D_mix, degree_bound=5, budget=None)
        # The witnesses of the nodal quartic 4H - 2E_i - sum_{j != i} E_j,
        # each at the sampled configuration with its node (point 0) moved
        # to point i; i = 0 is criterion 10's special class.
        for i in range(14):
            m = [1] * 14
            m[i] = 2
            D = speciality_witness(DivisorClass(ctx14, 4, m), degree_bound=5)
            points = list(quartic.points)
            points.insert(i, points.pop(0))
            config = dataclasses.replace(quartic, points=tuple(points))
            same(D, degree_bound=5, budget=OracleBudget(config=config),
                 genus_threshold=1)
        # Random big screened-nef classes near the direction of -K, with
        # one to ten orthogonal classes of genus 1 and none above, under
        # sampled points, a torsion cubic or no oracle at all.
        rng = random.Random(6)
        budgets = [OracleBudget(seeds=(1,)), OracleBudget(seeds=(2, 3)), None]
        count = 0
        while count < 40:
            r = rng.randint(9, 12)
            d = rng.randint(6, 30)
            D = DivisorClass(BlowupContext(2, r), d,
                             [rng.randint(d // 3 - 1, d // 3 + 1) for _ in range(r)])
            if pair(D, D) <= 0:
                continue
            gb = orthogonal_gram(D)
            if (gb.upper >= 2 or not 0 < len(gb.genus_candidates(1)) <= 10
                    or not screen_nef_surface(D, 5).passed):
                continue
            count += 1
            budget = rng.choice(budgets)
            if r == 10 and rng.random() < 0.5:
                budget = OracleBudget(config=sample_cubic_torsion(65537, seed=1))
            for threshold in (1, 2):
                same(D, degree_bound=5, budget=budget, genus_threshold=threshold)

    def test_h_two_points_non_special(self):
        verdict = classify_asymptotic(hyperplane(BlowupContext(2, 2)),
                                      degree_bound=5)
        assert verdict.tag is SpecialityTag.ASYMPTOTICALLY_NON_SPECIAL
        assert verdict.evidence.lower == 0
        assert verdict.evidence.upper == Q(5, 4)
        assert not verdict.evidence.undecided

    def test_ten_point_class_on_cubic_indeterminate(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        cfg = sample_cubic_torsion(65537, seed=1)
        verdict = classify_asymptotic(D, degree_bound=5,
                                      budget=OracleBudget(config=cfg))
        assert verdict.tag is SpecialityTag.INDETERMINATE
        assert verdict.evidence.witnesses == (minus_k(ctx),)
        assert verdict.evidence.lower == 1

    def test_ten_point_class_at_random_points_non_special(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        verdict = classify_asymptotic(D, degree_bound=5,
                                      budget=OracleBudget(seeds=(1, 2)))
        assert verdict.tag is SpecialityTag.ASYMPTOTICALLY_NON_SPECIAL

    def test_witness_of_genus_two_class_special(self):
        ctx = BlowupContext(2, 14)
        C = DivisorClass(ctx, 4, (2,) + (1,) * 13)
        D = speciality_witness(C, degree_bound=4)
        cfg = sample_nodal_quartic(65537, seed=3)
        verdict = classify_asymptotic(D, degree_bound=4,
                                      budget=OracleBudget(config=cfg))
        assert verdict.tag is SpecialityTag.ASYMPTOTICALLY_SPECIAL
        assert verdict.evidence.lower >= 2
        assert verdict.evidence.witnesses
        for w in verdict.evidence.witnesses:
            assert arithmetic_genus(w) >= 2

    def test_unknown_when_budget_missing(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        verdict = classify_asymptotic(D, degree_bound=5, budget=None)
        assert verdict.tag is SpecialityTag.UNKNOWN
        assert verdict.evidence.undecided == (minus_k(ctx),)

    def test_rejects_non_nef(self):
        ctx = BlowupContext(2, 3)
        with pytest.raises(ValueError):
            classify_asymptotic(exceptional(ctx, 1), degree_bound=3)

    def test_rejects_non_big(self):
        ctx = BlowupContext(2, 9)
        with pytest.raises(ValueError):
            classify_asymptotic(minus_k(ctx), degree_bound=3)


class TestSpecialityWitness:
    def test_rejects_low_genus(self):
        ctx = BlowupContext(2, 3)
        with pytest.raises(ValueError):
            speciality_witness(exceptional(ctx, 1))

    def test_rejects_nonnegative_square(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        with pytest.raises(ValueError):
            speciality_witness(D)

    def test_postconditions(self):
        ctx = BlowupContext(2, 14)
        C = DivisorClass(ctx, 4, (2,) + (1,) * 13)
        D = speciality_witness(C, degree_bound=5)
        assert pair(D, C) == 0
        assert pair(D, D) > 0
        assert screen_nef_surface(D, 5).passed

    def test_expected_projection(self):
        ctx = BlowupContext(2, 14)
        C = DivisorClass(ctx, 4, (2,) + (1,) * 13)
        D = speciality_witness(C, degree_bound=5)
        assert D == DivisorClass(ctx, 195, (91,) + (46,) * 13)


class TestQuadraticFamily:
    def test_integer_instance(self):
        ctx = BlowupContext(2, 8)
        B = DivisorClass(ctx, 6, (2,) * 8)
        rep = null_class_extension(B)
        assert rep.shift == 1 and rep.radicand == 1
        assert rep.integer_class == DivisorClass(BlowupContext(2, 10), 6,
                                                 (2,) * 8 + (2, 0))
        assert screen_nef_surface(rep.integer_class, 10).passed

    def test_identities_hold_symbolically(self):
        rng = random.Random(71)
        ctx = BlowupContext(2, 8)
        checked = 0
        while checked < 100:
            k = rng.randint(3, 12)
            m = [Q(k + rng.randint(-1, 1)) for _ in range(8)]
            d = Q(3 * k + rng.randint(-1, 1))
            if rng.random() < 0.3:
                d += Q(1, 2)
            B = DivisorClass(ctx, d, m)
            bk = pair(B, canonical_class(ctx))
            if 2 * pair(B, B) - bk * bk <= 0:
                continue
            rep = null_class_extension(B)
            assert rep.self_intersection.rational == 0
            assert rep.self_intersection.coefficient == 0
            assert rep.canonical_pairing.rational == 0
            assert rep.canonical_pairing.coefficient == 0
            assert rep.coefficient_plus.conjugate() == rep.coefficient_minus
            checked += 1

    def test_rejects_invalid_base(self):
        ctx = BlowupContext(2, 8)
        with pytest.raises(ValueError):
            null_class_extension(hyperplane(ctx))  # b = (2 - 9)/4 < 0
        with pytest.raises(ValueError):
            null_class_extension(DivisorClass(BlowupContext(2, 7), 6, (2,) * 7))


class TestAdditivity:
    def test_nef_plus_orthogonal_minus_one_sum(self):
        # vdim(M + F) = vdim(M) for screened-nef M and F an orthogonal sum
        # of (-1)-classes with M.F = 0; small version of the 200-case
        # acceptance run
        from tests_support import additivity_pairs

        for M, F in additivity_pairs(30, seed=72):
            total = M + F
            assert vdim(total) == vdim(M)
