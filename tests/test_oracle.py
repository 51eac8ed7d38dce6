import math
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import Matrix

from fatpoints import (
    BlowupContext,
    DivisorClass,
    conditions_matrix,
    exceptional,
    h0_at_config,
    linear_system_dimension,
    p4_quadric_table,
    rank_mod_p,
    sample_cubic_torsion,
    sample_general,
    sample_nodal_quartic,
)
from fatpoints.elliptic import CubicCurve, legendre_symbols
from fatpoints.oracle import PointConfig, affine_exponents, check_prime, nullspace_mod_p

PRIME = 65537


class TestEllipticCurve:
    def make(self, seed):
        rng = random.Random(seed)
        p = 4099
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            try:
                return CubicCurve(a, b, p)
            except ValueError:
                continue

    def test_group_law_spot_checks(self):
        curve = self.make(1)
        rng = random.Random(7)
        pts = []
        while len(pts) < 12:
            x = rng.randrange(curve.p)
            ys = curve.y_coordinates(x)
            if ys:
                pts.append((x, rng.choice(ys)))
        for _ in range(100):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            left = curve.add(curve.add(P, Q), R)
            right = curve.add(P, curve.add(Q, R))
            assert left == right
            assert curve.add(P, curve.negate(P)) is None
            assert curve.add(P, None) == P

    def test_point_count_hasse(self):
        for seed in range(5):
            curve = self.make(seed)
            n = curve.point_count()
            assert (n - curve.p - 1) ** 2 <= 4 * curve.p

    def test_point_count_matches_brute_force(self):
        curve = CubicCurve(2, 3, 97)
        brute = 1 + sum(len(curve.y_coordinates(x)) for x in range(97))
        assert curve.point_count() == brute

    def test_scalar_multiple_order(self):
        curve = self.make(3)
        n = curve.point_count()
        rng = random.Random(5)
        for _ in range(5):
            x = rng.randrange(curve.p)
            ys = curve.y_coordinates(x)
            if not ys:
                continue
            P = (x, ys[0])
            assert curve.multiply(n, P) is None

    def test_y_coordinates_match_square_scan(self):
        # p - 1 has 2-adic valuation 1, 1, 4, 5 and 8: every branch of
        # Tonelli-Shanks runs.
        for p in (7, 11, 113, 97, 257):
            squares = {}
            for y in range(p):
                squares.setdefault(y * y % p, []).append(y)
            for a, b in ((1, 1), (2, 3), (3, 5)):
                try:
                    curve = CubicCurve(a, b, p)
                except ValueError:
                    continue
                for x in range(p):
                    t = (x ** 3 + a * x + b) % p
                    assert curve.y_coordinates(x) == sorted(squares.get(t, []))

    def test_y_coordinates_match_sympy_at_65537(self):
        # 65536 = 2^16: the longest Tonelli-Shanks descent for this prime.
        from sympy.ntheory.residue_ntheory import sqrt_mod

        curve = CubicCurve(2, 3, PRIME)
        for x in range(0, PRIME, 29):
            t = (x ** 3 + 2 * x + 3) % PRIME
            assert curve.y_coordinates(x) == sorted(sqrt_mod(t, PRIME, all_roots=True))

    def test_legendre(self):
        p = 103
        syms = legendre_symbols(np.arange(p, dtype=np.int64), p)
        squares = {x * x % p for x in range(1, p)}
        for v in range(p):
            expect = 0 if v == 0 else (1 if v in squares else -1)
            assert syms[v] == expect


class TestRank:
    def test_rank_small(self):
        M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
        assert rank_mod_p(M, PRIME) == 2

    def test_rank_matches_sympy(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rows, cols = rng.integers(1, 12, size=2)
            M = rng.integers(-9, 10, size=(int(rows), int(cols)))
            expected = Matrix(M.tolist()).rank()
            # entries are small, so the rational rank equals the rank mod a
            # large prime
            assert rank_mod_p(M, PRIME) == expected

    @staticmethod
    def check_nullspace(p, size):
        rng = np.random.default_rng(7)
        # Unit upper triangular, so full column rank: the kernel is empty.
        square = np.triu(rng.integers(0, p, size=(5, 5)), 1) + np.eye(5, dtype=np.int64)
        assert nullspace_mod_p(square, p) == []
        for i in range(20):
            rows, cols = rng.integers(1, size, size=2)
            M = rng.integers(0, p, size=(int(rows), int(cols)))
            if i % 2:
                M[:, -1] = M[:, 0]      # a free column past the first pivot
            basis = nullspace_mod_p(M, p)
            assert len(basis) == int(cols) - rank_mod_p(M, p)
            # Column c is free iff it lies in the span of the columns before it.
            free = [c for c in range(cols)
                    if rank_mod_p(M[:, :c + 1], p) == rank_mod_p(M[:, :c], p)]
            assert len(free) == len(basis)
            for f, v in zip(free, basis):
                assert [int(v[c]) for c in free] == [int(c == f) for c in free]
                assert not (M.astype(object) @ v.astype(object) % p).any()

    def test_nullspace(self):
        self.check_nullspace(101, 8)

    @pytest.mark.parametrize("kernel", [rank_mod_p, nullspace_mod_p])
    def test_kernels_refuse_primes_beyond_int64_range(self, kernel):
        # At p = 2^61 - 1 products of residues overflow int64 silently.
        M = np.array([[1, 2], [3, 4]], dtype=np.int64)
        with pytest.raises(ValueError, match="below 2\\^31"):
            kernel(M, 2 ** 61 - 1)

    def test_nullspace_near_int64_limit(self):
        # A plain int64 dot product of residues near 2^31 overflows after a
        # few terms, so this prime gets wide matrices.
        self.check_nullspace(2 ** 31 - 1, 40)


class TestConditionsMatrix:
    def test_one_simple_point(self):
        ctx = BlowupContext(2, 1)
        cfg = sample_general(2, 1, PRIME, seed=1)
        M = conditions_matrix(DivisorClass(ctx, 1, (1,)), cfg)
        assert M.shape == (1, 3)
        assert rank_mod_p(M, PRIME) == 1

    def test_shape_14_points(self):
        ctx = BlowupContext(4, 14)
        cfg = sample_general(4, 14, PRIME, seed=1)
        M = conditions_matrix(DivisorClass(ctx, 2, (1,) * 14), cfg)
        assert M.shape == (14, 15)

    def test_row_counts_fat_point(self):
        ctx = BlowupContext(2, 1)
        cfg = sample_general(2, 1, PRIME, seed=2)
        M = conditions_matrix(DivisorClass(ctx, 5, (3,)), cfg)
        assert M.shape == (math.comb(3 + 1, 2), math.comb(7, 2))

    def test_prime_must_exceed_degree(self):
        ctx = BlowupContext(2, 1)
        cfg = PointConfig(n=2, prime=5, points=((1, 2),))
        with pytest.raises(ValueError):
            conditions_matrix(DivisorClass(ctx, 7, (1,)), cfg)

    def test_rows_annihilate_vanishing_polynomial(self):
        # the conditions of multiplicity 2 at (x0, y0) kill (x-x0)^2*(stuff)
        p = 101
        ctx = BlowupContext(2, 1)
        cfg = PointConfig(n=2, prime=p, points=((3, 4),))
        M = conditions_matrix(DivisorClass(ctx, 2, (2,)), cfg)
        exps = affine_exponents(2, 2)
        # (x - 3)^2 = x^2 - 6x + 9
        coeffs = np.zeros(len(exps), dtype=np.int64)
        for i, (ex, ey) in enumerate(exps):
            if (ex, ey) == (2, 0):
                coeffs[i] = 1
            elif (ex, ey) == (1, 0):
                coeffs[i] = (-6) % p
            elif (ex, ey) == (0, 0):
                coeffs[i] = 9
        assert not (M @ coeffs % p).any()


class TestH0:
    def test_pencil_of_lines(self):
        ctx = BlowupContext(2, 1)
        res = linear_system_dimension(DivisorClass(ctx, 1, (1,)), seeds=(1,))
        assert (res.h0, res.rank) == (2, 1)

    def test_all_cubics(self):
        ctx = BlowupContext(2, 0)
        res = linear_system_dimension(DivisorClass(ctx, 3, ()), seeds=(1,))
        assert res.h0 == 10

    def test_double_line(self):
        ctx = BlowupContext(2, 2)
        D = DivisorClass(ctx, 2, (2, 2))
        res = linear_system_dimension(D, seeds=(1, 2))
        assert res.h0 == 1
        assert res.vdim == -1
        assert res.special

    def test_double_line_rank_cross_check(self):
        # independent exact rank over Q via sympy: with small coordinates the
        # entries never wrap mod p, so the integer matrix is the true one
        ctx = BlowupContext(2, 2)
        cfg = PointConfig(n=2, prime=PRIME, points=((0, 0), (1, 1)))
        M = conditions_matrix(DivisorClass(ctx, 2, (2, 2)), cfg)
        assert int(M.max()) < PRIME // 2
        assert Matrix(M.tolist()).rank() == rank_mod_p(M, PRIME) == 5

    def test_negative_degree(self):
        ctx = BlowupContext(2, 0)
        res = linear_system_dimension(DivisorClass(ctx, -1, ()), seeds=(1,))
        assert res.h0 == 0

    def test_negative_multiplicities_clamped(self):
        # extra exceptional components do not change h0
        ctx = BlowupContext(2, 2)
        base = DivisorClass(ctx, 2, (1, 0))
        twisted = DivisorClass(ctx, 2, (1, -3))
        cfg = sample_general(2, 2, PRIME, seed=4)
        assert h0_at_config(base, cfg)[0] == h0_at_config(twisted, cfg)[0]
        # a multiplicity <= 0 imposes no rows
        assert np.array_equal(conditions_matrix(twisted, cfg),
                              conditions_matrix(base, cfg))

    def test_h1_by_duality_guard(self):
        ctx = BlowupContext(2, 9)
        from fatpoints import minus_k

        res = linear_system_dimension(minus_k(ctx), seeds=(1, 2))
        # one cubic through 9 general points; vdim 0 so h1 = 0
        assert res.h0 == 1 and res.h1 == 0 and not res.special

    def test_min_over_seeds_monotone(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        one = linear_system_dimension(D, seeds=(1,))
        three = linear_system_dimension(D, seeds=(1, 2, 3))
        five = linear_system_dimension(D, seeds=(1, 2, 3, 4, 5))
        assert one.h0 >= three.h0 >= five.h0
        # generic rank has stabilized
        assert three.h0 == five.h0


class TestSamplers:
    def test_general_distinct_deterministic(self):
        cfg1 = sample_general(3, 20, PRIME, seed=9)
        cfg2 = sample_general(3, 20, PRIME, seed=9)
        assert cfg1.points == cfg2.points
        assert len(set(cfg1.points)) == 20

    def test_torsion_postconditions(self):
        cfg = sample_cubic_torsion(PRIME, seed=1)
        curve = CubicCurve(cfg.meta["a"], cfg.meta["b"], PRIME)
        torsion = cfg.meta["torsion"]
        assert curve.contains(torsion) and torsion[1] == 0
        assert cfg.meta["order"] % 3 != 0
        for pt in cfg.points:
            assert curve.contains(pt)
        total = curve.sum_points(cfg.points)
        # 3 * sum + T = O, i.e. the class is exactly the 2-torsion point
        assert curve.add(curve.multiply(3, total), torsion) is None
        assert curve.multiply(2, torsion) is None

    def test_torsion_seeds_give_distinct_curves(self):
        cfg1 = sample_cubic_torsion(PRIME, seed=1)
        cfg2 = sample_cubic_torsion(PRIME, seed=2)
        assert (cfg1.meta["a"], cfg1.meta["b"]) != (cfg2.meta["a"], cfg2.meta["b"])

    def test_nodal_quartic_vanishing(self):
        cfg = sample_nodal_quartic(PRIME, seed=3)
        assert cfg.r == 14
        coeffs = np.array(cfg.meta["coefficients"], dtype=np.int64)
        exps = affine_exponents(2, 4)
        for x, y in cfg.points:
            val = 0
            for (ex, ey), c in zip(exps, coeffs):
                val = (val + int(c) * pow(x, int(ex), PRIME) * pow(y, int(ey), PRIME)) % PRIME
            assert val == 0
        # the strict transform class is effective at this configuration
        ctx = BlowupContext(2, 14)
        C = DivisorClass(ctx, 4, (2,) + (1,) * 13)
        h0, _ = h0_at_config(C, cfg)
        assert h0 >= 1


    NODAL_POINTS = {
        1: ((40938, 62486), (23274, 35823), (20376, 37426), (7757, 34491),
            (55255, 25481), (7893, 13754), (61574, 21824), (41871, 35785),
            (16969, 55293), (24867, 54742), (25620, 22381), (10880, 28699),
            (22346, 4323), (37212, 22314)),
        2: ((57141, 7787), (17001, 41588), (6749, 1473), (54067, 21618),
            (20856, 4183), (57877, 37901), (34916, 16241), (27480, 62738),
            (32590, 40305), (10382, 32507), (9948, 14738), (51006, 54998),
            (20676, 63185), (65341, 32418)),
        3: ((56053, 6850), (54622, 56248), (9344, 30410), (35679, 23654),
            (34081, 14427), (31806, 24421), (47765, 53099), (8137, 50731),
            (17473, 57029), (33765, 50218), (22242, 3021), (54393, 5078),
            (11316, 28656), (52109, 63935)),
    }

    @pytest.mark.parametrize("seed", sorted(NODAL_POINTS))
    def test_nodal_quartic_points_frozen(self, seed):
        # Drawn through the kernel basis of the node conditions, so this
        # pins the shape of every vector nullspace_mod_p returns.
        assert sample_nodal_quartic(PRIME, seed).points == self.NODAL_POINTS[seed]


class TestConfigValidation:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            PointConfig(n=2, prime=101, points=((1, 2), (1, 2)))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            PointConfig(n=3, prime=101, points=((1, 2),))

    def test_invalid_prime_rejected(self):
        ctx = BlowupContext(2, 1)
        with pytest.raises(ValueError):
            linear_system_dimension(DivisorClass(ctx, 1, (1,)), prime=10,
                                    seeds=(1,))

    def test_prime_range_keeps_int64_products_exact(self):
        # At p = 2^61 - 1 the products of residues overflowed int64 and the
        # double conic 4H - 2(E1+...+E5) came out with h0 = 0, a false
        # certificate of non-effectivity; such primes are now refused.
        D = DivisorClass(BlowupContext(2, 5), 4, (2,) * 5)
        for p in (2 ** 61 - 1, 2147483659):   # the latter: least prime > 2^31
            with pytest.raises(ValueError, match="below 2\\^31"):
                check_prime(p)
            cfg = PointConfig(n=2, prime=p, points=tuple((i, i * i) for i in range(5)))
            with pytest.raises(ValueError, match="below 2\\^31"):
                conditions_matrix(D, cfg)
            with pytest.raises(ValueError):
                linear_system_dimension(D, prime=p, seeds=(1,))
        # the largest accepted prime still gives the exact answer
        assert linear_system_dimension(D, prime=2 ** 31 - 1, seeds=(1, 2)).h0 == 1

    def test_check_prime_matches_sympy(self):
        from sympy import isprime

        rng = random.Random(2024)
        cases = [*range(5000), *(rng.randrange(2 ** 31) for _ in range(3000)), 2 ** 31 - 1]
        for n in cases:
            try:
                accepted = check_prime(n) == n
            except ValueError:
                accepted = False
            assert accepted == isprime(n), n
        # composites at or above 2^31 are refused as too large
        with pytest.raises(ValueError, match="too large"):
            check_prime(2 ** 31 + 1)

    def test_explicit_config_prime_must_exceed_degree(self):
        ctx = BlowupContext(2, 1)
        cfg = PointConfig(n=2, prime=3, points=((1, 2),))
        with pytest.raises(ValueError, match="must exceed the degree"):
            h0_at_config(DivisorClass(ctx, 4, (1,)), cfg)
        with pytest.raises(ValueError, match="must exceed the degree"):
            linear_system_dimension(DivisorClass(ctx, 4, (1,)), config=cfg)

    def test_too_few_points_rejected(self):
        # zip used to drop the third point: h0 = 4 and special instead of
        # 3 and non-special
        D = DivisorClass(BlowupContext(2, 3), 2, (1, 1, 1))
        cfg = sample_general(2, 2, PRIME, seed=1)
        with pytest.raises(ValueError, match="does not match"):
            linear_system_dimension(D, config=cfg)
        with pytest.raises(ValueError, match="does not match"):
            h0_at_config(D, cfg)

    def test_wrong_dimension_rejected(self):
        D = DivisorClass(BlowupContext(2, 3), 2, (1, 1, 1))
        cfg = sample_general(3, 3, PRIME, seed=1)
        with pytest.raises(ValueError, match="does not match"):
            h0_at_config(D, cfg)

    def test_non_integral_class_rejected(self):
        # the degree used to be truncated: 5/2 H - E1 - E2 - E3 gave (3, 3)
        D = DivisorClass(BlowupContext(2, 3), Fraction(5, 2), (1, 1, 1))
        cfg = sample_general(2, 3, PRIME, seed=1)
        with pytest.raises(ValueError, match="integral"):
            h0_at_config(D, cfg)

    def test_p4_quadric_row_frozen(self):
        # demo 04 and `demo ex-14pts` read these keys, in this order
        rows = p4_quadric_table(seeds=(1,), m_max=1)
        assert [list(row.items()) for row in rows] == [[
            ("m", 1), ("vdim", 0), ("edim", 0), ("h0", 1), ("h1", None),
            ("special", False)]]

    def test_h0_plus_rank_is_column_count(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        res = linear_system_dimension(D, seeds=(1,))
        assert res.h0 + res.rank == math.comb(int(D.d) + 2, 2)


class TestSpecialPosition:
    def test_torsion_points_are_not_general(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        cfg = sample_cubic_torsion(PRIME, seed=1)
        special = linear_system_dimension(2 * D, config=cfg)
        generic = linear_system_dimension(2 * D, seeds=(1, 2))
        assert special.h0 > generic.h0
