import json
import random
from fractions import Fraction as Q

import pytest
from sympy.utilities.iterables import multiset_permutations

from fatpoints import (
    BlowupContext,
    DivisorClass,
    ReductionStatus,
    StandardClassKind,
    blocking_divisor,
    canonical_class,
    cremona_root,
    exceptional,
    fundamental_roots,
    gram_matrix,
    hyperplane,
    is_minus_one_class,
    minus_k,
    minus_one_orbit,
    minus_one_orbit_representatives,
    pair,
    reduce_class,
    reflect,
    standard_class_kind,
)
from fatpoints.weyl import (
    OrbitCacheError,
    cached_minus_one_orbit,
    expand_representatives,
    orbit_cache_path,
    orbit_size,
    read_orbit_cache,
    write_orbit_cache,
)
from tests_support import ldl_negative_definite


def random_class(rng, ctx, lo=-5, hi=8):
    return DivisorClass(ctx, rng.randint(lo, hi),
                        [rng.randint(lo, hi) for _ in range(ctx.r)])


class TestFundamentalRoots:
    def test_three_points(self):
        ctx = BlowupContext(2, 3)
        roots = fundamental_roots(ctx)
        assert [r.divisor for r in roots] == [
            exceptional(ctx, 1) - exceptional(ctx, 2),
            exceptional(ctx, 2) - exceptional(ctx, 3),
            DivisorClass(ctx, 1, (1, 1, 1)),
        ]

    def test_all_have_square_minus_two(self):
        ctx = BlowupContext(2, 7)
        for root in fundamental_roots(ctx):
            assert pair(root.divisor, root.divisor) == -2
            assert pair(root.divisor, canonical_class(ctx)) == 0

    def test_count_ten_points(self):
        assert len(fundamental_roots(BlowupContext(2, 10))) == 10

    def test_small_r_has_no_cremona(self):
        assert len(fundamental_roots(BlowupContext(2, 2))) == 1
        assert len(fundamental_roots(BlowupContext(2, 1))) == 0

    def test_root_validation(self):
        from fatpoints import Root

        ctx = BlowupContext(2, 3)
        with pytest.raises(ValueError):
            Root(hyperplane(ctx))


class TestReflect:
    def test_h_through_cremona(self):
        ctx = BlowupContext(2, 3)
        got = reflect(hyperplane(ctx), cremona_root(ctx))
        assert got == DivisorClass(ctx, 2, (1, 1, 1))

    def test_exceptional_through_cremona(self):
        ctx = BlowupContext(2, 3)
        got = reflect(exceptional(ctx, 3), cremona_root(ctx))
        assert got == DivisorClass(ctx, 1, (1, 1, 0))

    def test_involution(self):
        rng = random.Random(21)
        ctx = BlowupContext(2, 6)
        roots = fundamental_roots(ctx)
        for _ in range(50):
            D = random_class(rng, ctx)
            R = rng.choice(roots)
            assert reflect(reflect(D, R), R) == D

    def test_preserves_pairing(self):
        rng = random.Random(22)
        ctx = BlowupContext(2, 6)
        roots = fundamental_roots(ctx)
        for _ in range(50):
            D, E = random_class(rng, ctx), random_class(rng, ctx)
            R = rng.choice(roots)
            assert pair(reflect(D, R), reflect(E, R)) == pair(D, E)

    def test_fixes_canonical_class(self):
        ctx = BlowupContext(2, 8)
        K = canonical_class(ctx)
        for R in fundamental_roots(ctx):
            assert reflect(K, R) == K

    def test_preserves_positive_cone(self):
        from fatpoints import in_positive_cone

        rng = random.Random(25)
        ctx = BlowupContext(2, 6)
        roots = fundamental_roots(ctx)
        for _ in range(80):
            D = random_class(rng, ctx)
            image = reflect(D, rng.choice(roots))
            # D^2 is invariant; the degree sign may flip only outside the
            # light cone, so membership is preserved.
            if pair(D, D) >= 0:
                assert in_positive_cone(image) == in_positive_cone(D)


class TestReduce:
    def test_exceptional_already_reduced(self):
        ctx = BlowupContext(2, 4)
        rep = reduce_class(exceptional(ctx, 4))
        assert rep.status is ReductionStatus.PSEUDOSTANDARD_NEGATIVE_TAIL
        assert rep.result == exceptional(ctx, 4)
        assert rep.trace == ()

    def test_conic_three_points(self):
        # 2 >= 1+1+1 fails, one Cremona step lands on H.
        ctx = BlowupContext(2, 3)
        rep = reduce_class(DivisorClass(ctx, 2, (1, 1, 1)))
        assert rep.status is ReductionStatus.STANDARD
        assert rep.result == hyperplane(ctx)
        assert len(rep.trace) == 1

    def test_big_class_untouched(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 10, (3,) * 10)
        rep = reduce_class(D)
        assert rep.status is ReductionStatus.STANDARD
        assert rep.result == D
        assert rep.trace == ()

    def test_degree_goes_negative(self):
        # H - E1 - E2 - E3 - E4 is not effective: reduction certifies it.
        ctx = BlowupContext(2, 4)
        rep = reduce_class(DivisorClass(ctx, 1, (1, 1, 1, 1)))
        assert rep.status is ReductionStatus.DEGREE_WENT_NEGATIVE
        assert rep.result.d < 0

    def test_replay_reproduces_result(self):
        rng = random.Random(23)
        ctx = BlowupContext(2, 7)
        for _ in range(100):
            D = random_class(rng, ctx)
            rep = reduce_class(D)
            assert rep.replay() == rep.result

    def test_result_is_pseudostandard_or_negative(self):
        rng = random.Random(24)
        ctx = BlowupContext(2, 6)
        for _ in range(100):
            rep = reduce_class(random_class(rng, ctx))
            d, m = rep.result.d, rep.result.m
            if rep.status is ReductionStatus.DEGREE_WENT_NEGATIVE:
                assert d < 0
            else:
                assert all(m[i] >= m[i + 1] for i in range(len(m) - 1))
                assert d >= m[0] + m[1] + m[2]
                assert (rep.status is ReductionStatus.STANDARD) == (m[-1] >= 0)

    def test_rejects_rational(self):
        ctx = BlowupContext(2, 3)
        with pytest.raises(ValueError):
            reduce_class(DivisorClass(ctx, Q(1, 2), (0, 0, 0)))

    def test_rejects_small_r(self):
        ctx = BlowupContext(2, 2)
        with pytest.raises(ValueError):
            reduce_class(hyperplane(ctx))


class TestMinusOneRecognition:
    def test_exceptional(self):
        assert is_minus_one_class(exceptional(BlowupContext(2, 5), 5))

    def test_line_through_two(self):
        ctx = BlowupContext(2, 3)
        assert is_minus_one_class(DivisorClass(ctx, 1, (1, 1, 0)))

    def test_h_minus_e1_not(self):
        ctx = BlowupContext(2, 3)
        assert not is_minus_one_class(DivisorClass(ctx, 1, (1, 0, 0)))

    def test_wrong_genus_combination(self):
        ctx = BlowupContext(2, 9)
        # (-2)-class: 3H - 2E1 - E2..E8 has square -2
        D = DivisorClass(ctx, 3, (2, 1, 1, 1, 1, 1, 1, 1, 0))
        assert pair(D, D) == -2
        assert not is_minus_one_class(D)

    def test_small_r(self):
        ctx = BlowupContext(2, 2)
        assert is_minus_one_class(exceptional(ctx, 1))
        # without the Cremona root the line through 2 points is not in the
        # orbit of E_2
        assert not is_minus_one_class(DivisorClass(ctx, 1, (1, 1)))


class TestOrbit:
    def test_three_points_bound_one(self):
        ctx = BlowupContext(2, 3)
        got = set()
        for C in minus_one_orbit(ctx, 1):
            got.add((int(C.d), tuple(int(x) for x in C.m)))
        expected = {
            (0, (-1, 0, 0)), (0, (0, -1, 0)), (0, (0, 0, -1)),
            (1, (1, 1, 0)), (1, (1, 0, 1)), (1, (0, 1, 1)),
        }
        assert got == expected

    def test_soundness(self):
        for r, bound in [(3, 2), (6, 3), (9, 4)]:
            ctx = BlowupContext(2, r)
            K = canonical_class(ctx)
            orbit = minus_one_orbit(ctx, bound)
            assert orbit, (r, bound)
            for C in orbit:
                assert pair(C, C) == -1
                assert pair(C, K) == -1

    def test_degree_three_class_r9(self):
        ctx = BlowupContext(2, 9)
        orbit = {(int(C.d), tuple(int(x) for x in C.m))
                 for C in minus_one_orbit(ctx, 3)}
        cubic = (3, (2, 1, 1, 1, 1, 1, 1, 0, 0))
        assert cubic in orbit

    def test_classical_counts(self):
        # del Pezzo degree >= 3: all (-1)-classes have degree <= 3.
        ctx = BlowupContext(2, 6)
        assert len(minus_one_orbit(ctx, 3)) == 27

    def test_representatives_sorted_unique(self):
        reps = minus_one_orbit_representatives(BlowupContext(2, 8), 4)
        assert reps == sorted(set(reps))
        for d, m in reps:
            assert list(m) == sorted(m, reverse=True)

    def test_deterministic(self):
        ctx = BlowupContext(2, 7)
        assert minus_one_orbit(ctx, 3) == minus_one_orbit(ctx, 3)


class TestOrbitFromRepresentatives:
    RANGE = [(r, bound) for r in range(11) for bound in range(7)]

    def test_count_equals_orbit_length(self):
        for r, bound in self.RANGE:
            ctx = BlowupContext(2, r)
            reps = minus_one_orbit_representatives(ctx, bound)
            assert orbit_size(reps) == len(minus_one_orbit(ctx, bound)), (r, bound)

    def test_lazy_listing_matches_multiset_expansion_in_order(self):
        for r, bound in self.RANGE:
            ctx = BlowupContext(2, r)
            reps = minus_one_orbit_representatives(ctx, bound)
            expanded = sorted((d, tuple(perm)) for d, m in reps
                              for perm in multiset_permutations(list(m)))
            assert list(expand_representatives(reps)) == expanded, (r, bound)

    def test_orbit_is_built_from_the_lazy_listing(self):
        ctx = BlowupContext(2, 8)
        assert [(int(C.d), tuple(int(x) for x in C.m)) for C in minus_one_orbit(ctx, 4)] \
            == list(expand_representatives(minus_one_orbit_representatives(ctx, 4)))

    def test_listing_is_lazy(self):
        ctx = BlowupContext(2, 10)
        reps = minus_one_orbit_representatives(ctx, 12)
        first = next(expand_representatives(reps))
        assert first == (0, (-1, 0, 0, 0, 0, 0, 0, 0, 0, 0))


class TestOrbitCache:
    def test_round_trip(self, tmp_path):
        ctx = BlowupContext(2, 5)
        reps = minus_one_orbit_representatives(ctx, 2)
        path = tmp_path / "orbit.jsonl"
        write_orbit_cache(path, ctx, 2, reps)
        ctx2, bound2, reps2 = read_orbit_cache(path)
        assert (ctx2, bound2) == (ctx, 2)
        assert reps2 == reps

    @staticmethod
    def cached(tmp_path, r=7, bound=4):
        ctx = BlowupContext(2, r)
        path = orbit_cache_path(tmp_path, ctx, bound)
        reps = cached_minus_one_orbit(ctx, bound, tmp_path)
        assert reps == minus_one_orbit_representatives(ctx, bound)
        return ctx, path, reps

    def assert_rejected_then_regenerated(self, tmp_path, ctx, path, reps, bound=4):
        with pytest.raises(OrbitCacheError):
            read_orbit_cache(path)
        assert cached_minus_one_orbit(ctx, bound, tmp_path) == reps
        assert read_orbit_cache(path) == (ctx, bound, reps)

    def test_tampered_line_rejected(self, tmp_path):
        ctx, path, reps = self.cached(tmp_path)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[3])
        entry["d"] += 1
        lines[3] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        self.assert_rejected_then_regenerated(tmp_path, ctx, path, reps)

    def test_unsorted_line_rejected(self, tmp_path):
        ctx, path, reps = self.cached(tmp_path)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[-1])
        entry["m"] = entry["m"][::-1]
        lines[-1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        self.assert_rejected_then_regenerated(tmp_path, ctx, path, reps)

    def test_torn_file_rejected(self, tmp_path):
        ctx, path, reps = self.cached(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        self.assert_rejected_then_regenerated(tmp_path, ctx, path, reps)

    def test_file_torn_at_line_boundary_rejected(self, tmp_path):
        ctx, path, reps = self.cached(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        self.assert_rejected_then_regenerated(tmp_path, ctx, path, reps)

    def test_empty_file_rejected(self, tmp_path):
        ctx, path, reps = self.cached(tmp_path)
        path.write_text("")
        self.assert_rejected_then_regenerated(tmp_path, ctx, path, reps)

    def test_old_format_rejected(self, tmp_path):
        ctx, path, reps = self.cached(tmp_path)
        # the unversioned format: header without "format", then every member
        lines = [json.dumps({"bound": 4, "ctx": {"n": 2, "r": 7}})]
        lines += [json.dumps({"n": 2, "r": 7, "d": d, "m": list(m)})
                  for d, m in expand_representatives(minus_one_orbit_representatives(ctx, 4))]
        path.write_text("\n".join(lines) + "\n")
        self.assert_rejected_then_regenerated(tmp_path, ctx, path, reps)

    def test_other_key_regenerated(self, tmp_path):
        ctx, path, reps = self.cached(tmp_path)
        write_orbit_cache(path, ctx, 3, minus_one_orbit_representatives(ctx, 3))
        assert cached_minus_one_orbit(ctx, 4, tmp_path) == reps
        assert read_orbit_cache(path) == (ctx, 4, reps)

    def test_valid_file_is_reused(self, tmp_path):
        ctx, path, reps = self.cached(tmp_path)
        stamp = path.stat().st_mtime_ns
        assert cached_minus_one_orbit(ctx, 4, tmp_path) == reps
        assert path.stat().st_mtime_ns == stamp


class TestStandardClassification:
    def test_anticanonical_nine(self):
        ctx = BlowupContext(2, 9)
        assert standard_class_kind(minus_k(ctx)) is StandardClassKind.MINUS_K9_MULTIPLE

    def test_anticanonical_nine_padded(self):
        ctx = BlowupContext(2, 10)
        D = DivisorClass(ctx, 6, (2,) * 9 + (0,))
        assert standard_class_kind(D) is StandardClassKind.MINUS_K9_MULTIPLE

    def test_h_minus_e1_multiple(self):
        ctx = BlowupContext(2, 4)
        D = DivisorClass(ctx, 2, (2, 0, 0, 0))
        assert standard_class_kind(D) is StandardClassKind.H_MINUS_E1_MULTIPLE

    def test_rational_multiple(self):
        ctx = BlowupContext(2, 9)
        D = Q(1, 2) * minus_k(ctx)
        assert standard_class_kind(D) is StandardClassKind.MINUS_K9_MULTIPLE

    def test_positive_square_rejected(self):
        ctx = BlowupContext(2, 3)
        with pytest.raises(ValueError):
            standard_class_kind(DivisorClass(ctx, 4, (2, 1, 1)))

    def test_unsorted_rejected(self):
        ctx = BlowupContext(2, 3)
        with pytest.raises(ValueError):
            standard_class_kind(DivisorClass(ctx, 3, (0, 1, 1)))

    def test_zero_class_degenerate(self):
        ctx = BlowupContext(2, 3)
        D = DivisorClass(ctx, 0, (0, 0, 0))
        assert standard_class_kind(D) is StandardClassKind.H_MINUS_E1_MULTIPLE


class TestBlockingDivisor:
    def test_single_exceptional(self):
        ctx = BlowupContext(2, 2)
        E = blocking_divisor([exceptional(ctx, 1)])
        assert E == exceptional(ctx, 1)

    def test_chain(self):
        ctx = BlowupContext(2, 2)
        C1 = exceptional(ctx, 1) - exceptional(ctx, 2)
        C2 = exceptional(ctx, 2)
        E = blocking_divisor([C1, C2])
        # Gram [[-2,1],[1,-1]] gives coefficients (2,3): E = 2E1 + E2.
        assert E == 2 * exceptional(ctx, 1) + exceptional(ctx, 2)
        assert pair(E, C1) == -1 and pair(E, C2) == -1

    def test_disjoint_pair(self):
        ctx = BlowupContext(2, 2)
        E = blocking_divisor([exceptional(ctx, 1), exceptional(ctx, 2)])
        assert E == exceptional(ctx, 1) + exceptional(ctx, 2)

    def test_negative_pairings_always(self):
        rng = random.Random(31)
        ctx = BlowupContext(2, 6)
        pool = minus_one_orbit(ctx, 2)
        for _ in range(40):
            subset = rng.sample(pool, rng.randint(1, 4))
            if not ldl_negative_definite(gram_matrix(subset)):
                continue
            if any(pair(a, b) < 0 for i, a in enumerate(subset)
                   for b in subset[i + 1:]):
                continue
            E = blocking_divisor(subset)
            assert all(pair(E, C) < 0 for C in subset)

    def test_indefinite_rejected(self):
        ctx = BlowupContext(2, 2)
        with pytest.raises(ValueError):
            blocking_divisor([hyperplane(ctx)])
        # (H - E1)^2 = 0: the LDL stops at a zero pivot, still a ValueError.
        with pytest.raises(ValueError, match="not negative definite"):
            blocking_divisor([hyperplane(ctx) - exceptional(ctx, 1)])
