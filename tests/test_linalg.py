import random
from fractions import Fraction as Q

import pytest

from fatpoints.linalg import (
    LinearAlgebraError,
    floor_sqrt,
    integer_kernel_of_row,
    ldl_decompose,
    quadratic_integer_range,
    rational_sqrt,
    solve_linear,
)
from tests_support import ldl_negative_definite, reference_ldl


def ldl_solve(A, b):
    L, pivots = ldl_decompose(A)
    return solve_linear(L, pivots, b)


def test_solve_small_system():
    A = [[Q(-2), Q(1)], [Q(1), Q(-1)]]
    assert ldl_solve(A, [Q(-1), Q(-1)]) == [Q(2), Q(3)]


def test_solve_singular_raises():
    with pytest.raises(LinearAlgebraError):
        ldl_decompose([[Q(1), Q(1)], [Q(1), Q(1)]])
    with pytest.raises(LinearAlgebraError):
        ldl_decompose([[Q(0)]])


def random_symmetric(rng, n, kind, integral, scale):
    """A random symmetric n x n matrix: definite of either sign or indefinite."""
    def entry():
        num = rng.randint(-9, 9) * scale
        return Q(num) if integral else Q(num, rng.randint(1, 12))

    B = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "indefinite":
        return [[B[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    sign = 1 if kind == "positive" else -1
    # +-(B^T B + I) is definite of the chosen sign.
    return [[sign * (sum(B[k][i] * B[k][j] for k in range(n)) + (i == j))
             for j in range(n)] for i in range(n)]


def test_ldl_matches_textbook_elimination():
    rng = random.Random(5)
    raised = beyond_64_bits = 0
    for trial in range(240):
        n = trial % 11
        kind = rng.choice(("positive", "negative", "indefinite"))
        G = random_symmetric(rng, n, kind, integral=rng.random() < 0.5,
                             scale=rng.choice((1, 1, 2 ** 70)))
        beyond_64_bits += any(abs(x) > 2 ** 64 for row in G for x in row)
        try:
            expected = reference_ldl(G)
        except LinearAlgebraError:
            raised += 1
            with pytest.raises(LinearAlgebraError):
                ldl_decompose(G)
            continue
        L, pivots = ldl_decompose(G)
        assert (L, pivots) == expected
        assert all(type(x) is Q for row in L for x in row)
        assert all(type(p) is Q for p in pivots)
    assert raised < 24
    assert beyond_64_bits > 60


def test_solve_random_exact():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        B = [[Q(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        sign = rng.choice((1, -1))
        # +-(B^T B + I): symmetric definite of either sign.
        A = [[sign * (sum(B[k][i] * B[k][j] for k in range(n)) + (1 if i == j else 0))
              for j in range(n)] for i in range(n)]
        x = [Q(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert ldl_solve(A, b) == x


def test_ldl_reconstructs():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 5)
        B = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        # Gram of random columns plus identity: positive definite.
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) + (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
        L, pivots = ldl_decompose(G)
        recon = [[sum(L[i][k] * pivots[k] * L[j][k] for k in range(n))
                  for j in range(n)] for i in range(n)]
        assert recon == G
        assert all(p > 0 for p in pivots)


def test_negative_definite_detects():
    assert ldl_negative_definite([[Q(-1), Q(0)], [Q(0), Q(-1)]])
    assert ldl_negative_definite([[Q(-2), Q(1)], [Q(1), Q(-1)]])
    assert not ldl_negative_definite([[Q(1)]])
    assert not ldl_negative_definite([[Q(0), Q(1)], [Q(1), Q(0)]])
    assert not ldl_negative_definite([[Q(-1), Q(2)], [Q(2), Q(-1)]])
    assert ldl_negative_definite([])


def test_integer_kernel_spans_and_saturates():
    import math

    from sympy import Matrix

    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        row = [rng.randint(-9, 9) for _ in range(n)]
        basis = integer_kernel_of_row(row)
        expected_rank = n if all(c == 0 for c in row) else n - 1
        assert len(basis) == expected_rank
        for vec in basis:
            assert sum(c * v for c, v in zip(row, vec)) == 0
        # Saturation: primitive kernel vectors supported on two coordinates
        # must be integer combinations of the basis.
        nz = [i for i, c in enumerate(row) if c != 0]
        if len(nz) >= 2:
            i, j = nz[0], nz[1]
            g = math.gcd(row[i], row[j])
            target = [0] * n
            target[i] = row[j] // g
            target[j] = -row[i] // g
            M = Matrix([[vec[k] for vec in basis] for k in range(n)])
            sol = M.solve(Matrix(target))
            assert all(x.is_integer for x in sol)


def test_floor_sqrt():
    assert floor_sqrt(Q(0)) == 0
    assert floor_sqrt(Q(35, 4)) == 2
    assert floor_sqrt(Q(36, 4)) == 3
    assert floor_sqrt(Q(37, 4)) == 3
    rng = random.Random(1)
    for _ in range(200):
        x = Q(rng.randint(0, 10**6), rng.randint(1, 999))
        s = floor_sqrt(x)
        assert s * s <= x < (s + 1) * (s + 1)


def test_quadratic_integer_range_exact():
    rng = random.Random(2)
    for _ in range(300):
        c = Q(rng.randint(-40, 40), rng.randint(1, 7))
        rho = Q(rng.randint(-10, 400), rng.randint(1, 7))
        got = list(quadratic_integer_range(c, rho))
        brute = [z for z in range(-60, 61) if (z + c) ** 2 <= rho]
        assert got == brute


def test_rational_sqrt():
    assert rational_sqrt(Q(49, 16)) == Q(7, 4)
    assert rational_sqrt(Q(2)) is None
    assert rational_sqrt(Q(0)) == 0
