import random
from fractions import Fraction as F

import pytest

from siacpost.exact import (RatMatrix, RatPoly, SingularMatrixError, det_exact,
                            invert_exact, rat, solve_exact)

from oracles import (compose_affine, det_reference, matmul_reference, matrix_rows,
                     solve_reference)


def cramer_solve(a: RatMatrix, b):
    """Independent oracle: Cramer's rule with cofactor determinants."""

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = F(0)
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det(minor)
        return total

    rows = matrix_rows(a)
    d = det(rows)
    out = []
    for i in range(a.rows):
        cols = [[rows[r][c] if c != i else b[r] for c in range(a.cols)]
                for r in range(a.rows)]
        out.append(det(cols) / d)
    return out


def test_solve_paper_2x2():
    a = RatMatrix.from_rows([[1, 1], [-3, -1]])
    x = solve_exact(a, [1, 0])
    assert x.col(0) == [F(-1, 2), F(3, 2)]


def test_solve_identity():
    a = RatMatrix.identity(3)
    x = solve_exact(a, [5, 0, -2])
    assert x.col(0) == [F(5), F(0), F(-2)]


def test_solve_3x3_cramer_oracle():
    a = RatMatrix.from_rows([[1, 1, 1], [-3, 0, 3], [7, 1, 7]])
    b = [F(1), F(0), F(0)]
    assert cramer_solve(a, b) == [F(-1, 12), F(7, 6), F(-1, 12)]
    x = solve_exact(a, b)
    assert x.col(0) == [F(-1, 12), F(7, 6), F(-1, 12)]


def test_invert_2x2_adjugate():
    a = RatMatrix.from_rows([[1, 1], [-3, -1]])
    # adjugate/det oracle, det = 2
    expect = RatMatrix.from_rows([[F(-1, 2), F(-1, 2)], [F(3, 2), F(1, 2)]])
    assert invert_exact(a) == expect


def test_invert_identity_and_diagonal():
    assert invert_exact(RatMatrix.identity(4)) == RatMatrix.identity(4)
    d = RatMatrix.from_rows([[2, 0], [0, 3]])
    assert invert_exact(d) == RatMatrix.from_rows([[F(1, 2), 0], [0, F(1, 3)]])


def test_singular_raises():
    a = RatMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve_exact(a, [1, 0])
    assert det_exact(a) == 0


def test_random_inverse_property():
    rng = random.Random(20260809)
    done = 0
    while done < 25:
        n = rng.randint(1, 6)
        a = RatMatrix(n, n, [F(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(n * n)])
        if det_exact(a) == 0:
            continue
        assert invert_exact(a) @ a == RatMatrix.identity(n)
        done += 1


def test_random_solve_property():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 5)
        while True:
            a = RatMatrix(n, n, [F(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(n * n)])
            if det_exact(a) != 0:
                break
        b = RatMatrix.column([F(rng.randint(-9, 9)) for _ in range(n)])
        x = solve_exact(a, b)
        assert a @ x == b


def test_rational_string_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        q = F(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
        assert F(str(q)) == q
    assert str(F(3, 1)) == "3"  # denominator omitted when 1
    assert str(F(-1, 2)) == "-1/2"


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.1)


def test_ratpoly_trim_and_zero():
    p = RatPoly([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    z = RatPoly([0, 0])
    assert z.coeffs == (F(0),)


def test_ratpoly_recenter_and_compose():
    p = RatPoly([1, -2, 3])  # 1 - 2x + 3x^2
    q = p.recentered(F(1, 2))  # p about x = 1/2: q(u) = p(u + 1/2)
    assert q == RatPoly([F(3, 4), 1, 3])
    for x in (F(0), F(1, 3), F(-2), F(7, 5)):
        assert q(x - F(1, 2)) == p(x)
    r = compose_affine(p, F(2), F(-1))  # p(2x - 1)
    for x in (F(0), F(1, 2), F(3)):
        assert r(x) == p(2 * x - 1)


def test_ratpoly_calculus():
    p = RatPoly([0, 0, 1])  # x^2
    assert p.derivative() == RatPoly([0, 2])
    assert p.integral(0, 1) == F(1, 3)
    assert (p * RatPoly([1, 1])).integral(0, 1) == F(1, 3) + F(1, 4)


def test_matrix_entries_invariant():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, [1, 2, 3])


def test_elimination_matches_fraction_reference():
    """det, inverse, solve and product agree with plain Fraction elimination.

    Sparse random matrices make zero leading entries (row swaps) and
    singular matrices common; both kinds must occur.
    """
    rng = random.Random(20261018)
    swaps = singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = RatMatrix(n, n, [F(rng.randint(-9, 9), rng.randint(1, 12))
                             if rng.random() < 0.55 else F(0) for _ in range(n * n)])
        b = RatMatrix(n, 2, [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(2 * n)])
        det = det_exact(a)
        assert det == det_reference(a)
        assert a @ b == matmul_reference(a, b)
        if det == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                solve_exact(a, b)
            with pytest.raises(SingularMatrixError):
                invert_exact(a)
            continue
        swaps += a[0, 0] == 0
        assert solve_exact(a, b) == solve_reference(a, b)
        assert invert_exact(a) == solve_reference(a, RatMatrix.identity(n))
    assert swaps >= 10 and singular >= 10


def test_elimination_small_cases():
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert det_exact(swap) == -1
    assert invert_exact(swap) == swap
    assert det_exact(RatMatrix.from_rows([[0, 0], [0, 1]])) == 0
    assert det_exact(RatMatrix(0, 0, [])) == 1
    big = RatMatrix.from_rows([[F(1, 3), F(10 ** 30, 7)], [F(-2, 9), F(5, 10 ** 20)]])
    assert invert_exact(big) == solve_reference(big, RatMatrix.identity(2))
