import random
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

from siacpost.exact import (SLICE_BITS, RatMatrix, RatPoly, SingularMatrixError, det_exact,
                            invert_exact, rat, solve_exact)

from oracles import (compose_affine, det_reference, hi_lo_reference, matmul_reference,
                     matrix_rows, poly_derivative, sliced_numerators_reference,
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
    assert x.entries == [F(-1, 2), F(3, 2)]


def test_solve_identity():
    a = RatMatrix.identity(3)
    x = solve_exact(a, [5, 0, -2])
    assert x.entries == [F(5), F(0), F(-2)]


def test_solve_3x3_cramer_oracle():
    a = RatMatrix.from_rows([[1, 1, 1], [-3, 0, 3], [7, 1, 7]])
    b = [F(1), F(0), F(0)]
    assert cramer_solve(a, b) == [F(-1, 12), F(7, 6), F(-1, 12)]
    x = solve_exact(a, b)
    assert x.entries == [F(-1, 12), F(7, 6), F(-1, 12)]


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
        a = RatMatrix.from_rows([[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                                 for _ in range(n)])
        if det_exact(a) == 0:
            continue
        assert invert_exact(a) @ a == RatMatrix.identity(n)
        done += 1


def test_random_solve_property():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 5)
        while True:
            a = RatMatrix.from_rows([[F(rng.randint(-9, 9), rng.randint(1, 4))
                                      for _ in range(n)] for _ in range(n)])
            if det_exact(a) != 0:
                break
        b = RatMatrix.from_rows([[F(rng.randint(-9, 9))] for _ in range(n)])
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
    assert poly_derivative(p) == RatPoly([0, 2])
    assert p.integral(0, 1) == F(1, 3)
    assert (p * RatPoly([1, 1])).integral(0, 1) == F(1, 3) + F(1, 4)


def test_matrix_entries_invariant():
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[1, 2], [3]])


def test_matrix_equality_is_by_value():
    """(nums, den) equals (2 nums, 2 den) and hashes alike; other values or shapes differ."""
    a = RatMatrix([[1, 2]], 3)
    assert a == RatMatrix([[1, 2]], 3) == RatMatrix([[2, 4]], 6) == RatMatrix([[-1, -2]], -3)
    same = RatMatrix.from_rows([[F(1, 3), F(2, 3)]])
    assert hash(a) == hash(RatMatrix([[2, 4]], 6)) == hash(same) and same == a
    assert len({a, RatMatrix([[2, 4]], 6), RatMatrix([[1, 2]], 4)}) == 2
    assert a != RatMatrix([[1, 2]], 4)
    assert a != RatMatrix([1, 2], 3)  # a vector is not a 1 x 2 matrix
    assert RatMatrix([[0, 0]], 5) == RatMatrix([[0, 0]])
    assert a != [[F(1, 3), F(2, 3)]]


def test_elimination_matches_fraction_reference():
    """det, inverse, solve and product agree with plain Fraction elimination.

    Sparse random matrices make zero leading entries (row swaps) and
    singular matrices common; both kinds must occur.
    """
    rng = random.Random(20261018)
    swaps = singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = RatMatrix.from_rows([[F(rng.randint(-9, 9), rng.randint(1, 12))
                                  if rng.random() < 0.55 else F(0) for _ in range(n)]
                                 for _ in range(n)])
        b = RatMatrix.from_rows([[F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(2)]
                                 for _ in range(n)])
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
        swaps += a.nums[0, 0] == 0
        assert solve_exact(a, b) == solve_reference(a, b)
        assert invert_exact(a) == solve_reference(a, RatMatrix.identity(n))
    assert swaps >= 10 and singular >= 10


def test_elimination_small_cases():
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert det_exact(swap) == -1
    assert invert_exact(swap) == swap
    assert det_exact(RatMatrix.from_rows([[0, 0], [0, 1]])) == 0
    assert det_exact(RatMatrix.from_rows([])) == 1
    big = RatMatrix.from_rows([[F(1, 3), F(10 ** 30, 7)], [F(-2, 9), F(5, 10 ** 20)]])
    assert invert_exact(big) == solve_reference(big, RatMatrix.identity(2))


# (numerator bits, denominator bits): quotients near 1, near 2^-10 over a denominator
# above 2^1100, subnormal (~2^-1050) and rounding to zero (~2^-1140), and near 2^100
INT_MATRIX_CASES = [(20, 8), (1100, 1110), (60, 1110), (1, 1140), (1300, 1200)]


@pytest.mark.parametrize("bits", INT_MATRIX_CASES, ids=lambda b: f"{b[0]}over{b[1]}")
def test_int_matrix_exits_match_fractions(bits):
    """Every exit of a RatMatrix of integers over one denominator is the reduced Fraction,
    or its correct rounding, entry by entry, and equality and hash do not see the
    denominator: random signed entries with one zero row, against ``Fraction`` arithmetic."""
    num_bits, den_bits = bits
    rng = random.Random(num_bits * 7919 + den_bits)
    nums = [[rng.randint(-2 ** num_bits, 2 ** num_bits) for _ in range(3)] for _ in range(5)]
    nums[2] = [0, 0, 0]
    den = rng.randint(2 ** (den_bits - 1), 2 ** den_bits)
    a = RatMatrix(nums, den)
    exact = [F(v, den) for row in nums for v in row]
    want = np.array([float(f) for f in exact]).reshape(5, 3)
    assert a.floats().tobytes() == want.tobytes()
    hi, lo = a.hi_lo()
    assert hi.tobytes() == want.tobytes()
    rest = [float(f - F(h)) for f, h in zip(exact, want.flat)]
    assert lo.tobytes() == np.array(rest).reshape(5, 3).tobytes()
    assert a.entries == exact and (a.rows, a.cols) == (5, 3)
    assert a == RatMatrix.from_rows([exact[i:i + 3] for i in range(0, 15, 3)])
    flipped = RatMatrix([[-v for v in row] for row in nums], -den)
    assert flipped.entries == a.entries and flipped == a
    for g in (1, 6, 2 ** 70 * 3 ** 5):
        scaled = RatMatrix(a.nums * g, den * g)
        assert scaled == a and hash(scaled) == hash(a)
        r = scaled.reduced()
        assert r.entries == a.entries and gcd(r.den, *r.nums.flat) == 1
    x = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-60, 60) for _ in range(5)]
    dots = [float(sum(F(u) * f for u, f in zip(x, exact[j::3]))) for j in range(3)]
    assert a.apply(x).tobytes() == np.array(dots).tobytes()
    assert a.apply(np.reshape(x, (5, 1))).tobytes() == np.array(dots).tobytes()
    with pytest.raises(ValueError):
        a.apply(x[:-1])


TINY = 2.0 ** -1022  # the smallest normal float

# (numerator bits, denominator bits, power-of-two denominator, what the split must show):
# entries near 1 and near 2^-30 with a nonzero lo over either kind of denominator, hi
# subnormal, lo subnormal under a normal hi, and magnitudes near 2^1000 and 2^-1000
HI_LO_CASES = [
    (20, 8, False, lambda hi, lo: (lo != 0).any()),
    (120, 90, True, lambda hi, lo: (lo != 0).any()),
    (100, 130, False, lambda hi, lo: (lo != 0).any()),
    (10, 1060, False, lambda hi, lo: ((hi != 0) & (abs(hi) < TINY)).any()),
    (60, 1060, False, lambda hi, lo: ((abs(hi) >= TINY) & (lo != 0) & (abs(lo) < TINY)).any()),
    (1100, 100, False, lambda hi, lo: (abs(hi) > 2.0 ** 990).any()),
    (1100, 100, True, lambda hi, lo: (abs(hi) > 2.0 ** 990).any()),
    (50, 1050, True, lambda hi, lo: (abs(hi) < 2.0 ** -990).all()),
]


@pytest.mark.parametrize("case", HI_LO_CASES,
                         ids=lambda c: f"{c[0]}over{'2^' if c[2] else ''}{c[1]}")
def test_hi_lo_matches_per_entry_dekker(case):
    """hi_lo is, byte for byte, the per-entry Dekker split of `oracles.hi_lo_reference`:
    signed random entries with one zero row, over an odd or a power-of-two denominator;
    each case also shows what it is there for (a nonzero lo, a subnormal, a huge entry)."""
    num_bits, den_bits, power_of_two, shows = case
    rng = random.Random(num_bits * 7919 + den_bits + power_of_two)
    nums = [[rng.randint(-2 ** num_bits, 2 ** num_bits) for _ in range(4)] for _ in range(6)]
    nums[1] = [0, 0, 0, 0]
    den = 2 ** den_bits if power_of_two else 2 * rng.randint(2 ** (den_bits - 2), 2 ** (den_bits - 1)) + 1
    a = RatMatrix(nums, den)
    got, want = a.hi_lo(), hi_lo_reference(a)
    assert got.shape == want.shape == (2, 6, 4)
    assert got.tobytes() == want.tobytes()
    assert shows(*got)
    assert (got[:, 1] == 0).all() and (got[0] == a.floats()).all()
    for shape in ((0,), (0, 3), (2, 0, 5)):
        empty = RatMatrix(np.zeros(shape, dtype=object), den).hi_lo()
        assert empty.shape == (2, *shape) and empty.dtype == np.float64


@pytest.mark.parametrize("den", (1, 3, 2 ** 20))
def test_hi_lo_rejects_entries_past_the_float_range(den):
    a = RatMatrix([[1, 2], [-(2 ** 1024) * den, 3]], den)
    with pytest.raises(OverflowError):
        a.hi_lo()


def _applied_reference(a: RatMatrix, x) -> np.ndarray:
    """x @ a by Fraction multiply-adds, each entry rounded once."""
    cols = [a.entries[j::a.cols] for j in range(a.cols)]
    return np.array([float(sum(F(u) * e for u, e in zip(x, col) if u)) for col in cols])


def _hard_windows(rng: random.Random, n: int) -> np.ndarray:
    """Windows that stress the slicing: signed values from 1e-300 to 1e300, 5e-324 beside
    O(1) values, +-0, an all-zero row, a row of one subnormal beside 1e280, and the
    negation of the first three."""
    wide = [rng.choice((-1, 1)) * rng.uniform(1, 2) * 10.0 ** rng.randint(-300, 300)
            for _ in range(n)]
    wide[0] = 1e-300
    tiny = [5e-324 if i % 2 else rng.uniform(-1, 1) for i in range(n)]
    zeros = [0.0 if i % 2 else -0.0 for i in range(n)]
    zeros[0] = rng.uniform(-1, 1)
    edge = [0.0] * n
    edge[0], edge[-1] = -1e280, 2.0 ** -1070 + 5e-324
    stack = np.array([wide, tiny, zeros, [0.0] * n, edge])
    return np.concatenate((stack, -stack[:3]))


@pytest.mark.parametrize("bits", (1, 20, 53, 81, 400))
def test_stacked_apply_matches_rows_and_fractions(bits):
    """apply on a stack of windows is, byte for byte, apply on each row and the Fraction
    product rounded once: numerators of up to `bits` bits (81 is a d=4 boundary Q),
    over an odd denominator near 2^bits, against windows of extreme and mixed magnitudes."""
    rng = random.Random(bits)
    nums = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(4)] for _ in range(9)]
    nums[3] = [0, 0, 0, 0]
    a = RatMatrix(nums, 2 * rng.randint(2 ** (bits - 1), 2 ** bits) + 1)
    windows = _hard_windows(rng, 9)
    got = a.apply(windows)
    assert got.shape == (len(windows), 4)
    for row, window in zip(got, windows):
        assert row.tobytes() == a.apply(window).tobytes()
        assert row.tobytes() == _applied_reference(a, window).tobytes()
    assert a.apply(windows.reshape(4, 2, 9)).tobytes() == got.tobytes()
    assert a.apply(windows[:0]).shape == (0, 4)


@pytest.mark.parametrize("seed", range(6))
def test_sliced_numerators_match_the_object_path(seed):
    """The int64 word cut gives apply's slices and slice count bit for bit as the
    per-slice object passes of `oracles.sliced_numerators_reference` do: random signed
    numerators of 1 to 300 bits with zeros, all-zero and one-entry matrices, 1x1 to 9x9,
    vectors and a scalar; apply on the cut slices stays the exact product."""
    rng = random.Random(seed)
    for bits in (1, 19, 20, 21, 59, 60, 61, 120, 121, 300):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        nums = [[rng.choice((-1, 0, 1)) * rng.getrandbits(rng.randint(1, bits))
                 for _ in range(cols)] for _ in range(rows)]
        nums[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((-1, 1)) * 2 ** (bits - 1)
        cases = [RatMatrix(nums, 3), RatMatrix(nums[0], 7), RatMatrix([[0] * cols] * rows),
                 RatMatrix([[nums[0][0]]]), RatMatrix(-(2 ** bits) + 1)]
        for a in cases:
            want = sliced_numerators_reference(a, SLICE_BITS)
            got = a._sliced_numerators()
            assert got[1] == want[1] and got[0].tobytes() == want[0].tobytes()
            assert got[0].shape == want[0].shape == (a.rows, want[1] * a.cols)
        a, x = cases[0], np.array([rng.uniform(-1, 1) for _ in range(rows)])
        assert a.apply(x).tobytes() == _applied_reference(a, x).tobytes()


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
def test_apply_rejects_non_finite_values(bad):
    a = RatMatrix([[1, 2], [3, 4]], 5)
    with pytest.raises(ValueError):
        a.apply([[1.0, 2.0], [0.5, bad]])


def test_apply_sums_exactly_up_to_its_guard():
    """The largest exact sum: 8191 rows of one slice, every slice and window value
    2^20 - 1, gives 8191 (2^20 - 1)^2 < 2^53; one more row is refused with ValueError,
    as are 2048 rows of 4 slices (numerators of 61 bits)."""
    top = 2 ** 20 - 1
    a = RatMatrix(np.full((8191, 1), top, dtype=object), 3)
    assert a.apply(np.full(8191, float(top))).tolist() == [8191 * top * top / 3]
    with pytest.raises(ValueError, match="too many"):
        RatMatrix(np.full((8192, 1), top, dtype=object)).apply(np.ones(8192))
    with pytest.raises(ValueError, match="too many"):
        RatMatrix(np.full((2048, 1), 2 ** 60, dtype=object)).apply(np.ones(2048))
