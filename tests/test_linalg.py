"""The exact linear-algebra kernel against sympy, which shares no code
with it: Gauss-Jordan reduction, the inverse, and Gram-Schmidt; and the
matrix product against a plain triple loop."""

import random
from fractions import Fraction

import pytest

from covjord.fischer import derivative_space, fischer_inner, orthogonal_basis
from covjord.scalars import Gaussian, SingularMatrixError, fraction_matrix_inverse, mat_mul, rref
from covjord.suites import random_mpoly

sp = pytest.importorskip("sympy")


def _matrix(rng: random.Random, rows: int, cols: int, rank: int) -> list[list[Fraction]]:
    """Seeded rational matrix of at most the given rank: a product of a
    rows x rank and a rank x cols factor."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def _sympy(M):
    return sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in row] for row in M])


def _fractions(S) -> list[list[Fraction]]:
    return [[Fraction(int(v.p), int(v.q)) for v in S.row(i)] for i in range(S.rows)]


SHAPES = [(3, 3, 3), (4, 4, 2), (3, 5, 3), (5, 3, 2), (4, 6, 1), (6, 4, 4), (2, 2, 0)]


@pytest.mark.parametrize("shape", SHAPES)
def test_rref_matches_sympy(shape):
    rows, cols, rank = shape
    rng = random.Random(f"rref:{shape}")
    for _ in range(5):
        M = _matrix(rng, rows, cols, rank)
        reduced, pivots = rref(M)
        expected, expected_pivots = _sympy(M).rref()
        assert reduced == _fractions(expected)
        assert pivots == list(expected_pivots)


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_inverse_matches_sympy(size):
    rng = random.Random(f"inverse:{size}")
    done = 0
    while done < 5:
        M = _matrix(rng, size, size, size)
        S = _sympy(M)
        if S.det() == 0:
            continue
        assert fraction_matrix_inverse(M) == _fractions(S.inv())
        done += 1


def test_singular_inverse_raises_named_error():
    with pytest.raises(SingularMatrixError):
        fraction_matrix_inverse([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        fraction_matrix_inverse(_matrix(random.Random(3), 4, 4, 3))


def test_orthogonal_basis_properties():
    rng = random.Random("orthogonal")
    inner = lambda p, q: fischer_inner(p, q).constant_value()
    for n in (1, 2, 3):
        vars = tuple(f"x{i+1}" for i in range(n))
        for _ in range(5):
            polys = [random_mpoly(vars, rng, 3) for _ in range(4)]
            polys += derivative_space(polys[0])
            basis, norms = orthogonal_basis(polys, inner)
            for i, b in enumerate(basis):
                assert norms[i] == inner(b, b) > 0
                assert all(inner(b, c) == 0 for c in basis[:i])
            monos = sorted({m for p in polys for m in p.terms})
            vectors = [[p.terms[m].constant_value() if m in p.terms else 0 for m in monos]
                       for p in polys]
            assert len(basis) == len(rref(vectors)[1]) == _sympy(vectors).rank()


def _triple_loop(A, B, zero):
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(len(B))), zero)
                       for j in range(len(B[0]))) for i in range(len(A)))


def _sparse(rng: random.Random, rows: int, cols: int, entry, zero) -> list[list]:
    """Seeded matrix with about two thirds zero entries and an all-zero first row."""
    M = [[entry() if rng.random() < 1 / 3 else zero for _ in range(cols)]
         for _ in range(rows)]
    M[0] = [zero] * cols
    return M


def _zero_last_column(M: list[list], zero) -> list[list]:
    return [row[:-1] + [zero] for row in M]


@pytest.mark.parametrize("kind", ["fraction", "gaussian"])
def test_mat_mul_matches_triple_loop(kind):
    rng = random.Random(f"mat_mul:{kind}")

    def fraction():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    def entry():
        return fraction() if kind == "fraction" else Gaussian(fraction(), fraction())

    zero, cls = (Fraction(0), Fraction) if kind == "fraction" else (Gaussian(), Gaussian)
    shapes = [(1, 1, 1), (3, 3, 3), (4, 2, 5), (2, 5, 3), (6, 6, 6)]
    for rows, inner, cols in shapes:
        for _ in range(4):
            A = _sparse(rng, rows, inner, entry, zero)
            B = _sparse(rng, inner, cols, entry, zero)
            zero_left = [[zero] * inner for _ in range(rows)]
            zero_right = [[zero] * cols for _ in range(inner)]
            pairs = [(A, B), (zero_left, B), (A, zero_right),
                     (_zero_last_column(A, zero), B), (A, _zero_last_column(B, zero))]
            for L, R in pairs:
                got = mat_mul(L, R)
                assert got == _triple_loop(L, R, zero)
                assert all(type(v) is cls for row in got for v in row)
