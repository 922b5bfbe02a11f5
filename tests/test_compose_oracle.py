"""DiffOp.compose and DiffOp.commutator against sympy: A.compose(B) applied
to a polynomial must equal sympy's direct application of B and then A, and
A.commutator(B) must equal A(B f) - B(A f).  The operators carry
coefficients in lam, mu and tau^+-1, and the pairs include compositions
whose terms cancel, which must leave no stored zero behind."""

import random
from fractions import Fraction

import pytest

from covjord.polynomials import MPoly
from covjord.scalars import LAM, MU, PARAM_NAMES, TAU, TAU_INV, ParamPoly
from covjord.weyl import DiffOp

from conftest import random_poly, stored_form

sp = pytest.importorskip("sympy")

V = ("x1", "x2")
XS = sp.symbols(V)
PARAMS = sp.symbols(PARAM_NAMES)
SCALARS = (ParamPoly.of(1), LAM, MU, TAU, TAU_INV, LAM * MU, LAM * TAU_INV, MU * MU * TAU)


def to_sympy(p: MPoly):
    total = sp.Integer(0)
    for mono, c in p.terms.items():
        term = sp.Integer(1)
        for x, e in zip(XS, mono):
            term *= x**e
        for exp, r in c.terms.items():
            scalar = sp.Rational(r.numerator, r.denominator)
            for name, e in zip(PARAMS, exp):
                scalar *= name**e
            total += scalar * term
    return total


def sympy_apply(op: DiffOp, g):
    """op applied to the sympy expression g by plain differentiation."""
    total = sp.Integer(0)
    for beta, c in op.terms.items():
        d = g
        for x, k in zip(XS, beta):
            if k:
                d = sp.diff(d, x, k)
        total += to_sympy(c) * d
    return sp.expand(total)


def param_poly(rng: random.Random) -> MPoly:
    """A polynomial of degree <= 2 whose coefficients involve lam, mu, tau^+-1."""
    out = MPoly.zero(V)
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 1) for _ in V)
        c = rng.choice(SCALARS) * Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        out = out + MPoly.monomial(V, mono, c)
    return out


def param_op(rng: random.Random) -> DiffOp:
    out = DiffOp.zero(V)
    for _ in range(rng.randint(1, 3)):
        beta = tuple(rng.randint(0, 2) for _ in V)
        out = out + DiffOp(V, {beta: param_poly(rng)})
    return out


def x(i: int, c=1) -> DiffOp:
    return DiffOp.multiplication(MPoly.variable(V, V[i]).scale(c))


def d(i: int, c=1) -> DiffOp:
    return DiffOp.derivative(V, i).scale(c)


def cancelling_pairs():
    half = Fraction(1, 2)
    return [
        # d o x - x o d = 1
        (d(0), x(0), d(0).compose(x(0)) - x(0).compose(d(0))),
        # (d1 + d2)(x1 - x2): the constant terms cancel inside compose
        (d(0) + d(1), x(0) - x(1), None),
        # lam (d1 + d2) o (lam x1 - lam x2 + tau x1 + tau x2): lam^2 cancels, 2 lam tau stays
        (d(0, LAM) + d(1, LAM), x(0, LAM) - x(1, LAM) + x(0, TAU) + x(1, TAU), None),
        # (d1/2 + d2/2)(x1 + x2): 1/2 + 1/2 must be stored as the int 1
        (d(0, half) + d(1, half), x(0) + x(1), None),
        # constant-coefficient operators commute
        (d(0, MU) + d(1, TAU_INV), d(1, LAM), None),
    ]


def assert_canonical(op: DiffOp) -> None:
    for c in op.terms.values():
        assert c.terms, "stored zero coefficient polynomial"
        for scalar in c.terms.values():
            assert type(scalar) is ParamPoly and scalar.terms, "stored zero scalar"
            assert all(stored_form(r) for r in scalar.terms.values())


def check_pair(A: DiffOp, B: DiffOp, f: MPoly) -> None:
    AB = A.compose(B)
    assert_canonical(AB)
    g = to_sympy(f)
    assert sp.expand(sympy_apply(AB, g) - sympy_apply(A, sympy_apply(B, g))) == 0


def check_commutator(A: DiffOp, B: DiffOp, f: MPoly) -> None:
    AB = A.commutator(B)
    assert_canonical(AB)
    assert AB == A.compose(B) - B.compose(A)
    assert B.commutator(A) == -AB
    assert A.commutator(A).is_zero() and B.commutator(B).is_zero()
    g = to_sympy(f)
    want = sympy_apply(A, sympy_apply(B, g)) - sympy_apply(B, sympy_apply(A, g))
    assert sp.expand(sympy_apply(AB, g) - want) == 0


def seeded_pair(case: int):
    rng = random.Random(f"compose-oracle:{case}")
    A, B = param_op(rng), param_op(rng)
    return A, B, random_poly(V, rng, 5, terms=5)


@pytest.mark.parametrize("case", range(12))
def test_compose_matches_sympy_application(case):
    check_pair(*seeded_pair(case))


@pytest.mark.parametrize("case", range(12))
def test_commutator_matches_sympy_application(case):
    check_commutator(*seeded_pair(case))


@pytest.mark.parametrize("index", range(5))
def test_compose_cancellations(index, rng):
    A, B, commutator = cancelling_pairs()[index]
    check_pair(A, B, random_poly(V, rng, 4, terms=5))
    check_pair(B, A, random_poly(V, rng, 4, terms=5))
    if commutator is not None:
        assert commutator == DiffOp.identity(V)
    if index == 1:
        assert (0, 0) not in A.compose(B).terms
    if index == 2:
        assert A.compose(B).terms[(0, 0)] == MPoly.constant(V, 2 * LAM * TAU)
    if index == 3:
        assert A.compose(B).terms[(0, 0)].terms[(0, 0)].terms == {(0, 0, 0, 0, 0): 1}
    if index == 4:
        assert A.compose(B) - B.compose(A) == DiffOp.zero(V)


@pytest.mark.parametrize("index", range(5))
def test_commutator_cancellations(index, rng):
    A, B, _ = cancelling_pairs()[index]
    check_commutator(A, B, random_poly(V, rng, 4, terms=5))
    if index == 0:
        assert A.commutator(B) == DiffOp.identity(V)
    if index == 4:
        assert A.commutator(B).is_zero()


def test_bare_coefficients_are_lifted():
    p = MPoly.variable(V, "x1").scale(Fraction(1, 2)).over_q()
    op = DiffOp(V, {(1, 0): p})
    assert all(type(c) is ParamPoly for c in op.terms[(1, 0)].terms.values())
    assert op.compose(x(0)) == DiffOp(V, {(1, 0): MPoly(V, p.terms)}).compose(x(0))
