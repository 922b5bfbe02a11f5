"""DiffOp.compose and DiffOp.commutator against sympy: A.compose(B) applied
to a polynomial must equal sympy's direct application of B and then A, and
A.commutator(B) must equal A(B f) - B(A f).  The operators carry
coefficients in lam, mu and tau^+-1, and the pairs include compositions
whose terms cancel, which must leave no stored zero behind."""

import random
from fractions import Fraction

import pytest

from covjord.polynomials import MPoly, double_vars
from covjord.scalars import LAM, MU, PARAM_NAMES, TAU, TAU_INV, ParamPoly
from covjord.weyl import DiffOp, commutator_sum, restrict

from conftest import diagonal_substitute, random_poly, stored_form

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


# ---------------------------------------------------------------------------
# the accumulator folded onto the diagonal, deep tau^-k and Fraction scalars,
# and the bound of the packed exponent fields

V2 = double_vars(V)


def doubled_op(rng: random.Random, scalars) -> DiffOp:
    out = DiffOp.zero(V2)
    for _ in range(rng.randint(1, 3)):
        beta = tuple(rng.randint(0, 1) for _ in V2)
        coeff = MPoly.zero(V2)
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in V2)
            coeff = coeff + MPoly.monomial(V2, mono, rng.choice(scalars))
        out = out + DiffOp(V2, {beta: coeff})
    return out


def folded(op: DiffOp, n: int) -> DiffOp:
    return DiffOp(op.vars, {b: diagonal_substitute(c, n) for b, c in op.terms.items()})


@pytest.mark.parametrize("case", range(8))
def test_folded_commutator_sum_matches_substitution_route(case):
    # [a, b] + m o a folded onto the diagonal inside the accumulator equals
    # the unfolded sum with y -> x substituted monomial by monomial
    rng = random.Random(f"folded-sum:{case}")
    a, b, m = (doubled_op(rng, SCALARS) for _ in range(3))
    got = commutator_sum(a, b, m, fold=True)
    want = folded(a.compose(b) - b.compose(a) + m.compose(a), len(V))
    assert got == want
    assert_canonical(got)
    assert all(not any(mono[len(V):]) for c in got.terms.values() for mono in c.terms)
    assert commutator_sum(a, b, fold=True) == folded(a.commutator(b), len(V))


DEEP = (TAU_INV * TAU_INV * TAU_INV * Fraction(-5, 7), LAM * TAU_INV * TAU_INV * Fraction(1, 3),
        MU * TAU_INV * Fraction(7, 2), ParamPoly.var("tau", -6) * Fraction(3, 4),
        TAU * LAM * Fraction(-2, 9), ParamPoly.of(Fraction(5, 6)))


def deep_poly(rng: random.Random) -> MPoly:
    out = MPoly.zero(V)
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in V)
        out = out + MPoly.monomial(V, mono, rng.choice(DEEP))
    return out


@pytest.mark.parametrize("case", range(6))
def test_negative_tau_powers_and_fractions(case):
    # the signed tau field on top of the key, and rationals that are not
    # integers, survive products, sums and cancellations
    rng = random.Random(f"deep-scalars:{case}")
    A = DiffOp(V, {(1, 0): deep_poly(rng), (0, 2): deep_poly(rng)})
    B = DiffOp(V, {(0, 1): deep_poly(rng), (1, 1): deep_poly(rng), (0, 0): deep_poly(rng)})
    f = random_poly(V, rng, 4, terms=5)
    check_pair(A, B, f)
    check_pair(B, A, f)
    check_commutator(A, B, f)
    assert any(e[4] < -3 for c in A.compose(B).terms.values()
               for s in c.terms.values() for e in s.terms)


BOUND = (1 << 14) - 1  # the largest exponent a packed field takes in


def test_exponent_at_the_packed_bound():
    d1 = DiffOp.derivative(V, 0)
    x_top = DiffOp.multiplication(MPoly.monomial(V, (BOUND, 0), LAM))
    assert d1.compose(x_top) == DiffOp(V, {
        (0, 0): MPoly.monomial(V, (BOUND - 1, 0), LAM * BOUND),
        (1, 0): MPoly.monomial(V, (BOUND, 0), LAM)})
    # two factors at the bound, folded together: 4 * BOUND stays inside the field
    top = DiffOp.multiplication(MPoly.monomial(V2, (BOUND, 0, BOUND, 0), ParamPoly.var("mu", BOUND)))
    got = commutator_sum(top, DiffOp.identity(V2), top, fold=True)
    assert got == DiffOp.multiplication(MPoly.monomial(V2, (4 * BOUND, 0, 0, 0),
                                                       ParamPoly.var("mu", 2 * BOUND)))
    # restrict takes the same fold: x^BOUND y^BOUND goes to x^(2 BOUND)
    pair = DiffOp.multiplication(MPoly.monomial(V2, (BOUND, 0, BOUND, 0), LAM))
    assert restrict(pair) == folded(pair, len(V)) == DiffOp.multiplication(
        MPoly.monomial(V2, (2 * BOUND, 0, 0, 0), LAM))
    # tau is the top field: its exponent is not bounded
    deep = DiffOp.multiplication(MPoly.monomial(V, (0, 1), ParamPoly.var("tau", -BOUND - 5)))
    assert d1.compose(deep).compose(deep).terms[(1, 0)] == MPoly.monomial(
        V, (0, 2), ParamPoly.var("tau", -2 * BOUND - 10))


@pytest.mark.parametrize("coeff", [
    MPoly.monomial(V, (BOUND + 1, 0)),
    MPoly.monomial(V, (0, BOUND + 1), TAU),
    MPoly.monomial(V, (1, 0), ParamPoly.var("lam", BOUND + 1)),
])
def test_exponent_above_the_packed_bound_raises(coeff):
    # above the bound a field could carry into its neighbour: refused, not wrapped
    d1 = DiffOp.derivative(V, 0)
    wide = DiffOp.multiplication(coeff)
    for _ in range(2):  # a refused operator is refused again, not served a partial table
        with pytest.raises(OverflowError):
            d1.compose(wide)
        with pytest.raises(OverflowError):
            wide.compose(d1)
    # restrict packs the operator's terms, so it refuses them too
    doubled = DiffOp.multiplication(MPoly(V2, {m + (0,) * len(V): s for m, s in coeff.terms.items()}))
    for _ in range(2):  # a refused operator keeps no restriction
        with pytest.raises(OverflowError):
            restrict(doubled)


@pytest.mark.parametrize("chart", [V, ("x1", "y1", "x2"), ("y1", "x1"), ("u1", "v1")])
def test_fold_refuses_a_chart_that_is_not_doubled(chart):
    # the slot is read from the chart, so only double_vars of its first
    # half is folded
    one = DiffOp.multiplication(MPoly.monomial(chart, (1,) * len(chart), LAM))
    with pytest.raises(ValueError):
        restrict(one)
    with pytest.raises(ValueError):
        commutator_sum(one, one, fold=True)
