"""Derivative pairing, derivative spaces and the product-rule expansion."""

import random
from fractions import Fraction

import pytest

from covjord.fischer import (
    EmptySpaceError,
    LeibnitzExpansion,
    apply_diffop,
    derivative_space,
    dual_polynomial,
    fischer_inner,
)
from covjord.jordan import algebra_from_spec, sym_algebra
from covjord.polynomials import MPoly, VariableMismatchError
from covjord.scalars import ParamPoly, S
from covjord.weyl import DiffOp

from conftest import random_poly

V2 = ("x1", "x2")
V3 = ("x1", "x2", "x3")


def test_apply_diffop_examples():
    x1 = MPoly.variable(V2, "x1")
    x2 = MPoly.variable(V2, "x2")
    assert apply_diffop(x1, x1 * x1) == x1.scale(2)
    assert apply_diffop(x1 * x2, x1 * x2) == MPoly.constant(V2, 1)
    assert apply_diffop(x1 ** 2, x1 ** 3) == x1.scale(6)


# a symbol with monomials of order 3 and 4, one above the operands' degree
# (4), a constant term, and repeated coefficients, integral and not
SYMBOL = {(3, 0, 0): Fraction(1, 2), (1, 1, 1): Fraction(1, 2), (0, 2, 1): -3,
          (2, 0, 2): Fraction(-5, 6), (0, 5, 0): 7, (1, 0, 0): -3, (0, 0, 0): 2}


def _in_form(p: MPoly, form: str) -> MPoly:
    """p with bare coefficients (int, or Fraction when not integral), with
    ParamPoly constants, or scaled by the parameter s + 2."""
    if form == "bare":
        return p.over_q()
    return p if form == "constant" else p.scale(S + 2)


@pytest.mark.parametrize("q_form", ["bare", "constant", "param"])
@pytest.mark.parametrize("p_form", ["bare", "constant", "param"])
def test_apply_diffop_matches_the_operator_route(p_form, q_form):
    # DiffOp.apply differentiates through a polynomials.partials table; the
    # one-pass apply_diffop must give the same polynomial, term order included
    rng = random.Random(f"apply-{p_form}-{q_form}")
    symbols = [MPoly(V3, SYMBOL), MPoly(V3, {(0, 0, 0): Fraction(1, 3)}),
               MPoly(V3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})]
    symbols += [random_poly(V3, rng, 3, terms=5) for _ in range(4)]
    for symbol in symbols:
        p = _in_form(symbol, p_form)
        for _ in range(4):
            q = _in_form(random_poly(V3, rng, 4, terms=8), q_form)
            got = apply_diffop(p, q)
            want = DiffOp.from_symbol(p).apply(q)
            assert MPoly(got.vars, got.terms) == want
            assert list(got.terms) == list(want.terms)
            if "bare" == p_form == q_form:
                assert all(type(c) in (int, Fraction) for c in got.terms.values())
            else:
                assert all(type(c) is ParamPoly for c in got.terms.values())


def test_apply_diffop_takes_no_partial_derivative(monkeypatch):
    calls = []
    diff = MPoly.diff

    def counted(self, var):
        calls.append(var)
        return diff(self, var)

    monkeypatch.setattr(MPoly, "diff", counted)
    rng = random.Random(30)
    q = random_poly(V3, rng, 4, terms=8)
    for p in (MPoly(V3, SYMBOL), MPoly(V3, SYMBOL).over_q()):
        assert apply_diffop(p, q) == apply_diffop(p, q.over_q())
    assert calls == []


def test_apply_diffop_mismatch():
    with pytest.raises(VariableMismatchError):
        apply_diffop(MPoly.variable(V2, "x1"), MPoly.variable(V3, "x1"))


def test_fischer_examples():
    x1 = MPoly.variable(V2, "x1")
    x2 = MPoly.variable(V2, "x2")
    assert fischer_inner(x1, x2).is_zero()
    assert fischer_inner(x1 ** 2, x1 ** 2).constant_value() == 2
    assert fischer_inner(x1 * x2 ** 2, x1 * x2 ** 2).constant_value() == 2


def test_monomials_orthogonal():
    rng = random.Random(3)
    for _ in range(50):
        a = tuple(rng.randint(0, 3) for _ in range(3))
        b = tuple(rng.randint(0, 3) for _ in range(3))
        pa, pb = MPoly.monomial(V3, a), MPoly.monomial(V3, b)
        inner = fischer_inner(pa, pb).constant_value()
        if a != b:
            assert inner == 0
        else:
            fact = Fraction(1)
            for e in a:
                for k in range(2, e + 1):
                    fact *= k
            assert inner == fact


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_symmetry_and_adjoint(n):
    vars = tuple(f"x{i+1}" for i in range(n))
    rng = random.Random(100 + n)
    deg = 2 if n == 6 else 3
    for _ in range(200):
        p = random_poly(vars, rng, deg)
        q = random_poly(vars, rng, deg)
        r = random_poly(vars, rng, 2)
        assert fischer_inner(p, q) == fischer_inner(q, p)
        assert fischer_inner(p, q * r) == fischer_inner(apply_diffop(r, p), q)


def test_derivative_space_examples():
    x1 = MPoly.variable(V2, "x1")
    x2 = MPoly.variable(V2, "x2")
    assert len(derivative_space(x1)) == 2          # {x1, 1}
    assert len(derivative_space(x1 * x2)) == 4     # {x1 x2, x1, x2, 1}
    alg = sym_algebra(2)
    assert len(derivative_space(alg.det_poly)) == 5
    graded = {}
    for b in derivative_space(alg.det_poly):
        graded.setdefault(b.total_degree(), []).append(b)
    assert {d: len(b) for d, b in graded.items()} == {0: 1, 1: 3, 2: 1}


def test_derivative_space_contains_one_and_generator():
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(V3, rng, 3)
        if p.is_zero():
            continue
        basis = derivative_space(p)
        degs = [b.total_degree() for b in basis]
        assert 0 in degs  # constants always enter


def test_derivative_space_zero_error():
    with pytest.raises(EmptySpaceError):
        derivative_space(MPoly.zero(V2))


def test_leibnitz_one_dimensional_classic():
    v = ("x1",)
    x = MPoly.variable(v, "x1")
    f = x ** 3 + x.scale(2)
    g = x ** 2 + MPoly.constant(v, 1)
    got = LeibnitzExpansion(x ** 2).expand(f, g)
    d2 = apply_diffop(x ** 2, f * g)
    # classical second-derivative product rule
    classic = apply_diffop(x ** 2, f) * g + (apply_diffop(x, f) * apply_diffop(x, g)).scale(2) \
        + f * apply_diffop(x ** 2, g)
    assert got == d2 == classic


def test_leibnitz_trivial_factor():
    rng = random.Random(8)
    gen = random_poly(V2, rng, 3)
    if gen.is_zero():
        gen = MPoly.variable(V2, "x1")
    g = random_poly(V2, rng, 3)
    assert LeibnitzExpansion(gen).expand(MPoly.constant(V2, 1), g) == apply_diffop(gen, g)


def test_leibnitz_sym2_cofactor():
    alg = sym_algebra(2)
    a = MPoly.variable(alg.vars, "x1")
    c = MPoly.variable(alg.vars, "x3")
    out = LeibnitzExpansion(alg.det_poly).expand(a, c)
    assert out == MPoly.constant(alg.vars, 1)


def test_flat_is_derivative_of_generator():
    alg = sym_algebra(2)
    a = MPoly.variable(alg.vars, "x1")
    assert apply_diffop(a, alg.det_poly) == alg.det_poly.diff("x1")


def test_triple_expansion_matches_direct():
    rng = random.Random(21)
    exp = LeibnitzExpansion(sym_algebra(2).det_poly)
    vars = sym_algebra(2).vars
    for _ in range(5):
        f = random_poly(vars, rng, 3)
        g = random_poly(vars, rng, 3)
        h = random_poly(vars, rng, 2)
        assert exp.expand3(f, g, h) == apply_diffop(sym_algebra(2).det_poly, f * g * h)


@pytest.mark.parametrize("spec", ["sym:2", "hermc:2", "sym:3"])
def test_expansion_in_trace_pairing(spec):
    # in the trace-form pairing the expansions rebuild dual(det)(d), the
    # determinant operator of the algebra, on products of two and three factors
    alg = algebra_from_spec(spec)
    exp = LeibnitzExpansion(alg.det_poly, alg.pairing)
    wave = dual_polynomial(alg.det_poly, alg.pairing)
    rng = random.Random(f"trace-{spec}")
    for _ in range(3):
        f = random_poly(alg.vars, rng, 3)
        g = random_poly(alg.vars, rng, 3)
        h = random_poly(alg.vars, rng, 2)
        assert exp.expand(f, g) == apply_diffop(wave, f * g)
        assert exp.expand3(f, g, h) == apply_diffop(wave, f * g * h)
