"""Multivariate polynomial layer: arithmetic, calculus, exact division."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covjord.polynomials import (InexactDivisionError, MPoly, VariableMismatchError, double_vars,
                                 leibniz_orders, partials)
from covjord.scalars import G_ONE, Gaussian, ParamPoly, S

from conftest import random_poly, stored_form

VARS = ("x1", "x2", "x3")


def mpolys():
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.dictionaries(mono, coeff, max_size=4).map(lambda t: MPoly(VARS, t))


@given(mpolys(), mpolys(), mpolys())
@settings(max_examples=50, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert (a - a).is_zero()


@given(mpolys(), mpolys())
@settings(max_examples=50, deadline=None)
def test_product_rule(a, b):
    lhs = (a * b).diff("x1")
    rhs = a.diff("x1") * b + a * b.diff("x1")
    assert lhs == rhs


@given(mpolys(), mpolys())
@settings(max_examples=40, deadline=None)
def test_exact_division_roundtrip(a, b):
    if b.is_zero():
        return
    lead = b.leading()[1]
    if not lead.is_constant():
        return
    prod = a * b
    if prod.is_zero():
        return
    assert prod.exact_div(b) == a


def test_inexact_division_raises():
    x1 = MPoly.variable(VARS, "x1")
    x2 = MPoly.variable(VARS, "x2")
    with pytest.raises(InexactDivisionError):
        (x1 * x1 + x2).exact_div(x1)


def test_variable_mismatch():
    a = MPoly.variable(("x1",), "x1")
    b = MPoly.variable(("x1", "x2"), "x1")
    with pytest.raises(VariableMismatchError):
        a + b


def homogeneous_components(p: MPoly) -> dict[int, MPoly]:
    comps: dict[int, dict] = {}
    for m, c in p.terms.items():
        comps.setdefault(sum(m), {})[m] = c
    return {d: MPoly(p.vars, t) for d, t in sorted(comps.items())}


def test_homogeneous_components():
    x1 = MPoly.variable(VARS, "x1")
    x2 = MPoly.variable(VARS, "x2")
    p = x1 * x1 + x2 + MPoly.constant(VARS, 3)
    comps = homogeneous_components(p)
    assert sorted(comps) == [0, 1, 2]
    assert comps[2] == x1 * x1
    assert sum(comps.values(), MPoly.zero(VARS)) == p


def test_subs_point_and_params():
    x1 = MPoly.variable(VARS, "x1")
    p = x1 * x1.scale(S) + MPoly.constant(VARS, 1)
    val = p.subs_point([Fraction(2), 0, 0])
    assert val == S * 4 + 1
    q = p.subs_params({"s": ParamPoly.of(3)})
    assert q.subs_point([Fraction(2), 0, 0]) == ParamPoly.of(13)


def test_compose_chain_rule():
    rng = random.Random(7)
    p = random_poly(VARS, rng, 3)
    images = [random_poly(("y1", "y2"), rng, 2) for _ in range(3)]
    composed = p.compose(images)
    pt = [Fraction(1), Fraction(-2)]
    direct = p.subs_point([img.subs_point(pt).constant_value() for img in images])
    assert composed.subs_point(pt) == direct


def test_extend_and_rename():
    p = MPoly.variable(("x1", "x2"), "x2") ** 2
    dv = double_vars(("x1", "x2"))
    assert dv == ("x1", "x2", "y1", "y2")
    q = p.extend_vars(dv)
    assert q.total_degree() == 2
    r = p.rename_vars(("y1", "y2"))
    assert r.vars == ("y1", "y2")


# ---------------------------------------------------------------------------
# the derivative table and the product rule, against plain differentiation


def diff_decreasing(f: MPoly, mono) -> MPoly:
    """d^mono f by plain MPoly.diff, the last coordinate first: the reverse of
    the order the table differentiates in."""
    for i in reversed(range(len(mono))):
        for _ in range(mono[i]):
            f = f.diff(i)
    return f


@pytest.mark.parametrize("form", ["param", "bare"])
def test_partials_table_against_plain_diff(form):
    rng = random.Random(21)
    orders = list(product(range(4), repeat=3))
    zeros = 0
    for _ in range(8):
        f = random_poly(VARS, rng, 4, terms=5)
        f = f.scale(S + 2) if form == "param" else f.over_q()
        partial = partials(f, 3, MPoly.diff)
        for mono in orders:
            got = partial(mono)
            assert got == diff_decreasing(f, mono), mono
            for c in got.terms.values():
                assert type(c) is ParamPoly if form == "param" else stored_form(c)
            zeros += got.is_zero()
    assert 0 < zeros < 8 * len(orders)


def test_partials_table_stops_at_zero():
    calls = []

    def counted(g, i):
        calls.append(i)
        return g.diff(i)

    x1 = MPoly.variable(VARS, "x1")
    partial = partials(x1, 3, counted)
    assert partial((5, 0, 0)).is_zero()
    # x1 -> 1 -> 0, and no derivative of the zero entry is taken
    assert calls == [0, 0]
    assert partial((0, 0, 0)) is x1


def test_partials_table_freed_without_gc():
    # the lookup holds no reference to itself, so the table goes as soon as
    # its last caller drops it, not at the next cyclic garbage collection
    partial = partials(MPoly.variable(VARS, "x1") ** 3, 3, MPoly.diff)
    assert partial((2, 0, 0)) == MPoly.variable(VARS, "x1").scale(6)
    ref = weakref.ref(partial)
    gc.disable()
    try:
        del partial
        assert ref() is None
    finally:
        gc.enable()


def test_leibniz_orders_product_rule():
    rng = random.Random(5)
    for alpha in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1), (3, 0, 2)]:
        orders = leibniz_orders(alpha)
        assert len(orders) == prod(a + 1 for a in alpha)
        assert orders[0] == ((0, 0, 0), 1)
        for _ in range(3):
            f = random_poly(VARS, rng, 4, terms=4)
            g = random_poly(VARS, rng, 4, terms=4)
            rhs = MPoly.sum(VARS, (
                (diff_decreasing(f, beta) * diff_decreasing(
                    g, tuple(a - b for a, b in zip(alpha, beta)))).scale(c)
                for beta, c in orders))
            assert diff_decreasing(f * g, alpha) == rhs, alpha


def tuple_product(a: MPoly, b: MPoly) -> dict:
    """The terms of a * b by a loop on exponent tuples, a cancelled monomial
    dropped at once: the reference order of MPoly.__mul__."""
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            c = out[m] + c1 * c2 if m in out else c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def test_product_keeps_the_tuple_loop_order():
    v = ("x", "y")
    x, y, one = (MPoly.variable(v, "x"), MPoly.variable(v, "y"), MPoly.constant(v, 1))
    # x y cancels at y * (-x) and comes back with 1 * x y, at the end
    got = (x + y + one) * (y - x + x * y)
    assert list(got.terms) == [(2, 0), (2, 1), (0, 2), (1, 2), (0, 1), (1, 0), (1, 1)]
    assert got.terms == tuple_product(x + y + one, y - x + x * y)
    rng = random.Random(17)
    for form in ("param", "bare"):
        for _ in range(40):
            a = random_poly(VARS, rng, 3, terms=6)
            b = random_poly(VARS, rng, 3, terms=6)
            if form == "bare":
                a, b = a.over_q(), b.over_q()
            got = a * b
            assert got.terms == tuple_product(a, b)
            assert list(got.terms) == list(tuple_product(a, b))


def test_product_refuses_an_exponent_outside_its_field():
    # packed keys hold 16-bit fields; 2^14 - 1 is the largest exponent a
    # factor may have, so that a sum of two stays inside its field
    top = (1 << 14) - 1
    x = MPoly.variable(VARS, "x1")
    wide = MPoly.monomial(VARS, (top, 0, 0)) + MPoly.monomial(VARS, (0, top, 1))
    assert (wide * wide).terms == tuple_product(wide, wide)
    over = MPoly.monomial(VARS, (top + 1, 0, 0)) + x
    for a, b in ((over, x + MPoly.constant(VARS, 1)), (x + MPoly.constant(VARS, 1), over)):
        with pytest.raises(OverflowError):
            a * b


# ---------------------------------------------------------------------------
# the bare form over Gaussian rationals


def test_rational_times_gaussian_either_side():
    g = Gaussian(Fraction(2, 3), Fraction(-5, 4))
    for c in (3, -2, Fraction(7, 5), Fraction(-4, 2)):
        want = Gaussian(g.re * c, g.im * c)
        assert c * g == g * c == want
        assert Fraction(c) * g == g * Fraction(c) == want


def test_gaussian_coefficients_against_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(20)
    vars = ("x1", "x2")
    symbols = sp.symbols(vars)

    def gaussian() -> Gaussian:
        return Gaussian(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    def draw() -> MPoly:
        return MPoly.sum(vars, (MPoly.monomial(vars, (rng.randint(0, 2), rng.randint(0, 2)), 1)
                                .over_q().scale(gaussian()) for _ in range(rng.randint(1, 4))))

    def rational(v) -> "sp.Rational":
        v = Fraction(v)
        return sp.Rational(v.numerator, v.denominator)

    def to_sympy(p: MPoly):
        total = sp.Integer(0)
        for m, c in p.terms.items():
            value = rational(c.re) + sp.I * rational(c.im) if type(c) is Gaussian else rational(c)
            total += value * symbols[0] ** m[0] * symbols[1] ** m[1]
        return total

    def agrees(p: MPoly, expr) -> bool:
        return sp.expand(to_sympy(p) - expr) == 0

    for _ in range(15):
        a, b = draw(), draw()
        sa, sb = to_sympy(a), to_sympy(b)
        c, r = gaussian(), Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        results = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                   (a.scale(c), sa * (rational(c.re) + sp.I * rational(c.im))),
                   (a.scale(r), sa * rational(r)), (a.diff(0), sp.diff(sa, symbols[0])),
                   (a.diff("x2"), sp.diff(sa, symbols[1]))]
        results += [(a ** k, sa ** k) for k in range(4)]
        for got, want in results:
            assert agrees(got, want)
        # one form per polynomial: a product or sum of Gaussian polynomials
        # holds Gaussians only
        for got in (a + b, a - b, a * b, a.scale(r), a.diff(0), a ** 2):
            assert all(type(v) is Gaussian for v in got.terms.values())


@pytest.mark.parametrize("form", ["param", "int", "gaussian"])
def test_zeroth_power_keeps_the_coefficient_form(form):
    # p ** 0 is the one of p's own form, so it adds to p from either side
    vars = ("x1", "x2")
    x_plus_1 = MPoly.variable(vars, "x1") + MPoly.constant(vars, 1)
    p = {"param": x_plus_1.scale(S), "int": x_plus_1.over_q(),
         "gaussian": x_plus_1.over_q().scale(Gaussian(Fraction(0), Fraction(1)))}[form]
    one = MPoly.constant(vars, 1)
    one = {"param": one, "int": one.over_q(), "gaussian": one.over_q().scale(G_ONE)}[form]
    assert p ** 0 == one
    assert p + p ** 0 == p ** 0 + p == p + one
    assert p ** 1 == p
