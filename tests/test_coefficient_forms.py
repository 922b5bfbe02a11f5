"""The two coefficient forms of MPoly: ParamPoly, and bare rationals (int,
or Fraction when not integral) for parameter-free polynomials.  The
arithmetic is written once for both, so every operation must give the same
polynomial in either form, and a parameter must promote bare rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from covjord.fischer import apply_diffop
from covjord.polynomials import MPoly, double_vars
from covjord.scalars import LAM, S, ParamPoly

from conftest import stored_form

CHARTS = (("x1", "x2", "x3"), double_vars(("x1", "x2", "x3")))


def _lowered(p: MPoly) -> bool:
    return all(stored_form(c) for c in p.terms.values())


def free_polys(vars):
    """Parameter-free polynomials with integral and non-integral coefficients."""
    mono = st.tuples(*[st.integers(0, 2)] * len(vars))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(mono, coeff, max_size=5).map(lambda t: MPoly(vars, t))


def pairs():
    return st.sampled_from(CHARTS).flatmap(lambda v: st.tuples(free_polys(v), free_polys(v)))


@seed(20170)
@given(pairs(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_forms_agree(pair, c):
    a, b = pair
    aq, bq = a.over_q(), b.over_q()
    assert _lowered(aq) and _lowered(bq)
    # linear images x_(i+1) - c x_i, in either form
    vars = a.vars
    images = [MPoly.variable(vars, vars[(i + 1) % len(vars)]) - MPoly.variable(vars, v).scale(c)
              for i, v in enumerate(vars)]
    results = [
        (aq + bq, a + b),
        (aq - bq, a - b),
        (aq * bq, a * b),
        (aq.scale(c), a.scale(c)),
        (aq ** 2, a ** 2),
        (aq.compose([g.over_q() for g in images]), a.compose(images)),
        (apply_diffop(aq, bq), apply_diffop(a, b)),
    ]
    results += [(aq.diff(i), a.diff(i)) for i in range(len(a.vars))]
    for low, high in results:
        # arithmetic keeps exact values, so an integral one may stay a
        # Fraction; over_q stores it as int
        assert all(type(c) in (int, Fraction) for c in low.terms.values())
        assert _lowered(low.over_q())
        assert low.terms == high.over_q().terms
        assert MPoly(low.vars, low.terms) == high


def test_lowering_refuses_parameters():
    vars = CHARTS[0]
    p = MPoly.variable(vars, "x1").scale(S) + MPoly.constant(vars, 2)
    with pytest.raises(ValueError):
        p.over_q()


def test_parameter_promotes_bare_rationals():
    vars = CHARTS[1]
    x1, y2 = MPoly.variable(vars, "x1"), MPoly.variable(vars, "y2")
    p = x1 * x1 + y2.scale(Fraction(1, 2)) + MPoly.constant(vars, 3)
    q = x1.scale(LAM) + MPoly.constant(vars, -1)
    low = p.over_q()
    for got, want in ((low * q, p * q), (q * low, q * p), (low + q, p + q),
                      (low.scale(LAM + 1), p.scale(LAM + 1))):
        assert got.terms and all(type(c) is ParamPoly for c in got.terms.values())
        assert got == want
