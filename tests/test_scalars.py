"""Ring laws and canonical-form behavior of the scalar coefficient ring."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from covjord import detpower as D
from covjord import jordan as J
from covjord import rpq as R
from covjord.fischer import LeibnitzExpansion
from covjord.scalars import LAM, MU, PARAM_NAMES, S, T, TAU, TAU_INV, ParamPoly, fraction_matrix_inverse

from conftest import stored_form


def scalars(max_terms=4):
    exponent = st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
        st.integers(0, 2), st.integers(-2, 2),
    )
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.dictionaries(exponent, coeff, max_size=max_terms).map(ParamPoly)


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ParamPoly.zero()
    assert a * ParamPoly.of(1) == a


@given(scalars())
@settings(max_examples=40, deadline=None)
def test_canonical_no_zero_terms(a):
    assert all(c != 0 for c in a.terms.values())


def test_tau_inverse_pair_reduces():
    assert TAU * TAU_INV == ParamPoly.of(1)
    assert TAU ** 3 * TAU_INV == TAU * TAU
    assert (S * TAU * TAU_INV) == S


def test_substitute_and_evaluate():
    p = S * S - T + 2
    q = p.substitute({"s": LAM + 1, "t": MU * 2})
    assert q == (LAM + 1) * (LAM + 1) - MU * 2 + 2
    val = p.substitute({"s": ParamPoly.of(3), "t": ParamPoly.of(1)}).constant_value()
    assert val == Fraction(10)
    z = p.evaluate_complex({"s": 2.0, "t": 1.0, "lam": 0.0, "mu": 0.0, "tau": 1.0})
    assert abs(z - 5.0) < 1e-14


def degree_in(p: ParamPoly, name: str) -> int:
    i = PARAM_NAMES.index(name)
    return max((e[i] for e in p.terms), default=0)


def test_degree_bookkeeping():
    p = S ** 2 * T + LAM
    assert p.total_degree() == 3
    assert degree_in(p, "s") == 2
    assert degree_in(p, "mu") == 0
    assert (S * TAU).tau_degrees() == {1}


def _stored(obj):
    """Every stored coefficient under a DiffOp, an MPoly or a ParamPoly; a
    bare rational coefficient of an MPoly is its own stored form."""
    if isinstance(obj, ParamPoly):
        yield from obj.terms.values()
    elif isinstance(obj, (int, Fraction)):
        yield obj
    else:
        for c in obj.terms.values():
            yield from _stored(c)


def test_integer_work_stays_int():
    assert type(ParamPoly.of(Fraction(6, 3)).terms[(0,) * 5]) is int
    assert type((ParamPoly.of(6) / 3).terms[(0,) * 5]) is int
    assert (ParamPoly.of(3) / 2).terms == {(0,) * 5: Fraction(3, 2)}
    # rationals leave the ring as Fraction, so `/` on them stays exact
    assert type(ParamPoly.of(2).constant_value() / 4) is Fraction
    assert type(S.substitute({"s": ParamPoly.of(2)}).constant_value()) is Fraction


def test_no_float_in_symbolic_layers():
    sym2 = J.sym_algebra(2)
    rpq21 = J.rpq_algebra(2, 1)
    oracle = [D._pair_det_power(alg, slot, 3) for alg in (sym2, rpq21) for slot in (0, 1)]
    oracle += [D._wave_pair_symbol(sym2), D._wave_pair_symbol(rpq21)]
    for op in (D.dst_operator(sym2), R.explicit_F(2, 1), R.f_chain(2, 1, 2), *oracle):
        coeffs = list(_stored(op))
        assert coeffs and all(stored_form(c) for c in coeffs)
    norms = LeibnitzExpansion(sym2.det_poly).norms
    inverse = fraction_matrix_inverse([[2, 1], [1, 1]])
    for value in (*norms, *(v for row in inverse for v in row)):
        assert type(value) in (int, Fraction)


@given(scalars(), scalars())
@settings(max_examples=40, deadline=None)
def test_ring_operations_keep_stored_form(a, b):
    for c in (a + b, a - b, a * b, a.scale_rat(2), a.scale_rat(Fraction(1, 2)), a / 3):
        assert all(stored_form(v) for v in c.terms.values())
