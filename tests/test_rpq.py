"""Explicit quadratic-space operators against the generic machinery, and
the bracket family."""

from fractions import Fraction

import pytest

from covjord import conformal as C
from covjord import detpower as D
from covjord import jordan as J
from covjord import rpq as R
from covjord import weyl as W
from covjord.polynomials import MPoly, double_vars
from covjord.scalars import MU, ParamPoly, S, T

from conftest import random_poly

TRIO = [(2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("pq", TRIO)
def test_explicit_equals_generic(pq):
    p, q = pq
    alg = J.rpq_algebra(p, q)
    est = W.build_Est(alg)
    assert R.explicit_Dst(p, q) == est.dst
    assert R.explicit_Est(p, q) == est.normalized
    assert R.explicit_F(p, q) == W.build_F(alg, est)


def test_dst_constant_action():
    p, q = 2, 1
    n = p + q
    dvars = double_vars(J.rpq_algebra(p, q).vars)
    one = MPoly.constant(dvars, 1)
    got = R.explicit_Dst(p, q).apply(one)
    # all displayed constant terms carry s or t factors: zero at s = t = 0
    at00 = got.subs_params({"s": ParamPoly.of(0), "t": ParamPoly.of(0)})
    assert at00.is_zero()
    assert got == D.extract_Dst(J.rpq_algebra(p, q), one)


def test_dst_brute_force_at_integer_powers(rng):
    alg = J.rpq_algebra(2, 1)
    dvars = double_vars(alg.vars)
    f = random_poly(dvars, rng, 2)
    action = R.explicit_Dst(2, 1).apply(f)
    detx = alg.det_poly.extend_vars(dvars)
    dety = alg.det_poly.rename_vars(dvars[alg.n:]).extend_vars(dvars)
    k, l = 3, 2
    lhs = D.brute_force_wave(alg, k, l, f)
    rhs = detx ** (k - 1) * dety ** (l - 1) * action.subs_params(
        {"s": ParamPoly.of(k), "t": ParamPoly.of(l)})
    assert lhs == rhs


def test_est_annihilates_constants_and_mixed_coefficient():
    p, q = 2, 1
    n = p + q
    est = R.explicit_Est(p, q)
    dvars = double_vars(J.rpq_algebra(p, q).vars)
    assert est.apply(MPoly.constant(dvars, 1)).is_zero()
    # coefficient of the mixed second-order slot dx_1 dy_1 carries 8(s-1)(t-1)
    key = tuple([1] + [0] * (n - 1) + [1] + [0] * (n - 1))
    coeff = est.terms[key]
    expect = (S - 1) * (T - 1) * 8
    assert coeff.constant_coeff() == expect


def test_est_fourier_round_trip():
    for (p, q) in TRIO:
        est = R.explicit_Est(p, q)
        fc = W.fourier_conjugate(est)
        k = W.declared_tau_power(fc)
        assert k == 2
        folded = fc.shift_tau(-k).scale(Fraction(-1))  # tau^2 = -1
        assert folded == R.explicit_Dst(p, q)


def test_F_special_values():
    p, q = 2, 2
    n = p + q
    alg = J.rpq_algebra(p, q)
    F = R.explicit_F(p, q)
    # at lam = mu = n/2 - 1 every displayed coefficient carrying the factor
    # (-lam + n/2 - 1) dies; only the top term -P(x-y) P(dx) P(dy) survives
    c = Fraction(n, 2) - 1
    sub = F.subs_params({"lam": ParamPoly.of(c), "mu": ParamPoly.of(c)})
    dvars = double_vars(alg.vars)
    signs = [Fraction(1)] * p + [Fraction(-1)] * q
    Pdiff = MPoly.zero(dvars)
    for i in range(n):
        di = MPoly.variable(dvars, dvars[i]) - MPoly.variable(dvars, dvars[n + i])
        Pdiff = Pdiff + (di * di).scale(signs[i])
    top = W.DiffOp.multiplication(Pdiff.scale(-1))
    for offset in (0, n):
        terms = {}
        for i in range(n):
            b = [0] * (2 * n)
            b[offset + i] = 2
            terms[tuple(b)] = MPoly.constant(dvars, signs[i])
        top = top.compose(W.DiffOp(dvars, terms))
    assert sub == top
    assert F.apply(MPoly.constant(dvars, 1)).is_zero()


def test_b1_displays():
    p, q = 2, 1
    n = p + q
    b1 = R.explicit_B1(p, q)
    resF = R.restrict(R.explicit_F(p, q), n)
    assert R.proportionality(resF, b1) == 1
    # lam = mu = 0: only the mixed part survives, coefficient 8(n/2-1)^2
    sub = [(beta, c.subs_params({"lam": ParamPoly.of(0), "mu": ParamPoly.of(0)}))
           for beta, c in b1.terms]
    expect = 8 * Fraction(n - 2, 2) ** 2
    signs = [Fraction(1)] * p + [Fraction(-1)] * q
    seen = 0
    for beta, c in sub:
        if c.is_zero():
            continue
        i = next(k for k in range(n) if beta[k])
        assert beta[n + i] == 1 and sum(beta) == 2
        assert c.constant_coeff().constant_value() == expect * signs[i]
        seen += 1
    assert seen == n
    # lam = n/2 - 1: result is 4 mu (-mu + n/2 - 1) res P(dx)
    c0 = Fraction(n, 2) - 1
    sub2 = {beta: c.subs_params({"lam": ParamPoly.of(c0)}) for beta, c in b1.terms}
    coeff = MU * (ParamPoly.of(c0) - MU) * 4
    for beta, c in sub2.items():
        if c.is_zero():
            continue
        i = next(k for k in range(n) if beta[k])
        assert beta[i] == 2 and sum(beta) == 2 and sum(beta[n:]) == 0
        assert c.constant_coeff() == coeff * signs[i]


def test_bracket_N1_equals_restricted_family():
    for (p, q) in [(2, 1), (2, 2)]:
        assert R.build_BN(p, q, 1).terms == R.restrict(R.explicit_F(p, q), p + q).terms


def test_bracket_applies_to_constants():
    b1 = R.build_BN(2, 1, 1)
    one = MPoly.constant(double_vars(J.rpq_algebra(2, 1).vars), 1)
    assert b1.apply(one).is_zero()


def test_bracket_order():
    b2 = R.build_BN(2, 1, 2)
    assert max(sum(beta) for beta, _ in b2.terms) == 4


def test_bracket_covariance_single_sample():
    p, q = 2, 1
    model = C.QuadricModel(p, q)
    X = model.lie_basis()[2]
    chain = R.f_chain(p, q, 2)
    assert C.bracket_covariance_residual(model, chain, X, 4).is_zero()


def test_parameter_validation():
    # the operator families need p >= 2 and q >= 1, enforced by the quadric model
    with pytest.raises(ValueError):
        C.QuadricModel(1, 2)
    with pytest.raises(ValueError):
        C.QuadricModel(2, 0)
    with pytest.raises(ValueError):
        R.build_BN(2, 1, 0)


def test_operator_displays():
    alg = J.rpq_algebra(2, 1)
    assert R.explicit_Est(2, 1).apply(MPoly.constant(double_vars(alg.vars), 1)).is_zero()
    assert R.build_BN(2, 1, 1).terms == R.explicit_B1(2, 1).terms
