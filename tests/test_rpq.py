"""Explicit quadratic-space operators against the generic machinery, and
the bracket family."""

import random
from fractions import Fraction

import pytest

from covjord import conformal as C
from covjord import detpower as D
from covjord import jordan as J
from covjord import rpq as R
from covjord import weyl as W
from covjord.polynomials import MPoly, double_vars
from covjord.scalars import LAM, MU, ParamPoly, S, T

from conftest import diagonal_substitute, random_poly

TRIO = [(2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("pq", [*TRIO, (1, 2), (1, 3)])
def test_explicit_equals_generic(pq):
    p, q = pq
    alg = J.rpq_algebra(p, q)
    est = D.build_Est(alg)
    assert R.explicit_Dst(p, q) == est.dst
    assert R.explicit_Est(p, q) == est.normalized
    assert R.explicit_F(p, q) == D.build_F(alg)


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
        k = D.declared_tau_power(fc)
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
    assert resF == b1
    # lam = mu = 0: only the mixed part survives, coefficient 8(n/2-1)^2
    sub = [(beta, c.subs_params({"lam": ParamPoly.of(0), "mu": ParamPoly.of(0)}))
           for beta, c in b1.terms.items()]
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
    sub2 = {beta: c.subs_params({"lam": ParamPoly.of(c0)}) for beta, c in b1.terms.items()}
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
    assert max(sum(beta) for beta, _ in b2.terms.items()) == 4


def test_bracket_covariance_single_sample():
    p, q = 2, 1
    model = C.QuadricModel(p, q)
    X = model.lie_basis()[2]
    chain = R.f_chain(p, q, 2)
    assert C.bracket_covariance_residual(model, chain, X, 4).is_zero()


def test_bracket_certificates_fold_none_of_the_chain(monkeypatch):
    # the chain leaves its restriction, so neither the certificate nor
    # build_BN folds any of the chain's terms: the fold sees the
    # coefficients of src - lift alone, whose restriction is the multiplier
    p, q = 2, 2
    model = C.QuadricModel(p, q)
    X = model.lie_basis()[-1]
    chain = R.f_chain(p, q, 2)
    assert sum(len(c.terms) for c in chain.terms.values()) == 18098
    chain_dicts = {id(s.terms) for c in chain.terms.values() for s in c.terms.values()}
    fold = W._fold
    folded = []

    def counted(coeff, n, folds):
        folded.extend(map(id, coeff.values()))
        return fold(coeff, n, folds)

    monkeypatch.setattr(W, "_fold", counted)
    assert C.bracket_covariance_residual(model, chain, X, 4).is_zero()
    bracket = R.build_BN(p, q, 2)
    src_minus_lift = C.dpi_tensor(model, X, LAM, MU) - C.dpi_tensor(model, X, LAM + MU + 4, 0)
    assert len(folded) == sum(len(c.terms) for c in src_minus_lift.terms.values())
    assert chain_dicts.isdisjoint(folded)
    assert bracket is W.restrict(chain, p + q)


def _full_chain_residual(model, chain, X, shift):
    """The bracket residual composed on the full chain, restricted afterwards."""
    n = model.n
    src = C.dpi_tensor(model, X, LAM, MU)
    lifted = C.restrict(C.dpi_tensor(model, X, LAM + MU + shift, 0), n)
    return C.restrict(chain.compose(src), n) - C.restrict(lifted.compose(chain), n)


@pytest.mark.parametrize("p, q, N, elements", [
    (2, 1, 1, range(10)), (2, 1, 2, (3, 6)), (1, 2, 1, range(10)), (1, 2, 2, (3, 6)),
], ids=["N1", "N2", "rpq12-N1", "rpq12-N2"])
def test_bracket_residual_matches_full_chain_route(p, q, N, elements):
    # the right weight shift 2N gives zero; 2N + 1 gives nonzero residuals too;
    # the residual reads only res(chain), so the restricted chain gives it too
    model = C.QuadricModel(p, q)
    basis = model.lie_basis()
    chain = R.f_chain(p, q, N)
    bracket = R.build_BN(p, q, N)
    nonzero = 0
    for i in elements:
        for shift in (2 * N, 2 * N + 1):
            got = C.bracket_covariance_residual(model, chain, basis[i], shift)
            assert got == _full_chain_residual(model, chain, basis[i], shift)
            assert got == C.bracket_covariance_residual(model, bracket, basis[i], shift)
            if shift == 2 * N:
                assert got.is_zero()
            nonzero += not got.is_zero()
    assert nonzero >= 2


def test_bracket_residual_matches_full_chain_route_off_constant_coefficients():
    # the chain F . d(pi)(X) restricts to an operator whose coefficients are
    # not constant, so the multiplier term differentiates them; the right
    # shift 2 and the wrong shift 3 both match the full-chain route
    p, q = 2, 1
    model = C.QuadricModel(p, q)
    n = model.n
    basis = model.lie_basis()
    F = R.explicit_F(p, q)
    nonzero = 0
    for i, j in [(5, 1), (6, 4), (len(basis) - 1, len(basis) - 2)]:
        chain = F.compose(C.dpi_tensor(model, basis[i], LAM, MU))
        res = C.restrict(chain, n)
        assert any(not c.is_constant() for c in res.terms.values())
        for shift in (2, 3):
            got = C.bracket_covariance_residual(model, chain, basis[j], shift)
            assert got == _full_chain_residual(model, chain, basis[j], shift)
            nonzero += not got.is_zero()
    assert nonzero > 0


def _scalar_snapshot(op):
    return {b: [(m, s, dict(s.terms)) for m, s in c.terms.items()] for b, c in op.terms.items()}


@pytest.mark.parametrize("case", ["F", "chain2", "dpi_tensor"])
def test_restrict_equals_the_per_coefficient_route(case):
    # restrict is diagonal_substitute on each coefficient, holds one
    # ParamPoly per distinct scalar, is idempotent and leaves its operand
    # (terms, scalar objects and their dicts) as it was
    p, q = 2, 2
    n = p + q
    model = C.QuadricModel(p, q)
    op = {"F": lambda: R.explicit_F(p, q),
          "chain2": lambda: R.f_chain(p, q, 2),
          "dpi_tensor": lambda: C.dpi_tensor(model, model.lie_basis()[-1], LAM, MU)}[case]()
    before = _scalar_snapshot(op)
    got = C.restrict(op, n)
    assert got == W.DiffOp(op.vars, {b: diagonal_substitute(c, n) for b, c in op.terms.items()})
    assert got != op
    scalars = [s for c in got.terms.values() for s in c.terms.values()]
    assert all(type(s) is ParamPoly for s in scalars)
    assert len({id(s) for s in scalars}) == len(set(scalars))
    assert C.restrict(got, n) == got
    after = _scalar_snapshot(op)
    assert after == before
    assert all(s is s2 for b in before for (_, s, _), (_, s2, _) in zip(before[b], after[b]))


def _random_doubled_op(rng, dvars, n):
    """Operator of order <= 2 on the doubled chart whose coefficients involve y."""
    terms = {}
    for _ in range(4):
        beta = [0] * (2 * n)
        for _ in range(rng.randint(0, 2)):
            beta[rng.randrange(2 * n)] += 1
        coeff = random_poly(dvars, rng, 3) + MPoly.variable(dvars, dvars[n + rng.randrange(n)])
        terms[tuple(beta)] = coeff.scale(LAM) if rng.random() < 0.5 else coeff
    return W.DiffOp(dvars, terms)


@pytest.mark.parametrize("seed", range(6))
def test_lifted_composition_sees_only_the_restriction(seed):
    # res(L . A) = res(L . res(A)) for the lifted L (chain rule along the
    # diagonal) and res(A . B) = res(res(A) . B) for any B (the left
    # coefficients are not differentiated); dx_i alone, on the left, tells
    # A from res(A)
    rng = random.Random(f"lift:{seed}")
    model = C.QuadricModel(2, 1)
    n = model.n
    dvars = double_vars(model.algebra.vars)
    basis = model.lie_basis()
    coeffs = [rng.randint(-2, 2) for _ in basis]
    X = tuple(tuple(sum(c * B[i][j] for c, B in zip(coeffs, basis)) for j in range(n + 2))
              for i in range(n + 2))
    A = _random_doubled_op(rng, dvars, n)
    resA = C.restrict(A, n)
    assert any(any(m[n:]) for c in A.terms.values() for m in c.terms)
    assert A != resA
    lifted = C.restrict(C.dpi_tensor(model, X, LAM + MU + rng.randint(0, 3), 0), n)
    src = C.dpi_tensor(model, X, LAM, MU)
    assert C.restrict(lifted.compose(A), n) == C.restrict(lifted.compose(resA), n)
    assert C.restrict(A.compose(src), n) == C.restrict(resA.compose(src), n)
    dx = W.DiffOp.derivative(dvars, rng.randrange(n))
    assert C.restrict(dx.compose(A), n) != C.restrict(dx.compose(resA), n)


@pytest.mark.parametrize("seed", range(6))
def test_restrict_acts_as_the_operator_on_the_diagonal(seed):
    # res(A) f agrees with A f on the diagonal, restricting twice changes
    # nothing, and no coefficient of res(A) depends on y
    rng = random.Random(f"restrict:{seed}")
    n = 3
    dvars = double_vars(J.rpq_algebra(2, 1).vars)
    A = _random_doubled_op(rng, dvars, n)
    resA = C.restrict(A, n)
    assert A != resA
    assert C.restrict(resA, n) == resA
    assert not any(any(m[n:]) for c in resA.terms.values() for m in c.terms)
    for _ in range(5):
        f = MPoly.monomial(dvars, tuple(rng.randint(0, 2) for _ in dvars), 1)
        assert diagonal_substitute(resA.apply(f), n) == diagonal_substitute(A.apply(f), n)


def test_parameter_validation():
    # the quadric model takes the algebra's own refusal: rpq:p,q needs q >= 1
    with pytest.raises(ValueError):
        C.QuadricModel(2, 0)
    with pytest.raises(ValueError):
        R.build_BN(2, 1, 0)


def test_operator_displays():
    alg = J.rpq_algebra(2, 1)
    assert R.explicit_Est(2, 1).apply(MPoly.constant(double_vars(alg.vars), 1)).is_zero()
    assert R.build_BN(2, 1, 1).terms == R.explicit_B1(2, 1).terms
