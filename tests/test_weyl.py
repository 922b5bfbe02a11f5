"""Weyl algebra: normal ordering, composition, Fourier conjugation, and the
derived operator families."""

import sys
from fractions import Fraction
from math import factorial

import pytest

from covjord import conformal as C
from covjord import detpower as D
from covjord import jordan as J
from covjord import rpq as R
from covjord import weyl as W
from covjord.polynomials import MPoly, double_vars
from covjord.scalars import LAM, MU, ParamPoly, TAU

from conftest import diagonal_substitute, random_poly

V = ("x1", "x2")


def rand_op(rng, vars=V, max_order=2, terms=2):
    out = W.DiffOp.zero(vars)
    for _ in range(terms):
        b = tuple(rng.randint(0, max_order) for _ in vars)
        out = out + W.DiffOp(vars, {b: random_poly(vars, rng, 2, terms=2)})
    return out


def test_commutator_canonical():
    d1 = W.DiffOp.derivative(V, 0)
    x1 = W.DiffOp.multiplication(MPoly.variable(V, "x1"))
    got = d1.compose(x1)
    assert got == W.DiffOp(V, {
        (1, 0): MPoly.variable(V, "x1"),
        (0, 0): MPoly.constant(V, 1),
    })


def test_zero_operator_on_either_side(rng):
    zero = W.DiffOp.zero(V)
    A = rand_op(rng)
    f = random_poly(V, rng, 3)
    for op in (A, zero):
        assert zero.compose(op) == zero and op.compose(zero) == zero
        assert zero.commutator(op) == zero and op.commutator(zero) == zero
        assert op.apply(MPoly.zero(V)) == MPoly.zero(V)
    assert zero.apply(f) == MPoly.zero(V)


def test_identity_neutral(rng):
    A = rand_op(rng)
    I = W.DiffOp.identity(V)
    assert I.compose(A) == A
    assert A.compose(I) == A


def test_compose_matches_application(rng):
    for _ in range(30):
        A = rand_op(rng)
        B = rand_op(rng)
        f = random_poly(V, rng, 5)
        assert A.compose(B).apply(f) == A.apply(B.apply(f))


def test_compose_associativity(rng):
    for _ in range(50):
        A, B, C = rand_op(rng), rand_op(rng), rand_op(rng)
        assert A.compose(B.compose(C)) == A.compose(B).compose(C)


def test_fourier_generators():
    d1 = W.DiffOp.derivative(V, 0)
    x1 = W.DiffOp.multiplication(MPoly.variable(V, "x1"))
    assert W.fourier_conjugate(d1) == W.DiffOp.multiplication(
        MPoly.variable(V, "x1").scale(-TAU))
    assert W.fourier_conjugate(x1) == W.DiffOp(
        V, {(1, 0): MPoly.constant(V, ParamPoly.var("tau", -1))})


def test_fourier_double_is_parity(rng):
    for _ in range(20):
        A = rand_op(rng)
        FF = W.fourier_conjugate(W.fourier_conjugate(A))
        parity = W.DiffOp(A.vars, {
            b: MPoly(A.vars, {m: c * ((-1) ** (sum(m) + sum(b))) for m, c in co.terms.items()})
            for b, co in A.terms.items()
        })
        assert FF == parity


def test_fourier_automorphism_and_inverse(rng):
    for _ in range(50):
        A = rand_op(rng)
        B = rand_op(rng)
        assert W.fourier_conjugate(A.compose(B)) == \
            W.fourier_conjugate(A).compose(W.fourier_conjugate(B))
        assert W.fourier_conjugate(W.fourier_conjugate(A), inverse=True) == A
        assert W.fourier_conjugate(W.fourier_conjugate(A, inverse=True)) == A


def test_declared_tau_power():
    op = W.DiffOp.multiplication(MPoly.constant(V, TAU * TAU))
    assert D.declared_tau_power(op) == 2
    mixed = op + W.DiffOp.multiplication(MPoly.constant(V, 1))
    with pytest.raises(D.ConventionError):
        D.declared_tau_power(mixed)


@pytest.mark.parametrize("spec", ["sym:2", "mat:2", "hermc:2", "rpq:2,1", "rpq:2,2", "rpq:3,1"])
def test_est_exchange_identity(spec):
    alg = J.algebra_from_spec(spec)
    est = D.build_Est(alg)
    assert W.fourier_conjugate(est.raw) == est.dst
    assert est.tau_power == -alg.r
    one = MPoly.constant(double_vars(alg.vars), 1)
    assert est.normalized.apply(one).is_zero()


def test_est_round_trip_symbolic(rng):
    # the raw family conjugates back and forth exactly
    alg = J.sym_algebra(2)
    est = D.build_Est(alg)
    back = W.fourier_conjugate(est.dst, inverse=True)
    assert back == est.raw


def test_exchange_round_trip_graded_rank3():
    # rank-3 operator form through the fast graded route; the conjugation
    # round-trip must still be exact
    alg = J.sym_algebra(3)
    dst = D.dst_operator_graded(alg)
    raw = W.fourier_conjugate(dst, inverse=True)
    assert D.declared_tau_power(raw) == -alg.r
    assert W.fourier_conjugate(raw) == dst


def test_build_F_substitution():
    alg = J.rpq_algebra(2, 1)
    est = D.build_Est(alg)
    F = D.build_F(alg)
    half = Fraction(alg.n, alg.r)
    direct = est.normalized.subs_params({
        "s": ParamPoly.of(half) - LAM, "t": ParamPoly.of(half) - MU})
    assert F == direct


def test_pretty_deterministic():
    alg = J.sym_algebra(2)
    op = D.dst_operator(alg)
    assert op.pretty() == op.pretty()
    assert "d" in op.pretty()


def _binom(a: ParamPoly, m: int) -> ParamPoly:
    """C(a, m) = a (a - 1) ... (a - m + 1) / m! as a polynomial in a."""
    out = ParamPoly.of(1)
    for i in range(m):
        out = out * (a - i)
    return out * Fraction(1, factorial(m))


def _rankin_cohen(k: int) -> W.DiffOp:
    """sum_j k! (-1)^j C(lam+k-1, k-j) C(mu+k-1, j) dx^j dy^(k-j) on R x R."""
    dvars = double_vars(J.sym_algebra(1).vars)
    return W.DiffOp(dvars, {
        (j, k - j): MPoly.constant(dvars, _binom(LAM + k - 1, k - j) * _binom(MU + k - 1, j)
                                   * (factorial(k) * (-1) ** j))
        for j in range(k + 1)})


@pytest.fixture(scope="module")
def F_line():
    return D.build_F(J.sym_algebra(1))


@pytest.mark.parametrize("k", range(1, 7))
def test_bracket_chain_on_the_line_is_rankin_cohen(F_line, k):
    assert C.restrict(W.f_chain(F_line, k), 1) == _rankin_cohen(k)


def test_unshifted_chain_is_not_rankin_cohen(F_line):
    # negative control: without the weight shift of the second factor
    assert C.restrict(F_line.compose(F_line), 1) != _rankin_cohen(2)
    with pytest.raises(ValueError):
        W.f_chain(F_line, 0)


# ---------------------------------------------------------------------------
# shared scalars of composed operators


def _scalars(op: W.DiffOp) -> list[ParamPoly]:
    return [s for c in op.terms.values() for s in c.terms.values()]


def test_chain_holds_one_scalar_per_value():
    scalars = _scalars(R.f_chain(2, 2, 2))
    assert len({id(s) for s in scalars}) == len(set(scalars)) < len(scalars)


def test_commutator_holds_one_scalar_per_value():
    model = C.QuadricModel(2, 1)
    X = model.lie_basis()[6]  # F does not commute with the action of this field
    comm = R.explicit_F(2, 1).commutator(C.dpi_tensor(model, X, LAM, MU))
    scalars = _scalars(comm)
    assert len({id(s) for s in scalars}) == len(set(scalars)) < len(scalars)


def test_shared_scalar_survives_arithmetic():
    # the sharing is sound only while no operation writes to an operand
    chain = R.f_chain(2, 1, 2)
    before = {b: {m: dict(s.terms) for m, s in c.terms.items()} for b, c in chain.terms.items()}
    scalars = _scalars(chain)
    counts: dict[int, int] = {}
    for s in scalars:
        counts[id(s)] = counts.get(id(s), 0) + 1
    shared = max(scalars, key=lambda s: (len(s.terms) > 1, counts[id(s)]))
    assert counts[id(shared)] > 1 and len(shared.terms) > 1
    terms = dict(shared.terms)
    private = ParamPoly(terms)
    operations = [lambda s: s + s, lambda s: s + 1, lambda s: s - LAM, lambda s: s - s,
                  lambda s: -s, lambda s: s * MU, lambda s: s * s, lambda s: s * 2,
                  lambda s: s.scale_rat(Fraction(3, 2)), lambda s: s.scale_rat(1),
                  lambda s: s / 3, lambda s: s ** 0, lambda s: s ** 1, lambda s: s ** 2,
                  lambda s: s.substitute({"lam": LAM + 1, "mu": MU * 2})]
    for operation in operations:
        assert operation(shared) == operation(private)
    assert (chain - chain).is_zero() and chain + chain == chain.scale(2)
    assert shared.terms == terms
    assert {b: {m: s.terms for m, s in c.terms.items()} for b, c in chain.terms.items()} == before


def test_chain_differentiates_only_up_to_each_coefficient_degree(monkeypatch):
    # a derivative of order above a coefficient's degree in some coordinate
    # is zero and is not taken
    F = R.explicit_F(2, 1)
    diff = MPoly.diff
    calls = []

    def counted(poly, index):
        calls.append(index)
        return diff(poly, index)

    monkeypatch.setattr(MPoly, "diff", counted)
    W.f_chain(F, 2)
    assert len(calls) == 351


# ---------------------------------------------------------------------------
# the derivative rows kept for the right factors used most recently


def _right_factor(k: int) -> W.DiffOp:
    return W.DiffOp(V, {(0, 1): MPoly.monomial(V, (2, k % 3), LAM + k),
                        (1, 0): MPoly.monomial(V, (k % 2, 1), MU * k - 1)})


def test_reuse_holds_at_most_two_operators():
    left = W.DiffOp.derivative(V, 0, 2)
    kept = _right_factor(1)
    base = sys.getrefcount(kept)
    left.compose(kept)
    assert sys.getrefcount(kept) == base + 1  # held while its rows are kept
    for k in range(2, 6):
        left.compose(_right_factor(k))
        assert len(W._REUSED) <= 2
    assert sys.getrefcount(kept) == base  # released once two others came after it


def test_freed_operator_never_serves_its_rows_to_a_new_one(rng):
    # a kept entry is found by `is`: an operator distinct from a kept one,
    # whether a copy equal in value or one that took a freed operator's id,
    # gets its own rows
    left = W.DiffOp(V, {(2, 1): random_poly(V, rng, 2), (0, 1): random_poly(V, rng, 1)})
    f = random_poly(V, rng, 4, terms=5)
    for k in range(12):
        right = _right_factor(k)
        assert left.compose(right).apply(f) == left.apply(right.apply(f))
        assert W._kept(right).op is right
        twin = _right_factor(k)
        assert twin == right and W._kept(twin) is None
        assert left.compose(twin).apply(f) == left.apply(right.apply(f))
        assert W._kept(twin).op is twin and W._kept(right).op is right
        assert right.compose(left).apply(f) == right.apply(left.apply(f))


# ---------------------------------------------------------------------------
# the chain composed on x - y coefficients against the plain product


def _plain_chain(F: W.DiffOp, N: int) -> W.DiffOp:
    """F_(lam+N-1, mu+N-1) . ... . F_(lam, mu) through DiffOp.compose."""
    chain = F
    for k in range(1, N):
        chain = F.subs_params({"lam": LAM + k, "mu": MU + k}).compose(chain)
    return chain


def _value_types(op: W.DiffOp) -> dict:
    return {(b, m, e): type(v) for b, c in op.terms.items()
            for m, s in c.terms.items() for e, v in s.terms.items()}


@pytest.mark.parametrize("spec, N", [
    ("rpq:2,1", 2), ("rpq:2,2", 2), ("rpq:3,1", 2), ("rpq:1,2", 2), ("rpq:2,1", 3),
    ("sym:2", 2), ("mat:2", 2), ("hermc:2", 2)])
def test_chain_equals_plain_product(spec, N):
    kind, params, _ = J.parse_spec(spec)
    F = R.explicit_F(*params) if kind == "rpq" else D.build_F(J.algebra_from_spec(spec))
    chain = W.f_chain(F, N)
    plain = _plain_chain(F, N)
    assert chain == plain
    assert _value_types(chain) == _value_types(plain)
    scalars = _scalars(chain)
    assert len({id(s) for s in scalars}) == len(set(scalars))


@pytest.mark.parametrize("spec, N", [
    ("rpq:2,1", 2), ("rpq:2,1", 3), ("rpq:1,2", 2), *(("sym:1", N) for N in range(2, 7))])
def test_chain_leaves_its_restriction(spec, N):
    # f_chain reads the restriction off the chain's zero-monomial terms; it
    # equals the fold of a distinct copy and the per-coefficient route,
    # holds one scalar per value, and a second call returns it again
    kind, params, _ = J.parse_spec(spec)
    if kind == "rpq":
        chain = R.f_chain(*params, N)
    else:
        chain = W.f_chain(D.build_F(J.algebra_from_spec(spec)), N)
    n = len(chain.vars) // 2
    got = W.restrict(chain, n)
    assert got is W.restrict(chain, n)
    assert got == W.restrict(W.DiffOp(chain.vars, chain.terms), n)
    assert got == W.DiffOp(chain.vars, {b: diagonal_substitute(c, n)
                                        for b, c in chain.terms.items()})
    scalars = _scalars(got)
    assert len({id(s) for s in scalars}) == len(set(scalars))
    # restricting the restriction folds it anew: it never keeps itself
    assert W.restrict(got, n) == got and W.restrict(got, n) is not got


def test_chain_refuses_a_family_not_in_x_minus_y():
    # negative control: lam * y1 added to one coefficient breaks translation
    # covariance, and the difference form no longer expands back to F
    F = R.explicit_F(2, 1)
    y1 = tuple(1 if v == "y1" else 0 for v in F.vars)
    beta = next(iter(F.terms))
    broken = F + W.DiffOp(F.vars, {beta: MPoly.monomial(F.vars, y1, LAM)})
    with pytest.raises(ValueError):
        W.f_chain(broken, 2)


# ---------------------------------------------------------------------------
# Fourier conjugation on one accumulator against the per-term route


def _conjugate_per_term(op: W.DiffOp, inverse: bool) -> W.DiffOp:
    """sum_beta DiffOp(c(+-tau^-1 d)) o (-+tau x)^beta over the terms
    c(x) d^beta of op, each composed on its own and added with +."""
    vars = op.vars
    x_sign = -1 if inverse else 1
    out = W.DiffOp.zero(vars)
    for beta, coeff in op.terms.items():
        image = W.DiffOp(vars, {
            m: MPoly.constant(vars, c * ParamPoly.var("tau", -sum(m)) * x_sign ** sum(m))
            for m, c in coeff.terms.items()})
        mult = MPoly.monomial(vars, beta, ParamPoly.var("tau", sum(beta)) * (-x_sign) ** sum(beta))
        out = out + image.compose(W.DiffOp.multiplication(mult))
    return out


def _assert_conjugates_as_per_term(op: W.DiffOp) -> None:
    for inverse in (False, True):
        got = W.fourier_conjugate(op, inverse)
        want = _conjugate_per_term(op, inverse)
        assert got == want
        assert _value_types(got) == _value_types(want)
        scalars = _scalars(got)
        assert len({id(s) for s in scalars}) == len(set(scalars))


@pytest.mark.parametrize("spec", ["sym:2", "mat:2", "hermc:2", "rpq:2,1"])
def test_fourier_conjugate_equals_per_term_route_on_dst(spec):
    _assert_conjugates_as_per_term(D.dst_operator(J.algebra_from_spec(spec)))


def test_fourier_conjugate_equals_per_term_route_on_random_operators(rng):
    for _ in range(20):
        _assert_conjugates_as_per_term(rand_op(rng, ("x1", "x2", "x3"), terms=3))
