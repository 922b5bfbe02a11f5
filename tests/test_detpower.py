"""Det-power calculus: factorization identities, operator reconstruction,
sign bookkeeping, and the graded cross-check route."""

from fractions import Fraction

import pytest

from covjord import detpower as D
from covjord import jordan as J
from covjord.fischer import LeibnitzExpansion, apply_diffop
from covjord.polynomials import MPoly, double_vars, partials
from covjord.scalars import ParamPoly, S, T

from conftest import random_poly


def test_single_slot_rank_one():
    # V = R: d/dx applied to x^s gives s x^(s-1)
    s1 = J.sym_algebra(1)
    res = D.det_wave_apply(D.single_power(s1))
    assert res.shifts == (-1,)
    assert res.body == MPoly.constant(s1.vars, 1).scale(S)


@pytest.mark.parametrize("spec,expected", [
    ("sym:2", S * (S + Fraction(1, 2))),
    ("sym:3", S * (S + Fraction(1, 2)) * (S + 1)),
    ("mat:2", S * (S + 1)),
    ("hermc:2", S * (S + 1)),
])
def test_bernstein_reference(spec, expected):
    res = D.bernstein_poly(J.algebra_from_spec(spec))
    assert res.b == expected
    assert res.matches
    assert res.note is None


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 2)])
def test_bernstein_rpq(pq):
    alg = J.rpq_algebra(*pq)
    res = D.bernstein_poly(alg)
    n = alg.n
    assert res.b == S * (S + Fraction(n - 2, 2)) * 4
    assert res.matches
    assert res.note  # quadratic-space chart convention differs by a factor 4


def test_eps_flip_on_split_algebras(rng):
    for spec in ("sym:2", "mat:2", "rpq:2,1"):
        alg = J.algebra_from_spec(spec)
        found = 0
        for _ in range(300):
            x = J.random_element(alg, rng)
            if J.det(x) < 0:
                found += 1
                for k in (1, 2, 3):
                    assert D.eps_flip_check(alg, x.coords, k), (spec, k)
                if found >= 5:
                    break
        assert found


def test_power_eps():
    assert D.power_eps(Fraction(4), 3, "+") == 64
    assert D.power_eps(Fraction(-4), 3, "+") == 64
    assert D.power_eps(Fraction(-4), 3, "-") == -64
    with pytest.raises(ZeroDivisionError):
        D.power_eps(Fraction(0), 1, "+")


@pytest.mark.parametrize("spec", ["sym:2", "mat:2", "rpq:2,1", "rpq:2,2"])
def test_extraction_divisibility_and_degree(spec, rng):
    alg = J.algebra_from_spec(spec)
    dvars = double_vars(alg.vars)
    for _ in range(10):
        f = random_poly(dvars, rng, 3)
        action = D.extract_Dst(alg, f)
        for coeff in action.terms.values():
            assert coeff.total_degree() <= alg.r


def test_extraction_sym3_few_samples(rng):
    alg = J.sym_algebra(3)
    dvars = double_vars(alg.vars)
    for _ in range(3):
        f = random_poly(dvars, rng, 2, terms=3)
        D.extract_Dst(alg, f)  # exact division must go through


def test_rpq_constant_term_display():
    for (p, q) in [(2, 1), (2, 2)]:
        alg = J.rpq_algebra(p, q)
        n = alg.n
        dvars = double_vars(alg.vars)
        got = D.extract_Dst(alg, MPoly.constant(dvars, 1))
        Px = alg.det_poly.extend_vars(dvars)
        Py = alg.det_poly.rename_vars(dvars[n:]).extend_vars(dvars)
        signs = [Fraction(1)] * p + [Fraction(-1)] * q
        Pxy = MPoly.zero(dvars)
        for i in range(n):
            m = [0] * (2 * n)
            m[i] = 1
            m[n + i] = 1
            Pxy = Pxy + MPoly.monomial(dvars, tuple(m), signs[i])
        expect = Px.scale(T * (2 * T - 2 + n) * 2) + Pxy.scale(S * T * (-8)) \
            + Py.scale(S * (2 * S - 2 + n) * 2)
        assert got == expect


def test_substitution_endpoints(rng):
    # at s = t = 1 the identity reads wave(det det f) = D f; at s = t = 0 it
    # reads det det wave(f) = D f (both after substitution into the family)
    alg = J.sym_algebra(2)
    dvars = double_vars(alg.vars)
    f = random_poly(dvars, rng, 3)
    action = D.extract_Dst(alg, f)
    detx = alg.det_poly.extend_vars(dvars)
    dety = alg.det_poly.rename_vars(dvars[alg.n:]).extend_vars(dvars)
    at11 = action.subs_params({"s": ParamPoly.of(1), "t": ParamPoly.of(1)})
    assert D.brute_force_wave(alg, 1, 1, f) == at11
    at00 = action.subs_params({"s": ParamPoly.of(0), "t": ParamPoly.of(0)})
    plain_wave = apply_diffop(
        alg.wave_poly.compose([
            MPoly.variable(dvars, dvars[i]) - MPoly.variable(dvars, dvars[alg.n + i])
            for i in range(alg.n)
        ]),
        f,
    )
    assert at00 == detx * dety * plain_wave
    assert D.brute_force_wave(alg, 0, 0, f) == plain_wave


@pytest.mark.parametrize("spec", ["sym:2", "mat:2", "rpq:2,1"])
def test_grid_agreement(spec, rng):
    alg = J.algebra_from_spec(spec)
    dvars = double_vars(alg.vars)
    f = random_poly(dvars, rng, 2)
    assert D.dst_grid_check(alg, f, [alg.r, alg.r + 2], [alg.r, alg.r + 1])


def test_grid_check_detects_a_wrong_action(rng, monkeypatch):
    # negative control for the bare-rational oracle: one extra monomial on
    # the symbolic side must make the grid check fail
    alg = J.algebra_from_spec("rpq:2,1")
    dvars = double_vars(alg.vars)
    f = random_poly(dvars, rng, 2)
    extract = D.extract_Dst
    extra = MPoly.monomial(dvars, (1,) + (0,) * (len(dvars) - 1))
    monkeypatch.setattr(D, "extract_Dst", lambda a, g: extract(a, g) + extra)
    assert not D.dst_grid_check(alg, f, [alg.r, alg.r + 1], [alg.r])


@pytest.mark.parametrize("spec", ["sym:2", "mat:2", "rpq:2,1", "rpq:2,2", "rpq:3,1"])
def test_operator_reconstruction(spec, rng):
    alg = J.algebra_from_spec(spec)
    op = D.dst_operator(alg)
    assert op.order() <= alg.r
    dvars = double_vars(alg.vars)
    for _ in range(3):
        f = random_poly(dvars, rng, 3)
        assert op.apply(f) == D.extract_Dst(alg, f)


@pytest.mark.parametrize("spec", ["sym:2", "hermc:2", "rpq:1,2", "rpq:1,3"])
def test_graded_route_matches_direct(spec):
    """The graded route equals the direct one; on the spin factors rpq:1,q
    it is the trace-form dual of the literal quadratic-form operator, so it
    carries the factor 1/4 that bernstein_poly's note states."""
    alg = J.algebra_from_spec(spec)
    scale = Fraction(1, 4) if alg.family == "rpq" else 1
    assert D.dst_operator_graded(alg) == D.dst_operator(alg).scale(scale)


@pytest.mark.parametrize("tamper", ["drop", "double"])
def test_dst_operator_detects_a_wrong_wave(tamper, monkeypatch):
    # negative control for the direct construction: with the first wave
    # monomial dropped or doubled the main identity no longer holds, and the
    # exact division of an operator coefficient must fail
    waves = D._wave_monomials

    def tampered(algebra, paired):
        monos = dict(waves(algebra, paired))
        first = next(iter(monos))
        if tamper == "drop":
            del monos[first]
        else:
            monos[first] *= 2
        return monos

    monkeypatch.setattr(D, "_wave_monomials", tampered)
    D.dst_operator.cache_clear()
    try:
        with pytest.raises(D.TheoremViolationError, match="division not exact"):
            D.dst_operator(J.sym_algebra(2))
    finally:
        D.dst_operator.cache_clear()


def test_graded_route_sym3_action(rng):
    alg = J.sym_algebra(3)
    op = D.dst_operator_graded(alg)
    dvars = double_vars(alg.vars)
    one = MPoly.constant(dvars, 1)
    assert op.apply(one) == D.extract_Dst(alg, one)
    f = random_poly(dvars, rng, 2, terms=2)
    assert op.apply(f) == D.extract_Dst(alg, f)


@pytest.mark.parametrize("spec", ["sym:2", "rpq:2,1"])
def test_partials_table_of_det_powers(spec, rng):
    # the table of a determinant-power pair against detpower.diff taken in
    # decreasing coordinate order, the reverse of the table's order
    alg = J.algebra_from_spec(spec)
    dvars = double_vars(alg.vars)
    expr = D.pair_power(alg, random_poly(dvars, rng, 2, terms=3))
    partial = partials(expr, len(dvars), D.diff)
    rng_orders = [tuple(rng.randint(0, 1) for _ in dvars) for _ in range(6)]
    for mono in rng_orders + [(2,) + (0,) * (len(dvars) - 2) + (1,)]:
        direct = expr
        for i in reversed(range(len(dvars))):
            for _ in range(mono[i]):
                direct = D.diff(direct, i)
        assert partial(mono) == direct, mono
        n = alg.n
        assert direct.shifts == (-sum(mono[:n]), -sum(mono[n:]))


def test_deltafgh(rng):
    # Delta(fgh) expanded by the Leibnitz rule agrees with applying det(d/dx) to the product
    alg = J.sym_algebra(2)
    v = alg.vars
    exp = LeibnitzExpansion(alg.det_poly)
    one = MPoly.constant(v, 1)
    a = MPoly.variable(v, "x1")
    c = MPoly.variable(v, "x3")
    assert exp.expand3(one, one, one) == apply_diffop(alg.det_poly, one)
    assert apply_diffop(alg.det_poly, a * c) == one
    assert exp.expand3(a, c, one) == one
    for _ in range(5):
        f = random_poly(v, rng, 3)
        g = random_poly(v, rng, 3)
        h = random_poly(v, rng, 3)
        assert exp.expand3(f, g, h) == apply_diffop(alg.det_poly, f * g * h)


def _to_sympy(p: MPoly, symbols, sp):
    out = sp.Integer(0)
    for mono, coeff in p.terms.items():
        c = coeff.constant_value()
        term = sp.Rational(c.numerator, c.denominator)
        for sym, e in zip(symbols, mono):
            term *= sym**e
        out += term
    return out


@pytest.mark.parametrize("spec", ["sym:2", "mat:2", "rpq:2,1"])
def test_bernstein_against_sympy(spec):
    # the b-function against sympy's own differentiation: wave(d) applied
    # literally to det^k must be b(k) det^(k-1), the convention of bernstein_poly
    sp = pytest.importorskip("sympy")
    alg = J.algebra_from_spec(spec)
    xs = sp.symbols(alg.vars)
    det = _to_sympy(alg.det_poly, xs, sp)
    b = D.bernstein_poly(alg).b
    for k in range(1, 5):
        waved = sp.Integer(0)
        for mono, coeff in alg.wave_poly.terms.items():
            term = det**k
            for x, e in zip(xs, mono):
                if e:
                    term = sp.diff(term, x, e)
            c = coeff.constant_value()
            waved += sp.Rational(c.numerator, c.denominator) * term
        bk = b.substitute({"s": ParamPoly.of(k)}).constant_value()
        assert bk != 0
        assert sp.expand(waved - sp.Rational(bk.numerator, bk.denominator) * det**(k - 1)) == 0


@pytest.mark.parametrize("spec", ["sym:2", "rpq:2,1"])
def test_brute_force_wave_against_sympy(spec, rng):
    # the integer-power oracle against sympy's own differentiation: wave(dx - dy)
    # applied monomial by monomial as products of (d/dx_i - d/dy_i)
    sp = pytest.importorskip("sympy")
    alg = J.algebra_from_spec(spec)
    n = alg.n
    dvars = double_vars(alg.vars)
    xs, ys = sp.symbols(dvars[:n]), sp.symbols(dvars[n:])
    det_x = _to_sympy(alg.det_poly, xs, sp)
    det_y = det_x.subs(dict(zip(xs, ys)), simultaneous=True)
    f = random_poly(dvars, rng, 2, terms=3)
    f_sym = _to_sympy(f, xs + ys, sp)
    for k, l in [(0, 1), (1, 2), (2, 2)]:
        target = det_x**k * det_y**l * f_sym
        expected = sp.Integer(0)
        for mono, coeff in alg.wave_poly.terms.items():
            term = target
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = sp.diff(term, xs[i]) - sp.diff(term, ys[i])
            c = coeff.constant_value()
            expected += sp.Rational(c.numerator, c.denominator) * term
        got = _to_sympy(D.brute_force_wave(alg, k, l, f), xs + ys, sp)
        assert sp.expand(got - expected) == 0
