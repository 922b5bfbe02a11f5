"""Gamma-factor algebra, functional-equation matrices, orbit bookkeeping,
and the numeric verification of the quadratic-space equation."""

import math
import random
import warnings
from fractions import Fraction

import pytest

from covjord import zeta as Z
from covjord.polynomials import MPoly
from covjord.scalars import ParamPoly, S

from conftest import knapp_stein_kernel


def test_gamma_factor_evaluation():
    g = Z.gamma_quad(3, S)
    s = 0.8
    expect = 2.0 ** (2 * s + 3) * math.pi ** 0.5 * math.gamma(s + 1) * math.gamma(s + 1.5)
    assert abs(g.evaluate(s) - expect) < 1e-12 * expect
    assert abs(Z.gamma_quad_value(3, s) - expect) < 1e-12 * expect


def test_gamma_factor_telescoping():
    g = Z.GammaFactor(g_num=(S + 3,), g_den=(S,)).simplify()
    assert not g.g_num and not g.g_den
    assert g.poly_num == S * (S + 1) * (S + 2)
    h = Z.GammaFactor(g_num=(S,), g_den=(S + 2,)).simplify()
    assert h.poly_den == S * (S + 1)
    assert (Z.gamma_quad(3, S) / Z.gamma_quad(3, S)).is_one()


def test_gamma_pole_locations():
    # gamma(s) diverges at s in {-1,-2,...} and {-n/2, -n/2-1, ...}
    g = Z.gamma_quad(3, S)
    args = [a for a in g.g_num]
    assert any(a == S + 1 for a in args)
    assert any(a == S + Fraction(3, 2) for a in args)


def test_kappa_rpq_exact_and_poles():
    for (p, q) in [(2, 1), (2, 2), (3, 2)]:
        disp = Z.kappa_const("rpq", p=p, q=q)
        tele = Z.kappa_rpq_from_gammas(p, q)
        assert disp.num * tele.den == tele.num * disp.den
    kc = Z.kappa_const("rpq", p=2, q=1)
    for s, t in ((-1, 2), (Fraction(-3, 2), 2), (2, -1)):
        point = {"s": ParamPoly.of(s), "t": ParamPoly.of(t)}
        assert kc.den.substitute(point).constant_value() == 0


def test_kappa_split_quotient():
    rng = random.Random(5)
    for (r, d, n, r_plus) in [(2, 2, 4, 2), (3, 2, 9, 3), (2, 1, 3, 2)]:
        display = Z.kappa_as_gamma(Z.kappa_const("split", r=r, d=d))
        for eps in "+-":
            for eta in "+-":
                qv = Z.kappa_split_quotient(r, d, n, r_plus, eps, eta)
                assert qv.equals(display)
        for _ in range(20):
            s = rng.uniform(0.2, 1.5)
            t = rng.uniform(0.2, 1.5)
            va = display.evaluate(s, t)
            vb = Z.kappa_split_quotient(r, d, n, r_plus, "-", "+").evaluate(s, t)
            assert abs(va - vb) <= 1e-10 * max(abs(va), abs(vb))
    for kind in ("mystery", "non-split", "euclidean-b1"):
        with pytest.raises(ValueError):
            Z.kappa_const(kind, r=2, d=5)


def test_quad_matrix_identities():
    rng = random.Random(77)
    for _ in range(100):
        s = rng.uniform(-3, 3)
        A = Z.A_matrix_pq(2, 2, s)
        assert abs(A[0][1]) < 1e-12 and abs(A[1][0]) < 1e-12  # sin((p-q)pi/4) = 0
        for (p, q) in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            assert Z.flip_residual_quad(p, q, s) < 1e-12
            A0 = Z.A_matrix_pq(p, q, s)
            A2 = Z.A_matrix_pq(p, q, s + 2)
            assert max(abs(A0[i][j] - A2[i][j]) for i in range(2) for j in range(2)) < 1e-12
            B = Z.A_matrix_from_pm_parts(p, q, s)
            assert max(abs(A0[i][j] - B[i][j]) for i in range(2) for j in range(2)) < 1e-12


def test_euclidean_case_selection():
    # the cases no shift flip certifies are unknown, on their own (r, d) too
    for case, r, d, n in [("zz", 2, 1, 3), ("a", 3, 2, 9), ("a'", 2, 2, 4),
                          ("c3", 4, 1, 10), ("c4", 6, 1, 21)]:
        with pytest.raises(Z.CaseConfigurationError, match="unknown case"):
            Z.euclidean_matrices(case, r, d, n)
    with pytest.raises(Z.CaseConfigurationError, match="inconsistent"):
        Z.euclidean_matrices("b1", 3, 1, 6)


def test_euclidean_flips():
    rng = random.Random(13)
    for _ in range(100):
        s = rng.uniform(-2.0, 2.0)
        assert Z.flip_residual_pm(Z.euclidean_matrices("b1", 2, 5, 12), s) < 1e-12
        assert Z.flip_residual_pm(Z.euclidean_matrices("b2", 2, 7, 16), s) < 1e-12
        assert Z.flip_residual_eo(Z.euclidean_matrices("c1", 3, 1, 6), s) < 1e-12
        assert Z.flip_residual_eo(Z.euclidean_matrices("c2", 5, 1, 15), s) < 1e-12


def test_orbit_functionals():
    for r in (1, 2, 3):
        assert Z.orbit_roundtrip(r)
    # signed combinations at rank 2
    pm = Z.orbit_to_pm(2)
    assert pm[0] == [1, 1, 1]
    assert pm[1] == [1, -1, 1]
    eo = Z.orbit_to_eo(2)
    assert eo[0] == [1, 0, -1]
    assert eo[1] == [0, 1, 0]


def test_orbit_coefficient_tables():
    for d in (1, 3, 5, 7):
        tab = Z.orbit_coefficient_polys(2, d)
        xi = Z._i_power(d * 3)
        assert tab[0][0] == {(0, 0): Z.G_ONE}
        assert tab[1][0] == {}
        assert tab[2][0] == {(2, 0): Z.G_ONE}
        assert tab[0][1] == {(1, 0): Z.G_ONE}
        assert tab[1][1] == {(0, 0): xi, (2, 0): -xi}
        assert tab[2][1] == {(1, 0): Z.G_ONE}
        assert tab[0][2] == {(2, 0): Z.G_ONE}
        assert tab[1][2] == {}
        assert tab[2][2] == {(0, 0): Z.G_ONE}


def test_orbit_generating_sums_even_d():
    vars = ("x", "y")
    one = MPoly.constant(vars, 1).over_q()
    x = MPoly.variable(vars, "x").over_q()
    for (r, d) in [(3, 2), (2, 4), (3, 4)]:
        tab = Z.orbit_coefficient_polys(r, d)
        # the expected sides in Gaussian form: Gaussian(1) != 1 in a term dict
        onepx = ((one + x) ** r).scale(Z.G_ONE)
        onemx = ((one - x) ** r).scale(Z.G_ONE)
        for j in range(r + 1):
            column = [MPoly.sum(vars, (MPoly.monomial(vars, m, 1).over_q().scale(c)
                                       for m, c in tab[i][j].items())) for i in range(r + 1)]
            total = MPoly.sum(vars, column)
            signed = MPoly.sum(vars, (u.scale((-1) ** i) for i, u in enumerate(column)))
            assert total == onepx
            assert signed == onemx.scale((-1) ** j)


def test_fourier_gaussian():
    g = Z.GaussianTest.make(3, 1)
    fg = Z.fourier_gaussian(g)
    assert fg.width == Fraction(1, 4)
    assert fg.poly == (((0, 0, 0), Z.Gaussian(Fraction(1), Fraction(0))),)
    assert abs(Z.fourier_gaussian_scale(g) - math.pi ** 1.5) < 1e-12
    g1 = Z.GaussianTest.make(3, 1, {(1, 0, 0): (1, 0)})
    fg1 = Z.fourier_gaussian(g1)
    assert dict(fg1.poly)[(1, 0, 0)] == Z.Gaussian(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        Z.GaussianTest.make(3, 0)


def _rational(sp, c):
    return sp.Rational(c.numerator, c.denominator)


@pytest.mark.parametrize("seed", range(4))
def test_fourier_gaussian_against_sympy(seed):
    # the transform factorises per coordinate: x^k exp(-w x^2) maps to
    # (-i)^k d^k/dxi^k exp(-a xi^2) with a = 1/(4w), the overall scale
    # apart, so the image polynomial is (-i)^k d^k[exp(-a xi^2)] / exp(-a xi^2)
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    xi = sp.symbols("xi0:3")

    def coeff():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(10):
        poly = {tuple(rng.randint(0, 3) for _ in range(3)): (coeff(), coeff())
                for _ in range(rng.randint(1, 4))}
        g = Z.GaussianTest.make(3, Fraction(rng.randint(1, 6), rng.randint(1, 4)), poly)
        fg = Z.fourier_gaussian(g)
        assert fg.width == Fraction(1, 4) / g.width
        a = _rational(sp, fg.width)
        expected = sp.Integer(0)
        for mono, (re, im) in poly.items():
            term = _rational(sp, re) + sp.I * _rational(sp, im)
            for x, k in zip(xi, mono):
                gauss = sp.exp(-a * x**2)
                term *= (-sp.I) ** k * sp.diff(gauss, x, k) / gauss
            expected += term
        got = sp.Integer(0)
        for mono, c in fg.poly:
            assert not c.is_zero()
            monomial = sp.Mul(*(x**e for x, e in zip(xi, mono)))
            got += (_rational(sp, c.re) + sp.I * _rational(sp, c.im)) * monomial
        assert sp.expand(got - expected) == 0


def test_sphere_moments():
    assert Z._sphere_moment((0,)) == 2.0
    assert abs(Z._sphere_moment((0, 0)) - 2 * math.pi) < 1e-12
    assert Z._sphere_moment((1, 0)) == 0.0
    # int over S^1 of cos^2 = pi
    assert abs(Z._sphere_moment((2, 0)) - math.pi) < 1e-12


@pytest.mark.parametrize("s", [-0.6, -0.7, -0.8])
def test_functional_equation(s):
    rep = Z.numeric_zeta_check(2, 1, s, Z.GaussianTest.make(3, 1))
    assert rep.max_rel_error < 1e-4
    assert max(rep.gs_residuals.values()) < 1e-4
    assert rep.pipeline_gap < 1e-6


def test_functional_equation_polynomial_testfn():
    g = Z.GaussianTest.make(3, 1, {(0, 0, 0): (1, 0), (2, 0, 0): (1, 0), (0, 0, 2): (-2, 0)})
    rep = Z.numeric_zeta_check(2, 1, -0.7, g)
    assert rep.max_rel_error < 1e-4


def test_odd_test_function_vanishes():
    rep = Z.numeric_zeta_check(2, 1, -0.7, Z.GaussianTest.make(3, 1, {(1, 0, 0): (1, 0)}))
    for eps in "+-":
        assert abs(rep.lhs[eps]) < 1e-8
        assert abs(rep.rhs[eps]) < 1e-8


def test_convergence_guard():
    with pytest.raises(ValueError):
        Z.numeric_zeta_check(2, 2, -0.7, Z.GaussianTest.make(4, 1))
    with pytest.raises(ValueError):
        Z.numeric_zeta_check(2, 1, -0.3, Z.GaussianTest.make(3, 1))


def test_convolution_kernel_pairing_at_origin():
    # the intertwining kernel paired against a gaussian at the origin is the
    # signed-power pairing; the two quadrature pipelines must agree on it
    from covjord import jordan as Jd

    alg = Jd.rpq_algebra(2, 1)
    lam = 2.3  # sigma = lam - 2n/r = -0.7, inside the strip
    sigma = lam - 2.0 * alg.n / alg.r
    g = Z.GaussianTest.make(3, 1)
    for eps in "+-":
        a = Z.pair_power_with(g, 2, 1, sigma)[eps]
        b = Z.pair_power_grid(g, 2, 1, sigma, eps)
        assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))
    # sign convention agrees with the kernel function at sample points
    y = Jd.element(alg, [0, 0, 2])
    origin = Jd.element(alg, [0, 0, 0])
    val = knapp_stein_kernel(alg, lam, "-", origin, y)
    assert val < 0  # det(0 - y) = -4 on the negative side


def test_quadrature_warning_does_not_escape():
    # g = (3 - 2 x1^2 - x3^2) exp(-|x|^2): QAGS cannot meet the requested
    # tolerance on one piece (ier = 4, where scipy would warn), while the
    # functional equation still holds
    g = Z.GaussianTest.make(3, 1, {(0, 0, 0): (3, 0), (2, 0, 0): (-2, 0), (0, 0, 2): (-1, 0)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = Z.numeric_zeta_check(2, 1, -0.6504, g)
    assert caught == []
    assert rep.max_rel_error <= 1e-9
