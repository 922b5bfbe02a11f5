"""Concrete Jordan algebras: axioms, minimal polynomials, inverses,
signatures, minors, and the classification registry."""

from fractions import Fraction

import pytest

from covjord import jordan as J
from covjord.polynomials import MPoly

from conftest import generic_element

SUPPORTED = ("sym:2", "sym:3", "mat:2", "hermc:2", "rpq:2,1", "rpq:2,2", "rpq:3,2")


@pytest.mark.parametrize("spec", SUPPORTED)
def test_axioms(spec, rng):
    alg = J.algebra_from_spec(spec)
    e = J.unit(alg)
    assert J.trace(e) == alg.r
    assert J.det(e) == 1
    for _ in range(100):
        x = J.random_element(alg, rng)
        y = J.random_element(alg, rng)
        assert J.jordan_mul(x, y) == J.jordan_mul(y, x)
        assert J.jordan_mul(e, x) == x
        x2 = J.jordan_mul(x, x)
        assert J.jordan_mul(J.jordan_mul(x, y), x2) == J.jordan_mul(x, J.jordan_mul(y, x2))


@pytest.mark.parametrize("spec", SUPPORTED)
def test_quad_rep(spec, rng):
    alg = J.algebra_from_spec(spec)
    e = J.unit(alg)
    P1 = J.quad_rep(e)
    assert all(P1[i][j] == (1 if i == j else 0) for i in range(alg.n) for j in range(alg.n))
    for _ in range(25):
        x = J.random_element(alg, rng, 3)
        y = J.random_element(alg, rng, 3)
        Pxy = J.apply_matrix(J.quad_rep(x), y)
        assert J.det(Pxy) == J.det(x) ** 2 * J.det(y)


def test_quad_rep_is_sandwich_on_matrices(rng):
    # on sym:2, P(diag(1,2)) [[0,1],[1,0]] = [[0,2],[2,0]]
    alg = J.sym_algebra(2)
    x = J.element(alg, [1, 0, 2])
    y = J.element(alg, [0, 1, 0])
    assert J.apply_matrix(J.quad_rep(x), y).coords == (Fraction(0), Fraction(2), Fraction(0))


def test_rpq_product_and_inverse_examples():
    alg = J.rpq_algebra(2, 1)
    x = J.element(alg, [1, 1, 0])
    y = J.element(alg, [2, 0, 3])
    assert J.jordan_mul(x, y).coords == (Fraction(2), Fraction(2), Fraction(3))
    xx = J.element(alg, [2, 1, 0])  # beta(v,v) = 1, det = 5
    assert J.det(xx) == 5
    assert J.inverse(xx).coords == (Fraction(2, 5), Fraction(-1, 5), Fraction(0))
    g = generic_element(alg)
    # det(lam, v) = lam^2 + beta(v, v) symbolically
    det = alg.det_poly
    assert det.terms[(2, 0, 0)].constant_value() == 1
    assert det.terms[(0, 2, 0)].constant_value() == 1
    assert det.terms[(0, 0, 2)].constant_value() == -1


def test_generic_min_poly_example():
    alg = J.sym_algebra(2)
    x = J.element(alg, [2, 0, 3])  # diag(2, 3)
    assert J.generic_min_poly(x) == [Fraction(5), Fraction(6)]


def test_generic_min_poly_rank_deficiency():
    alg = J.sym_algebra(2)
    with pytest.raises(J.RankDeficiencyError) as err:
        J.generic_min_poly(J.unit(alg))  # unit has rank 1
    assert err.value.rank == 1
    assert err.value.needed == 2


@pytest.mark.parametrize("spec", SUPPORTED)
def test_min_poly_annihilates(spec, rng):
    alg = J.algebra_from_spec(spec)
    for _ in range(20):
        x = J.random_regular(alg, rng)
        a = J.generic_min_poly(x)
        assert a[0] == J.trace(x)
        assert a[-1] == J.det(x)
        assert a == J.minpoly_values(x)
        acc = J.power(x, alg.r)
        for j in range(1, alg.r + 1):
            acc = J.add(acc, J.scale(J.power(x, alg.r - j), a[j - 1] * (-1) ** j))
        assert all(c == 0 for c in acc.coords)


@pytest.mark.parametrize("spec", SUPPORTED)
def test_inverse(spec, rng):
    alg = J.algebra_from_spec(spec)
    e = J.unit(alg)
    assert J.inverse(e) == e
    for _ in range(20):
        x = J.random_invertible(alg, rng)
        xi = J.inverse(x)
        assert J.jordan_mul(x, xi) == e
        assert J.apply_matrix(J.quad_rep(x), xi) == x
    # adjugate is polynomial: x^-1 det(x) has polynomial coordinates
    g = generic_element(alg)
    adj = J.JordanElement(alg, alg.adjugate_vec)
    prod = J.jordan_mul(g, adj)
    for i in range(alg.n):
        assert prod.coords[i] == alg.det_poly.scale(alg.unit[i])


def test_singular_inverse_raises():
    alg = J.sym_algebra(2)
    with pytest.raises(J.SingularElementError):
        J.inverse(J.element(alg, [1, 0, 0]))


def test_sharp_examples():
    alg = J.sym_algebra(2)
    one = MPoly.constant(alg.vars, 1)
    assert J.sharp(alg, one, 0) == alg.det_poly
    assert J.sharp(alg, alg.det_poly, 2) == one
    a = MPoly.variable(alg.vars, "x1")
    c = MPoly.variable(alg.vars, "x3")
    assert J.sharp(alg, a, 1) == c
    # sym:3: sharp of the determinant collapses to 1 as well
    alg3 = J.sym_algebra(3)
    assert J.sharp(alg3, alg3.det_poly, 3) == MPoly.constant(alg3.vars, 1)


class SignatureDomainError(ValueError):
    """Signature classification outside its domain (non-euclidean algebra
    or boundary element)."""


def _sign_variations(coeffs: list[Fraction]) -> int:
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def signature_class(x: J.JordanElement) -> int:
    """Index i such that x has i negative eigenvalues (Sym(m,R) only), by
    Descartes' rule of signs on the characteristic polynomial at -T."""
    alg = x.algebra
    if not (alg.family == "sym" and alg.euclidean):
        raise SignatureDomainError("signature classification implemented for sym:m")
    if J.det(x) == 0:
        raise SignatureDomainError("boundary element (zero determinant)")
    a = J.minpoly_values(x)
    r = alg.r
    # char(T) = T^r - a1 T^(r-1) + ... + (-1)^r a_r; all roots real
    coeffs = [Fraction(1)] + [(-1) ** j * a[j - 1] for j in range(1, r + 1)]
    neg = [c * (-1) ** (r - i) for i, c in enumerate(coeffs)]  # char(-T) up to sign
    return _sign_variations(neg)


def test_signature_classes():
    s2 = J.sym_algebra(2)
    assert signature_class(J.unit(s2)) == 0
    assert signature_class(J.element(s2, [1, 0, -1])) == 1
    assert signature_class(J.element(s2, [-1, 0, -2])) == 2
    s3 = J.sym_algebra(3)
    assert signature_class(J.element(s3, [-1, 0, 0, -2, 0, -3])) == 3
    with pytest.raises(SignatureDomainError):
        signature_class(J.element(s2, [1, 0, 0]))
    with pytest.raises(SignatureDomainError):
        signature_class(J.unit(J.mat_algebra(2)))


def test_signature_matches_eigen_count(rng):
    s3 = J.sym_algebra(3)
    for _ in range(30):
        x = J.random_element(s3, rng)
        if J.det(x) == 0:
            continue
        # oracle: eigenvalue signs from numpy on the embedded matrix
        import numpy as np

        m = np.array([
            [float(x.coords[0]), float(x.coords[1]), float(x.coords[2])],
            [float(x.coords[1]), float(x.coords[3]), float(x.coords[4])],
            [float(x.coords[2]), float(x.coords[4]), float(x.coords[5])],
        ])
        eig = np.linalg.eigvalsh(m)
        assert signature_class(x) == int((eig < 0).sum())


@pytest.mark.parametrize("spec", ("sym:2", "hermc:2", "rpq:2,1"))
def test_scale_symbolic(spec):
    alg = J.algebra_from_spec(spec)
    g = generic_element(alg)
    half = Fraction(1, 2)
    assert J.jordan_mul(J.scale(g, half), g) == J.scale(J.jordan_mul(g, g), half)


def _sympy_generic_matrix(alg, sp):
    """The generic element of sym:m, mat:m or hermc:m as a sympy matrix,
    written from the chart convention of each family."""
    m = alg.r
    xs = sp.symbols(alg.vars)
    if alg.family == "mat":
        return sp.Matrix(m, m, xs), xs
    M = sp.zeros(m, m)
    if alg.family == "sym":
        pairs = [(i, j) for i in range(m) for j in range(i, m)]
        for x, (i, j) in zip(xs, pairs):
            M[i, j] = M[j, i] = x
        return M, xs
    for i in range(m):  # hermc: diagonal, then (re, im) per pair i < j
        M[i, i] = xs[i]
    offs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for k, (i, j) in enumerate(offs):
        re, im = xs[m + 2 * k], xs[m + 2 * k + 1]
        M[i, j] = re + sp.I * im
        M[j, i] = re - sp.I * im
    return M, xs


def _to_sympy(p: MPoly, xs, sp):
    terms = []
    for mono, c in p.terms.items():
        c = c.constant_value()
        terms.append(sp.Rational(c.numerator, c.denominator)
                     * sp.Mul(*[x ** e for x, e in zip(xs, mono)]))
    return sp.Add(*terms)


@pytest.mark.parametrize("spec", [f"{family}:{m}" for family in ("sym", "mat", "hermc")
                                  for m in (1, 2, 3)])
def test_minpoly_against_sympy_characteristic_polynomial(spec):
    # det(lam 1 - M) = sum_k (-1)^k a_k lam^(m-k) for the generic matrix M
    sp = pytest.importorskip("sympy")
    alg = J.algebra_from_spec(spec)
    M, xs = _sympy_generic_matrix(alg, sp)
    lam = sp.Symbol("lam")
    char = sp.Poly(sp.expand((lam * sp.eye(alg.r) - M).det()), lam)
    for k, a_k in enumerate(alg.minpoly_coeffs, start=1):
        expected = sp.expand((-1) ** k * char.coeff_monomial(lam ** (alg.r - k)))
        assert sp.expand(_to_sympy(a_k, xs, sp)) == expected


@pytest.mark.parametrize("p, q", [(2, 1), (2, 2), (3, 1), (1, 2), (3, 2)])
def test_rpq_det_against_sympy_quadratic_form(p, q):
    sp = pytest.importorskip("sympy")
    alg = J.rpq_algebra(p, q)
    xs = sp.symbols(alg.vars)
    signs = [1] * p + [-1] * q
    form = sum(s * x ** 2 for s, x in zip(signs, xs))
    assert sp.expand(_to_sympy(alg.det_poly, xs, sp) - form) == 0


def test_det_homogeneity_symbolic():
    from covjord.scalars import ParamPoly

    t = ParamPoly.var("s")
    for spec in SUPPORTED:
        alg = J.algebra_from_spec(spec)
        scaled = [MPoly.variable(alg.vars, v).scale(t) for v in alg.vars]
        assert alg.det_poly.compose(scaled) == alg.det_poly.scale(t ** alg.r)


def test_registry():
    rows = J.registry_rows()
    assert all(row.dimension_identity_holds() for row in rows)
    kinds = {row.kind for row in rows}
    assert {"sym", "mat", "hermc", "rpq", "hermh", "skewr", "symquat", "symc",
            "ck", "rk0", "herm3o", "herm3os", "herm3oc"} <= kinds
    js = J.registry_json()
    assert all(set(r) == {"kind", "label", "n", "r", "d", "e", "r_plus", "d_plus", "supported"}
               for r in js)
    # split kinds carry e = 0
    for row in rows:
        if row.kind in ("sym", "mat", "hermc", "rpq", "hermh", "skewr", "herm3o", "herm3os"):
            assert row.e == 0


def test_unsupported_kinds():
    with pytest.raises(J.UnsupportedKindError):
        J.algebra_from_spec("skewr:4")
    with pytest.raises(J.UnsupportedKindError):
        J.algebra_from_spec("herm3o:1")
    with pytest.raises(J.UnsupportedKindError):
        J.algebra_from_spec("nonsense")
    with pytest.raises(J.UnsupportedKindError):
        J.rpq_algebra(3, 0)


def test_algebra_mismatch():
    a = J.unit(J.sym_algebra(2))
    b = J.unit(J.sym_algebra(3))
    with pytest.raises(J.AlgebraMismatchError):
        J.jordan_mul(a, b)
