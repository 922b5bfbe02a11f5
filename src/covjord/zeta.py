"""Gamma factors, functional-equation matrices and numeric zeta checks.

Symbolic layer: GammaFactor descriptors (rational constant, e^(i*pi*..),
powers of 2 and pi, gamma-function factors with affine arguments, and a
rational-polynomial part).  Quotients telescope exactly whenever the gamma
arguments differ by integers, which is how the kappa constants of the two
kinds, "rpq" and "split", are derived and certified.  Floating point enters
only in the numeric layer at the bottom: trig matrices evaluated at sample
points (the quadratic-space matrix and the euclidean cases b1, b2, c1 and
c2, each certified by its shift flip) and the quadrature verification of
the quadratic-space functional equation, with the domain split at the
light cone in bipolar radii.  Test functions are polynomials
with Gaussian-rational coefficients (`scalars.Gaussian`) times a centred
Gaussian, and their Fourier transforms are exact.  `pair_power_with` gives
all four pairings of a test function (both sides of the cone with either
sign, and each side alone) from one polar pass; `pair_power_grid` is the
independent pipeline the polar values are checked against.  `quad` is the
one quadrature entry point: the package's port of QUADPACK's QAGS
(`covjord.quadpack`), with the call shape and defaults of
`scipy.integrate.quad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .detpower import b_reference
from .polynomials import MPoly
from .quadpack import quad
from .scalars import G_I, G_ONE, Gaussian, ParamPoly, S, SingularMatrixError, T, fraction_matrix_inverse


# ---------------------------------------------------------------------------
# symbolic gamma-factor descriptors


def _affine_eval(p: ParamPoly, s: complex, t: complex) -> complex:
    return p.evaluate_complex({"s": s, "t": t, "lam": 0.0, "mu": 0.0, "tau": 1.0})


@dataclass(frozen=True)
class GammaFactor:
    """coeff * e^(i pi * eipi) * 2^pow2 * pi^powpi
       * prod Gamma(g_num) / prod Gamma(g_den) * poly_num / poly_den,
    all exponents and arguments affine polynomials in s and t."""

    coeff: Fraction = Fraction(1)
    eipi: ParamPoly = field(default_factory=ParamPoly.zero)
    pow2: ParamPoly = field(default_factory=ParamPoly.zero)
    powpi: ParamPoly = field(default_factory=ParamPoly.zero)
    g_num: tuple = ()
    g_den: tuple = ()
    poly_num: ParamPoly = field(default_factory=lambda: ParamPoly.of(1))
    poly_den: ParamPoly = field(default_factory=lambda: ParamPoly.of(1))

    def __mul__(self, other: "GammaFactor") -> "GammaFactor":
        return GammaFactor(
            self.coeff * other.coeff,
            self.eipi + other.eipi,
            self.pow2 + other.pow2,
            self.powpi + other.powpi,
            self.g_num + other.g_num,
            self.g_den + other.g_den,
            self.poly_num * other.poly_num,
            self.poly_den * other.poly_den,
        )

    def inverse(self) -> "GammaFactor":
        if self.coeff == 0:
            raise ZeroDivisionError("inverting a zero factor")
        return GammaFactor(
            Fraction(1) / self.coeff,
            -self.eipi,
            -self.pow2,
            -self.powpi,
            self.g_den,
            self.g_num,
            self.poly_den,
            self.poly_num,
        )

    def __truediv__(self, other: "GammaFactor") -> "GammaFactor":
        return self * other.inverse()

    def simplify(self) -> "GammaFactor":
        """Cancel equal gamma factors and telescope integer-shift pairs into
        the polynomial part; fold integer parts of the phase into the sign."""
        num = list(self.g_num)
        den = list(self.g_den)
        poly_num = self.poly_num
        poly_den = self.poly_den
        out_num = []
        while num:
            a = num.pop()
            hit = None
            for i, b in enumerate(den):
                diff = a - b
                if diff.is_constant():
                    c = diff.constant_value()
                    if c.denominator == 1:
                        hit = (i, int(c))
                        break
            if hit is None:
                out_num.append(a)
                continue
            i, m = hit
            b = den.pop(i)
            if m >= 0:
                for j in range(m):
                    poly_num = poly_num * (b + j)
            else:
                for j in range(-m):
                    poly_den = poly_den * (a + j)
        coeff = self.coeff
        eipi = self.eipi
        const = eipi.terms.get((0, 0, 0, 0, 0))
        if const is not None:
            if const.denominator == 1:
                # e^(i pi k) = (-1)^k folds into the sign
                if int(const) % 2:
                    coeff = -coeff
                eipi = eipi - const
            else:
                even = const - (const % 2)
                if even:
                    eipi = eipi - even
        return GammaFactor(coeff, eipi, self.pow2, self.powpi,
                           tuple(out_num), tuple(den), poly_num, poly_den)

    def is_one(self) -> bool:
        g = self.simplify()
        if g.g_num or g.g_den:
            return False
        if not (g.eipi.is_zero() and g.powpi.is_zero()):
            return False
        coeff = g.coeff
        pow2 = g.pow2
        if pow2.is_constant():
            c = pow2.constant_value()
            if c.denominator != 1:
                return False
            coeff *= Fraction(2) ** int(c)
        elif not pow2.is_zero():
            return False
        return g.poly_num.scale_rat(coeff) == g.poly_den

    def equals(self, other: "GammaFactor") -> bool:
        return (self / other).is_one()

    def evaluate(self, s: complex, t: complex = 0.0) -> complex:
        val = complex(self.coeff)
        e = _affine_eval(self.eipi, s, t).real
        if e:
            val *= complex(math.cos(math.pi * e), math.sin(math.pi * e))
        val *= 2.0 ** _affine_eval(self.pow2, s, t).real
        val *= math.pi ** _affine_eval(self.powpi, s, t).real
        for arg in self.g_num:
            val *= math.gamma(_affine_eval(arg, s, t).real)
        for arg in self.g_den:
            val /= math.gamma(_affine_eval(arg, s, t).real)
        val *= _affine_eval(self.poly_num, s, t)
        val /= _affine_eval(self.poly_den, s, t)
        return val


def _const(c: Fraction | int) -> ParamPoly:
    return ParamPoly.of(c)


def gamma_V(r_plus: int, d: int, arg: ParamPoly) -> GammaFactor:
    """prod_{k=1..r_plus} Gamma(arg/2 - (k-1) d/4)."""
    args = tuple(arg / 2 - Fraction(k * d, 4) for k in range(r_plus))
    return GammaFactor(g_num=args)


def gamma_quad(n: int, arg: ParamPoly) -> GammaFactor:
    """2^(2 arg + n) pi^(n/2 - 1) Gamma(arg + 1) Gamma(arg + n/2)."""
    return GammaFactor(
        pow2=arg * 2 + n,
        powpi=_const(Fraction(n - 2, 2)),
        g_num=(arg + 1, arg + Fraction(n, 2)),
    )


def c_factor(r: int, d: int, n: int, r_plus: int, eps: str, arg: ParamPoly) -> GammaFactor:
    """Fourier constant of the zeta distribution at the given sign, split case."""
    base = GammaFactor(powpi=arg * (-r) - Fraction(n, 2))
    if eps == "+":
        return base * gamma_V(r_plus, d, arg + Fraction(n, r)) / gamma_V(r_plus, d, -arg)
    if eps == "-":
        phase = GammaFactor(eipi=_const(Fraction(r, 2)))
        return base * phase * gamma_V(r_plus, d, arg + 1 + Fraction(n, r)) \
            / gamma_V(r_plus, d, -arg + 1)
    raise ValueError("epsilon must be '+' or '-'")


# ---------------------------------------------------------------------------
# kappa constants


@dataclass(frozen=True)
class KappaConstant:
    tau_power: int  # power of the kernel constant 2*pi*sqrt(-1)
    num: ParamPoly
    den: ParamPoly


def _b_in(var: ParamPoly, k: int, d: int) -> ParamPoly:
    return b_reference(k, d).substitute({"s": var})


def kappa_const(kind: str, *, r: int = 0, d: int = 0, p: int = 0, q: int = 0) -> KappaConstant:
    """The displayed kappa constant: "rpq" for the quadratic space R^(p,q)
    (unit-imaginary kernel convention), "split" for a split algebra of
    rank r and degree d."""
    if kind == "rpq":
        n = p + q
        if n < 3:
            raise ValueError("quadratic-space kappa needs p + q >= 3")
        den = (S + 1) * (S + Fraction(n, 2)) * (T + 1) * (T + Fraction(n, 2)) * 16
        return KappaConstant(0, ParamPoly.of(1), den)
    if kind == "split":
        den = _b_in(S + 1, r, d) * _b_in(T + 1, r, d)
        return KappaConstant(r, ParamPoly.of(1), den)
    raise ValueError(f"unknown kappa kind {kind!r}")


def kappa_split_quotient(r: int, d: int, n: int, r_plus: int,
                         eps: str, eta: str) -> GammaFactor:
    """c(s,eps) c(t,eta) / (tau^r c(s+1,-eps) c(t+1,-eta)), split case."""
    flip = {"+": "-", "-": "+"}
    cs = c_factor(r, d, n, r_plus, eps, S)
    ct = c_factor(r, d, n, r_plus, eta, T)
    cs1 = c_factor(r, d, n, r_plus, flip[eps], S + 1)
    ct1 = c_factor(r, d, n, r_plus, flip[eta], T + 1)
    tau_r = GammaFactor(pow2=_const(r), powpi=_const(r), eipi=_const(Fraction(r, 2)))
    return (cs * ct) / (tau_r * cs1 * ct1)


def kappa_as_gamma(kc: KappaConstant) -> GammaFactor:
    return GammaFactor(
        eipi=_const(Fraction(kc.tau_power, 2)),
        pow2=_const(kc.tau_power),
        powpi=_const(kc.tau_power),
        poly_num=kc.num,
        poly_den=kc.den,
    )


def kappa_rpq_from_gammas(p: int, q: int) -> KappaConstant:
    """gamma(s) gamma(t) / (gamma(s+1) gamma(t+1)) telescoped exactly."""
    n = p + q
    quot = (gamma_quad(n, S) * gamma_quad(n, T)) / (gamma_quad(n, S + 1) * gamma_quad(n, T + 1))
    g = quot.simplify()
    if g.g_num or g.g_den or not g.eipi.is_zero() or not g.powpi.is_zero():
        raise ArithmeticError("quadratic-space kappa did not telescope")
    pw = g.pow2.constant_value()
    if pw.denominator != 1:
        raise ArithmeticError("non-integer power of two after telescoping")
    coeff = g.coeff * Fraction(2) ** int(pw)
    num = g.poly_num.scale_rat(coeff.numerator)
    den = g.poly_den.scale_rat(coeff.denominator)
    return KappaConstant(0, num, den)


# ---------------------------------------------------------------------------
# functional-equation matrices: quadratic space


def gamma_quad_value(n: int, s: float) -> float:
    return 2.0 ** (2 * s + n) * math.pi ** (n / 2 - 1) * math.gamma(s + 1) * math.gamma(s + n / 2)


def A_matrix_pq(p: int, q: int, s: float) -> list[list[float]]:
    """Transform matrix of the signed power pair, rows/cols ordered (+, -)."""
    n = p + q
    cpq = math.cos((p - q) * math.pi / 4)
    spq = math.sin((p - q) * math.pi / 4)
    sn = math.sin(n * math.pi / 4)
    cn = math.cos(n * math.pi / 4)
    ss = math.sin((s + n / 4) * math.pi)
    cs = math.cos((s + n / 4) * math.pi)
    return [
        [cpq * (-ss + sn), spq * (cs - cn)],
        [spq * (cs + cn), -cpq * (ss + sn)],
    ]


def one_sided_matrix(p: int, q: int, s: float) -> list[list[float]]:
    """The one-sided functional equation: the transforms of |P|^s on the
    P > 0 and P < 0 sides (rows) in terms of the pairings of |P|^(-s-n/2)
    with the two sides (columns), up to the factor `gamma_quad_value`."""
    return [
        [-math.sin((q / 2 + s) * math.pi), math.sin(p * math.pi / 2)],
        [math.sin(q * math.pi / 2), -math.sin((s + p / 2) * math.pi)],
    ]


def A_matrix_from_pm_parts(p: int, q: int, s: float) -> list[list[float]]:
    """Same matrix rebuilt from the one-sided power transforms (independent
    route through the classical two-sided formulas)."""
    M = one_sided_matrix(p, q, s)
    alpha_p = M[0][0] + M[1][0]
    beta_p = M[0][1] + M[1][1]
    alpha_m = M[0][0] - M[1][0]
    beta_m = M[0][1] - M[1][1]
    return [
        [(alpha_p + beta_p) / 2, (alpha_p - beta_p) / 2],
        [(alpha_m + beta_m) / 2, (alpha_m - beta_m) / 2],
    ]


# ---------------------------------------------------------------------------
# functional-equation matrices: euclidean cases


class CaseConfigurationError(ValueError):
    """Case selector unknown or inconsistent with the (r, d) constraints."""


_CASE_CONSTRAINTS = {
    "b1": lambda r, d: r == 2 and d % 4 == 1,
    "b2": lambda r, d: r == 2 and d % 4 == 3,
    "c1": lambda r, d: d == 1 and r % 4 == 3,
    "c2": lambda r, d: d == 1 and r % 4 == 1,
}


def euclidean_matrices(case: str, r: int, d: int, n: int) -> Callable[[float], list[list]]:
    """The 2x2 transform matrix of a euclidean functional equation as a
    function of s: cases b1 and b2 (rank 2, basis (Z+, Z-)), certified by
    `flip_residual_pm`, and c1 and c2 (d = 1, basis (even, odd)), certified
    by `flip_residual_eo`."""
    constraint = _CASE_CONSTRAINTS.get(case)
    if constraint is None:
        raise CaseConfigurationError(f"unknown case {case!r}")
    if not constraint(r, d):
        raise CaseConfigurationError(f"case {case!r} inconsistent with r={r}, d={d}")

    half = math.pi / 2

    if case in ("b1", "b2"):
        def matrix(s: float):
            s1 = math.sin(half * (s + (n + 1) / 2))
            c1 = math.cos(half * (s + (n + 1) / 2))
            s2 = math.sin(half * (s + n / 2))
            c2 = math.cos(half * (s + n / 2))
            rows = [[s1 * c2, -s1 * s2], [c1 * c2, c1 * s2]]
            if case == "b2":
                rows = [[c1 * c2, c1 * s2], [s1 * c2, -s1 * s2]]
            return rows

        return matrix

    def matrix(s: float):
        si = 1j * math.sin(half * (s + n / r))
        co = math.cos(half * (s + n / r))
        if case == "c1":
            return [[si, -si], [co, co]]
        return [[co, co], [si, -si]]

    return matrix


def flip_residual_pm(matrix: Callable[[float], list[list]], s: float) -> float:
    """a_(eps,eta)(s) = -a_(-eps,-eta)(s+1) for a 2x2 transform matrix: the
    shift flip of the quadratic-space and the rank-2 euclidean matrices."""
    A0 = matrix(s)
    A1 = matrix(s + 1)
    res = 0.0
    for i in range(2):
        for j in range(2):
            res = max(res, abs(A0[i][j] + A1[1 - i][1 - j]))
    return res


def flip_residual_eo(matrix: Callable[[float], list[list]], s: float) -> float:
    """a^e_eps(s) = -i a^e_(-eps)(s+1) and a^o_eps(s) = i a^o_(-eps)(s+1)."""
    A0 = matrix(s)
    A1 = matrix(s + 1)
    res = 0.0
    for i in range(2):
        res = max(res, abs(A0[i][0] - (-1j) * A1[1 - i][0]))
        res = max(res, abs(A0[i][1] - 1j * A1[1 - i][1]))
    return res


def flip_residual_quad(p: int, q: int, s: float) -> float:
    """The shift flip of the quadratic-space transform matrix."""
    return flip_residual_pm(lambda x: A_matrix_pq(p, q, x), s)


# ---------------------------------------------------------------------------
# signature-orbit bookkeeping (exact linear maps)


def orbit_to_pm(r: int) -> list[list[Fraction]]:
    """Rows of (Z+, Z-) in the orbit basis Z_0..Z_r."""
    return [
        [Fraction(1)] * (r + 1),
        [Fraction(-1) ** i for i in range(r + 1)],
    ]


def orbit_to_eo(r: int) -> list[list[Fraction]]:
    """Rows of (Z_even, Z_odd) in the orbit basis."""
    even = [Fraction(0)] * (r + 1)
    odd = [Fraction(0)] * (r + 1)
    for k in range(0, r + 1, 2):
        even[k] = Fraction(-1) ** (k // 2)
    for k in range(1, r + 1, 2):
        odd[k] = Fraction(-1) ** ((k - 1) // 2)
    return [even, odd]


def orbit_roundtrip(r: int) -> bool:
    """The pm/eo functionals determine the orbit vector for r <= 3 and the
    reconstruction is consistent."""
    rows = orbit_to_pm(r) + orbit_to_eo(r)
    rows = rows[: r + 1]
    m = len(rows)
    try:
        inv_rows = fraction_matrix_inverse(rows)
    except SingularMatrixError:
        return False
    # round trip: functional values of a random exact orbit vector
    orbit = [Fraction(3 * i - 2, i + 1) for i in range(r + 1)]
    vals = [sum(rows[i][j] * orbit[j] for j in range(r + 1)) for i in range(m)]
    back = [sum(inv_rows[i][j] * vals[j] for j in range(m)) for i in range(m)]
    return back == orbit[:m]


# ---------------------------------------------------------------------------
# orbit-coefficient generating polynomials (Gaussian-rational MPolys in x, y)


def _i_power(k: int) -> Gaussian:
    k %= 4
    return [G_ONE, G_I, -G_ONE, -G_I][k]


def orbit_coefficient_polys(r: int, d: int) -> list[list[dict]]:
    """u_ij(x) extracted from the generating identity: returns u[i][j] as
    the term dict (ex, 0) -> Gaussian of a polynomial in x."""
    xi = _i_power(d * (r + 1))
    x, y = (MPoly.variable(("x", "y"), v).over_q().scale(G_ONE) for v in ("x", "y"))
    one = MPoly.constant(("x", "y"), 1).over_q().scale(G_ONE)

    def P_factor(j: int, base: MPoly, other: MPoly) -> MPoly:
        # (base + other)^j for even d; split exponents for odd d
        if d % 2 == 0:
            return (base + other) ** j
        lo = j // 2
        return (base + other) ** lo * (other - base) ** (j - lo)

    table = [[{} for _ in range(r + 1)] for _ in range(r + 1)]
    for j in range(r + 1):
        # xi^-(r-j) P_j(xi x, y) P_(r-j)(1, xi x y); xi is a 4th root of
        # unity, so its inverse power is the conjugate power
        power = _i_power(d * (r + 1) * (r - j))
        poly = P_factor(j, x.scale(xi), y) * P_factor(r - j, one, (x * y).scale(xi))
        # the coefficient of y^i; y has degree at most r
        for (ex, ey), v in poly.scale(Gaussian(power.re, -power.im)).terms.items():
            table[ey][j][(ex, 0)] = v
    return table


# ---------------------------------------------------------------------------
# numeric layer: Gaussian test functions and the quadratic-space pairing


@dataclass(frozen=True)
class GaussianTest:
    """Polynomial times a centered Gaussian exp(-width |x|^2), exact data."""

    n: int
    width: Fraction
    poly: tuple  # ((mono, Gaussian) ...), sorted by monomial

    @classmethod
    def make(cls, n: int, width, poly: Mapping[tuple, tuple] | None = None) -> "GaussianTest":
        """poly maps monomials to (re, im) pairs of rationals."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("gaussian width must be positive")
        if poly is None:
            poly = {(0,) * n: (1, 0)}
        return cls(n, width, tuple(sorted(
            (tuple(m), Gaussian(Fraction(re), Fraction(im))) for m, (re, im) in poly.items()
        )))


def fourier_gaussian(g: GaussianTest) -> GaussianTest:
    """Exact transform under the kernel e^(i (xi, x)): polynomial x Gaussian
    maps to polynomial x Gaussian of width a = 1/(4 width), with the overall
    (pi/width)^(n/2) factor carried separately by the caller via
    fourier_gaussian_scale.  Multiplication by x_j on the source side
    becomes -i d/dxi_j on the image, so c_m x^m maps to c_m (-i)^|m| D^m(1)
    with D_j p = dp/dxi_j - 2 a xi_j p."""
    n = g.n
    a = Fraction(1, 4) / g.width
    xi = tuple(f"xi{j}" for j in range(n))
    coords = [MPoly.variable(xi, v).over_q() for v in xi]
    images = []
    for mono, c in g.poly:
        image = MPoly.constant(xi, 1).over_q()
        for j, e in enumerate(mono):
            for _ in range(e):
                image = image.diff(j) - (coords[j] * image).scale(2 * a)
        images.append(image.scale(c * _i_power(-sum(mono))))
    return GaussianTest(n, a, tuple(sorted(MPoly.sum(xi, images).terms.items())))


def fourier_gaussian_scale(g: GaussianTest) -> float:
    return (math.pi / float(g.width)) ** (g.n / 2)


def _sphere_moment(exponents: Sequence[int]) -> float:
    """Integral of prod omega_i^(e_i) over the unit sphere S^(m-1)."""
    if any(e % 2 for e in exponents):
        return 0.0
    m = len(exponents)
    if m == 1:
        return 2.0
    num = 1.0
    tot = 0.0
    for e in exponents:
        num *= math.gamma(e / 2 + 0.5)
        tot += e / 2
    return 2.0 * num / math.gamma(tot + m / 2)


_QUAD_TOL = 1e-8
_PIPELINE_TOL = 1e-6  # relative gap allowed between the polar and grid pipelines


def _angular_halves(A: int, B: int, sigma: float) -> tuple[float, float]:
    """Integrals over phi of cos^A sin^B |cos 2phi|^sigma on the two sides of
    the cone phi = pi/4: (0, pi/4), where P > 0, and (pi/4, pi/2), where P < 0."""

    def f(phi: float) -> float:
        c2 = math.cos(2 * phi)
        return math.cos(phi) ** A * math.sin(phi) ** B * abs(c2) ** sigma

    quarter = math.pi / 4
    left = quad(f, 0.0, quarter, epsabs=_QUAD_TOL, epsrel=1e-10, limit=400)[0]
    right = quad(f, quarter, math.pi / 2, epsabs=_QUAD_TOL, epsrel=1e-10, limit=400)[0]
    return left, right


def _radial_integral(K: int, sigma: float, a: float) -> float:
    """Integral over rho of rho^(K + 2 sigma + 1) e^(-a rho^2)."""
    e = (K + 2 * sigma + 2) / 2
    return math.gamma(e) / (2 * a**e)


def _bipolar_integral_grid(A: int, B: int, sigma: float, a: float, eps: str) -> float:
    """Independent pipeline: nested adaptive quadrature in the bipolar radii
    (u, v), inner integral split at the cone u = v; any eps but "+" gives
    the P < 0 side the minus sign."""
    cut = 8.0 / math.sqrt(a)

    def inner(v: float) -> float:
        def fu(u: float) -> float:
            w = u * u - v * v
            if w == 0.0:
                return 0.0
            return u**A * abs(w) ** sigma * math.exp(-a * u * u)

        total = 0.0
        if v < cut:
            mid = min(v + 1.0, cut)
            total += quad(fu, v, mid, epsabs=_QUAD_TOL, limit=300)[0]
            if mid < cut:
                total += quad(fu, mid, cut, epsabs=_QUAD_TOL, limit=300)[0]
        if v > 0.0:
            piece = quad(fu, 0.0, v, epsabs=_QUAD_TOL, limit=300)[0]
            total += piece if eps == "+" else -piece
        return total * v**B * math.exp(-a * v * v)

    return quad(inner, 0.0, cut, epsabs=_QUAD_TOL, limit=300)[0]


def _reduced_monomials(g: GaussianTest, p: int, q: int) -> Iterator[tuple[complex, int, int]]:
    """The exact angular reduction of g over R^(p,q): for each monomial whose
    sphere moments do not vanish, (coefficient * moments, A, B), where the
    monomial leaves u^A v^B in the bipolar radii."""
    if g.n != p + q:
        raise ValueError("test function dimension mismatch")
    for mono, c in g.poly:
        mx = mono[:p]
        my = mono[p:]
        wx = _sphere_moment(mx)
        if wx == 0.0:
            continue
        wy = _sphere_moment(my)
        if wy == 0.0:
            continue
        yield complex(float(c.re), float(c.im)) * wx * wy, p - 1 + sum(mx), q - 1 + sum(my)


def pair_power_with(g: GaussianTest, p: int, q: int, sigma: float) -> dict[str, complex]:
    """<|P|^sigma, g> over R^(p,q) in one polar pass: a radial integral in
    closed form times the angular halves per monomial.  Keys "+" and "-"
    are the pairings with P^(sigma, eps) on both sides of the cone, "plus"
    and "minus" those with |P|^sigma on the P > 0 and P < 0 side alone."""
    a = float(g.width)
    out = dict.fromkeys(("+", "-", "plus", "minus"), 0.0 + 0.0j)
    for weight, A, B in _reduced_monomials(g, p, q):
        radial = _radial_integral(A + B, sigma, a)
        left, right = _angular_halves(A, B, sigma)
        out["+"] += weight * (radial * (left + right))
        out["-"] += weight * (radial * (left - right))
        out["plus"] += weight * (radial * left)
        out["minus"] += weight * (radial * right)
    return out


def pair_power_grid(g: GaussianTest, p: int, q: int, sigma: float, eps: str) -> complex:
    """<P^(sigma, eps), g> by the independent grid pipeline."""
    a = float(g.width)
    total = 0.0 + 0.0j
    for weight, A, B in _reduced_monomials(g, p, q):
        total += weight * _bipolar_integral_grid(A, B, sigma, a, eps)
    return total


@dataclass
class ZetaCheckReport:
    p: int
    q: int
    s: float
    lhs: dict
    rhs: dict
    rel_errors: dict
    gs_residuals: dict
    pipeline_gap: float

    @property
    def max_rel_error(self) -> float:
        return max(self.rel_errors.values())


def numeric_zeta_check(p: int, q: int, s: float, g: GaussianTest) -> ZetaCheckReport:
    """Verify the quadratic-space Fourier functional equation by pairing
    against the test function, in the absolutely convergent strip."""
    n = p + q
    if not (s > -1.0 and -s - n / 2 > -1.0):
        raise ValueError(
            "both pairings must be absolutely convergent: need s > -1 and "
            f"-s - n/2 > -1 (empty for n >= 4; for n = 3 the strip is (-1, -1/2)), got s={s}, n={n}"
        )
    fg = fourier_gaussian(g)
    fscale = fourier_gaussian_scale(g)
    gam = gamma_quad_value(n, s)
    A = A_matrix_pq(p, q, s)
    sig2 = -s - n / 2

    lhs = {}
    rhs = {}
    rel = {}
    pair_g = pair_power_with(g, p, q, sig2)
    pair_fg = pair_power_with(fg, p, q, s)
    for i, eps in enumerate(("+", "-")):
        left = fscale * pair_fg[eps]
        right = gam * (A[i][0] * pair_g["+"] + A[i][1] * pair_g["-"])
        lhs[eps] = left
        rhs[eps] = right
        denom = max(abs(left), abs(right), 1e-30)
        rel[eps] = abs(left - right) / denom

    # one-sided forms (independent identity shape)
    M = one_sided_matrix(p, q, s)
    gs = {}
    for i, side in enumerate(("plus", "minus")):
        left = fscale * pair_fg[side]
        right = gam * (M[i][0] * pair_g["plus"] + M[i][1] * pair_g["minus"])
        gs[side] = abs(left - right) / max(abs(left), abs(right), 1e-30)

    # the two quadrature pipelines must agree
    a_pol = pair_g["+"]
    a_grd = pair_power_grid(g, p, q, sig2, "+")
    gap = abs(a_pol - a_grd) / max(abs(a_pol), abs(a_grd), 1e-30)
    if gap > _PIPELINE_TOL:
        raise ArithmeticError(f"quadrature pipelines disagree: {gap:.2e}")

    return ZetaCheckReport(p, q, s, lhs, rhs, rel, gs, gap)
