"""Independent correctness checks, run outside the timed section.

Each check recomputes what a workload's operations produced by a route that
shares no code with the route being timed:

  main-identity    sympy differentiates det(x)^s det(y)^t f literally with
                   wave(dx - dy) and is compared with extract_Dst at seeded
                   rational points with det > 0.
  covariance       every residual again, by applying both sides to seeded
                   test monomials with DiffOp.apply instead of composing, with
                   the diagonal restriction done here; and a wrong weight
                   shift must leave a nonzero residual.
  zeta-quadrature  the Fourier-side pairings of the pure gaussians by this
                   file's own tanh-sinh quadrature against the closed-form
                   transform; odd test functions pair to zero on both sides.

A check returns (ok, detail).  It only looks at operations that did not
fail: a failed operation is already counted as such.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

POINTS_PER_ALGEBRA = 2
ZETA_CHECK_RTOL = 1e-7
ODD_ATOL = 1e-8


# ---------------------------------------------------------------------------
# main-identity: sympy route


def _param_to_sympy(coeff, sp, s, t):
    """ParamPoly in s, t (no lam, mu, tau occur on this route) to sympy."""
    out = sp.Integer(0)
    for (es, et, el, em, etau), c in coeff.terms.items():
        if el or em or etau:
            raise ValueError("unexpected parameter in the main-identity action")
        out += sp.Rational(c.numerator, c.denominator) * s**es * t**et
    return out


def _poly_to_sympy(poly, symbols, sp):
    out = sp.Integer(0)
    for mono, coeff in poly.terms.items():
        c = coeff.terms.get((0, 0, 0, 0, 0), Fraction(0))
        if len(coeff.terms) != (1 if c else 0):
            raise ValueError("expected a rational polynomial")
        term = sp.Rational(c.numerator, c.denominator)
        for sym, e in zip(symbols, mono):
            term *= sym**e
        out += term
    return out


def _rational_value(poly, point) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        term = coeff.terms[(0, 0, 0, 0, 0)]
        for v, e in zip(point, mono):
            term *= v**e
        total += term
    return total


def check_main_identity(inputs, actions, seed):
    import sympy as sp

    s, t = sp.symbols("s t")
    for spec, alg, fs, _, _ in inputs:
        rng = random.Random(f"{seed}:check:main-identity:{spec}")
        k = rng.randrange(len(fs))
        if k >= len(actions[spec]):
            continue  # that operation failed and is counted as such
        n = alg.n
        xs = sp.symbols(f"x1:{n + 1}")
        ys = sp.symbols(f"y1:{n + 1}")
        det_x = _poly_to_sympy(alg.det_poly, xs, sp)
        det_y = _poly_to_sympy(alg.det_poly, ys, sp)
        expr = det_x**s * det_y**t * _poly_to_sympy(fs[k], xs + ys, sp)

        lhs = sp.Integer(0)
        for mono, coeff in alg.wave_poly.terms.items():
            term = expr
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = sp.diff(term, xs[i]) - sp.diff(term, ys[i])
            c = coeff.terms[(0, 0, 0, 0, 0)]
            lhs += sp.Rational(c.numerator, c.denominator) * term

        action = actions[spec][k]
        done = 0
        while done < POINTS_PER_ALGEBRA:
            a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            da, db = _rational_value(alg.det_poly, a), _rational_value(alg.det_poly, b)
            if da <= 0 or db <= 0:
                continue
            subs = {sym: sp.Rational(v.numerator, v.denominator)
                    for sym, v in zip(xs + ys, a + b)}
            value = lhs.subs(subs) * sp.Rational(da.numerator, da.denominator) ** (1 - s) \
                * sp.Rational(db.numerator, db.denominator) ** (1 - t)
            value = sp.expand(sp.powsimp(sp.expand(value), force=True))
            expected = sp.Integer(0)
            for mono, coeff in action.terms.items():
                mv = Fraction(1)
                for v, e in zip(a + b, mono):
                    mv *= v**e
                expected += sp.Rational(mv.numerator, mv.denominator) * _param_to_sympy(coeff, sp, s, t)
            if sp.expand(value - expected) != 0:
                return False, f"{spec}: extract_Dst differs from the sympy route at {a}, {b}"
            done += 1
    return True, ""


# ---------------------------------------------------------------------------
# covariance: application route


def _fold_diagonal(f, n: int):
    """y -> x on the doubled chart, done here rather than by the program."""
    from covjord.polynomials import MPoly

    out = MPoly.zero(f.vars)
    for mono, coeff in f.terms.items():
        folded = tuple(mono[i] + mono[n + i] for i in range(n)) + (0,) * n
        out = out + MPoly(f.vars, {folded: coeff})
    return out


def _test_monomials(rng: random.Random, vars, degrees):
    from covjord.polynomials import MPoly

    out = []
    for deg in degrees:
        mono = [0] * len(vars)
        for _ in range(deg):
            mono[rng.randrange(len(vars))] += 1
        out.append(MPoly.monomial(vars, tuple(mono)))
    return out


def check_covariance(inputs, built, seed):
    from covjord import conformal as cf
    from covjord.polynomials import double_vars
    from covjord.scalars import LAM, MU

    for p, q, model, basis, generic, F, chain1, chain2 in built:
        n = p + q
        dvars = double_vars(model.algebra.vars)
        rng = random.Random(f"{seed}:check:covariance:{p},{q}")

        def bracket_residual(chain, src, target, f):
            lhs = _fold_diagonal(chain.apply(src.apply(f)), n)
            return lhs - target.apply(_fold_diagonal(chain.apply(f), n))

        for idx, X in enumerate(basis):
            src = cf.dpi_tensor(model, X, LAM, MU)
            tgt = cf.dpi_tensor(model, X, LAM + 1, MU + 1)
            target = cf.dpi(model, X, LAM + MU + 2, dvars, 0).op
            for f in _test_monomials(rng, dvars, (1, 2, 3)):
                if F.apply(src.apply(f)) != tgt.apply(F.apply(f)):
                    return False, f"({p},{q}) F residual X{idx:02d} nonzero on {f}"
                if not bracket_residual(chain1, src, target, f).is_zero():
                    return False, f"({p},{q}) B1 residual X{idx:02d} nonzero on {f}"
        src = cf.dpi_tensor(model, generic, LAM, MU)
        target = cf.dpi(model, generic, LAM + MU + 4, dvars, 0).op
        for f in _test_monomials(rng, dvars, (2, 3, 4)):
            if not bracket_residual(chain2, src, target, f).is_zero():
                return False, f"({p},{q}) B2 residual nonzero on {f}"

        single = model.algebra.vars
        dpis = [cf.dpi(model, X).op for X in basis]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                br = cf.dpi(model, model.bracket(basis[i], basis[j])).op
                for f in _test_monomials(rng, single, (2,)):
                    lhs = br.apply(f)
                    rhs = dpis[i].apply(dpis[j].apply(f)) - dpis[j].apply(dpis[i].apply(f))
                    if lhs != rhs:
                        return False, f"({p},{q}) bracket of X{i:02d}, X{j:02d} differs on {f}"

    # the certificates are not vacuous: a wrong weight shift is detected
    p, q, model, basis, generic, F, chain1, chain2 = built[0]
    if all(cf.bracket_covariance_residual(model, chain1, X, 3).is_zero() for X in basis):
        return False, "B1 residual vanishes with weight shift 3"
    if all(cf.covariance_residual(model, F, X, (LAM, MU), (LAM + 2, MU + 2)).is_zero()
           for X in basis):
        return False, "F residual vanishes with target weights (lam+2, mu+2)"
    return True, ""


# ---------------------------------------------------------------------------
# zeta-quadrature: own quadrature


def _tanh_sinh(np, h: float = 1 / 32, tmax: float = 5.5):
    """Nodes on [-1, 1] as distances to both ends (no cancellation near the
    ends, where the integrands here are singular) and weights.  The nodes
    reach 1e-160 from the ends: with |cos 2 phi|^sigma, sigma near -0.9, the
    part of the integral left out within distance d of the cone is about
    d^0.1, so stopping at 1e-60 would leave an error of 1e-6."""
    t = np.arange(-tmax, tmax + h / 2, h)
    u = math.pi / 2 * np.sinh(t)
    e = np.exp(-2 * np.abs(u))
    near, far = 2 * e / (1 + e), 2 / (1 + e)
    to_lo = np.where(t < 0, near, far)
    to_hi = np.where(t < 0, far, near)
    w = h * math.pi / 2 * np.cosh(t) / np.cosh(u) ** 2
    return to_lo, to_hi, w


def pairing(poly, width: float, sigma: float, eps: str) -> float:
    """Integral over R^3 of poly(x) exp(-width |x|^2) |P(x)|^sigma, times
    sign(P) when eps is '-', with P = x1^2 + x2^2 - x3^2.  Spherical
    coordinates x = rho (cos phi cos theta, cos phi sin theta, sin phi) give
    P = rho^2 cos(2 phi); rho and phi by tanh-sinh, split at the cone
    phi = +-pi/4, theta by the trapezoid rule (exact for trig polynomials)."""
    import numpy as np

    to_lo, to_hi, w = _tanh_sinh(np)
    rho_max = math.sqrt(60.0 / width)
    rho = rho_max / 2 * to_lo
    w_rho = rho_max / 2 * w
    quarter = math.pi / 4
    theta = np.arange(64) * (2 * math.pi / 64)
    w_theta = 2 * math.pi / 64

    # (phi, distance to the cone, sign of P, weight) on the three pieces
    pieces = []
    half = quarter / 2
    pieces.append((-math.pi / 2 + half * to_lo, half * to_hi, -1.0, half * w))
    pieces.append((-quarter + quarter * to_lo, quarter * np.minimum(to_lo, to_hi), 1.0, quarter * w))
    pieces.append((quarter + half * to_lo, half * to_lo, -1.0, half * w))

    total = 0.0
    for (a, b, c), (re, _) in poly.items():
        k = a + b + c
        radial = np.sum(w_rho * rho ** (k + 2 * sigma + 2) * np.exp(-width * rho**2))
        azimuth = np.sum(np.cos(theta) ** a * np.sin(theta) ** b) * w_theta
        polar = 0.0
        for phi, dist, sign, wp in pieces:
            factor = np.sin(2 * dist) ** sigma * (sign if eps == "-" else 1.0)
            polar += np.sum(wp * np.cos(phi) ** (a + b + 1) * np.sin(phi) ** c * factor)
        total += float(re) * radial * azimuth * polar
    return total


def check_zeta(inputs, outputs, seed):
    reports, _ = outputs
    for case_id, s, g, closed_form, odd, rep in reports:
        if odd:
            for eps in "+-":
                if abs(rep.lhs[eps]) > ODD_ATOL or abs(rep.rhs[eps]) > ODD_ATOL:
                    return False, f"{case_id}: odd test function pairs to nonzero ({eps})"
        if closed_form:
            # transform of exp(-w|x|^2) under e^(i(xi,x)): (pi/w)^(3/2) exp(-|xi|^2/(4w))
            w = float(g.width)
            scale = (math.pi / w) ** 1.5
            for eps in "+-":
                mine = scale * pairing({(0, 0, 0): (1.0, 0.0)}, 1 / (4 * w), s, eps)
                theirs = rep.lhs[eps]
                if abs(theirs - mine) > ZETA_CHECK_RTOL * abs(mine):
                    return False, (f"{case_id}: fourier-side pairing {theirs} differs from "
                                   f"the own quadrature {mine} ({eps})")
    return True, ""


CHECKS = {
    "main-identity": check_main_identity,
    "covariance": check_covariance,
    "zeta-quadrature": check_zeta,
}
