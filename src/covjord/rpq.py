"""Explicit operator families on R^(p,q) and the bracket family.

The displays implemented here are hand transcriptions of the fully
explicit quadratic-space case; the test suite certifies them equal to the
generic machinery (wave-identity operator, Fourier conjugation,
reparametrization) and certifies the covariance of the bracket family
res . F_(lam+N-1,mu+N-1) . ... . F_(lam,mu) with target weight
lam + mu + 2N, exactly over Q[lam, mu].
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .conformal import restrict
from .jordan import rpq_algebra
from .polynomials import MPoly, Monomial, double_vars
from .scalars import LAM, MU, ParamPoly, S, T
from .weyl import DiffOp


def _signs(p: int, q: int) -> list[Fraction]:
    return [Fraction(1)] * p + [Fraction(-1)] * q


def _quad_syms(p: int, q: int):
    """P(x), P(y), P(x,y), x_j - y_j and derivative symbols on the chart."""
    alg = rpq_algebra(p, q)
    n = alg.n
    dvars = double_vars(alg.vars)
    signs = _signs(p, q)
    Px = alg.det_poly.extend_vars(dvars)
    Py = alg.det_poly.rename_vars(dvars[n:]).extend_vars(dvars)
    Pxy = MPoly.zero(dvars)
    for i in range(n):
        m = [0] * (2 * n)
        m[i] = 1
        m[n + i] = 1
        Pxy = Pxy + MPoly.monomial(dvars, tuple(m), signs[i])
    diffs = [MPoly.variable(dvars, dvars[i]) - MPoly.variable(dvars, dvars[n + i]) for i in range(n)]
    return alg, dvars, signs, Px, Py, Pxy, diffs


def _dP(dvars, signs, offset: int) -> DiffOp:
    """Constant-coefficient operator P(d) acting in one slot."""
    n = len(signs)
    terms = {}
    for i in range(n):
        b = [0] * len(dvars)
        b[offset + i] = 2
        terms[tuple(b)] = MPoly.constant(dvars, signs[i])
    return DiffOp(dvars, terms)


def _dP_mixed(dvars, signs) -> DiffOp:
    n = len(signs)
    terms = {}
    for i in range(n):
        b = [0] * len(dvars)
        b[i] = 1
        b[n + i] = 1
        terms[tuple(b)] = MPoly.constant(dvars, signs[i])
    return DiffOp(dvars, terms)


def _d(dvars, index: int) -> DiffOp:
    return DiffOp.derivative(dvars, index)


@lru_cache(maxsize=None)
def explicit_Dst(p: int, q: int) -> DiffOp:
    """Wave-identity operator, transcribed:

    P(x)P(y) P(dx-dy)
      + 4s P(y) sum_j x_j (dx_j - dy_j) + 4t P(x) sum_j y_j (dy_j - dx_j)
      + 2t(2t-2+n) P(x) - 8st P(x,y) + 2s(2s-2+n) P(y).
    """
    alg, dvars, signs, Px, Py, Pxy, _ = _quad_syms(p, q)
    n = alg.n
    out = DiffOp.zero(dvars)

    # P(dx - dy) expanded
    wave_terms: dict[Monomial, MPoly] = {}
    for i in range(n):
        for (bx, by, c) in ((2, 0, signs[i]), (1, 1, -2 * signs[i]), (0, 2, signs[i])):
            b = [0] * (2 * n)
            b[i] = bx
            b[n + i] = by
            key = tuple(b)
            add = MPoly.constant(dvars, c)
            prev = wave_terms.get(key)
            wave_terms[key] = add if prev is None else prev + add
    wave = DiffOp(dvars, wave_terms)
    out = out + DiffOp.multiplication(Px * Py).compose(wave)

    for j in range(n):
        xj = MPoly.variable(dvars, dvars[j])
        yj = MPoly.variable(dvars, dvars[n + j])
        mx = DiffOp.multiplication((Py * xj).scale(S * 4))
        out = out + mx.compose(_d(dvars, j) - _d(dvars, n + j))
        my = DiffOp.multiplication((Px * yj).scale(T * 4))
        out = out + my.compose(_d(dvars, n + j) - _d(dvars, j))

    const = (
        Px.scale(T * (2 * T - 2 + n) * 2)
        + Pxy.scale(S * T * (-8))
        + Py.scale(S * (2 * S - 2 + n) * 2)
    )
    return out + DiffOp.multiplication(const)


@lru_cache(maxsize=None)
def explicit_Est(p: int, q: int) -> DiffOp:
    """Fourier-side family, transcribed (normal-ordered display):

    -P(x-y) P(dx)P(dy)
      + 4(s-1) sum_j (x_j-y_j) dx_j P(dy) + 4(t-1) sum_j (y_j-x_j) dy_j P(dx)
      - 2(s-1)(2s-n) P(dy) + 8(s-1)(t-1) P(dx,dy) - 2(t-1)(2t-n) P(dx).
    """
    alg, dvars, signs, Px, Py, Pxy, diffs = _quad_syms(p, q)
    n = alg.n
    Pxy_diff = MPoly.zero(dvars)
    for i in range(n):
        Pxy_diff = Pxy_diff + (diffs[i] * diffs[i]).scale(signs[i])
    dPx = _dP(dvars, signs, 0)
    dPy = _dP(dvars, signs, n)
    dPmix = _dP_mixed(dvars, signs)

    out = DiffOp.multiplication(Pxy_diff.scale(-1)).compose(dPx.compose(dPy))
    for j in range(n):
        cx = DiffOp.multiplication(diffs[j].scale((S - 1) * 4))
        out = out + cx.compose(_d(dvars, j).compose(dPy))
        cy = DiffOp.multiplication(diffs[j].scale((T - 1) * (-4)))
        out = out + cy.compose(_d(dvars, n + j).compose(dPx))
    out = out + dPy.scale((S - 1) * (2 * S - n) * (-2))
    out = out + dPmix.scale((S - 1) * (T - 1) * 8)
    out = out + dPx.scale((T - 1) * (2 * T - n) * (-2))
    return out


@lru_cache(maxsize=None)
def explicit_F(p: int, q: int) -> DiffOp:
    """Covariance family: s -> n/2 - lam, t -> n/2 - mu in the E display."""
    n = p + q
    half = Fraction(n, 2)
    return explicit_Est(p, q).subs_params(
        {"s": ParamPoly.of(half) - LAM, "t": ParamPoly.of(half) - MU}
    )


@lru_cache(maxsize=None)
def explicit_B1(p: int, q: int) -> DiffOp:
    """First bracket, transcribed:

    4 res { mu(-mu+n/2-1) P(dx) + lam(-lam+n/2-1) P(dy)
            + 2(-lam+n/2-1)(-mu+n/2-1) P(dx,dy) }.
    """
    alg, dvars, signs, *_ = _quad_syms(p, q)
    n = alg.n
    c = Fraction(n, 2) - 1
    mu_f = MU * (c - MU)
    lam_f = LAM * (c - LAM)
    cross = (c - LAM) * (c - MU) * 2
    op = (
        _dP(dvars, signs, 0).scale(mu_f * 4)
        + _dP(dvars, signs, n).scale(lam_f * 4)
        + _dP_mixed(dvars, signs).scale(cross * 4)
    )
    return restrict(op, n)


@lru_cache(maxsize=None)
def f_chain(p: int, q: int, N: int) -> DiffOp:
    """F_(lam+N-1, mu+N-1) . ... . F_(lam, mu) in the Weyl algebra."""
    if N < 1:
        raise ValueError("bracket order must be >= 1")
    F = explicit_F(p, q)
    chain = F
    for k in range(1, N):
        shifted = F.subs_params({"lam": LAM + k, "mu": MU + k})
        chain = shifted.compose(chain)
    return chain


@lru_cache(maxsize=None)
def build_BN(p: int, q: int, N: int) -> DiffOp:
    """Bracket family: restriction of the length-N chain; total order 2N."""
    return restrict(f_chain(p, q, N), p + q)
