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

from . import weyl
from .jordan import rpq_algebra
from .polynomials import MPoly, differences, double_vars
from .scalars import LAM, MU, ParamPoly, S, T
from .weyl import DiffOp, restrict


def _quad_syms(p: int, q: int):
    """P(x), P(y), P(x,y), P(x-y) and the differences x_j - y_j on the
    doubled chart, from the descriptor's P: the bilinear form is
    P(x,y) = (P(x) + P(y) - P(x-y))/2."""
    alg = rpq_algebra(p, q)
    dvars = double_vars(alg.vars)
    Px = alg.det_poly.extend_vars(dvars)
    Py = alg.det_poly.rename_vars(dvars[alg.n:]).extend_vars(dvars)
    diffs = differences(alg.vars)
    Pdiff = alg.det_poly.compose(diffs)
    Pxy = (Px + Py - Pdiff).scale(Fraction(1, 2))
    return alg, dvars, Px, Py, Pxy, Pdiff, diffs


@lru_cache(maxsize=None)
def explicit_Dst(p: int, q: int) -> DiffOp:
    """Wave-identity operator, transcribed:

    P(x)P(y) P(dx-dy)
      + 4s P(y) sum_j x_j (dx_j - dy_j) + 4t P(x) sum_j y_j (dy_j - dx_j)
      + 2t(2t-2+n) P(x) - 8st P(x,y) + 2s(2s-2+n) P(y).
    """
    alg, dvars, Px, Py, Pxy, Pdiff, _ = _quad_syms(p, q)
    n = alg.n
    out = DiffOp.multiplication(Px * Py).compose(DiffOp.from_symbol(Pdiff))

    for j in range(n):
        xj = MPoly.variable(dvars, dvars[j])
        yj = MPoly.variable(dvars, dvars[n + j])
        mx = DiffOp.multiplication((Py * xj).scale(S * 4))
        out = out + mx.compose(DiffOp.derivative(dvars, j) - DiffOp.derivative(dvars, n + j))
        my = DiffOp.multiplication((Px * yj).scale(T * 4))
        out = out + my.compose(DiffOp.derivative(dvars, n + j) - DiffOp.derivative(dvars, j))

    const = (
        Px.scale(T * (2 * T - 2 + n) * 2)
        + Pxy.scale(S * T * (-8))
        + Py.scale(S * (2 * S - 2 + n) * 2)
    )
    return out + DiffOp.multiplication(const)


def explicit_Est(p: int, q: int) -> DiffOp:
    """Fourier-side family, transcribed (normal-ordered display):

    -P(x-y) P(dx)P(dy)
      + 4(s-1) sum_j (x_j-y_j) dx_j P(dy) + 4(t-1) sum_j (y_j-x_j) dy_j P(dx)
      - 2(s-1)(2s-n) P(dy) + 8(s-1)(t-1) P(dx,dy) - 2(t-1)(2t-n) P(dx).

    Not cached: its one builder, explicit_F, keeps its own result, so E is
    not held for the life of the process.
    """
    alg, dvars, Px, Py, Pxy, Pdiff, diffs = _quad_syms(p, q)
    n = alg.n
    dPx = DiffOp.from_symbol(Px)
    dPy = DiffOp.from_symbol(Py)

    out = DiffOp.multiplication(Pdiff.scale(-1)).compose(dPx.compose(dPy))
    for j in range(n):
        cx = DiffOp.multiplication(diffs[j].scale((S - 1) * 4))
        out = out + cx.compose(DiffOp.derivative(dvars, j).compose(dPy))
        cy = DiffOp.multiplication(diffs[j].scale((T - 1) * (-4)))
        out = out + cy.compose(DiffOp.derivative(dvars, n + j).compose(dPx))
    out = out + dPy.scale((S - 1) * (2 * S - n) * (-2))
    out = out + DiffOp.from_symbol(Pxy).scale((S - 1) * (T - 1) * 8)
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
    alg, _, Px, Py, Pxy, *_ = _quad_syms(p, q)
    n = alg.n
    c = Fraction(n, 2) - 1
    mu_f = MU * (c - MU)
    lam_f = LAM * (c - LAM)
    cross = (c - LAM) * (c - MU) * 2
    op = (
        DiffOp.from_symbol(Px).scale(mu_f * 4)
        + DiffOp.from_symbol(Py).scale(lam_f * 4)
        + DiffOp.from_symbol(Pxy).scale(cross * 4)
    )
    return restrict(op)


@lru_cache(maxsize=None)
def f_chain(p: int, q: int, N: int) -> DiffOp:
    """The chain weyl.f_chain of the explicit F on R^(p,q)."""
    return weyl.f_chain(explicit_F(p, q), N)


def build_BN(p: int, q: int, N: int) -> DiffOp:
    """Bracket family: restriction of the length-N chain; total order 2N.

    Not cached: f_chain is, and restrict returns the restriction the chain
    keeps (weyl.f_chain leaves it for N >= 2; at N = 1 the chain is
    explicit_F, folded once), so no call makes a pass over the chain."""
    return restrict(f_chain(p, q, N))
