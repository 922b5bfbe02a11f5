"""Conformal machinery for the quadratic-space algebras R^(p,q).

The ambient space is W = R x V x R with the quadratic form
Q(alpha, v, beta) = P(v) - alpha*beta of signature (p+1, q+1).  Points of V
embed as kappa(v) = [(1, v, P(v))]; the orthogonal group of Q acts
rationally on V through this embedding, with the cocycle
a(g, x) = alpha(g kappa(x)).  The model reads R^(p,q) from its descriptor
alone: P(v) = v^T B v with B half the Hessian of det_poly, and the inversion
v -> -v^-1 = -adj(v)/P(v) from the adjugate, which is linear at rank 2.
Everything here is exact: matrices are the rational ones of
scalars.matrix, the infinitesimal operators live in the Weyl algebra over
the scalar ring, and covariance residuals are certified as the zero
operator.  Restriction to the diagonal x = y (weyl.restrict) stays in the
same Weyl algebra: it returns the doubled-chart operator whose coefficients
have y replaced by x, so a bracket res . F . ... . F is a DiffOp with
y-free coefficients.

For the matrix families the full group is not built; the determinant
covariance and cocycle chain rule are checked directly on words of
generators (translations, dilations, inversion) using the Jordan
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from . import jordan as jd
from .polynomials import MPoly, Monomial, double_vars
from .scalars import (LAM, MU, Matrix, ParamPoly, fraction_matrix_inverse, mat_mul, mat_sub,
                      matrix, transpose)
from .weyl import DiffOp, commutator_sum, restrict


class PointAtInfinityError(ArithmeticError):
    """Rational action undefined at the point (cocycle vanishes)."""


def _linear_map(forms: Sequence[MPoly]) -> list[list[Fraction]]:
    """The matrix of a tuple of linear forms: entry (i, j) is d_j forms[i]."""
    return [[f.diff(j).constant_coeff().constant_value() for j in range(len(f.vars))]
            for f in forms]


def _bordered(a, b, M: Sequence[Sequence], c, d) -> Matrix:
    """The (n+2) x (n+2) matrix [[a, 0, b], [0, M, 0], [c, 0, d]]."""
    n = len(M)
    return matrix([[a] + [0] * n + [b]] + [[0] + list(row) + [0] for row in M]
                  + [[c] + [0] * n + [d]])


@dataclass(eq=False)
class QuadricModel:
    """O(p+1, q+1) for V = R^(p,q), built from B (half the Hessian of
    det_poly) and C (the linear map x -> adj(x)), read from the descriptor once."""

    p: int
    q: int

    def __post_init__(self):
        self.n = self.p + self.q
        self.algebra = jd.rpq_algebra(self.p, self.q)
        P = self.algebra.det_poly
        self.B = matrix([[h / 2 for h in row]
                         for row in _linear_map([P.diff(i) for i in range(self.n)])])
        self.C = matrix(_linear_map(self.algebra.adjugate_vec))
        self.J = _bordered(0, Fraction(-1, 2), self.B, Fraction(-1, 2), 0)
        self.Jinv = matrix(fraction_matrix_inverse(self.J))

    # -- membership checks ---------------------------------------------------

    def is_conformal(self, g: Matrix) -> bool:
        return mat_mul(transpose(g), mat_mul(self.J, g)) == self.J

    def is_lie(self, X: Matrix) -> bool:
        JX = mat_mul(self.J, X)
        return transpose(JX) == tuple(tuple(-v for v in row) for row in JX)

    # -- generators -----------------------------------------------------------

    def _identity(self) -> list[list[int]]:
        return [[int(i == j) for j in range(self.n)] for i in range(self.n)]

    def _B_times(self, x: Sequence[Fraction]) -> list[Fraction]:
        return [sum(b * v for b, v in zip(row, x)) for row in self.B]

    def translation(self, a: Sequence[Fraction]) -> Matrix:
        """x -> x + a: the last row is (a^T B a, 2 (Ba)^T, 1)."""
        a = [Fraction(v) for v in a]
        rows = [[1] + [0] * (self.n + 1)]
        rows += [[v] + row + [0] for v, row in zip(a, self._identity())]
        rows.append([self.P_value(a)] + [2 * v for v in self._B_times(a)] + [1])
        return matrix(rows)

    def dilation(self, t: Fraction) -> Matrix:
        t = Fraction(t)
        if t == 0:
            raise ValueError("dilation scale must be nonzero")
        return _bordered(1 / t, 0, self._identity(), 0, t)

    def inversion(self) -> Matrix:
        """x -> -x^-1 = -adj(x)/P(x), with cocycle P(x)."""
        return _bordered(0, 1, [[-v for v in row] for row in self.C], 1, 0)

    # -- embedding, action, cocycle -------------------------------------------

    def P_value(self, x: Sequence[Fraction]) -> Fraction:
        x = [Fraction(v) for v in x]
        return sum(v * w for v, w in zip(x, self._B_times(x)))

    def kappa(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return (Fraction(1), *map(Fraction, x), self.P_value(x))

    def cocycle(self, g: Matrix, x: Sequence[Fraction]) -> Fraction:
        w = self.kappa(x)
        return sum(g[0][k] * w[k] for k in range(self.n + 2))

    def act(self, g: Matrix, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        w = self.kappa(x)
        img = tuple(sum(g[i][k] * w[k] for k in range(self.n + 2)) for i in range(self.n + 2))
        if img[0] == 0:
            raise PointAtInfinityError("group element undefined at the point")
        return tuple(img[i] / img[0] for i in range(1, self.n + 1))

    # -- Lie algebra ------------------------------------------------------------

    def lie_basis(self) -> list[Matrix]:
        m = self.n + 2
        out = []
        for a in range(m):
            for b in range(a + 1, m):
                E = [[0] * m for _ in range(m)]
                E[a][b] = 1
                E[b][a] = -1
                out.append(mat_mul(self.Jinv, matrix(E)))
        return out

    def bracket(self, X: Matrix, Y: Matrix) -> Matrix:
        return mat_sub(mat_mul(X, Y), mat_mul(Y, X))


# ---------------------------------------------------------------------------
# infinitesimal principal-series operators


@dataclass(frozen=True)
class InducedOp:
    """First-order operator -sum v_j(x) d_j + weight * sigma(x); the vector
    field has coefficient degree <= 2 and sigma degree <= 1 (enforced)."""

    op: DiffOp
    sigma: MPoly

    def __post_init__(self):
        if self.op.order() > 1:
            raise ValueError("induced operator must be of order <= 1")
        if self.sigma.total_degree() > 1:
            raise ValueError("multiplier degree must be <= 1")
        for b, v in self.op.terms.items():
            if any(b) and v.total_degree() > 2:
                raise ValueError("vector-field coefficients must have degree <= 2")


def dpi(model: QuadricModel, X: Matrix, weight: ParamPoly | None = None,
        vars: Sequence[str] | None = None, offset: int = 0) -> InducedOp:
    """Infinitesimal representation operator for X at the given weight.

    The slot occupies vars[offset : offset+n]; kappa is expanded to first
    order, so sigma(x) is the alpha-row of X kappa(x) and the vector field
    is the V-part minus sigma(x) x."""
    n = model.n
    if weight is None:
        weight = LAM
    if vars is None:
        vars = model.algebra.vars
    vars = tuple(vars)
    slot = vars[offset : offset + n]
    xs = [MPoly.variable(vars, v) for v in slot]
    P = model.algebra.det_poly.rename_vars(slot).extend_vars(vars)
    kappa_syms = [MPoly.constant(vars, 1)] + xs + [P]

    def row(i: int) -> MPoly:
        acc = MPoly.zero(vars)
        for k in range(n + 2):
            c = X[i][k]
            if c:
                acc = acc + kappa_syms[k].scale(c)
        return acc

    sigma = row(0)
    terms: dict[Monomial, MPoly] = {}
    for i in range(n):
        vi = row(i + 1) - sigma * xs[i]
        if not vi.is_zero():
            b = [0] * len(vars)
            b[vars.index(slot[i])] = 1
            terms[tuple(b)] = -vi
    mult = sigma.scale(weight)
    if not mult.is_zero():
        terms[(0,) * len(vars)] = terms.get((0,) * len(vars), MPoly.zero(vars)) + mult
    return InducedOp(DiffOp(vars, terms), sigma)


def dpi_tensor(model: QuadricModel, X: Matrix, weight_x: ParamPoly,
               weight_y: ParamPoly) -> DiffOp:
    """d(pi_wx (x) pi_wy)(X) on the doubled chart.

    Restricted at weight_y = 0 it is the single-slot operator at weight_x
    lifted through the restriction: the y-slot field lands on x, so each
    d_j becomes dx_j + dy_j, and the multiplier stays on x."""
    dvars = double_vars(model.algebra.vars)
    ox = dpi(model, X, weight_x, dvars, 0).op
    oy = dpi(model, X, weight_y, dvars, model.n).op
    return ox + oy


# ---------------------------------------------------------------------------
# covariance residuals (exact zero-operator certificates)


def covariance_residual(model: QuadricModel, op: DiffOp, X: Matrix,
                        source: tuple[ParamPoly, ParamPoly],
                        target: tuple[ParamPoly, ParamPoly]) -> DiffOp:
    """op . d(pi_src)(X) - d(pi_tgt)(X) . op in the Weyl algebra.

    Computed as [op, src] + (src - tgt) . op, by the identity
    A.B - C.A = [A, B] + (B - C).A, in one accumulator
    (weyl.commutator_sum): the commutator leaves out the products that
    cancel, and src - tgt is the multiplier difference alone (both sides
    share the vector field), an operator of order 0 whose composition with
    op takes one product per term."""
    src = dpi_tensor(model, X, source[0], source[1])
    tgt = dpi_tensor(model, X, target[0], target[1])
    return commutator_sum(op, src, src - tgt)


def covariance_residual_F(model: QuadricModel, F: DiffOp, X: Matrix) -> DiffOp:
    return covariance_residual(model, F, X, (LAM, MU), (LAM + 1, MU + 1))


def bracket_covariance_residual(model: QuadricModel, chain: DiffOp, X: Matrix,
                                total_shift: int) -> DiffOp:
    """res(chain . d(pi_lam (x) pi_mu)(X)) - res(d(pi_(lam+mu+shift))(X) . chain).

    chain is any operator over Q[lam, mu] on the doubled chart, such as
    weyl.f_chain(F, N) of a family F, or its restriction.  The single-slot
    operator enters lifted through the restriction: the lift is
    restrict(dpi_tensor(model, X, lam+mu+shift, 0), n).

    Only R = res(chain) is read, and passing a restricted chain gives the
    same residual:
    - in chain . d(pi)(X) the chain is the left factor, whose coefficients
      are never differentiated, and the diagonal substitution is a ring
      homomorphism, so R . d(pi)(X) restricts to the same operator;
    - in lift . chain the lifted operator differentiates only along the
      diagonal (d_i -> dx_i + dy_i), and by the chain rule
      diag(dx_i c + dy_i c) = d_i diag(c).

    By A.B - C.A = [A, B] + (B - C).A the residual is
    res([R, src] + (src - lift) . R).  R is free of y, so by the same
    homomorphism res((src - lift) . R) = (res(src) - lift) . R, and
    res(src) - lift is a multiplication: the x- and y-slot vector fields of
    src restrict to those of the lift, and the multipliers lam sigma(x) +
    mu sigma(y) and (lam + mu + shift) sigma(x) leave -shift sigma(x), of
    order 0.  So the residual is computed as
    res([R, src]) + (res(src) - lift) . R, in one accumulator folded onto
    the diagonal once (weyl.commutator_sum): the commutator leaves out the
    products that cancel, and the second term takes one product per term
    of R, none with y in it.  Restriction is linear and idempotent, so
    res(src) - lift is formed with one restriction, as
    restrict(src - dpi_tensor(model, X, lam+mu+shift, 0), n).

    R is read with weyl.restrict, which restricts each operator once: the
    chain of weyl.f_chain leaves its restriction with it, and F keeps its
    own after its first certificate, so no call folds the chain again."""
    n = model.n
    src = dpi_tensor(model, X, LAM, MU)
    lift = dpi_tensor(model, X, LAM + MU + total_shift, 0)
    return commutator_sum(restrict(chain, n), src, restrict(src - lift, n), fold=n)


def restriction_covariance_residual(model: QuadricModel, X: Matrix) -> DiffOp:
    """res . d(pi_lam (x) pi_mu)(X) - d(pi_(lam+mu))(X) . res, exactly."""
    return restrict(dpi_tensor(model, X, LAM, MU) - dpi_tensor(model, X, LAM + MU, 0), model.n)


# ---------------------------------------------------------------------------
# determinant covariance and cocycle chains on the matrix families


@dataclass(frozen=True)
class Translation:
    a: tuple


@dataclass(frozen=True)
class Dilation:
    t: Fraction
    cocycle_value: Fraction


@dataclass(frozen=True)
class Inversion:
    pass


def dilation_generator(algebra: jd.AlgebraDescriptor, t: Fraction) -> Dilation:
    """Dilation by t with the exact covering cocycle t^(-r/2); for odd rank
    t must be a perfect rational square."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("dilation scale must be positive for the covering group")
    r = algebra.r
    if r % 2 == 0:
        return Dilation(t, t ** (-(r // 2)))
    num = _exact_sqrt(t.numerator)
    den = _exact_sqrt(t.denominator)
    if num is None or den is None:
        raise ValueError("odd-rank dilation cocycle needs a perfect-square scale")
    root = Fraction(num, den)
    return Dilation(t, root ** (-r))


def _exact_sqrt(k: int) -> int | None:
    if k < 0:
        return None
    r = isqrt(k)
    return r if r * r == k else None


class ConformalWord:
    """Word of generators acting on a matrix-family algebra; the rightmost
    generator acts first.  The cocycle follows the chain rule."""

    def __init__(self, algebra: jd.AlgebraDescriptor, gens: Sequence):
        self.algebra = algebra
        self.gens = tuple(gens)

    def _step(self, gen, x: jd.JordanElement) -> tuple[jd.JordanElement, Fraction]:
        if isinstance(gen, Translation):
            a = jd.element(self.algebra, list(gen.a))
            return jd.add(x, a), Fraction(1)
        if isinstance(gen, Dilation):
            return jd.scale(x, gen.t), gen.cocycle_value
        if isinstance(gen, Inversion):
            y = jd.scale(jd.inverse(x), -1)
            return y, jd.det(x)
        raise TypeError(f"unknown generator {gen!r}")

    def walk(self, x: jd.JordanElement) -> tuple[jd.JordanElement, Fraction]:
        """(g(x), a(g, x)): the image of x and the cocycle, in one pass."""
        total = Fraction(1)
        for gen in reversed(self.gens):
            x, a = self._step(gen, x)
            total *= a
        return x, total


def covdet_check(algebra: jd.AlgebraDescriptor, word: ConformalWord,
                 x: jd.JordanElement, y: jd.JordanElement) -> bool:
    """det(g(x) - g(y)) = a(g,x)^-1 det(x-y) a(g,y)^-1 along a word."""
    (gx, ax), (gy, ay) = word.walk(x), word.walk(y)
    return jd.det(jd.sub(gx, gy)) * ax * ay == jd.det(jd.sub(x, y))
