"""Symbolic calculus of determinant-power expressions.

A DetPowerExpr denotes det(x)^(s+a) det(y)^(t+b) q(x,y; s,t) (or the
single-slot det(x)^(s+a) q(x; s)).  The class is closed under coordinate
derivatives through the exact product/chain rule, which turns the wave
identity and the factorization identities into machine-checked exact
divisions: the quotient either exists exactly or a theorem-violation error
fires.  The shifts only decrease; no det factors are cancelled silently.

The wave operator of an algebra is its stored wave polynomial with partial
derivatives substituted literally (the pairing convention lives in the
descriptor, not here).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from .fischer import LeibnitzExpansion, apply_diffop, derivative_space_graded
from .jordan import AlgebraDescriptor, dual_polynomial, sharp
from .polynomials import InexactDivisionError, MPoly, Monomial, double_vars
from .scalars import ParamPoly, S, T
from .weyl import DiffOp


class TheoremViolationError(ArithmeticError):
    """An identity that the construction guarantees failed exactly."""


@dataclass(frozen=True)
class DetPowerExpr:
    algebra: AlgebraDescriptor
    shift_x: int
    shift_y: int | None  # None for the single-slot variant
    body: MPoly

    @property
    def paired(self) -> bool:
        return self.shift_y is not None


def single_power(algebra: AlgebraDescriptor, body: MPoly | None = None) -> DetPowerExpr:
    if body is None:
        body = MPoly.constant(algebra.vars, 1)
    return DetPowerExpr(algebra, 0, None, body)


def pair_power(algebra: AlgebraDescriptor, body: MPoly | None = None) -> DetPowerExpr:
    dvars = double_vars(algebra.vars)
    if body is None:
        body = MPoly.constant(dvars, 1)
    elif body.vars != dvars:
        raise ValueError("pair body must live on the doubled chart")
    return DetPowerExpr(algebra, 0, 0, body)


@lru_cache(maxsize=None)
def _pair_det(algebra: AlgebraDescriptor, slot: int) -> MPoly:
    """det in the x-slot (0) or y-slot (1) on the doubled chart."""
    dvars = double_vars(algebra.vars)
    n = algebra.n
    det = algebra.det_poly
    if slot == 0:
        return det.extend_vars(dvars)
    return det.rename_vars(dvars[n:]).extend_vars(dvars)


@lru_cache(maxsize=None)
def _pair_det_power(algebra: AlgebraDescriptor, slot: int, k: int) -> MPoly:
    """det^k in one slot of the doubled chart, one product from det^(k-1)."""
    if k == 0:
        return MPoly.constant(double_vars(algebra.vars), 1)
    return _pair_det_power(algebra, slot, k - 1) * _pair_det(algebra, slot)


@lru_cache(maxsize=None)
def _pair_det_partials(algebra: AlgebraDescriptor, slot: int) -> tuple[MPoly, ...]:
    det = _pair_det(algebra, slot)
    n = algebra.n
    offset = 0 if slot == 0 else n
    return tuple(det.diff(offset + i) for i in range(n))


def diff_single(expr: DetPowerExpr, i: int) -> DetPowerExpr:
    """d/dx_i of det(x)^(s+a) q  ->  shift a-1 with the exact product rule."""
    alg = expr.algebra
    s_plus_a = S + expr.shift_x
    body = expr.body.scale(s_plus_a) * alg.det_partials[i] + alg.det_poly * expr.body.diff(i)
    return DetPowerExpr(alg, expr.shift_x - 1, None, body)


def diff_pair(expr: DetPowerExpr, index: int) -> DetPowerExpr:
    """Derivative in doubled-chart coordinate `index` (x-slot then y-slot)."""
    alg = expr.algebra
    n = alg.n
    if index < n:
        det = _pair_det(alg, 0)
        part = _pair_det_partials(alg, 0)[index]
        factor = S + expr.shift_x
        return DetPowerExpr(
            alg, expr.shift_x - 1, expr.shift_y,
            expr.body.scale(factor) * part + det * expr.body.diff(index),
        )
    det = _pair_det(alg, 1)
    part = _pair_det_partials(alg, 1)[index - n]
    factor = T + expr.shift_y
    return DetPowerExpr(
        alg, expr.shift_x, expr.shift_y - 1,
        expr.body.scale(factor) * part + det * expr.body.diff(index),
    )


@lru_cache(maxsize=None)
def wave_monomials_single(algebra: AlgebraDescriptor) -> tuple[tuple[ParamPoly, Monomial], ...]:
    return tuple((c, m) for m, c in algebra.wave_poly.terms.items())


@lru_cache(maxsize=None)
def wave_monomials_pair(algebra: AlgebraDescriptor) -> tuple[tuple[Fraction, Monomial], ...]:
    """Expansion of wave(dx - dy) into doubled-chart derivative monomials."""
    n = algebra.n
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in algebra.wave_poly.terms.items():
        c0 = coeff.constant_value()
        # expand prod_i (dx_i - dy_i)^(m_i) binomially
        parts: list[tuple[Monomial, Fraction]] = [((0,) * (2 * n), c0)]
        for i, e in enumerate(mono):
            if not e:
                continue
            new: list[tuple[Monomial, Fraction]] = []
            for kx in range(e + 1):
                ky = e - kx
                coef = Fraction(comb(e, kx)) * Fraction(-1) ** ky
                for base, c in parts:
                    b = list(base)
                    b[i] += kx
                    b[n + i] += ky
                    new.append((tuple(b), c * coef))
            parts = new
        for b, c in parts:
            out[b] = out.get(b, Fraction(0)) + c
    return tuple((c, m) for m, c in out.items() if c)


def det_wave_apply(expr: DetPowerExpr) -> DetPowerExpr:
    """Apply the algebra's wave operator (single slot) or wave(dx - dy)."""
    alg = expr.algebra
    r = alg.r
    if not expr.paired:
        acc = MPoly.zero(alg.vars)
        for coeff, mono in wave_monomials_single(alg):
            cur = expr
            for i, e in enumerate(mono):
                for _ in range(e):
                    cur = diff_single(cur, i)
            # re-express at the common shift a - r
            deficit = cur.shift_x - (expr.shift_x - r)
            body = cur.body if deficit == 0 else cur.body * alg.det_poly**deficit
            acc = acc + body.scale(coeff)
        return DetPowerExpr(alg, expr.shift_x - r, None, acc)
    n = alg.n
    dvars = double_vars(alg.vars)
    acc = MPoly.zero(dvars)
    detx = _pair_det(alg, 0)
    dety = _pair_det(alg, 1)
    for coeff, mono in wave_monomials_pair(alg):
        cur = expr
        for i, e in enumerate(mono):
            for _ in range(e):
                cur = diff_pair(cur, i)
        dx = cur.shift_x - (expr.shift_x - r)
        dy = cur.shift_y - (expr.shift_y - r)
        body = cur.body
        if dx:
            body = body * detx**dx
        if dy:
            body = body * dety**dy
        acc = acc + body.scale(coeff)
    return DetPowerExpr(alg, expr.shift_x - r, expr.shift_y - r, acc)


# ---------------------------------------------------------------------------
# Bernstein identity


def b_reference(k: int, l_half_num: int) -> ParamPoly:
    """b(s) = s (s + l/2) ... (s + (k-1) l/2) with l/2 = l_half_num/2."""
    out = ParamPoly.of(1)
    for j in range(k):
        out = out * (S + Fraction(j * l_half_num, 2))
    return out


@dataclass(frozen=True)
class BernsteinResult:
    algebra: AlgebraDescriptor
    b: ParamPoly
    reference: ParamPoly
    matches: bool
    note: str | None


def bernstein_poly(algebra: AlgebraDescriptor) -> BernsteinResult:
    """Apply the wave operator to det^s and factor out det^(s-1) exactly.

    The quotient must be a pure scalar polynomial in s; any coordinate
    dependence violates the identity and raises."""
    result = det_wave_apply(single_power(algebra))
    r = algebra.r
    try:
        quotient = result.body.exact_div(algebra.det_poly ** (r - 1))
    except InexactDivisionError as exc:
        raise TheoremViolationError("wave of det^s is not divisible by det^(r-1)") from exc
    if not quotient.is_constant():
        raise TheoremViolationError("quotient depends on the coordinates")
    b = quotient.constant_coeff()
    if algebra.family == "rpq":
        n = algebra.n
        # literal quadratic-form convention: 4 s (s + n/2 - 1)
        reference = S * (S + Fraction(n - 2, 2)) * 4
        note = (
            "quadratic-space chart convention; the trace-form-dual operator "
            "rescales this by 1/4 to b_{2,n-2}(s)"
        )
    else:
        reference = b_reference(algebra.r, algebra.d)
        note = None
    return BernsteinResult(algebra, b, reference, b == reference, note)


# ---------------------------------------------------------------------------
# main identity


def extract_Dst(algebra: AlgebraDescriptor, f: MPoly) -> MPoly:
    """The main-identity action on f: wave(dx-dy)[det^s det^t f] factors as
    det^(s-1) det^(t-1) times a polynomial, returned here.  Exactness of
    the division is the computational content of the identity."""
    result = det_wave_apply(pair_power(algebra, f))
    r = algebra.r
    divisor = _pair_det(algebra, 0) ** (r - 1) * _pair_det(algebra, 1) ** (r - 1)
    try:
        return result.body.exact_div(divisor)
    except InexactDivisionError as exc:
        raise TheoremViolationError(
            "main-identity division not exact; the construction is broken"
        ) from exc


@lru_cache(maxsize=None)
def _wave_pair_symbol(algebra: AlgebraDescriptor) -> MPoly:
    """wave(dx - dy) as a polynomial symbol on the doubled chart."""
    dvars = double_vars(algebra.vars)
    n = algebra.n
    images = [
        MPoly.variable(dvars, dvars[i]) - MPoly.variable(dvars, dvars[n + i])
        for i in range(n)
    ]
    return algebra.wave_poly.compose(images)


def brute_force_wave(algebra: AlgebraDescriptor, k: int, l: int, f: MPoly) -> MPoly:
    """Integer-power oracle: wave(dx-dy) applied to det(x)^k det(y)^l f by
    plain polynomial differentiation."""
    if k < 0 or l < 0:
        raise ValueError("integer powers must be nonnegative")
    target = _pair_det_power(algebra, 0, k) * _pair_det_power(algebra, 1, l) * f
    return apply_diffop(_wave_pair_symbol(algebra), target)


@lru_cache(maxsize=None)
def dst_operator(algebra: AlgebraDescriptor) -> DiffOp:
    """Normal-ordered operator form of the main-identity family, rebuilt
    from its action on all monomials of degree <= rank (the operator order
    is bounded by the rank) and certified on a sample beyond them."""
    dvars = double_vars(algebra.vars)
    nv = len(dvars)
    r = algebra.r

    monomials: list[Monomial] = []

    def walk(prefix: list[int], pos: int, budget: int):
        if pos == nv:
            monomials.append(tuple(prefix))
            return
        for e in range(budget + 1):
            prefix.append(e)
            walk(prefix, pos + 1, budget - e)
            prefix.pop()

    walk([], 0, r)
    monomials.sort(key=lambda m: (sum(m), m))

    coeffs: dict[Monomial, MPoly] = {}
    for mono in monomials:
        f = MPoly.monomial(dvars, mono)
        action = extract_Dst(algebra, f)
        for beta, c in coeffs.items():
            if all(b <= m for b, m in zip(beta, mono)):
                d = f.diff_multi(beta)
                action = action - c * d
        fact = Fraction(1)
        for e in mono:
            for j in range(2, e + 1):
                fact *= j
        coeffs[mono] = action.scale(Fraction(1) / fact)
    op = DiffOp(dvars, coeffs)
    # certification beyond the solve set
    probe = MPoly.monomial(dvars, tuple([r] + [0] * (nv - 2) + [1]))
    if op.apply(probe) != extract_Dst(algebra, probe):
        raise TheoremViolationError("operator reconstruction failed certification")
    return op


def dst_grid_check(algebra: AlgebraDescriptor, f: MPoly, s_values: Sequence[int],
                   t_values: Sequence[int]) -> bool:
    """Integer-substitution agreement between the symbolic action and the
    brute-force oracle on a grid (powers >= rank keep both sides polynomial)."""
    r = algebra.r
    symbolic = extract_Dst(algebra, f)
    for k in s_values:
        for l in t_values:
            if k < r or l < r:
                raise ValueError("grid powers must be >= rank")
            lhs = brute_force_wave(algebra, k, l, f)
            rhs_factor = _pair_det_power(algebra, 0, k - 1) * _pair_det_power(algebra, 1, l - 1)
            action = symbolic.subs_params({"s": ParamPoly.of(k), "t": ParamPoly.of(l)})
            if lhs != rhs_factor * action:
                return False
    return True


# ---------------------------------------------------------------------------
# sign bookkeeping for the epsilon conventions


def power_eps(value: Fraction, k: int, eps: str) -> Fraction:
    """Exact value^(k,eps) for integer k: plus keeps |value|^k, minus
    carries sign(value)."""
    if value == 0:
        raise ZeroDivisionError("signed power at a zero of the determinant")
    mag = abs(value) ** k
    if eps == "+":
        return mag
    if eps == "-":
        return mag if value > 0 else -mag
    raise ValueError(f"epsilon must be '+' or '-', got {eps!r}")


def eps_flip_check(algebra: AlgebraDescriptor, point: Sequence[Fraction], k: int) -> bool:
    """At a rational point with det < 0, check that applying the wave
    operator to det^(k,eps) lands on b(k) det^(k-1,-eps) with the correct
    sign, for both eps branches."""
    from .jordan import element, det as jdet

    x = element(algebra, list(point))
    dv = jdet(x)
    if dv >= 0:
        raise ValueError("flip check needs a negative-determinant point")
    b = bernstein_poly(algebra)
    bk = b.b.evaluate({"s": Fraction(k)})
    detk = algebra.det_poly ** k
    wave_sym = algebra.wave_poly
    derivative = apply_diffop(wave_sym, detk)  # wave applied to det^k
    det_km1_at = jdet(x) ** (k - 1)
    lhs_poly = derivative.subs_point(list(point)).constant_value()
    for eps in ("+", "-"):
        # det^(k,eps) coincides with c * det^k near the point
        c = power_eps(dv, k, eps) / dv**k
        lhs = c * lhs_poly
        rhs = bk * power_eps(dv, k - 1, "-" if eps == "+" else "+")
        if lhs != rhs:
            return False
        assert det_km1_at == dv ** (k - 1)
    return True


# ---------------------------------------------------------------------------
# graded construction (cross-check route on small euclidean algebras)


class _TraceFischer:
    """Fischer machinery in the trace-form pairing of a euclidean algebra."""

    def __init__(self, algebra: AlgebraDescriptor):
        self.algebra = algebra
        self._dual = lambda p: dual_polynomial(p, algebra.pairing)

    def op(self, p: MPoly, q: MPoly) -> MPoly:
        return apply_diffop(self._dual(p), q)

    def inner(self, p: MPoly, q: MPoly) -> Fraction:
        return self.op(p, q).constant_coeff().constant_value()


@lru_cache(maxsize=None)
def graded_bases(algebra: AlgebraDescriptor):
    """Orthogonal bases (trace Fischer) of the homogeneous layers of the
    determinant's derivative space, with squared norms."""
    if not algebra.euclidean:
        raise ValueError("graded route lives on euclidean algebras")
    tf = _TraceFischer(algebra)
    graded = derivative_space_graded(algebra.det_poly)
    out: dict[int, tuple[list[MPoly], list[Fraction]]] = {}
    for deg, polys in graded.items():
        basis: list[MPoly] = []
        norms: list[Fraction] = []
        for p in polys:
            w = p
            for bpol, nb in zip(basis, norms):
                c = tf.inner(w, bpol)
                if c:
                    w = w - bpol.scale(c / nb)
            if not w.is_zero():
                nn = tf.inner(w, w)
                basis.append(w)
                norms.append(nn)
        out[deg] = (basis, norms)
    return out, tf


def dst_operator_graded(algebra: AlgebraDescriptor) -> DiffOp:
    """Operator form of the main identity built through the graded
    derivative-space layers and the triple product-rule coefficients, in the
    trace-form convention; equals dst_operator on euclidean algebras."""
    bases, tf = graded_bases(algebra)
    r = algebra.r
    d = algebra.d
    n = algebra.n
    dvars = double_vars(algebra.vars)
    det = algebra.det_poly

    flat_basis: list[tuple[int, MPoly, Fraction]] = []
    for deg, (polys, norms) in sorted(bases.items()):
        for p, nn in zip(polys, norms):
            flat_basis.append((deg, p, nn))
    dim = len(flat_basis)

    pair = {}
    for i in range(dim):
        for j in range(i, dim):
            di, pi, _ = flat_basis[i]
            dj, pj, _ = flat_basis[j]
            if di + dj != r:
                continue
            v = tf.inner(det, pi * pj)
            if v:
                pair[(i, j)] = v
                pair[(j, i)] = v

    def triple(i: int, j: int, k: int) -> Fraction:
        total = Fraction(0)
        gi = flat_basis[i][2]
        for l in range(dim):
            c1 = pair.get((i, l))
            if not c1:
                continue
            dl, pl, gl = flat_basis[l]
            dj, pj, gj = flat_basis[j]
            dk, pk, gk = flat_basis[k]
            if dj + dk != dl:
                continue
            c2 = tf.inner(pl, pj * pk)
            if c2:
                total += c1 * c2 / (gi * gl * gj * gk)
        return total

    sharps = [sharp(algebra, p, deg) for deg, p, _ in flat_basis]

    # operator part: dual(p)(dx - dy)
    def delta_op(p: MPoly) -> DiffOp:
        dual = tf._dual(p)
        terms: dict[Monomial, MPoly] = {}
        for mono, coeff in dual.terms.items():
            parts: list[tuple[Monomial, Fraction]] = [((0,) * (2 * n), coeff.constant_value())]
            for i, e in enumerate(mono):
                if not e:
                    continue
                new = []
                for kx in range(e + 1):
                    ky = e - kx
                    cc = Fraction(comb(e, kx)) * Fraction(-1) ** ky
                    for base, c in parts:
                        b = list(base)
                        b[i] += kx
                        b[n + i] += ky
                        new.append((tuple(b), c * cc))
                parts = new
            for b, c in parts:
                cur = terms.get(b)
                add = MPoly.constant(dvars, c)
                terms[b] = add if cur is None else cur + add
        return DiffOp(dvars, terms)

    out = DiffOp.zero(dvars)
    for i, (li, pi, _) in enumerate(flat_basis):
        opplate = delta_op(pi)
        coeff_total = MPoly.zero(dvars)
        for j, (mj, pj, _) in enumerate(flat_basis):
            for k, (nk, pk, _) in enumerate(flat_basis):
                if li + mj + nk != r:
                    continue
                a = triple(i, j, k)
                if not a:
                    continue
                bm = b_reference(mj, d)
                bn = b_reference(nk, d).substitute({"s": T})
                scal = bm * bn * (Fraction(-1) ** nk) * a
                sx = sharps[j].extend_vars(dvars)
                sy = sharps[k].rename_vars(dvars[n:]).extend_vars(dvars)
                coeff_total = coeff_total + (sx * sy).scale(scal)
        out = out + DiffOp.multiplication(coeff_total).compose(opplate)
    return out


def deltafgh_check(algebra: AlgebraDescriptor, f: MPoly, g: MPoly, h: MPoly) -> bool:
    """Triple product-rule expansion of the determinant operator against the
    direct application (dot-product convention on both sides)."""
    if algebra.family != "sym" or algebra.r > 3:
        raise ValueError("triple expansion check runs on sym:m, m <= 3")
    expansion = LeibnitzExpansion(algebra.det_poly)
    lhs = expansion.expand3(f, g, h)
    rhs = apply_diffop(algebra.det_poly, f * g * h)
    return lhs == rhs
