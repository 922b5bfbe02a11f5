"""Symbolic calculus of determinant-power expressions.

A DetPowerExpr denotes det(x)^(s+a) det(y)^(t+b) q(x,y; s,t), with shifts
(a, b), or the single-slot det(x)^(s+a) q(x; s), with shifts (a,).  The
class is closed under coordinate derivatives through the exact
product/chain rule, which turns the wave identity and the factorization
identities into machine-checked exact divisions: the quotient either
exists exactly or a theorem-violation error fires.  The shifts only
decrease; no det factors are cancelled silently.

The wave action and the main-identity operator D_{s,t} (by the product rule)
both read the memoised table of partial derivatives of polynomials.partials,
with `diff` below as its derivation.

The wave operator of an algebra is its stored wave polynomial with partial
derivatives substituted literally (the pairing convention lives in the
descriptor, not here).

The Fourier-side family E_{s,t} is the inverse Fourier conjugate of D_{s,t},
and the covariance family F is E at s -> n/r - lam, t -> n/r - mu; both are
built here, next to D, and cached per algebra like it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .fischer import LeibnitzExpansion, apply_diffop
from .jordan import AlgebraDescriptor, det as jdet, element, sharp
from .polynomials import (Coeff, InexactDivisionError, MPoly, Monomial, differences,
                          double_vars, leibniz_orders, partials)
from .scalars import LAM, MU, ParamPoly, S, T
from .weyl import DiffOp, fourier_conjugate


class TheoremViolationError(ArithmeticError):
    """An identity that the construction guarantees failed exactly."""


class ConventionError(ArithmeticError):
    """Residual formal-constant dependence where none is allowed."""


@dataclass(frozen=True)
class DetPowerExpr:
    algebra: AlgebraDescriptor
    shifts: tuple[int, ...]  # x-slot first; one entry for the single slot
    body: MPoly


def single_power(algebra: AlgebraDescriptor) -> DetPowerExpr:
    return DetPowerExpr(algebra, (0,), MPoly.constant(algebra.vars, 1))


def pair_power(algebra: AlgebraDescriptor, body: MPoly | None = None) -> DetPowerExpr:
    dvars = double_vars(algebra.vars)
    if body is None:
        body = MPoly.constant(dvars, 1)
    elif body.vars != dvars:
        raise ValueError("pair body must live on the doubled chart")
    return DetPowerExpr(algebra, (0, 0), body)


@lru_cache(maxsize=None)
def _pair_det(algebra: AlgebraDescriptor, slot: int) -> MPoly:
    """det in the x-slot (0) or y-slot (1) on the doubled chart."""
    dvars = double_vars(algebra.vars)
    det = algebra.det_poly if slot == 0 else algebra.det_poly.rename_vars(dvars[algebra.n:])
    return det.extend_vars(dvars)


@lru_cache(maxsize=None)
def _pair_det_power(algebra: AlgebraDescriptor, slot: int, k: int) -> MPoly:
    """det^k in one slot of the doubled chart, one product from det^(k-1),
    over bare rationals (the oracle's form)."""
    if k == 0:
        return MPoly.constant(double_vars(algebra.vars), 1).over_q()
    return _pair_det_power(algebra, slot, k - 1) * _pair_det(algebra, slot).over_q()


_SLOT_PARAMS = (S, T)


@lru_cache(maxsize=None)
def _slot_det(algebra: AlgebraDescriptor, paired: bool, slot: int) -> tuple[MPoly, tuple[MPoly, ...]]:
    """det of one slot on the single or the doubled chart, and its partials
    in that slot's coordinates."""
    det = _pair_det(algebra, slot) if paired else algebra.det_poly
    offset = slot * algebra.n
    return det, tuple(det.diff(offset + i) for i in range(algebra.n))


def diff(expr: DetPowerExpr, index: int) -> DetPowerExpr:
    """Derivative in chart coordinate `index` by the exact product rule.

    The index picks the slot (the x-slot, then the y-slot of a pair): the
    derivative of det^(s+a) (or det^(t+b)) q has that slot's shift a - 1."""
    slot, i = divmod(index, expr.algebra.n)
    shifts = list(expr.shifts)
    det, partials = _slot_det(expr.algebra, len(shifts) == 2, slot)
    factor = _SLOT_PARAMS[slot] + shifts[slot]
    body = expr.body.scale(factor) * partials[i] + det * expr.body.diff(index)
    shifts[slot] -= 1
    return DetPowerExpr(expr.algebra, tuple(shifts), body)


@lru_cache(maxsize=None)
def _wave_pair_symbol(algebra: AlgebraDescriptor) -> MPoly:
    """wave(dx - dy) as a polynomial symbol on the doubled chart, over bare
    rationals."""
    return algebra.wave_poly.compose(differences(algebra.vars)).over_q()


@lru_cache(maxsize=None)
def _wave_monomials(algebra: AlgebraDescriptor, paired: bool) -> dict[Monomial, Coeff]:
    """The derivative monomials of wave(dx) on the chart, or of wave(dx - dy)
    on the doubled chart, with their bare rational coefficients."""
    return _wave_pair_symbol(algebra).terms if paired else algebra.wave_poly.over_q().terms


def _lowered(expr: DetPowerExpr, shifts: Sequence[int]) -> MPoly:
    """The body of expr re-expressed at lower shifts: times det^(a - shift)
    in each slot."""
    body = expr.body
    for slot, (a, low) in enumerate(zip(expr.shifts, shifts)):
        if a != low:
            body = body * _slot_det(expr.algebra, len(shifts) == 2, slot)[0] ** (a - low)
    return body


def det_wave_apply(expr: DetPowerExpr) -> DetPowerExpr:
    """Apply the algebra's wave operator (single slot) or wave(dx - dy),
    re-expressed at the common shifts a - r."""
    partial = partials(expr, len(expr.body.vars), diff)
    low = tuple(a - expr.algebra.r for a in expr.shifts)
    waves = _wave_monomials(expr.algebra, len(low) == 2).items()
    body = MPoly.sum(expr.body.vars, (_lowered(partial(m), low).scale(w) for m, w in waves))
    return DetPowerExpr(expr.algebra, low, body)


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


@lru_cache(maxsize=None)
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
    reference = b_reference(algebra.r, algebra.d)
    note = None
    if algebra.family == "rpq":
        # literal quadratic-form convention: 4 b_{2,n-2}(s) = 4 s (s + n/2 - 1)
        reference = reference * 4
        note = (
            "quadratic-space chart convention; the trace-form-dual operator "
            "rescales this by 1/4 to b_{2,n-2}(s)"
        )
    return BernsteinResult(algebra, b, reference, b == reference, note)


# ---------------------------------------------------------------------------
# main identity


def _divide_out(algebra: AlgebraDescriptor, body: MPoly) -> MPoly:
    """body / (det(x)^(r-1) det(y)^(r-1)): a body at the shifts -r brought to
    the shifts -1, which the main identity guarantees to be exact."""
    r = algebra.r
    try:
        return body.exact_div(_pair_det(algebra, 0) ** (r - 1) * _pair_det(algebra, 1) ** (r - 1))
    except InexactDivisionError as exc:
        raise TheoremViolationError(
            "main-identity division not exact; the construction is broken"
        ) from exc


def extract_Dst(algebra: AlgebraDescriptor, f: MPoly) -> MPoly:
    """The main-identity action on f: wave(dx-dy)[det^s det^t f] factors as
    det^(s-1) det^(t-1) times a polynomial, returned here.  Exactness of
    the division is the computational content of the identity."""
    return _divide_out(algebra, det_wave_apply(pair_power(algebra, f)).body)


def brute_force_wave(algebra: AlgebraDescriptor, k: int, l: int, f: MPoly) -> MPoly:
    """Integer-power oracle: wave(dx-dy) applied to det(x)^k det(y)^l f by
    plain polynomial differentiation, in the coefficient form of f (bare
    rationals once f is lowered with over_q).  The product is expanded first
    and `fischer.apply_diffop` differentiates it monomial by monomial, in one
    pass with no table of partial derivatives; neither the product rule nor
    the det-power calculus of the symbolic side is used."""
    if k < 0 or l < 0:
        raise ValueError("integer powers must be nonnegative")
    target = _pair_det_power(algebra, 0, k) * _pair_det_power(algebra, 1, l) * f
    return apply_diffop(_wave_pair_symbol(algebra), target)


@lru_cache(maxsize=None)
def dst_operator(algebra: AlgebraDescriptor) -> DiffOp:
    """Normal-ordered operator form of the main-identity family, built from
    its definition by the product rule: with wave(dx - dy) = sum_alpha
    w_alpha d^alpha, the coefficient of d^beta is
    sum_alpha w_alpha C(alpha, beta) d^(alpha - beta)[det^s det^t],
    re-expressed at the shifts -r and divided exactly by det^(r-1) in each
    slot.  Certified against extract_Dst on a probe beyond the order r."""
    dvars = double_vars(algebra.vars)
    r = algebra.r
    partial = partials(pair_power(algebra), len(dvars), diff)
    parts: dict[Monomial, list[MPoly]] = {}
    for alpha, w in _wave_monomials(algebra, True).items():
        for beta, binom in leibniz_orders(alpha):
            term = _lowered(partial(tuple(a - b for a, b in zip(alpha, beta))), (-r, -r))
            parts.setdefault(beta, []).append(term.scale(w * binom))
    op = DiffOp(dvars, {beta: _divide_out(algebra, MPoly.sum(dvars, parts[beta]))
                        for beta in sorted(parts, key=lambda m: (sum(m), m))})
    probe = MPoly.monomial(dvars, tuple([r] + [0] * (len(dvars) - 2) + [1]))
    if op.apply(probe) != extract_Dst(algebra, probe):
        raise TheoremViolationError("operator reconstruction failed certification")
    return op


def dst_grid_check(algebra: AlgebraDescriptor, f: MPoly, s_values: Sequence[int],
                   t_values: Sequence[int]) -> bool:
    """Integer-substitution agreement between the symbolic action and the
    brute-force oracle on a grid (powers >= rank keep both sides polynomial).
    f must be parameter-free; the oracle side runs over bare rationals."""
    r = algebra.r
    symbolic = extract_Dst(algebra, f)
    f = f.over_q()
    for k in s_values:
        for l in t_values:
            if k < r or l < r:
                raise ValueError("grid powers must be >= rank")
            lhs = brute_force_wave(algebra, k, l, f)
            rhs_factor = _pair_det_power(algebra, 0, k - 1) * _pair_det_power(algebra, 1, l - 1)
            action = symbolic.subs_params({"s": ParamPoly.of(k), "t": ParamPoly.of(l)}).over_q()
            if lhs != rhs_factor * action:
                return False
    return True


# ---------------------------------------------------------------------------
# Fourier-side families


def declared_tau_power(op: DiffOp) -> int:
    degs = op.tau_degrees()
    if len(degs) > 1:
        raise ConventionError(f"mixed formal-constant powers {sorted(degs)}")
    return degs.pop() if degs else 0


@dataclass(frozen=True)
class EstFamily:
    """E_{s,t} = inverse Fourier conjugate of the wave-identity operator.

    `raw` satisfies fourier_conjugate(raw) == dst exactly in the formal
    ring; `tau_power` is the uniform overall power of the formal constant;
    `normalized` has the power stripped (and, under the unit-imaginary
    kernel convention, folded into the rational coefficients)."""

    dst: DiffOp
    raw: DiffOp
    tau_power: int
    normalized: DiffOp


@lru_cache(maxsize=None)
def build_Est(algebra: AlgebraDescriptor) -> EstFamily:
    dst = dst_operator(algebra)
    raw = fourier_conjugate(dst, inverse=True)
    k = declared_tau_power(raw)
    stripped = raw.shift_tau(-k)
    if declared_tau_power(stripped) != 0:
        raise ConventionError("stripping the overall power left formal-constant terms")
    if algebra.fourier_tau == "i":
        # tau = sqrt(-1): tau^k must be real for a rational-coefficient family
        if k % 2 != 0:
            raise ConventionError("odd overall power under the unit-imaginary kernel")
        sign = Fraction(-1) ** ((k // 2) % 2)
        normalized = stripped.scale(sign)
    else:
        normalized = stripped
    return EstFamily(dst=dst, raw=raw, tau_power=k, normalized=normalized)


def build_F(algebra: AlgebraDescriptor) -> DiffOp:
    """Covariance family: the E family reparametrized by
    s -> n/r - lam, t -> n/r - mu."""
    shift = Fraction(algebra.n, algebra.r)
    images = {"s": ParamPoly.of(shift) - LAM, "t": ParamPoly.of(shift) - MU}
    return build_Est(algebra).normalized.subs_params(images)


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


@lru_cache(maxsize=None)
def _wave_det_power(algebra: AlgebraDescriptor, k: int) -> MPoly:
    """wave(d) applied to det^k, by plain differentiation."""
    return apply_diffop(algebra.wave_poly, algebra.det_poly ** k)


def eps_flip_check(algebra: AlgebraDescriptor, point: Sequence[Fraction], k: int) -> bool:
    """At a rational point with det < 0, check that applying the wave
    operator to det^(k,eps) lands on b(k) det^(k-1,-eps) with the correct
    sign, for both eps branches."""
    x = element(algebra, list(point))
    dv = jdet(x)
    if dv >= 0:
        raise ValueError("flip check needs a negative-determinant point")
    bk = bernstein_poly(algebra).b.substitute({"s": ParamPoly.of(k)}).constant_value()
    lhs_poly = _wave_det_power(algebra, k).subs_point(list(point)).constant_value()
    for eps in ("+", "-"):
        # det^(k,eps) coincides with c * det^k near the point
        c = power_eps(dv, k, eps) / dv**k
        lhs = c * lhs_poly
        rhs = bk * power_eps(dv, k - 1, "-" if eps == "+" else "+")
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# graded construction (cross-check route on small euclidean algebras)


def dst_operator_graded(algebra: AlgebraDescriptor) -> DiffOp:
    """Operator form of the main identity built from the triple product-rule
    coefficients of det in the trace-form pairing; equals dst_operator on
    the euclidean matrix algebras, and a quarter of it on the spin factors
    rpq:1,q, whose chart keeps the literal quadratic form (bernstein_poly).

    The expansion's basis is homogeneous (the degree layers of the
    derivative space are mutually orthogonal), and a coefficient a_ijk
    contributes only when the degrees of p_i, p_j, p_k add up to the rank."""
    if not algebra.euclidean:
        raise ValueError("graded route lives on euclidean algebras")
    expansion = LeibnitzExpansion(algebra.det_poly, algebra.pairing)
    r = algebra.r
    d = algebra.d
    n = algebra.n
    dvars = double_vars(algebra.vars)
    degrees = [p.total_degree() for p in expansion.basis]
    sharps = [sharp(algebra, p, deg) for p, deg in zip(expansion.basis, degrees)]

    out = DiffOp.zero(dvars)
    for i, symbol in enumerate(expansion.symbols):
        coeff_total = MPoly.zero(dvars)
        for j in range(expansion.dim):
            for k in range(expansion.dim):
                if degrees[i] + degrees[j] + degrees[k] != r:
                    continue
                a = expansion.coeff3(i, j, k)
                if not a:
                    continue
                bm = b_reference(degrees[j], d)
                bn = b_reference(degrees[k], d).substitute({"s": T})
                scal = bm * bn * (Fraction(-1) ** degrees[k]) * a
                sx = sharps[j].extend_vars(dvars)
                sy = sharps[k].rename_vars(dvars[n:]).extend_vars(dvars)
                coeff_total = coeff_total + (sx * sy).scale(scal)
        # operator part: dual(p_i)(dx - dy)
        delta = symbol.compose(differences(algebra.vars))
        out = out + DiffOp.multiplication(coeff_total).compose(DiffOp.from_symbol(delta))
    return out
