"""Fischer pairing, derivative spaces and the product-rule expansion.

The operator attached to a polynomial p is literal substitution of partial
derivatives for the coordinates (the chart carries the standard dot
product).  A pairing with Gram matrix G enters through the dual polynomial
p(G^-1 x), whose literal substitution is the operator of p in that pairing.
All scalar arithmetic is exact.

Bases of derivative spaces are orthogonalized but not normalized, so every
coefficient stays rational; the expansion formulas carry the inverse Gram
diagonal instead of assuming orthonormality.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from typing import Callable, Sequence

from .polynomials import (Coeff, MPoly, Monomial, VariableMismatchError, _pack_mono, _param_form,
                          _poly, _unpack_terms)
from .scalars import ParamPoly, fraction_matrix_inverse, rref


class EmptySpaceError(ValueError):
    """Derivative space of the zero polynomial requested."""


def apply_diffop(p: MPoly, q: MPoly) -> MPoly:
    """Apply p(d/dx) to q, substituting d/dx_i for x_i in p literally.

    One pass over the pairs of a symbol term w_alpha x^alpha and a term
    c x^m of q: where m >= alpha, w_alpha c m!/(m - alpha)! is added at the
    packed key of m - alpha (`polynomials._pack_mono`), so no partial
    derivative of q is formed.  When p's coefficients are rationals (or
    ParamPoly constants, and q holds ParamPoly) the pass runs over L p, L
    the lcm of their denominators, whose coefficients are ints, and each
    result term is divided by L once.  The result holds q's coefficient
    form, or ParamPoly if p has it; its terms come in the order of the sum
    over alpha of the partial derivatives of q."""
    if p.vars != q.vars:
        raise VariableMismatchError(f"variable lists differ: {p.vars} vs {q.vars}")
    weights = p.terms
    if _param_form(q.terms) and all(type(w) is ParamPoly and w.is_constant()
                                    for w in weights.values()):
        # the result is ParamPoly either way, and an int weight scales each
        # pair's term once
        weights = {alpha: w.constant_value() for alpha, w in weights.items()}
    rational = all(type(w) is int or type(w) is Fraction for w in weights.values())
    clear = lcm(*(w.denominator for w in weights.values())) if rational else 1
    terms = [(_pack_mono(m), m, c) for m, c in q.terms.items()]
    acc: dict[int, Coeff] = {}
    get = acc.get
    for alpha, w in weights.items():
        akey = _pack_mono(alpha)
        weight = w.numerator * (clear // w.denominator) if rational else w
        orders = [(i, a) for i, a in enumerate(alpha) if a]
        for mkey, m, c in terms:
            k = weight
            for i, a in orders:
                k *= perm(m[i], a)  # 0 unless m_i >= a
            if k:
                key = mkey - akey
                v = get(key)
                v = c * k if v is None else v + c * k
                if v:
                    acc[key] = v
                else:
                    del acc[key]
    if clear != 1:
        inv = Fraction(1, clear)
        for key, v in acc.items():
            acc[key] = v * inv
    return _poly(q.vars, _unpack_terms(acc, len(q.vars)))


def dual_polynomial(p: MPoly, G: Sequence[Sequence[Fraction]]) -> MPoly:
    """p composed with G^{-1}: realizes the pairing-adapted operator of p
    through literal derivative substitution."""
    Ginv = fraction_matrix_inverse(G)
    vars = p.vars
    images = [MPoly.sum(vars, (MPoly.variable(vars, v).scale(g) for v, g in zip(vars, row) if g))
              for row in Ginv]
    return p.compose(images)


def fischer_inner(p: MPoly, q: MPoly) -> ParamPoly:
    """(p, q)_F = (p(d/dx) q)(0)."""
    if p.vars != q.vars:
        raise VariableMismatchError(f"variable lists differ: {p.vars} vs {q.vars}")
    total = ParamPoly.zero()
    for mono, coeff in p.terms.items():
        other = q.terms.get(mono)
        if other is not None:
            fact = Fraction(1)
            for e in mono:
                for k in range(2, e + 1):
                    fact *= k
            total = total + coeff * other * fact
    return total


def _poly_vector(p: MPoly, index: dict[Monomial, int], size: int) -> list[Fraction]:
    v = [Fraction(0)] * size
    for m, c in p.terms.items():
        v[index[m]] = c.constant_value()
    return v


def derivative_space(p: MPoly) -> list[MPoly]:
    """Basis of the smallest subspace containing p that is closed under all
    partial derivatives (order-0 included, so p itself is in the span).

    Input must be parameter-free.  The returned basis is ordered by
    decreasing homogeneous degree of the generating derivatives; for
    homogeneous p every basis element is homogeneous.
    """
    if p.is_zero():
        raise EmptySpaceError("derivative space of the zero polynomial")
    for c in p.terms.values():
        if not c.is_constant():
            raise ValueError("derivative_space needs a parameter-free polynomial")

    # Collect the distinct iterated partial derivatives (finitely many are
    # nonzero).  The search is depth-first, so when a repeat is popped its
    # whole subtree has been collected already and it is skipped.
    queue = [p]
    collected: list[MPoly] = []
    seen: set[MPoly] = set()
    seen_monos: dict[Monomial, int] = {}
    while queue:
        q = queue.pop()
        if q in seen:
            continue
        seen.add(q)
        collected.append(q)
        for m in q.terms:
            seen_monos.setdefault(m, len(seen_monos))
        for i in range(len(p.vars)):
            d = q.diff(i)
            if not d.is_zero():
                queue.append(d)

    # the first independent derivatives: pivot columns, one column each
    vectors = [_poly_vector(q, seen_monos, len(seen_monos)) for q in collected]
    _, pivots = rref(list(zip(*vectors)))
    basis = [collected[j] for j in pivots]
    basis.sort(key=lambda q: (-q.total_degree(), sorted(q.terms)))
    return basis


def orthogonal_basis(polys: Sequence[MPoly], inner: Callable[[MPoly, MPoly], Fraction]
                     ) -> tuple[list[MPoly], list[Fraction]]:
    """Gram-Schmidt over Q: an orthogonal (not orthonormal) basis of the
    span of polys under a positive-definite rational inner product, and its
    squared norms, so every coefficient stays rational."""
    basis: list[MPoly] = []
    norms: list[Fraction] = []
    for q in polys:
        w = q
        for b, nb in zip(basis, norms):
            c = inner(w, b)
            if c:
                w = w - b.scale(c / nb)
        if not w.is_zero():
            basis.append(w)
            norms.append(inner(w, w))
    return basis, norms


class LeibnitzExpansion:
    """Expansion machinery for one generator polynomial.

    Holds an orthogonal (not orthonormal) basis of the generator's
    derivative space, the inverse Gram diagonal, and the structure
    coefficients; expand/expand3 rebuild the generator's operator applied to
    a product of two or three factors.

    The pairing is the coordinate Fischer pairing by default.  Given the
    Gram matrix G of a positive-definite form (a euclidean algebra's trace
    form, say), the operator of p is dual_polynomial(p, G)(d) and the inner
    product is (dual_polynomial(p, G)(d) q)(0); the expansions then rebuild
    the operator of the generator in that pairing.
    """

    def __init__(self, generator: MPoly, pairing: Sequence[Sequence[Fraction]] | None = None):
        self.generator = generator
        self.pairing = pairing
        self.basis, self.norms = orthogonal_basis(derivative_space(generator), self.inner)
        self._generator_symbol = self.symbol(generator)
        self.symbols = [self.symbol(b) for b in self.basis]
        self._pair: dict[tuple[int, int], Fraction] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def symbol(self, p: MPoly) -> MPoly:
        """The polynomial whose literal derivative substitution is the
        operator of p in the pairing."""
        return p if self.pairing is None else dual_polynomial(p, self.pairing)

    def inner(self, p: MPoly, q: MPoly) -> Fraction:
        """(p, q) = (operator of p applied to q)(0)."""
        return fischer_inner(self.symbol(p), q).constant_value()

    def pair_coeff(self, i: int, j: int) -> Fraction:
        """(generator, p_i p_j), cached."""
        key = (min(i, j), max(i, j))
        c = self._pair.get(key)
        if c is None:
            c = fischer_inner(self._generator_symbol, self.basis[i] * self.basis[j]).constant_value()
            self._pair[key] = c
        return c

    def coeff2(self, i: int, j: int) -> Fraction:
        """Coefficient of (p_i(d)f)(p_j(d)g) in the two-factor expansion."""
        return self.pair_coeff(i, j) / (self.norms[i] * self.norms[j])

    def coeff3(self, i: int, j: int, k: int) -> Fraction:
        """Coefficient a_ijk of the three-factor expansion."""
        total = Fraction(0)
        for l in range(self.dim):
            c1 = self.pair_coeff(i, l)
            if not c1:
                continue
            c2 = fischer_inner(self.symbols[l], self.basis[j] * self.basis[k]).constant_value()
            if c2:
                total += c1 * c2 / (self.norms[i] * self.norms[l] * self.norms[j] * self.norms[k])
        return total

    def expand(self, f: MPoly, g: MPoly) -> MPoly:
        out = MPoly.zero(f.vars)
        derivatives_f = [apply_diffop(b, f) for b in self.symbols]
        derivatives_g = [apply_diffop(b, g) for b in self.symbols]
        for i, df in enumerate(derivatives_f):
            if df.is_zero():
                continue
            for j, dg in enumerate(derivatives_g):
                if dg.is_zero():
                    continue
                c = self.coeff2(i, j)
                if c:
                    out = out + (df * dg).scale(c)
        return out

    def expand3(self, f: MPoly, g: MPoly, h: MPoly) -> MPoly:
        out = MPoly.zero(f.vars)
        dfs = [apply_diffop(b, f) for b in self.symbols]
        dgs = [apply_diffop(b, g) for b in self.symbols]
        dhs = [apply_diffop(b, h) for b in self.symbols]
        for i, df in enumerate(dfs):
            if df.is_zero():
                continue
            for j, dg in enumerate(dgs):
                if dg.is_zero():
                    continue
                fg = df * dg
                for k, dh in enumerate(dhs):
                    if dh.is_zero():
                        continue
                    c = self.coeff3(i, j, k)
                    if c:
                        out = out + (fg * dh).scale(c)
        return out
