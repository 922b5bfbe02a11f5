"""Normal-ordered differential operators with polynomial coefficients.

A DiffOp maps derivative multi-exponents to MPoly coefficients with
ParamPoly values (bare rationals are lifted on construction) and denotes
sum_beta  c_beta(x) d^beta  (multiplication left, differentiation right).
Composition rewrites into this normal form through the commutation rule
[d_i, x_i] = 1.  One accumulator kernel serves compose, commutator and
Fourier conjugation; the commutator leaves out the products in which no
coefficient is differentiated, which is exact because those of A o B and
of B o A are the same products of commuting coefficients.  commutator_sum
adds a commutator and a product into one such accumulator, and can fold it
onto the diagonal of a doubled chart with the fold of restrict, the
substitution y -> x in an operator's coefficients.  The formal Fourier
constant tau lets conjugation by the Fourier transform act as the ring
automorphism d_j -> -tau x_j, x_j -> tau^-1 d_j, exactly.

The bracket chain f_chain composes a translation-covariant family, whose
coefficients are polynomials in x - y alone, through the same kernel on
those coefficients in difference form, and expands the result once; a
family whose coefficients are not polynomials in x - y is refused with
ValueError.

This module knows no Jordan algebra: the families built from an algebra's
wave identity (D, E and F) live in detpower.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, le, sub
from typing import Iterable, Mapping, Sequence

from .polynomials import (MPoly, Monomial, VariableMismatchError, _add_into, _param_form, _poly,
                          differences, leibniz_orders, partials)
from .scalars import LAM, MU, ParamPoly


def _settle_scalars(coeff: dict[Monomial, dict], shared: dict) -> dict[Monomial, ParamPoly]:
    """A compose accumulator's coefficient, coordinate monomial -> exponent
    -> rational, turned into MPoly terms in place: zeros are dropped and
    integral Fractions stored as int.  Equal scalars become one ParamPoly,
    interned in shared under frozenset(terms.items()); the dict of a repeat
    is freed.  This is sound because a ParamPoly is never mutated."""
    for m, out in list(coeff.items()):
        for e, c in list(out.items()):
            if not c:
                del out[e]
            elif type(c) is not int and c.denominator == 1:
                out[e] = c.numerator
        if out:
            key = frozenset(out.items())
            scalar = shared.get(key)
            if scalar is None:
                scalar = shared[key] = ParamPoly.__new__(ParamPoly)
                scalar.terms = out
            coeff[m] = scalar
        else:
            del coeff[m]
    return coeff


def _difference_diff(c: MPoly, i: int) -> MPoly:
    """The derivation of a coefficient c(x - y) stored as c(u, 0) on the
    doubled chart: d/dx_i acts as d/du_i and d/dy_i as -d/du_i."""
    n = len(c.vars) // 2
    return c.diff(i) if i < n else -c.diff(i - n)


def _accumulate(acc: dict[Monomial, dict[Monomial, dict]], keys: dict[tuple, tuple],
                left: "DiffOp", right: "DiffOp", sign: int, skip_zero: bool,
                difference: bool = False) -> dict:
    """Add sign * left o right, normal-ordered, into acc: operator monomial
    -> coordinate monomial -> scalar exponent -> rational.

    Normal ordering through d^beta (b(x) d^gamma) =
    sum_{delta <= beta} C(beta,delta) (d^delta b) d^(beta-delta+gamma),
    with the pairs (delta, C(beta,delta)) from polynomials.leibniz_orders.
    The nonzero derivatives d^delta b of the right-hand coefficients are
    tabled once per call and indexed by delta, for the delta that lie under
    some left monomial and, componentwise, under b's degree in each
    coordinate (any other delta gives zero and is not taken), with their
    scalar terms.  Each (beta, delta) then visits only the gamma whose
    d^delta b_gamma is nonzero; the left terms are scaled, and the offset
    beta - delta formed, once per (beta, delta) that has a product.  Every
    product sign * C(beta,delta) * a * d^delta b is added term by term;
    skip_zero leaves out the delta = 0 products a b d^(beta+gamma).  keys
    interns the monomial and exponent tuples, so the result shares one
    object per key.

    With difference, both operators hold their coefficients in difference
    form, c(u, 0) for c(x - y): the derivatives are taken by
    _difference_diff, and u_i's degree bounds the order in both x_i and y_i.
    Products of y-free coefficients are y-free, so the accumulator holds the
    difference form of left o right."""
    if left.vars != right.vars:
        raise VariableMismatchError("operators over different charts")
    nvars = len(left.vars)
    diff = _difference_diff if difference else MPoly.diff
    deltas = {delta for beta in left.terms for delta, _ in leibniz_orders(beta)}
    if skip_zero:
        deltas.discard((0,) * nvars)
    table: dict[Monomial, list[tuple[Monomial, list]]] = {}
    for gamma, b in right.terms.items():
        partial = partials(b, nvars, diff)
        degree = [max(column) for column in zip(*b.terms)]
        if difference:
            degree[nvars // 2:] = degree[:nvars // 2]
        for delta in deltas:
            if all(map(le, delta, degree)) and (db := partial(delta)):
                row = table.get(delta)
                if row is None:
                    row = table[delta] = []
                row.append((gamma, [(m, c.terms.items()) for m, c in db.terms.items()]))
    for beta, a in left.terms.items():
        a_terms = None
        for delta, binom in leibniz_orders(beta):
            row = table.get(delta)
            if row is None:
                continue
            if a_terms is None:
                a_terms = [(m, c.terms.items()) for m, c in a.terms.items()]
            mult = sign * binom
            left_terms = a_terms if mult == 1 else [
                (m, [(e, c * mult) for e, c in s]) for m, s in a_terms]
            offset = tuple(map(sub, beta, delta))
            for gamma, db_terms in row:
                key = tuple(map(add, offset, gamma))
                coeff = acc.get(key)
                if coeff is None:
                    coeff = acc[key] = {}
                for m1, s1 in left_terms:
                    for m2, s2 in db_terms:
                        m = tuple(map(add, m1, m2))
                        out = coeff.get(m)
                        if out is None:
                            out = coeff[keys.setdefault(m, m)] = {}
                        for e1, c1 in s1:
                            for e2, c2 in s2:
                                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                                     e1[3] + e2[3], e1[4] + e2[4])
                                c = out.get(e)
                                if c is None:
                                    out[keys.setdefault(e, e)] = c1 * c2
                                else:
                                    out[e] = c + c1 * c2
    return acc


def _fold(coeff: Mapping[Monomial, dict], n: int, folds: dict[Monomial, Monomial]) -> dict:
    """y -> x in a coefficient held as coordinate monomial -> exponent ->
    rational on a doubled chart with n coordinates a slot.  Each coordinate
    monomial is folded once per call (folds keeps the folded ones), and the
    exponent dicts of monomials that fold together are summed in place in a
    fresh dict, so no dict of coeff is written to."""
    out: dict[Monomial, dict] = {}
    summed = set()
    for m, d in coeff.items():
        f = folds.get(m)
        if f is None:
            f = folds[m] = tuple(map(add, m[:n], m[n:])) + (0,) * n
        into = out.get(f)
        if into is None:
            out[f] = d
            continue
        if f not in summed:
            summed.add(f)
            into = out[f] = dict(into)
        for e, c in d.items():
            into[e] = into.get(e, 0) + c
    return out


def _result(vars: tuple[str, ...], coeffs: Iterable[tuple[Monomial, dict]], keys: dict,
            fold: int | None = None) -> "DiffOp":
    """The operator of an accumulator's items, operator monomial ->
    coordinate monomial -> exponent dict, zeros dropped, with one ParamPoly
    per distinct scalar: keys, the call's table of interned tuples, interns
    them too.  With fold = n each coefficient is first folded onto the
    diagonal by _fold.  Each coefficient is settled as soon as it is read."""
    folds: dict = {}
    terms = {}
    for b, c in coeffs:
        if fold is not None:
            c = _fold(c, fold, folds)
        if _settle_scalars(c, keys):
            terms[b] = _poly(vars, c)
    return DiffOp(vars, terms)


class DiffOp:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Monomial, MPoly] | None = None):
        self.vars = tuple(vars)
        out: dict[Monomial, MPoly] = {}
        if terms:
            for b, c in terms.items():
                if c.vars != self.vars:
                    raise VariableMismatchError("coefficient chart differs from operator chart")
                if c:  # bare rationals are lifted: the compose kernel reads ParamPoly terms
                    out[tuple(b)] = c if _param_form(c.terms) else MPoly(c.vars, c.terms)
        self.terms = out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "DiffOp":
        return cls(vars)

    @classmethod
    def identity(cls, vars: Sequence[str]) -> "DiffOp":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): MPoly.constant(vars, 1)})

    @classmethod
    def multiplication(cls, f: MPoly) -> "DiffOp":
        return cls(f.vars, {(0,) * len(f.vars): f})

    @classmethod
    def from_symbol(cls, p: MPoly) -> "DiffOp":
        """The constant-coefficient operator p(d): d_i substituted for x_i."""
        return cls(p.vars, {mono: MPoly.constant(p.vars, c) for mono, c in p.terms.items()})

    @classmethod
    def derivative(cls, vars: Sequence[str], index: int, order: int = 1) -> "DiffOp":
        vars = tuple(vars)
        b = [0] * len(vars)
        b[index] = order
        return cls(vars, {tuple(b): MPoly.constant(vars, 1)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((sum(b) for b in self.terms), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset((b, hash(c)) for b, c in self.terms.items())))

    # -- linear operations ----------------------------------------------------

    def _combine(self, other: "DiffOp", op) -> "DiffOp":
        """self + other (op=add) or self - other (op=sub), in one pass."""
        if self.vars != other.vars:
            raise VariableMismatchError("operators over different charts")
        res = DiffOp.__new__(DiffOp)
        res.vars, res.terms = self.vars, _add_into(dict(self.terms), other.terms, op)
        return res

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return self._combine(other, add)

    def __neg__(self) -> "DiffOp":
        res = DiffOp.__new__(DiffOp)
        res.vars = self.vars
        res.terms = {b: -c for b, c in self.terms.items()}
        return res

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self._combine(other, sub)

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.vars, {b: coeff.scale(c) for b, coeff in self.terms.items()})

    # -- action and composition ---------------------------------------------

    def apply(self, f: MPoly) -> MPoly:
        if f.vars != self.vars:
            raise VariableMismatchError("operand chart differs from operator chart")
        partial = partials(f, len(self.vars), MPoly.diff)
        return MPoly.sum(self.vars, (c * d for b, c in self.terms.items() if (d := partial(b))))

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self after other: apply(compose(A,B), f) = A(B(f)).

        Every normal-ordered product goes through _accumulate once; its
        accumulator becomes the result's terms."""
        keys: dict = {}
        acc = _accumulate({}, keys, self, other, sign=1, skip_zero=False)
        return _result(self.vars, acc.items(), keys)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """[self, other] = self.compose(other) - other.compose(self).

        Both orders go into one accumulator with the delta = 0 products
        left out: those of A o B are a_beta b_gamma d^(beta+gamma) and those
        of B o A are b_gamma a_beta d^(gamma+beta), so they cancel term for
        term and only the products that differentiate a coefficient stay."""
        return commutator_sum(self, other)

    # -- parameter plumbing ----------------------------------------------------

    def subs_params(self, images: Mapping[str, ParamPoly]) -> "DiffOp":
        return DiffOp(self.vars, {b: c.subs_params(images) for b, c in self.terms.items()})

    def tau_degrees(self) -> set[int]:
        degs: set[int] = set()
        for c in self.terms.values():
            for coeff in c.terms.values():
                degs |= coeff.tau_degrees()
        return degs

    def shift_tau(self, k: int) -> "DiffOp":
        if k == 0:
            return self
        return self.scale(ParamPoly.var("tau", k))

    # -- display ---------------------------------------------------------------

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for b in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            dstr = "".join(
                f"d{self.vars[i]}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(b) if e
            )
            cs = str(self.terms[b])
            if " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{dstr}" if dstr else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp({self.pretty()})"


# ---------------------------------------------------------------------------
# restriction to the diagonal, and residuals in one accumulator


def restrict(op: DiffOp, n: int) -> DiffOp:
    """Restriction to the diagonal: the operator f -> (op f)(x, x), written
    as the doubled-chart operator with y -> x in every coefficient and the
    dx/dy slots kept distinct.  This form is faithful, restricting it again
    changes nothing, and the diagonal substitution of restrict(op, n).apply(f)
    equals that of op.apply(f).

    Each coordinate monomial is folded once per call, by the fold of
    commutator_sum, and each operator monomial's coefficient is settled as
    soon as it is folded, with one ParamPoly per distinct scalar.  Sums go
    into fresh dicts; an unsummed scalar's dict is canonical, so settling
    writes nothing to it, and op is left as it was."""
    coeffs = ((b, {m: s.terms for m, s in c.terms.items()}) for b, c in op.terms.items())
    return _result(op.vars, coeffs, {}, fold=n)


def commutator_sum(a: DiffOp, b: DiffOp, m: DiffOp | None = None,
                   fold: int | None = None) -> DiffOp:
    """[a, b] + m o a, through one accumulator settled once: the two orders
    of the commutator without their delta = 0 products, which cancel term
    for term (see DiffOp.commutator), and the product m o a.  No
    intermediate operator is settled or added.

    With fold = n the accumulator is folded onto the diagonal of the
    doubled chart, y -> x as in restrict, before it is settled, so the
    result is restrict([a, b] + m o a, n)."""
    acc: dict = {}
    keys: dict = {}
    _accumulate(acc, keys, a, b, sign=1, skip_zero=True)
    _accumulate(acc, keys, b, a, sign=-1, skip_zero=True)
    if m is not None:
        _accumulate(acc, keys, m, a, sign=1, skip_zero=False)
    return _result(a.vars, acc.items(), keys, fold)


# ---------------------------------------------------------------------------
# Fourier conjugation


def fourier_conjugate(op: DiffOp, inverse: bool = False) -> DiffOp:
    """Conjugation by the Fourier transform as a Weyl-algebra automorphism.

    Forward:  d_j -> -tau x_j,   x_j -> tau^-1 d_j.
    Inverse:  d_j ->  tau x_j,   x_j -> -tau^-1 d_j.

    The image c(+-tau^-1 d) o (-+tau x)^beta of every term c(x) d^beta is
    added into one accumulator, settled once."""
    vars = op.vars
    x_sign = -1 if inverse else 1
    d_sign = -x_sign
    acc: dict = {}
    keys: dict = {}
    for beta, coeff in op.terms.items():
        coeff_image = DiffOp(vars, {
            mono: MPoly.constant(vars, c * ParamPoly.var("tau", -sum(mono)) * x_sign ** sum(mono))
            for mono, c in coeff.terms.items()})
        deg = sum(beta)
        mult = MPoly(vars, {beta: ParamPoly.var("tau", deg) * d_sign ** deg})
        _accumulate(acc, keys, coeff_image, DiffOp.multiplication(mult), sign=1, skip_zero=False)
    return _result(vars, acc.items(), keys)


# ---------------------------------------------------------------------------
# the bracket chain of a translation-covariant family


def _difference_form(F: DiffOp) -> DiffOp:
    """F with each coefficient c(x - y) stored as its y-free terms c(u, 0).
    Raises ValueError unless F is exactly the expansion of that form, that
    is, unless every coefficient is a polynomial in x - y alone."""
    n = len(F.vars) // 2
    form = DiffOp(F.vars, {beta: _poly(F.vars, {m: s for m, s in c.terms.items() if not any(m[n:])})
                           for beta, c in F.terms.items()})
    if _expand(form) != F:
        raise ValueError("the family's coefficients are not polynomials in x - y")
    return form


@lru_cache(maxsize=None)
def _difference_power(vars: tuple[str, ...], m: Monomial) -> MPoly:
    """(x - y)^m on the doubled chart vars, with bare-rational coefficients:
    (x - y)^(m - e_i) times x_i - y_i from polynomials.differences, for the
    last coordinate i that m raises."""
    n = len(vars) // 2
    if not any(m):
        return MPoly.constant(vars, 1).over_q()
    i = max(i for i, e in enumerate(m) if e)
    lower = _difference_power(vars, m[:i] + (m[i] - 1,) + m[i + 1:])
    return lower * differences(vars[:n])[i].over_q()


def _expand(form: DiffOp) -> DiffOp:
    """The operator whose coefficients form holds as c(u, 0), read at
    u = x - y: each u^m becomes (x - y)^m, tabled once per m by
    _difference_power.  x^a y^b occurs in (x - y)^m only for m = a + b, so
    each expanded term is k * s for one term s u^m of the form, and no two
    meet.  k * s is computed once per scalar object s and k, and interned
    by value in one table for the whole result, so each operator monomial's
    coefficient is final as soon as it is expanded."""
    vars = form.vars
    shared: dict = {}
    scaled: dict[tuple[int, int], ParamPoly] = {}
    terms: dict[Monomial, MPoly] = {}
    for beta, c in form.terms.items():
        coeff: dict[Monomial, ParamPoly] = {}
        for m, s in c.terms.items():
            for mono, k in _difference_power(vars, m).terms.items():
                v = scaled.get((id(s), k))
                if v is None:
                    v = s.scale_rat(k)
                    v = scaled[id(s), k] = shared.setdefault(frozenset(v.terms.items()), v)
                coeff[mono] = v
        terms[beta] = _poly(vars, coeff)
    return DiffOp(vars, terms)


def f_chain(F: DiffOp, N: int) -> DiffOp:
    """F_(lam+N-1, mu+N-1) . ... . F_(lam, mu) for a family F over Q[lam, mu]:
    its restriction to the diagonal is the bracket of order N.

    F must be translation covariant: its coefficients are polynomials in
    x - y alone, and ValueError is raised otherwise.  The chain is composed
    on those coefficients in difference form, c(u, 0) for c(x - y), so every
    coefficient product is one of polynomials in n variables, and the
    result is expanded at u = x - y once."""
    if N < 1:
        raise ValueError("bracket order must be >= 1")
    form = _difference_form(F)
    chain = form
    for k in range(1, N):
        keys: dict = {}
        shifted = form.subs_params({"lam": LAM + k, "mu": MU + k})
        acc = _accumulate({}, keys, shifted, chain, sign=1, skip_zero=False, difference=True)
        chain = _result(F.vars, acc.items(), keys)
    return F if N == 1 else _expand(chain)
