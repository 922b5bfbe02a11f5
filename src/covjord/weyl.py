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

The kernel adds packed keys.  The packing of coordinate monomials, its
16-bit fields and its refusal (OverflowError) of an exponent above
2^14 - 1, are stated once in `polynomials` and read here; the kernel adds
only the scalar-exponent fields above the coordinates.  A coefficient term
x^m s^e0 t^e1 lam^e2 mu^e3 tau^e4 is one int, the coordinates low, then s,
t, lam and mu, and tau on top with its sign; an operator monomial d^beta is
packed in the coordinate fields.  A product's key is the sum of its
factors' keys, and beta - delta + gamma is int arithmetic; the bound keeps
a product, and a product folded onto the diagonal, inside its field.  The
result unpacks each distinct key once.  The derivative rows of the right
factor are kept for the two right operators used most recently, each entry
holding its operator and found by `is`, so an F that many covariance
certificates share is tabled, and differentiated, once.

The bracket chain f_chain composes a translation-covariant family, whose
coefficients are polynomials in x - y alone, through the same kernel on
those coefficients in difference form, and expands the result once; a
family whose coefficients are not polynomials in x - y is refused with
ValueError.

Each operator is restricted to the diagonal once: restrict keeps its
result with the operator, and f_chain leaves its chain's restriction there,
read off the chain's zero-monomial terms, so a bracket never folds its
chain.

This module knows no Jordan algebra: the families built from an algebra's
wave identity (D, E and F) live in detpower.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, le, sub
from typing import Mapping, Sequence

from .polynomials import (_BOUND, _FIELD, MPoly, Monomial, VariableMismatchError, _add_into,
                          _pack_mono, _param_form, _poly, _refuse, _struct, differences,
                          leibniz_orders, partials)
from .scalars import LAM, MU, ParamPoly


def _intern(coeff: dict[Monomial, dict], shared: dict) -> dict[Monomial, ParamPoly]:
    """A coefficient held as coordinate monomial -> settled exponent dict
    (no zeros, integral values as int) turned into MPoly terms in place:
    equal scalars become one ParamPoly, interned in shared under
    frozenset(terms.items()), and the dict of a repeat is freed.  This is
    sound because a ParamPoly is never mutated."""
    for m, out in coeff.items():
        key = frozenset(out.items())
        scalar = shared.get(key)
        if scalar is None:
            scalar = shared[key] = ParamPoly.__new__(ParamPoly)
            scalar.terms = out
        coeff[m] = scalar
    return coeff


def _settle_scalars(coeff: dict[Monomial, dict], shared: dict) -> dict[Monomial, ParamPoly]:
    """_intern after settling: zeros dropped and integral Fractions stored
    as int, in place."""
    for m, out in list(coeff.items()):
        for e, c in list(out.items()):
            if not c:
                del out[e]
            elif type(c) is not int and c.denominator == 1:
                out[e] = c.numerator
        if not out:
            del coeff[m]
    return _intern(coeff, shared)


# ---------------------------------------------------------------------------
# packed keys

_LOW4 = (1 << 4 * _FIELD) - 1
_TABLE_LIMIT = 1 << 14
# a covariance certificate alternates F with a new field as the right
# factor; a deeper reuse would hold more tables for no further reuse
_REUSE_DEPTH = 2

# the packed keys of coordinate monomials and, per chart size, those of
# scalar exponents both ways, shared by every accumulator of the process:
# small one-shot operators would otherwise pack the same few tuples anew
# on every call
_MONO_KEYS: dict[Monomial, int] = {}
_EXP_KEYS: dict[int, tuple[dict[tuple, int], dict[int, tuple]]] = {}


_PACK4, _UNPACK4 = _struct(4).pack, _struct(4).unpack


class _Keys:
    """The packed keys of one accumulator over nvars coordinates.

    A term x^m s^e0 t^e1 lam^e2 mu^e3 tau^e4 of a coefficient is the int
    with m_i in field i and e_j in field nvars + j, a field being 16 bits;
    tau is the top field and keeps its sign.  An operator monomial d^beta is
    packed the same way, in the coordinate fields alone.  Packing refuses an
    exponent above _BOUND, so every field of a product, and of a product
    folded onto the diagonal, stays below 2^16 and no carry crosses a field.

    The keys of monomials and exponents, and the exponent of each exponent
    key, come from tables kept for the process, emptied between calls once
    they pass _TABLE_LIMIT entries; mono_of unpacks the monomial keys of one
    result, so the result shares one tuple per monomial."""

    __slots__ = ("nvars", "shift", "monos", "exps", "exp_of", "mono_of")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.shift = _FIELD * nvars
        if len(_MONO_KEYS) > _TABLE_LIMIT:
            _MONO_KEYS.clear()
        tables = _EXP_KEYS.get(nvars)
        if tables is None or max(map(len, tables)) > _TABLE_LIMIT:
            tables = _EXP_KEYS[nvars] = ({}, {})
        self.monos = _MONO_KEYS
        self.exps, self.exp_of = tables
        self.mono_of: dict[int, Monomial] = {}

    def mono(self, m: Monomial) -> int:
        k = self.monos.get(m)
        if k is None:
            k = self.monos[m] = _pack_mono(m)
        return k

    def terms(self, c: MPoly) -> list[tuple[int, object]]:
        """The terms of a coefficient as (packed key, rational) pairs."""
        monos, exps, shift = self.monos, self.exps, self.shift
        out = []
        for m, s in c.terms.items():
            mk = monos.get(m)
            if mk is None:
                mk = monos[m] = _pack_mono(m)
            for e, r in s.terms.items():
                ek = exps.get(e)
                if ek is None:
                    head = e[:4]
                    if max(head) > _BOUND or min(head) < 0:
                        _refuse(e)
                    ek = exps[e] = (int.from_bytes(_PACK4(*head), "little")
                                    + (e[4] << 4 * _FIELD)) << shift
                out.append((mk + ek, r))
        return out


@lru_cache(maxsize=None)
def _orders(beta: Monomial) -> tuple[tuple[Monomial, int, int], ...]:
    """polynomials.leibniz_orders(beta) with each delta's packed key:
    (delta, key, C(beta, delta))."""
    return tuple((delta, _pack_mono(delta), binom) for delta, binom in leibniz_orders(beta))


class _Rows:
    """The derivative rows of a right factor: for a packed delta, the list of
    (gamma, packed gamma, packed terms of d^delta b_gamma) over the gamma whose
    derivative is nonzero.  Rows are made on demand from one partials table
    per coefficient, so no derivative is taken twice, and the row of delta = 0
    holds the packed coefficients themselves."""

    __slots__ = ("op", "coeffs", "rows")

    def __init__(self, op: "DiffOp", keys: _Keys, difference: bool):
        nvars = len(op.vars)
        diff = _difference_diff if difference else MPoly.diff
        self.op = op
        self.coeffs = []
        for gamma, b in op.terms.items():
            degree = [max(column) for column in zip(*b.terms)]
            if difference:
                degree[nvars // 2:] = degree[:nvars // 2]
            self.coeffs.append((gamma, keys.mono(gamma), partials(b, nvars, diff), degree))
        self.rows: dict[int, list] = {}


_REUSED: list[_Rows] = []  # the least recently used first


def _kept(op: "DiffOp") -> _Rows | None:
    """The kept entry of op itself, found by `is`: an operator equal in value
    but distinct has none."""
    for entry in _REUSED:
        if entry.op is op:
            return entry
    return None


def _rows_of(op: "DiffOp", keys: _Keys) -> _Rows:
    """The rows of op, kept for the _REUSE_DEPTH right factors used most
    recently.  A DiffOp is never mutated, so the rows stay valid."""
    entry = _kept(op)
    if entry is not None:
        _REUSED.remove(entry)
    else:
        entry = _Rows(op, keys, difference=False)
        if len(_REUSED) >= _REUSE_DEPTH:
            del _REUSED[0]
    _REUSED.append(entry)
    return entry


def _difference_diff(c: MPoly, i: int) -> MPoly:
    """The derivation of a coefficient c(x - y) stored as c(u, 0) on the
    doubled chart: d/dx_i acts as d/du_i and d/dy_i as -d/du_i."""
    n = len(c.vars) // 2
    return c.diff(i) if i < n else -c.diff(i - n)


def _accumulate(acc: dict[int, dict[int, object]], keys: _Keys, left: "DiffOp",
                right: "DiffOp", sign: int, skip_zero: bool, difference: bool = False) -> dict:
    """Add sign * left o right, normal-ordered, into acc: packed operator
    monomial -> packed term -> rational, in the layout of _Keys.

    Normal ordering through d^beta (b(x) d^gamma) =
    sum_{delta <= beta} C(beta,delta) (d^delta b) d^(beta-delta+gamma),
    with the pairs (delta, C(beta,delta)) from polynomials.leibniz_orders.
    The nonzero derivatives d^delta b of the right-hand coefficients are
    tabled as packed rows (_Rows), indexed by delta, for the delta that lie
    under some left monomial and, componentwise, under b's degree in each
    coordinate (any other delta gives zero and is not taken).  The rows of
    the last _REUSE_DEPTH right factors are kept and found by `is`, so an
    operator such as F that is the right factor of many calls is tabled once
    and its derivatives are taken once; a left factor whose rows are kept
    reads its packed coefficients from its delta = 0 row.  Each (beta, delta)
    then visits only the gamma whose d^delta b_gamma is nonzero; the left
    terms are scaled, and the offset beta - delta formed, once per
    (beta, delta) that has a product.  Every product sign * C(beta,delta) * a * d^delta b is added
    term by term, its key the sum of its factors' keys; skip_zero leaves out
    the delta = 0 products a b d^(beta+gamma).

    With difference, both operators hold their coefficients in difference
    form, c(u, 0) for c(x - y): the derivatives are taken by
    _difference_diff, and u_i's degree bounds the order in both x_i and y_i.
    Products of y-free coefficients are y-free, so the accumulator holds the
    difference form of left o right.  Those rows serve one call and are not
    kept."""
    if left.vars != right.vars:
        raise VariableMismatchError("operators over different charts")
    entry = _Rows(right, keys, difference=True) if difference else _rows_of(right, keys)
    rows, coeffs = entry.rows, entry.coeffs
    reused = _kept(left)
    if reused is not None and 0 in reused.rows:
        left_terms = reused.rows[0]
    else:
        left_terms = [(beta, keys.mono(beta), a) for beta, a in left.terms.items()]
    for beta, bkey, a in left_terms:
        a_terms = None
        for delta, dkey, binom in _orders(beta):
            if skip_zero and not dkey:
                continue
            row = rows.get(dkey)
            if row is None:
                row = []
                for gamma, gkey, partial, degree in coeffs:
                    if all(map(le, delta, degree)) and (db := partial(delta)):
                        row.append((gamma, gkey, keys.terms(db)))
                rows[dkey] = row  # only once whole: a refused exponent leaves no row
            if not row:
                continue
            if a_terms is None:
                a_terms = a if type(a) is list else keys.terms(a)
            mult = sign * binom
            scaled = a_terms if mult == 1 else [(k, c * mult) for k, c in a_terms]
            offset = bkey - dkey
            for _, gkey, db_terms in row:
                key = offset + gkey
                coeff = acc.get(key)
                if coeff is None:
                    coeff = acc[key] = {}
                get = coeff.get
                for k1, c1 in scaled:
                    for k2, c2 in db_terms:
                        k = k1 + k2
                        c = get(k)
                        coeff[k] = c1 * c2 if c is None else c + c1 * c2
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


def _op(vars: tuple[str, ...], terms: dict[Monomial, MPoly]) -> "DiffOp":
    """The operator of terms that are already canonical: nonzero coefficients
    over vars with ParamPoly values, as the kernel settles them."""
    res = DiffOp.__new__(DiffOp)
    res.vars, res.terms = vars, terms
    return res


def _result(vars: tuple[str, ...], acc: dict[int, dict[int, object]], keys: _Keys,
            fold: int | None = None) -> "DiffOp":
    """The operator of a packed accumulator, zeros dropped, with one
    ParamPoly per distinct scalar.  Each distinct key is unpacked once and
    its tuple interned by keys.  With fold = n each coefficient is first
    folded onto the diagonal of the doubled chart, the y fields of every key
    added into its x fields.  Each coefficient is settled as soon as it is
    read."""
    shift, mono_of, exp_of = keys.shift, keys.mono_of, keys.exp_of
    unpack, unpack4, nbytes = _struct(keys.nvars).unpack, _UNPACK4, 2 * keys.nvars
    low = (1 << shift) - 1
    ys = 0 if fold is None else low ^ ((1 << _FIELD * fold) - 1)
    shared: dict = {}
    terms = {}
    for bkey, flat in acc.items():
        if ys:
            folded: dict[int, object] = {}
            for k, c in flat.items():
                y = k & ys
                k += (y >> _FIELD * fold) - y
                folded[k] = folded.get(k, 0) + c
            flat = folded
        coeff: dict[Monomial, dict] = {}
        for k, c in flat.items():
            if c:
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                km = k & low
                m = mono_of.get(km)
                if m is None:
                    m = mono_of[km] = unpack(km.to_bytes(nbytes, "little"))
                out = coeff.get(m)
                if out is None:
                    out = coeff[m] = {}
                ke = k >> shift
                e = exp_of.get(ke)
                if e is None:
                    low4 = (ke & _LOW4).to_bytes(8, "little")
                    e = exp_of[ke] = unpack4(low4) + (ke >> 4 * _FIELD,)
                out[e] = c
        if coeff:
            b = mono_of.get(bkey)
            if b is None:
                b = mono_of[bkey] = unpack(bkey.to_bytes(nbytes, "little"))
            terms[b] = _poly(vars, _intern(coeff, shared))
    return _op(vars, terms)


class DiffOp:
    # _restriction holds (n, restrict(self, n)) once restrict or f_chain has
    # made it; equality and hashing read vars and terms alone
    __slots__ = ("vars", "terms", "_restriction")

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
        keys = _Keys(len(self.vars))
        acc = _accumulate({}, keys, self, other, sign=1, skip_zero=False)
        return _result(self.vars, acc, keys)

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

    Each operator is folded once: the result is kept with op, and a later
    call on op with the same n returns it (f_chain leaves its chain's
    restriction there too).  A DiffOp is never mutated, so the kept result
    stays valid; a call with another n folds anew, and the result does not
    keep itself, which would be a reference cycle.

    Each coordinate monomial is folded once per call, on its tuple (_fold),
    and each operator monomial's coefficient is settled as soon as it is
    folded, with one ParamPoly per distinct scalar.  Sums go into fresh
    dicts; an unsummed scalar's dict is canonical, so settling writes
    nothing to it, and op's terms are left as they were."""
    kept = getattr(op, "_restriction", None)
    if kept is not None and kept[0] == n:
        return kept[1]
    folds: dict = {}
    shared: dict = {}
    terms = {}
    for b, c in op.terms.items():
        coeff = _settle_scalars(_fold({m: s.terms for m, s in c.terms.items()}, n, folds), shared)
        if coeff:
            terms[b] = _poly(op.vars, coeff)
    res = _op(op.vars, terms)
    op._restriction = (n, res)
    return res


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
    keys = _Keys(len(a.vars))
    _accumulate(acc, keys, a, b, sign=1, skip_zero=True)
    _accumulate(acc, keys, b, a, sign=-1, skip_zero=True)
    if m is not None:
        _accumulate(acc, keys, m, a, sign=1, skip_zero=False)
    return _result(a.vars, acc, keys, fold)


# ---------------------------------------------------------------------------
# Fourier conjugation


def _tau_shift(c: ParamPoly, k: int, sign: int) -> ParamPoly:
    """sign * tau^k * c, by moving c's tau exponents."""
    res = ParamPoly.__new__(ParamPoly)
    res.terms = {e[:4] + (e[4] + k,): v * sign for e, v in c.terms.items()}
    return res


def fourier_conjugate(op: DiffOp, inverse: bool = False) -> DiffOp:
    """Conjugation by the Fourier transform as a Weyl-algebra automorphism.

    Forward:  d_j -> -tau x_j,   x_j -> tau^-1 d_j.
    Inverse:  d_j ->  tau x_j,   x_j -> -tau^-1 d_j.

    The image c(+-tau^-1 d) o (-+tau x)^beta of every term c(x) d^beta is
    added into one accumulator, settled once."""
    vars = op.vars
    x_sign = -1 if inverse else 1
    d_sign = -x_sign
    zero = (0,) * len(vars)
    acc: dict = {}
    keys = _Keys(len(vars))
    for beta, coeff in op.terms.items():
        image = {}
        for mono, c in coeff.terms.items():
            k = sum(mono)
            image[mono] = _poly(vars, {zero: _tau_shift(c, -k, x_sign ** k)})
        deg = sum(beta)
        mult = _poly(vars, {beta: ParamPoly.var("tau", deg).scale_rat(d_sign ** deg)})
        _accumulate(acc, keys, _op(vars, image), _op(vars, {zero: mult}), sign=1, skip_zero=False)
    return _result(vars, acc, keys)


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
    result is expanded at u = x - y once.

    For N >= 2 the chain leaves its restriction to the diagonal with it, so
    restrict(chain, n) folds nothing.  It is read off the expanded chain:
    every coefficient term but the one at the zero monomial is a multiple of
    (x - y)^m with m != 0, which vanishes on the diagonal, so the
    restriction keeps, for each d^beta, that term alone, with the scalar
    object _expand interned.  At N = 1 the chain is F itself, and the first
    restrict(F, n) folds it."""
    if N < 1:
        raise ValueError("bracket order must be >= 1")
    form = _difference_form(F)
    if N == 1:
        return F
    chain = form
    for k in range(1, N):
        keys = _Keys(len(F.vars))
        shifted = form.subs_params({"lam": LAM + k, "mu": MU + k})
        # no name holds the accumulator, so it is freed before the next step
        # and before the expansion
        chain = _result(F.vars, _accumulate({}, keys, shifted, chain, sign=1, skip_zero=False,
                                            difference=True), keys)
    chain = _expand(chain)
    vars, zero = F.vars, (0,) * len(F.vars)
    res = _op(vars, {beta: _poly(vars, {zero: s}) for beta, c in chain.terms.items()
                     if (s := c.terms.get(zero)) is not None})
    chain._restriction = (len(vars) // 2, res)
    return chain
