"""Sparse multivariate polynomials in point coordinates over the scalar ring.

An MPoly has an ordered tuple of coordinate names (the chart of an algebra,
or its doubling x-slot + y-slot) and a dict mapping exponent tuples to
coefficients.  Canonical form stores no zero coefficients; the monomial
order used for division and printing is graded lexicographic.

The constructor stores ParamPoly coefficients.  A parameter-free polynomial
can be lowered (`over_q`) to bare rationals: int, or Fraction when not
integral.  `over_q` is the one place that stores integral values as int;
arithmetic on the bare form keeps the exact values that + and * return, so
an integral value it forms may stay a Fraction.  The integer-power oracle
of the main identity runs in that form, which skips the scalar wrapper.
The bare form takes any exact coefficient with +, -, * and truthiness: the
zeta layer's polynomials are built over Gaussian rationals
(`scalars.Gaussian`) by scaling a lowered one.  Sums, products, powers,
derivatives, scalings and renamings are written once for every form
through +, * and truthiness; a polynomial holds one form throughout, and
contact with a parameter promotes bare rationals to ParamPoly.

The packed exponent keys live here; `fischer.apply_diffop` and `weyl`'s
kernel read them.  A monomial x^m over n coordinates is the int with m_i
in the 16-bit field i (`_pack_mono`), so the key of a product is the sum of
its factors' keys and the key of a derivative the difference.  Packing
refuses (OverflowError) an exponent above 2^14 - 1, so no sum of two keys,
nor a fold of two sums, carries out of a field.  A product of two
polynomials of several terms each (`MPoly.__mul__`) adds its products on
packed keys and unpacks each distinct key once.

The calculus of the whole tower goes through two helpers here: `partials`,
the one memoised table of partial derivatives (of polynomials and of
determinant-power expressions alike), and `leibniz_orders`, the one
enumeration of the product rule.  `differences` is the one construction of
x_i - y_i on a doubled chart.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import add, mul, sub
from struct import Struct
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .scalars import G_ONE, Gaussian, ParamPoly

Coeff = Union[int, Fraction, Gaussian, ParamPoly]
Monomial = tuple[int, ...]
_T = TypeVar("_T")


class VariableMismatchError(ValueError):
    """Operands live over different coordinate lists."""


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


def _as_scalar(c: Coeff) -> ParamPoly:
    if isinstance(c, ParamPoly):
        return c
    return ParamPoly.of(c)


def _grlex(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


def _param_form(terms: Mapping[Monomial, Coeff]) -> bool:
    """Whether the coefficients are ParamPoly (the zero polynomial: no)."""
    for c in terms.values():
        return type(c) is ParamPoly
    return False


def _one(terms: Mapping[Monomial, Coeff]) -> Coeff:
    """The coefficient 1 in the form of terms (the zero polynomial: int)."""
    for c in terms.values():
        if type(c) is ParamPoly:
            return ParamPoly.of(1)
        return G_ONE if type(c) is Gaussian else 1
    return 1


def _add_into(out: dict, terms: Mapping, op=add) -> dict:
    """Add (op=sub: subtract) the values of terms into the term dict out, in
    place, dropping zeros: coefficients of one form, or the MPoly
    coefficients of operators."""
    for m, c in terms.items():
        nc = out.get(m)
        c = op(nc, c) if nc is not None else c if op is add else -c
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _poly(vars: tuple[str, ...], terms: dict[Monomial, Coeff]) -> "MPoly":
    res = MPoly.__new__(MPoly)
    res.vars, res.terms = vars, terms
    return res


def _constant(vars: tuple[str, ...], c: Coeff) -> "MPoly":
    """The constant c (nonzero) in its own coefficient form."""
    return _poly(vars, {(0,) * len(vars): c})


# ---------------------------------------------------------------------------
# packed keys

_FIELD = 16
_BOUND = (1 << _FIELD - 2) - 1  # a product adds two exponents, a fold two products


def _refuse(exps: tuple[int, ...]) -> None:
    raise OverflowError(f"exponent outside [0, {_BOUND}] in {exps}")


@lru_cache(maxsize=None)
def _struct(nfields: int) -> Struct:
    return Struct(f"<{nfields}H")


def _pack_mono(m: Monomial) -> int:
    """m_i in field i, each field 16 bits; an exponent above _BOUND raises."""
    if m and (max(m) > _BOUND or min(m) < 0):
        _refuse(m)
    return int.from_bytes(_struct(len(m)).pack(*m), "little")


def _unpack_terms(acc: Mapping[int, Coeff], nvars: int) -> dict[Monomial, Coeff]:
    """The term dict of a packed accumulator over nvars coordinates, each
    key unpacked once."""
    unpack, nbytes = _struct(nvars).unpack, 2 * nvars
    return {unpack(k.to_bytes(nbytes, "little")): c for k, c in acc.items()}


class MPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Monomial, Coeff] | None = None):
        self.vars = tuple(vars)
        out: dict[Monomial, ParamPoly] = {}
        if terms:
            for m, c in terms.items():
                c = _as_scalar(c)
                if c:
                    out[tuple(m)] = c
        self.terms = out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MPoly":
        return cls(vars)

    @classmethod
    def constant(cls, vars: Sequence[str], c: Coeff) -> "MPoly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "MPoly":
        vars = tuple(vars)
        idx = vars.index(name)
        mono = [0] * len(vars)
        mono[idx] = 1
        return cls(vars, {tuple(mono): 1})

    @classmethod
    def monomial(cls, vars: Sequence[str], mono: Monomial, c: Coeff = 1) -> "MPoly":
        return cls(vars, {tuple(mono): c})

    @classmethod
    def sum(cls, vars: Sequence[str], polys: Iterable["MPoly"]) -> "MPoly":
        """The sum of polynomials over vars that hold one coefficient form,
        accumulated in one term dict."""
        vars = tuple(vars)
        out: dict[Monomial, Coeff] = {}
        for p in polys:
            if p.vars != vars:
                raise VariableMismatchError(f"variable lists differ: {p.vars} vs {vars}")
            _add_into(out, p.terms)
        return _poly(vars, out)

    # -- predicates / structure --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        zero = (0,) * len(self.vars)
        return not self.terms or (len(self.terms) == 1 and zero in self.terms)

    def constant_coeff(self) -> Coeff:
        return self.terms.get((0,) * len(self.vars), ParamPoly.zero())

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading(self) -> tuple[Monomial, Coeff]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_grlex)
        return m, self.terms[m]

    def _check(self, other: "MPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable lists differ: {self.vars} vs {other.vars}"
            )

    def over_q(self) -> "MPoly":
        """This polynomial with bare rational coefficients (int, or Fraction
        when not integral).  Raises ValueError if a parameter occurs."""
        out: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            if type(c) is ParamPoly:
                c = c.constant_value()
            out[m] = c.numerator if c.denominator == 1 else c
        return _poly(self.vars, out)

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "MPoly", op) -> "MPoly":
        """self + other (op=add) or self - other (op=sub), in one pass."""
        self._check(other)
        pa, pb = _param_form(self.terms), _param_form(other.terms)
        if pa != pb and self.terms and other.terms:
            # a parameter meets bare rationals: promote them
            return op(MPoly(self.vars, self.terms), MPoly(other.vars, other.terms))
        return _poly(self.vars, _add_into(dict(self.terms), other.terms, op))

    def __add__(self, other: "MPoly") -> "MPoly":
        return self._combine(other, add)

    def __neg__(self) -> "MPoly":
        return _poly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self._combine(other, sub)

    def __mul__(self, other: "MPoly | Coeff") -> "MPoly":
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check(other)
        if len(other.terms) == 1:
            (m2, c2), = other.terms.items()
            if not any(m2):
                return self.scale(c2)
            out = {tuple(map(add, m1, m2)): c1 * c2 for m1, c1 in self.terms.items()}
        elif len(self.terms) == 1:
            return other * self
        else:
            # the keys keep the order in which a tuple loop would first meet
            # them, a cancelled key dropped and met again at the end
            right = [(_pack_mono(m2), c2) for m2, c2 in other.terms.items()]
            acc: dict[int, Coeff] = {}
            get = acc.get
            for m1, c1 in self.terms.items():
                k1 = _pack_mono(m1)
                for k2, c2 in right:
                    k = k1 + k2
                    c = get(k)
                    c = c1 * c2 if c is None else c + c1 * c2
                    if c:
                        acc[k] = c
                    else:
                        del acc[k]
            out = _unpack_terms(acc, len(self.vars))
        return _poly(self.vars, out)

    def scale(self, c: Coeff) -> "MPoly":
        if not c:
            return MPoly.zero(self.vars)
        if type(c) is ParamPoly:
            return _poly(self.vars, {m: v * c for m, v in self.terms.items()})
        if c == 1:
            return self
        if _param_form(self.terms):
            return _poly(self.vars, {m: v.scale_rat(c) for m, v in self.terms.items()})
        return _poly(self.vars, {m: v * c for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = _constant(self.vars, _one(self.terms))
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def diff(self, var: str | int) -> "MPoly":
        i = var if isinstance(var, int) else self.vars.index(var)
        param = _param_form(self.terms)
        times = ParamPoly.scale_rat if param else mul
        # m -> m - e_i is injective, so no two terms meet and none cancels
        out: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1 :]] = times(c, e)
        return _poly(self.vars, out)

    # -- substitution ---------------------------------------------------------

    def subs_point(self, point: Sequence[Coeff]) -> ParamPoly:
        """Evaluate at a full point (exact); returns a scalar."""
        if len(point) != len(self.vars):
            raise VariableMismatchError("point length does not match variables")
        vals = [_as_scalar(v) for v in point]
        total = ParamPoly.zero()
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                if e:
                    term = term * vals[i] ** e
            total = total + term
        return total

    def compose(self, images: Sequence["MPoly"]) -> "MPoly":
        """Substitute each variable by a polynomial over the images' chart."""
        if len(images) != len(self.vars):
            raise VariableMismatchError("one image per variable required")
        tvars = images[0].vars
        for g in images:
            if g.vars != tvars:
                raise VariableMismatchError("images live over different charts")
        powers: list[dict[int, MPoly]] = [dict() for _ in images]

        def power(i: int, k: int) -> MPoly:
            cache = powers[i]
            if k not in cache:
                cache[k] = images[i] ** k
            return cache[k]

        total = MPoly.zero(tvars)
        for m, c in self.terms.items():
            term = _constant(tvars, c)
            for i, e in enumerate(m):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def rename_vars(self, new_vars: Sequence[str]) -> "MPoly":
        if len(new_vars) != len(self.vars):
            raise VariableMismatchError("renaming must preserve arity")
        return _poly(tuple(new_vars), self.terms)

    def extend_vars(self, new_vars: Sequence[str]) -> "MPoly":
        """Embed into a larger chart (existing names keep their meaning)."""
        new_vars = tuple(new_vars)
        pos = [new_vars.index(v) for v in self.vars]
        out: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            nm = [0] * len(new_vars)
            for i, e in enumerate(m):
                nm[pos[i]] = e
            out[tuple(nm)] = c
        return _poly(new_vars, out)

    def subs_params(self, images: Mapping[str, ParamPoly]) -> "MPoly":
        if not _param_form(self.terms):
            return self
        return MPoly(self.vars, {m: c.substitute(images) for m, c in self.terms.items()})

    # -- exact division --------------------------------------------------------

    def exact_div(self, divisor: "MPoly") -> "MPoly":
        """Exact quotient self/divisor over ParamPoly coefficients; the
        divisor must have a rational leading coefficient (true for
        determinant powers).  Raises InexactDivisionError when the division
        does not come out exact."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dm, dc = divisor.leading()
        if not dc.is_constant():
            raise InexactDivisionError("divisor leading coefficient not rational")
        dval = dc.constant_value()
        rem = dict(self.terms)
        quo: dict[Monomial, Coeff] = {}
        while rem:
            m = max(rem, key=_grlex)
            qm = tuple(map(sub, m, dm))
            if any(e < 0 for e in qm):
                raise InexactDivisionError("leading monomial not divisible")
            qc = rem[m] / dval
            quo[qm] = qc
            for m2, c2 in divisor.terms.items():
                mm = tuple(map(add, qm, m2))
                nc = rem.get(mm)
                nc = -(qc * c2) if nc is None else nc - qc * c2
                if not nc:
                    rem.pop(mm, None)
                else:
                    rem[mm] = nc
        return MPoly(self.vars, quo)

    # -- display -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.vars[i])
                elif e:
                    factors.append(f"{self.vars[i]}^{e}")
            mono = "*".join(factors)
            cs = str(c)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono and cs != "1" else (mono or cs))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly[{','.join(self.vars)}]({self})"


def partials(f: _T, nvars: int, diff: Callable[[_T, int], _T]) -> Callable[[Monomial], _T]:
    """The memoised table of the partial derivatives of f, over nvars
    coordinates, for any derivation diff(g, i) (MPoly.diff, or
    detpower.diff on determinant-power expressions).

    The derivative of order mono is diff along the last coordinate i that
    mono raises, of the derivative of order mono - e_i, so each is taken
    once and orders that share that prefix share its work.  A zero entry
    (a falsy one) is its own derivative.

    The lookup walks down to a known entry and back up without calling
    itself: a self-referencing closure would be a reference cycle, and the
    table would outlive its last caller until the cyclic garbage collector
    ran."""
    table = {(0,) * nvars: f}

    def partial(mono: Monomial) -> _T:
        d = table.get(mono)
        if d is not None:
            return d
        path = []
        while d is None:
            i = nvars - 1
            while not mono[i]:
                i -= 1
            path.append((mono, i))
            mono = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
            d = table.get(mono)
        for mono, i in reversed(path):
            if d:
                d = diff(d, i)
            table[mono] = d
        return d

    return partial


@lru_cache(maxsize=None)
def leibniz_orders(alpha: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """The product rule d^alpha (f g) = sum_{beta <= alpha} C(alpha, beta)
    d^beta f d^(alpha - beta) g: every beta <= alpha with C(alpha, beta),
    beta = 0 first."""
    return tuple((beta, prod(map(comb, alpha, beta)))
                 for beta in product(*(range(a + 1) for a in alpha)))


def double_vars(vars: Sequence[str]) -> tuple[str, ...]:
    """Chart of V x V: x-slot keeps names, y-slot maps x* -> y*."""
    ys = []
    for v in vars:
        if not v.startswith("x"):
            raise ValueError(f"chart variable {v!r} must start with 'x'")
        ys.append("y" + v[1:])
    return tuple(vars) + tuple(ys)


@lru_cache(maxsize=None)
def differences(vars: tuple[str, ...]) -> tuple[MPoly, ...]:
    """x_i - y_i on the doubled chart of vars: substituted into p, they give
    p(x - y), which is also the symbol of p(dx - dy)."""
    dvars = double_vars(vars)
    n = len(vars)
    return tuple(MPoly.variable(dvars, dvars[i]) - MPoly.variable(dvars, dvars[n + i])
                 for i in range(n))
