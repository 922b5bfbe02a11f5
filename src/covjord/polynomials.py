"""Sparse multivariate polynomials in point coordinates over the scalar ring.

An MPoly has an ordered tuple of coordinate names (the chart of an algebra,
or its doubling x-slot + y-slot) and a dict mapping exponent tuples to
ParamPoly coefficients.  Canonical form stores no zero coefficients; the
monomial order used for division and printing is graded lexicographic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Mapping, Sequence, Union

from .scalars import ParamPoly

Coeff = Union[int, Fraction, ParamPoly]
Monomial = tuple[int, ...]


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


class MPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Monomial, Coeff] | None = None):
        self.vars = tuple(vars)
        out: dict[Monomial, ParamPoly] = {}
        if terms:
            for m, c in terms.items():
                c = _as_scalar(c)
                if not c.is_zero():
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

    # -- predicates / structure --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        zero = (0,) * len(self.vars)
        return not self.terms or (len(self.terms) == 1 and zero in self.terms)

    def constant_coeff(self) -> ParamPoly:
        return self.terms.get((0,) * len(self.vars), ParamPoly.zero())

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict[int, "MPoly"]:
        comps: dict[int, dict[Monomial, ParamPoly]] = {}
        for m, c in self.terms.items():
            comps.setdefault(sum(m), {})[m] = c
        return {d: MPoly(self.vars, t) for d, t in sorted(comps.items())}

    def leading(self) -> tuple[Monomial, ParamPoly]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_grlex)
        return m, self.terms[m]

    def _check(self, other: "MPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable lists differ: {self.vars} vs {other.vars}"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m)
            nc = c if nc is None else nc + c
            if nc.is_zero():
                out.pop(m, None)
            else:
                out[m] = nc
        res = MPoly.__new__(MPoly)
        res.vars, res.terms = self.vars, out
        return res

    def __neg__(self) -> "MPoly":
        res = MPoly.__new__(MPoly)
        res.vars = self.vars
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly | Coeff") -> "MPoly":
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check(other)
        if len(other.terms) == 1:
            (m2, c2), = other.terms.items()
            if not any(m2):
                return self.scale(c2)
            res = MPoly.__new__(MPoly)
            res.vars = self.vars
            res.terms = {
                tuple(map(add, m1, m2)): c1 * c2
                for m1, c1 in self.terms.items()
            }
            return res
        if len(self.terms) == 1:
            return other * self
        out: dict[Monomial, ParamPoly] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                c = c1 * c2
                nc = out.get(m)
                nc = c if nc is None else nc + c
                if nc.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = nc
        res = MPoly.__new__(MPoly)
        res.vars, res.terms = self.vars, out
        return res

    def scale(self, c: Coeff) -> "MPoly":
        if isinstance(c, ParamPoly) and c.is_constant():
            c = c.constant_value()
        if isinstance(c, (int, Fraction)):
            if not c:
                return MPoly.zero(self.vars)
            if c == 1:
                return self
            if c.denominator == 1:
                c = c.numerator  # an integral Fraction scales as an int
            res = MPoly.__new__(MPoly)
            res.vars = self.vars
            res.terms = {m: v.scale_rat(c) for m, v in self.terms.items()}
            return res
        c = _as_scalar(c)
        if c.is_zero():
            return MPoly.zero(self.vars)
        res = MPoly.__new__(MPoly)
        res.vars = self.vars
        res.terms = {m: v * c for m, v in self.terms.items()}
        return res

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MPoly.constant(self.vars, 1)
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
        # m -> m - e_i is injective, so no two terms meet and none cancels
        out: dict[Monomial, ParamPoly] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1 :]] = c.scale_rat(e)
        res = MPoly.__new__(MPoly)
        res.vars, res.terms = self.vars, out
        return res

    def diff_multi(self, orders: Monomial) -> "MPoly":
        out = self
        for i, k in enumerate(orders):
            for _ in range(k):
                out = out.diff(i)
                if out.is_zero():
                    return out
        return out

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
            term = MPoly.constant(tvars, c)
            for i, e in enumerate(m):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def rename_vars(self, new_vars: Sequence[str]) -> "MPoly":
        if len(new_vars) != len(self.vars):
            raise VariableMismatchError("renaming must preserve arity")
        return MPoly(new_vars, self.terms)

    def extend_vars(self, new_vars: Sequence[str]) -> "MPoly":
        """Embed into a larger chart (existing names keep their meaning)."""
        new_vars = tuple(new_vars)
        pos = [new_vars.index(v) for v in self.vars]
        out: dict[Monomial, ParamPoly] = {}
        for m, c in self.terms.items():
            nm = [0] * len(new_vars)
            for i, e in enumerate(m):
                nm[pos[i]] = e
            out[tuple(nm)] = c
        return MPoly(new_vars, out)

    def subs_params(self, images: Mapping[str, ParamPoly]) -> "MPoly":
        res = MPoly.zero(self.vars)
        for m, c in self.terms.items():
            res = res + MPoly(self.vars, {m: c.substitute(images)})
        return res

    # -- exact division --------------------------------------------------------

    def exact_div(self, divisor: "MPoly") -> "MPoly":
        """Exact quotient self/divisor; the divisor must have a rational
        leading coefficient (true for determinant powers).  Raises
        InexactDivisionError when the division does not come out exact."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dm, dc = divisor.leading()
        if not dc.is_constant():
            raise InexactDivisionError("divisor leading coefficient not rational")
        dval = dc.constant_value()
        rem = dict(self.terms)
        quo: dict[Monomial, ParamPoly] = {}
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
                if nc.is_zero():
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


def double_vars(vars: Sequence[str]) -> tuple[str, ...]:
    """Chart of V x V: x-slot keeps names, y-slot maps x* -> y*."""
    ys = []
    for v in vars:
        if not v.startswith("x"):
            raise ValueError(f"chart variable {v!r} must start with 'x'")
        ys.append("y" + v[1:])
    return tuple(vars) + tuple(ys)
