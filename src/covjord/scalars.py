"""Exact scalar coefficient ring Q[s, t, lam, mu][tau, tau^-1].

A scalar is a sparse polynomial in the formal parameters s, t, lam, mu and
the formal constant tau (with its formal inverse; tau*tau^-1 = 1 reduces to
exponent addition).  Represented as a dict mapping exponent tuples to
rational coefficients:

  Exponent = (e_s, e_t, e_lam, e_mu, e_tau)

with e_tau allowed to be negative (Laurent in tau) and the others >= 0.
Zero coefficients are never stored, so equality is dict equality.

A ParamPoly is immutable: every operation builds a fresh term dict and
none writes to an operand's, and nothing writes to `terms` once the
scalar is built.  Values may therefore be shared, and operator results
are: `DiffOp.compose` and `DiffOp.commutator` hold one ParamPoly per
distinct scalar value.

A coefficient is stored as an int when it is an integer and as a Fraction
otherwise: construction, sums, products and division all hand back an int
for an integral value, so integer work never builds a Fraction.  Rational
values leave the ring as Fraction (constant_value), so that `/` on them
stays exact; a value at a rational point is substitute followed by
constant_value.  A bare rational operand of `*` goes straight to
scale_rat.  Parameter-free polynomials need not carry this ring at all: a
lowered MPoly (MPoly.over_q) stores the same int/Fraction values bare.

Exact Gaussian rationals re + im*i (`Gaussian`) live here too: the
hermitian multiplication tables are built over them, and they are the
coefficients of the bare-form MPolys of the zeta layer (orbit-coefficient
polynomials, Fourier images of test functions).

So does the exact linear algebra every layer above shares: Gauss-Jordan
reduction over Q (`rref`), the inverse built on it, the matrix product
for rational and Gaussian entries, and the exact rational matrices of
the conformal layer (`matrix`, `transpose`, `mat_sub`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterator, Mapping, Sequence, Union

PARAM_NAMES = ("s", "t", "lam", "mu", "tau")
_NPARAMS = len(PARAM_NAMES)
_TAU = PARAM_NAMES.index("tau")
_INDEX = {name: i for i, name in enumerate(PARAM_NAMES)}

Exponent = tuple[int, int, int, int, int]
RatLike = Union[int, Fraction]

_ZERO_EXP: Exponent = (0, 0, 0, 0, 0)


def _as_rational(value: RatLike) -> RatLike:
    """The stored form of an exact rational: int if integral, else Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _add_terms(out: dict[Exponent, RatLike], terms: Mapping[Exponent, RatLike],
               op=add) -> dict[Exponent, RatLike]:
    """Add (op=sub: subtract) stored terms into the term dict out, in place."""
    for e, c in terms.items():
        nc = op(out.get(e, 0), c)
        if nc:
            out[e] = nc if type(nc) is int else _as_rational(nc)
        else:
            out.pop(e, None)
    return out


def _div(a: RatLike, b: RatLike) -> RatLike:
    """Exact quotient of stored rationals (int / int would be a float)."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _as_rational(Fraction(a, b))


class ParamPoly:
    """Element of Q[s, t, lam, mu][tau, tau^-1], canonical sparse form."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, RatLike] | None = None):
        if terms:
            self.terms = {e: _as_rational(c) for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def of(cls, value: RatLike) -> "ParamPoly":
        c = _as_rational(value)
        res = cls.__new__(cls)
        res.terms = {_ZERO_EXP: c} if c else {}
        return res

    @classmethod
    def var(cls, name: str, power: int = 1) -> "ParamPoly":
        if name not in _INDEX:
            raise KeyError(f"unknown parameter {name!r}")
        if power < 0 and name != "tau":
            raise ValueError(f"negative power only allowed for tau, got {name}^{power}")
        exp = [0] * _NPARAMS
        exp[_INDEX[name]] = power
        return cls({tuple(exp): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant scalar: {self}")
        return Fraction(self.terms[_ZERO_EXP])

    def total_degree(self) -> int:
        """Total degree in s, t, lam, mu (tau ignored)."""
        if not self.terms:
            return 0
        return max(sum(e[:_TAU]) for e in self.terms)

    def tau_degrees(self) -> set[int]:
        return {e[_TAU] for e in self.terms}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ParamPoly":
        if type(other) is not ParamPoly:
            other = ParamPoly.of(other)
        res = ParamPoly.__new__(ParamPoly)
        res.terms = _add_terms(dict(self.terms), other.terms)
        return res

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        res = ParamPoly.__new__(ParamPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "ParamPoly":
        if type(other) is not ParamPoly:
            other = ParamPoly.of(other)
        res = ParamPoly.__new__(ParamPoly)
        res.terms = _add_terms(dict(self.terms), other.terms, sub)
        return res

    def __rsub__(self, other) -> "ParamPoly":
        return ParamPoly.of(other) - self

    def scale_rat(self, c: RatLike) -> "ParamPoly":
        if type(c) is not int:
            c = _as_rational(c)
            if type(c) is not int:
                return ParamPoly({e: v * c for e, v in self.terms.items()})
        if not c:
            return ParamPoly()
        res = ParamPoly.__new__(ParamPoly)
        res.terms = {e: v * c if type(v) is int else _as_rational(v * c)
                     for e, v in self.terms.items()}
        return res

    def __mul__(self, other) -> "ParamPoly":
        if type(other) is not ParamPoly:
            return self.scale_rat(other)
        # a constant factor scales (constants dominate)
        if len(other.terms) == 1 and _ZERO_EXP in other.terms:
            return self.scale_rat(other.terms[_ZERO_EXP])
        if len(self.terms) == 1 and _ZERO_EXP in self.terms:
            return other.scale_rat(self.terms[_ZERO_EXP])
        out: dict[Exponent, RatLike] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3], e1[4] + e2[4])
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc if type(nc) is int else _as_rational(nc)
                else:
                    out.pop(e, None)
        res = ParamPoly.__new__(ParamPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ParamPoly":
        if k < 0:
            raise ValueError("negative power of a scalar polynomial")
        out = ParamPoly.of(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __truediv__(self, other: RatLike) -> "ParamPoly":
        c = _as_rational(other)
        if c == 0:
            raise ZeroDivisionError("division of scalar polynomial by zero")
        res = ParamPoly.__new__(ParamPoly)
        res.terms = {e: _div(v, c) for e, v in self.terms.items()}
        return res

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.of(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, images: Mapping[str, "ParamPoly"]) -> "ParamPoly":
        """Substitute parameters by scalar polynomials (tau not substitutable)."""
        if "tau" in images:
            raise ValueError("tau is a formal constant and cannot be substituted")
        out: dict[Exponent, RatLike] = {}
        for e, c in self.terms.items():
            term = ParamPoly({(0, 0, 0, 0, e[_TAU]): c})
            for i, name in enumerate(PARAM_NAMES[:_TAU]):
                if e[i] == 0:
                    continue
                base = images.get(name, ParamPoly.var(name))
                term = term * base ** e[i]
            _add_terms(out, term.terms)
        res = ParamPoly.__new__(ParamPoly)
        res.terms = out
        return res

    def evaluate_complex(self, values: Mapping[str, complex]) -> complex:
        total = 0j
        for e, c in self.terms.items():
            term = complex(c)
            for i, name in enumerate(PARAM_NAMES):
                if e[i]:
                    term *= complex(values[name]) ** e[i]
            total += term
        return total

    # -- display -----------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[Exponent, RatLike]]:
        return iter(sorted(self.terms.items(), reverse=True))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self:
            factors = []
            for i, name in enumerate(PARAM_NAMES):
                if e[i] == 1:
                    factors.append(name)
                elif e[i]:
                    factors.append(f"{name}^{e[i]}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


S = ParamPoly.var("s")
T = ParamPoly.var("t")
LAM = ParamPoly.var("lam")
MU = ParamPoly.var("mu")
TAU = ParamPoly.var("tau")
TAU_INV = ParamPoly.var("tau", -1)


@dataclass(frozen=True)
class Gaussian:
    """Exact Gaussian rational re + im*i; a rational factor multiplies it
    from either side."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, o):
        return Gaussian(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Gaussian(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        if type(o) is not Gaussian:
            return Gaussian(self.re * o, self.im * o)
        return Gaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()


G_ONE = Gaussian(Fraction(1))
G_I = Gaussian(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# exact linear algebra


class SingularMatrixError(ArithmeticError):
    """Inverse of a singular matrix requested."""


def rref(rows: Sequence[Sequence[RatLike]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q by Gauss-Jordan elimination: the
    reduced rows (zero rows last) and the pivot column of each nonzero row.
    The pivot columns are the first columns independent of those before."""
    M = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(M[0]) if M else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][col]
        M[r] = [v * inv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col]:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(col)
        if len(pivots) == len(M):
            break
    return M, pivots


def fraction_matrix_inverse(G: Sequence[Sequence[RatLike]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix, by Gauss-Jordan on [G | 1]."""
    m = len(G)
    reduced, pivots = rref([list(G[i]) + [int(i == j) for j in range(m)] for i in range(m)])
    if pivots[:m] != list(range(m)):
        raise SingularMatrixError("singular matrix has no inverse")
    return [row[m:] for row in reduced]


Matrix = tuple[tuple[RatLike, ...], ...]


def matrix(rows: Sequence[Sequence[RatLike]]) -> Matrix:
    """An exact rational matrix as a tuple of rows, each entry in its stored
    form: int if integral, else Fraction."""
    return tuple(tuple(_as_rational(v) for v in row) for row in rows)


def transpose(A: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(zip(*A))


def mat_sub(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple[tuple, ...]:
    """Exact matrix product; entries Fraction or Gaussian.  Zero entries of
    both factors are skipped, so only products of two nonzero entries are
    formed; an entry with none is the zero of the entry type."""
    zero = type(A[0][0] * B[0][0])()
    ncols = len(B[0])
    rows_b = [[(j, b) for j, b in enumerate(Bk) if b] for Bk in B]
    out = []
    for row in A:
        entries = [None] * ncols
        for a, Bk in zip(row, rows_b):
            if a:
                for j, b in Bk:
                    prev = entries[j]
                    entries[j] = a * b if prev is None else prev + a * b
        out.append(tuple(zero if v is None else v for v in entries))
    return tuple(out)
